//! §5.5 timeliness: hold a valid message back and deliver it much later.
//!
//! The attacker delays Alice's signed upload (say, "current price list") by
//! ten days and only then lets it through. With the per-message time limit
//! enforced, the stale message is refused on arrival; without it, the
//! provider installs ten-day-old data as current — and Alice's own
//! signature makes the stale state look authorised.

use crate::harness::{AttackKind, AttackOutcome};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::message::Message;
use tpnr_core::runner::World;
use tpnr_net::codec::Wire;
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Runs the timeliness attack against the given protocol variant.
pub fn run(ablation: Ablation) -> AttackOutcome {
    let cfg = ProtocolConfig::ablated(ablation);
    let mut w = World::new(51, cfg);
    let alice_id = w.client.id();

    // Alice signs an upload now…
    let now = w.net().now();
    let (_txn, out) = w
        .client
        .begin_upload(b"prices", b"prices as of day 0".to_vec(), now, TimeoutStrategy::AbortFirst)
        .expect("initiation");
    let Message::Transfer { .. } = &out[0].msg else { panic!("expected transfer") };
    let held = out[0].msg.to_wire_bytes();

    // …but the attacker sits on it for ten days before delivery.
    w.net_mut().advance(SimDuration::from_hours(10 * 24));
    let late = Message::from_wire_bytes(&held).unwrap();
    let now = w.net().now();
    let result = w.provider.handle(alice_id, &late, now);

    let installed = w.provider.peek_storage(b"prices").is_some();
    let succeeded = result.is_ok() && installed;

    AttackOutcome {
        attack: AttackKind::Timeliness,
        ablation,
        blocked: !succeeded,
        detail: if succeeded {
            "ten-day-old signed upload was installed as current data".to_string()
        } else {
            format!(
                "stale message refused on arrival: {}",
                result.err().map(|e| e.to_string()).unwrap_or_else(|| "not stored".into())
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_protocol_blocks_stale_delivery() {
        let o = run(Ablation::None);
        assert!(o.blocked, "{}", o.detail);
        assert!(o.detail.contains("expired"), "{}", o.detail);
    }

    #[test]
    fn ablated_time_limits_admit_stale_delivery() {
        let o = run(Ablation::NoTimeLimits);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_stale_delivery() {
        let o = run(Ablation::NoSequenceNumbers);
        assert!(o.blocked);
    }
}
