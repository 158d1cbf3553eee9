//! §5.5 timeliness: hold a valid message back and deliver it late.
//!
//! The attacker holds Alice's signed upload (say, "current price list") on
//! the wire for 300 ms, twice its 150 ms time limit, and only then lets it
//! through. With the per-message time limit enforced, the stale message is
//! refused on arrival and Alice's abort settles the session; without it,
//! the provider installs the stale data as current — and Alice's own
//! signature makes the stale state look authorised.

use crate::harness::{AttackKind, AttackOutcome, Stage};
use tpnr_core::config::Ablation;
use tpnr_net::sim::Action;
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Runs the timeliness attack against the given protocol variant on `net`.
pub fn run<T: Transport>(net: T, ablation: Ablation) -> AttackOutcome {
    let mut s = Stage::new(net, AttackKind::Timeliness, ablation);
    let (a, b) = (s.alice_node, s.bob_node);

    // The attacker sits on Alice's first frame to Bob, her transfer.
    let mut held = false;
    s.net_mut().set_interceptor(Box::new(move |src, dst, _: &[u8], _| {
        if (src, dst) == (a, b) && !std::mem::replace(&mut held, true) {
            Action::Delay(SimDuration::from_millis(300))
        } else {
            Action::Deliver
        }
    }));
    s.alice_uploads(b"prices", b"prices as of day 0");

    s.outcome(
        s.provider.peek_storage(b"prices").is_some(),
        "an upload held 300 ms past its 150 ms time limit was installed as current data",
        format!("stale message refused on arrival: {}", s.refusal("bob", "not stored")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn full_protocol_blocks_stale_delivery() {
        let o = harness::run(AttackKind::Timeliness, Ablation::None);
        assert!(o.blocked, "{}", o.detail);
        assert!(o.detail.contains("expired"), "{}", o.detail);
    }

    #[test]
    fn ablated_time_limits_admit_stale_delivery() {
        let o = harness::run(AttackKind::Timeliness, Ablation::NoTimeLimits);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_stale_delivery() {
        let o = harness::run(AttackKind::Timeliness, Ablation::NoSequenceNumbers);
        assert!(o.blocked);
    }
}
