//! §5.4 replay: re-deliver a captured, perfectly valid message.
//!
//! The attacker records Alice's (signed, sealed) transfer of version 1 of
//! an object, waits for Alice to upload version 2, then replays the v1
//! capture. With sequence-number checking, the stale message is refused;
//! without it, the provider "helpfully" rolls the object back to v1 and
//! even issues a fresh receipt — the attacker rewrote history with traffic
//! it could not read or modify.

use crate::harness::{AttackKind, AttackOutcome};
use std::sync::{Arc, Mutex};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::message::Message;
use tpnr_core::runner::World;
use tpnr_net::codec::Wire;
use tpnr_net::sim::Action;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Runs the replay attack against the given protocol variant.
pub fn run(ablation: Ablation) -> AttackOutcome {
    let cfg = ProtocolConfig::ablated(ablation);
    let mut w = World::new(41, cfg);

    // A passive wiretap records alice→bob traffic.
    let tape: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = tape.clone();
    let alice_node = w.alice_node;
    let bob_node = w.bob_node;
    w.net_mut().set_interceptor(Box::new(
        move |src: tpnr_net::NodeId, dst: tpnr_net::NodeId, payload: &[u8], _t| {
            if src == alice_node && dst == bob_node {
                // The wiretap's own recording copy; replaying the capture
                // later decodes it as a shared zero-copy frame.
                tap.lock().unwrap().push(Bytes::from(payload.to_vec()));
            }
            Action::Deliver
        },
    ));

    // Alice uploads v1, then v2 of the same object.
    let r1 = w.upload(b"doc", b"version 1".to_vec(), TimeoutStrategy::AbortFirst);
    let _r2 = w.upload(b"doc", b"version 2".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(w.provider.peek_storage(b"doc"), Some(&b"version 2"[..]));

    // The attacker replays the captured v1 transfer verbatim.
    let captured = tape.lock().unwrap()[0].clone();
    let replayed = Message::from_wire_bytes(&captured).expect("captured frame decodes");
    assert_eq!(replayed.txn_id(), r1.txn_id);
    let alice_id = w.client.id();
    let now = w.net().now();
    let result = w.provider.handle(alice_id, &replayed, now);

    let rolled_back = w.provider.peek_storage(b"doc") == Some(&b"version 1"[..]);
    let succeeded = result.is_ok() && rolled_back;

    AttackOutcome {
        attack: AttackKind::Replay,
        ablation,
        blocked: !succeeded,
        detail: if succeeded {
            "replayed v1 transfer was accepted: storage rolled back from v2 to v1 and a \
             fresh receipt was issued for stale data"
                .to_string()
        } else {
            format!(
                "replay refused ({}); storage still holds v2",
                result.err().map(|e| e.to_string()).unwrap_or_else(|| "no rollback".into())
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_protocol_blocks_replay() {
        let o = run(Ablation::None);
        assert!(o.blocked, "{}", o.detail);
        assert!(o.detail.contains("stale sequence"), "{}", o.detail);
    }

    #[test]
    fn ablated_sequence_numbers_admit_replay() {
        let o = run(Ablation::NoSequenceNumbers);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_replay() {
        let o = run(Ablation::NoKeyAuthentication);
        assert!(o.blocked);
    }
}
