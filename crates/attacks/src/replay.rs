//! §5.4 replay: re-deliver a captured, perfectly valid message.
//!
//! The attacker records Alice's (signed, sealed) transfer of version 1 of
//! an object, waits for Alice to upload version 2, then replays the v1
//! capture from Alice's node. With sequence-number checking, the stale
//! message is refused; without it, the provider "helpfully" rolls the
//! object back to v1 and even issues a fresh receipt — the attacker
//! rewrote history with traffic it could not read or modify.

use crate::harness::{AttackKind, AttackOutcome, Stage};
use tpnr_core::config::Ablation;
use tpnr_net::transport::Transport;

/// Runs the replay attack against the given protocol variant on `net`.
pub fn run<T: Transport>(net: T, ablation: Ablation) -> AttackOutcome {
    let mut s = Stage::new(net, AttackKind::Replay, ablation);
    let (a, b) = (s.alice_node, s.bob_node);

    // A passive wiretap records Alice's uploads of v1, then v2, of one
    // object.
    let tape = s.tap();
    s.alice_uploads(b"doc", b"version 1");
    s.alice_uploads(b"doc", b"version 2");
    assert_eq!(s.provider.peek_storage(b"doc"), Some(&b"version 2"[..]));

    // The attacker replays the captured v1 transfer verbatim.
    s.spoof(a, b, tape.first(a, b));

    s.outcome(
        s.provider.peek_storage(b"doc") == Some(&b"version 1"[..]),
        "replayed v1 transfer was accepted: storage rolled back from v2 to v1 and a fresh \
         receipt was issued for stale data",
        format!("replay refused ({}); storage still holds v2", s.refusal("bob", "no rollback")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn full_protocol_blocks_replay() {
        let o = harness::run(AttackKind::Replay, Ablation::None);
        assert!(o.blocked, "{}", o.detail);
        assert!(o.detail.contains("stale sequence"), "{}", o.detail);
    }

    #[test]
    fn ablated_sequence_numbers_admit_replay() {
        let o = harness::run(AttackKind::Replay, Ablation::NoSequenceNumbers);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_replay() {
        let o = harness::run(AttackKind::Replay, Ablation::NoKeyAuthentication);
        assert!(o.blocked);
    }
}
