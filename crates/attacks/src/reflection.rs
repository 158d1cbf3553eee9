//! §5.2 reflection: send a party's own traffic back at it.
//!
//! TPNR defeats reflection *structurally*: the protocol is not a
//! challenge–response system, every plaintext binds sender / recipient /
//! direction under the signature, and the two roles speak disjoint message
//! types. The attacker taps two completed uploads and sends every frame
//! back to its own sender from the node it was addressed to: Alice's
//! transfers back to Alice from Bob's node, Bob's receipts back to Bob from
//! Alice's. We run the reflection against TPNR (expected: blocked, in every
//! variant) and contrast it with [`crate::toy`]'s symmetric protocol where
//! the same attack succeeds — showing the attack class is real and the
//! structure is what stops it.

use crate::harness::{AttackKind, AttackOutcome, Stage};
use tpnr_core::config::Ablation;
use tpnr_net::transport::Transport;

/// Runs the reflection attack against the given protocol variant on `net`.
pub fn run<T: Transport>(net: T, ablation: Ablation) -> AttackOutcome {
    let mut s = Stage::new(net, AttackKind::Reflection, ablation);
    let tape = s.tap();
    s.alice_uploads(b"k", b"data");
    s.alice_uploads(b"k", b"more data");

    // Messages the honest parties have accepted so far: any reflected
    // frame either of them accepts on top of these is a success.
    let accepted = |s: &Stage<T>| s.client.actor_stats.accepted + s.provider.actor_stats.accepted;
    let before = accepted(&s);
    for (src, dst, frame) in tape.take() {
        s.spoof(dst, src, frame);
    }
    s.outcome(
        accepted(&s) > before,
        "a reflected message was accepted by its own sender",
        format!(
            "reflection refused (role asymmetry + direction binding): {}",
            s.refusal(s.alice_node, "state unchanged")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harness, toy};

    #[test]
    fn full_protocol_blocks_reflection() {
        let o = harness::run(AttackKind::Reflection, Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn reflection_blocked_even_without_identity_binding() {
        // The defence is structural: the client simply has no code path
        // that accepts a Transfer, with or without identity checks.
        let o = harness::run(AttackKind::Reflection, Ablation::NoIdentityBinding);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn contrast_symmetric_protocol_falls_to_reflection() {
        assert!(toy::reflection_attack_succeeds());
    }
}
