//! §5.2 reflection: send a party's own traffic back at it.
//!
//! TPNR defeats reflection *structurally*: the protocol is not a
//! challenge–response system, every plaintext binds sender / recipient /
//! direction under the signature, and the two roles speak disjoint message
//! types. We run the reflection against TPNR (expected: blocked, in every
//! variant) and contrast it with [`crate::toy`]'s symmetric protocol where
//! the same attack succeeds — showing the attack class is real and the
//! structure is what stops it.

use crate::harness::{AttackKind, AttackOutcome};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::message::Message;
use tpnr_core::runner::World;
use tpnr_core::session::TxnState;
use tpnr_net::codec::Wire;
use tpnr_net::transport::Transport;

/// Runs the reflection attack against the given protocol variant.
pub fn run(ablation: Ablation) -> AttackOutcome {
    let cfg = ProtocolConfig::ablated(ablation);
    let mut w = World::new(61, cfg);
    let alice_id = w.client.id();
    let bob_id = w.provider.id();
    let now = w.net().now();

    // Capture Alice's outbound transfer…
    let (txn_id, out) = w
        .client
        .begin_upload(b"k", b"data".to_vec(), now, TimeoutStrategy::AbortFirst)
        .expect("initiation");
    let wire = out[0].msg.to_wire_bytes();

    // …and reflect it straight back at her, claiming it came from Bob.
    let reflected = Message::from_wire_bytes(&wire).unwrap();
    let result = w.client.handle(bob_id, &reflected, now);

    // Also try reflecting Bob's receipt back at Bob (the other direction).
    let receipt_reflection = {
        let fwd = Message::from_wire_bytes(&wire).unwrap();
        let replies = w.provider.handle(alice_id, &fwd, now).unwrap_or_default();
        match replies.into_iter().next() {
            Some(r) => w.provider.handle(alice_id, &r.msg, now).is_ok(),
            None => false,
        }
    };

    let state_moved = w.client.txn_state(txn_id) == Some(TxnState::Completed);
    let succeeded = (result.is_ok() && state_moved) || receipt_reflection;

    AttackOutcome {
        attack: AttackKind::Reflection,
        ablation,
        blocked: !succeeded,
        detail: if succeeded {
            "a reflected message was accepted by its own sender".to_string()
        } else {
            format!(
                "reflection refused (role asymmetry + direction binding): {}",
                result.err().map(|e| e.to_string()).unwrap_or_else(|| "state unchanged".into())
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn full_protocol_blocks_reflection() {
        let o = run(Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn reflection_blocked_even_without_identity_binding() {
        // The defence is structural: the client simply has no code path
        // that accepts a Transfer, with or without identity checks.
        let o = run(Ablation::NoIdentityBinding);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn contrast_symmetric_protocol_falls_to_reflection() {
        assert!(toy::reflection_attack_succeeds());
    }
}
