//! §5.3 interleaving: splice messages across concurrent sessions.
//!
//! The attacker runs two transactions carrying the same object and tries to
//! satisfy the second with evidence captured from the first. In TPNR the
//! signed plaintext binds the transaction id and a fresh nonce, each session
//! completes in a single round, and receive windows are per transaction —
//! so every splice either fails signature verification or lands in the
//! wrong replay window. As with reflection, the defence is structural; the
//! [`crate::toy`] symmetric protocol shows the attack class succeeding
//! where that structure is absent.

use crate::harness::{AttackKind, AttackOutcome};
use std::sync::{Arc, Mutex};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::message::Message;
use tpnr_core::runner::World;
use tpnr_core::session::TxnState;
use tpnr_net::codec::Wire;
use tpnr_net::sim::Action;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Runs the interleaving attack against the given protocol variant.
pub fn run(ablation: Ablation) -> AttackOutcome {
    let cfg = ProtocolConfig::ablated(ablation);
    let mut w = World::new(71, cfg);

    // Record bob→alice receipts.
    let tape: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = tape.clone();
    let bob_node = w.bob_node;
    let alice_node = w.alice_node;
    w.net_mut().set_interceptor(Box::new(
        move |src: tpnr_net::NodeId, dst: tpnr_net::NodeId, payload: &[u8], _t| {
            if src == bob_node && dst == alice_node {
                tap.lock().unwrap().push(Bytes::from(payload.to_vec()));
            }
            Action::Deliver
        },
    ));

    // Session 1 completes normally; its receipt is on tape.
    let _r1 = w.upload(b"same-object", b"same bytes".to_vec(), TimeoutStrategy::AbortFirst);
    let session1_receipt = Message::from_wire_bytes(&tape.lock().unwrap()[0]).unwrap();

    // Session 2: identical object and bytes, but a new transaction. The
    // attacker suppresses Bob's real receipt and splices in session 1's.
    w.net_mut().clear_interceptor();
    w.net_mut().set_interceptor(Box::new(
        move |src: tpnr_net::NodeId, dst: tpnr_net::NodeId, _payload: &[u8], _t| {
            if src == bob_node && dst == alice_node {
                Action::Drop
            } else {
                Action::Deliver
            }
        },
    ));
    let now = w.net().now();
    let (txn2, out) = w
        .client
        .begin_upload(b"same-object", b"same bytes".to_vec(), now, TimeoutStrategy::AbortFirst)
        .expect("initiation");
    w.send_from_client(out);
    while w.net().in_flight() {
        w.net_mut().step(); // deliver transfer; receipt is dropped
    }

    // The splice: deliver session 1's receipt as if it answered session 2.
    let bob_id = w.provider.id();
    let now = w.net().now();
    let result = w.client.handle(bob_id, &session1_receipt, now);
    let completed = w.client.txn_state(txn2) == Some(TxnState::Completed);
    let succeeded = result.is_ok() && completed;

    AttackOutcome {
        attack: AttackKind::Interleaving,
        ablation,
        blocked: !succeeded,
        detail: if succeeded {
            "session 2 was completed with a receipt spliced from session 1".to_string()
        } else {
            format!(
                "splice refused (txn binding in signed plaintext): {}",
                result.err().map(|e| e.to_string()).unwrap_or_else(|| "txn2 not completed".into())
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn full_protocol_blocks_interleaving() {
        let o = run(Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn interleaving_blocked_even_without_identity_binding() {
        let o = run(Ablation::NoIdentityBinding);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn interleaving_blocked_even_without_sequence_numbers() {
        // Even with the replay window off, the spliced receipt names the
        // wrong transaction id and cannot complete session 2.
        let o = run(Ablation::NoSequenceNumbers);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn contrast_symmetric_protocol_falls_to_interleaving() {
        assert!(toy::interleaving_attack_succeeds());
    }
}
