//! §5.3 interleaving: splice messages across concurrent sessions.
//!
//! The attacker runs two transactions carrying the same object and tries to
//! satisfy the second with evidence captured from the first: it replaces
//! session 2's receipt in flight with session 1's, then cuts bob→alice. In
//! TPNR the signed plaintext binds the transaction id and a fresh nonce,
//! each session completes in a single round, and receive windows are per
//! transaction — so every splice either fails signature verification or
//! lands in the wrong replay window, and session 2 can only complete
//! through the TTP's resolve (the legitimate recovery path, not a splice).
//! As with reflection, the defence is structural; the [`crate::toy`]
//! symmetric protocol shows the attack class succeeding where that
//! structure is absent.

use crate::harness::{AttackKind, AttackOutcome, Stage};
use tpnr_core::config::Ablation;
use tpnr_core::runner::TxnResult;
use tpnr_net::sim::Action;
use tpnr_net::transport::Transport;

/// Runs the interleaving attack against the given protocol variant on
/// `net`.
pub fn run<T: Transport>(net: T, ablation: Ablation) -> AttackOutcome {
    play(net, ablation).0
}

/// Plays the attack: its outcome, and session 2's result.
fn play<T: Transport>(net: T, ablation: Ablation) -> (AttackOutcome, TxnResult) {
    let mut s = Stage::new(net, AttackKind::Interleaving, ablation);
    let (a, b) = (s.alice_node, s.bob_node);

    // Session 1 completes normally; its receipt is on tape.
    let tape = s.tap();
    s.alice_uploads(b"same-object", b"same bytes");
    let receipt1 = tape.first(b, a);

    // Session 2: identical object and bytes, but a new transaction. Bob's
    // receipt is swapped for session 1's, and nothing else of his reaches
    // Alice.
    let mut spliced = false;
    s.net_mut().set_interceptor(Box::new(move |src, dst, _: &[u8], _| {
        if (src, dst) != (b, a) {
            Action::Deliver
        } else if std::mem::replace(&mut spliced, true) {
            Action::Drop
        } else {
            Action::Modify(receipt1.clone())
        }
    }));
    let r2 = s.alice_uploads(b"same-object", b"same bytes");

    let outcome = s.outcome(
        r2.completed() && !r2.report.ttp_used,
        "session 2 was completed with a receipt spliced from session 1",
        format!(
            "splice refused (txn binding in signed plaintext): {}",
            s.refusal(a, "session 2 was not completed by the splice")
        ),
    );
    (outcome, r2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harness, toy};
    use tpnr_net::sim::SimNet;
    use tpnr_net::tcp::TcpNet;
    use tpnr_net::time::SimDuration;

    #[test]
    fn full_protocol_blocks_interleaving() {
        let o = harness::run(AttackKind::Interleaving, Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn interleaving_blocked_even_without_identity_binding() {
        let o = harness::run(AttackKind::Interleaving, Ablation::NoIdentityBinding);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn interleaving_blocked_even_without_sequence_numbers() {
        // Even with the replay window off, the spliced receipt names the
        // wrong transaction id and cannot complete session 2.
        let o = harness::run(AttackKind::Interleaving, Ablation::NoSequenceNumbers);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn session_two_completes_through_the_ttp_on_simnet_and_over_tcp() {
        // Bob's receipts never reach Alice in session 2, so it completes
        // only through the TTP's resolve, which relays his receipt well
        // after its 150 ms limit. The settle goes quiet within the step cap
        // (`alice_uploads` checks) instead of resolving forever.
        let check = |(o, r2): (AttackOutcome, TxnResult), wire: &str| {
            assert!(o.blocked, "{wire}: {}", o.detail);
            assert!(r2.completed() && r2.report.ttp_used, "{wire}: {:?}", r2.outcome);
            assert!(r2.report.latency > SimDuration::from_millis(500), "{wire}: a timer fired");
        };
        check(play(SimNet::new(71), Ablation::None), "SimNet");
        match TcpNet::new() {
            Ok(tcp) => check(play(tcp, Ablation::None), "loopback TCP"),
            Err(_) => eprintln!("loopback bind unavailable; skipping tcp test"),
        }
    }

    #[test]
    fn contrast_symmetric_protocol_falls_to_interleaving() {
        assert!(toy::interleaving_attack_succeeds());
    }
}
