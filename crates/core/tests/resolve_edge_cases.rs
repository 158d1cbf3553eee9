//! Edge cases of the Abort and Resolve sub-protocols (paper §4.2–4.3):
//! error-and-regenerate abort handling, abort-after-completion rejection,
//! the evidence an aborted upload archives, forged and inconsistent resolve
//! requests at the TTP, what the TTP's forward and failure reply name, and
//! resolve replay safety.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::evidence::{EvidencePlaintext, Flag, SealedEvidence};
use tpnr_core::message::{Message, MsgKind};
use tpnr_core::runner::World;
use tpnr_core::session::{TxnState, ValidationError};
use tpnr_crypto::hash::HashAlg;
use tpnr_net::codec::Wire;
use tpnr_net::sim::{Action, LinkConfig};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

#[test]
fn abort_after_completion_is_rejected() {
    // Bob completed the upload (stored + issued NRR) but the receipt was
    // lost. Alice aborts; Bob answers Reject — too late to cancel — and
    // Alice records the AbortRejected terminal state, still holding Bob's
    // signed abort acknowledgement.
    let mut w = World::new(11, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    // Drop only the first bob→alice message (the receipt); let later ones by.
    let dropped = Arc::new(AtomicBool::new(false));
    let flag = dropped.clone();
    w.net_mut().set_interceptor(Box::new(
        move |src: tpnr_net::NodeId, dst: tpnr_net::NodeId, _p: &[u8], _t| {
            if src == b && dst == a && !flag.load(Ordering::Relaxed) {
                flag.store(true, Ordering::Relaxed);
                Action::Drop
            } else {
                Action::Deliver
            }
        },
    ));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::AbortRejected);
    assert!(w.client.txn(r.txn_id).unwrap().nrr().unwrap().is_some(), "Bob's abort NRR archived");
    // The data IS stored — Bob completed his side.
    assert_eq!(w.provider.peek_storage(b"k"), Some(&b"data"[..]));
}

#[test]
fn late_abort_reply_does_not_reopen_a_completed_upload() {
    // The receipt is slow, not lost: Bob completes and sends it at 10 ms,
    // Alice's Abort leaves at her 200 ms timeout, the receipt lands at
    // 310 ms, and Bob's Reject — he had completed — lands at 510 ms. The
    // upload was settled by the receipt; the late reply must not move it
    // to AbortRejected or swap its receipt for the abort acknowledgement.
    let mut cfg = ProtocolConfig::full();
    cfg.response_timeout = SimDuration::from_millis(200);
    let mut w = World::new(5, cfg);
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
    w.net_mut().set_link(b, a, LinkConfig::ideal(SimDuration::from_millis(300)));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    let reject_at = w
        .obs
        .events()
        .iter()
        .find(|e| e.actor == a && e.msg_kind() == Some(MsgKind::AbortReply))
        .expect("Bob's Reject reached Alice")
        .at;
    assert_eq!(reject_at.micros(), 510_000);
    assert_eq!(r.outcome, TxnState::Completed);
    let nrr = w.client.txn(r.txn_id).unwrap().nrr().unwrap().expect("the receipt NRR is kept");
    assert_eq!(nrr.plaintext.flag, Flag::UploadReceipt);
}

#[test]
fn an_evicted_aborted_upload_archives_no_provider_nrr() {
    // Bob ignores the first upload's transfer and accepts its abort, so he
    // never signed a receipt for it. Once the aborted upload is evicted,
    // its archived bundle must not hold a provider NRR, and every entry it
    // does hold must verify under its own sender's key.
    let cfg = ProtocolConfig::full();
    let mut w = World::new(5, cfg.clone());
    w.set_archive_capacity(1);
    w.provider.behavior.respond_transfers = false;
    let aborted = w.upload(b"k-aborted", vec![0; 32], TimeoutStrategy::AbortFirst);
    assert_eq!(aborted.outcome, TxnState::Aborted);
    w.provider.behavior.respond_transfers = true;
    for i in 1..40u8 {
        assert!(w.upload(&[b'k', i], vec![i; 32], TimeoutStrategy::AbortFirst).completed());
    }
    assert!(w.client.txn(aborted.txn_id).is_none(), "the aborted upload was evicted");
    let bundle = w.rehydrate_evidence(aborted.txn_id).expect("archived bundle loads");
    assert!(bundle.get("client-nro").is_some() && bundle.get("provider-nro").is_some());
    assert!(bundle.get("provider-nrr").is_none(), "Bob signed no receipt for an aborted upload");
    for entry in &bundle.entries {
        let sender = entry.evidence.plaintext.sender;
        let pk = w.dir.lookup(&sender).expect("every sender is registered");
        let verdict = entry.evidence.reverify(&cfg, pk);
        assert!(
            verdict.is_ok(),
            "{} does not verify under its sender's key: {verdict:?}",
            entry.label
        );
    }
}

#[test]
fn corrupted_abort_gets_error_reply_and_retry_succeeds() {
    // The paper's Error answer: "Bob will send an Error message that
    // request Alice double check the parameters … regenerate it, and
    // re-submit the request."
    let mut w = World::new(12, ProtocolConfig::full());
    w.provider.behavior.respond_transfers = false; // force the abort path
    let (a, b) = (w.alice_node, w.bob_node);
    let corrupted_once = Arc::new(AtomicBool::new(false));
    let flag = corrupted_once.clone();
    w.net_mut().set_interceptor(Box::new(
        move |src: tpnr_net::NodeId, dst: tpnr_net::NodeId, payload: &[u8], _t| {
            if src == a && dst == b && !flag.load(Ordering::Relaxed) {
                if let Ok(Message::Abort { plaintext, .. }) = Message::from_wire(payload) {
                    // Corrupt the sealed evidence: Bob can't verify it and
                    // must answer Error.
                    flag.store(true, Ordering::Relaxed);
                    let forged = Message::Abort {
                        plaintext,
                        evidence: SealedEvidence { sealed: vec![0xde, 0xad, 0xbe, 0xef] },
                    };
                    return Action::Modify(forged.to_wire());
                }
            }
            Action::Deliver
        },
    ));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    // After the Error round-trip, the regenerated abort is accepted.
    assert_eq!(r.outcome, TxnState::Aborted);
    assert!(corrupted_once.load(Ordering::Relaxed), "the corruption path actually ran");
    // The event stream shows an extra Abort/AbortReply pair beyond the
    // minimum (the garbled forgery plus the regenerated original).
    let aborts = w.obs.events().iter().filter(|e| e.msg_kind() == Some(MsgKind::Abort)).count();
    assert!(aborts >= 2, "abort was regenerated, saw {aborts}");
}

#[test]
fn forged_resolve_rejected_by_ttp() {
    // Mallory cannot pull Bob into a resolve for a transaction she invents:
    // the TTP re-verifies the attached NRO signature against the directory.
    let mut w = World::new(13, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);

    // Build a resolve whose NRO has a doctored hash.
    let mut nro = w.client.txn(r.txn_id).unwrap().nro().unwrap();
    nro.plaintext.data_hash[0] ^= 1;
    let pt = tpnr_core::evidence::EvidencePlaintext {
        flag: Flag::ResolveRequest,
        sender: w.client.id(),
        recipient: w.ttp.id(),
        ttp: w.ttp.id(),
        txn_id: r.txn_id,
        seq: 10,
        nonce: 1,
        time_limit: tpnr_net::time::SimTime(u64::MAX),
        object: b"k".to_vec(),
        hash_alg: tpnr_crypto::hash::HashAlg::Sha256,
        data_hash: nro.plaintext.data_hash.clone(),
    };
    let msg = Message::Resolve { plaintext: pt, nro, report: "forged".into() };
    let alice_id = w.client.id();
    let now = w.net().now();
    let result = w.ttp.handle(alice_id, &msg, now);
    assert!(result.is_err(), "TTP must reject the doctored NRO");
    assert_eq!(w.ttp.stats.resolves_rejected, 1);
    assert_eq!(w.ttp.stats.forwards_sent, 0, "Bob is never bothered");
}

#[test]
fn resolve_from_wrong_party_rejected() {
    // A resolve naming Alice as sender but delivered from another principal
    // fails the identity binding at the TTP.
    let mut w = World::new(14, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    let nro = w.client.txn(r.txn_id).unwrap().nro().unwrap();
    let pt = tpnr_core::evidence::EvidencePlaintext {
        flag: Flag::ResolveRequest,
        sender: w.client.id(),
        recipient: w.ttp.id(),
        ttp: w.ttp.id(),
        txn_id: r.txn_id,
        seq: 10,
        nonce: 1,
        time_limit: tpnr_net::time::SimTime(u64::MAX),
        object: b"k".to_vec(),
        hash_alg: tpnr_crypto::hash::HashAlg::Sha256,
        data_hash: nro.plaintext.data_hash.clone(),
    };
    let msg = Message::Resolve { plaintext: pt, nro, report: "relayed".into() };
    let bob_id = w.provider.id(); // wrong wire sender
    let now = w.net().now();
    assert!(w.ttp.handle(bob_id, &msg, now).is_err());
}

#[test]
fn resolve_with_max_seq_forwards_without_overflow() {
    // Only the attached NRO is signed, so the initiator (or a wire
    // adversary) chooses the resolve's own seq; the TTP's fresh window
    // accepts `u64::MAX`, and the forward must not overflow past it.
    let mut w = World::new(15, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    let nro = w.client.txn(r.txn_id).unwrap().nro().unwrap();
    let pt = tpnr_core::evidence::EvidencePlaintext {
        flag: Flag::ResolveRequest,
        sender: w.client.id(),
        recipient: w.ttp.id(),
        ttp: w.ttp.id(),
        txn_id: r.txn_id,
        seq: u64::MAX,
        nonce: 1,
        time_limit: tpnr_net::time::SimTime(u64::MAX),
        object: b"k".to_vec(),
        hash_alg: tpnr_crypto::hash::HashAlg::Sha256,
        data_hash: nro.plaintext.data_hash.clone(),
    };
    let msg = Message::Resolve { plaintext: pt, nro, report: "max seq".into() };
    let alice_id = w.client.id();
    let now = w.net().now();
    let out = w.ttp.handle(alice_id, &msg, now).expect("a genuine NRO is accepted");
    assert_eq!(out.len(), 1);
    match &out[0].msg {
        Message::ResolveForward { plaintext, .. } => assert_eq!(plaintext.seq, u64::MAX),
        other => panic!("expected a ResolveForward, got {}", other.kind()),
    }
}

/// Alice's Resolve for `txn` at `seq`, carrying her genuine NRO, whose own
/// (unsigned) plaintext names `object` and the given hash.
fn resolve_naming(
    w: &World,
    txn: u64,
    seq: u64,
    object: &[u8],
    (hash_alg, data_hash): (HashAlg, Vec<u8>),
) -> Message {
    let nro = w.client.txn(txn).unwrap().nro().unwrap();
    let pt = tpnr_core::evidence::EvidencePlaintext {
        flag: Flag::ResolveRequest,
        sender: w.client.id(),
        recipient: w.ttp.id(),
        ttp: w.ttp.id(),
        txn_id: txn,
        seq,
        nonce: 1,
        time_limit: tpnr_net::time::SimTime(u64::MAX),
        object: object.to_vec(),
        hash_alg,
        data_hash,
    };
    Message::Resolve { plaintext: pt, nro, report: "resolve".into() }
}

/// The hash Alice's NRO for `txn` signed.
fn nro_hash(w: &World, txn: u64) -> (HashAlg, Vec<u8>) {
    let pt = &w.client.txn(txn).unwrap().nro().unwrap().plaintext;
    (pt.hash_alg, pt.data_hash.clone())
}

/// Asserts `pt` names the NRO's object `k` and the hash it signed.
fn names_the_nros_object_and_hash(pt: &EvidencePlaintext, signed: &(HashAlg, Vec<u8>)) {
    assert_eq!(pt.object, b"k", "the object Bob was sent, from the signed NRO");
    assert_eq!((pt.hash_alg, &pt.data_hash), (signed.0, &signed.1), "the NRO's hash");
}

#[test]
fn resolve_naming_a_hash_its_nro_did_not_sign_is_refused() {
    let mut w = World::new(17, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    let signed = nro_hash(&w, r.txn_id);
    assert_eq!(signed.0, HashAlg::Sha256);
    let (alice_id, now) = (w.client.id(), w.net().now());
    // Another hash, the signed hash under another algorithm, and another
    // hash under the signed algorithm.
    let unsigned = [
        (HashAlg::Md5, vec![7; 16]),
        (HashAlg::Md5, signed.1.clone()),
        (HashAlg::Sha256, vec![7; 32]),
    ];
    for (seq, hash) in (10..).zip(unsigned) {
        let msg = resolve_naming(&w, r.txn_id, seq, b"k", hash);
        assert_eq!(w.ttp.handle(alice_id, &msg, now).unwrap_err(), ValidationError::HashMismatch);
    }
    assert_eq!(w.ttp.stats.resolves_rejected, 3);
    assert_eq!(w.ttp.stats.forwards_sent, 0, "Bob is never asked about a hash nobody signed");
    assert_eq!(w.ttp.pending_count(), 0);

    // Naming the signed hash, even beside another object, is accepted, and
    // the forward names what the NRO names.
    let msg = resolve_naming(&w, r.txn_id, 20, b"another object", signed.clone());
    let out = w.ttp.handle(alice_id, &msg, now).expect("a consistent resolve is accepted");
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, w.provider.id());
    match &out[0].msg {
        Message::ResolveForward { plaintext, .. } => {
            assert_eq!(plaintext.flag, Flag::ResolveForward);
            assert_eq!(plaintext.txn_id, r.txn_id);
            names_the_nros_object_and_hash(plaintext, &signed);
        }
        other => panic!("expected a ResolveForward, got {}", other.kind()),
    }
}

#[test]
fn failed_reply_to_a_silent_respondent_names_the_nros_object_and_hash() {
    let mut w = World::new(18, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    let signed = nro_hash(&w, r.txn_id);
    let (alice_id, now) = (w.client.id(), w.net().now());
    let deadline = now.after(ProtocolConfig::full().response_timeout);
    // A refused Resolve leaves nothing pending, so no failure is declared.
    let msg = resolve_naming(&w, r.txn_id, 10, b"k", (HashAlg::Md5, vec![7; 16]));
    assert_eq!(w.ttp.handle(alice_id, &msg, now).unwrap_err(), ValidationError::HashMismatch);
    assert!(w.ttp.poll_timeouts(deadline).is_empty());
    assert_eq!(w.ttp.stats.failures_declared, 0);

    let msg = resolve_naming(&w, r.txn_id, 11, b"another object", signed.clone());
    w.ttp.handle(alice_id, &msg, now).expect("a consistent resolve is accepted");
    // The forward is never delivered: Bob stays silent past the deadline.
    assert!(w.ttp.poll_timeouts(now).is_empty(), "not yet due");
    let out = w.ttp.poll_timeouts(deadline);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, alice_id);
    assert_eq!(w.ttp.stats.failures_declared, 1);
    match &out[0].msg {
        Message::ResolveReply { action, plaintext, evidence } => {
            assert_eq!(*action, tpnr_core::message::ResolveAction::Failed);
            assert!(evidence.is_none());
            assert_eq!((plaintext.sender, plaintext.recipient), (w.ttp.id(), alice_id));
            assert_eq!(plaintext.txn_id, r.txn_id);
            names_the_nros_object_and_hash(plaintext, &signed);
        }
        other => panic!("expected a ResolveReply, got {}", other.kind()),
    }
}

#[test]
fn resolve_completes_then_late_receipt_is_harmless() {
    // The receipt is delayed (not dropped): Alice resolves, completes via
    // the TTP, and the original receipt arrives afterwards. It must not
    // disturb the settled state.
    let mut w = World::new(15, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    // Delay bob→alice by 90 seconds — far beyond the resolve settlement.
    w.net_mut().set_link(b, a, LinkConfig::ideal(tpnr_net::time::SimDuration::from_secs(90)));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.report.ttp_used);
    // Deliver whatever is still in flight (the slow receipt).
    w.settle();
    assert_eq!(w.client.txn_state(r.txn_id), Some(TxnState::Completed));
}

#[test]
fn ttp_ignores_unsolicited_resolve_replies() {
    let mut w = World::new(16, ProtocolConfig::full());
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    let pt = w.client.txn(r.txn_id).unwrap().nro().unwrap().plaintext.clone();
    let msg = Message::ResolveReply {
        action: tpnr_core::message::ResolveAction::Continue,
        plaintext: pt,
        evidence: None,
    };
    let bob_id = w.provider.id();
    let now = w.net().now();
    // No pending resolve exists: the reply is refused, nothing is relayed.
    assert!(w.ttp.handle(bob_id, &msg, now).is_err());
    assert_eq!(w.ttp.stats.replies_relayed, 0);
}
