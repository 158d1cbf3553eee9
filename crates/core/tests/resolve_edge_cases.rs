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
use tpnr_core::obs::EventKind;
use tpnr_core::runner::World;
use tpnr_core::sched::EventHub;
use tpnr_core::session::{TxnState, ValidationError};
use tpnr_crypto::hash::HashAlg;
use tpnr_net::codec::Wire;
use tpnr_net::sim::{Action, Envelope, LinkConfig, NodeId};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Hands `msg` from `src` to `dst` through the runner at the world's
/// current time, so the obs sink records what the recipient made of it.
fn deliver(w: &mut World, src: NodeId, dst: NodeId, msg: &Message) {
    let (payload, delivered_at) = (msg.to_wire_bytes(), w.net().now());
    w.deliver(Envelope { src, dst, payload, delivered_at, txn: None });
}

/// Each message the TTP refused and why, in order, per the obs sink.
fn ttp_refusals(w: &World) -> Vec<(MsgKind, ValidationError)> {
    let at_ttp = w.obs.events().iter().filter(|e| e.actor == w.ttp_node);
    at_ttp
        .filter_map(|e| match &e.kind {
            EventKind::Rejected { msg, error, .. } => Some((*msg, (**error).clone())),
            _ => None,
        })
        .collect()
}

/// How many `kind` messages the TTP accepted, per the obs sink: it sends
/// a forward only for a Resolve it accepted, and relays only a reply it
/// accepted.
fn ttp_accepted(w: &World, kind: MsgKind) -> usize {
    let at_ttp = w.obs.events().iter().filter(|e| e.actor == w.ttp_node);
    at_ttp.filter(|e| matches!(e.kind, EventKind::Delivered { msg, .. } if msg == kind)).count()
}

/// Failures the TTP declared, per the obs sink: the messages its timer
/// rounds sent.
fn ttp_failures_declared(w: &World) -> usize {
    let at_ttp = w.obs.events().iter().filter(|e| e.actor == w.ttp_node);
    at_ttp
        .map(|e| match e.kind {
            EventKind::TimerFired { messages } => messages,
            _ => 0,
        })
        .sum()
}

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
    let (alice, ttp) = (w.alice_node, w.ttp_node);
    deliver(&mut w, alice, ttp, &msg);
    let refusals = ttp_refusals(&w);
    assert!(
        matches!(refusals[..], [(MsgKind::Resolve, ValidationError::Evidence(_))]),
        "TTP must reject the doctored NRO: {refusals:?}"
    );
    assert_eq!(ttp_accepted(&w, MsgKind::Resolve), 0, "Bob is never bothered");
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
    let (alice, ttp, alice_id, now) = (w.alice_node, w.ttp_node, w.client.id(), w.net().now());
    // Another hash, the signed hash under another algorithm, and another
    // hash under the signed algorithm.
    let unsigned = [
        (HashAlg::Md5, vec![7; 16]),
        (HashAlg::Md5, signed.1.clone()),
        (HashAlg::Sha256, vec![7; 32]),
    ];
    for (seq, hash) in (10..).zip(unsigned) {
        let msg = resolve_naming(&w, r.txn_id, seq, b"k", hash);
        deliver(&mut w, alice, ttp, &msg);
    }
    assert_eq!(ttp_refusals(&w), vec![(MsgKind::Resolve, ValidationError::HashMismatch); 3]);
    let accepted = ttp_accepted(&w, MsgKind::Resolve);
    assert_eq!(accepted, 0, "Bob is never asked about a hash nobody signed");
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
    let (alice, ttp, alice_id, now) = (w.alice_node, w.ttp_node, w.client.id(), w.net().now());
    let deadline = now.after(ProtocolConfig::full().response_timeout);
    // Both Resolves reach the TTP through the runner, and its timers fire
    // through the runner's timer round, so the obs sink sees it all.
    // A refused Resolve leaves nothing pending, so no failure is declared.
    let msg = resolve_naming(&w, r.txn_id, 10, b"k", (HashAlg::Md5, vec![7; 16]));
    deliver(&mut w, alice, ttp, &msg);
    assert_eq!(ttp_refusals(&w), [(MsgKind::Resolve, ValidationError::HashMismatch)]);
    w.fire_timers(deadline);
    assert_eq!(ttp_failures_declared(&w), 0);

    let msg = resolve_naming(&w, r.txn_id, 11, b"another object", signed.clone());
    deliver(&mut w, alice, ttp, &msg);
    assert_eq!(ttp_accepted(&w, MsgKind::Resolve), 1, "a consistent resolve is accepted");
    // The forward is never delivered: Bob stays silent past the deadline.
    w.fire_timers(now);
    assert_eq!(ttp_failures_declared(&w), 0, "not yet due");
    w.fire_timers(deadline);
    assert_eq!(ttp_failures_declared(&w), 1);
    // On the wire now: the undelivered forward to Bob, and the reply.
    let out: Vec<_> =
        w.net_mut().run_until_quiet().into_iter().filter(|e| e.dst == alice).collect();
    assert_eq!(out.len(), 1);
    match &Message::from_wire_bytes(&out[0].payload).expect("a protocol message") {
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
    let (bob, ttp) = (w.bob_node, w.ttp_node);
    // No pending resolve exists: the reply is refused, nothing is relayed.
    deliver(&mut w, bob, ttp, &msg);
    let refusals = ttp_refusals(&w);
    assert!(matches!(refusals[..], [(MsgKind::ResolveReply, _)]), "{refusals:?}");
    assert_eq!(ttp_accepted(&w, MsgKind::ResolveReply), 0);
}

#[test]
fn a_late_receipt_is_expired_but_its_relayed_copy_completes_the_upload() {
    // Every bob→alice message takes 300 ms, twice the 150 ms time limit:
    // Bob's receipt and his abort answer each arrive after their limits and
    // are refused as expired. The TTP's relay of the same receipt is judged
    // fresh, since Alice's resolve is open, and completes the upload.
    let cfg = ProtocolConfig::builder()
        .message_time_limit(SimDuration::from_millis(150))
        .response_timeout(SimDuration::from_millis(500))
        .build();
    let mut w = World::new(17, cfg);
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, LinkConfig::ideal(SimDuration::from_millis(300)));
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.report.ttp_used, "only the TTP's relay completes it");
    let expired: Vec<MsgKind> = w
        .obs
        .events()
        .iter()
        .filter(|e| e.actor == a)
        .filter_map(|e| match &e.kind {
            tpnr_core::obs::EventKind::Rejected { msg, error, .. } => {
                matches!(**error, ValidationError::Expired { .. }).then_some(*msg)
            }
            _ => None,
        })
        .collect();
    assert_eq!(expired, [MsgKind::Receipt, MsgKind::AbortReply]);
}
