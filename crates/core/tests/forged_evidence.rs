//! A message whose evidence does not verify must not spend its sender's
//! sequence number (§5.4). Each party judges a message's plaintext first
//! and advances the sender's replay window only once the sealed evidence
//! (or, at the TTP, the attached NRO) has verified; otherwise an adversary
//! who can only inject could copy a plaintext, attach junk for evidence,
//! and have the genuine message with the same number refused as a replay.

use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::evidence::{EvidencePlaintext, Flag, SealedEvidence};
use tpnr_core::message::{AbortOutcome, Message, MsgKind};
use tpnr_core::obs::EventKind;
use tpnr_core::runner::World;
use tpnr_core::sched::{EventHub, SettleOutcome};
use tpnr_core::session::{Outgoing, TxnState, ValidationError};
use tpnr_net::codec::Wire;
use tpnr_net::sim::{Action, Envelope};
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Sealed evidence that opens under no key: 128 zero bytes.
fn junk() -> SealedEvidence {
    SealedEvidence { sealed: vec![0; 128] }
}

/// `msg` with the same plaintext and [`junk`] for evidence, or, for a
/// Resolve, its NRO's plaintext signature zeroed.
fn forge(msg: &Message) -> Message {
    let junk = junk();
    match msg.clone() {
        Message::Transfer { plaintext, data, .. } => {
            Message::Transfer { plaintext, data, evidence: junk }
        }
        Message::Receipt { plaintext, data, .. } => {
            Message::Receipt { plaintext, data, evidence: junk }
        }
        Message::Abort { plaintext, .. } => Message::Abort { plaintext, evidence: junk },
        Message::AbortReply { outcome, plaintext, .. } => {
            Message::AbortReply { outcome, plaintext, evidence: junk }
        }
        Message::Resolve { plaintext, mut nro, report } => {
            nro.sig_plaintext.fill(0);
            Message::Resolve { plaintext, nro, report }
        }
        Message::ResolveReply { action, plaintext, .. } => {
            Message::ResolveReply { action, plaintext, evidence: Some(junk) }
        }
        other => panic!("{} carries no evidence to forge", other.kind()),
    }
}

fn refused_as_unverifiable(result: Result<Vec<Outgoing>, ValidationError>) {
    match result {
        Err(ValidationError::Evidence(_)) => {}
        other => panic!("expected an evidence error, got {other:?}"),
    }
}

/// An injection-only adversary turns Alice's Transfer plaintext around
/// into a Receipt "from Bob" numbered `seq`, with junk for evidence, and
/// injects it right behind the Transfer: it reaches Alice before Bob's
/// genuine receipt does.
fn upload_behind_a_forged_receipt(seq: u64) {
    let mut w = World::new(31, ProtocolConfig::full());
    let (alice, bob) = (w.alice_node, w.bob_node);
    w.net_mut().set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
        let Ok(Message::Transfer { plaintext, .. }) = Message::from_wire(payload) else {
            return Action::Deliver;
        };
        if (src, dst) != (alice, bob) {
            return Action::Deliver;
        }
        let plaintext = EvidencePlaintext {
            flag: Flag::UploadReceipt,
            sender: plaintext.recipient,
            recipient: plaintext.sender,
            seq,
            ..plaintext
        };
        let forged = Message::Receipt { plaintext, data: Bytes::new(), evidence: junk() };
        Action::InjectAfter(vec![(bob, alice, forged.to_wire())])
    }));
    let r = w.upload(b"doc", b"payload".to_vec(), TimeoutStrategy::AbortFirst);
    let settled = (TxnState::Completed, Some(SettleOutcome::Quiescent));
    assert_eq!((r.outcome, r.settle), settled, "seq {seq}");
    assert_eq!(w.net().stats().injected, 1, "seq {seq}");
    let refused = w.obs.events().iter().filter(|e| e.actor == alice);
    let refused = refused.filter(|e| matches!(e.kind, EventKind::Rejected { .. })).count();
    assert_eq!(refused, 1, "seq {seq}: only the forgery is refused");
    assert_eq!(r.nrr.expect("Bob's receipt is kept").plaintext.seq, 1, "seq {seq}");
}

#[test]
fn a_forged_receipt_injected_behind_the_transfer_leaves_the_upload_completed() {
    // At Bob's next number the genuine receipt used to be refused as stale
    // (the upload ended AbortRejected); at u64::MAX every later message
    // from Bob was, and the upload never ended.
    upload_behind_a_forged_receipt(1);
    upload_behind_a_forged_receipt(u64::MAX);
}

#[test]
fn a_forged_transfer_or_receipt_leaves_the_genuine_one_accepted() {
    let mut w = World::new(32, ProtocolConfig::full());
    let (alice, bob, now) = (w.client.id(), w.provider.id(), w.net().now());
    let strategy = TimeoutStrategy::AbortFirst;
    let (txn, out) = w.client.begin_upload(b"k", b"data".to_vec(), now, strategy).unwrap();
    let transfer = &out[0].msg;
    refused_as_unverifiable(w.provider.handle(alice, &forge(transfer), now));
    let receipt = w.provider.handle(alice, transfer, now).expect("the genuine Transfer");
    assert_eq!(w.provider.peek_storage(b"k"), Some(&b"data"[..]));

    let receipt = &receipt[0].msg;
    refused_as_unverifiable(w.client.handle(bob, &forge(receipt), now));
    w.client.handle(bob, receipt, now).expect("the genuine Receipt");
    assert_eq!(w.client.txn(txn).unwrap().state, TxnState::Completed);
}

#[test]
fn a_forged_abort_or_abort_reply_leaves_the_genuine_one_accepted() {
    let cfg = ProtocolConfig::full();
    let mut w = World::new(33, cfg.clone());
    let (alice, bob, now) = (w.client.id(), w.provider.id(), w.net().now());
    // The Transfer is lost, so Alice aborts at her timeout.
    let strategy = TimeoutStrategy::AbortFirst;
    let (txn, _lost) = w.client.begin_upload(b"k", b"data".to_vec(), now, strategy).unwrap();
    let later = now.after(cfg.response_timeout);
    let abort = w.client.poll_timeouts(later);
    let abort = &abort[0].msg;

    // An unverifiable Abort still gets the paper's Error answer.
    let answer = w.provider.handle(alice, &forge(abort), later).expect("an Error answer");
    assert!(matches!(answer[0].msg, Message::AbortReply { outcome: AbortOutcome::Error, .. }));
    let reply = w.provider.handle(alice, abort, later).expect("the genuine Abort");
    let reply = &reply[0].msg;
    assert!(matches!(reply, Message::AbortReply { outcome: AbortOutcome::Accept, .. }));

    refused_as_unverifiable(w.client.handle(bob, &forge(reply), later));
    w.client.handle(bob, reply, later).expect("the genuine AbortReply");
    assert_eq!(w.client.txn(txn).unwrap().state, TxnState::Aborted);
}

#[test]
fn a_forged_resolve_or_continue_reply_leaves_the_genuine_one_accepted() {
    let cfg = ProtocolConfig::full();
    let mut w = World::new(34, cfg.clone());
    let (alice, bob, ttp, now) = (w.client.id(), w.provider.id(), w.ttp.id(), w.net().now());
    // Bob serves the Transfer but his receipt is lost, so Alice resolves.
    let strategy = TimeoutStrategy::ResolveImmediately;
    let (txn, out) = w.client.begin_upload(b"k", b"data".to_vec(), now, strategy).unwrap();
    w.provider.handle(alice, &out[0].msg, now).expect("the Transfer");
    let later = now.after(cfg.response_timeout);
    let resolve = w.client.poll_timeouts(later);
    let resolve = &resolve[0].msg;

    // The forgery reaches the TTP through the runner at `later`, so the
    // obs sink records what became of it: one refusal, and no accepted
    // Resolve, which is all a forward follows.
    w.net_mut().advance(later.since(now));
    let (src, dst, payload) = (w.alice_node, w.ttp_node, forge(resolve).to_wire_bytes());
    w.deliver(Envelope { src, dst, payload, delivered_at: later, txn: Some(txn) });
    let at_ttp: Vec<_> =
        w.obs.events().iter().filter(|e| e.actor == dst).map(|e| &e.kind).collect();
    let refused = matches!(at_ttp[..], [EventKind::Rejected { msg: MsgKind::Resolve, error, .. }]
        if matches!(**error, ValidationError::Evidence(_)));
    assert!(refused, "{at_ttp:?}");
    let forward = w.ttp.handle(alice, resolve, later).expect("the genuine Resolve");
    let reply = w.provider.handle(ttp, &forward[0].msg, later).expect("Bob re-issues his NRR");
    let relayed = w.ttp.handle(bob, &reply[0].msg, later).expect("the TTP relays it");
    let relayed = &relayed[0].msg;

    refused_as_unverifiable(w.client.handle(ttp, &forge(relayed), later));
    w.client.handle(ttp, relayed, later).expect("the genuine Continue reply");
    assert_eq!(w.client.txn(txn).unwrap().state, TxnState::Completed);
}
