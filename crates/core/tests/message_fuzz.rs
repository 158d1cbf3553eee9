//! Seeded fuzzing of `Message::from_wire_bytes`, the decoder every frame
//! off the wire goes through. The corpus is the frames of real runs: an
//! upload, a download, an upload Bob ignores and Alice aborts, and two
//! resolved uploads, one Bob refuses (he never saw it) and one he leaves
//! unanswered, which between them carry all seven message variants. Each
//! frame is mutated by flipping, truncating and inserting bytes. Whatever
//! the bytes, a decode never panics, and a mutant that decodes is
//! canonical: it encodes back to exactly its own bytes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::message::Message;
use tpnr_core::runner::World;
use tpnr_core::session::TxnState;
use tpnr_net::codec::Wire;
use tpnr_net::sim::Action;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Every frame the runs put on the wire, in send order.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let tape = frames.clone();
        let mut w = World::new(12, ProtocolConfig::full());
        w.net_mut().set_interceptor(Box::new(move |_src, _dst, payload: &[u8], _t| {
            tape.lock().expect("no recorder panics").push(payload.to_vec());
            Action::Deliver
        }));
        let strategy = TimeoutStrategy::AbortFirst;
        assert!(w.upload(b"k", vec![1; 64], strategy).completed());
        assert!(w.download(b"k", strategy).completed());
        w.provider.behavior.respond_transfers = false;
        assert_eq!(w.upload(b"k-aborted", vec![2; 64], strategy).outcome, TxnState::Aborted);
        let strategy = TimeoutStrategy::ResolveImmediately;
        assert_eq!(w.upload(b"k-refused", vec![3; 64], strategy).outcome, TxnState::Failed);
        w.provider.behavior.respond_resolves = false;
        assert_eq!(w.upload(b"k-silent", vec![4; 64], strategy).outcome, TxnState::Failed);
        let frames = frames.lock().expect("no recorder panics").clone();
        frames
    })
}

/// Applies one mutation to `frame`: flip bits of a byte, truncate, or
/// insert a byte, at `at` modulo the length.
fn mutate(frame: &mut Vec<u8>, (op, at, byte): (u8, u32, u8)) {
    let at = at as usize % (frame.len() + 1);
    match op {
        0 if at < frame.len() => frame[at] ^= byte | 1,
        1 => frame.truncate(at),
        _ => frame.insert(at, byte),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_mutated_frame_decodes_canonically_or_fails_cleanly(
        source in any::<u32>(),
        ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        let frames = corpus();
        let mut frame = frames[source as usize % frames.len()].clone();
        for op in ops {
            mutate(&mut frame, op);
        }
        if let Ok(msg) = Message::from_wire_bytes(&Bytes::from(frame.clone())) {
            prop_assert_eq!(msg.to_wire(), frame, "a decoded mutant encodes back");
        }
    }
}

#[test]
fn the_corpus_decodes_and_covers_every_variant() {
    let mut kinds = BTreeSet::new();
    for frame in corpus() {
        let msg = Message::from_wire_bytes(&Bytes::from(frame.clone())).expect("a real frame");
        assert_eq!(&msg.to_wire(), frame);
        kinds.insert(msg.kind().label());
    }
    assert_eq!(kinds.len(), 7, "{kinds:?}");
}
