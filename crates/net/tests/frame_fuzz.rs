//! Seeded fuzzing of the real-wire frame path: `read_frame`, then
//! `Envelope::from_wire_bytes`, which is what a socket's bytes go through.
//! The corpus is four `write_frame`d envelopes, tagged and untagged, each
//! with an empty and with a 1 KiB payload. Each frame is mutated by
//! flipping, truncating and inserting bytes, its length prefix included.
//! Whatever the bytes, a read never panics, and a body that decodes is
//! canonical: the envelope encodes back to exactly that body.

use proptest::prelude::*;
use std::io::Cursor;
use std::sync::OnceLock;
use tpnr_net::codec::{read_frame, write_frame, Wire};
use tpnr_net::sim::{Envelope, NodeId};
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// The four framed envelopes.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let kib: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut frames = Vec::new();
        for txn in [Some(0x0102_0304_0506_0708), None] {
            for payload in [Vec::new(), kib.clone()] {
                let payload = Bytes::from(payload);
                let (src, dst, delivered_at) = (NodeId(3), NodeId(7), SimTime::ZERO);
                let mut frame = Vec::new();
                let env = Envelope { src, dst, payload, delivered_at, txn };
                write_frame(&mut frame, &env).expect("a Vec takes any frame");
                frames.push(frame);
            }
        }
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
        if let Ok(body) = read_frame(&mut Cursor::new(&frame)) {
            if let Ok(env) = Envelope::from_wire_bytes(&Bytes::from(body.clone())) {
                prop_assert_eq!(env.to_wire(), body, "a decoded mutant encodes back");
            }
        }
    }
}

#[test]
fn the_corpus_reads_back_exactly() {
    for frame in corpus() {
        let body = read_frame(&mut Cursor::new(frame)).expect("a real frame");
        assert_eq!(frame[..4], (body.len() as u32).to_be_bytes());
        let env = Envelope::from_wire_bytes(&Bytes::from(body.clone())).expect("a real body");
        assert_eq!(env.to_wire(), body);
    }
}
