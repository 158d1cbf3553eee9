//! Seeded fuzzing of `EvidenceBundle::load`, the decoder archived evidence
//! comes back through. Bundles saved from real transactions (an upload, a
//! download, an aborted upload and an evicted upload's four entries) are
//! mutated by flipping, truncating and inserting bytes, and each mutant's
//! digest is sealed again so it reaches the decoder instead of stopping at
//! the integrity check. Whatever the bytes:
//! - a load never panics and fails only with a `BundleError` other than
//!   `Corrupted`;
//! - a mutant that loads is canonical: `save` writes it back byte for byte;
//! - its entries decode to at most four times its length.

use proptest::prelude::*;
use std::sync::OnceLock;
use tpnr_core::archive::{BundleError, EvidenceBundle};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::runner::World;
use tpnr_core::session::TxnState;
use tpnr_crypto::hash::Digest as _;
use tpnr_crypto::sha2::Sha256;
use tpnr_net::codec::Wire;

/// A load's output may be this many times its input, counted as the wire
/// length of every entry's label and evidence. An evidence item is decoded
/// once, a reference repeats it once, and one derived entry copies the
/// first entry's fields: four times at most.
const EXPANSION: usize = 4;

/// The saved bundles every mutant starts from.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut w = World::new(11, ProtocolConfig::full());
        w.set_archive_capacity(1);
        let up = w.upload(b"k-up", vec![1; 64], TimeoutStrategy::AbortFirst);
        let down = w.download(b"k-up", TimeoutStrategy::AbortFirst);
        assert!(up.completed() && down.completed());
        let client_pair = |w: &World, txn| EvidenceBundle::from_client_txn(&w.client, txn).unwrap();
        let mut corpus =
            vec![client_pair(&w, up.txn_id).save(), client_pair(&w, down.txn_id).save()];
        w.provider.behavior.respond_transfers = false;
        let aborted = w.upload(b"k-aborted", vec![2; 64], TimeoutStrategy::AbortFirst);
        assert_eq!(aborted.outcome, TxnState::Aborted);
        corpus.push(client_pair(&w, aborted.txn_id).save());
        w.provider.behavior.respond_transfers = true;
        for i in 0..40u8 {
            assert!(w.upload(&[b'f', i], vec![i; 64], TimeoutStrategy::AbortFirst).completed());
        }
        let evicted = w.rehydrate_evidence(up.txn_id).expect("the upload was evicted");
        assert_eq!(evicted.entries.len(), 4);
        corpus.push(evicted.save());
        corpus
    })
}

/// `body` with a valid digest appended.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let digest = Sha256::digest(&body);
    body.extend_from_slice(&digest);
    body
}

/// Applies one mutation to `body`: flip bits of a byte, truncate, or
/// insert a byte, at `at` modulo the length.
fn mutate(body: &mut Vec<u8>, (op, at, byte): (u8, u32, u8)) {
    let at = at as usize % (body.len() + 1);
    match op {
        0 if at < body.len() => body[at] ^= byte | 1,
        1 => body.truncate(at),
        _ => body.insert(at, byte),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_mutated_bundle_loads_canonically_or_fails_cleanly(
        source in 0usize..4,
        ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
    ) {
        let saved = &corpus()[source];
        let mut body = saved[..saved.len() - 32].to_vec();
        for op in ops {
            mutate(&mut body, op);
        }
        let mutant = sealed(body);
        match EvidenceBundle::load(&mutant) {
            Ok(bundle) => {
                prop_assert_eq!(bundle.save(), mutant.clone(), "a loaded mutant saves back");
                let decoded: usize = bundle
                    .entries
                    .iter()
                    .map(|e| e.label.len() + e.evidence.encoded_len())
                    .sum();
                prop_assert!(
                    decoded <= EXPANSION * mutant.len(),
                    "{decoded} B decoded from {} B",
                    mutant.len()
                );
            }
            Err(e) => prop_assert_ne!(e, BundleError::Corrupted, "the digest was sealed again"),
        }
    }
}

#[test]
fn the_corpus_loads_and_mutations_reach_the_decoder() {
    // Each source loads as saved, so a mutant's failure is the mutation's.
    for saved in corpus() {
        assert_eq!(&EvidenceBundle::load(saved).unwrap().save(), saved);
    }
    // In the evicted upload's bundle, a flipped bit in the NRR's signature
    // still loads, and both entries that hold the NRR carry it; the same
    // flip in the last reference's index does not load.
    let evicted = &corpus()[3];
    let mut body = evicted[..evicted.len() - 32].to_vec();
    let sig = EvidenceBundle::load(evicted).unwrap().entries[1].evidence.sig_plaintext.clone();
    let at = body.windows(sig.len()).position(|w| w == &sig[..]).unwrap();
    mutate(&mut body, (0, at as u32, 1));
    let flipped = EvidenceBundle::load(&sealed(body.clone())).unwrap();
    assert_ne!(flipped.entries[1].evidence.sig_plaintext, sig);
    assert_eq!(flipped.entries[1].evidence, flipped.entries[3].evidence);
    let last = body.len() - 1;
    mutate(&mut body, (0, last as u32, 1));
    assert_eq!(EvidenceBundle::load(&sealed(body)), Err(BundleError::Malformed));
}
