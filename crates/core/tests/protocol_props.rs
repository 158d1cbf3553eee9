//! Property tests on the protocol layer: round-trip fidelity for arbitrary
//! payloads, tamper detection for arbitrary corruption, arbitration
//! fairness (an honest provider is never convicted; a tampering provider
//! always is), wire-form round-trips, and guaranteed termination under
//! random network fault mixes.

use proptest::prelude::*;
use tpnr_core::arbiter::{Arbitrator, DisputeCase, Verdict};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::runner::World;
use tpnr_core::session::TxnState;
use tpnr_net::sim::LinkConfig;
use tpnr_net::time::SimDuration;

fn case_for(w: &World, up: u64, down: u64) -> DisputeCase {
    DisputeCase {
        claimant: Some(w.client.id()),
        respondent: Some(w.provider.id()),
        upload_nrr: w.client.txn(up).and_then(|t| t.nrr().unwrap()),
        download_nrr: w.client.txn(down).and_then(|t| t.nrr().unwrap()),
        upload_nro: w.provider.txn(up).map(|t| t.nro().unwrap()),
        download_nro: w.provider.txn(down).map(|t| t.nro().unwrap()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_fidelity_for_any_payload(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        key in proptest::collection::vec(any::<u8>(), 1..64),
        seed in any::<u64>(),
    ) {
        let mut w = World::new(seed, ProtocolConfig::full());
        let up = w.upload(&key, data.clone(), TimeoutStrategy::AbortFirst);
        prop_assert_eq!(up.outcome, TxnState::Completed);
        prop_assert_eq!(up.report.messages, 2);
        let down = w.download(&key, TimeoutStrategy::AbortFirst);
        prop_assert_eq!(down.outcome, TxnState::Completed);
        prop_assert_eq!(down.data.clone().unwrap(), &data[..]);
        prop_assert_eq!(
            w.client.verify_download_against_upload(up.txn_id, down.txn_id),
            Some(true)
        );
    }

    #[test]
    fn any_actual_tamper_is_detected_and_attributed(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        tampered in proptest::collection::vec(any::<u8>(), 0..1024),
        seed in any::<u64>(),
    ) {
        prop_assume!(data != tampered);
        let mut w = World::new(seed, ProtocolConfig::full());
        let up = w.upload(b"obj", data, TimeoutStrategy::AbortFirst);
        w.provider.tamper_storage(b"obj", tampered);
        let down = w.download(b"obj", TimeoutStrategy::AbortFirst);
        prop_assert_eq!(
            w.client.verify_download_against_upload(up.txn_id, down.txn_id),
            Some(false)
        );
        let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
        prop_assert_eq!(arb.judge(&case_for(&w, up.txn_id, down.txn_id)), Verdict::ProviderAtFault);
    }

    #[test]
    fn honest_provider_never_convicted(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
        mutation in 0usize..6,
        byte in any::<u8>(),
    ) {
        // No tamper occurs; the claimant then mutates her submission in an
        // arbitrary way. Whatever she does, the verdict must never be
        // ProviderAtFault.
        let mut w = World::new(seed, ProtocolConfig::full());
        let up = w.upload(b"obj", data, TimeoutStrategy::AbortFirst);
        let down = w.download(b"obj", TimeoutStrategy::AbortFirst);
        let mut case = case_for(&w, up.txn_id, down.txn_id);
        match mutation {
            0 => { /* submit honestly */ }
            1 => case.upload_nrr = None,
            2 => case.download_nrr = None,
            3 => {
                if let Some(ev) = case.upload_nrr.as_mut() {
                    let i = byte as usize % ev.plaintext.data_hash.len();
                    ev.plaintext.data_hash[i] ^= byte | 1;
                }
            }
            4 => {
                if let Some(ev) = case.download_nrr.as_mut() {
                    let i = byte as usize % ev.sig_data_hash.len();
                    ev.sig_data_hash[i] ^= byte | 1;
                }
            }
            _ => {
                // Swap in her own NRO dressed as a receipt.
                if let Some(nro) = case.upload_nro.clone() {
                    case.upload_nrr = Some(nro);
                }
            }
        }
        let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
        let verdict = arb.judge(&case);
        prop_assert_ne!(verdict, Verdict::ProviderAtFault);
    }

    #[test]
    fn tampering_provider_cannot_escape_by_withholding(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        seed in any::<u64>(),
        hide_upload_nro in any::<bool>(),
    ) {
        // Provider tampers, then withholds whatever records it likes. As
        // long as the *claimant* kept her two receipts, conviction follows.
        let mut w = World::new(seed, ProtocolConfig::full());
        let mut tampered = data.clone();
        tampered.push(0xFF);
        let up = w.upload(b"obj", data, TimeoutStrategy::AbortFirst);
        w.provider.tamper_storage(b"obj", tampered);
        let down = w.download(b"obj", TimeoutStrategy::AbortFirst);
        let mut case = case_for(&w, up.txn_id, down.txn_id);
        if hide_upload_nro {
            case.upload_nro = None;
        }
        case.download_nro = None;
        let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
        prop_assert_eq!(arb.judge(&case), Verdict::ProviderAtFault);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_session_terminates_under_random_faults(
        seed in any::<u64>(),
        drop_prob in 0.0f64..0.6,
        dup_prob in 0.0f64..0.3,
        resolve_first in any::<bool>(),
    ) {
        let mut w = World::new(seed, ProtocolConfig::full());
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            drop_prob,
            dup_prob,
        });
        let strategy = if resolve_first {
            TimeoutStrategy::ResolveImmediately
        } else {
            TimeoutStrategy::AbortFirst
        };
        let r = w.upload(b"obj", vec![7u8; 128], strategy);
        prop_assert!(
            r.outcome.is_terminal(),
            "session stuck in {:?} (drop={drop_prob:.2}, dup={dup_prob:.2})",
            r.outcome
        );
    }

    #[test]
    fn duplicate_heavy_network_never_double_applies(
        seed in any::<u64>(),
        dup_prob in 0.5f64..1.0,
    ) {
        // Heavy duplication: the provider must archive exactly one
        // transaction (replay window absorbs the copies).
        let mut w = World::new(seed, ProtocolConfig::full());
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(10),
            dup_prob,
            ..Default::default()
        });
        let r = w.upload(b"obj", vec![1u8; 64], TimeoutStrategy::AbortFirst);
        prop_assert!(r.outcome.is_terminal());
        prop_assert_eq!(w.provider.txn_count(), 1);
    }
}
