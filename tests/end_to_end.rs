//! Cross-crate integration: the full paper narrative executed end to end —
//! platform vulnerability (storage crate) → TPNR remediation (core crate)
//! → arbitration — plus multi-object workloads and fault sweeps.

use tpnr::core::arbiter::{Arbitrator, DisputeCase, Verdict};
use tpnr::core::client::TimeoutStrategy;
use tpnr::core::config::ProtocolConfig;
use tpnr::core::runner::World;
use tpnr::core::session::TxnState;
use tpnr_net::sim::LinkConfig;
use tpnr_net::time::{SimDuration, SimTime};
use tpnr_storage::object::Tamper;
use tpnr_storage::platform::{all_platforms, ClientVerdict};

#[test]
fn figure5_story_platforms_fail_tpnr_closes_gap() {
    // Part 1: every platform model accepts the consistent tamper.
    for mut p in all_platforms(1) {
        p.upload("k", b"true", SimTime::ZERO);
        p.tamper("k", &Tamper::ConsistentReplace(b"fake".to_vec()));
        let d = p.download("k").unwrap();
        assert_eq!(d.data, b"fake");
        assert_eq!(d.client_check(), ClientVerdict::LooksClean, "{}", p.name());
    }

    // Part 2: the same story under TPNR ends with a conviction.
    let mut w = World::new(1, ProtocolConfig::full());
    let up = w.upload(b"k", b"true".to_vec(), TimeoutStrategy::AbortFirst);
    w.provider.tamper_storage(b"k", b"fake".to_vec());
    let down = w.download(b"k", TimeoutStrategy::AbortFirst);
    assert_eq!(down.data.clone().unwrap(), &b"fake"[..]);
    assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(false));

    let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
    let verdict = arb.judge(&DisputeCase {
        claimant: Some(w.client.id()),
        respondent: Some(w.provider.id()),
        upload_nrr: w.client.txn(up.txn_id).and_then(|t| t.nrr().unwrap()),
        download_nrr: w.client.txn(down.txn_id).and_then(|t| t.nrr().unwrap()),
        upload_nro: w.provider.txn(up.txn_id).map(|t| t.nro().unwrap()),
        download_nro: w.provider.txn(down.txn_id).map(|t| t.nro().unwrap()),
    });
    assert_eq!(verdict, Verdict::ProviderAtFault);
}

#[test]
fn many_objects_many_transactions() {
    // A realistic backup workload: 20 objects uploaded, spot-checked,
    // re-uploaded; every transaction completes in two messages.
    let mut w = World::new(2, ProtocolConfig::full());
    let mut txns = Vec::new();
    for i in 0..20u32 {
        let key = format!("backup/file-{i}").into_bytes();
        let data = vec![(i % 256) as u8; 100 + i as usize * 37];
        let r = w.upload(&key, data.clone(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert_eq!(r.report.messages, 2);
        txns.push((key, data, r.txn_id));
    }
    for (key, data, up_txn) in &txns {
        let down = w.download(key, TimeoutStrategy::AbortFirst);
        assert_eq!(down.data.clone().unwrap(), &data[..]);
        assert_eq!(w.client.verify_download_against_upload(*up_txn, down.txn_id), Some(true));
    }
    assert_eq!(w.provider.txn_count(), 40);
}

#[test]
fn versioned_overwrites_keep_latest_receipt_chain() {
    let mut w = World::new(3, ProtocolConfig::full());
    let v1 = w.upload(b"doc", b"v1".to_vec(), TimeoutStrategy::AbortFirst);
    let v2 = w.upload(b"doc", b"v2".to_vec(), TimeoutStrategy::AbortFirst);
    let down = w.download(b"doc", TimeoutStrategy::AbortFirst);
    assert_eq!(down.data.clone().unwrap(), &b"v2"[..]);
    // The download matches the latest upload and (correctly) contradicts v1.
    assert_eq!(w.client.verify_download_against_upload(v2.txn_id, down.txn_id), Some(true));
    assert_eq!(w.client.verify_download_against_upload(v1.txn_id, down.txn_id), Some(false));
}

#[test]
fn download_of_missing_object_is_attested_empty() {
    // Bob signs a receipt for "object k has no bytes" — which protects him
    // from later claims that he lost data that was never there.
    let mut w = World::new(4, ProtocolConfig::full());
    let down = w.download(b"never-uploaded", TimeoutStrategy::AbortFirst);
    assert_eq!(down.outcome, TxnState::Completed);
    assert_eq!(down.data.clone().unwrap(), &b""[..]);
}

#[test]
fn loss_sweep_terminates_and_completes_often() {
    let mut completed = 0;
    let total = 20;
    for seed in 0..total {
        let mut w = World::new(100 + seed, ProtocolConfig::full());
        w.set_all_links(LinkConfig::lossy(SimDuration::from_millis(20), 0.25));
        let r = w.upload(b"k", vec![1u8; 64], TimeoutStrategy::ResolveImmediately);
        assert!(r.outcome.is_terminal(), "seed {seed}: {:?}", r.outcome);
        if r.outcome == TxnState::Completed {
            completed += 1;
        }
    }
    assert!(completed >= total / 2, "resolve should rescue most sessions: {completed}/{total}");
}

#[test]
fn asymmetric_outage_only_receipts_lost() {
    // The classic unfairness scenario: Bob receives and stores, Alice gets
    // nothing back. Resolve restores fairness — Alice ends the run holding
    // the NRR she was owed.
    let mut w = World::new(5, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, LinkConfig { drop_prob: 1.0, ..Default::default() });
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.report.ttp_used);
    assert!(w.client.txn(r.txn_id).unwrap().nrr().unwrap().is_some());
    assert_eq!(w.provider.peek_storage(b"k"), Some(&b"data"[..]));
}

#[test]
fn abort_settles_when_provider_ignores_transfers() {
    let mut w = World::new(6, ProtocolConfig::full());
    w.provider.behavior.respond_transfers = false;
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Aborted);
    // Alice holds Bob's signed abort acknowledgement — her protection.
    assert!(w.client.txn(r.txn_id).unwrap().nrr().unwrap().is_some());
}

#[test]
fn md5_mode_matches_the_2010_platforms() {
    // The whole protocol also runs with MD5 evidence, mirroring the
    // platforms under study.
    let mut w = World::new(7, ProtocolConfig::full().with_md5());
    let up = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(up.outcome, TxnState::Completed);
    let down = w.download(b"k", TimeoutStrategy::AbortFirst);
    assert_eq!(down.data.clone().unwrap(), &b"data"[..]);
    assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(true));
    assert_eq!(
        w.client.txn(up.txn_id).unwrap().nrr().unwrap().unwrap().plaintext.data_hash.len(),
        16,
        "MD5 evidence hashes are 16 bytes"
    );
}
