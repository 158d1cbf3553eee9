//! What a party's transaction record holds. Client and provider keep a
//! transaction's NRO and NRR in one buffer and decode them on demand; for
//! an upload, a download, an aborted upload (Bob holds Alice's abort NRO
//! and signed no NRR) and a TTP-resolved upload:
//! - each record decodes to the evidence the exchange produced, byte for
//!   byte: what the settle's `TxnResult` carried, and the counterparty's
//!   copy where both parties hold the same signed item;
//! - every item re-verifies under its sender's key;
//! - the client's saved evidence bundle keeps its pinned bytes.

use tpnr_core::archive::EvidenceBundle;
use tpnr_core::evidence::{Flag, VerifiedEvidence};
use tpnr_core::prelude::*;
use tpnr_crypto::encoding::hex_encode;
use tpnr_crypto::hash::Digest as _;
use tpnr_crypto::sha2::Sha256;
use tpnr_net::codec::Wire;
use tpnr_net::sim::LinkConfig;
use tpnr_net::time::SimDuration;

/// A world that settled one transaction of each kind, with the results
/// its settles returned.
fn one_of_each_kind() -> (World, [(&'static str, TxnResult); 4]) {
    let mut w = World::new(5, ProtocolConfig::full());
    let up = w.upload(b"k-up", vec![1; 32], TimeoutStrategy::AbortFirst);
    let down = w.download(b"k-up", TimeoutStrategy::AbortFirst);
    assert!(up.completed() && down.completed());
    w.provider.behavior.respond_transfers = false;
    let aborted = w.upload(b"k-aborted", vec![2; 32], TimeoutStrategy::AbortFirst);
    assert_eq!(aborted.outcome, TxnState::Aborted);
    w.provider.behavior.respond_transfers = true;
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, LinkConfig::ideal(SimDuration::from_secs(90)));
    let resolved = w.upload(b"k-resolved", vec![3; 32], TimeoutStrategy::ResolveImmediately);
    assert!(resolved.completed() && resolved.report.ttp_used);
    w.settle();
    w.net_mut().set_link(b, a, LinkConfig::default());
    (w, [("upload", up), ("download", down), ("aborted", aborted), ("resolved", resolved)])
}

/// The wire bytes of an optional evidence item.
fn wire(ev: Option<&VerifiedEvidence>) -> Option<Vec<u8>> {
    ev.map(Wire::to_wire)
}

#[test]
fn every_record_decodes_to_the_evidence_its_exchange_produced() {
    let cfg = ProtocolConfig::full();
    let (w, kinds) = one_of_each_kind();
    let reverify = |kind: &str, ev: &VerifiedEvidence| {
        let pk = w.dir.lookup(&ev.plaintext.sender).expect("every sender is registered");
        let verdict = ev.reverify(&cfg, pk);
        assert!(verdict.is_ok(), "{kind} {:?}: {verdict:?}", ev.plaintext.flag);
    };
    for (kind, r) in &kinds {
        let client = w.client.txn(r.txn_id).expect("the client keeps its record");
        let provider = w.provider.txn(r.txn_id).expect("the provider keeps its record");
        let (nro, nrr) = (client.nro().unwrap(), client.nrr().unwrap());
        let (bob_nro, bob_nrr) = (provider.nro().unwrap(), provider.nrr().unwrap());

        // What the settle returned, byte for byte.
        assert_eq!(Some(nro.to_wire()), wire(r.nro.as_ref()), "{kind}: NRO");
        assert_eq!(wire(nrr.as_ref()), wire(r.nrr.as_ref()), "{kind}: NRR");
        let nrr = nrr.unwrap_or_else(|| panic!("{kind}: Alice holds an NRR"));

        if *kind == "aborted" {
            // Bob's NRO is Alice's abort request for the same transaction,
            // and he committed to nothing; Alice holds his abort answer.
            assert_eq!(bob_nro.plaintext.flag, Flag::AbortRequest, "{kind}");
            assert_eq!(bob_nro.plaintext.txn_id, r.txn_id, "{kind}");
            assert_eq!(bob_nrr, None, "{kind}: Bob signed no NRR");
            assert_eq!(nrr.plaintext.flag, Flag::AbortResponse, "{kind}");
        } else {
            // Each party holds its own copy of the same signed items.
            assert_eq!(bob_nro.to_wire(), nro.to_wire(), "{kind}: Bob's NRO");
            assert_eq!(wire(bob_nrr.as_ref()), Some(nrr.to_wire()), "{kind}: Bob's NRR");
        }
        for ev in [&nro, &nrr, &bob_nro] {
            reverify(kind, ev);
        }
    }
}

#[test]
fn client_bundles_keep_their_bytes() {
    // SHA-256 of each kind's `from_client_txn(..).save()`, pinned when the
    // records became one buffer: the bundle a client saves does not depend
    // on how its record holds the evidence.
    const PINNED: [(&str, &str); 4] = [
        ("upload", "fc813b4fc751ba24f269522188c46ffd9cad86901a533c9924035d69307d636b"),
        ("download", "02ee24e62b30857b649c9766013131a56ff24754b266055da7fa28d9eb27e30e"),
        ("aborted", "d8aecf67f9e5ea9e4f2726afb2899885cb66b140fa87c885054cf1093b3e0728"),
        ("resolved", "d33162248be24ce9b3e103627bfd86df7d5de18bab6a8d7a4b34a6301e4958d9"),
    ];
    let (w, kinds) = one_of_each_kind();
    let digests = kinds.map(|(kind, r)| {
        let bytes = EvidenceBundle::from_client_txn(&w.client, r.txn_id).unwrap().save();
        (kind, hex_encode(&Sha256::digest(&bytes)))
    });
    let got: Vec<(&str, &str)> = digests.iter().map(|(kind, d)| (*kind, d.as_str())).collect();
    assert_eq!(got, PINNED, "{digests:#?}");
}
