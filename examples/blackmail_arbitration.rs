//! The paper's §2.4 dispute stories, end to end:
//!
//! 1. **Tampering** — Eve (the provider) silently rewrites Alice's stored
//!    data; Alice detects it through the integrity link and *wins* at the
//!    arbitrator with Bob's own signed receipts.
//! 2. **Blackmail** — Alice's data was never touched, but she claims it was
//!    and demands compensation; the provider clears itself with the
//!    evidence, even when Alice withholds the receipt that would sink her.
//!
//! Run with `cargo run --example blackmail_arbitration`.

use tpnr::core::arbiter::{Arbitrator, DisputeCase, Verdict};
use tpnr::core::client::TimeoutStrategy;
use tpnr::core::config::ProtocolConfig;
use tpnr::core::runner::World;

fn full_case(w: &World, up: u64, down: u64) -> DisputeCase {
    DisputeCase {
        claimant: Some(w.client.id()),
        respondent: Some(w.provider.id()),
        upload_nrr: w.client.txn(up).and_then(|t| t.nrr().ok().flatten()),
        download_nrr: w.client.txn(down).and_then(|t| t.nrr().ok().flatten()),
        upload_nro: w.provider.txn(up).and_then(|t| t.nro().ok()),
        download_nro: w.provider.txn(down).and_then(|t| t.nro().ok()),
    }
}

fn main() {
    println!("== Scenario 1: the provider tampers ==\n");
    let mut w = World::new(7, ProtocolConfig::full());
    let up = w.upload(b"ledger", b"true accounts".to_vec(), TimeoutStrategy::AbortFirst);
    println!("Alice uploads 'true accounts'; Bob signs the receipt (NRR).");

    w.provider.tamper_storage(b"ledger", b"cooked accounts".to_vec());
    println!("Eve quietly rewrites the stored object to 'cooked accounts'.");

    let down = w.download(b"ledger", TimeoutStrategy::AbortFirst);
    println!(
        "Alice downloads: {:?} — the session itself verifies cleanly!",
        String::from_utf8_lossy(down.data.as_ref().unwrap().as_ref())
    );
    println!(
        "integrity link says: {}",
        match w.client.verify_download_against_upload(up.txn_id, down.txn_id) {
            Some(false) => "TAMPERED (upload NRR hash != download NRR hash)",
            Some(true) => "consistent",
            None => "insufficient evidence",
        }
    );

    let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
    let verdict = arb.judge(&full_case(&w, up.txn_id, down.txn_id));
    println!("arbitrator verdict: {verdict:?}  (Bob signed two different hashes for one object)");
    assert_eq!(verdict, Verdict::ProviderAtFault);

    println!("\n== Scenario 2: the client blackmails ==\n");
    let mut w = World::new(8, ProtocolConfig::full());
    // A fresh world means fresh principals: the arbitrator must use this
    // world's key directory or every signature looks forged.
    let arb = Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
    let up = w.upload(b"ledger", b"true accounts".to_vec(), TimeoutStrategy::AbortFirst);
    let down = w.download(b"ledger", TimeoutStrategy::AbortFirst);
    println!("Nothing was tampered, but Alice claims her data was destroyed and demands damages.");

    let verdict = arb.judge(&full_case(&w, up.txn_id, down.txn_id));
    println!("arbitrator verdict (full evidence): {verdict:?}");
    assert_eq!(verdict, Verdict::ClaimRejected);

    // Alice tries harder: she withholds the upload receipt.
    let mut case = full_case(&w, up.txn_id, down.txn_id);
    case.upload_nrr = None;
    let verdict = arb.judge(&case);
    println!("arbitrator verdict (Alice hides her receipt): {verdict:?}");
    println!("  -> Bob clears himself with Alice's OWN signed NRO: what she");
    println!("     uploaded hashes exactly to what he served back.");
    assert_eq!(verdict, Verdict::ClaimRejected);

    // Desperate, she forges the receipt. The arbitrator re-verifies every
    // signature against the certified directory.
    let mut case = full_case(&w, up.txn_id, down.txn_id);
    if let Some(ev) = case.upload_nrr.as_mut() {
        ev.plaintext.data_hash[0] ^= 1;
    }
    let verdict = arb.judge(&case);
    println!("arbitrator verdict (Alice forges the receipt): {verdict:?}");
    assert_eq!(verdict, Verdict::ForgedEvidence { by_claimant: true });

    println!("\nBoth §2.4 repudiation concerns are settled by the same evidence.");
}
