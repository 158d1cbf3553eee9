//! Quickstart: one upload and one download over the TPNR protocol, with the
//! evidence exchange and the upload-to-download integrity link.
//!
//! Run with `cargo run --example quickstart`.

use tpnr::core::client::TimeoutStrategy;
use tpnr::core::config::ProtocolConfig;
use tpnr::core::runner::World;
use tpnr_net::transport::Transport;

fn main() {
    // Three principals on a simulated Internet: Alice (client), Bob (cloud
    // storage provider) and an off-line TTP. Keys are deterministic test
    // keys so the run is reproducible.
    let mut world = World::new(42, ProtocolConfig::full());

    println!("== TPNR quickstart ==\n");

    // --- Upload (Normal mode: exactly two messages, TTP untouched) -------
    let data = b"company financial records, Q3".to_vec();
    let up = world.upload(b"backup/q3", data.clone(), TimeoutStrategy::AbortFirst);
    println!(
        "upload:   state={:?}  messages={}  latency={:.1} ms  ttp_used={}",
        up.outcome,
        up.report.messages,
        up.report.latency.as_secs_f64() * 1e3,
        up.report.ttp_used
    );

    // Both sides now hold signed evidence.
    let alice_nrr = world.client.txn(up.txn_id).and_then(|t| t.nrr().ok().flatten()).unwrap();
    println!("evidence: Alice holds Bob's NRR (receipt)    — flag {:?}", alice_nrr.plaintext.flag);
    let bob_nro = world.provider.txn(up.txn_id).and_then(|t| t.nro().ok()).unwrap();
    println!("evidence: Bob holds Alice's NRO (origin)     — flag {:?}", bob_nro.plaintext.flag);

    // --- Download ---------------------------------------------------------
    let down = world.download(b"backup/q3", TimeoutStrategy::AbortFirst);
    println!(
        "\ndownload: state={:?}  messages={}  data intact={}",
        down.outcome,
        down.report.messages,
        down.data.as_ref().map(tpnr_net::Bytes::as_ref) == Some(&data[..])
    );

    // --- The integrity link the paper adds --------------------------------
    // Bob's upload receipt and download response both commit (under his
    // signature) to a hash of the object; comparing them closes the
    // upload-to-download gap of paper §2.4.
    let intact = world.client.verify_download_against_upload(up.txn_id, down.txn_id).unwrap();
    println!(
        "integrity link (upload NRR vs download NRR): {}",
        if intact { "CONSISTENT" } else { "TAMPERED" }
    );

    // --- Event stream -------------------------------------------------------
    println!("\nevent stream:");
    for ev in world.obs.events() {
        let txn = ev.txn.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "  t={:>7.1} ms  {:<8} txn={:<3} {:<16} {}",
            ev.at.micros() as f64 / 1e3,
            world.net().node_name(ev.actor).unwrap_or("?"),
            txn,
            ev.kind.label(),
            ev.msg_kind().map_or("", |k| k.label())
        );
    }

    let m = &world.obs.metrics;
    println!(
        "\nmetrics: delivered={}  rejected={}  garbled={}  p99 latency={:.1} ms",
        m.delivered,
        m.rejected,
        m.garbled,
        m.latency_us.quantile(0.99).unwrap_or(0) as f64 / 1e3
    );
}
