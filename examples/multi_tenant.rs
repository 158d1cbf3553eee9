//! Figure 1 at population scale: one provider and one off-line TTP serving
//! many clients with interleaved transactions, including one client behind
//! a broken return path who is rescued through Resolve.
//!
//! Run with `cargo run --example multi_tenant`.

use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::multi::MultiWorld;
use tpnr_core::session::TxnState;
use tpnr_net::sim::LinkConfig;

const CLIENTS: usize = 8;

fn main() {
    let mut world = MultiWorld::new(2026, ProtocolConfig::full(), CLIENTS);
    println!("== {CLIENTS} clients, one provider, one off-line TTP ==\n");

    // Client 3 has a broken provider→client path (receipts never arrive).
    let unlucky = 3usize;
    let bob = world.bob_node;
    let c3_node = world.client_nodes[unlucky];
    world.net_mut().set_link(bob, c3_node, LinkConfig { drop_prob: 1.0, ..Default::default() });

    // Everyone uploads concurrently — transfers are all in flight together.
    let txns: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let key = format!("tenant-{i}/backup").into_bytes();
            let data = vec![i as u8; 512 + i * 100];
            world.start_upload(i, &key, data, TimeoutStrategy::ResolveImmediately)
        })
        .collect();
    world.settle();

    for h in &txns {
        let i = h.client;
        let state = world.state_of(*h).unwrap();
        println!(
            "client {i}: txn {:>12} -> {:?}{}",
            h.txn_id,
            state,
            if i == unlucky { "   (receipts dropped; rescued via TTP)" } else { "" }
        );
        assert_eq!(state, TxnState::Completed);
    }

    println!("\nprovider archived {} transactions", world.provider.txn_count());
    let touched =
        txns.iter().filter(|h| world.report(h.txn_id).is_some_and(|r| r.ttp_used)).count();
    println!("TTP touched by {touched} of {CLIENTS} sessions (only the faulted one)");
    assert_eq!(touched, 1);

    // The outage heals; every client re-downloads its own object. (A
    // download resolved through the TTP recovers the *receipt* but not the
    // bulk data — the TTP never forwards data, per §4.3 — so the download
    // itself is retried over the healed link.)
    world.net_mut().set_link(bob, c3_node, LinkConfig::default());
    let down: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let key = format!("tenant-{i}/backup").into_bytes();
            world.start_download(i, &key, TimeoutStrategy::AbortFirst)
        })
        .collect();
    world.settle();
    for h in down {
        let payload = world.clients[h.client].download_result(h.txn_id).expect("download complete");
        assert_eq!(payload.data.len(), 512 + h.client * 100);
    }
    println!("all tenants verified their round-trips — evidence archived per tenant.");
}
