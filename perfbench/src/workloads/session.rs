//! `session`: one client's backup session on `World` over the simulator.
//! Small objects, so the fixed per-transaction cost dominates: RSA signs
//! and verifies, the envelope, the codec and the runner's bookkeeping.
//!
//! A session is a fixed run of operations on one world, three uploads to
//! one download, each download reading back an earlier object chosen by
//! the seeded RNG. `World` keeps every settled transaction, so operations
//! slow down as its history grows; sessions are fixed-length so that
//! growth, and the memory it holds, does not depend on how fast the build
//! under test is. The measured phase runs back-to-back sessions, each the
//! same operations on the same keys, so every session times the same work
//! in each of its blocks (see `Positions::rate`).

use super::{
    close_world, fill, note_evidence_bytes, secs, Config, Outcome, Phase, SetupTimer,
    LATENCY_BLOCK, WORLD_SEED,
};
use crate::traced::Sim;
use crate::{calib, checks};
use std::time::Instant;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::runner::{GenericWorld, TxnRequest};
use tpnr_crypto::ChaChaRng;
use tpnr_net::sim::NetStats;

/// Object size: small enough that hashing is a sliver of an operation.
const OBJECT: usize = 256;
/// Operations per session (one world each).
const SESSION_OPS: u64 = 5_000;
/// Operations per timed block of a session, a few milliseconds' work
/// between two calibration kernels.
const BLOCK: u64 = 25;
const QUICK_SESSION_OPS: u64 = 400;
/// Operations run on a throwaway world during set-up.
const WARM_OPS: u64 = 300;

pub fn run<N: Sim>(cfg: &Config) -> Outcome {
    let session_ops = if cfg.quick { QUICK_SESSION_OPS } else { SESSION_OPS };
    let mut out =
        Outcome { payload_len: OBJECT, latency_block: LATENCY_BLOCK, ..Default::default() };
    for _ in 0..cfg.setup_reps {
        let t = SetupTimer::start();
        let mut warm = Phase::fixed(WARM_OPS);
        session::<N>(WORLD_SEED ^ 0x5e55, cfg.seed, WARM_OPS, &mut warm, &mut Outcome::default());
        t.stop(&mut out);
    }
    let mut phase = cfg.phase(2 * session_ops);
    let t = Instant::now();
    while session::<N>(WORLD_SEED, cfg.seed, session_ops, &mut phase, &mut out) {}
    out.wall_s = secs(t);
    out.busy_s = out.wall_s;
    out
}

/// One session of up to `ops` operations on a fresh world; false once the
/// phase is over.
fn session<N: Sim>(
    world_seed: u64,
    data_seed: u64,
    ops: u64,
    phase: &mut Phase,
    out: &mut Outcome,
) -> bool {
    let t = Instant::now();
    let mut w =
        GenericWorld::with_transport(N::make(world_seed), world_seed, ProtocolConfig::full());
    out.spans.build_s += secs(t);
    let mut rng = ChaChaRng::seed_from_u64(data_seed);
    // (upload txn, payload seed) of every object uploaded so far.
    let mut uploads: Vec<(u64, u64)> = Vec::new();
    let mut service = Vec::new();
    let mut more = true;
    let mut kernel_us = calib::kernel_us();
    for i in 0..ops {
        if !phase.begin() {
            more = false;
            break;
        }
        let check = if i % 4 == 3 {
            let idx = rng.gen_below(uploads.len() as u64) as usize;
            let (up_txn, payload_seed) = uploads[idx];
            let req = TxnRequest::download(format!("obj/{idx}").as_bytes());
            let t = Instant::now();
            let r = w.run(req);
            service.push(t.elapsed().as_secs_f64() * 1e6);
            out.completed += u64::from(r.completed());
            checks::download_matches(&w.client, up_txn, &r, &fill(payload_seed, OBJECT))
        } else {
            let payload_seed = rng.next_u64();
            let key = format!("obj/{}", uploads.len());
            // A fresh buffer per upload, allocated before the timer starts.
            let req = TxnRequest::upload(key.as_bytes(), fill(payload_seed, OBJECT));
            let t = Instant::now();
            let r = w.run(req);
            service.push(t.elapsed().as_secs_f64() * 1e6);
            out.completed += u64::from(r.completed());
            uploads.push((r.txn_id, payload_seed));
            checks::evidence_pair(&r)
        };
        out.tally.op(check);
        if (i + 1) % BLOCK == 0 {
            let block_s = service[service.len() - BLOCK as usize..].iter().sum::<f64>() / 1e6;
            let after_us = calib::kernel_us();
            out.positions.record((i / BLOCK) as usize, BLOCK, block_s, kernel_us, after_us);
            kernel_us = after_us;
        }
    }
    out.spans.run_s += service.iter().sum::<f64>() / 1e6;
    out.latency_us.extend_from_slice(&service);
    out.service_us.push(service);
    let txns: Vec<u64> = uploads.iter().map(|u| u.0).collect();
    note_evidence_bytes(&w, &txns, out);
    close_world(&mut w, NetStats::default(), out);
    out.fp.completed = out.completed;
    more
}
