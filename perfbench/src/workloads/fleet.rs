//! `fleet`: provider capacity. Clients upload once each in 256-client
//! `GenericMultiWorld` lanes on a two-worker `tpnr_par::Pool`, with the
//! per-client 5–45 ms simulated links of experiment E10 and a small
//! archive hot set. It is the only workload with many transactions in
//! flight per settle (timer wheel and scheduler), archive eviction and
//! rehydration, and the pool. After its settle each lane audits every
//! evicted transaction the way an arbitrator would: rehydrate the bundle
//! and re-verify its NRO and NRR signatures.

use super::{secs, splitmix64, Config, Outcome, SetupTimer, LATENCY_BLOCK, WORLD_SEED};
use crate::traced::Sim;
use crate::{calib, checks};
use std::sync::Arc;
use std::time::Instant;
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::multi::GenericMultiWorld;
use tpnr_core::principal::Principal;
use tpnr_core::session::TxnState;
use tpnr_net::sim::LinkConfig;
use tpnr_net::time::SimDuration;
use tpnr_par::Pool;

/// Clients per lane (one `GenericMultiWorld` each).
const LANE: usize = 256;
/// Settled transactions each of the archive's 16 shards keeps resident,
/// so about half of every lane is evicted and audited.
const HOT: usize = 8;
/// Object size.
const OBJECT: usize = 256;
/// Load threads.
const WORKERS: usize = 2;
/// Lanes per pool fan-out; the deadline is checked between fan-outs.
const BATCH: usize = 16;
const QUICK_BATCH: usize = 4;

/// What every lane shares: one pool of keys (RSA key generation is the
/// wall at fleet scale, so lanes reuse it), the run seed the lanes' inputs
/// come from, and the protocol settings.
struct Shared {
    seed: u64,
    clients: Vec<Principal>,
    bob: Principal,
    ttp: Principal,
    cfg: ProtocolConfig,
}

pub fn run<N: Sim>(cfg: &Config) -> Outcome {
    let batch = if cfg.quick { QUICK_BATCH } else { BATCH };
    let mut out =
        Outcome { payload_len: OBJECT, latency_block: LATENCY_BLOCK, ..Default::default() };
    let mut state = None;
    for _ in 0..cfg.setup_reps {
        // Drop the previous repetition's pool and keys first.
        drop(state.take());
        let t = SetupTimer::start();
        let pool = Pool::new(WORKERS);
        let keys = WORLD_SEED.wrapping_mul(11);
        let clients = pool.scoped_indexed(LANE, |i| {
            Principal::test(&format!("client-{i}"), keys + 10 + i as u64)
        });
        let shared = Arc::new(Shared {
            seed: cfg.seed,
            clients,
            bob: Principal::test("bob", keys + 1),
            ttp: Principal::test("ttp", keys + 2),
            cfg: ProtocolConfig::full(),
        });
        let warm = Arc::clone(&shared);
        pool.run_indexed(WORKERS, move |l| lane::<N>(&warm, u64::MAX - l as u64));
        state = Some((pool, shared));
        t.stop(&mut out);
    }
    let Some((pool, shared)) = state else { return out };
    let mut phase = cfg.phase(2);
    // Lane times in lane order: one sequence for the head/tail ratio.
    let mut lane_times = Vec::new();
    let t = Instant::now();
    let mut batches = 0;
    while phase.begin() {
        let sh = Arc::clone(&shared);
        let base = batches * batch as u64;
        let (lanes, fan) = pool.run_indexed_stats(batch, move |l| lane::<N>(&sh, base + l as u64));
        for l in lanes {
            out.tally.absorb(l.tally);
            out.completed += l.completed;
            out.latency_us.extend_from_slice(&l.latency_us);
            lane_times.push(l.spans.lane_s * 1e6);
            out.positions.absorb(l.positions);
            out.spans.absorb(&l.spans);
            out.fp.absorb(&l.fp);
            out.net.absorb(l.net);
        }
        out.spans.steals += fan.steals;
        out.spans.tasks += fan.tasks;
        batches += 1;
    }
    out.wall_s = secs(t);
    out.busy_s = out.wall_s * pool.workers() as f64;
    out.parallel = pool.workers();
    out.service_us = vec![lane_times];
    out.fp.completed = out.completed;
    out.evidence_bytes = out.fp.log_bytes as f64 / out.fp.evicted.max(1) as f64;
    out
}

/// Builds lane `index`, uploads once per client, settles, audits; returns
/// the lane's own outcome.
fn lane<N: Sim>(sh: &Shared, index: u64) -> Outcome {
    let world_seed = WORLD_SEED.wrapping_add(index);
    let seed = splitmix64(sh.seed ^ index);
    let mut out = Outcome::default();
    let payloads: Vec<Vec<u8>> =
        (0..LANE).map(|i| super::fill(seed ^ ((i as u64 + 1) << 40), OBJECT)).collect();
    let keys: Vec<Vec<u8>> = (0..LANE).map(|i| format!("u{i}").into_bytes()).collect();

    let kernel_us = calib::kernel_us();
    let lane_start = Instant::now();
    let mut w = GenericMultiWorld::with_principals_on(
        N::make(world_seed),
        world_seed,
        sh.cfg.clone(),
        &sh.clients,
        &sh.bob,
        &sh.ttp,
    );
    for i in 0..LANE {
        // E10's per-client one-way latency, 5–45 ms from (seed, client).
        let one_way = 5_000 + splitmix64(seed ^ 0xE10_1A7E ^ i as u64) % 40_001;
        let link = LinkConfig::ideal(SimDuration::from_micros(one_way));
        let (c, b) = (w.client_nodes[i], w.bob_node);
        w.net_mut().sim_mut().set_link_bidi(c, b, link);
    }
    w.set_archive_capacity(HOT);
    out.spans.build_s = secs(lane_start);

    let mut handles = Vec::with_capacity(LANE);
    let mut starts = Vec::with_capacity(LANE);
    for (i, data) in payloads.into_iter().enumerate() {
        let t = Instant::now();
        handles.push(w.start_upload(i, &keys[i], data, TimeoutStrategy::ResolveImmediately));
        out.spans.start_s += secs(t);
        starts.push(t);
    }
    let t = Instant::now();
    let report = w.settle();
    let settled = Instant::now();
    out.spans.settle_s = (settled - t).as_secs_f64();
    out.spans.deliveries = report.delivered as u64;
    out.spans.timer_rounds = report.timer_rounds as u64;
    out.latency_us = starts.iter().map(|s| (settled - *s).as_secs_f64() * 1e6).collect();
    if !report.outcome.is_quiescent() {
        out.tally.fail(format!("lane {index}: settle ended {:?}", report.outcome));
    }

    for h in handles {
        let done = w.state_of(h) == Some(TxnState::Completed);
        out.completed += u64::from(done);
        let check = if !done {
            Err(format!("lane {index} txn {} ended {:?}", h.txn_id, w.state_of(h)))
        } else if w.clients[h.client].txn(h.txn_id).is_some() {
            // Still resident: the client holds the pair itself.
            w.result(h)
                .ok_or_else(|| "no result".to_string())
                .and_then(|r| checks::evidence_pair(&r))
        } else {
            let t = Instant::now();
            let bundle = w.rehydrate_evidence(h.txn_id);
            let t2 = Instant::now();
            let audit = checks::audit(
                bundle.as_ref(),
                &sh.cfg,
                sh.clients[h.client].public(),
                sh.bob.public(),
            );
            out.spans.rehydrate_s += (t2 - t).as_secs_f64();
            out.spans.rehydrates += 1;
            out.spans.reverify_s += secs(t2);
            out.spans.reverifies += 2;
            audit
        };
        out.tally.op(check);
    }
    out.spans.lane_s = secs(lane_start);
    // A lane is the block: a hundred-odd milliseconds on one worker.
    let after_us = calib::kernel_us();
    out.positions.record(0, out.completed, out.spans.lane_s, kernel_us, after_us);

    let s = w.net().stats();
    if let Err(e) = checks::conservation(&s) {
        out.tally.fail(format!("lane {index}: {e}"));
    }
    out.fp.add_net(&s);
    let a = w.archive_stats();
    out.fp.evicted = a.evicted;
    out.fp.log_bytes = a.log_bytes;
    out.net = w.net_mut().take_trace();
    out
}
