//! `tcp-ladder`: `GenericWorld<TcpNet>` on loopback under open-loop load.
//! The only real wire (socket writes, the reader-thread hand-off, condvar
//! wake-ups) and the only load that does not wait for the system: uploads
//! are due at seeded Poisson arrival times, stepping up through a ladder
//! of rates, and each is timed from its due time. The simulator workloads
//! bypass the transport, so a transport change should show here and
//! nowhere else.

use super::{
    close_world, fill, note_evidence_bytes, Config, Outcome, SetupTimer, LATENCY_BLOCK, WORLD_SEED,
};
use crate::traced::Probe;
use crate::{checks, gen, stats};
use std::time::Duration;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::runner::{GenericWorld, TxnRequest};
use tpnr_crypto::ChaChaRng;
use tpnr_net::time::SimDuration;

/// Offered rates, uploads per second, one ladder step each.
const RATES: [f64; 5] = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0];
/// Share of the measured time each step gets. The first step's latencies
/// are the ones reported (`bench.e2e.*`), so it gets the most samples.
const WEIGHTS: [f64; 5] = [8.0, 3.0, 3.0, 3.0, 3.0];
/// The latency limit on a step's p99 for the knee.
const LIMIT_US: f64 = 5_000.0;
/// A step keeps up when it completes at least this share of its offered
/// rate (no growing backlog).
const KEEP_UP: f64 = 0.98;
const OBJECT: usize = 256;
const WARM_OPS: usize = 200;
const QUICK_SECONDS: f64 = 0.5;

/// Protocol timers elapse in host time on a real wire; the default 30 s
/// response timeout would stall a run for 30 s on any lost reply, so use
/// one far above loopback round trips instead.
fn protocol() -> ProtocolConfig {
    ProtocolConfig::builder().response_timeout(SimDuration::from_millis(400)).build()
}

pub fn run<N: Probe>(
    cfg: &Config,
    open: impl Fn() -> std::io::Result<N>,
) -> Result<Outcome, String> {
    let mut out =
        Outcome { payload_len: OBJECT, latency_block: LATENCY_BLOCK, ..Default::default() };
    let mut worlds = Vec::new();
    for rep in 0..cfg.setup_reps {
        worlds.clear();
        let t = SetupTimer::start();
        for step in 0..RATES.len() {
            let net = open().map_err(|e| format!("loopback TCP: {e}"))?;
            let seed = WORLD_SEED.wrapping_add(step as u64);
            let mut w = GenericWorld::with_transport(net, seed, protocol());
            // Opens both connections and wakes the reader threads.
            for k in 0..WARM_OPS {
                let key = format!("warm/{rep}/{k}");
                w.run(TxnRequest::upload(key.as_bytes(), fill(seed ^ k as u64, OBJECT)));
            }
            w.net_mut().take_trace();
            let base = w.net().stats();
            worlds.push((w, base));
        }
        t.stop(&mut out);
    }

    let total = if cfg.quick { QUICK_SECONDS } else { cfg.seconds };
    let mut rng = ChaChaRng::seed_from_u64(cfg.seed ^ 0x1add);
    let mut txns = Vec::new();
    for (step, (w, base)) in worlds.iter_mut().enumerate() {
        let span = Duration::from_secs_f64(total * WEIGHTS[step] / WEIGHTS.iter().sum::<f64>());
        let schedule = gen::poisson_schedule(RATES[step], span, || rng.next_u64());
        let seed = cfg.seed ^ ((step as u64 + 1) << 40);
        txns.clear();
        let r = gen::run(
            &schedule,
            // Twice the span and a second: far beyond any backlog a working
            // wire builds, short enough to end a run on a collapsed one.
            2 * span + Duration::from_secs(1),
            |k| TxnRequest::upload(format!("obj/{k}").as_bytes(), fill(seed ^ k as u64, OBJECT)),
            |_, req| {
                let res = w.run(req);
                out.tally.op(checks::evidence_pair(&res));
                txns.push(res.txn_id);
                res.completed()
            },
        );
        let done = r.latency_us.len() as u64 - r.failed;
        out.completed += done;
        out.wall_s += r.wall_s;
        out.busy_s += r.wall_s - r.idle_s;
        out.spans.run_s += r.service_us.iter().sum::<f64>() / 1e6;
        let p99 = stats::quantile(&stats::sorted(&r.latency_us), 0.99);
        // A backlog that grows stretches the step past its span.
        let offered = schedule.len() as f64 / span.as_secs_f64();
        let achieved = done as f64 / r.wall_s.max(span.as_secs_f64());
        if p99 <= LIMIT_US && achieved >= KEEP_UP * offered {
            out.knee_txn_per_s = RATES[step];
        }
        eprintln!(
            "tcp-ladder: {:>4}/s offered, {:>6.0}/s achieved, p50 {:>7.0} us, p99 {:>7.0} us, late p99 {:>6.0} us",
            RATES[step],
            achieved,
            stats::quantile(&stats::sorted(&r.latency_us), 0.5),
            p99,
            stats::quantile(&stats::sorted(&r.late_us), 0.99),
        );
        // The first step's latencies are the reported ones, and its
        // lateness says whether the generator kept to their schedule.
        if step == 0 {
            out.latency_us = r.latency_us;
            out.late_us = r.late_us;
        }
        out.service_us.push(r.service_us);
        note_evidence_bytes(w, &txns, &mut out);
        close_world(w, *base, &mut out);
    }
    out.fp.completed = out.completed;
    Ok(out)
}
