//! The three workloads. Each follows one of the paper's two roles: a
//! client backing objects up and reading them back (`session`,
//! `tcp-ladder`), or a provider serving a population of clients whose
//! evidence must later reach an arbitrator (`fleet`).
//!
//! A workload builds its inputs from the seed during set-up, measures for
//! the configured time, checks every result it gets back, and returns an
//! [`Outcome`]. It is generic over the transport so the same code runs
//! bare (end-to-end metrics) and under the [`Traced`] probe (per-layer
//! metrics).

mod fleet;
mod ladder;
mod session;

use crate::calib;
use crate::checks::Tally;
use crate::stats::median;
use crate::traced::{NetTrace, Traced};
use std::time::Instant;
use tpnr_core::archive::EvidenceBundle;
use tpnr_core::runner::GenericWorld;
use tpnr_net::sim::{NetStats, SimNet};
use tpnr_net::tcp::TcpNet;
use tpnr_net::transport::Transport;

/// Workload names in the order a full run executes them.
pub const NAMES: [&str; 3] = ["session", "fleet", "tcp-ladder"];

/// Seed of the principals' keys and the actors' own RNGs. Fixed, so every
/// run signs with the same keys and the run seed varies only the inputs:
/// objects, read choices, link latencies and arrival times.
const WORLD_SEED: u64 = 0x7470_6e72;

/// Latency samples per block for `bench.e2e.p50_us` (see `stats::block_quantile`).
const LATENCY_BLOCK: usize = 500;

/// How one workload run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Fixed, small work instead of a timed phase: the same code paths at
    /// about a twentieth of the work, reproducible op for op.
    pub quick: bool,
    /// Times set-up is repeated; `setup_s` reports the median.
    pub setup_reps: usize,
}

impl Config {
    /// The measured phase. Quick runs stop after `quick_units` units of
    /// work, so traced and untraced runs do identical work; timed runs stop
    /// at the deadline.
    fn phase(&self, quick_units: u64) -> Phase {
        let deadline = (!self.quick)
            .then(|| Instant::now() + std::time::Duration::from_secs_f64(self.seconds));
        let max = if self.quick { quick_units } else { u64::MAX };
        Phase { deadline, max, done: 0 }
    }
}

/// A measured phase's stop rule and progress.
struct Phase {
    deadline: Option<Instant>,
    max: u64,
    done: u64,
}

impl Phase {
    /// Untimed work such as a warm-up: `units` of it.
    fn fixed(units: u64) -> Self {
        Phase { deadline: None, max: units, done: 0 }
    }

    /// Whether another unit may start; counts it as started if so.
    fn begin(&mut self) -> bool {
        if self.done >= self.max || self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        self.done += 1;
        true
    }
}

/// The clock of one set-up repetition, calibrated like the measured blocks
/// (see [`crate::calib`]).
struct SetupTimer {
    start: Instant,
    kernel_us: f64,
}

impl SetupTimer {
    fn start() -> Self {
        let kernel_us = calib::kernel_us();
        SetupTimer { start: Instant::now(), kernel_us }
    }

    /// Records the repetition's time on the nominal core in `out`.
    fn stop(self, out: &mut Outcome) {
        let s = secs(self.start);
        out.setup_s.push(calib::nominal_s(s, self.kernel_us, calib::kernel_us()));
    }
}

/// Calibrated service times by position in a unit of work that repeats
/// through a run (a session, a fleet lane): `secs[p]` holds, for every
/// repetition that completed block `p` of the unit, the seconds block `p`
/// took on the nominal core (see [`crate::calib`]), and `txns[p]` the
/// transactions the block holds.
#[derive(Debug, Default, Clone)]
pub struct Positions {
    txns: Vec<u64>,
    secs: Vec<Vec<f64>>,
}

impl Positions {
    /// Records block `pos`: `secs` of work between kernel measurements of
    /// `before_us` and `after_us`.
    fn record(&mut self, pos: usize, txns: u64, secs: f64, before_us: f64, after_us: f64) {
        self.push(pos, txns, calib::nominal_s(secs, before_us, after_us));
    }

    fn absorb(&mut self, other: Positions) {
        for (pos, (txns, secs)) in other.txns.into_iter().zip(other.secs).enumerate() {
            for s in secs {
                self.push(pos, txns, s);
            }
        }
    }

    fn push(&mut self, pos: usize, txns: u64, nominal_s: f64) {
        if pos >= self.secs.len() {
            self.txns.resize(pos + 1, 0);
            self.secs.resize(pos + 1, Vec::new());
        }
        self.txns[pos] = txns;
        self.secs[pos].push(nominal_s);
    }

    /// Transactions per second of one unit of work on the nominal core:
    /// its transactions over the sum of its blocks' median calibrated
    /// times. Medians per position keep what differs between positions,
    /// such as a world's history growth. None before any block completed.
    pub fn rate(&self) -> Option<f64> {
        let unit_s: f64 = self.secs.iter().map(|s| median(s)).sum();
        (unit_s > 0.0).then(|| self.txns.iter().sum::<u64>() as f64 / unit_s)
    }
}

/// Non-timing outputs. A traced run must reproduce them exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub bytes_sent: u64,
    pub completed: u64,
    pub evicted: u64,
    pub log_bytes: u64,
}

impl Fingerprint {
    fn add_net(&mut self, s: &NetStats) {
        self.sent += s.sent;
        self.delivered += s.delivered;
        self.dropped += s.dropped;
        self.duplicated += s.duplicated;
        self.bytes_sent += s.bytes_sent;
    }

    fn absorb(&mut self, o: &Fingerprint) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.bytes_sent += o.bytes_sent;
        self.completed += o.completed;
        self.evicted += o.evicted;
        self.log_bytes += o.log_bytes;
    }
}

/// Host seconds spent inside the public calls the benchmark makes, with
/// the counts those calls return.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `World::run`.
    pub run_s: f64,
    /// World construction inside the measured phase.
    pub build_s: f64,
    /// `start_upload`.
    pub start_s: f64,
    /// `settle`, with the deliveries and timer rounds it reports.
    pub settle_s: f64,
    pub deliveries: u64,
    pub timer_rounds: u64,
    /// `rehydrate_evidence`.
    pub rehydrate_s: f64,
    pub rehydrates: u64,
    /// `VerifiedEvidence::reverify`.
    pub reverify_s: f64,
    pub reverifies: u64,
    /// Lane tasks on the pool, summed over workers.
    pub lane_s: f64,
    pub steals: u64,
    pub tasks: u64,
}

impl Spans {
    /// Time inside the runner's own calls (which contain the transport,
    /// codec and crypto work the per-layer report splits out).
    pub fn runner_s(&self) -> f64 {
        self.run_s + self.build_s + self.start_s + self.settle_s
    }

    fn absorb(&mut self, o: &Spans) {
        self.run_s += o.run_s;
        self.build_s += o.build_s;
        self.start_s += o.start_s;
        self.settle_s += o.settle_s;
        self.deliveries += o.deliveries;
        self.timer_rounds += o.timer_rounds;
        self.rehydrate_s += o.rehydrate_s;
        self.rehydrates += o.rehydrates;
        self.reverify_s += o.reverify_s;
        self.reverifies += o.reverifies;
        self.lane_s += o.lane_s;
        self.steals += o.steals;
        self.tasks += o.tasks;
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Seconds per set-up repetition, on the nominal core.
    pub setup_s: Vec<f64>,
    pub tally: Tally,
    /// Transactions that reached the completed state.
    pub completed: u64,
    /// Measured phase, seconds of wall time.
    pub wall_s: f64,
    /// Load-thread seconds the per-transaction time is taken over: wall
    /// time times load threads, less time the generator sat idle waiting
    /// for a due time.
    pub busy_s: f64,
    /// Calibrated service times of the repeated unit of work, by position
    /// (none on the open-loop ladder).
    pub positions: Positions,
    /// Units of work that run at once (fleet's pool workers); 0 means 1.
    pub parallel: usize,
    /// Host latency samples, µs, in order.
    pub latency_us: Vec<f64>,
    /// Latency samples per block (see `stats::block_quantile`; 0: the run
    /// is one block).
    pub latency_block: usize,
    /// Service time of each operation, µs, in order, one list per world
    /// lifetime (for the head/tail ratio).
    pub service_us: Vec<Vec<f64>>,
    /// Bytes of evidence stored per transaction.
    pub evidence_bytes: f64,
    /// Payload size of one object, for the hash micro-benchmark.
    pub payload_len: usize,
    pub fp: Fingerprint,
    pub spans: Spans,
    pub net: NetTrace,
    /// Generator lateness samples, µs, of the step whose latencies are
    /// reported (open loop only).
    pub late_us: Vec<f64>,
    /// Highest ladder rate meeting the latency limit (open loop only).
    pub knee_txn_per_s: f64,
}

/// Runs workload `name`, bare or traced.
pub fn run(name: &str, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    Ok(match (name, traced) {
        ("session", false) => session::run::<SimNet>(cfg),
        ("session", true) => session::run::<Traced<SimNet>>(cfg),
        ("fleet", false) => fleet::run::<SimNet>(cfg),
        ("fleet", true) => fleet::run::<Traced<SimNet>>(cfg),
        ("tcp-ladder", false) => ladder::run(cfg, TcpNet::new)?,
        ("tcp-ladder", true) => ladder::run(cfg, || TcpNet::new().map(Traced::new))?,
        _ => return Err(format!("unknown workload '{name}' (expected one of {NAMES:?})")),
    })
}

/// Seeded bytes, 8 at a time from a splitmix64 stream: cheap enough that
/// a fresh upload buffer costs little next to the operation itself.
pub fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = seed;
    while out.len() < len {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.extend_from_slice(&splitmix64(x).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The splitmix64 finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records, once per run, the mean saved size of the client's evidence
/// bundle (its NRO and the provider's NRR): what a client keeps per
/// transaction for a later dispute, on worlds that have no archive. Taken
/// over the first world's first 256 uploads, whose keys are the same in
/// every run, so it moves only with the evidence format.
fn note_evidence_bytes<N: Transport>(w: &GenericWorld<N>, uploads: &[u64], out: &mut Outcome) {
    if out.evidence_bytes > 0.0 || uploads.is_empty() {
        return;
    }
    let sizes: Vec<f64> = uploads
        .iter()
        .take(256)
        .filter_map(|&t| EvidenceBundle::from_client_txn(&w.client, t))
        .map(|b| b.save().len() as f64)
        .collect();
    out.evidence_bytes = crate::stats::mean(&sizes);
}

/// Ends a world's part of a run: the conservation check, its traffic since
/// `base` (the counters when measuring began) into the fingerprint, and
/// the probe's trace into the outcome.
fn close_world<N: crate::traced::Probe>(
    w: &mut GenericWorld<N>,
    base: NetStats,
    out: &mut Outcome,
) {
    let s = w.net().stats();
    if let Err(e) = crate::checks::conservation(&s) {
        out.tally.fail(e);
    }
    out.fp.add_net(&NetStats {
        sent: s.sent - base.sent,
        delivered: s.delivered - base.delivered,
        dropped: s.dropped - base.dropped,
        duplicated: s.duplicated - base.duplicated,
        bytes_sent: s.bytes_sent - base.bytes_sent,
        ..Default::default()
    });
    out.net.absorb(w.net_mut().take_trace());
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Config {
        Config { seed, seconds: 0.0, quick: true, setup_reps: 1 }
    }

    #[test]
    fn rate_is_over_the_per_position_medians_on_the_nominal_core() {
        let k = calib::NOMINAL_US;
        let mut p = Positions::default();
        // Position 0: ten transactions, typically 1 s; one slow repetition.
        for s in [1.0, 3.0, 1.0] {
            p.record(0, 10, s, k, k);
        }
        // Position 1, from another lane: five transactions in 0.5 s, once
        // on a core running at half speed.
        let mut lane = Positions::default();
        lane.record(1, 5, 0.5, k, k);
        lane.record(1, 5, 1.0, 2.0 * k, 2.0 * k);
        lane.record(1, 5, 0.5, k, k);
        p.absorb(lane);
        assert_eq!(p.rate(), Some(15.0 / 1.5));
        assert_eq!(Positions::default().rate(), None);
    }

    #[test]
    fn fill_is_seeded_and_exact_length() {
        assert_eq!(fill(7, 13), fill(7, 13));
        assert_ne!(fill(7, 13), fill(8, 13));
        assert_eq!(fill(1, 1 << 20).len(), 1 << 20);
    }

    /// The probe must not change what the program does: on the simulator,
    /// a traced quick run reproduces every non-timing output of the bare
    /// one, and both pass every check.
    #[test]
    fn traced_simnet_runs_match_bare_runs() {
        for name in ["session", "fleet"] {
            let bare = run(name, &quick(11), false).unwrap();
            let traced = run(name, &quick(11), true).unwrap();
            assert_eq!(bare.fp, traced.fp, "{name}");
            assert!(bare.fp.completed > 0, "{name}");
            assert_eq!(bare.tally.failed, 0, "{name}: {:?}", bare.tally.failures);
            assert_eq!(traced.tally.failed, 0, "{name}: {:?}", traced.tally.failures);
            assert_eq!(traced.net.frames, traced.fp.sent, "{name}: the probe saw every frame");
            assert_eq!(bare.net.frames, 0, "{name}: the bare run carries no probe");
            assert!(
                traced.net.wait_s < 0.01 * traced.spans.runner_s(),
                "{name}: the simulator never blocks"
            );
        }
    }

    /// On a real wire the probe must forward `wait_for_activity`: with the
    /// trait's default the scheduler would not wait for the receipt but
    /// sleep out the response timeout and fire it. Then the traced quick
    /// ladder must complete every upload with conservation exact.
    #[test]
    fn traced_tcp_run_completes_and_conserves() {
        use std::time::Duration;
        use tpnr_core::config::ProtocolConfig;
        use tpnr_core::runner::TxnRequest;
        let net = match TcpNet::new() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("skipping: loopback TCP unavailable: {e}");
                return;
            }
        };
        let cfg = ProtocolConfig::builder()
            .response_timeout(tpnr_net::time::SimDuration::from_secs(2))
            .build();
        let mut w = GenericWorld::with_transport(Traced::new(net), 1, cfg);
        let t = Instant::now();
        assert!(w.run(TxnRequest::upload(b"k", vec![1u8; 256])).completed());
        assert!(t.elapsed() < Duration::from_secs(1), "settle slept out the timeout");

        let o = run("tcp-ladder", &quick(12), true).unwrap();
        assert_eq!(o.tally.failed, 0, "{:?}", o.tally.failures);
        assert_eq!(o.fp.completed, o.tally.attempted);
        assert_eq!(o.fp.delivered + o.fp.dropped, o.fp.sent + o.fp.duplicated);
        assert_eq!(o.fp.delivered, 2 * o.fp.completed, "two-message exchange");
        assert!(o.net.wait_s > 0.0, "the scheduler waited for real frames");
    }
}
