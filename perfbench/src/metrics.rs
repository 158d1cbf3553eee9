//! Turning an [`Outcome`] into named metrics.
//!
//! End-to-end metrics come from an untraced run. Per-layer metrics come
//! from a traced run of the same workload and split its measured time per
//! transaction into layers that add up to it:
//!
//! ```text
//! measured = net.transport (send + poll + wait)      measured by the probe
//!          + net.codec (encode + decode)             replayed on captured frames
//!          + crypto.rsa + crypto.envelope + crypto.hash   modelled: per-op cost
//!                                                     times §4.1 op counts
//!          + core.runner.self                        rest of the runner's spans
//!          + core.archive.rehydrate + core.evidence.reverify   spans (fleet)
//!          + unattributed                            outside every span
//! ```
//!
//! The crypto rows are modelled, not measured: each message that carries
//! sealed evidence costs its sender two signs and a seal and its recipient
//! an open and two verifies, and its data is hashed at both ends.

use crate::stats::{block_quantile, mean, median, quantile, sorted};
use crate::workloads::{fill, Outcome};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tpnr_core::message::Message;
use tpnr_core::principal::Principal;
use tpnr_crypto::{envelope, ChaChaRng, HashAlg};
use tpnr_net::codec::{Wire, Writer};
use tpnr_net::Bytes;

/// A metric's name and unit (`BENCHMARK.json` holds the rest).
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Printed by every untraced run, for every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("txn_per_s", "txn/s"),
    spec("peak_rss_mib", "MiB"),
    spec("evidence_bytes_per_txn", "B"),
];

/// Printed by every traced run, for every workload; a layer the workload
/// never enters reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("net.transport.send_us_per_txn", "us"),
    spec("net.transport.poll_us_per_txn", "us"),
    spec("net.transport.wait_us_per_txn", "us"),
    spec("net.transport.frames_per_txn", "count"),
    spec("net.transport.bytes_per_txn", "B"),
    spec("net.codec.encode_us_per_txn", "us"),
    spec("net.codec.decode_us_per_txn", "us"),
    spec("crypto.rsa.sign_us", "us"),
    spec("crypto.rsa.verify_us", "us"),
    spec("crypto.envelope.seal_us", "us"),
    spec("crypto.envelope.open_us", "us"),
    spec("crypto.hash.sha256_mib_s", "MiB/s"),
    spec("crypto.rsa.us_per_txn", "us"),
    spec("crypto.envelope.us_per_txn", "us"),
    spec("crypto.hash.us_per_txn", "us"),
    spec("core.runner.self_us_per_txn", "us"),
    spec("core.runner.head_tail_ratio", "ratio"),
    spec("core.sched.settle_us_per_txn", "us"),
    spec("core.sched.deliveries_per_txn", "count"),
    spec("core.sched.timer_rounds_per_txn", "count"),
    spec("core.archive.rehydrate_us", "us"),
    spec("core.archive.rehydrate_us_per_txn", "us"),
    spec("core.archive.evicted_share", "ratio"),
    spec("core.archive.log_bytes_per_txn", "B"),
    spec("core.evidence.reverify_us", "us"),
    spec("core.evidence.reverify_us_per_txn", "us"),
    spec("par.pool.busy_share", "ratio"),
    spec("par.pool.steals", "count"),
    spec("par.pool.tasks", "count"),
    spec("bench.gen.late_p99_us", "us"),
    spec("bench.gen.late_max_us", "us"),
    spec("bench.ladder.knee_txn_per_s", "txn/s"),
    spec("bench.e2e.p50_us", "us"),
    spec("bench.e2e.p99_us", "us"),
    spec("bench.trace.measured_us_per_txn", "us"),
    spec("bench.trace.overhead", "ratio"),
    spec("unattributed_us_per_txn", "us"),
    spec("unattributed_share", "ratio"),
];

/// Values by name, in the order they were computed.
pub type Values = Vec<(&'static str, f64)>;

/// End-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome, peak_rss_mib: f64) -> Values {
    let txn_per_s = match o.positions.rate() {
        Some(rate) => rate * o.parallel.max(1) as f64,
        None => o.completed as f64 / o.wall_s,
    };
    vec![
        ("setup_s", median(&o.setup_s)),
        ("txn_per_s", txn_per_s),
        ("peak_rss_mib", peak_rss_mib),
        ("evidence_bytes_per_txn", o.evidence_bytes),
    ]
}

/// Per-layer metrics of a traced run, with the untraced run of the same
/// workload for the tracing overhead.
pub fn per_layer(traced: &Outcome, untraced: &Outcome) -> Values {
    let o = traced;
    let m = micro(o.payload_len);
    let r = replay(&o.net.captured);
    let txns = o.completed.max(1) as f64;
    let per_txn = |s: f64| s * 1e6 / txns;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let measured = per_txn(o.busy_s);
    let (send, poll, wait) = (per_txn(o.net.send_s), per_txn(o.net.poll_s), per_txn(o.net.wait_s));
    let frames = o.net.frames as f64 / txns;
    let (encode, decode) = (r.encode_us * frames, r.decode_us * frames);
    let sample = r.txns.max(1.0);
    let rsa = (r.signs * m.sign_us + r.verifies * m.verify_us) / sample;
    let env = (r.seals * m.seal_us + r.opens * m.open_us) / sample;
    let hash = r.hashed_bytes / sample / (m.sha256_mib_s * (1 << 20) as f64) * 1e6;
    let runner = per_txn(o.spans.runner_s());
    let runner_self = runner - send - poll - wait - encode - decode - rsa - env - hash;
    let rehydrate = per_txn(o.spans.rehydrate_s);
    let reverify = per_txn(o.spans.reverify_s);
    let unattributed = measured - runner - rehydrate - reverify;
    let untraced_us = untraced.busy_s * 1e6 / untraced.completed.max(1) as f64;
    let late = sorted(&o.late_us);

    vec![
        ("net.transport.send_us_per_txn", send),
        ("net.transport.poll_us_per_txn", poll),
        ("net.transport.wait_us_per_txn", wait),
        ("net.transport.frames_per_txn", frames),
        ("net.transport.bytes_per_txn", o.net.bytes as f64 / txns),
        ("net.codec.encode_us_per_txn", encode),
        ("net.codec.decode_us_per_txn", decode),
        ("crypto.rsa.sign_us", m.sign_us),
        ("crypto.rsa.verify_us", m.verify_us),
        ("crypto.envelope.seal_us", m.seal_us),
        ("crypto.envelope.open_us", m.open_us),
        ("crypto.hash.sha256_mib_s", m.sha256_mib_s),
        ("crypto.rsa.us_per_txn", rsa),
        ("crypto.envelope.us_per_txn", env),
        ("crypto.hash.us_per_txn", hash),
        ("core.runner.self_us_per_txn", runner_self),
        ("core.runner.head_tail_ratio", head_tail_ratio(&o.service_us)),
        ("core.sched.settle_us_per_txn", per_txn(o.spans.settle_s)),
        ("core.sched.deliveries_per_txn", o.spans.deliveries as f64 / txns),
        ("core.sched.timer_rounds_per_txn", o.spans.timer_rounds as f64 / txns),
        ("core.archive.rehydrate_us", ratio(o.spans.rehydrate_s * 1e6, o.spans.rehydrates as f64)),
        ("core.archive.rehydrate_us_per_txn", rehydrate),
        ("core.archive.evicted_share", o.fp.evicted as f64 / txns),
        ("core.archive.log_bytes_per_txn", ratio(o.fp.log_bytes as f64, o.fp.evicted as f64)),
        ("core.evidence.reverify_us", ratio(o.spans.reverify_s * 1e6, o.spans.reverifies as f64)),
        ("core.evidence.reverify_us_per_txn", reverify),
        ("par.pool.busy_share", ratio(o.spans.lane_s, o.busy_s)),
        ("par.pool.steals", o.spans.steals as f64),
        ("par.pool.tasks", o.spans.tasks as f64),
        ("bench.gen.late_p99_us", quantile(&late, 0.99)),
        ("bench.gen.late_max_us", late.last().copied().unwrap_or(0.0)),
        ("bench.ladder.knee_txn_per_s", o.knee_txn_per_s),
        ("bench.e2e.p50_us", block_quantile(&untraced.latency_us, untraced.latency_block, 0.5)),
        ("bench.e2e.p99_us", quantile(&sorted(&untraced.latency_us), 0.99)),
        ("bench.trace.measured_us_per_txn", measured),
        ("bench.trace.overhead", 1.0 - ratio(untraced_us, measured)),
        ("unattributed_us_per_txn", unattributed),
        ("unattributed_share", ratio(unattributed, measured)),
    ]
}

/// Mean service time of the last tenth of each world's operations over
/// that of its first tenth, averaged over worlds with at least ten
/// operations: above 1 when a world slows down as it ages.
fn head_tail_ratio(worlds: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = worlds
        .iter()
        .filter(|s| s.len() >= 10)
        .map(|s| {
            let d = s.len() / 10;
            mean(&s[s.len() - d..]) / mean(&s[..d])
        })
        .collect();
    mean(&ratios)
}

/// Per-call costs of the crypto entry points at the workloads' key size
/// (512-bit test keys), evidence-body size and payload size.
struct Micro {
    sign_us: f64,
    verify_us: f64,
    seal_us: f64,
    open_us: f64,
    sha256_mib_s: f64,
}

fn micro(payload_len: usize) -> Micro {
    let p = Principal::test("micro", 0x6d1c);
    let alg = HashAlg::Sha256;
    let digest = alg.hash(b"evidence plaintext");
    let sig =
        p.keys.private.sign_prehashed(alg, &digest).expect("512-bit keys sign a SHA-256 digest");
    // The sealed evidence body: both signatures, length-prefixed.
    let mut w = Writer::new();
    w.bytes(&sig);
    w.bytes(&sig);
    let body = w.finish_vec();
    let mut rng = ChaChaRng::seed_from_u64(0x6d1c);
    let sealed = envelope::seal(p.public(), &mut rng, &body).expect("the body fits an envelope");
    let data = fill(0x6d1c, payload_len.max(1));
    let hash_us = per_call_us(|| {
        black_box(alg.hash(black_box(&data)));
    });
    Micro {
        sign_us: per_call_us(|| {
            black_box(p.keys.private.sign_prehashed(alg, black_box(&digest)).ok());
        }),
        verify_us: per_call_us(|| {
            black_box(p.public().verify_prehashed(alg, black_box(&digest), &sig).is_ok());
        }),
        seal_us: per_call_us(|| {
            black_box(envelope::seal(p.public(), &mut rng, black_box(&body)).ok());
        }),
        open_us: per_call_us(|| {
            black_box(envelope::open(&p.keys.private, black_box(&sealed)).ok());
        }),
        sha256_mib_s: data.len() as f64 / (1 << 20) as f64 / (hash_us / 1e6),
    }
}

/// Mean µs per call of the fastest of seven batches, each sized to take at
/// least 10 ms. Like `timeit`, the fastest batch: slower ones measure
/// interference from the rest of the host, not the call.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut n = 1u32;
    loop {
        let t = Instant::now();
        (0..n).for_each(|_| f());
        if t.elapsed() >= Duration::from_millis(10) {
            break;
        }
        n *= 2;
    }
    (0..7)
        .map(|_| {
            let t = Instant::now();
            (0..n).for_each(|_| f());
            t.elapsed().as_secs_f64() * 1e6 / f64::from(n)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The codec and crypto work carried by a sample of captured frames.
#[derive(Debug, Default)]
struct Replay {
    /// Mean µs per frame.
    encode_us: f64,
    decode_us: f64,
    /// Transactions in the sample (each begins with one Transfer).
    txns: f64,
    signs: f64,
    verifies: f64,
    seals: f64,
    opens: f64,
    hashed_bytes: f64,
}

fn replay(frames: &[Bytes]) -> Replay {
    let msgs: Vec<Message> =
        frames.iter().filter_map(|f| Message::from_wire_bytes(f).ok()).collect();
    if msgs.is_empty() {
        return Replay::default();
    }
    let mut r = Replay::default();
    for msg in &msgs {
        let (sealed, data) = match msg {
            Message::Transfer { data, .. } => {
                r.txns += 1.0;
                (true, data.len())
            }
            Message::Receipt { data, .. } => (true, data.len()),
            Message::Abort { .. } | Message::AbortReply { .. } => (true, 0),
            Message::ResolveReply { evidence, .. } => (evidence.is_some(), 0),
            Message::Resolve { .. } | Message::ResolveForward { .. } => (false, 0),
        };
        if sealed {
            r.signs += 2.0;
            r.seals += 1.0;
            r.opens += 1.0;
            r.verifies += 2.0;
        }
        r.hashed_bytes += 2.0 * data as f64;
    }
    r.encode_us = per_call_us(|| {
        for m in &msgs {
            black_box(m.to_wire_bytes());
        }
    }) / msgs.len() as f64;
    r.decode_us = per_call_us(|| {
        for f in frames {
            black_box(Message::from_wire_bytes(f).ok());
        }
    }) / frames.len() as f64;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run, Config};

    fn names(specs: &[Spec]) -> Vec<&'static str> {
        specs.iter().map(|s| s.name).collect()
    }

    #[test]
    fn every_metric_is_computed_in_catalog_order() {
        let cfg = Config { seed: 3, seconds: 0.0, quick: true, setup_reps: 1 };
        let bare = run("session", &cfg, false).unwrap();
        let traced = run("session", &cfg, true).unwrap();
        let e2e = end_to_end(&bare, 1.0);
        assert_eq!(e2e.iter().map(|v| v.0).collect::<Vec<_>>(), names(END_TO_END));
        let layers = per_layer(&traced, &bare);
        assert_eq!(layers.iter().map(|v| v.0).collect::<Vec<_>>(), names(PER_LAYER));
        assert!(layers.iter().all(|(_, v)| v.is_finite()));
    }

    /// The layers add up to the measured per-transaction time exactly,
    /// with the remainder reported rather than dropped.
    #[test]
    fn layers_sum_to_the_measured_time() {
        let cfg = Config { seed: 4, seconds: 0.0, quick: true, setup_reps: 1 };
        for name in ["session", "fleet"] {
            let bare = run(name, &cfg, false).unwrap();
            let traced = run(name, &cfg, true).unwrap();
            let v = per_layer(&traced, &bare);
            let get = |n: &str| v.iter().find(|x| x.0 == n).unwrap().1;
            let sum: f64 = [
                "net.transport.send_us_per_txn",
                "net.transport.poll_us_per_txn",
                "net.transport.wait_us_per_txn",
                "net.codec.encode_us_per_txn",
                "net.codec.decode_us_per_txn",
                "crypto.rsa.us_per_txn",
                "crypto.envelope.us_per_txn",
                "crypto.hash.us_per_txn",
                "core.runner.self_us_per_txn",
                "core.archive.rehydrate_us_per_txn",
                "core.evidence.reverify_us_per_txn",
                "unattributed_us_per_txn",
            ]
            .iter()
            .map(|n| get(n))
            .sum();
            let measured = get("bench.trace.measured_us_per_txn");
            assert!((sum - measured).abs() < 1e-6 * measured, "{name}: {sum} vs {measured}");
            assert!(get("crypto.rsa.us_per_txn") > 0.0 && get("crypto.hash.us_per_txn") > 0.0);
            let archived = get("core.archive.rehydrate_us") > 0.0;
            assert_eq!(archived, name == "fleet", "{name}: archive spans only on fleet");
        }
    }

    #[test]
    fn replay_counts_section_4_1_ops_per_message() {
        use crate::traced::{Probe, Traced};
        use tpnr_core::runner::{GenericWorld, TxnRequest};
        let net = Traced::new(tpnr_net::sim::SimNet::new(1));
        let mut w = GenericWorld::with_transport(net, 1, tpnr_core::config::ProtocolConfig::full());
        assert!(w.run(TxnRequest::upload(b"k", vec![7u8; 100])).completed());
        // Transfer (data + NRO) and Receipt (NRR, no data): each message
        // costs two signs, a seal, an open and two verifies; the payload
        // (100 data bytes plus the key and framing) is hashed at both ends.
        let rep = replay(&w.net_mut().take_trace().captured);
        assert_eq!(
            (rep.txns, rep.signs, rep.seals, rep.opens, rep.verifies),
            (1.0, 4.0, 2.0, 2.0, 4.0)
        );
        assert!(rep.hashed_bytes > 200.0 && rep.hashed_bytes < 260.0, "{}", rep.hashed_bytes);
        assert!(rep.encode_us > 0.0 && rep.decode_us > 0.0);
    }
}
