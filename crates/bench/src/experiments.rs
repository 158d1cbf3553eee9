//! The experiment implementations (E1–E10, E12–E14, X1 and the F2–F4 /
//! Table 1 platform flows; DESIGN.md §5).

use crate::report::Row;
use tpnr_attacks::AttackKind;
use tpnr_core::bridge::{self, BridgingScheme, DisputeScenario, SchemeKind};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::runner::{GenericWorld, World};
use tpnr_core::session::TxnState;
use tpnr_crypto::hash::HashAlg;
use tpnr_net::sim::{LinkConfig, SimNet};
use tpnr_net::tcp::{ChannelNet, TcpNet};
use tpnr_net::time::HostStopwatch;
use tpnr_net::time::SimDuration;
use tpnr_net::time::SimTime;
use tpnr_net::transport::Transport;
use tpnr_storage::object::Tamper;
use tpnr_storage::platform::{all_platforms, ClientVerdict};

// ------------------------------------------------------------ timing ----

/// The median of `rounds` by `key` (the lower middle of an even count) and
/// the spread, `max - min`, of their keys.
fn median_of<T: Clone>(rounds: &[T], key: impl Fn(&T) -> f64) -> (T, f64) {
    let mut sorted: Vec<&T> = rounds.iter().collect();
    sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let spread = key(sorted[sorted.len() - 1]) - key(sorted[0]);
    (sorted[(sorted.len() - 1) / 2].clone(), spread)
}

/// Host µs per call of `f`: the median over `rounds` rounds of each round's
/// mean. A round repeats `f` until it lasts at least a millisecond; the
/// rounds that find that count also warm caches and are discarded.
fn host_us<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut round = |iters: u32| {
        let sw = HostStopwatch::start();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        sw.elapsed_secs_f64()
    };
    let mut iters = 1;
    while round(iters) < 1e-3 {
        iters *= 2;
    }
    let means: Vec<f64> = (0..rounds).map(|_| round(iters) * 1e6 / f64::from(iters)).collect();
    median_of(&means, |us| *us).0
}

// ---------------------------------------------------------------- E1 ----

/// One row of the Figure-5 vulnerability matrix.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Platform ("Azure" / "AWS" / "GAE") or "TPNR".
    pub system: String,
    /// Tamper applied in storage.
    pub tamper: &'static str,
    /// Did the client's own check notice anything wrong?
    pub detected: bool,
    /// Can fault be *attributed* (non-repudiably pinned on the provider)?
    pub attributable: bool,
}

/// E1 / Figure 5: upload → tamper-in-storage → download on each platform
/// model, then the same story under TPNR.
pub fn e1_vulnerability_matrix(seed: u64) -> Vec<E1Row> {
    let mut rows = Vec::new();
    let tampers: [(&'static str, Tamper); 2] = [
        ("naive bit-flip", Tamper::BitFlip { offset: 3 }),
        ("consistent replace", Tamper::ConsistentReplace(b"forged".to_vec())),
    ];
    for (label, tamper) in &tampers {
        for mut p in all_platforms(seed) {
            p.upload("k", b"true data", SimTime::ZERO);
            p.tamper("k", tamper);
            let d = p.download("k").expect("object exists");
            rows.push(E1Row {
                system: p.name().to_string(),
                tamper: label,
                detected: d.client_check() == ClientVerdict::MismatchDetected,
                // No platform gives the client provider-signed commitments,
                // so even a *detected* mismatch cannot be pinned on the
                // provider (vs. the client's own upload or the transit).
                attributable: false,
            });
        }
        // TPNR: both tampers reduce to "stored bytes differ from the NRR'd
        // upload" — detected by the integrity link and provable in
        // arbitration.
        let mut w = World::new(seed, ProtocolConfig::full());
        let up = w.upload(b"k", b"true data".to_vec(), TimeoutStrategy::AbortFirst);
        match tamper {
            Tamper::BitFlip { .. } => {
                let mut cur = w.provider.peek_storage(b"k").unwrap().to_vec();
                cur[3] ^= 1;
                w.provider.tamper_storage(b"k", cur);
            }
            _ => {
                w.provider.tamper_storage(b"k", b"forged".to_vec());
            }
        }
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        let detected =
            w.client.verify_download_against_upload(up.txn_id, down.txn_id) == Some(false);
        let verdict = {
            let arb = tpnr_core::arbiter::Arbitrator::new(ProtocolConfig::full(), w.dir.clone());
            let case = tpnr_core::arbiter::DisputeCase {
                claimant: Some(w.client.id()),
                respondent: Some(w.provider.id()),
                upload_nrr: w.client.txn(up.txn_id).and_then(|t| t.nrr().ok().flatten()),
                download_nrr: w.client.txn(down.txn_id).and_then(|t| t.nrr().ok().flatten()),
                upload_nro: w.provider.txn(up.txn_id).and_then(|t| t.nro().ok()),
                download_nro: w.provider.txn(down.txn_id).and_then(|t| t.nro().ok()),
            };
            arb.judge(&case)
        };
        rows.push(E1Row {
            system: "TPNR".to_string(),
            tamper: label,
            detected,
            attributable: verdict == tpnr_core::arbiter::Verdict::ProviderAtFault,
        });
    }
    rows
}

// ---------------------------------------------------------------- E2 ----

/// One row of the protocol-efficiency comparison.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// "TPNR" or "traditional-NR".
    pub protocol: &'static str,
    /// Round-trip time of the simulated links.
    pub rtt_ms: u64,
    /// Payload size in bytes.
    pub size: usize,
    /// Wire messages used.
    pub messages: u64,
    /// Settlement latency in simulated milliseconds.
    pub latency_ms: f64,
    /// Whether the TTP was involved.
    pub ttp_used: bool,
}

/// E2 / Figure 6: TPNR Normal mode vs the traditional four-step protocol
/// across an RTT × size grid. The claim: 2 messages vs 4+ and strictly
/// lower latency at every point, with the TTP off-line for TPNR.
pub fn e2_protocol_comparison(rtts_ms: &[u64], sizes: &[usize]) -> Vec<E2Row> {
    let mut rows = Vec::new();
    for (i, &rtt) in rtts_ms.iter().enumerate() {
        for (j, &size) in sizes.iter().enumerate() {
            let seed = (i * 16 + j) as u64 + 1;
            let data = vec![0xabu8; size];
            let one_way = SimDuration::from_millis(rtt / 2);

            let mut w = World::new(seed, ProtocolConfig::full());
            w.set_all_links(LinkConfig::ideal(one_way));
            let r = w.upload(b"obj", data.clone(), TimeoutStrategy::AbortFirst);
            assert_eq!(r.outcome, TxnState::Completed);
            rows.push(E2Row {
                protocol: "TPNR",
                rtt_ms: rtt,
                size,
                messages: r.report.messages,
                latency_ms: r.report.latency.as_secs_f64() * 1e3,
                ttp_used: r.report.ttp_used,
            });

            let b = tpnr_core::baseline::run_exchange(seed, &data, one_way).expect("baseline run");
            rows.push(E2Row {
                protocol: "traditional-NR",
                rtt_ms: rtt,
                size,
                messages: b.messages,
                latency_ms: b.latency.as_secs_f64() * 1e3,
                ttp_used: b.ttp_used,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- E3 ----

/// E3 / §5: the attack × ablation matrix (delegates to `tpnr-attacks`).
pub fn e3_attack_matrix() -> Vec<tpnr_attacks::AttackOutcome> {
    tpnr_attacks::matrix()
}

/// E3's matrix as text, one row per line: the attack, the protocol variant,
/// whether the attack was blocked and its full detail, tab-separated.
/// `crates/bench/tests/fingerprints.rs` pins it (`experiments --e3-matrix`).
pub fn e3_matrix_text() -> String {
    e3_attack_matrix()
        .iter()
        .map(|o| {
            let (attack, variant) = (o.attack.label(), o.ablation.label());
            format!("{attack}\t{variant}\t{}\t{}\n", o.blocked, o.detail)
        })
        .collect()
}

// ---------------------------------------------------------------- E4 ----

/// One row of the evidence-cost table.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Payload size hashed into the evidence.
    pub size: usize,
    /// Hash algorithm.
    pub alg: HashAlg,
    /// Microseconds to build (commit + one signing pass producing the wire
    /// evidence and the sender's archived copy).
    pub generate_us: f64,
    /// Microseconds to re-commit on the receiver and verify.
    pub verify_us: f64,
    /// Deep payload copies performed during the measured loop (the shared
    /// [`tpnr_net::Bytes`] path keeps this at zero).
    pub deep_copies: u64,
    /// Bytes moved by those deep copies.
    pub deep_copy_bytes: u64,
}

/// E4: cost of evidence generation/verification vs payload size and hash.
/// Feeds the printed table and `BENCH_e4.json`.
///
/// The loop mirrors the protocol's evidence hot path for repeated
/// transactions over one shared object: each party commits the payload it
/// holds on every transaction, and the sender produces the wire evidence
/// and its archived copy in a single signing pass (`seal_and_own`).
pub fn e4_evidence_cost(sizes: &[usize], algs: &[HashAlg]) -> Vec<E4Row> {
    use tpnr_core::evidence::{open_and_verify, seal_and_own, EvidencePlaintext, Flag};
    use tpnr_core::principal::Principal;
    use tpnr_core::session::Payload;
    use tpnr_crypto::ChaChaRng;
    use tpnr_net::Bytes;

    let alice = Principal::test("alice", 301);
    let bob = Principal::test("bob", 302);
    let ttp = Principal::test("ttp", 303);
    let mut rows = Vec::new();
    for &size in sizes {
        let data: Bytes = vec![0x5au8; size].into();
        for &alg in algs {
            let mut cfg = ProtocolConfig::full();
            cfg.hash_alg = alg;
            let mut rng = ChaChaRng::seed_from_u64(77);
            let reps = if size >= 1 << 22 { 3 } else { 10 };
            let copies_before = Bytes::deep_copies();
            let copy_bytes_before = Bytes::deep_copy_bytes();

            let t0 = HostStopwatch::start();
            let mut made = Vec::new();
            for i in 0..reps {
                let payload = Payload { key: b"k".to_vec(), data: data.clone() };
                let pt = EvidencePlaintext {
                    flag: Flag::UploadRequest,
                    sender: alice.id(),
                    recipient: bob.id(),
                    ttp: ttp.id(),
                    txn_id: i as u64,
                    seq: 1,
                    nonce: i as u64,
                    time_limit: SimTime(1 << 40),
                    object: b"k".to_vec(),
                    hash_alg: alg,
                    data_hash: payload.commit(&cfg),
                };
                let (sealed, _own) =
                    seal_and_own(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
                made.push((payload, pt, sealed));
            }
            let generate_us = t0.elapsed_secs_f64() * 1e6 / reps as f64;

            let t0 = HostStopwatch::start();
            for (payload, pt, sealed) in &made {
                // Receiver side: re-commit the payload and check the
                // signatures.
                let _ = payload.commit(&cfg);
                open_and_verify(&cfg, &bob, alice.public(), pt, sealed).unwrap();
            }
            let verify_us = t0.elapsed_secs_f64() * 1e6 / reps as f64;
            rows.push(E4Row {
                size,
                alg,
                generate_us,
                verify_us,
                deep_copies: Bytes::deep_copies() - copies_before,
                deep_copy_bytes: Bytes::deep_copy_bytes() - copy_bytes_before,
            });
        }
    }
    rows
}

/// One E4 transport probe: the deep payload copies of a full upload.
#[derive(Debug, Clone)]
pub struct E4Transport {
    /// Uploaded object size in bytes.
    pub size: u64,
    /// Deep payload copies during the upload round-trip.
    pub upload_deep_copies: u64,
    /// Bytes moved by those deep copies.
    pub upload_deep_copy_bytes: u64,
}

/// Deep payload copies performed by one full TPNR upload round-trip of a
/// `size`-byte object, read from the global [`tpnr_net::Bytes`] counters.
/// The zero-copy wire path (shared envelopes, in-place frame views) keeps
/// this at 0; the pre-`Bytes` transport cloned the payload at least twice
/// per hop (outbox → queue, queue → inbox).
pub fn e4_transport_copies(size: usize) -> E4Transport {
    use tpnr_net::Bytes;
    let before = (Bytes::deep_copies(), Bytes::deep_copy_bytes());
    let mut w = World::new(404, ProtocolConfig::full());
    let r = w.upload(b"copy-probe", vec![0xa5u8; size], TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    E4Transport {
        size: size as u64,
        upload_deep_copies: Bytes::deep_copies() - before.0,
        upload_deep_copy_bytes: Bytes::deep_copy_bytes() - before.1,
    }
}

/// One E4 primitive row: the host time of one call of a primitive the
/// evidence path is built from. RSA sign and verify are E12's rows.
#[derive(Debug, Clone)]
pub struct E4Primitive {
    /// The primitive, e.g. "SHA-256", "HMAC-SHA256", "RSA-512 decrypt".
    pub primitive: String,
    /// Message bytes per call: the data hashed, MACed or enciphered; the
    /// 32-byte digest for RSA encrypt/decrypt; 0 for key generation.
    pub size: u64,
    /// Median host µs per call.
    pub us: f64,
    /// The output passed the primitive's own check: a digest or MAC changes
    /// when one input byte flips, a ciphertext deciphers back to its
    /// plaintext, a generated key signs and verifies.
    pub output_ok: bool,
}

/// E4's primitive rows: the 2010-era hash suite, HMAC-SHA256 and ChaCha20
/// over 64 B–1 MiB, RSA encrypt/decrypt of a 32-byte digest at each of
/// `rsa_bits`, and 512-bit key generation, each timed over `rounds`.
pub fn e4_primitives(rsa_bits: &[usize], rounds: usize) -> Vec<E4Primitive> {
    use tpnr_crypto::{chacha20, ct, hmac::Hmac, sha2::Sha256, ChaChaRng, RsaKeyPair};

    let mut rows = Vec::new();
    let mut row = |primitive: String, size: usize, us: f64, output_ok: bool| {
        rows.push(E4Primitive { primitive, size: size as u64, us, output_ok });
    };
    let (key, nonce) = ([7u8; 32], [1u8; 12]);
    let mac = |d: &[u8]| Hmac::<Sha256>::mac(b"azure-account-key-256bit-secret!", d);
    for size in [64, 1 << 10, 1 << 16, 1 << 20] {
        let data = vec![0xa5u8; size];
        let mut flipped = data.clone();
        flipped[size / 2] ^= 1;
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
            let us = host_us(rounds, || alg.hash(&data));
            row(alg.name().into(), size, us, !ct::eq(&alg.hash(&data), &alg.hash(&flipped)));
        }
        let us = host_us(rounds, || mac(&data));
        row("HMAC-SHA256".into(), size, us, !ct::eq(&mac(&data), &mac(&flipped)));
        let sealed = chacha20::encrypt(&key, &nonce, &data);
        let ok = sealed != data && chacha20::decrypt(&key, &nonce, &sealed) == data;
        let us = host_us(rounds, || chacha20::encrypt(&key, &nonce, &data));
        row("ChaCha20".into(), size, us, ok);
    }
    let mut rng = ChaChaRng::seed_from_u64(1);
    let digest = HashAlg::Sha256.hash(b"message");
    for &bits in rsa_bits {
        let kp = RsaKeyPair::generate(bits, &mut rng);
        let sealed =
            kp.public.encrypt(&mut rng, &digest).expect("a 32-byte digest fits the modulus");
        let ok = kp.private.decrypt(&sealed).is_ok_and(|m| ct::eq(&m, &digest));
        let us = host_us(rounds, || kp.public.encrypt(&mut rng, &digest));
        row(format!("RSA-{bits} encrypt"), digest.len(), us, ok);
        let us = host_us(rounds, || kp.private.decrypt(&sealed));
        row(format!("RSA-{bits} decrypt"), digest.len(), us, ok);
    }
    let mut seed = 0;
    let keygen = |s| RsaKeyPair::generate(512, &mut ChaChaRng::seed_from_u64(s));
    let us = host_us(rounds, || {
        seed += 1;
        keygen(seed)
    });
    let kp = keygen(0);
    let signs = kp.private.sign(HashAlg::Sha256, b"keygen");
    let ok = signs.is_ok_and(|s| kp.public.verify(HashAlg::Sha256, b"keygen", &s).is_ok());
    row("RSA-512 keygen".into(), 0, us, ok);
    rows
}

// ---------------------------------------------------------------- E5 ----

/// One row of the shipping-overhead table.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Shipping transit time in hours.
    pub transit_hours: u64,
    /// Protocol settlement time in simulated milliseconds (TPNR over WAN).
    pub protocol_ms: f64,
    /// Protocol time as a fraction of the end-to-end import time.
    pub overhead_fraction: f64,
}

/// E5 / §6 claim: "the time required for executing the protocol is really
/// trivial comparing to the time consumed by delivering the storage devices
/// by surface mail."
pub fn e5_shipping_overhead(transit_hours: &[u64]) -> Vec<E5Row> {
    let mut rows = Vec::new();
    for (i, &hours) in transit_hours.iter().enumerate() {
        // The evidence exchange runs over a 100 ms-RTT WAN while the device
        // is in transit on a truck.
        let mut w = World::new(500 + i as u64, ProtocolConfig::full());
        w.set_all_links(LinkConfig::ideal(SimDuration::from_millis(50)));
        let r = w.upload(b"device-manifest", vec![0u8; 4096], TimeoutStrategy::AbortFirst);
        let protocol = r.report.latency;
        let shipping = SimDuration::from_hours(hours);
        let total = shipping.plus(protocol);
        rows.push(E5Row {
            transit_hours: hours,
            protocol_ms: protocol.as_secs_f64() * 1e3,
            overhead_fraction: protocol.as_secs_f64() / total.as_secs_f64(),
        });
    }
    rows
}

// ---------------------------------------------------------------- E6 ----

/// One row of the TTP-load curve.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Probability that the provider's receipt is lost.
    pub fault_rate: f64,
    /// Fraction of TPNR sessions that touched the TTP.
    pub tpnr_ttp_fraction: f64,
    /// Fraction of sessions that completed (vs failed/aborted).
    pub tpnr_completed_fraction: f64,
    /// Fraction of traditional-NR sessions that touch the TTP (always 1).
    pub baseline_ttp_fraction: f64,
}

/// E6 / §4.4 claim: the TTP is off-line — touched only when something goes
/// wrong — whereas the traditional protocol routes every session through it.
pub fn e6_ttp_load(fault_rates: &[f64], trials: usize) -> Vec<E6Row> {
    fault_rates
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            // Trials are independent simulations — embarrassingly parallel.
            let (ttp_hits, completed) = crate::par_map_indexed(trials, |t| {
                let mut w = World::new((i * 1000 + t) as u64 + 9000, ProtocolConfig::full());
                // Receipts (bob→alice) are lost with probability p.
                let (a, b) = (w.alice_node, w.bob_node);
                let _ = a;
                w.net_mut().set_link(b, a, LinkConfig::lossy(SimDuration::from_millis(25), p));
                let r = w.upload(b"obj", vec![1u8; 256], TimeoutStrategy::ResolveImmediately);
                (u64::from(r.report.ttp_used), u64::from(r.outcome == TxnState::Completed))
            })
            .into_iter()
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
            E6Row {
                fault_rate: p,
                tpnr_ttp_fraction: ttp_hits as f64 / trials as f64,
                tpnr_completed_fraction: completed as f64 / trials as f64,
                baseline_ttp_fraction: 1.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E7 ----

/// One row of the bridging-scheme comparison.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Scheme variant.
    pub scheme: SchemeKind,
    /// Upload-session messages.
    pub messages: u32,
    /// Dispute records at user / provider / TAC (bytes).
    pub records: (usize, usize, usize),
    /// Tamper provable with a cooperative counterparty?
    pub proves_with_cooperation: bool,
    /// Tamper provable against an uncooperative counterparty (TAC up)?
    pub proves_alone: bool,
    /// Is the proof non-repudiable (attributable)?
    pub attributable: bool,
}

/// E7 / §3: the four bridging schemes side by side.
pub fn e7_bridge_schemes(seed: u64) -> Vec<E7Row> {
    let coop = DisputeScenario { counterparty_cooperates: true, tac_available: true };
    let alone = DisputeScenario { counterparty_cooperates: false, tac_available: true };
    SchemeKind::all()
        .into_iter()
        .map(|kind| {
            let mut s: Box<dyn BridgingScheme> = bridge::make_scheme(kind, seed);
            let sum = s.upload(b"the agreed data");
            s.tamper(b"tampered data");
            E7Row {
                scheme: kind,
                messages: sum.messages,
                records: (sum.user_record_bytes, sum.provider_record_bytes, sum.tac_record_bytes),
                proves_with_cooperation: s.tamper_proven(coop) == Some(true),
                proves_alone: s.tamper_proven(alone) == Some(true),
                attributable: s.dispute_power(coop).attributable
                    || s.dispute_power(alone).attributable,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E8 ----

/// One row of the E8 chaos sweep: outcome classification of a fleet of
/// transactions run under a given per-delivery crash probability.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Per-delivery crash probability, in permille (300 = 0.3).
    pub crash_prob_permille: u32,
    /// Independent transactions attempted at this probability.
    pub trials: u64,
    /// Completed with both NRO and NRR sealed — full evidence.
    pub completed_full_evidence: u64,
    /// Terminal (Aborted / AbortRejected / Failed) without a receipt, but
    /// the client still holds sealed evidence it can take to arbitration.
    pub arbitrable_terminal: u64,
    /// Neither — evidence-less limbo. The protocol's §4 claim is that this
    /// is zero at every crash probability.
    pub limbo: u64,
    /// Actor crashes injected across all trials.
    pub crashes: u64,
    /// Snapshot restarts performed across all trials.
    pub restarts: u64,
    /// Timeout-driven re-sends beyond the first attempt.
    pub retries: u64,
    /// Transactions whose retry budget was exhausted (now `Failed`).
    pub gave_up: u64,
    /// Persisted snapshot sizes summed over the write-ahead syncs
    /// (`FaultStats::snapshot_bytes`).
    pub snapshot_bytes: u64,
}

/// E8 / §4.11: crash-recovery chaos sweep. Alice, Bob and the TTP each
/// crash with the given probability per delivery (bounded budget per run)
/// and restart from their last durable snapshot; the client retries with
/// exponential backoff. The claim under test: every transaction either
/// completes with full evidence or terminates in an arbitrable state.
/// Deterministic in the trial seeds; all-integer rows so the JSONL export
/// is byte-identical across runs.
pub fn e8_chaos(crash_permilles: &[u32], trials: usize) -> Vec<E8Row> {
    use tpnr_core::fault::{FaultPlan, RetryPolicy};

    crash_permilles
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            // Trials are independent simulations — embarrassingly parallel.
            let per_trial = crate::par_map_indexed(trials, |t| {
                let seed = (i * 10_000 + t) as u64 + 80_000;
                let plan = FaultPlan::none()
                    .with_seed(seed)
                    .with_chaos(&["alice", "bob", "ttp"], p, 8)
                    .with_restart_delay(SimDuration::from_secs(2));
                let cfg = ProtocolConfig::builder()
                    .retry_policy(RetryPolicy::exponential(6))
                    .fault_plan(plan)
                    .build();
                let mut w = World::new(seed, cfg);
                let r = w.upload(b"obj", vec![1u8; 256], TimeoutStrategy::ResolveImmediately);
                let full = r.completed() && r.nrr.is_some();
                let arbitrable = !full && r.outcome.is_terminal() && r.nro.is_some();
                let f = w.fault_counters();
                [
                    u64::from(full),
                    u64::from(arbitrable),
                    u64::from(!full && !arbitrable),
                    f.crashes,
                    f.restarts,
                    f.retries,
                    f.gave_up,
                    f.snapshot_bytes,
                ]
            });
            let sum = per_trial.into_iter().fold([0u64; 8], |mut acc, x| {
                for (a, v) in acc.iter_mut().zip(x) {
                    *a += v;
                }
                acc
            });
            E8Row {
                crash_prob_permille: p,
                trials: trials as u64,
                completed_full_evidence: sum[0],
                arbitrable_terminal: sum[1],
                limbo: sum[2],
                crashes: sum[3],
                restarts: sum[4],
                retries: sum[5],
                gave_up: sum[6],
                snapshot_bytes: sum[7],
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E9 ----

/// One E9 row: Shamir sharing of the paper's 16-byte agreed MD5 at one
/// threshold `k` of `n` shares.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Shares needed to recover the secret.
    pub k: u64,
    /// Shares issued.
    pub n: u64,
    /// Median host µs per split into `n` shares.
    pub split_us: f64,
    /// Median host µs per combine of `k` shares.
    pub combine_us: f64,
    /// Every run of `k` consecutive shares recovers the secret.
    pub k_recovers: bool,
    /// No run of `k − 1` consecutive shares does.
    pub k_minus_1_fails: bool,
}

/// E9 / §3.2, §3.4: the SKS schemes' secret sharing, split and combine
/// timed over `rounds` at (k, n) ∈ {(2,2), (2,5), (3,5), (5,10)}.
pub fn e9_shamir(rounds: usize) -> Vec<E9Row> {
    use tpnr_crypto::{shamir, ChaChaRng};

    let secret = HashAlg::Md5.hash(b"the agreed data");
    let recovers = |shares: &[shamir::Share]| shamir::combine(shares).is_ok_and(|s| s == secret);
    [(2, 2), (2, 5), (3, 5), (5, 10)]
        .into_iter()
        .map(|(k, n)| {
            let mut rng = ChaChaRng::seed_from_u64(2);
            let split_us = host_us(rounds, || shamir::split(&secret, k, n, &mut rng));
            let shares = shamir::split(&secret, k, n, &mut ChaChaRng::seed_from_u64(2))
                .expect("1 <= k <= n <= 255");
            E9Row {
                k: k as u64,
                n: n as u64,
                split_us,
                combine_us: host_us(rounds, || shamir::combine(&shares[..k])),
                k_recovers: shares.windows(k).all(recovers),
                k_minus_1_fails: !shares.windows(k - 1).any(recovers),
            }
        })
        .collect()
}

// --------------------------------------------------------------- E10 ----

/// One row of the E10 scale sweep: a population of `clients` clients, one
/// upload each, driven across independent simulation lanes in parallel.
/// All fields except the host-timing pair (`elapsed_ms`, `txn_per_sec`)
/// are deterministic in the seed.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Total simulated clients (= transactions attempted).
    pub clients: u64,
    /// Independent simulation lanes the population was split into.
    pub lanes: u64,
    /// Transactions completed with full evidence.
    pub completed: u64,
    /// Host wall-clock for build + run + verify, in milliseconds.
    pub elapsed_ms: u64,
    /// Settled transactions per host-second.
    pub txn_per_sec: u64,
    /// Median settle latency (sim-time µs, initiation → last delivery).
    pub p50_us: u64,
    /// 99th-percentile settle latency (sim-time µs).
    pub p99_us: u64,
    /// Sealed archive-log bytes per client (the at-rest evidence cost).
    pub bytes_per_client: u64,
    /// Messages handed to the simulator across all lanes.
    pub sent: u64,
    /// Messages delivered to an inbox (duplicates count per copy).
    pub delivered: u64,
    /// Messages the network lost.
    pub dropped: u64,
    /// Duplicate copies the network injected.
    pub duplicated: u64,
    /// Lanes where `delivered + dropped != sent + duplicated` (or that
    /// failed to reach quiescence). The conservation law must hold: 0.
    pub conservation_violations: u64,
    /// Settled txns evicted to sealed archive logs.
    pub evicted: u64,
    /// Archived bundles re-hydrated (the verify pass reads every one).
    pub rehydrated: u64,
    /// Live per-txn bookkeeping entries left across all lanes at the end —
    /// the bounded-resident-memory claim.
    pub resident: u64,
    /// Total sealed archive-log bytes.
    pub archive_bytes: u64,
    /// Arbitrable txns whose evidence did not survive eviction +
    /// re-hydration (must be 0: eviction moves evidence, never loses it).
    pub evidence_loss: u64,
    /// Transactions whose retry budget was exhausted.
    pub gave_up: u64,
    /// Workers in the pool that drove the lanes (calling thread included).
    pub workers: u64,
    /// The host's advertised core count — recorded so bench trajectories
    /// stay comparable across machines.
    pub available_parallelism: u64,
    /// Index ranges workers claimed beyond an even share during the lane
    /// fan-out (timing-dependent; 0 when balanced).
    pub steals: u64,
    /// Contiguous index ranges the lane range was split into
    /// (deterministic for a given worker count).
    pub tasks: u64,
}

/// Clients per E10 simulation lane (also the shared principal-pool size).
const E10_LANE: usize = 256;

/// Per-lane driver: start one upload per client, settle, then audit every
/// evicted transaction's archived evidence. Returns the lane's tallies.
fn e10_run_lane(w: &mut tpnr_core::multi::MultiWorld) -> E10LaneStats {
    // Keep the resident settled set small so eviction engages at every
    // lane size (16 shards × 8 = 128 hot txns per lane).
    w.set_archive_capacity(8);
    let n_c = w.clients.len();
    let mut handles = Vec::with_capacity(n_c);
    for i in 0..n_c {
        let key = format!("u{i}").into_bytes();
        handles.push(w.start_upload(
            i,
            &key,
            vec![(i % 251) as u8; 64],
            TimeoutStrategy::ResolveImmediately,
        ));
    }
    let s = w.settle();
    let quiescent = s.outcome == tpnr_core::sched::SettleOutcome::Quiescent;

    let mut completed = 0u64;
    let mut evidence_loss = 0u64;
    for &h in &handles {
        let st = w.state_of(h);
        if st == Some(TxnState::Completed) {
            completed += 1;
        }
        let arbitrable = st.is_some_and(|st| st.is_terminal());
        if !arbitrable {
            continue;
        }
        if w.clients[h.client].txn(h.txn_id).is_some() {
            continue; // still resident; evidence lives in the client record
        }
        // Evicted: the archived bundle must re-hydrate with the client's
        // NRO (and, for completed txns, the NRR receipt) intact.
        let ok = w.rehydrate_evidence(h.txn_id).is_some_and(|b| {
            b.structurally_sound()
                && b.get("client-nro").is_some()
                && (st != Some(TxnState::Completed) || b.get("client-nrr").is_some())
        });
        if !ok {
            evidence_loss += 1;
        }
    }

    let net = w.net().stats();
    let conservation_ok = net.delivered + net.dropped == net.sent + net.duplicated;
    let a = w.archive_stats();
    E10LaneStats {
        completed,
        evidence_loss,
        violation: u64::from(!conservation_ok || !quiescent),
        sent: net.sent,
        delivered: net.delivered,
        dropped: net.dropped,
        duplicated: net.duplicated,
        evicted: a.evicted,
        rehydrated: a.rehydrated,
        resident: w.resident_txns() as u64,
        archive_bytes: a.log_bytes,
        gave_up: w.fault_counters().gave_up,
        latency: w.obs.metrics.latency_us.clone(),
    }
}

struct E10LaneStats {
    completed: u64,
    evidence_loss: u64,
    violation: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    evicted: u64,
    rehydrated: u64,
    resident: u64,
    archive_bytes: u64,
    gave_up: u64,
    latency: tpnr_core::obs::Histogram,
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) for per-client
/// latency jitter: pure in its input, so the drawn latencies depend only
/// on `(seed, global client index)` — never on lane scheduling.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gives every client in a lane a distinct deterministic one-way latency
/// to the provider (5–45 ms, drawn from the seed and the client's *global*
/// index). Without this every E10 settle latency was the same constant
/// default-link round trip and p50 == p99 degenerately.
fn e10_apply_latency_jitter(w: &mut tpnr_core::multi::MultiWorld, seed: u64, first_global: usize) {
    for i in 0..w.clients.len() {
        let r = splitmix64(seed ^ 0xE10_1A7E ^ (first_global + i) as u64);
        let one_way = SimDuration::from_micros(5_000 + r % 40_001);
        w.set_client_provider_link(i, LinkConfig::ideal(one_way));
    }
}

/// E10 on the process-wide pool ([`tpnr_par::Pool::global`]).
pub fn e10_scale(client_counts: &[usize], seed: u64) -> Vec<E10Row> {
    e10_scale_on(tpnr_par::Pool::global(), client_counts, seed)
}

/// E10: deadline-index + sharded-state scale sweep. Each client count is split
/// into lanes of `E10_LANE` clients; lanes are independent `MultiWorld`s
/// (own simulator, shared principal pool — RSA keygen is the scale wall, so
/// one pool of keys serves every lane). The lane range is one fan-out on
/// `pool` per row: lanes are built, run, and dropped *inside* their task,
/// so resident memory stays at one world per active worker, and a slow
/// lane holds only its own worker while the others claim the remaining
/// ranges. Reports throughput, settle-latency quantiles, archive
/// behaviour, the delivery conservation law, and the fan-out's steal/task
/// counters. E13 sweeps worker counts by calling this with differently
/// sized pools.
pub fn e10_scale_on(pool: &tpnr_par::Pool, client_counts: &[usize], seed: u64) -> Vec<E10Row> {
    use std::sync::Arc;
    use tpnr_core::multi::MultiWorld;
    use tpnr_core::principal::Principal;

    let bob = Arc::new(Principal::test("bob", seed.wrapping_mul(11).wrapping_add(1)));
    let ttp = Arc::new(Principal::test("ttp", seed.wrapping_mul(11).wrapping_add(2)));
    let pool_n = client_counts.iter().copied().max().unwrap_or(0).min(E10_LANE);
    let principals: Arc<Vec<Principal>> = Arc::new(pool.scoped_indexed(pool_n, |i| {
        Principal::test(&format!("client-{i}"), seed.wrapping_mul(11) + 10 + i as u64)
    }));

    client_counts
        .iter()
        .map(|&n| {
            assert!(n > 0);
            let lanes_n = n.div_ceil(E10_LANE);
            let sw = HostStopwatch::start();
            let (stats, fan) = {
                let principals = Arc::clone(&principals);
                let bob = Arc::clone(&bob);
                let ttp = Arc::clone(&ttp);
                pool.run_indexed_stats(lanes_n, move |l| {
                    let c = (n - l * E10_LANE).min(E10_LANE);
                    let mut w = MultiWorld::with_principals(
                        seed.wrapping_add(l as u64),
                        ProtocolConfig::full(),
                        &principals[..c],
                        &bob,
                        &ttp,
                    );
                    e10_apply_latency_jitter(&mut w, seed, l * E10_LANE);
                    e10_run_lane(&mut w)
                })
            };
            let mut sum = [0u64; 12];
            let mut latency = tpnr_core::obs::Histogram::default();
            for st in &stats {
                for (a, v) in sum.iter_mut().zip([
                    st.completed,
                    st.evidence_loss,
                    st.violation,
                    st.sent,
                    st.delivered,
                    st.dropped,
                    st.duplicated,
                    st.evicted,
                    st.rehydrated,
                    st.resident,
                    st.archive_bytes,
                    st.gave_up,
                ]) {
                    *a += v;
                }
                latency.merge(&st.latency);
            }
            let elapsed = sw.elapsed_secs_f64();
            E10Row {
                clients: n as u64,
                lanes: lanes_n as u64,
                completed: sum[0],
                elapsed_ms: (elapsed * 1000.0) as u64,
                txn_per_sec: (n as f64 / elapsed.max(1e-9)) as u64,
                p50_us: latency.quantile(0.5).unwrap_or(0),
                p99_us: latency.quantile(0.99).unwrap_or(0),
                bytes_per_client: sum[10] / n as u64,
                sent: sum[3],
                delivered: sum[4],
                dropped: sum[5],
                duplicated: sum[6],
                conservation_violations: sum[2],
                evicted: sum[7],
                rehydrated: sum[8],
                resident: sum[9],
                archive_bytes: sum[10],
                evidence_loss: sum[1],
                gave_up: sum[11],
                workers: pool.workers() as u64,
                available_parallelism: tpnr_par::available_parallelism() as u64,
                steals: fan.steals,
                tasks: fan.tasks,
            }
        })
        .collect()
}

// --------------------------------------------------------------- E12 ----

/// One row of the E12 RSA-kernel sweep: sign/verify microseconds for one
/// key size × hash algorithm, measured on the fixed-limb windowed path and
/// on the retained pre-optimization classic path **interleaved in one run**
/// (so the ratio survives host noise even on a loaded single-core VM), plus
/// heap-allocation tallies per signing operation on each path. Both paths
/// are timed inside a one-worker [`tpnr_par::Pool`] fan-out, where the CRT
/// helper never takes a half, so they compare one kernel with another on
/// one core; `sign_split_us` times the fixed path outside any fan-out.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// RSA modulus width in bits.
    pub bits: u64,
    /// Digest algorithm of the signed prehash.
    pub alg: &'static str,
    /// Mean classic-path (square-and-multiply, Vec-backed) sign time, µs.
    pub sign_classic_us: u64,
    /// Mean fixed-limb windowed sign time, µs.
    pub sign_fast_us: u64,
    /// Mean fixed-limb sign time outside any fan-out, µs: on a host with
    /// a second core the CRT helper computes one half of each signature.
    pub sign_split_us: u64,
    /// `sign_classic_us / sign_fast_us`, ×100 (integer-JSON friendly).
    pub sign_speedup_x100: u64,
    /// Mean classic-path verify time, µs.
    pub verify_classic_us: u64,
    /// Mean fixed-limb verify time, µs.
    pub verify_fast_us: u64,
    /// `BigUint` limb-vector allocations per classic sign.
    pub allocs_per_sign_classic: u64,
    /// `BigUint` limb-vector allocations per fixed-limb sign: zero, since
    /// the private operation runs on the key's precomputed fixed-limb CRT
    /// constants from the encoded message's bytes to the signature's.
    pub allocs_per_sign_fast: u64,
    /// Fast sign under the recorded per-width floor (noise-margined): the
    /// CI regression gate.
    pub sign_floor_ok: bool,
}

/// Recorded fast-path signing floors (µs) per modulus width, with ~3×
/// headroom over the 2026-08 measurement on the reference 1-core 2.1 GHz
/// KVM host (see EXPERIMENTS.md E12). CI fails the smoke run if a signing
/// regression blows through the margin.
const E12_SIGN_FLOOR_US: &[(u64, u64)] = &[(512, 700), (1024, 3600), (2048, 22000)];

fn e12_sign_floor(bits: u64) -> u64 {
    E12_SIGN_FLOOR_US.iter().find(|(b, _)| *b == bits).map(|(_, f)| *f).unwrap_or(u64::MAX)
}

/// Per-(key size × alg) kernel comparison. `iters` timing rounds per path,
/// interleaved classic/fast within each round.
fn e12_kernel_row(kp: &tpnr_crypto::RsaKeyPair, bits: u64, alg: HashAlg, iters: usize) -> E12Row {
    use tpnr_crypto::bigint::limb_allocs;

    let alg_name = match alg {
        HashAlg::Md5 => "md5",
        HashAlg::Sha1 => "sha1",
        HashAlg::Sha256 => "sha256",
        HashAlg::Sha512 => "sha512",
    };
    let digests: Vec<Vec<u8>> =
        (0..iters as u64).map(|i| alg.hash(&(i ^ bits).to_be_bytes())).collect();

    // One core: inside a one-worker fan-out no half goes to the helper.
    let one_core = tpnr_par::Pool::new(1).run_indexed(1, |_| {
        let (mut t_sc, mut t_sf, mut t_vc, mut t_vf) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut sigs = Vec::with_capacity(digests.len());
        for d in &digests {
            // Interleave the two paths inside each round: CPU-frequency
            // drift and scheduler noise then hit both paths alike, keeping
            // the ratio meaningful even when absolute numbers wobble.
            let sw = HostStopwatch::start();
            let sig_c = kp.private.sign_prehashed_reference(alg, d).expect("sign");
            t_sc += sw.elapsed_secs_f64();
            let sw = HostStopwatch::start();
            let sig_f = kp.private.sign_prehashed(alg, d).expect("sign");
            t_sf += sw.elapsed_secs_f64();
            assert_eq!(sig_c, sig_f, "kernel divergence: signatures must be byte-identical");
            let sw = HostStopwatch::start();
            kp.public.verify_prehashed_reference(alg, d, &sig_c).expect("verify");
            t_vc += sw.elapsed_secs_f64();
            let sw = HostStopwatch::start();
            kp.public.verify_prehashed(alg, d, &sig_f).expect("verify");
            t_vf += sw.elapsed_secs_f64();
            sigs.push(sig_f);
        }
        (t_sc, t_sf, t_vc, t_vf, sigs)
    });
    let (t_sc, t_sf, t_vc, t_vf, sigs) = one_core.into_iter().next().expect("one index");
    // Outside any fan-out: the helper may take each signature's q-half.
    // One untimed sign first wakes the helper, parked during the loop above.
    kp.private.sign_prehashed(alg, &digests[0]).expect("sign");
    let mut t_split = 0.0f64;
    for (d, sig) in digests.iter().zip(&sigs) {
        let sw = HostStopwatch::start();
        let sig_s = kp.private.sign_prehashed(alg, d).expect("sign");
        t_split += sw.elapsed_secs_f64();
        assert_eq!(&sig_s, sig, "split divergence: signatures must be byte-identical");
    }
    let us = |total: f64| (total / iters as f64 * 1e6) as u64;

    // Allocation tallies: one sign per path under the thread-local counter.
    let d0 = &digests[0];
    limb_allocs::reset();
    let _ = kp.private.sign_prehashed_reference(alg, d0);
    let allocs_classic = limb_allocs::count();
    limb_allocs::reset();
    let _ = kp.private.sign_prehashed(alg, d0);
    let allocs_fast = limb_allocs::count();

    let sign_fast_us = us(t_sf).max(1);
    E12Row {
        bits,
        alg: alg_name,
        sign_classic_us: us(t_sc),
        sign_fast_us,
        sign_split_us: us(t_split),
        sign_speedup_x100: (t_sc / t_sf * 100.0) as u64,
        verify_classic_us: us(t_vc),
        verify_fast_us: us(t_vf),
        allocs_per_sign_classic: allocs_classic,
        allocs_per_sign_fast: allocs_fast,
        sign_floor_ok: sign_fast_us <= e12_sign_floor(bits),
    }
}

/// E12: hardware-speed RSA sweep. For each modulus width, generates one
/// keypair and reports (a) sign/verify µs per hash algorithm on the
/// fixed-limb windowed kernels vs the retained classic path, measured
/// interleaved on one core; (b) the fixed path's sign µs with the CRT
/// helper free to take half of it; (c) allocations per sign on both paths.
/// Deterministic in everything but the host timings.
pub fn e12_rsa_kernels(bit_sizes: &[usize], quick: bool) -> Vec<E12Row> {
    let mut rows = Vec::new();
    for &bits in bit_sizes {
        let mut rng = tpnr_crypto::ChaChaRng::seed_from_u64(0x5250_4b45 ^ bits as u64);
        let kp = tpnr_crypto::RsaKeyPair::generate(bits, &mut rng);
        // Enough rounds that the per-op mean is stable, scaled down for the
        // slower widths and for the CI smoke run.
        let iters = match (bits, quick) {
            (_, true) => 6,
            (512, _) => 48,
            (1024, _) => 20,
            _ => 8,
        };
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            rows.push(e12_kernel_row(&kp, bits as u64, alg, iters));
        }
    }
    rows
}

// --------------------------------------------------------------- E13 ----

/// One row of the E13 worker-count sweep: the E10 scenario at a fixed
/// client load, driven by a [`tpnr_par::Pool`] of `workers` workers. The
/// perf gates (`scaling_ok`) and the scheduling-invariance gate
/// (`deterministic_vs_serial`) are computed by the measurement code
/// itself, E12-style, so `experiments --check` reads them from the JSONL.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Simulated clients (identical in every row of a sweep).
    pub clients: u64,
    /// Simulation lanes the load was split into.
    pub lanes: u64,
    /// Configured pool workers for this row.
    pub workers: u64,
    /// The host's advertised core count. Speedup expectations scale with
    /// `min(workers, available_parallelism)`, so rows stay honest on
    /// small hosts (a 1-core box cannot show parallel speedup, only
    /// bounded overhead).
    pub available_parallelism: u64,
    /// Transactions completed with full evidence.
    pub completed: u64,
    /// Host wall-clock of the median round, in milliseconds.
    pub elapsed_ms: u64,
    /// Settled transactions per host-second: the median of the rounds.
    pub txn_per_sec: u64,
    /// `max - min` of `txn_per_sec` across the rounds.
    pub txn_per_sec_spread: u64,
    /// Throughput relative to this sweep's `workers == 1` row, ×100.
    pub speedup_x100: u64,
    /// Parallel efficiency: speedup ÷ effective cores, ×100.
    pub efficiency_x100: u64,
    /// The floor `speedup_x100` must clear for this row's effective core
    /// count (recorded so the gate is auditable from the JSONL alone).
    pub required_speedup_x100: u64,
    /// `speedup_x100 >= required_speedup_x100`.
    pub scaling_ok: bool,
    /// Index ranges workers claimed beyond an even share during the lane
    /// fan-out (timing-dependent; 0 when balanced).
    pub steals: u64,
    /// Contiguous index ranges the lane range was split into.
    pub tasks: u64,
    /// Median settle latency (sim-time µs).
    pub p50_us: u64,
    /// 99th-percentile settle latency (sim-time µs).
    pub p99_us: u64,
    /// Lanes violating the delivery conservation law (must be 0).
    pub conservation_violations: u64,
    /// Evidence lost across eviction + re-hydration (must be 0).
    pub evidence_loss: u64,
    /// Non-timing output of every round byte-identical to the serial
    /// run's — the pool's determinism claim, checked on every row.
    pub deterministic_vs_serial: bool,
}

/// The E10 fields that must be byte-identical however the fan-out is
/// scheduled: every field except host timing (`elapsed_ms`, `txn_per_sec`)
/// and the scheduler's (`workers`, `available_parallelism`, `steals`,
/// `tasks`).
fn e10_non_timing_fingerprint(r: &E10Row) -> String {
    const SCHEDULING: [&str; 6] =
        ["elapsed_ms", "txn_per_sec", "workers", "available_parallelism", "steals", "tasks"];
    let fields = r.fields().into_iter().filter(|(name, _)| !SCHEDULING.contains(name));
    fields.map(|(_, v)| v.to_string()).collect::<Vec<_>>().join("|")
}

/// Speedup floor (×100) by effective core count. One effective core can
/// only bound scheduling overhead (≥ 0.6× serial); real cores must show
/// real speedup, up to the tentpole's ≥ 3× target at 8+ cores. The floors
/// are deliberately below ideal scaling — they fail on regressions, not on
/// scheduler noise.
fn e13_required_speedup_x100(effective_cores: u64) -> u64 {
    match effective_cores {
        0 | 1 => 60,
        2 => 140,
        3..=4 => 200,
        _ => 300,
    }
}

/// Rounds of the E13 ladder. Odd, so each row's median is one real round.
const E13_ROUNDS: usize = 5;

/// E13: worker scaling sweep. Runs the E10 scenario at one fixed
/// client load on pools of 1, 2, 4, 8 (and the host's core count, when
/// that differs) workers, in `E13_ROUNDS` interleaved rounds that each
/// visit every worker count, so one slow shot cannot fail a row. Reports
/// the median round's throughput with the spread across rounds, speedup
/// over the serial row, parallel efficiency, steal counts, latency
/// percentiles — and whether every round's non-timing output stayed
/// byte-identical to serial (the determinism argument for the pool's
/// index-ordered join).
pub fn e13_worker_sweep(clients: usize, seed: u64) -> Vec<E13Row> {
    let host = tpnr_par::available_parallelism();
    let mut ladder: Vec<usize> = vec![1, 2, 4, 8];
    if !ladder.contains(&host) {
        ladder.push(host);
    }
    ladder.sort_unstable();

    let pools: Vec<tpnr_par::Pool> = ladder.iter().map(|&wk| tpnr_par::Pool::new(wk)).collect();
    let mut runs: Vec<Vec<E10Row>> = vec![Vec::new(); ladder.len()];
    for _ in 0..E13_ROUNDS {
        for (pool, rounds) in pools.iter().zip(&mut runs) {
            rounds.extend(e10_scale_on(pool, &[clients], seed));
        }
    }
    e13_rows(host as u64, &runs)
}

/// E13's rows from each worker count's rounds, serial first: a row reads
/// its median round by `txn_per_sec`, and its speedup compares that median
/// with the serial median.
fn e13_rows(host: u64, runs: &[Vec<E10Row>]) -> Vec<E13Row> {
    let median = |rounds: &[E10Row]| median_of(rounds, |r| r.txn_per_sec as f64);
    let serial_tps = median(&runs[0]).0.txn_per_sec;
    let serial_fp = e10_non_timing_fingerprint(&runs[0][0]);
    runs.iter()
        .map(|rounds| {
            let (r, spread) = median(rounds);
            let speedup_x100 = r.txn_per_sec.saturating_mul(100) / serial_tps.max(1);
            let effective = r.workers.min(host);
            let required = e13_required_speedup_x100(effective);
            E13Row {
                clients: r.clients,
                lanes: r.lanes,
                workers: r.workers,
                available_parallelism: host,
                completed: r.completed,
                elapsed_ms: r.elapsed_ms,
                txn_per_sec: r.txn_per_sec,
                txn_per_sec_spread: spread as u64,
                speedup_x100,
                efficiency_x100: speedup_x100 / effective.max(1),
                required_speedup_x100: required,
                scaling_ok: speedup_x100 >= required,
                steals: r.steals,
                tasks: r.tasks,
                p50_us: r.p50_us,
                p99_us: r.p99_us,
                conservation_violations: r.conservation_violations,
                evidence_loss: r.evidence_loss,
                deterministic_vs_serial: rounds
                    .iter()
                    .all(|r| e10_non_timing_fingerprint(r) == serial_fp),
            }
        })
        .collect()
}

// --------------------------------------------------------------- E14 ----

/// One row of the E14 transport comparison: the same protocol workload —
/// a sustained run of evidence transactions plus E3's five §5 attacks
/// under the full protocol — executed on one [`Transport`] backend. The gates
/// (`conservation_violations`, `evidence_loss`, `attacks_ok`) are
/// computed by the measurement code itself, E12/E13-style, so
/// `experiments --check` reads them from the JSONL.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Backend name: "simnet", "channel" or "tcp".
    pub backend: &'static str,
    /// Evidence transactions attempted in the throughput lane.
    pub txns: u64,
    /// Transactions that completed in Normal mode.
    pub completed: u64,
    /// Host wall-clock for the throughput lane, in milliseconds.
    pub elapsed_ms: u64,
    /// Wire messages delivered per host-second.
    pub msgs_per_sec: u64,
    /// Evidence transactions settled per host-second.
    pub txn_per_sec: u64,
    /// `txn_per_sec` normalised by the host's advertised core count. The
    /// lane itself is single-threaded; the normalisation only makes rows
    /// from different hosts comparable.
    pub txn_per_sec_per_core: u64,
    /// The host's advertised core count.
    pub available_parallelism: u64,
    /// Backend counter: message copies sent.
    pub sent: u64,
    /// Backend counter: copies delivered.
    pub delivered: u64,
    /// Backend counter: copies dropped (counted, never vanished).
    pub dropped: u64,
    /// Backend counter: copies duplicated on the wire.
    pub duplicated: u64,
    /// Rows violating `delivered + dropped == sent + duplicated`
    /// (must be 0).
    pub conservation_violations: u64,
    /// Transactions that finished without both NRO and NRR (must be 0 on
    /// a healthy wire).
    pub evidence_loss: u64,
    /// §5 attacks the protocol blocked on this backend.
    pub attacks_rejected: u64,
    /// §5 attacks run (5: MITM, reflection, interleaving, replay,
    /// timeliness).
    pub attacks_expected: u64,
    /// `attacks_rejected == attacks_expected`.
    pub attacks_ok: bool,
    /// True when the backend could not be brought up (e.g. loopback bind
    /// refused in a sandbox) and the row carries no measurements.
    pub skipped: bool,
}

/// A row for a backend that could not be brought up.
fn e14_skipped(backend: &'static str, host: u64) -> E14Row {
    E14Row {
        backend,
        txns: 0,
        completed: 0,
        elapsed_ms: 0,
        msgs_per_sec: 0,
        txn_per_sec: 0,
        txn_per_sec_per_core: 0,
        available_parallelism: host,
        sent: 0,
        delivered: 0,
        dropped: 0,
        duplicated: 0,
        conservation_violations: 0,
        evidence_loss: 0,
        attacks_rejected: 0,
        attacks_expected: 0,
        attacks_ok: true,
        skipped: true,
    }
}

/// Runs the full E14 workload — throughput lane plus the §5 attack suite —
/// on one backend. `mk` constructs a fresh wire of that backend for the
/// lane and for every attack (returning `None` marks the row skipped, e.g.
/// when the loopback bind is refused).
fn e14_run_backend<T: Transport>(
    backend: &'static str,
    txns: usize,
    seed: u64,
    mk: &mut dyn FnMut() -> Option<T>,
) -> E14Row {
    let host = tpnr_par::available_parallelism() as u64;
    let Some(net) = mk() else {
        return e14_skipped(backend, host);
    };

    // Throughput lane: sequential evidence transactions on a healthy wire.
    // On a live socket the scheduler waits out timer deadlines in host
    // time, so the response timeout is 400 ms rather than the default 30 s
    // — still orders of magnitude above loopback RTT.
    let cfg = ProtocolConfig::builder().response_timeout(SimDuration::from_millis(400)).build();
    let mut w = GenericWorld::with_transport(net, seed, cfg);
    let payload = vec![0x5a_u8; 256];
    let sw = HostStopwatch::start();
    let mut completed = 0u64;
    let mut evidence_loss = 0u64;
    for i in 0..txns {
        let key = format!("e14/{i}");
        let r = w.upload(key.as_bytes(), payload.clone(), TimeoutStrategy::AbortFirst);
        if r.completed() {
            completed += 1;
        }
        if r.nro.is_none() || r.nrr.is_none() {
            evidence_loss += 1;
        }
    }
    let elapsed = sw.elapsed_secs_f64().max(1e-9);
    let s = w.net().stats();
    let conservation_violations = u64::from(s.delivered + s.dropped != s.sent + s.duplicated);

    // The §5 attack suite (E3's, under the full protocol), each attack on
    // a fresh wire of the same backend.
    let attacks = AttackKind::all();
    let attacks_expected = attacks.len() as u64;
    let mut attacks_rejected = 0u64;
    for attack in attacks {
        if let Some(net) = mk() {
            if tpnr_attacks::run_on(attack, Ablation::None, net).blocked {
                attacks_rejected += 1;
            }
        }
    }

    let txn_per_sec = (completed as f64 / elapsed) as u64;
    E14Row {
        backend,
        txns: txns as u64,
        completed,
        elapsed_ms: (elapsed * 1000.0) as u64,
        msgs_per_sec: (s.delivered as f64 / elapsed) as u64,
        txn_per_sec,
        txn_per_sec_per_core: txn_per_sec / host.max(1),
        available_parallelism: host,
        sent: s.sent,
        delivered: s.delivered,
        dropped: s.dropped,
        duplicated: s.duplicated,
        conservation_violations,
        evidence_loss,
        attacks_rejected,
        attacks_expected,
        attacks_ok: attacks_rejected == attacks_expected,
        skipped: false,
    }
}

/// E14: the same protocol code on every transport backend. Runs the
/// throughput lane and E3's five §5 attacks on the deterministic
/// simulator, the in-process channel wire and real loopback TCP sockets,
/// at matched load, with zero per-backend protocol code. The TCP row is
/// marked `skipped` (rather than failing the experiment) when the host
/// refuses the loopback bind.
pub fn e14_backend_comparison(seed: u64, quick: bool) -> Vec<E14Row> {
    let txns = if quick { 40 } else { 400 };
    vec![
        e14_run_backend("simnet", txns, seed, &mut || Some(SimNet::new(seed))),
        e14_run_backend("channel", txns, seed, &mut || Some(ChannelNet::new())),
        e14_run_backend("tcp", txns, seed, &mut || TcpNet::new().ok()),
    ]
}

// ---------------------------------------------------------------- X1 ----

/// One X1 row: what one single-chunk audit of a stored object costs next
/// to the download-and-compare it replaces.
#[derive(Debug, Clone)]
pub struct X1Row {
    /// Object size in bytes.
    pub size: u64,
    /// Median host µs of one audit: the provider's answer and the client's
    /// check against the root in its upload receipt.
    pub audit_us: f64,
    /// Median host µs of one download checked against the upload receipt.
    pub download_us: f64,
    /// `audit_us` as a share of `download_us`, in percent.
    pub audit_time_pct: f64,
    /// Bytes of one audit answer: the chunk and its Merkle path.
    pub proof_bytes: u64,
    /// The honest provider's answer verifies.
    pub audit_ok: bool,
    /// After one stored byte flips, the answer is rejected.
    pub tamper_detected: bool,
}

/// X1: a single-chunk Merkle audit (4 KiB chunks) against a full
/// download-and-compare, at 256 KiB and 2 MiB, each timed over `rounds`.
pub fn x1_audit_vs_download(rounds: usize) -> Vec<X1Row> {
    use tpnr_core::chunked::{AuditChallenge, AuditError, AuditResponse};

    let cfg = ProtocolConfig::full().with_merkle(4096);
    let challenge = AuditChallenge { object: b"obj".to_vec(), chunk_index: 3 };
    let audit = |w: &World, up| -> Result<AuditResponse, AuditError> {
        let resp = w.provider.answer_audit(&cfg, &challenge)?;
        w.client.verify_audit(&cfg, up, &resp).map(|()| resp)
    };
    [1 << 18, 1 << 21]
        .into_iter()
        .map(|size| {
            let mut w = World::new(77, cfg.clone());
            let up = w.upload(b"obj", vec![0xab; size], TimeoutStrategy::AbortFirst).txn_id;
            let audit_us = host_us(rounds, || audit(&w, up));
            let download_us = host_us(rounds, || {
                let down = w.download(b"obj", TimeoutStrategy::AbortFirst).txn_id;
                w.client.verify_download_against_upload(up, down)
            });
            let answer = audit(&w, up);
            let proof_bytes = answer.as_ref().map_or(0, |r| {
                r.chunk.len()
                    + r.proof.siblings.iter().flatten().map(|(_, h)| h.len()).sum::<usize>()
            });
            let mut stored = w.provider.peek_storage(b"obj").expect("uploaded").to_vec();
            stored[size / 2] ^= 1;
            w.provider.tamper_storage(b"obj", stored);
            X1Row {
                size: size as u64,
                audit_us,
                download_us,
                audit_time_pct: 100.0 * audit_us / download_us,
                proof_bytes: proof_bytes as u64,
                audit_ok: answer.is_ok(),
                tamper_detected: audit(&w, up).err() == Some(AuditError::ProofRejected),
            }
        })
        .collect()
}

// --------------------------------------------------------- platforms ----

/// One F2–F4 / Table 1 row: one run of a platform's security flow.
#[derive(Debug, Clone)]
pub struct PlatformRow {
    /// "azure-table1" (build, sign and verify the Table 1 block PUT),
    /// "azure-put-get", "aws-import" or "gae-signed-put".
    pub flow: &'static str,
    /// Payload bytes per run.
    pub size: u64,
    /// Median host µs per run.
    pub us: f64,
    /// Every run verified: the request signature checked, the GET returned
    /// the PUT body, the import manifest validated, the SDC authorised.
    pub verified: bool,
}

/// F2–F4 / Table 1: the Azure signed-REST flows (Figure 3, Table 1), AWS
/// Import/Export (Figure 2) and the GAE SDC signed request (Figure 4),
/// each timed over `rounds`.
pub fn platform_flows(rounds: usize) -> Vec<PlatformRow> {
    use tpnr_crypto::{ChaChaRng, RsaKeyPair};
    use tpnr_storage::aws::{self, AwsService};
    use tpnr_storage::azure::AzureService;
    use tpnr_storage::gae::{GaeService, SignedRequest};
    use tpnr_storage::rest::{Method, RestRequest};

    let mut rows = Vec::new();
    let mut run = |flow, size: usize, f: &mut dyn FnMut() -> bool| {
        let mut verified = true;
        let us = host_us(rounds, || verified &= f());
        rows.push(PlatformRow { flow, size: size as u64, us, verified });
    };
    let mut azure = AzureService::new();
    let acct = azure.create_account("jerry", &mut ChaChaRng::seed_from_u64(1));
    let table1 = b"block contents".to_vec();
    run("azure-table1", table1.len(), &mut || {
        let resource = "/jerry/pics/photo.jpg?comp=block&blockid=blockid1";
        RestRequest::new(Method::Put, resource, table1.clone(), "Sun, 13 Sept 2009 18:30:25 GMT")
            .with_content_md5()
            .sign(&acct.name, &acct.key)
            .verify_signature(&acct.name, &acct.key)
    });
    let aws_user = RsaKeyPair::insecure_test_key(5);
    let mut i = 0u64;
    for size in [1 << 10, 1 << 20] {
        let body = vec![0x42u8; size];
        run("azure-put-get", size, &mut || {
            i += 1;
            let key = format!("/jerry/obj-{i}");
            let put = RestRequest::new(Method::Put, &key, body.clone(), "d").with_content_md5();
            let get = RestRequest::new(Method::Get, &key, Vec::new(), "d");
            let stored = azure.handle(&put.sign(&acct.name, &acct.key), SimTime::ZERO).is_ok();
            let got = azure.handle(&get.sign(&acct.name, &acct.key), SimTime::ZERO);
            stored && got.is_ok_and(|r| r.body == body)
        });
        run("aws-import", size, &mut || {
            i += 1;
            let mut aws = AwsService::new();
            aws.register_user("AKIAUSER", aws_user.public.clone());
            aws::prepare_import(&aws_user, "AKIAUSER", "dev-1", "bucket/backup", i, body.clone())
                .is_ok_and(|(manifest, device)| {
                    aws.process_import(&manifest, &device, SimTime::ZERO).is_ok()
                })
        });
    }
    let viewer = RsaKeyPair::insecure_test_key(6);
    let mut gae = GaeService::new();
    gae.register_identity("alice", viewer.public.clone());
    gae.grant("alice", "apps/");
    let entity = b"entity bytes";
    run("gae-signed-put", entity.len(), &mut || {
        i += 1;
        SignedRequest::create(&viewer, "owner", "alice", 1, "app", "ck", i, "tok", "apps/data")
            .is_ok_and(|req| gae.put(&req, entity, SimTime::ZERO).is_ok())
    });
    rows
}

// ------------------------------------------------------------- trace ----

/// Runs a small faulted multi-client scenario and exports its complete
/// observability stream (events + metrics summary) as JSONL. Feeds
/// `experiments --trace-jsonl`; deterministic in `seed`.
pub fn trace_jsonl(seed: u64) -> String {
    use tpnr_core::multi::MultiWorld;

    let mut w = MultiWorld::new(seed, ProtocolConfig::full(), 8);
    w.set_all_links(LinkConfig {
        latency: SimDuration::from_millis(20),
        drop_prob: 0.2,
        dup_prob: 0.1,
        ..Default::default()
    });
    for i in 0..8 {
        let key = format!("user{i}/obj").into_bytes();
        w.start_upload(i, &key, vec![i as u8; 64], TimeoutStrategy::ResolveImmediately);
    }
    w.settle();
    crate::report::render_trace_jsonl(w.obs.events(), &w.obs.metrics, w.net())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_no_evidence_less_limbo_at_any_crash_probability() {
        let rows = e8_chaos(&[0, 300], 8);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.completed_full_evidence + r.arbitrable_terminal + r.limbo, r.trials);
            assert_eq!(r.limbo, 0, "p={}: evidence-less limbo", r.crash_prob_permille);
        }
        // No faults → no fault machinery engaged at all.
        assert_eq!(rows[0].crashes, 0);
        assert_eq!(rows[0].restarts, 0);
        assert_eq!(rows[0].trials, rows[0].completed_full_evidence);
        // Heavy chaos → crashes actually happen and recovery actually runs.
        assert!(rows[1].crashes > 0, "p=0.3 must inject crashes: {:?}", rows[1]);
        assert_eq!(rows[1].crashes, rows[1].restarts, "every crash restarts");
        assert!(rows[1].snapshot_bytes > 0, "restarts imply durable snapshots");
    }

    #[test]
    fn e8_is_deterministic() {
        let a = e8_chaos(&[200], 6);
        let b = e8_chaos(&[200], 6);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn e10_output_is_worker_count_invariant() {
        // The pool's determinism claim, end to end: the same load on a
        // 1-worker pool and a 4-worker pool (3 workers claiming 3 ranges
        // in any order) must produce byte-identical non-timing output.
        // 520 clients → 3 lanes, one ragged.
        let serial = e10_scale_on(&tpnr_par::Pool::new(1), &[520], 7);
        let stolen = e10_scale_on(&tpnr_par::Pool::new(4), &[520], 7);
        let fingerprint = e10_non_timing_fingerprint(&serial[0]);
        assert_eq!(fingerprint.split('|').count(), 17, "{fingerprint}");
        assert_eq!(fingerprint, e10_non_timing_fingerprint(&stolen[0]));
        assert_eq!(serial[0].workers, 1);
        assert_eq!(stolen[0].workers, 4);
    }

    #[test]
    fn e10_latency_percentiles_are_not_degenerate() {
        // Per-client link jitter must spread the settle-latency
        // distribution: the old constant-link scenario had p50 == p99 ==
        // 50000 in every row.
        let rows = e10_scale(&[300], 7);
        let r = &rows[0];
        assert!(r.p50_us > 0 && r.p99_us > r.p50_us, "p50={} p99={}", r.p50_us, r.p99_us);
        assert_eq!(r.completed, r.clients, "jittered links still settle every txn");
        assert_eq!(r.conservation_violations, 0);
        assert_eq!(r.evidence_loss, 0);
    }

    #[test]
    fn e13_rows_are_deterministic_and_conservative() {
        let rows = e13_worker_sweep(300, 7);
        assert!(rows.len() >= 4, "ladder covers 1, 2, 4, 8 workers");
        assert_eq!(rows[0].workers, 1);
        assert_eq!(rows[0].speedup_x100, 100, "serial row is its own baseline");
        for r in &rows {
            assert_eq!(r.clients, 300);
            assert!(r.deterministic_vs_serial, "workers={}: output drifted", r.workers);
            assert_eq!(r.conservation_violations, 0);
            assert_eq!(r.evidence_loss, 0);
            assert!(r.tasks > 0);
            assert!(r.p99_us >= r.p50_us);
        }
        let ws: Vec<u64> = rows.iter().map(|r| r.workers).collect();
        let mut sorted = ws.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ws, sorted, "ladder ascends without duplicates");
    }

    #[test]
    fn e13_one_dipped_round_does_not_fail_a_row() {
        let base = e10_scale_on(&tpnr_par::Pool::new(1), &[40], 7).remove(0);
        let run = |workers, txn_per_sec| E10Row { workers, txn_per_sec, ..base.clone() };
        let serial = vec![run(1, 1000), run(1, 1010), run(1, 990)];
        // One 2-worker round dips to 1.04x serial, as a slow single shot
        // did before the ladder ran in rounds; the median round clears 1.4x.
        let rows = e13_rows(2, &[serial.clone(), vec![run(2, 1600), run(2, 1040), run(2, 1700)]]);
        assert_eq!((rows[0].txn_per_sec, rows[0].speedup_x100), (1000, 100));
        assert_eq!((rows[1].txn_per_sec, rows[1].txn_per_sec_spread), (1600, 660));
        assert_eq!((rows[1].speedup_x100, rows[1].required_speedup_x100), (160, 140));
        assert!(rows[1].scaling_ok && rows[1].deterministic_vs_serial);
        // Two dipped rounds of three move the median, and the row fails.
        let rows = e13_rows(2, &[serial.clone(), vec![run(2, 1040), run(2, 1050), run(2, 1700)]]);
        assert_eq!(rows[1].speedup_x100, 105);
        assert!(!rows[1].scaling_ok);
        // One round whose output drifts fails determinism, however fast.
        let drifted = E10Row { completed: base.completed - 1, ..run(2, 1650) };
        let rows = e13_rows(2, &[serial, vec![run(2, 1600), drifted, run(2, 1700)]]);
        assert!(rows[1].scaling_ok && !rows[1].deterministic_vs_serial);
    }

    #[test]
    fn e1_shapes_match_the_paper() {
        let rows = e1_vulnerability_matrix(3);
        assert_eq!(rows.len(), 8); // (3 platforms + TPNR) × 2 tampers
                                   // Consistent tampering is never detected by any platform…
        for r in rows.iter().filter(|r| r.tamper == "consistent replace") {
            if r.system == "TPNR" {
                assert!(r.detected && r.attributable, "TPNR closes the gap");
            } else {
                assert!(!r.detected, "{} should miss consistent tamper", r.system);
                assert!(!r.attributable);
            }
        }
        // Naive tamper: only Azure's stored-MD5 lets the client notice.
        let naive: Vec<_> = rows.iter().filter(|r| r.tamper == "naive bit-flip").collect();
        for r in &naive {
            match r.system.as_str() {
                "Azure" | "TPNR" => assert!(r.detected, "{}", r.system),
                _ => assert!(!r.detected, "{}", r.system),
            }
            if r.system != "TPNR" {
                assert!(!r.attributable, "no platform can attribute fault");
            }
        }
    }

    #[test]
    fn e2_tpnr_always_wins() {
        let rows = e2_protocol_comparison(&[20, 100], &[1024]);
        for pair in rows.chunks(2) {
            let (tpnr, base) = (&pair[0], &pair[1]);
            assert_eq!(tpnr.protocol, "TPNR");
            assert_eq!(tpnr.messages, 2);
            assert!(base.messages >= 4);
            assert!(tpnr.latency_ms < base.latency_ms);
            assert!(!tpnr.ttp_used && base.ttp_used);
        }
    }

    #[test]
    fn e3_full_protocol_blocks_everything() {
        let rows = e3_attack_matrix();
        for r in rows.iter().filter(|r| r.ablation == tpnr_core::config::Ablation::None) {
            assert!(r.blocked, "{:?}: {}", r.attack, r.detail);
        }
        // And the toggleable defences are load-bearing.
        for r in &rows {
            if matches!(
                r.attack,
                tpnr_attacks::AttackKind::Mitm
                    | tpnr_attacks::AttackKind::Replay
                    | tpnr_attacks::AttackKind::Timeliness
            ) && r.ablation != tpnr_core::config::Ablation::None
            {
                assert!(!r.blocked, "{:?} vs {:?} should succeed", r.attack, r.ablation);
            }
        }
    }

    #[test]
    fn e4_never_copies_the_payload() {
        let rows = e4_evidence_cost(&[1 << 10], &[HashAlg::Md5, HashAlg::Sha256]);
        for r in &rows {
            assert_eq!(r.deep_copies, 0, "evidence loop must be copy-free");
            assert_eq!(r.deep_copy_bytes, 0);
        }
    }

    #[test]
    fn e4_transport_probe_reports_a_copy_free_upload() {
        let probe = e4_transport_copies(1 << 16);
        assert_eq!((probe.upload_deep_copies, probe.upload_deep_copy_bytes), (0, 0));
    }

    #[test]
    fn e5_overhead_is_trivial() {
        let rows = e5_shipping_overhead(&[24, 72, 120]);
        for r in &rows {
            assert!(
                r.overhead_fraction < 0.001,
                "protocol should be <0.1% of shipping time, got {}",
                r.overhead_fraction
            );
        }
    }

    #[test]
    fn e6_ttp_load_grows_with_faults_and_baseline_is_always_one() {
        let rows = e6_ttp_load(&[0.0, 0.5], 10);
        assert_eq!(rows[0].tpnr_ttp_fraction, 0.0, "no faults, no TTP");
        assert!(rows[1].tpnr_ttp_fraction > 0.0);
        assert!(rows.iter().all(|r| r.baseline_ttp_fraction == 1.0));
        assert!(rows.iter().all(|r| r.tpnr_completed_fraction == 1.0));
    }

    #[test]
    fn e7_matches_section3_analysis() {
        let rows = e7_bridge_schemes(11);
        let by = |k: SchemeKind| rows.iter().find(|r| r.scheme == k).unwrap().clone();
        assert!(by(SchemeKind::Plain).proves_alone);
        assert!(!by(SchemeKind::SksOnly).proves_alone);
        assert!(by(SchemeKind::SksOnly).proves_with_cooperation);
        assert!(!by(SchemeKind::SksOnly).attributable);
        assert!(by(SchemeKind::TacOnly).proves_alone);
        assert!(by(SchemeKind::TacAndSks).proves_alone);
    }
}
