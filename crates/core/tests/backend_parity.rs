//! Backend parity (E14 satellite): the protocol state machines, fault
//! plans and invariant checks must behave identically on every
//! [`Transport`] backend — the deterministic simulator and the in-process
//! channel wire — with zero per-backend protocol code. Each scenario below
//! is written once against `GenericWorld<T>` or `GenericMultiWorld<T>` and
//! instantiated per backend by the `backend_parity!` template macro.
//!
//! The closing proptest pins the redesign's zero-cost claim: a `SimNet`
//! driven through `dyn Transport` is byte-identical to the same `SimNet`
//! driven through its pre-redesign inherent `step()` loop.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tpnr_core::fault::{CrashPoint, FaultPlan};
use tpnr_core::prelude::*;
use tpnr_core::principal::Principal;
use tpnr_net::sim::{Action, LinkConfig, SimNet};
use tpnr_net::tcp::ChannelNet;
use tpnr_net::time::SimDuration;
use tpnr_net::Bytes;

/// Every scenario ends by checking the backend's conservation law: each
/// sent copy (plus duplicates minted on the wire) is eventually delivered
/// or dropped — nothing vanishes unaccounted on any backend.
fn assert_conserved<T: Transport>(w: &GenericWorld<T>) {
    let s = w.net().stats();
    assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated, "conservation violated: {s:?}");
}

fn normal_upload_two_messages<T: Transport>(net: T) {
    let mut w = GenericWorld::with_transport(net, 5, ProtocolConfig::full());
    let r = w.upload(b"backup/q3", b"financial data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    assert_eq!(r.report.messages, 2, "Normal mode is a two-step exchange on every wire");
    assert!(!r.report.ttp_used, "the TTP stays off-line in Normal mode");
    assert!(r.arbitrable());
    assert_conserved(&w);
}

fn crash_recovery_terminates_arbitrable<T: Transport>(net: T) {
    // Bob crashes the instant Msg1 arrives; Alice's abort sub-protocol
    // settles the session and she keeps arbitrable evidence. The crash,
    // restart and outage window all run through scheduler timers and
    // transport-level drops, so the scenario is backend-neutral.
    let cfg = ProtocolConfig::builder()
        .fault_plan(FaultPlan::none().with_crash_on_msg("bob", "Transfer", CrashPoint::Before))
        .build();
    let mut w = GenericWorld::with_transport(net, 41, cfg);
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Aborted);
    assert!(r.arbitrable(), "aborted session must stay arbitrable");
    assert!(r.nrr.is_some(), "Bob's signed abort acknowledgement survives his crash");
    let f = w.fault_counters();
    assert_eq!(f.crashes, 1);
    assert_eq!(f.restarts, 1);
    assert_eq!(w.provider.party.restart_count(), 1);
    assert_conserved(&w);
}

fn timeliness_timer_drives_resolve<T: Transport>(net: T) {
    // A fully silent provider: only the client's response timer can move
    // the session forward. Timer scheduling and clock advancement are the
    // scheduler's job, so the deadline fires identically on every backend.
    let mut w = GenericWorld::with_transport(net, 6, ProtocolConfig::full());
    w.provider.behavior.respond_transfers = false;
    w.provider.behavior.respond_aborts = false;
    w.provider.behavior.respond_resolves = false;
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Failed);
    assert!(r.report.ttp_used, "resolve escalated to the TTP");
    assert!(r.arbitrable(), "failure is declared, never limbo");
    assert_eq!(w.ttp.stats.failures_declared, 1);
    assert_conserved(&w);
}

fn seq_no_reuse_rejected<T: Transport>(net: T) {
    // Wiretap the client's transfer, then replay the captured bytes: the
    // per-(txn, sender) replay window must refuse the stale sequence
    // number on every backend (the §5.4 defence is wire-independent).
    let mut w = GenericWorld::with_transport(net, 8, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    let tape: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let tap = tape.clone();
    w.net_mut().set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
        if src == a && dst == b {
            tap.lock().unwrap().push(payload.to_vec());
        }
        Action::Deliver
    }));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Completed);
    w.net_mut().clear_interceptor();

    let replay = tape.lock().unwrap()[0].clone();
    w.net_mut().send_tagged(a, b, Bytes::from(replay), None);
    w.settle();
    assert_eq!(w.obs.metrics.rejected, 1, "replayed transfer must be rejected");
    assert_eq!(w.obs.metrics.rejected_by.get("stale-sequence"), Some(&1));
    assert_conserved(&w);
}

fn adversarial_drop_recovers_via_ttp<T: Transport>(net: T) {
    // Interceptor-driven loss (the §5 attacker owns the wire): every
    // provider→client receipt is eaten, so the client resolves through
    // the TTP. Exercises interceptor drops + retries off the simulator.
    let mut w = GenericWorld::with_transport(net, 9, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_interceptor(Box::new(move |src, dst, _payload: &[u8], _t| {
        if src == b && dst == a {
            Action::Drop
        } else {
            Action::Deliver
        }
    }));
    let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Completed, "TTP relays the receipt around the cut");
    assert!(r.report.ttp_used);
    assert!(r.nrr.is_some());
    assert!(w.net().stats().dropped >= 1, "the cut link shows up as counted drops");
    assert_conserved(&w);
}

fn tampered_transfer_is_refused_and_settles<T: Transport>(net: T) {
    // The §5 attacker flips the last byte of Alice's transfer in flight.
    // Bob refuses the broken evidence, so the upload cannot complete, and
    // the session still ends terminal with Alice's evidence intact.
    let mut w = GenericWorld::with_transport(net, 10, ProtocolConfig::full());
    let (a, b) = (w.alice_node, w.bob_node);
    let mut tampered = false;
    w.net_mut().set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
        if (src, dst) != (a, b) || std::mem::replace(&mut tampered, true) {
            return Action::Deliver;
        }
        let mut flipped = payload.to_vec();
        if let Some(last) = flipped.last_mut() {
            *last ^= 0xff;
        }
        Action::Modify(flipped)
    }));
    let r = w.upload(b"k", b"true data".to_vec(), TimeoutStrategy::AbortFirst);
    assert!(!r.completed(), "a tampered transfer must not complete the upload");
    assert!(r.arbitrable(), "the session ends terminal with Alice's NRO: {:?}", r.outcome);
    assert_eq!(w.provider.actor_stats.rejected, 1, "Bob refused the tampered transfer");
    assert_eq!(w.obs.metrics.rejected_by.get("evidence"), Some(&1), "and it is on the record");
    assert_conserved(&w);
}

fn fleet_eviction_rehydrates_evidence<T: Transport>(net: T) {
    // Four clients share the provider over a few upload rounds with the
    // smallest hot set, so most settled transactions are evicted to the
    // sealed archive. An arbitrator must still get every evicted
    // transaction's evidence back, with both signatures intact, on every
    // wire.
    let cfg = ProtocolConfig::full();
    let clients: Vec<Principal> =
        (0..4).map(|i| Principal::test(&format!("client-{i}"), 70 + i)).collect();
    let (bob, ttp) = (Principal::test("bob", 80), Principal::test("ttp", 81));
    let mut w = GenericMultiWorld::with_principals_on(net, 12, cfg.clone(), &clients, &bob, &ttp);
    w.set_archive_capacity(1);
    let mut handles = Vec::new();
    for round in 0..6u8 {
        for i in 0..4 {
            let key = format!("c{i}/r{round}");
            let data = vec![round; 32];
            handles.push(w.start_upload(i, key.as_bytes(), data, TimeoutStrategy::AbortFirst));
        }
        assert_eq!(w.settle().outcome, SettleOutcome::Quiescent);
    }
    let evicted = w.archive_stats().evicted;
    assert!(evicted > 0, "eviction must engage with one resident txn per shard");
    let mut audited = 0;
    for h in &handles {
        assert_eq!(w.state_of(*h), Some(TxnState::Completed), "client {}", h.client);
        if w.clients[h.client].txn(h.txn_id).is_some() {
            continue;
        }
        let bundle = w.rehydrate_evidence(h.txn_id).expect("evicted bundle rehydrates");
        assert!(bundle.structurally_sound());
        let nro = bundle.get("client-nro").expect("NRO archived");
        nro.reverify(&cfg, clients[h.client].public()).expect("NRO re-verifies");
        let nrr = bundle.get("client-nrr").expect("NRR archived");
        nrr.reverify(&cfg, bob.public()).expect("NRR re-verifies");
        audited += 1;
    }
    assert_eq!(audited, evicted, "every evicted transaction was audited");
    let s = w.net().stats();
    assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated, "conservation violated: {s:?}");
}

/// Instantiates the whole scenario suite against one backend constructor.
macro_rules! backend_parity {
    ($backend:ident, $mk:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn normal_upload_two_messages() {
                super::normal_upload_two_messages($mk);
            }

            #[test]
            fn crash_recovery_terminates_arbitrable() {
                super::crash_recovery_terminates_arbitrable($mk);
            }

            #[test]
            fn timeliness_timer_drives_resolve() {
                super::timeliness_timer_drives_resolve($mk);
            }

            #[test]
            fn seq_no_reuse_rejected() {
                super::seq_no_reuse_rejected($mk);
            }

            #[test]
            fn adversarial_drop_recovers_via_ttp() {
                super::adversarial_drop_recovers_via_ttp($mk);
            }

            #[test]
            fn tampered_transfer_is_refused_and_settles() {
                super::tampered_transfer_is_refused_and_settles($mk);
            }

            #[test]
            fn fleet_eviction_rehydrates_evidence() {
                super::fleet_eviction_rehydrates_evidence($mk);
            }
        }
    };
}

backend_parity!(on_simnet, SimNet::new(0xE14));
backend_parity!(on_channel, ChannelNet::default());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The trait seam is observation-free: a SimNet driven through
    // `dyn Transport` (the scheduler's view) delivers the same envelopes
    // in the same order at the same instants with the same final stats as
    // the same SimNet driven through its pre-redesign inherent step()
    // loop — across seeds, latencies, jitter, loss and duplication.
    #[test]
    fn simnet_behind_transport_is_byte_identical(
        seed in any::<u64>(),
        n in 1usize..24,
        latency_ms in 0u64..50,
        jitter_ms in 0u64..20,
        drop_pct in 0u64..40,
        dup_pct in 0u64..30,
    ) {
        let link = LinkConfig {
            latency: SimDuration::from_millis(latency_ms),
            jitter: SimDuration::from_millis(jitter_ms),
            drop_prob: drop_pct as f64 / 100.0,
            dup_prob: dup_pct as f64 / 100.0,
        };
        let seed_traffic = |net: &mut SimNet| {
            let a = net.register("a");
            let b = net.register("b");
            net.set_default_link(link);
            for i in 0..n {
                let payload = vec![i as u8; i % 7 + 1];
                if i % 3 == 0 {
                    net.send_tagged(a, b, payload, Some(i as u64));
                } else {
                    net.send(a, b, payload);
                }
            }
        };

        // Pre-redesign view: the inherent step() loop.
        let mut direct = SimNet::new(seed);
        seed_traffic(&mut direct);
        let mut direct_envs = Vec::new();
        while direct.in_flight() {
            if let Some(env) = direct.step() {
                direct_envs.push((env.src, env.dst, env.delivered_at, env.txn, env.payload.to_vec()));
            }
        }

        // Post-redesign view: the same net driven through dyn Transport.
        let mut behind = SimNet::new(seed);
        seed_traffic(&mut behind);
        let tr: &mut dyn Transport = &mut behind;
        let mut trait_envs = Vec::new();
        while let Some(at) = tr.next_deliverable_at() {
            for env in tr.poll_deliverable(at) {
                trait_envs.push((env.src, env.dst, env.delivered_at, env.txn, env.payload.to_vec()));
            }
        }

        prop_assert_eq!(&direct_envs, &trait_envs);
        let (a, b) = (direct.stats(), behind.stats());
        prop_assert_eq!(a.sent, b.sent);
        prop_assert_eq!(a.delivered, b.delivered);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.duplicated, b.duplicated);
        prop_assert_eq!(a.bytes_sent, b.bytes_sent);
        prop_assert_eq!(direct.now(), Transport::now(&behind));
        // Both views obey conservation.
        prop_assert_eq!(a.delivered + a.dropped, a.sent + a.duplicated);
    }
}
