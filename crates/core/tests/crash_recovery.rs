//! Crash-recovery invariants (DESIGN.md §4.11): crashed actors restart
//! from durable snapshots and the protocol still terminates in a state
//! that is either fully evidenced or arbitrable; sequence numbers are
//! never reused across a restart; fault-injected runs are deterministic.

use proptest::prelude::*;
use tpnr_core::fault::{CrashPoint, FaultPlan, RetryPolicy, SEQ_RECOVERY_SKIP};
use tpnr_core::prelude::*;
use tpnr_core::principal::PrincipalId;
use tpnr_core::session::Validator;
use tpnr_net::sim::LinkConfig;
use tpnr_net::time::SimDuration;

#[test]
fn bob_crash_on_transfer_aborts_with_arbitrable_evidence() {
    // Bob crashes the instant Msg1 arrives: the transfer is lost before
    // processing. Alice's abort sub-protocol must settle the session, and
    // she must end the run holding evidence she can take to arbitration.
    let cfg = ProtocolConfig::builder()
        .fault_plan(FaultPlan::none().with_crash_on_msg("bob", "Transfer", CrashPoint::Before))
        .build();
    let mut w = World::new(41, cfg);
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(r.outcome, TxnState::Aborted);
    assert!(r.arbitrable(), "aborted session must stay arbitrable");
    assert!(r.nrr.is_some(), "Bob's signed abort acknowledgement survives his crash");
    let f = w.fault_counters();
    assert_eq!(f.crashes, 1);
    assert_eq!(f.restarts, 1);
    assert_eq!(w.provider.party.restart_count(), 1);
}

#[test]
fn bob_crash_after_transfer_keeps_durable_state() {
    // CrashPoint::After: Bob processes Msg1 and force-syncs before his
    // receipt hits the wire, then dies. After restart his archive still
    // holds the transaction, so the resolve path can complete the session.
    let cfg = ProtocolConfig::builder()
        .fault_plan(FaultPlan::none().with_crash_on_msg("bob", "Transfer", CrashPoint::After))
        .build();
    let mut w = World::new(42, cfg);
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert!(r.outcome.is_terminal());
    assert!(r.arbitrable());
    // The write-ahead rule: Bob's pre-crash processing is durable.
    assert_eq!(w.provider.peek_storage(b"obj"), Some(&b"data"[..]));
    assert_eq!(w.fault_counters().crashes, 1);
}

#[test]
fn ttp_crash_mid_resolve_is_retried_with_backoff_until_converged() {
    // Receipts are lost, so Alice must resolve through the TTP — which
    // crashes on her first Resolve. Exponential backoff retries must
    // converge once the TTP is back up.
    let cfg = ProtocolConfig::builder()
        .retry_policy(RetryPolicy::exponential(8))
        .fault_plan(FaultPlan::none().with_crash_on_msg("ttp", "Resolve", CrashPoint::Before))
        .build();
    let mut w = World::new(43, cfg);
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, tpnr_net::sim::LinkConfig { drop_prob: 1.0, ..Default::default() });
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.nrr.is_some(), "resolve recovered the receipt Alice was owed");
    assert!(r.report.ttp_used);
    let f = w.fault_counters();
    assert_eq!(f.crashes, 1);
    assert!(f.retries >= 1, "the lost Resolve must be re-sent: {f:?}");
    assert_eq!(f.gave_up, 0);
    assert_eq!(w.ttp.party.restart_count(), 1);
}

#[test]
fn ttp_outage_window_delays_but_does_not_break_resolve() {
    // The outage fits inside `message_time_limit` (120 s), so every
    // message of the recovery is fresh by its own limit. This window
    // exercises the recovery path; the next two tests outlast the limit
    // and Alice's retry budget.
    let outage_start = tpnr_net::time::SimTime::ZERO.after(SimDuration::from_secs(20));
    let outage_end = tpnr_net::time::SimTime::ZERO.after(SimDuration::from_secs(60));
    let cfg = ProtocolConfig::builder()
        .retry_policy(RetryPolicy::exponential(8))
        .fault_plan(FaultPlan::none().with_ttp_outage(outage_start, outage_end))
        .build();
    let mut w = World::new(44, cfg);
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, tpnr_net::sim::LinkConfig { drop_prob: 1.0, ..Default::default() });
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.report.latency >= SimDuration::from_secs(60), "resolve had to outlast the outage");
}

/// An upload whose receipts never reach Alice directly, resolved through
/// a TTP that is down from 20 s to `outage_end_s`, under a retry policy of
/// six attempts with doubling waits (30, 60, 120, 240, 240 and 240 s).
fn resolve_through_an_outage(outage_end_s: u64) -> (World, TxnResult) {
    let outage_start = tpnr_net::time::SimTime::ZERO.after(SimDuration::from_secs(20));
    let outage_end = tpnr_net::time::SimTime::ZERO.after(SimDuration::from_secs(outage_end_s));
    let cfg = ProtocolConfig::builder()
        .retry_policy(RetryPolicy::exponential(6))
        .fault_plan(FaultPlan::none().with_ttp_outage(outage_start, outage_end))
        .build();
    let mut w = World::new(45, cfg);
    let (a, b) = (w.alice_node, w.bob_node);
    w.net_mut().set_link(b, a, tpnr_net::sim::LinkConfig { drop_prob: 1.0, ..Default::default() });
    let r = w.upload(b"obj", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
    (w, r)
}

#[test]
fn outage_longer_than_time_limit_completes_through_the_ttp() {
    // The TTP recovers Bob's receipt only after its 120 s limit passed.
    // Relayed while Alice's resolve is open, it is fresh all the same:
    // judged by its own limit, it was refused and resolved again until
    // the retry budget ran out (forever under the default policy).
    let (w, r) = resolve_through_an_outage(300);
    assert_eq!(r.outcome, TxnState::Completed);
    assert!(r.report.ttp_used);
    let nrr = r.nrr.as_ref().expect("the relayed receipt is Alice's NRR");
    assert!(nrr.plaintext.time_limit < w.net().now(), "the receipt was past its limit");
    assert_eq!(w.fault_counters().gave_up, 0);
}

#[test]
fn outage_longer_than_the_retry_budget_fails_terminal_and_arbitrable() {
    // An outage that outlives every attempt Alice may make cannot
    // complete, but the session must still end terminal with her evidence
    // intact, never in limbo.
    let (w, r) = resolve_through_an_outage(3_000);
    assert_eq!(r.outcome, TxnState::Failed);
    assert!(r.arbitrable(), "even a failed session keeps its evidence");
    assert!(w.fault_counters().gave_up >= 1);
}

#[test]
fn fault_runs_are_deterministic() {
    // Same seed + same FaultPlan → byte-identical event streams and
    // identical fault counters. This is what makes E8 reproducible.
    let run = || {
        let cfg = ProtocolConfig::builder()
            .retry_policy(RetryPolicy::exponential(6))
            .fault_plan(
                FaultPlan::none()
                    .with_seed(99)
                    .with_chaos(&["alice", "bob", "ttp"], 300, 8)
                    .with_restart_delay(SimDuration::from_secs(2)),
            )
            .build();
        let mut w = World::new(99, cfg);
        let r = w.upload(b"obj", vec![7u8; 512], TimeoutStrategy::ResolveImmediately);
        let events: Vec<String> = w.obs.events().iter().map(|e| format!("{e:?}")).collect();
        (r.outcome, events, w.fault_counters())
    };
    let (s1, e1, f1) = run();
    let (s2, e2, f2) = run();
    assert_eq!(s1, s2);
    assert_eq!(e1, e2);
    assert_eq!(f1, f2);
}

#[test]
fn multiworld_survives_chaos_with_no_evidence_loss() {
    let cfg = ProtocolConfig::builder()
        .retry_policy(RetryPolicy::exponential(6))
        .fault_plan(
            FaultPlan::none()
                .with_seed(7)
                .with_chaos(&["bob", "ttp", "client-0", "client-1"], 250, 8)
                .with_restart_delay(SimDuration::from_secs(2)),
        )
        .build();
    let mut w = MultiWorld::new(7, cfg, 4);
    let handles: Vec<TxnHandle> = (0..4)
        .map(|i| {
            let key = format!("tenant-{i}/obj").into_bytes();
            w.start_upload(i, &key, vec![i as u8; 128], TimeoutStrategy::ResolveImmediately)
        })
        .collect();
    w.settle();
    for h in handles {
        let r = w.result(h).expect("every transaction reaches a classification");
        assert!(
            (r.completed() && r.nrr.is_some()) || (r.outcome.is_terminal() && r.nro.is_some()),
            "client {} txn {}: evidence-less limbo ({:?})",
            h.client,
            h.txn_id,
            r.outcome
        );
    }
}

/// Runs 40 uploads of 32 B under `plan` in a world that keeps one settled
/// transaction resident per archive shard, so most are evicted as they
/// settle. With `dup_receipts` every bob→alice copy is duplicated. Returns
/// the world and every upload's transaction id.
fn forty_uploads_with_eviction(plan: FaultPlan, dup_receipts: bool) -> (World, Vec<u64>) {
    let mut w = World::new(6, ProtocolConfig::builder().fault_plan(plan).build());
    w.set_archive_capacity(1);
    if dup_receipts {
        let (a, b) = (w.alice_node, w.bob_node);
        w.net_mut().set_link(b, a, LinkConfig { dup_prob: 1.0, ..Default::default() });
    }
    let txns = (0..40u8)
        .map(|i| w.upload(&[b'k', i], vec![i; 32], TimeoutStrategy::AbortFirst).txn_id)
        .collect();
    (w, txns)
}

#[test]
fn a_client_restore_does_not_bring_back_evicted_transactions() {
    // Alice syncs at most every 600 s, so the image she restarts from
    // predates evictions made since; duplicated receipts bring her 60th
    // delivery, and her crash, within the 40 uploads. An evicted record the
    // restore brings back must be evicted again, or Alice keeps it — and
    // its replay window — for good beside its archived copy.
    let plan = FaultPlan::none()
        .with_crash_at_delivery("alice", 60)
        .with_sync_interval(SimDuration::from_secs(600));
    let (w, txns) = forty_uploads_with_eviction(plan, true);
    assert_eq!(w.fault_counters().restarts, 1);
    assert!(w.archive_stats().evicted > 0);
    for txn in txns {
        let live = w.client.txn(txn).is_some();
        assert!(!(live && w.rehydrate_evidence(txn).is_some()), "txn {txn}: live and archived");
    }
}

#[test]
fn a_provider_restore_does_not_bring_back_evicted_transactions() {
    // Bob syncs on every reply, but an eviction between two of his syncs is
    // still in his image, with or without a deferred sync.
    for interval in [SimDuration::ZERO, SimDuration::from_secs(600)] {
        let plan = FaultPlan::none().with_crash_at_delivery("bob", 30).with_sync_interval(interval);
        let (w, txns) = forty_uploads_with_eviction(plan, false);
        assert_eq!(w.fault_counters().restarts, 1);
        assert!(w.archive_stats().evicted > 0);
        for txn in txns {
            let live = w.provider.txn(txn).is_some();
            let twice = live && w.rehydrate_evidence(txn).is_some();
            assert!(!twice, "sync interval {interval:?}, txn {txn}: live and archived");
        }
    }
}

fn principal(tag: u8) -> PrincipalId {
    PrincipalId([tag; 32])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Snapshot/restore round-trip: sequence numbers allocated after a
    // restore never collide with anything allocated before the crash —
    // including allocations from the lost dirty window.
    #[test]
    fn restore_never_reuses_sequence_numbers(
        seed in any::<u64>(),
        persisted in 0u64..50,
        dirty in 1u64..50,
    ) {
        let txn = seed % 5 + 1;
        let mut v = Validator::new(principal(1), principal(7));
        let mut seen = Vec::new();
        for _ in 0..persisted {
            seen.push(v.alloc_seq(txn));
        }
        let snap = v.snapshot();
        // The dirty window: sends the crash destroys the record of.
        for _ in 0..dirty {
            seen.push(v.alloc_seq(txn));
        }
        v.restore_with_skip(&snap, SEQ_RECOVERY_SKIP);
        let next = v.alloc_seq(txn);
        prop_assert!(
            seen.iter().all(|&s| next > s),
            "post-restore seq {next} collides with pre-crash allocations {seen:?}"
        );
    }
}
