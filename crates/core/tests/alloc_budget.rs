//! Heap budget of the transaction path. A counting global allocator
//! measures the allocations of one 256 B `World` upload and one download,
//! averaged over a run after a warm-up, and the live heap a settled upload
//! leaves behind; each test fails when its figure exceeds its budget. The
//! budgets are the figures measured when the tests were written: lower them
//! as allocations are cut, never raise them.
//!
//! Counts are kept per thread, so the test harness's own threads are never
//! counted; each `World` runs on its test's thread alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tpnr_core::fault::{DeliveryVerdict, FaultCtl, SyncDecision};
use tpnr_core::prelude::*;
use tpnr_net::time::{SimDuration, SimTime};

/// Allocator calls (alloc, alloc_zeroed, realloc) per 256 B upload. A
/// build with debug assertions (the test profile) makes more calls than a
/// release build, so each has its own budget.
const UPLOAD_BUDGET: u64 = if cfg!(debug_assertions) { 237 } else { 179 };
/// Allocator calls per download of a 256 B object.
const DOWNLOAD_BUDGET: u64 = if cfg!(debug_assertions) { 245 } else { 187 };
/// Live heap bytes a settled 256 B upload of a fresh key leaves in a
/// `World`, averaged over [`LIVE_UPLOADS`] uploads; both profiles measure
/// the same. The received frame each stored object pins is 1,088 B of it.
const LIVE_BUDGET: i64 = 4_298;
/// Uploads the live-heap budget averages over. The event ring and the maps
/// grow by doubling, so the average depends on the count; this one leaves
/// each of them well filled.
const LIVE_UPLOADS: usize = 4_000;

/// What the counting allocator has seen on one thread.
#[derive(Clone, Copy)]
struct Tally {
    /// Calls that returned fresh memory (alloc, alloc_zeroed, realloc).
    calls: u64,
    /// Bytes those calls requested.
    bytes: u64,
    /// Bytes allocated and not yet freed.
    live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { calls: 0, bytes: 0, live: 0 }) };
}

/// Applies `f` to this thread's tally. `try_with`: a thread being torn
/// down may still free and allocate.
fn update(f: impl FnOnce(&mut Tally)) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        f(&mut t);
        cell.set(t);
    });
}

/// Notes one call that returned `new` bytes in place of `old`.
fn note(old: usize, new: usize) {
    update(|t| {
        t.calls += 1;
        t.bytes += new as u64;
        t.live += new as i64 - old as i64;
    });
}

/// The system allocator plus a thread-local tally of every call that
/// returns fresh memory, and of the bytes still live.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the same
// method of `System`, so the caller's guarantees under `GlobalAlloc` are
// exactly `System`'s preconditions, and `System`'s results (and its
// `GlobalAlloc` contract) pass back untouched. The only addition, the
// tally update, touches a const-initialised thread-local `Cell` that has
// no destructor: it neither allocates nor unwinds, so the allocator is
// never re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|t| t.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes of `f`, on this thread.
fn tally(f: impl FnOnce()) -> (u64, u64) {
    let before = TALLY.with(Cell::get);
    f();
    let after = TALLY.with(Cell::get);
    (after.calls - before.calls, after.bytes - before.bytes)
}

/// Bytes allocated on this thread and not yet freed.
fn live() -> i64 {
    TALLY.with(Cell::get).live
}

/// A counter that stopped counting would pass every budget silently, so
/// the counter is tested first. `black_box` keeps the optimiser from
/// eliding the allocation.
#[test]
fn the_counting_allocator_counts_calls_bytes_and_frees() {
    let start = live();
    let (calls, bytes) = tally(|| {
        let v: Vec<u8> = black_box(Vec::with_capacity(100));
        assert_eq!(live() - start, 100);
        drop(black_box(v));
    });
    assert_eq!((calls, bytes), (1, 100));
    assert_eq!(live(), start, "the drop freed what the vector held");
}

#[test]
fn upload_and_download_stay_within_their_allocation_budgets() {
    const KEYS: usize = 8;
    const WARMUP: usize = 32;
    const RUNS: usize = 64;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| format!("obj-{i}").into_bytes()).collect();
    let mut w = World::new(3, ProtocolConfig::full());
    // Warm-up: first-use growth of maps, caches and histograms is not a
    // per-transaction cost.
    for i in 0..WARMUP {
        let key = &keys[i % KEYS];
        assert!(w.upload(key, vec![i as u8; 256], TimeoutStrategy::AbortFirst).completed());
        assert!(w.download(key, TimeoutStrategy::AbortFirst).completed());
    }
    // Payloads are built before counting: the caller's buffer is not the
    // protocol's allocation.
    let mut payloads: Vec<Vec<u8>> = (0..RUNS).map(|i| vec![i as u8; 256]).collect();
    let (up_calls, up_bytes) = tally(|| {
        for (i, data) in payloads.drain(..).enumerate() {
            let r = w.upload(&keys[i % KEYS], data, TimeoutStrategy::AbortFirst);
            assert!(r.completed());
        }
    });
    let (down_calls, down_bytes) = tally(|| {
        for i in 0..RUNS {
            assert!(w.download(&keys[i % KEYS], TimeoutStrategy::AbortFirst).completed());
        }
    });
    let per = |n: u64| n.div_ceil(RUNS as u64);
    println!(
        "per upload: {} allocations, {} B; per download: {} allocations, {} B",
        per(up_calls),
        per(up_bytes),
        per(down_calls),
        per(down_bytes)
    );
    assert!(per(up_calls) <= UPLOAD_BUDGET, "upload: {} > {UPLOAD_BUDGET}", per(up_calls));
    assert!(
        per(down_calls) <= DOWNLOAD_BUDGET,
        "download: {} > {DOWNLOAD_BUDGET}",
        per(down_calls)
    );
}

/// Under an active fault plan the injector rules on every delivery and
/// every sync. Its per-actor counters are keyed by actor name, so once an
/// actor is known a ruling updates the actor's entry in place and
/// allocates nothing.
#[test]
fn the_fault_injector_rules_on_a_known_actor_without_allocating() {
    // A rule that never fires keeps the plan active and the rulings plain.
    let plan = FaultPlan::none().with_crash_at_delivery("bob", u64::MAX);
    let mut faults = FaultCtl::new(&plan);
    assert!(faults.active());
    // Warm-up: each counter meets "bob" once.
    assert_eq!(faults.delivery_verdict("bob", "Transfer"), DeliveryVerdict::Proceed);
    assert_eq!(faults.sync_due("bob", SimTime::ZERO, true), SyncDecision::Persist);
    let (deliveries, _) = tally(|| {
        for _ in 0..100 {
            black_box(faults.delivery_verdict("bob", "Transfer"));
        }
    });
    let (syncs, _) = tally(|| {
        for i in 1..=100 {
            let now = SimTime::ZERO.after(SimDuration::from_millis(i));
            black_box(faults.sync_due("bob", now, true));
        }
    });
    assert_eq!((deliveries, syncs), (0, 0), "allocator calls for 100 rulings of each kind");
    assert_eq!(faults.delivery_verdict("bob", "Transfer"), DeliveryVerdict::Proceed);
}

/// Uploads 256 B to `count` keys not used before, numbered from `first`.
fn upload_fresh_keys(w: &mut World, first: usize, count: usize) {
    for i in first..first + count {
        let r = w.upload(
            format!("obj-{i}").as_bytes(),
            vec![i as u8; 256],
            TimeoutStrategy::AbortFirst,
        );
        assert!(r.completed());
    }
}

/// Bytes the heap frees when `swap` trades a part of `w` for the same part
/// of a fresh world: that part's share of the history `w` holds.
fn freed_by(w: &mut World, swap: impl FnOnce(&mut World, &mut World)) -> i64 {
    let fresh = || World::new(5, ProtocolConfig::full());
    let spare = fresh();
    let before = live();
    drop(spare);
    let fresh_world = before - live();
    let mut spare = fresh();
    swap(w, &mut spare);
    let before = live();
    drop(spare);
    before - live() - fresh_world
}

/// A settled transaction stays in memory for the life of the service: both
/// parties keep their evidence for disputes. This gates what one costs and
/// prints where it sits (`--nocapture`).
#[test]
fn a_settled_upload_keeps_its_live_heap_budget() {
    let mut w = World::new(5, ProtocolConfig::full());
    upload_fresh_keys(&mut w, 0, 50);
    let before = live();
    upload_fresh_keys(&mut w, 50, LIVE_UPLOADS);
    let per = |bytes: i64| bytes / LIVE_UPLOADS as i64;
    let per_upload = per(live() - before);
    let provider = per(freed_by(&mut w, |w, s| std::mem::swap(&mut w.provider, &mut s.provider)));
    let client = per(freed_by(&mut w, |w, s| std::mem::swap(&mut w.client, &mut s.client)));
    let obs = per(freed_by(&mut w, |w, s| std::mem::swap(&mut w.obs, &mut s.obs)));
    let net = per(freed_by(&mut w, |w, s| std::mem::swap(w.net_mut(), s.net_mut())));
    let ttp = per(freed_by(&mut w, |w, s| std::mem::swap(&mut w.ttp, &mut s.ttp)));
    let runner = per_upload - (provider + client + obs + net + ttp);
    println!(
        "live heap per settled upload: {per_upload} B = provider {provider} + client {client} \
         + obs {obs} + net {net} + ttp {ttp} + runner {runner}"
    );
    assert!(per_upload <= LIVE_BUDGET, "{per_upload} B > {LIVE_BUDGET} B per settled upload");
}
