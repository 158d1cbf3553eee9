//! Heap budget of the transaction path. A counting global allocator
//! measures the allocations of one 256 B `World` upload and one download,
//! averaged over a run after a warm-up, those of one envelope seal and
//! open, and the live heap a settled upload and a settled download leave
//! behind; each test fails when its figure exceeds its budget. The budgets
//! are the figures measured when the tests were written: lower them as
//! allocations are cut, never raise them.
//!
//! Counts are kept per thread, so the test harness's own threads are never
//! counted; each `World` runs on its test's thread alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tpnr_core::fault::{DeliveryVerdict, FaultCtl, SyncDecision};
use tpnr_core::message::MsgKind;
use tpnr_core::prelude::*;
use tpnr_crypto::{envelope, ChaChaRng, RsaKeyPair};
use tpnr_net::time::{SimDuration, SimTime};

/// Allocator calls (alloc, alloc_zeroed, realloc) per 256 B upload. A
/// build with debug assertions (the test profile) and a release build make
/// the same calls; full-mode `ci.sh` runs both.
const UPLOAD_BUDGET: u64 = 96;
/// Allocator calls per download of a 256 B object.
const DOWNLOAD_BUDGET: u64 = 103;
/// Allocator calls per envelope seal at 512 bits: RSA's padded block and
/// ciphertext, and the envelope itself. The key derivation, the cipher and
/// the MAC run on the stack.
const SEAL_BUDGET: u64 = 3;
/// Allocator calls per envelope open: RSA's padded block and the seed it
/// carries, and the opened body.
const OPEN_BUDGET: u64 = 3;
/// Live heap bytes a settled 256 B upload of a fresh key leaves in a
/// `World`, averaged over [`LIVE_TXNS`] uploads; both profiles measure
/// the same. The received frame each stored object pins, a message buffer
/// sized exactly by `Wire::encoded_len` (about 705 B), is part of it.
const LIVE_BUDGET: i64 = 2_255;
/// Live heap bytes a settled download of a 256 B object leaves in a
/// `World`, averaged over [`LIVE_TXNS`] downloads of distinct objects: the
/// client's record and the payload it received (a view that pins the
/// response frame), the provider's record, and their events.
const LIVE_DOWNLOAD_BUDGET: i64 = 2_087;
/// Transactions a live-heap budget averages over. The event ring and the
/// maps grow by doubling, so the average depends on the count; this one
/// leaves each of them well filled.
const LIVE_TXNS: usize = 4_000;

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
/// every sync. Its per-actor counters are `Vec`s indexed by actor slot,
/// sized when the injector is built, so no ruling allocates, not even the
/// first one on an actor.
#[test]
fn the_fault_injector_rules_on_a_known_actor_without_allocating() {
    // A `World`'s actors in slot order; Bob is slot 1. A rule that never
    // fires keeps the plan active and the rulings plain.
    const BOB: usize = 1;
    let plan = FaultPlan::none().with_crash_at_delivery("bob", u64::MAX);
    let mut faults = FaultCtl::new(&plan, &["alice", "bob", "ttp"]);
    assert!(faults.active());
    let (first, _) = tally(|| {
        assert_eq!(faults.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::Proceed);
        assert_eq!(faults.sync_due(BOB, SimTime::ZERO, true), SyncDecision::Persist);
    });
    let (deliveries, _) = tally(|| {
        for _ in 0..100 {
            black_box(faults.delivery_verdict(BOB, MsgKind::Transfer));
        }
    });
    let (syncs, _) = tally(|| {
        for i in 1..=100 {
            let now = SimTime::ZERO.after(SimDuration::from_millis(i));
            black_box(faults.sync_due(BOB, now, true));
        }
    });
    assert_eq!(first, 0, "allocator calls for the first ruling of each kind");
    assert_eq!((deliveries, syncs), (0, 0), "allocator calls for 100 rulings of each kind");
    assert_eq!(faults.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::Proceed);
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

/// The live heap of each part of `w` (provider, client, obs, net, ttp):
/// what trading it for the same part of a fresh world frees.
fn parts(w: &mut World) -> [i64; 5] {
    [
        freed_by(w, |w, s| std::mem::swap(&mut w.provider, &mut s.provider)),
        freed_by(w, |w, s| std::mem::swap(&mut w.client, &mut s.client)),
        freed_by(w, |w, s| std::mem::swap(&mut w.obs, &mut s.obs)),
        freed_by(w, |w, s| std::mem::swap(w.net_mut(), s.net_mut())),
        freed_by(w, |w, s| std::mem::swap(&mut w.ttp, &mut s.ttp)),
    ]
}

/// Live heap each of [`LIVE_TXNS`] transactions `run` settles leaves in a
/// world that `setup` prepared, printed split by part under `what`
/// (`--nocapture`). Each part's share is measured against a second world
/// that only `setup` ran on, so what `setup` left is not counted.
fn live_heap_per_txn(
    what: &str,
    setup: impl Fn(&mut World),
    mut run: impl FnMut(&mut World, usize),
) -> i64 {
    let world = || World::new(5, ProtocolConfig::full());
    let mut base = world();
    setup(&mut base);
    let base_parts = parts(&mut base);
    drop(base);
    let mut w = world();
    setup(&mut w);
    let before = live();
    for i in 0..LIVE_TXNS {
        run(&mut w, i);
    }
    let per = |bytes: i64| bytes / LIVE_TXNS as i64;
    let per_txn = per(live() - before);
    let [provider, client, obs, net, ttp] = parts(&mut w);
    let [provider, client, obs, net, ttp] = [
        per(provider - base_parts[0]),
        per(client - base_parts[1]),
        per(obs - base_parts[2]),
        per(net - base_parts[3]),
        per(ttp - base_parts[4]),
    ];
    let runner = per_txn - (provider + client + obs + net + ttp);
    println!(
        "live heap per settled {what}: {per_txn} B = provider {provider} + client {client} \
         + obs {obs} + net {net} + ttp {ttp} + runner {runner}"
    );
    per_txn
}

/// A settled transaction stays in memory for the life of the service: both
/// parties keep their evidence for disputes. This gates what one costs and
/// prints where it sits (`--nocapture`).
#[test]
fn a_settled_upload_keeps_its_live_heap_budget() {
    let per_upload = live_heap_per_txn(
        "upload",
        |w| upload_fresh_keys(w, 0, 50),
        |w, i| upload_fresh_keys(w, 50 + i, 1),
    );
    assert!(per_upload <= LIVE_BUDGET, "{per_upload} B > {LIVE_BUDGET} B per settled upload");
}

/// A download's record also keeps the payload it received, which pins the
/// response frame. The objects are uploaded before measuring, so only the
/// download's share is counted.
#[test]
fn a_settled_download_keeps_its_live_heap_budget() {
    let download = |w: &mut World, i: usize| {
        let key = format!("obj-{i}");
        assert!(w.download(key.as_bytes(), TimeoutStrategy::AbortFirst).completed());
    };
    let setup = |w: &mut World| {
        upload_fresh_keys(w, 0, 50 + LIVE_TXNS);
        (0..50).for_each(|i| download(w, i));
    };
    let per_download = live_heap_per_txn("download", setup, |w, i| download(w, 50 + i));
    assert!(
        per_download <= LIVE_DOWNLOAD_BUDGET,
        "{per_download} B > {LIVE_DOWNLOAD_BUDGET} B per settled download"
    );
}

/// Evidence is sealed and opened twice per transaction, so the envelope's
/// scratch buffers are a per-transaction cost of their own.
#[test]
fn an_envelope_seals_and_opens_within_its_allocation_budget() {
    const RUNS: u64 = 16;
    let keys = RsaKeyPair::insecure_test_key(3);
    let mut rng = ChaChaRng::seed_from_u64(9);
    // Two length-prefixed 64 B signatures, what evidence seals.
    let body = [7u8; 136];
    // Warm-up: the first private-key operation outside a fan-out starts
    // the CRT helper thread, a once-per-process cost.
    let mut sealed = envelope::seal(&keys.public, &mut rng, &body).unwrap();
    assert_eq!(envelope::open(&keys.private, &sealed).unwrap(), body);
    let (seal_calls, _) = tally(|| {
        for _ in 0..RUNS {
            sealed = black_box(envelope::seal(&keys.public, &mut rng, &body).unwrap());
        }
    });
    let (open_calls, _) = tally(|| {
        for _ in 0..RUNS {
            assert_eq!(black_box(envelope::open(&keys.private, &sealed).unwrap()), body);
        }
    });
    let (seal, open) = (seal_calls.div_ceil(RUNS), open_calls.div_ceil(RUNS));
    println!("per envelope seal: {seal} allocations; per open: {open}");
    assert!(seal <= SEAL_BUDGET, "seal: {seal} > {SEAL_BUDGET}");
    assert!(open <= OPEN_BUDGET, "open: {open} > {OPEN_BUDGET}");
}
