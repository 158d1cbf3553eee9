//! Heap-allocation budget of the transaction path. A counting global
//! allocator measures the allocations of one 256 B `World` upload and one
//! download, averaged over a run after a warm-up, and the test fails when
//! either exceeds its budget. The budgets are the counts measured when the
//! test was written: lower them as allocations are cut, never raise them.
//!
//! Counts are kept per thread, so the test harness's own threads are never
//! counted; the `World` runs on the test's thread alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpnr_core::prelude::*;

/// Allocator calls (alloc, alloc_zeroed, realloc) per 256 B upload. A
/// build with debug assertions (the test profile) makes more calls than a
/// release build, so each has its own budget.
const UPLOAD_BUDGET: u64 = if cfg!(debug_assertions) { 237 } else { 179 };
/// Allocator calls per download of a 256 B object.
const DOWNLOAD_BUDGET: u64 = if cfg!(debug_assertions) { 245 } else { 187 };

thread_local! {
    /// (allocator calls, bytes requested) on this thread.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = TALLY.try_with(|t| {
        let (calls, total) = t.get();
        t.set((calls + 1, total + bytes as u64));
    });
}

/// The system allocator plus a thread-local tally of every call that
/// returns fresh memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the same
// method of `System`, so the caller's guarantees under `GlobalAlloc` are
// exactly `System`'s preconditions, and `System`'s results (and its
// `GlobalAlloc` contract) pass back untouched. The only addition, `note`,
// bumps a const-initialised thread-local `Cell` that has no destructor:
// it neither allocates nor unwinds, so the allocator is never re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes of `f`, on this thread.
fn tally(f: impl FnOnce()) -> (u64, u64) {
    let (calls, bytes) = TALLY.with(Cell::get);
    f();
    let (calls_after, bytes_after) = TALLY.with(Cell::get);
    (calls_after - calls, bytes_after - bytes)
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
