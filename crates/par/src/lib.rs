//! `tpnr-par`: dependency-free deterministic fork-join over index ranges.
//!
//! The workspace's parallelism needs are narrow but hot: run a pure
//! function over an index range on however many cores the host offers and
//! join the results **in index order**, so callers observe exactly what a
//! serial loop would have produced. That determinism requirement is
//! load-bearing — Merkle leaf hashing, the E6 trial grid, and the E10
//! multi-world settle fan-out all feed seeded, replayable pipelines where
//! "same seed → same trace" must survive parallel execution.
//!
//! A fan-out splits `0..n` into ~4× as many contiguous index ranges as
//! workers. The calling thread and `workers − 1` scoped threads, spawned
//! for that fan-out, each claim the next unclaimed range from one shared
//! atomic cursor until none is left, so a slow range occupies only the
//! worker running it while the others drain the rest.
//!
//! Determinism argument: a worker runs `f` serially within a range and
//! keeps `(range index, results)`; the join sorts by range index and
//! concatenates. Which worker ran which range is therefore invisible in
//! the output: for pure `f` the result vector is byte-identical to the
//! serial loop regardless of worker count (property-tested below).
//!
//! A fan-out owns the cores it runs on, so the process counts the
//! fan-outs running at any moment ([`fanouts_running`]). Code that would
//! borrow an idle core for itself, such as `tpnr-crypto`'s CRT helper,
//! stays on its own thread while the count is non-zero.
//!
//! Keeping the crate free of dependencies (std only) lets `tpnr-crypto`
//! use it without cycles and keeps the offline build trivial.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The host's advertised core count (1 when it cannot be queried).
/// Experiment rows record this next to the configured worker count so
/// bench trajectories stay comparable across hosts.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Fan-outs running in the process: see [`fanouts_running`].
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// How many fan-outs are running right now, across every pool and thread,
/// one-worker pools included. `Relaxed` suffices: the count steers a
/// choice between two ways of computing the same result, so a stale read
/// costs time, never correctness.
pub fn fanouts_running() -> usize {
    RUNNING.load(Ordering::Relaxed)
}

/// One fan-out's place in [`RUNNING`], given back when dropped, on unwind
/// too.
struct Running;

impl Running {
    fn enter() -> Running {
        RUNNING.fetch_add(1, Ordering::Relaxed);
        Running
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Scheduler counters for one fan-out. `steals` depends on timing (which
/// worker went idle first) and must never feed deterministic output; it
/// exists for perf exhibits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Contiguous index ranges the fan-out was split into.
    pub tasks: u64,
    /// Ranges workers claimed beyond an even share, `ceil(tasks / w)` each
    /// for the fan-out's `w` workers: 0 on a balanced fan-out.
    pub steals: u64,
}

/// A fan-out width: every fan-out runs on the calling thread plus
/// `workers − 1` scoped threads spawned for it. With `workers == 1` no
/// thread is spawned; the output is identical either way (see the module
/// docs).
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool of `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// The process-wide pool, sized to [`available_parallelism`]; the
    /// [`par_map_indexed`] wrapper runs on it.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(available_parallelism()))
    }

    /// Worker count (calling thread included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `0..n` and returns the results in index order plus the
    /// fan-out's counters. `w = min(workers, n)` workers share
    /// `min(n, 4·w)` near-equal contiguous ranges through one cursor. A
    /// thread the OS refuses is skipped; the workers that started take its
    /// ranges. A panic inside `f` stops new ranges from starting and is
    /// rethrown here once every worker has returned. The fan-out counts in
    /// [`fanouts_running`] until it returns or unwinds.
    pub fn run_indexed_stats<R, F>(&self, n: usize, f: F) -> (Vec<R>, FanoutStats)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return (Vec::new(), FanoutStats::default());
        }
        let _running = Running::enter();
        let w = self.workers.min(n);
        let tasks = n.min(4 * w);
        let (base, rem) = (n / tasks, n % tasks);
        // `Relaxed` suffices: the cursor only hands out range indices. The
        // inputs are fixed before the scope spawns, and results return
        // through the joins.
        let cursor = AtomicUsize::new(0);
        let panicked = Mutex::new(None);
        // One worker: claims ranges until the cursor passes the end and
        // returns `(range index, results)` for each range it ran.
        let work = || {
            let mut shards = Vec::new();
            loop {
                let j = cursor.fetch_add(1, Ordering::Relaxed);
                if j >= tasks {
                    return shards;
                }
                let start = j * base + j.min(rem);
                let range = start..start + base + usize::from(j < rem);
                match catch_unwind(AssertUnwindSafe(|| range.map(&f).collect::<Vec<R>>())) {
                    Ok(shard) => shards.push((j, shard)),
                    Err(payload) => {
                        cursor.store(tasks, Ordering::Relaxed);
                        panicked
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                        return shards;
                    }
                }
            }
        };
        let per_worker: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..w)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
                .collect();
            let mut all = Vec::with_capacity(w);
            all.push(work());
            all.extend(spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
            all
        });
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
        let share = tasks.div_ceil(w);
        let steals: usize = per_worker.iter().map(|s| s.len().saturating_sub(share)).sum();
        let mut shards: Vec<(usize, Vec<R>)> = per_worker.into_iter().flatten().collect();
        shards.sort_unstable_by_key(|&(j, _)| j);
        let mut out = Vec::with_capacity(n);
        for (_, shard) in shards {
            out.extend(shard);
        }
        (out, FanoutStats { tasks: tasks as u64, steals: steals as u64 })
    }

    /// [`Pool::run_indexed_stats`] without the counters.
    pub fn run_indexed<R: Send, F: Fn(usize) -> R + Sync>(&self, n: usize, f: F) -> Vec<R> {
        self.run_indexed_stats(n, f).0
    }

    /// [`Pool::run_indexed`]: every fan-out may borrow.
    pub fn scoped_indexed<R: Send, F: Fn(usize) -> R + Sync>(&self, n: usize, f: F) -> Vec<R> {
        self.run_indexed(n, f)
    }
}

/// Maps `f` over `0..n` on the [global pool](Pool::global) and returns the
/// results in index order. `f` must be pure for the output to be
/// deterministic; the index-ordered join never reorders results regardless
/// of which worker ran what. With `n == 0` an empty vector is returned.
pub fn par_map_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    Pool::global().run_indexed(n, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_range_spawns_nothing() {
        let out: Vec<u64> = par_map_indexed(0, |_| unreachable!("no indices to map"));
        assert!(out.is_empty());
    }

    #[test]
    fn fewer_items_than_workers() {
        // With n below available_parallelism the fan-out narrows to n
        // workers, so every index still maps exactly once.
        let out = par_map_indexed(2, |i| i * 10);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn n_not_divisible_by_chunk_size() {
        // A prime n forces ragged task ranges on any multi-worker split.
        let n = 97;
        let out = par_map_indexed(n, |i| i as u64 * i as u64);
        assert_eq!(out.len(), n);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn results_join_in_index_order() {
        // Make early indices expensive so workers finish out of order; the
        // join must still be index-ordered.
        let n = 64;
        let out = par_map_indexed(n, |i| {
            let spins = (n - i) * 1000;
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn matches_serial_map_exactly() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(0x9e3779b9)).collect();
        let parallel = par_map_indexed(1000, |i| (i as u64).wrapping_mul(0x9e3779b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_clamps_to_one_worker() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn pool_reuse_across_batches() {
        // One pool, many fan-outs: results stay correct every time.
        let pool = Pool::new(4);
        for round in 0..10u64 {
            let (out, stats) = pool.run_indexed_stats(50, move |i| i as u64 + round);
            assert_eq!(out, (0..50).map(|i| i + round).collect::<Vec<_>>());
            assert!(stats.tasks > 0);
        }
    }

    #[test]
    fn forced_stealing_preserves_index_order() {
        // 8 ranges on 2 workers, an even share of 4 each. Range 0 waits
        // until the other 7 have run, so the worker that claimed it is held
        // while the other claims all 7: 3 beyond its share. (The wait is
        // bounded so a host that refuses the second thread still finishes,
        // with one worker claiming all 8.) The output must still be
        // byte-identical to the serial map.
        let pool = Pool::new(2);
        let serial: Vec<u64> = (0..8u64).map(|i| i * 3 + 1).collect();
        let others_done = Mutex::new(0usize);
        let bell = std::sync::Condvar::new();
        let (out, stats) = pool.run_indexed_stats(8, |i| {
            let mut done = others_done.lock().expect("no test closure panics");
            if i == 0 {
                let limit = std::time::Duration::from_secs(10);
                drop(bell.wait_timeout_while(done, limit, |d| *d < 7).expect("not poisoned"));
            } else {
                *done += 1;
                bell.notify_all();
            }
            i as u64 * 3 + 1
        });
        assert_eq!(out, serial);
        assert_eq!(stats.tasks, 8);
        assert!(stats.steals >= 3, "the idle worker drains the rest: {stats:?}");
    }

    #[test]
    fn panic_in_task_does_not_poison_pool_or_deadlock_join() {
        let pool = Pool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(32, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            })
        }));
        let payload = caught.expect_err("task panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom at 17");
        // The pool survives: the next fan-out runs normally.
        assert_eq!(pool.run_indexed(10, |i| i + 1), (1..=10).collect::<Vec<_>>());
        // A borrowing fan-out contains panics the same way.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_indexed(8, |i| if i == 3 { panic!("scoped boom") } else { i })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.scoped_indexed(4, |i| i * i), vec![0, 1, 4, 9]);
    }

    #[test]
    fn surplus_workers_idle_on_narrow_fanouts() {
        // More workers than items: the fan-out narrows to one worker per
        // item.
        let pool = Pool::new(8);
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
        assert_eq!(pool.scoped_indexed(1, |i| i + 9), vec![9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Model check: for any (n, workers) and a pure f, both entry
        /// points produce exactly the serial map — claim interleavings and
        /// worker counts are invisible in the output.
        #[test]
        fn pool_matches_serial_for_any_shape(
            n in 0usize..200,
            workers in 1usize..5,
            salt in any::<u64>(),
        ) {
            let f = move |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
            let serial: Vec<u64> = (0..n).map(f).collect();
            let pool = Pool::new(workers);
            prop_assert_eq!(&pool.run_indexed(n, f)[..], &serial[..]);
            prop_assert_eq!(&pool.scoped_indexed(n, f)[..], &serial[..]);
        }
    }
}
