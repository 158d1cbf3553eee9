//! `tpnr-par`: dependency-free deterministic work-stealing executor.
//!
//! The workspace's parallelism needs are narrow but hot: run a pure
//! function over an index range on however many cores the host offers and
//! join the results **in index order**, so callers observe exactly what a
//! serial loop would have produced. That determinism requirement is
//! load-bearing — Merkle leaf hashing, the E6 trial grid, and the E10
//! multi-world settle fan-out all feed seeded, replayable pipelines where
//! "same seed → same trace" must survive parallel execution.
//!
//! PR 9 grew the crate from two static-chunk scoped-thread helpers into a
//! [`Pool`]: a persistent work-stealing executor. The old helpers split
//! `0..n` into one contiguous chunk per worker, so one slow chunk
//! serialized the whole fan-out (E10's throughput wall). The pool instead
//! splits work into ~4× as many tasks as workers, deals them round-robin
//! onto per-worker deques, and lets an idle worker steal the back half of
//! a victim's deque — a slow range now only occupies the one worker stuck
//! on it while everyone else drains the rest.
//!
//! Determinism argument: a task is a contiguous index range; workers run
//! `f` serially within a range and record `(range.start, results)`; the
//! join sorts by range start and concatenates. Which worker ran which
//! range — and every steal interleaving — is therefore invisible in the
//! output: for pure `f` the result vector is byte-identical to the serial
//! loop regardless of worker count (property-tested below).
//!
//! Two execution paths share the same deque/steal engine:
//!
//! - [`Pool::run_indexed`] — `'static` closures run on the pool's
//!   persistent worker threads (parked on a condvar mailbox between
//!   fan-outs), so hot callers like E10's lane driver stop paying thread
//!   spawn/join per batch.
//! - [`Pool::scoped_indexed`] — borrowing closures run on scoped threads
//!   spawned per call. The crate is `#![forbid(unsafe_code)]`, and safe
//!   Rust cannot hand a non-`'static` closure to a persistent thread, so
//!   borrowed fan-outs (Merkle leaf hashing over `&[u8]`) keep the scoped
//!   shape — same stealing, same join, fresh threads.
//!
//! Keeping the crate free of dependencies (std only) lets `tpnr-crypto`
//! use it without cycles and keeps the offline build trivial.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks ignoring poisoning: tasks run under `catch_unwind`, so engine
/// locks are never held across a user panic; a poisoned flag would only
/// mean another worker panicked *outside* user code, and blocking the
/// whole fan-out on that is worse than proceeding with the guarded data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The host's advertised core count (1 when it cannot be queried).
/// Experiment rows record this next to the configured worker count so
/// bench trajectories stay comparable across hosts.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Scheduler activity counters for one fan-out, or — via
/// [`Pool::lifetime_stats`] — for everything a pool has run. Steal counts
/// are timing-dependent (they depend on which worker went idle first) and
/// must never feed deterministic output; they exist for perf exhibits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Contiguous index-range tasks the fan-out was split into.
    pub tasks: u64,
    /// Steal operations: batches of tasks moved between worker deques.
    pub steals: u64,
    /// Individual tasks that changed deques via a steal.
    pub stolen_tasks: u64,
}

impl FanoutStats {
    fn absorb(&mut self, other: FanoutStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.stolen_tasks += other.stolen_tasks;
    }
}

/// One unit of stealable work: a contiguous index range.
#[derive(Clone, Copy)]
struct Task {
    start: usize,
    end: usize,
}

/// Per-fan-out result shards: `(range start, results for that range)`.
type RangeResults<R> = Mutex<Vec<(usize, Vec<R>)>>;

/// Shared state of one fan-out: the per-worker deques, the result shards,
/// a completion latch, and the panic slot. Both execution paths (persistent
/// workers and scoped threads) drive this same engine via [`Fanout::work`].
struct Fanout<R, F> {
    run: F,
    deques: Vec<Mutex<VecDeque<Task>>>,
    results: RangeResults<R>,
    /// Tasks not yet finished; the caller waits on this latch.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload from a task, rethrown by the caller. While set,
    /// remaining tasks are drained without running (the abort flag).
    panicked: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// `(steal operations, tasks moved)` — steals are rare (an idle worker
    /// at most once per refill), so a mutex costs nothing here and keeps
    /// the crate free of atomics.
    stolen: Mutex<(u64, u64)>,
    tasks: u64,
}

impl<R, F> Fanout<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Splits `0..n` into `min(n, 4 × workers)` near-equal contiguous
    /// ranges and deals them round-robin onto `min(workers, n)` deques.
    /// ~4 tasks per worker keeps deques short (cheap steals) while leaving
    /// enough slack that a slow range strands only its own worker.
    fn new(n: usize, workers: usize, run: F) -> Self {
        let w_eff = workers.min(n).max(1);
        let t = n.min(4 * w_eff).max(1);
        let deques: Vec<Mutex<VecDeque<Task>>> =
            (0..w_eff).map(|_| Mutex::new(VecDeque::new())).collect();
        let (base, rem) = (n / t, n % t);
        let mut start = 0;
        for j in 0..t {
            let len = base + usize::from(j < rem);
            lock(&deques[j % w_eff]).push_back(Task { start, end: start + len });
            start += len;
        }
        Fanout {
            run,
            deques,
            results: Mutex::new(Vec::with_capacity(t)),
            remaining: Mutex::new(t),
            done: Condvar::new(),
            panicked: Mutex::new(None),
            stolen: Mutex::new((0, 0)),
            tasks: t as u64,
        }
    }

    /// Worker loop: pop the own deque front; when it runs dry, steal the
    /// back half of another worker's deque; exit when every deque is empty
    /// (tasks are pre-dealt and only *move* between deques, so a global
    /// empty scan means no work can reappear).
    fn work(&self, worker: usize) {
        if worker >= self.deques.len() {
            return; // fan-out narrower than the pool: surplus workers idle
        }
        loop {
            let task = lock(&self.deques[worker]).pop_front();
            match task {
                Some(t) => self.run_task(t),
                None => {
                    if !self.steal_into(worker) {
                        return;
                    }
                }
            }
        }
    }

    /// Steals `ceil(len/2)` tasks from the back of the first non-empty
    /// victim deque (scanning round-robin from `worker + 1`) into
    /// `worker`'s own deque. Returns false when every deque is empty.
    fn steal_into(&self, worker: usize) -> bool {
        let w = self.deques.len();
        for off in 1..w {
            let victim = (worker + off) % w;
            let stolen = {
                let mut vq = lock(&self.deques[victim]);
                let take = vq.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                let keep = vq.len() - take;
                vq.split_off(keep)
            };
            let count = stolen.len() as u64;
            lock(&self.deques[worker]).extend(stolen);
            let mut tally = lock(&self.stolen);
            tally.0 += 1;
            tally.1 += count;
            return true;
        }
        false
    }

    /// Runs one range serially under `catch_unwind` and records its result
    /// shard. After a panic anywhere, remaining tasks are drained without
    /// running so the latch still reaches zero — `join` never deadlocks and
    /// the pool is not poisoned.
    fn run_task(&self, t: Task) {
        if lock(&self.panicked).is_none() {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let mut shard = Vec::with_capacity(t.end - t.start);
                for i in t.start..t.end {
                    shard.push((self.run)(i));
                }
                shard
            }));
            match out {
                Ok(shard) => lock(&self.results).push((t.start, shard)),
                Err(payload) => {
                    let mut slot = lock(&self.panicked);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task has finished (or been drained by an abort).
    fn wait(&self) {
        let mut rem = lock(&self.remaining);
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// After [`Fanout::wait`]: the index-ordered join, or the first task
    /// panic. Sorting the shards by range start erases every trace of
    /// which worker ran what — the deterministic-output invariant.
    #[allow(clippy::type_complexity)]
    fn collect(&self) -> Result<(Vec<R>, FanoutStats), Box<dyn std::any::Any + Send + 'static>> {
        if let Some(payload) = lock(&self.panicked).take() {
            return Err(payload);
        }
        let mut shards = std::mem::take(&mut *lock(&self.results));
        shards.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(shards.iter().map(|(_, s)| s.len()).sum());
        for (_, shard) in shards {
            out.extend(shard);
        }
        let (steals, stolen_tasks) = *lock(&self.stolen);
        Ok((out, FanoutStats { tasks: self.tasks, steals, stolen_tasks }))
    }
}

/// A `'static` fan-out the persistent workers can hold behind an `Arc`.
trait Runnable: Send + Sync {
    fn work(&self, worker: usize);
}

impl<R, F> Runnable for Fanout<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    fn work(&self, worker: usize) {
        Fanout::work(self, worker);
    }
}

/// The mailbox persistent workers park on between fan-outs.
struct MailSlot {
    /// Bumped once per posted job; workers run each generation at most once.
    generation: u64,
    job: Option<Arc<dyn Runnable>>,
    shutdown: bool,
}

struct Mailbox {
    slot: Mutex<MailSlot>,
    bell: Condvar,
}

fn worker_loop(mb: &Mailbox, worker: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&mb.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = mb.bell.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work(worker);
    }
}

/// A reusable work-stealing executor: `workers − 1` persistent threads
/// plus the calling thread, which always participates as worker 0. With
/// `workers == 1` no threads exist and every fan-out runs inline — the
/// output is identical either way (see the module docs).
pub struct Pool {
    workers: usize,
    mailbox: Arc<Mailbox>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes `'static` fan-outs: the persistent workers run one job
    /// at a time (scoped fan-outs use their own threads and don't queue).
    submit: Mutex<()>,
    /// Scheduler activity accumulated across every fan-out (one lock per
    /// fan-out, not per task, so a mutex is plenty).
    lifetime: Mutex<FanoutStats>,
}

impl Pool {
    /// Creates a pool targeting `workers` total workers (clamped to ≥ 1).
    /// If the OS refuses a thread the pool degrades to fewer workers
    /// rather than failing; [`Pool::workers`] reports the real count.
    pub fn new(workers: usize) -> Self {
        let target = workers.max(1);
        let mailbox = Arc::new(Mailbox {
            slot: Mutex::new(MailSlot { generation: 0, job: None, shutdown: false }),
            bell: Condvar::new(),
        });
        let handles: Vec<std::thread::JoinHandle<()>> = (1..target)
            .filter_map(|i| {
                let mb = Arc::clone(&mailbox);
                std::thread::Builder::new()
                    .name(format!("tpnr-par-{i}"))
                    .spawn(move || worker_loop(&mb, i))
                    .ok()
            })
            .collect();
        Pool {
            workers: handles.len() + 1,
            mailbox,
            handles,
            submit: Mutex::new(()),
            lifetime: Mutex::new(FanoutStats::default()),
        }
    }

    /// The process-wide pool, sized to [`available_parallelism`]. The
    /// [`par_map_indexed`] wrapper routes through it so the whole workspace
    /// shares one set of worker threads.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(available_parallelism()))
    }

    /// Actual worker count (calling thread included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total scheduler activity across every fan-out this pool has run.
    pub fn lifetime_stats(&self) -> FanoutStats {
        *lock(&self.lifetime)
    }

    fn record(&self, stats: FanoutStats) {
        lock(&self.lifetime).absorb(stats);
    }

    /// Maps `f` over `0..n` on the persistent workers and returns results
    /// in index order plus the fan-out's scheduler counters. Requires
    /// `'static` captures; the hot E10 lane driver uses this path so it
    /// pays no thread spawn/join per batch. A panic inside `f` is rethrown
    /// here after every worker has drained; the pool stays usable.
    pub fn run_indexed_stats<R, F>(&self, n: usize, f: F) -> (Vec<R>, FanoutStats)
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if n == 0 {
            return (Vec::new(), FanoutStats::default());
        }
        let fan = Arc::new(Fanout::new(n, self.workers, f));
        let guard = lock(&self.submit);
        if self.workers > 1 {
            let job: Arc<dyn Runnable> = Arc::clone(&fan) as Arc<dyn Runnable>;
            {
                let mut slot = lock(&self.mailbox.slot);
                slot.generation += 1;
                slot.job = Some(job);
            }
            self.mailbox.bell.notify_all();
        }
        fan.work(0);
        fan.wait();
        if self.workers > 1 {
            lock(&self.mailbox.slot).job = None;
        }
        drop(guard);
        match fan.collect() {
            Ok((out, stats)) => {
                self.record(stats);
                (out, stats)
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// [`Pool::run_indexed_stats`] without the counters.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        self.run_indexed_stats(n, f).0
    }

    /// Maps a *borrowing* `f` over `0..n` with the same stealing engine,
    /// on scoped threads spawned for this call (safe Rust cannot park a
    /// non-`'static` closure on a persistent thread — see module docs).
    /// Results join in index order; a panic inside `f` is rethrown after
    /// the scope joins.
    pub fn scoped_indexed_stats<R, F>(&self, n: usize, f: F) -> (Vec<R>, FanoutStats)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return (Vec::new(), FanoutStats::default());
        }
        let fan = Fanout::new(n, self.workers, f);
        std::thread::scope(|scope| {
            for i in 1..fan.deques.len() {
                let fan = &fan;
                scope.spawn(move || fan.work(i));
            }
            fan.work(0);
        });
        // The scope joined every worker, so the latch is already zero.
        match fan.collect() {
            Ok((out, stats)) => {
                self.record(stats);
                (out, stats)
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// [`Pool::scoped_indexed_stats`] without the counters.
    pub fn scoped_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.scoped_indexed_stats(n, f).0
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.mailbox.slot);
            slot.shutdown = true;
        }
        self.mailbox.bell.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Maps `f` over `0..n` on the [global pool](Pool::global) and returns the
/// results in index order. `f` must be pure for the output to be
/// deterministic; the index-ordered join never reorders results regardless
/// of which worker ran what. With `n == 0` an empty vector is returned.
///
/// Thin wrapper over [`Pool::scoped_indexed`] (kept since the pre-pool
/// crate so call sites like Merkle leaf hashing stay unchanged).
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    Pool::global().scoped_indexed(n, f)
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
        // deques, so every index still maps exactly once.
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
        // One pool, many fan-outs: results stay correct, no worker is
        // respawned (the whole point of the persistent mailbox), and the
        // lifetime counters accumulate monotonically.
        let pool = Pool::new(4);
        let mut last_tasks = 0;
        for round in 0..10u64 {
            let (out, stats) = pool.run_indexed_stats(50, move |i| i as u64 + round);
            assert_eq!(out, (0..50).map(|i| i + round).collect::<Vec<_>>());
            assert!(stats.tasks > 0);
            let life = pool.lifetime_stats();
            assert!(life.tasks > last_tasks, "lifetime counters accumulate");
            last_tasks = life.tasks;
        }
    }

    #[test]
    fn forced_stealing_preserves_index_order() {
        // Round-robin dealing puts even task indices on worker 0's deque.
        // Even indices sleep, so worker 0 sits inside a sleep while its
        // deque still holds more sleepers — worker 1 drains its own (all
        // instant) tasks and must steal to finish. The output must be
        // byte-identical to the serial map no matter who stole what.
        let pool = Pool::new(2);
        let serial: Vec<u64> = (0..8u64).map(|i| i * 3 + 1).collect();
        let mut stole = false;
        for _ in 0..20 {
            let (out, stats) = pool.run_indexed_stats(8, |i| {
                if i % 2 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(15));
                }
                i as u64 * 3 + 1
            });
            assert_eq!(out, serial);
            if stats.steals > 0 {
                assert!(stats.stolen_tasks >= stats.steals);
                stole = true;
                break;
            }
        }
        assert!(stole, "skewed fan-out on 2 workers must trigger a steal");
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
        // The pool survives: workers drained the aborted fan-out and the
        // next fan-out runs normally.
        assert_eq!(pool.run_indexed(10, |i| i + 1), (1..=10).collect::<Vec<_>>());
        // The scoped path contains panics the same way.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_indexed(8, |i| if i == 3 { panic!("scoped boom") } else { i })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.scoped_indexed(4, |i| i * i), vec![0, 1, 4, 9]);
    }

    #[test]
    fn surplus_workers_idle_on_narrow_fanouts() {
        // More workers than items: the fan-out narrows its deques and the
        // surplus workers return without touching anything.
        let pool = Pool::new(8);
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
        assert_eq!(pool.scoped_indexed(1, |i| i + 9), vec![9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Model check: for any (n, workers) and a pure f, both execution
        /// paths produce exactly the serial map — steal interleavings and
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
