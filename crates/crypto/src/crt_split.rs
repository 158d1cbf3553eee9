//! The CRT helper: a second thread that computes one half of an RSA
//! private-key operation while the caller computes the other.
//!
//! A private operation is two independent half-exponentiations,
//! `c^dp mod p` and `c^dq mod q`, joined by Garner's step
//! ([`FixedCrtCtx`](crate::limbs::FixedCrtCtx)). [`both_halves`] posts the
//! q-half to the helper and computes the p-half itself. Then, if the
//! helper has not taken the q-half yet (it is busy, asleep or slow), the
//! caller takes it back and computes it too; otherwise it waits for the
//! helper's result, for a counted budget that grows with the half's cost
//! ([`wait_budget`]). A caller whose budget runs out (the OS has taken
//! the helper off its core) marks the job abandoned and computes the
//! half itself; the helper drops its late result and frees the slot.
//! Either way each half is the same number, so every signature and
//! decryption is byte-identical to the serial one.
//!
//! A half is posted only when [`offload`] says so: with a second core to
//! run it on, and only while no `tpnr_par` fan-out is running. A fan-out
//! puts a worker on each core it asks for, so a helper running beside it
//! would only take time from those workers.
//!
//! The helper is spawned on first use and has a single job slot. Posting,
//! taking and taking back are compare-and-swaps on one state word; the
//! job's data sits in a `Mutex` that only the state word's owner locks, so
//! no lock is ever contended. A job is an `Arc` clone of the key's CRT
//! constants plus the input's limbs, so no operation allocates. After a
//! job the helper spins [`SPIN`] iterations, counted rather than timed,
//! waiting for the next one (a transaction's private operations come a
//! few microseconds apart), then parks until a post wakes it. It never
//! panics: a panic inside a half is caught, and the caller then computes
//! that half itself. Like every std thread, it does not keep the process
//! alive.

use crate::limbs::FixedUint;
use crate::rsa::CrtParts;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// The widest fixed width, in limbs: every half crosses threads at it.
pub(crate) const LIMBS: usize = 32;

/// Idle iterations the helper spins after a job before it parks, about
/// 0.5 ms on a 2-vCPU Xeon host (24 ns each). They span the gaps between
/// one transaction's private operations, and between transactions run back
/// to back, so only the first operation of a burst wakes the helper.
const SPIN: u32 = 20_000;

/// Waiting iterations between two yields while the caller waits for a
/// half the helper took.
const YIELD_EVERY: u32 = 1 << 10;

/// Waiting iterations a caller gives a half the helper took, per cubed
/// limb of the half's width (a half's cost grows about as its width
/// cubed): 2,048 at 512-bit keys, about 50 µs here against a half's
/// 6 µs, and 131,072 at 2,048 bits against a half's 1 ms.
const WAIT_PER_CUBED_LIMB: usize = 32;

/// The iterations a caller waits for a helper's half of `limbs` limbs.
fn wait_budget(limbs: usize) -> u32 {
    u32::try_from(WAIT_PER_CUBED_LIMB * limbs.pow(3)).unwrap_or(u32::MAX)
}

/// Whether a private operation posts its q-half: only with a second core
/// to run it, and only while no fan-out has put a worker on every core.
pub(crate) fn offload(cores: usize, fanout_running: bool) -> bool {
    cores >= 2 && !fanout_running
}

/// The two halves `(p_half(), q_half())` of a private operation on `x`
/// with `key`, the q-half computed by the helper when it is free.
pub(crate) fn both_halves<const N: usize>(
    key: &Arc<CrtParts>,
    x: &[FixedUint<N>; 2],
    p_half: impl FnOnce() -> FixedUint<N>,
    q_half: impl FnOnce() -> FixedUint<N>,
) -> (FixedUint<N>, FixedUint<N>) {
    let posted = offload(cores(), tpnr_par::fanouts_running() > 0) && post(key, x);
    let m1 = p_half();
    let helped = if posted { collect(wait_budget(N)) } else { None };
    (m1, helped.map_or_else(q_half, |m2| m2.resize()))
}

/// The host's core count, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(tpnr_par::available_parallelism)
}

/// The slot is free.
const IDLE: u8 = 0;
/// A caller owns the slot: it is writing a job or clearing one it took back.
const OWNED: u8 = 1;
/// A job waits for the helper.
const POSTED: u8 = 2;
/// The helper is computing the job.
const TAKEN: u8 = 3;
/// The job's result waits for its caller.
const DONE: u8 = 4;
/// The caller stopped waiting for the job the helper is computing and
/// computed it itself; the helper drops the result and frees the slot.
const ABANDONED: u8 = 5;

/// The helper's single job slot. `state` says who may lock `job`.
struct Slot {
    state: AtomicU8,
    /// Set by the helper just before it parks; a post that clears it
    /// unparks the helper.
    parked: AtomicBool,
    job: Mutex<Job>,
}

struct Job {
    key: Option<Arc<CrtParts>>,
    input: [FixedUint<LIMBS>; 2],
    /// `None` if the half panicked on the helper.
    result: Option<FixedUint<LIMBS>>,
    /// Whether the helper holds this job until its caller abandons it.
    #[cfg(test)]
    stall: bool,
}

static SLOT: Slot = Slot {
    state: AtomicU8::new(IDLE),
    parked: AtomicBool::new(false),
    job: Mutex::new(Job {
        key: None,
        input: [FixedUint::zero(), FixedUint::zero()],
        result: None,
        #[cfg(test)]
        stall: false,
    }),
};

impl Slot {
    /// The job; never contended, since only the state's owner locks it.
    fn job(&self) -> MutexGuard<'_, Job> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// Halves the helper computed for this thread's operations.
    static HELPED: Cell<u64> = const { Cell::new(0) };
}

/// Halves the helper has computed for operations on the calling thread.
#[cfg(test)]
pub(crate) fn helped_here() -> u64 {
    HELPED.with(Cell::get)
}

#[cfg(test)]
thread_local! {
    /// Whether this thread's next posted job stalls the helper.
    static STALL_NEXT: Cell<bool> = const { Cell::new(false) };
    /// Halves this thread's operations gave up waiting for.
    static ABANDONED_HERE: Cell<u64> = const { Cell::new(0) };
}

/// Makes the helper hold this thread's next posted half until its caller
/// gives up waiting, as a descheduled helper would.
#[cfg(test)]
pub(crate) fn stall_next_half() {
    STALL_NEXT.with(|s| s.set(true));
}

/// Halves operations on the calling thread gave up waiting for.
#[cfg(test)]
pub(crate) fn abandoned_here() -> u64 {
    ABANDONED_HERE.with(Cell::get)
}

/// The helper thread, spawned by the first call; `None` if the OS refused
/// it, and then every operation stays serial.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    HELPER
        .get_or_init(|| thread::Builder::new().spawn(serve).ok().map(|h| h.thread().clone()))
        .as_ref()
}

/// Posts the q-half of the operation on `x` with `key`; false when there
/// is no helper or another thread's job holds the slot.
fn post<const N: usize>(key: &Arc<CrtParts>, x: &[FixedUint<N>; 2]) -> bool {
    let Some(helper) = helper() else {
        return false;
    };
    if SLOT.state.compare_exchange(IDLE, OWNED, Ordering::Acquire, Ordering::Relaxed).is_err() {
        return false;
    }
    {
        let mut job = SLOT.job();
        job.key = Some(Arc::clone(key));
        job.input = x.map(|half| half.resize());
        #[cfg(test)]
        {
            job.stall = STALL_NEXT.with(|s| s.replace(false));
        }
    }
    // SeqCst on both sides of the `parked` handshake: either this store
    // is seen by the helper's check before it parks, or its `parked` flag
    // is seen here and the helper is unparked.
    SLOT.state.store(POSTED, Ordering::SeqCst);
    if SLOT.parked.swap(false, Ordering::SeqCst) {
        helper.unpark();
    }
    true
}

/// The helper's result for the posted job, or `None` once the caller has
/// taken the job back, has waited `budget` iterations for it and
/// abandoned it, or the half panicked on the helper; the caller then
/// computes the half itself.
fn collect(budget: u32) -> Option<FixedUint<LIMBS>> {
    if SLOT.state.compare_exchange(POSTED, OWNED, Ordering::Acquire, Ordering::Relaxed).is_ok() {
        SLOT.job().key = None;
        SLOT.state.store(IDLE, Ordering::Release);
        return None;
    }
    let mut waited = 0u32;
    while SLOT.state.load(Ordering::Acquire) != DONE {
        waited = waited.saturating_add(1);
        // Only the helper moves the job on from `TAKEN`, to `DONE`: if
        // this fails, the result is there.
        if waited >= budget
            && SLOT
                .state
                .compare_exchange(TAKEN, ABANDONED, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            #[cfg(test)]
            ABANDONED_HERE.with(|n| n.set(n.get() + 1));
            return None;
        }
        if waited & (YIELD_EVERY - 1) == 0 {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    let result = SLOT.job().result.take();
    SLOT.state.store(IDLE, Ordering::Release);
    if result.is_some() {
        // `try_with`: a thread being torn down may still sign.
        let _ = HELPED.try_with(|n| n.set(n.get() + 1));
    }
    result
}

/// The helper's loop: take a posted job, compute it, publish the result;
/// between jobs spin [`SPIN`] iterations, then park.
fn serve() {
    let mut spins = 0u32;
    loop {
        if SLOT.state.load(Ordering::Relaxed) == POSTED
            && SLOT
                .state
                .compare_exchange(POSTED, TAKEN, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            let (key, input) = {
                let mut job = SLOT.job();
                (job.key.take(), job.input)
            };
            // A stalled job waits for its caller to give up, or, should
            // the caller wait without bound, for long enough to show it.
            #[cfg(test)]
            if SLOT.job().stall {
                for _ in 0..1 << 16 {
                    if SLOT.state.load(Ordering::Relaxed) == ABANDONED {
                        break;
                    }
                    thread::yield_now();
                }
            }
            let result = key.and_then(|key| {
                catch_unwind(AssertUnwindSafe(|| key.q_half(&input))).ok().flatten()
            });
            SLOT.job().result = result;
            let published =
                SLOT.state.compare_exchange(TAKEN, DONE, Ordering::Release, Ordering::Relaxed);
            if published.is_err() {
                // Abandoned: the caller computed the half itself.
                SLOT.job().result = None;
                SLOT.state.store(IDLE, Ordering::Release);
            }
            spins = SPIN;
        } else if spins > 0 {
            spins -= 1;
            std::hint::spin_loop();
        } else {
            SLOT.parked.store(true, Ordering::SeqCst);
            if SLOT.state.load(Ordering::SeqCst) != POSTED {
                thread::park();
            }
            SLOT.parked.store(false, Ordering::Relaxed);
            // A wake means operations are running again: stay ready for
            // the next one.
            spins = SPIN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wait_budget_grows_with_the_cube_of_a_halfs_width() {
        assert_eq!(wait_budget(4), 2_048);
        assert_eq!(wait_budget(16), 131_072);
        assert_eq!(wait_budget(LIMBS), 1 << 20);
    }

    #[test]
    fn a_single_core_host_never_offloads() {
        assert!(!offload(0, false));
        assert!(!offload(1, false));
        assert!(!offload(1, true));
        assert!(!offload(2, true));
        assert!(!offload(64, true));
        assert!(offload(2, false));
        assert!(offload(64, false));
    }
}
