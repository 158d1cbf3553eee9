//! Host-speed calibration.
//!
//! On a shared host each vCPU is one hyperthread of a core whose other
//! hyperthread belongs to someone else. While that sibling is busy the
//! program runs up to twice as slow, for stretches of milliseconds to
//! minutes, so plain throughput measures the neighbours as much as the
//! program. A calibration kernel, run by the benchmark on the same thread
//! before and after each block of work, slows down with the core: dividing
//! the block's time by the kernel's time around it leaves the program's own
//! cost. The kernel is the benchmark's own code, never the program's, so a
//! change to the program moves the block times and not the yardstick.
//!
//! A busy sibling slows throughput-bound arithmetic most and a chain of
//! dependent operations hardly at all, so the kernel mixes the two the way
//! the workloads do: three quarters of its time a multiply-accumulate over
//! eight 64-bit limbs, the instruction mix of the program's RSA and
//! envelope arithmetic; one quarter a dependent multiply-xor-shift chain,
//! standing in for the latency-bound bookkeeping around it. Fitted on
//! block-level traces of `session` and `fleet`, this mix left less spread
//! between runs than either part alone.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in µs, on the core the calibrated times are
/// expressed for: an idle-sibling core of the 2-vCPU Xeon host the
/// benchmark was tuned on, so calibrated rates read as that core's.
pub const NOMINAL_US: f64 = 65.0;

/// Multiply-accumulate rounds per measurement, about 45 µs on that core.
const ROUNDS: u64 = 1_000;
/// Chain steps per measurement, about 20 µs on that core.
const CHAIN_STEPS: u64 = 12_000;

/// Host µs of one kernel measurement on the calling thread.
pub fn kernel_us() -> f64 {
    let t = Instant::now();
    black_box(multiply_accumulate(black_box(ROUNDS)));
    black_box(dependent_chain(black_box(CHAIN_STEPS)));
    t.elapsed().as_secs_f64() * 1e6
}

/// `seconds` of work measured between two kernel measurements `before_us`
/// and `after_us`, expressed in seconds on the nominal core.
pub fn nominal_s(seconds: f64, before_us: f64, after_us: f64) -> f64 {
    seconds * NOMINAL_US / (0.5 * (before_us + after_us))
}

fn multiply_accumulate(rounds: u64) -> u64 {
    let mut x = [0x1234_5678_9abc_def1u64, 3, 5, 7, 11, 13, 17, 19];
    let y = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
        1,
        2,
        3,
        4,
    ];
    for _ in 0..rounds {
        let mut t = [0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let v = u128::from(x[i]) * u128::from(y[j]) + u128::from(t[i + j]) + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            t[i + 8] = carry as u64;
        }
        for i in 0..8 {
            x[i] = t[i + 4] ^ t[i];
        }
    }
    x[0]
}

fn dependent_chain(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..steps {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i) ^ (x >> 29);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(multiply_accumulate(10), multiply_accumulate(10));
        assert_ne!(multiply_accumulate(10), multiply_accumulate(11));
        assert_ne!(dependent_chain(10), dependent_chain(11));
        assert!(kernel_us() > 0.0);
    }

    #[test]
    fn a_slow_core_scales_back_to_nominal() {
        // A block that took 2 ms while the kernel ran at twice its nominal
        // time took 1 ms of a nominal core.
        let slow = 2.0 * NOMINAL_US;
        assert!((nominal_s(0.002, slow, slow) - 0.001).abs() < 1e-12);
        assert!((nominal_s(0.001, NOMINAL_US, NOMINAL_US) - 0.001).abs() < 1e-12);
    }
}
