//! Random number generation.
//!
//! [`ChaChaRng`] is a deterministic ChaCha20-based generator, always seeded
//! by its caller (a 32-byte seed, or a `u64` expanded by SHA-256): tests,
//! the discrete-event simulator and replayable attack traces require
//! determinism (DESIGN.md §4.1). It never reads OS entropy, so keys drawn
//! from it are only as secret as their seed.

use crate::chacha20;

/// ChaCha20-based deterministic random generator.
///
/// Not `rand`-trait based on purpose: the whole workspace draws randomness
/// through this one type so simulations replay bit-for-bit.
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buf: [u8; 64],
    buf_pos: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng { key: seed, nonce: [0; 12], counter: 0, buf: [0; 64], buf_pos: 64 }
    }

    /// Creates a generator from a `u64` seed (convenience for tests and
    /// experiment sweeps; the seed is expanded by hashing).
    pub fn seed_from_u64(seed: u64) -> Self {
        let digest = crate::sha2::Sha256::digest(&seed.to_le_bytes());
        use crate::hash::Digest as _;
        let mut s = [0u8; 32];
        s.copy_from_slice(&digest);
        Self::from_seed(s)
    }

    fn refill(&mut self) {
        self.buf = chacha20::block(&self.key, &self.nonce, self.counter);
        self.counter = self.counter.checked_add(1).unwrap_or_else(|| {
            // Counter exhausted (2^32 blocks = 256 GiB): roll the nonce.
            for b in self.nonce.iter_mut() {
                *b = b.wrapping_add(1);
                if *b != 0 {
                    break;
                }
            }
            0
        });
        self.buf_pos = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut i = 0;
        while i < dest.len() {
            if self.buf_pos == 64 {
                self.refill();
            }
            let take = (64 - self.buf_pos).min(dest.len() - i);
            dest[i..i + take].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            i += take;
        }
    }

    /// Returns `n` random bytes.
    pub fn gen_bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a uniform random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Uniform value in `[0, bound)` via rejection sampling. Panics if
    /// `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection zone keeps the distribution exactly uniform.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.gen_below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaChaRng::from_seed([42; 32]);
        let mut b = ChaChaRng::from_seed([42; 32]);
        assert_eq!(a.gen_bytes(100), b.gen_bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaChaRng::from_seed([1; 32]);
        let mut b = ChaChaRng::from_seed([2; 32]);
        assert_ne!(a.gen_bytes(32), b.gen_bytes(32));
    }

    #[test]
    fn u64_seed_expansion() {
        let mut a = ChaChaRng::seed_from_u64(7);
        let mut b = ChaChaRng::seed_from_u64(7);
        let mut c = ChaChaRng::seed_from_u64(8);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_below_in_range_and_covers() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_below_power_of_two() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(rng.gen_below(16) < 16);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_below_zero_panics() {
        ChaChaRng::seed_from_u64(0).gen_below(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_rate_roughly_matches() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }

    #[test]
    fn fill_spans_block_boundaries() {
        let mut a = ChaChaRng::from_seed([9; 32]);
        let mut whole = vec![0u8; 200];
        a.fill_bytes(&mut whole);
        let mut b = ChaChaRng::from_seed([9; 32]);
        let mut parts = vec![0u8; 200];
        for chunk in parts.chunks_mut(13) {
            b.fill_bytes(chunk);
        }
        assert_eq!(whole, parts);
    }
}
