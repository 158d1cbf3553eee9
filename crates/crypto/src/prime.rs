//! Probabilistic prime generation for RSA key material.
//!
//! Trial division by small primes followed by Miller–Rabin. With 40
//! witness rounds the error probability is < 2⁻⁸⁰, standard for RSA.
//! A candidate that fits the fixed-limb kernels builds its Montgomery
//! context, the window schedule of `d` and the Montgomery form of `n − 1`
//! once, and runs every witness on them.

use crate::bigint::{BigUint, WindowSchedule};
use crate::limbs::{FixedMontgomeryCtx, FixedUint};
use crate::rng::ChaChaRng;
use std::cmp::Ordering;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin witness rounds (error < 4^-40).
pub const MR_ROUNDS: usize = 40;

/// Miller–Rabin probabilistic primality test.
///
/// Returns `true` if `n` is probably prime after `rounds` random witnesses.
/// `rounds` is clamped to at least 1: a zero-round test would vacuously
/// accept every odd composite that survives trial division, so there is no
/// legitimate use for it (regression: `zero_rounds_cannot_accept_composites`).
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut ChaChaRng) -> bool {
    let rounds = rounds.max(1);
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.limbs() == [p] {
            return true;
        }
        // n mod p from the limbs, most significant first.
        let residue = n.limbs().iter().rev().fold(0u64, |r, &limb| {
            ((u128::from(r) << 64 | u128::from(limb)) % u128::from(p)) as u64
        });
        if residue == 0 {
            return false;
        }
    }

    // Write n - 1 = d · 2^r with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr(1);
        r += 1;
    }

    let fixed = match n.limbs().len() {
        0..=4 => fixed_witnesses_pass::<4>(n, &n_minus_1, &d, r, rounds, rng),
        5..=8 => fixed_witnesses_pass::<8>(n, &n_minus_1, &d, r, rounds, rng),
        9..=16 => fixed_witnesses_pass::<16>(n, &n_minus_1, &d, r, rounds, rng),
        17..=32 => fixed_witnesses_pass::<32>(n, &n_minus_1, &d, r, rounds, rng),
        _ => None,
    };
    fixed.unwrap_or_else(|| {
        // Wider than every fixed kernel: plain BigUint residues.
        let lift = |be: &[u8]| {
            Some(BigUint::from_bytes_be(be))
                .filter(|a| !a.is_zero() && !a.is_one() && a.cmp_big(&n_minus_1) == Ordering::Less)
        };
        witnesses_pass(
            rounds,
            r,
            [BigUint::one(), n_minus_1.clone()],
            || draw_witness(rng, n.bit_len(), lift).mod_pow(&d, n),
            |x| x.mul_mod(x, n),
        )
    })
}

/// The witness rounds on the `N`-limb kernel, in Montgomery form: one
/// context, one schedule of `d` and one `n − 1` serve every witness.
/// Montgomery forms are canonical (below `n`), so comparing them compares
/// the values. `None` when `n` does not fit `N` limbs.
fn fixed_witnesses_pass<const N: usize>(
    n: &BigUint,
    n_minus_1: &BigUint,
    d: &BigUint,
    r: usize,
    rounds: usize,
    rng: &mut ChaChaRng,
) -> Option<bool> {
    let ctx = FixedMontgomeryCtx::<N>::new(n)?;
    let n_minus_1 = FixedUint::<N>::from_biguint(n_minus_1)?;
    let d = WindowSchedule::new(d);
    let lift = |be: &[u8]| {
        FixedUint::<N>::from_be_bytes(be).filter(|a| {
            !a.is_zero() && *a != FixedUint::one() && a.cmp_fixed(&n_minus_1) == Ordering::Less
        })
    };
    Some(witnesses_pass(
        rounds,
        r,
        [ctx.one(), ctx.to_mont(&n_minus_1)],
        || ctx.pow_mont(&ctx.to_mont(&draw_witness(rng, n.bit_len(), lift)), &d),
        |x| ctx.mul(x, x),
    ))
}

/// Runs `rounds` Miller–Rabin witnesses against `n − 1 = d·2^r` in one
/// representation of the residues mod `n` in which each residue has a
/// single form: `one` and `minus_one` are 1 and `n − 1`, `witness_to_d`
/// draws a fresh witness and raises it to `d`, `square` squares.
fn witnesses_pass<X: PartialEq>(
    rounds: usize,
    r: usize,
    [one, minus_one]: [X; 2],
    mut witness_to_d: impl FnMut() -> X,
    square: impl Fn(&X) -> X,
) -> bool {
    'witness: for _ in 0..rounds {
        let mut x = witness_to_d();
        if x == one || x == minus_one {
            continue 'witness;
        }
        for _ in 1..r {
            x = square(&x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Draws a witness uniform over [2, n − 2] for an `n` of `bits` bits:
/// `bits` random bits per draw, rejection-sampled by `lift`, which keeps
/// a big-endian candidate iff it lies in that range. The old `rem(n)` fold
/// had modulo bias — witnesses below 2^(8·n_bytes) mod n were twice as
/// likely — which skews the sampled witness set exactly where adversarial
/// pseudoprimes concentrate their non-witnesses.
fn draw_witness<X>(rng: &mut ChaChaRng, bits: usize, lift: impl Fn(&[u8]) -> Option<X>) -> X {
    let n_bytes = bits.div_ceil(8);
    let excess = n_bytes * 8 - bits;
    loop {
        let mut raw = rng.gen_bytes(n_bytes);
        if let Some(first) = raw.first_mut() {
            *first &= 0xffu8 >> excess;
        }
        if let Some(a) = lift(&raw) {
            return a;
        }
    }
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so products of two such primes have the
/// full target width — the RSA convention) and the low bit to 1.
pub fn gen_prime(bits: usize, rng: &mut ChaChaRng) -> BigUint {
    assert!(bits >= 16, "prime size too small to be meaningful");
    let bytes = bits.div_ceil(8);
    loop {
        let mut raw = rng.gen_bytes(bytes);
        // Trim to exactly `bits` bits.
        let excess = bytes * 8 - bits;
        if let Some(first) = raw.first_mut() {
            *first &= 0xffu8 >> excess;
        }
        let mut cand = BigUint::from_bytes_be(&raw);
        cand.set_bit(bits - 1);
        cand.set_bit(bits - 2);
        cand.set_bit(0);
        if is_probable_prime(&cand, MR_ROUNDS, rng) {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn small_primes_accepted() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 211, 65537, 2147483647] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 20, &mut r), "{p} should be prime");
        }
    }

    #[test]
    fn composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 100, 561, 1105, 6601, 65537 * 3] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 20, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that Miller–Rabin must catch.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), 20, &mut r), "{c}");
        }
    }

    #[test]
    fn mersenne_prime_61() {
        let mut r = rng();
        let p = BigUint::from_u64((1u64 << 61) - 1);
        assert!(is_probable_prime(&p, 20, &mut r));
    }

    #[test]
    fn generated_prime_has_requested_width() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit forced for RSA width");
        }
    }

    #[test]
    fn zero_rounds_cannot_accept_composites() {
        // Regression: rounds == 0 used to skip the witness loop entirely and
        // return true for any odd composite that survives trial division.
        let mut r = rng();
        // 290 101 = 521 · 557: odd, no factor ≤ 211.
        let c = BigUint::from_u64(521 * 557);
        assert!(!is_probable_prime(&c, 0, &mut r));
        // And a prime still passes with rounds == 0 (clamped to 1).
        assert!(is_probable_prime(&BigUint::from_u64((1u64 << 61) - 1), 0, &mut r));
    }

    #[test]
    fn strong_pseudoprime_to_base_2_rejected() {
        // 2047 = 23 · 89 is a strong pseudoprime to base 2; unbiased random
        // witnesses across several rounds must still reject it.
        let mut r = rng();
        assert!(!is_probable_prime(&BigUint::from_u64(2047), 8, &mut r));
    }

    #[test]
    fn generated_primes_differ() {
        let mut r = rng();
        let a = gen_prime(128, &mut r);
        let b = gen_prime(128, &mut r);
        assert_ne!(a, b);
    }
}
