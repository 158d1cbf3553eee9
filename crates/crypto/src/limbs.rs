//! Stack-allocated fixed-width big integers and Montgomery kernels.
//!
//! [`crate::bigint::BigUint`] stores limbs in a `Vec<u64>`, so every ring
//! operation allocates — at E10 scale the evidence hot loop spends more time
//! in the allocator than in arithmetic. This module provides the fixed-width
//! counterpart in the `bigint_impl!` style of arkworks: a const-generic
//! [`FixedUint<N>`] (`[u64; N]`, little-endian) with carry-chain add/sub and
//! schoolbook widening multiply, plus [`FixedMontgomeryCtx<N>`], a CIOS
//! Montgomery multiplier whose scratch state is two stack arrays and two
//! scalar spill limbs — **zero heap allocations per modular multiply**.
//!
//! [`BigUint::mod_pow`] auto-selects these kernels for odd moduli of up to
//! 4 / 8 / 16 / 32 limbs (256/512/1024/2048-bit RSA moduli and their CRT
//! halves) and falls back to the `Vec`-backed path beyond that, so callers
//! never see the dispatch. RSA keys skip that per-call dispatch: each key
//! builds its [`FixedMontgomeryCtx`] for `n` and its [`FixedCrtCtx`] for
//! `p`, `q` once, and the private operation runs from input bytes to
//! output bytes on the stack ([`FixedCrtCtx::private_op`]).
//!
//! Exponentiation is left-to-right sliding-window with precomputed odd
//! powers: ~`bit_len` squarings plus ~`bit_len / (w+1)` multiplies instead
//! of the per-bit multiply of the classic path. The window width is a pure
//! function of the exponent's bit length (see [`window_bits`]), so the
//! operation sequence — and therefore any timing-visible behaviour in the
//! deterministic simulation — depends only on `(bit_len(exp), exp bits)`,
//! never on heap layout or platform.
//!
//! This file is the allocation-free hot path: the ALLOC-HOT pass of
//! `tpnr-lint` treats every function in it as a root and fails CI on any
//! allocation it reaches, with no allowlist entry for this file.
//! Conversions to and from heap-backed [`BigUint`] go through
//! [`BigUint::from_limb_slice`], which lives (and allocates) on the
//! `bigint` side of the boundary; byte strings are read and written in
//! place ([`FixedUint::from_be_bytes`], [`FixedUint::write_be_bytes`]).

use crate::bigint::BigUint;
use std::cmp::Ordering;

/// A fixed-width unsigned integer of `N` 64-bit limbs, little-endian.
///
/// Unlike [`BigUint`] there is no canonical-form invariant: high limbs may
/// be zero. Values are compared over the full width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FixedUint<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> FixedUint<N> {
    /// The value zero.
    pub const fn zero() -> Self {
        FixedUint { limbs: [0; N] }
    }

    /// The value one.
    pub fn one() -> Self {
        let mut limbs = [0u64; N];
        if let Some(lo) = limbs.first_mut() {
            *lo = 1;
        }
        FixedUint { limbs }
    }

    /// Builds from a heap-backed integer; `None` if it needs more than `N`
    /// limbs.
    pub fn from_biguint(v: &BigUint) -> Option<Self> {
        let src = v.limbs();
        if src.len() > N {
            return None;
        }
        let mut limbs = [0u64; N];
        limbs[..src.len()].copy_from_slice(src);
        Some(FixedUint { limbs })
    }

    /// Reads a big-endian byte string; `None` if the value needs more than
    /// `N` limbs (leading zero bytes are fine).
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Self> {
        let mut limbs = [0u64; N];
        read_be_limbs(bytes, &mut limbs).then_some(FixedUint { limbs })
    }

    /// Writes the value as exactly `out.len()` big-endian bytes, left-padded
    /// with zeros; false (with `out` unspecified) if it does not fit.
    pub fn write_be_bytes(&self, out: &mut [u8]) -> bool {
        write_be_limbs(&self.limbs, out)
    }

    /// Converts into the heap-backed representation (normalising high
    /// zero limbs).
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limb_slice(&self.limbs)
    }

    /// Borrows the little-endian limbs.
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// True iff every limb is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Full-width three-way comparison.
    pub fn cmp_fixed(&self, other: &Self) -> Ordering {
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Carry-chain addition; returns `(sum mod 2^(64N), carry_out)`.
    pub fn add_carry(&self, other: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = c1 as u64 + c2 as u64;
        }
        (FixedUint { limbs: out }, carry)
    }

    /// Borrow-chain subtraction; returns `(diff mod 2^(64N), borrow_out)`.
    pub fn sub_borrow(&self, other: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = b1 as u64 + b2 as u64;
        }
        (FixedUint { limbs: out }, borrow)
    }

    /// Schoolbook widening multiplication; returns `(low N limbs, high N
    /// limbs)` of the 2N-limb product. Stack-only.
    pub fn mul_wide(&self, other: &Self) -> (Self, Self) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let pos = i + j;
                let cell = if pos < N { &mut lo[pos] } else { &mut hi[pos - N] };
                let t = *cell as u128 + (a as u128) * (b as u128) + carry;
                *cell = t as u64;
                carry = t >> 64;
            }
            let mut pos = i + N;
            while carry != 0 && pos < 2 * N {
                let cell = if pos < N { &mut lo[pos] } else { &mut hi[pos - N] };
                let t = *cell as u128 + carry;
                *cell = t as u64;
                carry = t >> 64;
                pos += 1;
            }
        }
        (FixedUint { limbs: lo }, FixedUint { limbs: hi })
    }
}

/// Fills little-endian `limbs` from a big-endian byte string; false if the
/// value does not fit.
fn read_be_limbs(bytes: &[u8], limbs: &mut [u64]) -> bool {
    limbs.fill(0);
    for (i, chunk) in bytes.rchunks(8).enumerate() {
        let limb = chunk.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        match limbs.get_mut(i) {
            Some(slot) => *slot = limb,
            None if limb == 0 => {}
            None => return false,
        }
    }
    true
}

/// Writes little-endian `limbs` as exactly `out.len()` big-endian bytes,
/// left-padded with zeros; false if a set byte falls outside `out`.
fn write_be_limbs(limbs: &[u64], out: &mut [u8]) -> bool {
    let byte = |i: usize| limbs.get(i / 8).map_or(0, |l| (l >> (8 * (i % 8))) as u8);
    for (i, o) in out.iter_mut().rev().enumerate() {
        *o = byte(i);
    }
    (out.len()..limbs.len() * 8).all(|i| byte(i) == 0)
}

/// Sliding-window width as a pure function of the exponent bit length.
///
/// Deterministic by construction: two exponents of equal bit length use the
/// same width, so the squaring/multiply schedule depends only on the
/// exponent's bits — never on the value of the base or on heap state.
pub fn window_bits(exp_bits: usize) -> usize {
    match exp_bits {
        0..=23 => 2,
        24..=79 => 3,
        80..=239 => 4,
        _ => 5,
    }
}

/// Largest precomputed-odd-powers table any window width needs
/// (`2^(5-1)` entries for w = 5).
const MAX_TABLE: usize = 16;

/// CIOS Montgomery multiplication context over a fixed width.
///
/// `R = 2^(64·N)`. The modulus must be odd, greater than one and fit in `N`
/// limbs. All per-multiply state lives on the stack; building the context
/// performs the only heap work (computing `R mod n` / `R² mod n` via
/// [`BigUint`]): once per key for the RSA keys, which keep theirs, and
/// once per call for [`BigUint::mod_pow`].
pub struct FixedMontgomeryCtx<const N: usize> {
    /// The modulus.
    n: [u64; N],
    /// Low limb of the modulus, hoisted out of the reduction loop.
    n0: u64,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R mod n` — the value one in Montgomery form.
    r1: FixedUint<N>,
    /// `R² mod n` — the to-Montgomery conversion factor.
    r2: FixedUint<N>,
}

impl<const N: usize> FixedMontgomeryCtx<N> {
    /// Builds a context for an odd `modulus > 1` of at most `N` limbs;
    /// `None` if the modulus is even, trivial or too wide.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if N == 0 || modulus.is_even() || modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let n_fixed = FixedUint::<N>::from_biguint(modulus)?;
        let n0 = modulus.low_u64();
        // Newton iteration for n0^{-1} mod 2^64 (odd n0 ⇒ invertible).
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n_prime = inv.wrapping_neg();
        let r1 = FixedUint::from_biguint(&BigUint::one().shl(64 * N).rem(modulus))?;
        let r2 = FixedUint::from_biguint(&BigUint::one().shl(64 * N * 2).rem(modulus))?;
        Some(FixedMontgomeryCtx { n: *n_fixed.limbs(), n0, n_prime, r1, r2 })
    }

    /// The value one in Montgomery form (`R mod n`).
    pub fn one(&self) -> FixedUint<N> {
        self.r1
    }

    /// Montgomery product `a·b·R^{-1} mod n` (inputs in Montgomery form).
    ///
    /// CIOS with the two spill limbs (`t[N]`, `t[N+1]`) kept in scalars:
    /// no heap traffic, no bounds checks beyond the const-width arrays.
    pub fn mul(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        let mut t = [0u64; N];
        let mut t_n = 0u64; // t[N]
        let mut t_n1 = 0u64; // t[N+1]
        for &ai in a.limbs.iter() {
            // t += ai · b
            let mut carry = 0u128;
            for (tj, &bj) in t.iter_mut().zip(&b.limbs) {
                let s = *tj as u128 + (ai as u128) * (bj as u128) + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t_n as u128 + carry;
            t_n = s as u64;
            t_n1 = (s >> 64) as u64;

            // m = t[0]·n' mod 2^64; t = (t + m·n) / 2^64
            let t0 = t.first().copied().unwrap_or(0);
            let m = t0.wrapping_mul(self.n_prime);
            let s = t0 as u128 + (m as u128) * (self.n0 as u128);
            let mut carry = s >> 64;
            for j in 1..N {
                let s = t[j] as u128 + (m as u128) * (self.n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t_n as u128 + carry;
            t[N - 1] = s as u64;
            carry = s >> 64;
            let s = t_n1 as u128 + carry;
            t_n = s as u64;
            t_n1 = (s >> 64) as u64;
        }
        debug_assert_eq!(t_n1, 0);
        self.reduce_once(t, t_n)
    }

    /// Completes a Montgomery reduction: `t + spill·R < 2n`, so one
    /// conditional subtraction lands below `n`. A set spill limb is
    /// cancelled exactly by the subtraction borrow.
    #[inline]
    fn reduce_once(&self, t: [u64; N], spill: u64) -> FixedUint<N> {
        let result = FixedUint { limbs: t };
        let n_fixed = self.modulus();
        if spill != 0 || result.cmp_fixed(&n_fixed) != Ordering::Less {
            let (d, borrow) = result.sub_borrow(&n_fixed);
            debug_assert_eq!(borrow, spill);
            d
        } else {
            result
        }
    }

    /// The modulus.
    fn modulus(&self) -> FixedUint<N> {
        FixedUint { limbs: self.n }
    }

    /// Montgomery reduction of a double-width value: `(hi·R + lo)·R⁻¹ mod
    /// n`. The value must be below `n·R`, which any product of `n` with
    /// another `N`-limb number is.
    pub fn redc_wide(&self, lo: &FixedUint<N>, hi: &FixedUint<N>) -> FixedUint<N> {
        let (mut t, mut u) = (lo.limbs, hi.limbs);
        // Carry out of u[i] from the previous round: it belongs at
        // u[i + 1], which this round's row does not reach.
        let mut top = 0u64;
        for i in 0..N {
            // t += m·n·2^(64i) zeroes limb i.
            let m = t[i].wrapping_mul(self.n_prime);
            let mut carry = 0u128;
            for (j, &nj) in self.n.iter().enumerate() {
                let cell = if i + j < N { &mut t[i + j] } else { &mut u[i + j - N] };
                let s = *cell as u128 + (m as u128) * (nj as u128) + carry;
                *cell = s as u64;
                carry = s >> 64;
            }
            let s = u[i] as u128 + carry + top as u128;
            u[i] = s as u64;
            top = (s >> 64) as u64;
        }
        self.reduce_once(u, top)
    }

    /// Converts into Montgomery form: `a·R mod n`.
    pub fn to_mont(&self, a: &FixedUint<N>) -> FixedUint<N> {
        self.mul(a, &self.r2)
    }

    /// Converts out of Montgomery form: `a·R^{-1} mod n`.
    pub fn from_mont(&self, a: &FixedUint<N>) -> FixedUint<N> {
        self.mul(a, &FixedUint::one())
    }

    /// Sliding-window exponentiation on a Montgomery-form base; the result
    /// stays in Montgomery form.
    ///
    /// Left-to-right: runs of zero bits cost one squaring each; each window
    /// ending in a set bit costs `width` squarings plus one multiply by a
    /// precomputed odd power. The table (≤ 16 entries) lives on the stack.
    pub fn pow_mont(&self, base_mont: &FixedUint<N>, exp: &BigUint) -> FixedUint<N> {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.r1;
        }
        let w = window_bits(bits);
        let table_len = 1usize << (w - 1);
        // table[i] = base^(2i+1) in Montgomery form.
        let sq = self.mul(base_mont, base_mont);
        let mut table = [*base_mont; MAX_TABLE];
        for i in 1..table_len {
            table[i] = self.mul(&table[i - 1], &sq);
        }
        let mut acc = self.r1;
        let mut i = bits; // exclusive upper cursor: bits [0, i) remain
        while i > 0 {
            if !exp.bit(i - 1) {
                acc = self.mul(&acc, &acc);
                i -= 1;
                continue;
            }
            // Window [j, i): at most `w` bits, ending (at j) in a set bit so
            // the window value is odd and lives in the table.
            let mut j = i.saturating_sub(w);
            while !exp.bit(j) {
                j += 1;
            }
            let mut val = 0usize;
            for b in (j..i).rev() {
                val = (val << 1) | exp.bit(b) as usize;
            }
            for _ in 0..i - j {
                acc = self.mul(&acc, &acc);
            }
            acc = self.mul(&acc, &table[(val - 1) / 2]);
            i = j;
        }
        acc
    }

    /// Full modular exponentiation `base^exp mod n` in the normal domain.
    pub fn pow(&self, base: &FixedUint<N>, exp: &BigUint) -> FixedUint<N> {
        if exp.is_zero() {
            return FixedUint::one();
        }
        let base_mont = self.to_mont(base);
        let acc = self.pow_mont(&base_mont, exp);
        self.from_mont(&acc)
    }

    /// `base^exp mod n` from big-endian bytes to big-endian bytes: the
    /// result fills exactly `out.len()` bytes, left-padded. False (with
    /// `out` unspecified) when `base` is not below `n` or the result does
    /// not fit `out`.
    pub fn pow_be_bytes(&self, base: &[u8], exp: &BigUint, out: &mut [u8]) -> bool {
        match FixedUint::<N>::from_be_bytes(base) {
            Some(b) if b.cmp_fixed(&self.modulus()) == Ordering::Less => {
                self.pow(&b, exp).write_be_bytes(out)
            }
            _ => false,
        }
    }
}

/// The CRT private operation of one RSA key whose primes fit `N` limbs,
/// with every constant that depends only on the key precomputed.
///
/// For an input `c < pq` it computes `c^d mod pq` as
/// `m1 = c^dp mod p`, `m2 = c^dq mod q`, `h = (m1 − m2)·qinv mod p`,
/// `m2 + h·q`: the same numbers as the heap-backed CRT, so the output is
/// byte-identical. The input is read into `2N` limbs; a REDC of that wide
/// value and one multiply by `R³` put it in Montgomery form mod `p` (and
/// `q`) with no division. Nothing is allocated.
pub struct FixedCrtCtx<const N: usize> {
    /// Montgomery context of the larger prime `p`.
    p: FixedMontgomeryCtx<N>,
    /// Montgomery context of the smaller prime `q`.
    q: FixedMontgomeryCtx<N>,
    /// `R³ mod p`.
    r3_p: FixedUint<N>,
    /// `R³ mod q`.
    r3_q: FixedUint<N>,
    /// `qinv·R mod p`: one Montgomery multiply applies `qinv`.
    qinv_r: FixedUint<N>,
    /// `pq` as (low, high) halves, to reject inputs that are not below it.
    pq: (FixedUint<N>, FixedUint<N>),
}

impl<const N: usize> FixedCrtCtx<N> {
    /// Builds the context for primes `p > q` of at most `N` limbs and
    /// `qinv = q⁻¹ mod p`; `None` if they do not qualify.
    pub fn new(p: &BigUint, q: &BigUint, qinv: &BigUint) -> Option<Self> {
        if q.cmp_big(p) != Ordering::Less || qinv.cmp_big(p) != Ordering::Less {
            return None;
        }
        let p_ctx = FixedMontgomeryCtx::<N>::new(p)?;
        let q_ctx = FixedMontgomeryCtx::<N>::new(q)?;
        let qinv = FixedUint::from_biguint(qinv)?;
        Some(FixedCrtCtx {
            // R²·R²·R⁻¹ = R³.
            r3_p: p_ctx.mul(&p_ctx.r2, &p_ctx.r2),
            r3_q: q_ctx.mul(&q_ctx.r2, &q_ctx.r2),
            qinv_r: p_ctx.to_mont(&qinv),
            pq: p_ctx.modulus().mul_wide(&q_ctx.modulus()),
            p: p_ctx,
            q: q_ctx,
        })
    }

    /// `input^d mod pq` from big-endian bytes to big-endian bytes, `d`
    /// given by its CRT exponents `dp = d mod (p−1)`, `dq = d mod (q−1)`.
    /// The result fills exactly `out.len()` bytes, left-padded. False (with
    /// `out` unspecified) when the input is not below `pq` or the result
    /// does not fit `out`.
    pub fn private_op(&self, input: &[u8], dp: &BigUint, dq: &BigUint, out: &mut [u8]) -> bool {
        let mut wide = [[0u64; N]; 2];
        if !read_be_limbs(input, wide.as_flattened_mut()) {
            return false;
        }
        let [lo, hi] = wide.map(|limbs| FixedUint { limbs });
        let (pq_lo, pq_hi) = &self.pq;
        if hi.cmp_fixed(pq_hi).then_with(|| lo.cmp_fixed(pq_lo)) != Ordering::Less {
            return false;
        }
        let m1 = Self::pow_half(&self.p, &self.r3_p, &lo, &hi, dp);
        let m2 = Self::pow_half(&self.q, &self.r3_q, &lo, &hi, dq);
        // Garner: m1, m2 < p (m2 < q < p), so one conditional add of p
        // brings m1 − m2 into [0, p).
        let (diff, borrow) = m1.sub_borrow(&m2);
        let diff = if borrow == 0 { diff } else { diff.add_carry(&self.p.modulus()).0 };
        let h = self.p.mul(&diff, &self.qinv_r);
        // m2 + h·q < pq fits the 2N limbs.
        let (s_lo, s_hi) = h.mul_wide(&self.q.modulus());
        let (s_lo, carry) = s_lo.add_carry(&m2);
        let s_hi = if carry == 0 { s_hi } else { s_hi.add_carry(&FixedUint::one()).0 };
        write_be_limbs([s_lo.limbs, s_hi.limbs].as_flattened(), out)
    }

    /// `(hi·R + lo)^exp mod m` for the wide input: REDC gives `x·R⁻¹`, the
    /// multiply by `R³` gives the Montgomery form `x·R`.
    fn pow_half(
        ctx: &FixedMontgomeryCtx<N>,
        r3: &FixedUint<N>,
        lo: &FixedUint<N>,
        hi: &FixedUint<N>,
        exp: &BigUint,
    ) -> FixedUint<N> {
        let x = ctx.mul(&ctx.redc_wide(lo, hi), r3);
        ctx.from_mont(&ctx.pow_mont(&x, exp))
    }
}

/// `base^exp mod modulus` through the `N`-limb fixed kernel, or `None` when
/// the modulus does not qualify (even, trivial, or wider than `N` limbs).
///
/// This is the dispatch target of [`BigUint::mod_pow`].
pub fn mod_pow_fixed<const N: usize>(
    base: &BigUint,
    exp: &BigUint,
    modulus: &BigUint,
) -> Option<BigUint> {
    let ctx = FixedMontgomeryCtx::<N>::new(modulus)?;
    let reduced = base.rem(modulus);
    let b = FixedUint::from_biguint(&reduced)?;
    Some(ctx.pow(&b, exp).to_biguint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn fixed_roundtrip_and_width_limit() {
        let v = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5]);
        let f = FixedUint::<4>::from_biguint(&v).unwrap();
        assert_eq!(f.to_biguint(), v);
        let wide = BigUint::one().shl(64 * 4);
        assert!(FixedUint::<4>::from_biguint(&wide).is_none());
        assert!(FixedUint::<5>::from_biguint(&wide).is_some());
    }

    #[test]
    fn add_carry_chain() {
        let max =
            FixedUint::<2>::from_biguint(&BigUint::from_limb_slice(&[u64::MAX, u64::MAX])).unwrap();
        let one = FixedUint::<2>::one();
        let (sum, carry) = max.add_carry(&one);
        assert!(sum.is_zero());
        assert_eq!(carry, 1);
        let (diff, borrow) = sum.sub_borrow(&one);
        assert_eq!(borrow, 1);
        assert_eq!(diff, max);
    }

    #[test]
    fn mul_wide_matches_biguint() {
        let a = BigUint::from_limb_slice(&[u64::MAX, 12345, 7]);
        let b = BigUint::from_limb_slice(&[99, u64::MAX - 3, 1]);
        let fa = FixedUint::<3>::from_biguint(&a).unwrap();
        let fb = FixedUint::<3>::from_biguint(&b).unwrap();
        let (lo, hi) = fa.mul_wide(&fb);
        let combined = hi.to_biguint().shl(64 * 3).add(&lo.to_biguint());
        assert_eq!(combined, a.mul(&b));
    }

    #[test]
    fn cmp_fixed_orders_by_high_limbs() {
        let a = FixedUint::<2>::from_biguint(&BigUint::from_limb_slice(&[0, 2])).unwrap();
        let b = FixedUint::<2>::from_biguint(&BigUint::from_limb_slice(&[u64::MAX, 1])).unwrap();
        assert_eq!(a.cmp_fixed(&b), Ordering::Greater);
        assert_eq!(b.cmp_fixed(&a), Ordering::Less);
        assert_eq!(a.cmp_fixed(&a), Ordering::Equal);
    }

    #[test]
    fn montgomery_mul_matches_mul_mod() {
        let m = big(1_000_003);
        let ctx = FixedMontgomeryCtx::<2>::new(&m).unwrap();
        for (x, y) in [(2u64, 3u64), (999_999, 999_999), (123_456, 654_321)] {
            let fx = ctx.to_mont(&FixedUint::from_biguint(&big(x)).unwrap());
            let fy = ctx.to_mont(&FixedUint::from_biguint(&big(y)).unwrap());
            let got = ctx.from_mont(&ctx.mul(&fx, &fy)).to_biguint();
            assert_eq!(got, big(x).mul_mod(&big(y), &m), "{x}·{y} mod 1000003");
        }
    }

    #[test]
    fn pow_matches_vec_path() {
        let m = big(1_000_003);
        let ctx = FixedMontgomeryCtx::<2>::new(&m).unwrap();
        for (b, e) in [(4u64, 13u64), (2, 1000), (999_999, 65537)] {
            let fb = FixedUint::from_biguint(&big(b)).unwrap();
            let got = ctx.pow(&fb, &big(e)).to_biguint();
            assert_eq!(got, big(b).mod_pow_classic(&big(e), &m), "{b}^{e}");
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = big(97);
        let ctx = FixedMontgomeryCtx::<1>::new(&m).unwrap();
        let fb = FixedUint::from_biguint(&big(5)).unwrap();
        assert!(ctx.pow(&fb, &BigUint::zero()).to_biguint().is_one());
    }

    #[test]
    fn ctx_rejects_even_trivial_and_oversized() {
        assert!(FixedMontgomeryCtx::<2>::new(&big(16)).is_none());
        assert!(FixedMontgomeryCtx::<2>::new(&BigUint::one()).is_none());
        assert!(FixedMontgomeryCtx::<2>::new(&BigUint::zero()).is_none());
        let wide = BigUint::one().shl(130).add(&BigUint::one());
        assert!(FixedMontgomeryCtx::<2>::new(&wide).is_none());
        assert!(FixedMontgomeryCtx::<3>::new(&wide).is_some());
    }

    #[test]
    fn mod_pow_fixed_dispatch_agrees_with_classic() {
        // 2^61-1 is prime: Fermat gives a^(p-1) = 1.
        let p = big(2_305_843_009_213_693_951);
        let a = big(123_456_789);
        let e = p.sub(&BigUint::one());
        let got = mod_pow_fixed::<1>(&a, &e, &p).unwrap();
        assert!(got.is_one());
        assert_eq!(
            mod_pow_fixed::<4>(&a, &big(65537), &p).unwrap(),
            a.mod_pow_classic(&big(65537), &p)
        );
    }

    #[test]
    fn window_bits_are_deterministic_in_bit_len() {
        assert_eq!(window_bits(17), 2); // e = 65537
        assert_eq!(window_bits(64), 3);
        assert_eq!(window_bits(239), 4);
        assert_eq!(window_bits(512), 5);
        assert_eq!(window_bits(2048), 5);
        // Table never exceeds the stack buffer.
        assert!(1usize << (window_bits(usize::MAX) - 1) <= MAX_TABLE);
    }
}
