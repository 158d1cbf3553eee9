//! Arbitrary-precision unsigned integers.
//!
//! This is the numeric substrate for the RSA implementation in [`crate::rsa`].
//! Limbs are `u64`, stored little-endian with no trailing zero limbs
//! (canonical form). The operation set is exactly what RSA key generation,
//! signing and encryption need: ring arithmetic, Knuth-D division,
//! Montgomery modular exponentiation and modular inverse.
//!
//! The implementation favours clarity and testability over raw speed, but the
//! hot path (Montgomery multiplication, CIOS form) is allocation-free per
//! round and comfortably handles 2048-bit operands.

use std::cmp::Ordering;
use std::fmt;

/// Thread-local tally of limb-buffer (`Vec<u64>`) allocations made by
/// `BigUint` / [`MontgomeryCtx`] operations.
///
/// The fixed-limb kernels in [`crate::limbs`] exist to drive this number to
/// zero on the exponentiation hot path; experiment E12 reports
/// allocations-per-sign before/after through this counter. Instrumentation
/// is a `Cell` bump per buffer — cheap enough to stay always-on, and
/// deterministic (it counts logical buffer creations, not allocator calls).
pub mod limb_allocs {
    use std::cell::Cell;

    thread_local! {
        static TALLY: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump() {
        TALLY.with(|t| t.set(t.get() + 1));
    }

    /// Resets the current thread's tally to zero.
    pub fn reset() {
        TALLY.with(|t| t.set(0));
    }

    /// Limb buffers allocated on this thread since the last [`reset`].
    pub fn count() -> u64 {
        TALLY.with(|t| t.get())
    }
}

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never has trailing zeros (`limbs.last() != Some(&0)`);
/// zero is represented by an empty limb vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", crate::encoding::hex_encode(&self.to_bytes_be()))
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from little-endian limbs, normalising trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Builds from a borrowed little-endian limb slice.
    ///
    /// This is the heap boundary for [`crate::limbs::FixedUint`]: the fixed
    /// kernels hand their stack arrays here, so the allocation (and the
    /// [`limb_allocs`] tally bump) happens on the `bigint` side and the hot
    /// path stays textually `Vec`-free.
    pub fn from_limb_slice(limbs: &[u64]) -> Self {
        limb_allocs::bump();
        let mut end = limbs.len();
        while end > 0 && limbs.get(end - 1) == Some(&0) {
            end -= 1;
        }
        BigUint { limbs: limbs[..end].to_vec() }
    }

    /// Parses a big-endian byte string (the natural wire format for RSA).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        limb_allocs::bump();
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serialises to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the low bit is clear.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (counting from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i`, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Three-way comparison.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        limb_allocs::bump();
        let (big, small) =
            if self.limbs.len() >= other.limbs.len() { (self, other) } else { (other, self) };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let b = small.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = big.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`. Panics if `other > self` (callers uphold ordering).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self.cmp_big(other) != Ordering::Less, "BigUint::sub underflow");
        limb_allocs::bump();
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Self::from_limbs(out)
    }

    /// Schoolbook multiplication, O(n·m) with u128 partials.
    ///
    /// RSA-scale operands (≤ 64 limbs) do not benefit enough from Karatsuba
    /// to justify its complexity here; Montgomery CIOS dominates the hot path.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        limb_allocs::bump();
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        limb_allocs::bump();
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Self {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let src = &self.limbs[limb_shift..];
        limb_allocs::bump();
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Self::from_limbs(out)
    }

    /// Division with remainder, Knuth Algorithm D. Panics on division by zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.low_u64());
            return (q, Self::from_u64(r));
        }

        // Normalise so that the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().map_or(0, |l| l.leading_zeros()) as usize;
        limb_allocs::bump();
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q̂ = (un[j+n]·B + un[j+n-1]) / v_hi, then refine.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_hi as u128;
            let mut rhat = num % v_hi as u128;
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_hi as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= q̂ · v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q̂ was one too large; add back one multiple of v.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let quotient = Self::from_limbs(q);
        let remainder = Self::from_limbs(un[..n].to_vec()).shr(shift);
        (quotient, remainder)
    }

    /// Division by a single limb.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "BigUint division by zero");
        limb_allocs::bump();
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Self::from_limbs(out), rem as u64)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `(self - other) mod m`, both inputs already reduced.
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self.cmp_big(other) != Ordering::Less {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// `(self * other) mod m` via full multiply + reduce.
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Dispatches odd moduli of up to 32 limbs (2048-bit — every RSA modulus
    /// and CRT half this workspace produces) onto the stack-allocated
    /// fixed-limb CIOS kernels of [`crate::limbs`], which are heap-free per
    /// multiply. Wider odd moduli fall back to the `Vec`-backed Montgomery
    /// context; both run the exponent's [`WindowSchedule`], built here once
    /// per call. Even moduli use plain square-and-multiply with division.
    /// All paths return bit-identical results (see the differential
    /// proptests).
    pub fn mod_pow(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "mod_pow modulus is zero");
        if modulus.is_one() {
            return Self::zero();
        }
        if exp.is_zero() {
            return Self::one();
        }
        if modulus.is_even() {
            return self.mod_pow_generic(exp, modulus);
        }
        let exp = WindowSchedule::new(exp);
        use crate::limbs::mod_pow_fixed;
        let fixed = match modulus.limbs.len() {
            0..=4 => mod_pow_fixed::<4>(self, &exp, modulus),
            5..=8 => mod_pow_fixed::<8>(self, &exp, modulus),
            9..=16 => mod_pow_fixed::<16>(self, &exp, modulus),
            17..=32 => mod_pow_fixed::<32>(self, &exp, modulus),
            _ => None,
        };
        fixed.unwrap_or_else(|| self.mod_pow_vec_window(&exp, modulus))
    }

    /// The pre-fixed-limb exponentiation path: per-bit square-and-multiply
    /// over the `Vec`-backed [`MontgomeryCtx`].
    ///
    /// Retained verbatim as the differential-testing and benchmarking
    /// reference — E12 measures the fixed kernels against this, and the
    /// proptests require bit-identical outputs from both.
    pub fn mod_pow_classic(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "mod_pow modulus is zero");
        if modulus.is_one() {
            return Self::zero();
        }
        if exp.is_zero() {
            return Self::one();
        }
        if modulus.is_even() {
            return self.mod_pow_generic(exp, modulus);
        }
        let ctx = MontgomeryCtx::new(modulus);
        let base = ctx.to_mont(&self.rem(modulus));
        let mut acc = ctx.one();
        for i in (0..exp.bit_len()).rev() {
            acc = ctx.mul(&acc, &acc);
            if exp.bit(i) {
                acc = ctx.mul(&acc, &base);
            }
        }
        ctx.from_mont(&acc)
    }

    /// The exponent's schedule over the `Vec`-backed Montgomery context —
    /// the fallback for odd moduli wider than the fixed kernels, with the
    /// same multiply sequence as the fixed path.
    fn mod_pow_vec_window(&self, exp: &WindowSchedule, modulus: &Self) -> Self {
        let ctx = MontgomeryCtx::new(modulus);
        let mut table = vec![ctx.to_mont(&self.rem(modulus)); exp.table_len()];
        let acc = exp.pow(&mut table, |a, b| ctx.mul(a, b));
        acc.map_or_else(Self::one, |acc| ctx.from_mont(&acc))
    }

    fn mod_pow_generic(&self, exp: &Self, modulus: &Self) -> Self {
        let mut base = self.rem(modulus);
        let mut result = Self::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            if i + 1 < exp.bit_len() {
                base = base.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let (mut a, mut b) = (self.clone(), other.clone());
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a.cmp_big(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse `self^-1 mod m`, or `None` if `gcd(self, m) != 1`.
    ///
    /// Extended Euclid over a small signed wrapper.
    pub fn mod_inverse(&self, m: &Self) -> Option<Self> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Invariants: r = old_s·a mod m (signs tracked separately).
        let (mut old_r, mut r) = (a, m.clone());
        let (mut old_s, mut s) = (SignedBig::from(Self::one()), SignedBig::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            let tmp_r = rem;
            old_r = std::mem::replace(&mut r, tmp_r);
            let qs = s.mul_unsigned(&q);
            let tmp_s = old_s.sub(&qs);
            old_s = std::mem::replace(&mut s, tmp_s);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_s.reduce_mod(m))
    }
}

/// An exponent's sliding-window decomposition, derived once so that every
/// exponentiation by it replays the windows instead of re-scanning the
/// exponent bit by bit.
///
/// Read from the top, the exponent splits into runs of zero bits and
/// windows of at most `width` bits ([`crate::limbs::window_bits`] of its
/// bit length) that end in a set bit. A window's value `v` is therefore
/// odd, and its table index `(v − 1) / 2` names the precomputed power
/// `base^v`. The accumulator starts from the top window's power; each
/// later window costs the squarings that shift past it and past the zero
/// run before it, then one multiply; trailing zero bits cost one squaring
/// each. That is the multiply sequence of the bit-scanning sliding window
/// without its multiplications by one (squaring the Montgomery one, and
/// the multiply that loads the first window), and only the table entries
/// the windows use are built — so every result is bit-identical.
///
/// A schedule is exactly as exponent-dependent as the bit loop it
/// replaces, so it is not side-channel hardened (README "Security
/// status"). It has no `Debug`: the schedules of a private key's CRT
/// exponents are key material.
#[derive(Clone)]
pub struct WindowSchedule {
    /// Window width in bits.
    width: usize,
    /// Odd powers the windows use: one more than the largest index.
    table_len: usize,
    /// Table index of the top window; `None` for the exponent zero.
    first: Option<usize>,
    /// Each later window, top down: the squarings before it and its table
    /// index.
    windows: Vec<(usize, usize)>,
    /// Squarings after the last window (the exponent's trailing zeros).
    tail: usize,
}

impl WindowSchedule {
    /// Decomposes `exp`: the one bit scan every exponentiation by it
    /// shares.
    pub fn new(exp: &BigUint) -> Self {
        let bits = exp.bit_len();
        let width = crate::limbs::window_bits(bits);
        let mut sched =
            WindowSchedule { width, table_len: 0, first: None, windows: Vec::new(), tail: 0 };
        // Bits [0, i) remain; `owed` squarings wait for the next window.
        let (mut i, mut owed) = (bits, 0);
        while i > 0 {
            if !exp.bit(i - 1) {
                owed += 1;
                i -= 1;
                continue;
            }
            // Window [j, i): at most `width` bits, ending (at j) in a set
            // bit so its value is odd.
            let mut j = i.saturating_sub(width);
            while !exp.bit(j) {
                j += 1;
            }
            let value = (j..i).rev().fold(0, |v, b| (v << 1) | usize::from(exp.bit(b)));
            let index = (value - 1) / 2;
            sched.table_len = sched.table_len.max(index + 1);
            match sched.first {
                None => sched.first = Some(index),
                Some(_) => sched.windows.push((owed + i - j, index)),
            }
            owed = 0;
            i = j;
        }
        sched.tail = owed;
        sched
    }

    /// Window width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Odd powers `base^1, base^3, …` the windows use.
    pub fn table_len(&self) -> usize {
        self.table_len
    }

    /// Table index of the top window, which the accumulator starts from;
    /// `None` for the exponent zero.
    pub fn first(&self) -> Option<usize> {
        self.first
    }

    /// Each later window, top down: `(squarings before it, table index)`.
    pub fn windows(&self) -> &[(usize, usize)] {
        &self.windows
    }

    /// Squarings after the last window.
    pub fn tail(&self) -> usize {
        self.tail
    }

    /// Raises `table[0]` to the exponent in the ring whose multiply is
    /// `mul`: fills `table[1..table_len]` with the odd powers
    /// `table[0]^3, ^5, …`, starts from the top window's power and walks
    /// the rest. `None` for the exponent zero, whose power (the ring's one)
    /// the caller supplies. `table` needs at least
    /// [`Self::table_len`] entries.
    ///
    /// Always inlined, so the ring's multiply inlines into the walk: left
    /// to the inliner, 512-bit signing on the fixed kernel ran about 40%
    /// slower than with the loop written out (2-vCPU x86-64 host).
    #[inline(always)]
    pub fn pow<X: Clone>(&self, table: &mut [X], mul: impl Fn(&X, &X) -> X) -> Option<X> {
        let first = self.first?;
        if let Some(base) = table.first().filter(|_| self.table_len > 1) {
            let sq = mul(base, base);
            for i in 1..self.table_len {
                table[i] = mul(&table[i - 1], &sq);
            }
        }
        let mut acc = table[first].clone();
        for &(squarings, index) in &self.windows {
            for _ in 0..squarings {
                acc = mul(&acc, &acc);
            }
            acc = mul(&acc, &table[index]);
        }
        for _ in 0..self.tail {
            acc = mul(&acc, &acc);
        }
        Some(acc)
    }
}

/// Minimal signed big integer used only by the extended Euclid in
/// [`BigUint::mod_inverse`].
#[derive(Clone, Debug)]
struct SignedBig {
    negative: bool,
    mag: BigUint,
}

impl SignedBig {
    fn zero() -> Self {
        SignedBig { negative: false, mag: BigUint::zero() }
    }

    fn from(mag: BigUint) -> Self {
        SignedBig { negative: false, mag }
    }

    fn sub(&self, other: &Self) -> Self {
        match (self.negative, other.negative) {
            (false, true) => SignedBig { negative: false, mag: self.mag.add(&other.mag) },
            (true, false) => SignedBig { negative: true, mag: self.mag.add(&other.mag) },
            (sn, _) => {
                // Same sign: magnitude difference, sign from the larger side.
                match self.mag.cmp_big(&other.mag) {
                    Ordering::Equal => Self::zero(),
                    Ordering::Greater => SignedBig { negative: sn, mag: self.mag.sub(&other.mag) },
                    Ordering::Less => SignedBig { negative: !sn, mag: other.mag.sub(&self.mag) },
                }
            }
        }
    }

    fn mul_unsigned(&self, other: &BigUint) -> Self {
        let mag = self.mag.mul(other);
        SignedBig { negative: self.negative && !mag.is_zero(), mag }
    }

    fn reduce_mod(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        if self.negative && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

/// Montgomery multiplication context for an odd modulus (CIOS form).
///
/// This is the `Vec`-backed fallback for moduli wider than the fixed-limb
/// kernels of [`crate::limbs`]; each multiply allocates its scratch buffer.
pub struct MontgomeryCtx {
    n: Vec<u64>,
    /// Low limb of the modulus, hoisted out of the reduction loop.
    n0: u64,
    /// `-n^{-1} mod 2^64`
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^(64·len)`
    r2: BigUint,
    modulus: BigUint,
}

impl MontgomeryCtx {
    /// Builds a context; `modulus` must be odd and > 1.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_even() && !modulus.is_one() && !modulus.is_zero());
        let n0 = modulus.low_u64();
        // Newton iteration for the inverse of n0 mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n_prime = inv.wrapping_neg();
        let k = modulus.limbs.len();
        // R^2 mod n computed by shifting; done once per exponentiation.
        let r2 = BigUint::one().shl(64 * k * 2).rem(modulus);
        MontgomeryCtx { n: modulus.limbs.clone(), n0, n_prime, r2, modulus: modulus.clone() }
    }

    /// Montgomery product `a·b·R^-1 mod n` (inputs in Montgomery form).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.n.len();
        limb_allocs::bump();
        let mut t = vec![0u64; k + 2];
        let a_limbs = &a.limbs;
        let b_limbs = &b.limbs;
        for i in 0..k {
            let ai = a_limbs.get(i).copied().unwrap_or(0);
            // t += ai * b
            let mut carry = 0u128;
            for (j, tj) in t.iter_mut().enumerate().take(k) {
                let bj = b_limbs.get(j).copied().unwrap_or(0);
                let s = *tj as u128 + (ai as u128) * (bj as u128) + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n' mod 2^64; t += m * n; t >>= 64
            let t0 = t.first().copied().unwrap_or(0);
            let m = t0.wrapping_mul(self.n_prime);
            let s = t0 as u128 + (m as u128) * (self.n0 as u128);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + (m as u128) * (self.n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            carry = s >> 64;
            let s = t[k + 1] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
        }
        debug_assert_eq!(t[k + 1], 0);
        let mut result = BigUint::from_limbs(t[..=k].to_vec());
        if result.cmp_big(&self.modulus) != Ordering::Less {
            result = result.sub(&self.modulus);
        }
        result
    }

    /// Converts into Montgomery form: `a·R mod n`.
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        self.mul(a, &self.r2)
    }

    /// Converts out of Montgomery form: `a·R^-1 mod n`.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.mul(a, &BigUint::one())
    }

    /// The value one in Montgomery form (`R mod n`).
    pub fn one(&self) -> BigUint {
        self.to_mont(&BigUint::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0xff],
            &[1, 0, 0, 0, 0, 0, 0, 0, 0],
            &[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05],
        ];
        for &c in cases {
            let v = BigUint::from_bytes_be(c);
            let back = v.to_bytes_be();
            // Leading zeros are stripped in canonical form.
            let trimmed: Vec<u8> = c.iter().copied().skip_while(|&x| x == 0).collect();
            assert_eq!(back, trimmed);
        }
    }

    #[test]
    fn padded_bytes() {
        let v = b(0x1234);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert!(b(0x123456).to_bytes_be_padded(2).is_none());
        assert_eq!(BigUint::zero().to_bytes_be_padded(3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), b(5));
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(b(2).add(&b(3)), b(5));
        assert_eq!(b(5).sub(&b(3)), b(2));
        assert_eq!(b(5).sub(&b(5)), BigUint::zero());
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let r = max.add(&BigUint::one());
        assert_eq!(r, BigUint::from_limbs(vec![0, 0, 1]));
        assert_eq!(r.sub(&BigUint::one()), max);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = b(1).sub(&b(2));
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(b(7).mul(&b(6)), b(42));
        assert_eq!(b(0).mul(&b(6)), BigUint::zero());
        let a = BigUint::from_limbs(vec![u64::MAX]);
        let sq = a.mul(&a); // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq, BigUint::from_limbs(vec![1, u64::MAX - 1]));
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(64), BigUint::from_limbs(vec![0, 1]));
        assert_eq!(b(1).shl(65).shr(65), b(1));
        assert_eq!(b(0b1010).shr(1), b(0b101));
        assert_eq!(b(3).shr(100), BigUint::zero());
    }

    #[test]
    fn div_rem_basics() {
        let (q, r) = b(17).div_rem(&b(5));
        assert_eq!((q, r), (b(3), b(2)));
        let (q, r) = b(4).div_rem(&b(5));
        assert_eq!((q, r), (BigUint::zero(), b(4)));
        let (q, r) = b(5).div_rem(&b(5));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn div_rem_multi_limb() {
        // a = 2^200 + 12345, d = 2^100 + 7 — exercises Knuth D estimate path.
        let a = BigUint::one().shl(200).add(&b(12345));
        let d = BigUint::one().shl(100).add(&b(7));
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r.cmp_big(&d) == Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_small() {
        assert_eq!(b(4).mod_pow(&b(13), &b(497)), b(445));
        assert_eq!(b(2).mod_pow(&b(10), &b(1000)), b(24));
        assert_eq!(b(5).mod_pow(&BigUint::zero(), &b(7)), BigUint::one());
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn mod_pow_even_modulus_falls_back() {
        assert_eq!(b(3).mod_pow(&b(5), &b(16)), b(3)); // 243 mod 16 = 3
    }

    #[test]
    fn mod_pow_fermat() {
        // Fermat's little theorem with a 61-bit prime.
        let p = b(2305843009213693951); // 2^61 - 1, prime
        let a = b(123456789);
        assert_eq!(a.mod_pow(&p.sub(&BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn mod_inverse_small() {
        let inv = b(3).mod_inverse(&b(11)).unwrap();
        assert_eq!(inv, b(4)); // 3·4 = 12 ≡ 1 (mod 11)
        assert!(b(6).mod_inverse(&b(9)).is_none()); // gcd 3
        assert!(BigUint::zero().mod_inverse(&b(7)).is_none());
    }

    #[test]
    fn gcd_small() {
        assert_eq!(b(48).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
    }

    #[test]
    fn montgomery_matches_generic() {
        let m = b(1000003); // odd
        let a = b(999999);
        let e = b(65537);
        assert_eq!(a.mod_pow(&e, &m), a.mod_pow_generic(&e, &m));
    }

    #[test]
    fn dispatch_matches_classic_across_widths() {
        // Odd moduli at 1, 5, 9 and 17 limbs hit all four fixed kernels.
        for limb_count in [1usize, 5, 9, 17] {
            let m = BigUint::one().shl(64 * limb_count - 1).add(&b(12345)); // odd
            let base = BigUint::one().shl(64 * limb_count - 7).add(&b(999));
            let e = b(0x1_0001);
            assert_eq!(
                base.mod_pow(&e, &m),
                base.mod_pow_classic(&e, &m),
                "limb_count={limb_count}"
            );
        }
    }

    #[test]
    fn wide_modulus_falls_back_to_vec_window() {
        // 33 limbs: beyond every fixed kernel, still odd — exercises the
        // windowed Vec path against the classic per-bit loop.
        let m = BigUint::one().shl(64 * 33).add(&b(7)); // odd
        let base = BigUint::one().shl(2000).add(&b(3));
        let e = b(65537);
        assert_eq!(base.mod_pow(&e, &m), base.mod_pow_classic(&e, &m));
    }

    #[test]
    fn limb_alloc_tally_counts_vec_path_only() {
        let m = BigUint::one().shl(511).add(&b(0x4f)); // odd 8-limb modulus
        let base = b(0xdead_beef);
        let e = BigUint::one().shl(255).add(&b(1));
        limb_allocs::reset();
        let _ = base.mod_pow_classic(&e, &m);
        let classic = limb_allocs::count();
        limb_allocs::reset();
        let _ = base.mod_pow(&e, &m);
        let fixed = limb_allocs::count();
        assert!(classic > 300, "per-bit Vec path allocates every round: {classic}");
        assert!(fixed < 20, "fixed path only allocates at the boundary: {fixed}");
    }

    #[test]
    fn bit_accessors() {
        let v = b(0b1011);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(64));
        let mut z = BigUint::zero();
        z.set_bit(70);
        assert_eq!(z, BigUint::one().shl(70));
    }
}
