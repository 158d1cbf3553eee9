//! Differential tests for the fixed-limb bigint layer: every `FixedUint` /
//! `FixedMontgomeryCtx` operation is checked against the heap-backed
//! `BigUint` reference on random operands, the new windowed/fixed-limb
//! signing and verification paths are checked byte-identical against the
//! retained pre-optimization classic paths, and primality is cross-checked
//! against trial division.

use proptest::prelude::*;
use std::sync::OnceLock;
use tpnr_crypto::bigint::{BigUint, WindowSchedule};
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::limbs::{mod_pow_fixed, window_bits, FixedMontgomeryCtx, FixedUint};
use tpnr_crypto::rsa::RsaKeyPair;
use tpnr_crypto::ChaChaRng;

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

/// Forces the top byte non-zero and the low bit set: an odd modulus of full
/// width, as every RSA modulus is.
fn odd_modulus(mut bytes: Vec<u8>) -> BigUint {
    if let Some(first) = bytes.first_mut() {
        *first |= 0x80;
    }
    if let Some(last) = bytes.last_mut() {
        *last |= 1;
    }
    big(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------- FixedUint vs BigUint

    #[test]
    fn fixed_add_matches_biguint(a in proptest::collection::vec(any::<u8>(), 0..64),
                                 b in proptest::collection::vec(any::<u8>(), 0..64)) {
        let (x, y) = (big(&a), big(&b));
        let (fx, fy) = (
            FixedUint::<8>::from_biguint(&x).unwrap(),
            FixedUint::<8>::from_biguint(&y).unwrap(),
        );
        let (sum, carry) = fx.add_carry(&fy);
        // The 8-limb adder result plus its carry limb is the full sum.
        let full = sum.to_biguint().add(&BigUint::from_u64(carry).shl(512));
        prop_assert_eq!(full, x.add(&y));
    }

    #[test]
    fn fixed_sub_matches_biguint(a in proptest::collection::vec(any::<u8>(), 0..64),
                                 b in proptest::collection::vec(any::<u8>(), 0..64)) {
        let (x, y) = (big(&a), big(&b));
        let (hi, lo) = if x.cmp_big(&y) == std::cmp::Ordering::Less { (y, x) } else { (x, y) };
        let (fh, fl) = (
            FixedUint::<8>::from_biguint(&hi).unwrap(),
            FixedUint::<8>::from_biguint(&lo).unwrap(),
        );
        let (diff, borrow) = fh.sub_borrow(&fl);
        prop_assert_eq!(borrow, 0);
        prop_assert_eq!(diff.to_biguint(), hi.sub(&lo));
        // And the reverse direction borrows iff the operands differ.
        let (_, borrow) = fl.sub_borrow(&fh);
        prop_assert_eq!(borrow != 0, hi != lo);
    }

    #[test]
    fn fixed_mul_matches_biguint(a in proptest::collection::vec(any::<u8>(), 0..64),
                                 b in proptest::collection::vec(any::<u8>(), 0..64)) {
        let (x, y) = (big(&a), big(&b));
        let (fx, fy) = (
            FixedUint::<8>::from_biguint(&x).unwrap(),
            FixedUint::<8>::from_biguint(&y).unwrap(),
        );
        let (lo, hi) = fx.mul_wide(&fy);
        let full = lo.to_biguint().add(&hi.to_biguint().shl(512));
        prop_assert_eq!(full, x.mul(&y));
    }

    #[test]
    fn fixed_montgomery_mul_matches_mul_mod(
        a in proptest::collection::vec(any::<u8>(), 1..32),
        b in proptest::collection::vec(any::<u8>(), 1..32),
        m in proptest::collection::vec(any::<u8>(), 16..32),
    ) {
        let n = odd_modulus(m);
        let (x, y) = (big(&a).rem(&n), big(&b).rem(&n));
        let ctx = FixedMontgomeryCtx::<4>::new(&n).unwrap();
        let (fx, fy) = (
            FixedUint::from_biguint(&x).unwrap(),
            FixedUint::from_biguint(&y).unwrap(),
        );
        let prod = ctx.from_mont(&ctx.mul(&ctx.to_mont(&fx), &ctx.to_mont(&fy)));
        prop_assert_eq!(prod.to_biguint(), x.mul_mod(&y, &n));
    }

    #[test]
    fn fixed_mod_pow_matches_classic(
        base in proptest::collection::vec(any::<u8>(), 1..48),
        exp in proptest::collection::vec(any::<u8>(), 1..24),
        m in proptest::collection::vec(any::<u8>(), 24..48),
        k in 1usize..300,
    ) {
        let n = odd_modulus(m);
        let (b, e) = (big(&base), big(&exp));
        let one = BigUint::one();
        let pow2 = one.shl(k);
        // Below the top bit of 2^k, zero the `width` bits a full top window
        // would cover, so the top window shrinks to the top bit.
        let width = window_bits(k + 1);
        let short_top = pow2.add(&e.rem(&one.shl(k.saturating_sub(width))));
        let edges = [0u64, 1, 2, 3, 65537].map(BigUint::from_u64);
        for e in edges.into_iter().chain([pow2.clone(), pow2.sub(&one), short_top, e]) {
            // The public dispatcher (fixed-limb for these widths)…
            let fast = b.mod_pow(&e, &n);
            // …the retained square-and-multiply reference…
            let classic = b.mod_pow_classic(&e, &n);
            prop_assert_eq!(&fast, &classic, "exp {:?}", e);
            // …and the explicitly-instantiated fixed kernel all agree.
            let direct = mod_pow_fixed::<8>(&b, &WindowSchedule::new(&e), &n).unwrap();
            prop_assert_eq!(&direct, &classic, "exp {:?}", e);
        }
    }

    #[test]
    fn fixed_pow_handles_edge_exponents(m in proptest::collection::vec(any::<u8>(), 16..32),
                                        base in proptest::collection::vec(any::<u8>(), 1..24)) {
        let n = odd_modulus(m);
        let b = big(&base).rem(&n);
        // exp = 0 → 1, exp = 1 → b, both through the windowed kernel.
        prop_assert_eq!(b.mod_pow(&BigUint::zero(), &n), BigUint::one().rem(&n));
        prop_assert_eq!(b.mod_pow(&BigUint::one(), &n), b.clone());
    }
}

proptest! {
    // RSA operations are expensive; fewer cases, same adversarial value.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // ------------------------------------- signing path byte-compatibility

    #[test]
    fn signatures_byte_identical_old_vs_new(digest_seed in any::<u64>(), key_id in 0u64..3) {
        let kp = test_key(key_id);
        let digest = HashAlg::Sha256.hash(&digest_seed.to_be_bytes());
        // New path: fixed-limb CRT halves with sliding-window exponentiation.
        let fast = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        // Reference path: the retained classic square-and-multiply CRT.
        let classic = kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap();
        prop_assert_eq!(&fast, &classic, "CRT signing must be byte-identical across kernels");
        // Both verification paths accept it; both reject a flipped bit.
        prop_assert!(kp.public.verify_prehashed(HashAlg::Sha256, &digest, &fast).is_ok());
        prop_assert!(kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &fast).is_ok());
        let mut bad = fast.clone();
        let pos = (digest_seed % 64) as usize % bad.len();
        bad[pos] ^= 1;
        prop_assert!(kp.public.verify_prehashed(HashAlg::Sha256, &digest, &bad).is_err());
        prop_assert!(kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &bad).is_err());
    }

    #[test]
    fn crt_roundtrip_encrypt_decrypt(msg in proptest::collection::vec(any::<u8>(), 1..32),
                                     rng_seed in any::<u64>()) {
        // Encrypt (public, fixed-limb mod_pow) then decrypt (private, CRT):
        // a full round-trip through both new kernels.
        let kp = test_key(rng_seed % 3);
        let mut rng = ChaChaRng::seed_from_u64(rng_seed);
        let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
        prop_assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------- per-key kernels vs BigUint

    #[test]
    fn be_bytes_roundtrip_matches_biguint(bytes in proptest::collection::vec(any::<u8>(), 0..72),
                                          out_len in 0usize..80) {
        let v = big(&bytes);
        let fixed = FixedUint::<8>::from_be_bytes(&bytes);
        prop_assert_eq!(fixed.is_some(), v.bit_len() <= 512);
        if let Some(f) = fixed {
            prop_assert_eq!(f.to_biguint(), v.clone());
            let mut out = vec![0xa5u8; out_len];
            let fits = f.write_be_bytes(&mut out);
            let want = v.to_bytes_be_padded(out_len);
            prop_assert_eq!(fits, want.is_some());
            if let Some(want) = want {
                prop_assert_eq!(out, want);
            }
        }
    }

    #[test]
    fn redc_wide_matches_biguint(m in proptest::collection::vec(any::<u8>(), 16..32),
                                 lo in proptest::collection::vec(any::<u8>(), 0..32),
                                 hi in proptest::collection::vec(any::<u8>(), 0..32)) {
        // T = hi·R + lo with hi < m, so T < m·R as REDC requires; then
        // REDC(T)·R ≡ T (mod m).
        let n = odd_modulus(m);
        let ctx = FixedMontgomeryCtx::<4>::new(&n).unwrap();
        let (lo, hi) = (big(&lo), big(&hi).rem(&n));
        let t = hi.shl(256).add(&lo);
        let r = ctx.redc_wide(
            &FixedUint::from_biguint(&lo).unwrap(),
            &FixedUint::from_biguint(&hi).unwrap(),
        );
        prop_assert!(r.to_biguint().cmp_big(&n) == std::cmp::Ordering::Less);
        prop_assert_eq!(r.to_biguint().shl(256).rem(&n), t.rem(&n));
    }
}

proptest! {
    // RSA operations are expensive; few cases per width.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // ---------------------- every key width: fast paths vs the references

    #[test]
    fn private_and_public_ops_match_reference_at_every_width(
        digest_seed in any::<u64>(),
        alg in 0usize..3,
        flip in any::<u16>(),
    ) {
        for kp in width_keys() {
            let alg = [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256][alg];
            let digest = alg.hash(&digest_seed.to_be_bytes());
            let fast = kp.private.sign_prehashed(alg, &digest).unwrap();
            let reference = kp.private.sign_prehashed_reference(alg, &digest).unwrap();
            prop_assert_eq!(&fast, &reference, "{} bits", kp.public.bits());
            // Accept and reject exactly as the reference: the valid signature,
            // a bit flip, a value not below n, and a short signature.
            let k = kp.public.size();
            let mut flipped = fast.clone();
            flipped[usize::from(flip) % k] ^= 1 << (flip % 8);
            let candidates = [fast.clone(), flipped, vec![0xff; k], fast[1..].to_vec()];
            for sig in &candidates {
                prop_assert_eq!(
                    kp.public.verify_prehashed(alg, &digest, sig),
                    kp.public.verify_prehashed_reference(alg, &digest, sig)
                );
            }
            prop_assert!(kp.public.verify_prehashed(alg, &digest, &fast).is_ok());
        }
    }

    #[test]
    fn decrypt_roundtrips_encrypt_at_every_width(
        msg in proptest::collection::vec(any::<u8>(), 0..48),
        rng_seed in any::<u64>(),
    ) {
        for kp in width_keys() {
            let mut rng = ChaChaRng::seed_from_u64(rng_seed);
            let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
            prop_assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
            // A ciphertext not below n is refused before any arithmetic.
            let k = kp.public.size();
            prop_assert_eq!(
                kp.private.decrypt(&vec![0xff; k]),
                Err(tpnr_crypto::error::CryptoError::InvalidLength)
            );
        }
    }
}

/// One key per width, generated once per process: 512 bits (CRT halves of
/// 4 limbs), 576 bits (not a multiple of 64: 5-limb halves on the 8-limb
/// kernels), 1024 and 2048 bits.
fn width_keys() -> &'static [RsaKeyPair] {
    static KEYS: OnceLock<Vec<RsaKeyPair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        [512usize, 576, 1024, 2048]
            .iter()
            .map(|&bits| {
                let mut rng = ChaChaRng::seed_from_u64(0x5769_6474 ^ bits as u64);
                let kp = RsaKeyPair::generate(bits, &mut rng);
                assert_eq!(kp.public.bits(), bits);
                kp
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ----------------------------------------------- primality vs division

    #[test]
    fn primality_matches_trial_division_below_2_16(n in 0u64..(1 << 16), seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let probabilistic =
            tpnr_crypto::prime::is_probable_prime(&BigUint::from_u64(n), 16, &mut rng);
        let exact = trial_division_is_prime(n);
        prop_assert_eq!(probabilistic, exact, "n = {}", n);
    }
}

/// Ground truth for small n.
fn trial_division_is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Deterministic test keys, generated once per process (keygen is the
/// expensive part; the properties under test don't depend on which key).
fn test_key(id: u64) -> &'static RsaKeyPair {
    static KEYS: OnceLock<Vec<RsaKeyPair>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| (0..3).map(RsaKeyPair::insecure_test_key).collect());
    &keys[(id % 3) as usize]
}
