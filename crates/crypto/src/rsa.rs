//! RSA: key generation, PKCS#1 v1.5 signatures and encryption.
//!
//! The TPNR evidence of paper §4.1 is
//! `Encrypt_pk(recipient){ Sign_sk(sender)(H(data)), Sign_sk(sender)(plaintext) }`:
//! signatures give non-repudiation (only the holder of the private key could
//! have produced them) and the public-key envelope gives confidentiality of
//! the evidence in transit. PKCS#1 v1.5 is the scheme SSL/TLS of the paper's
//! era actually used.
//!
//! Implementation notes: every key derives its constants once, when it is
//! built — the fingerprint, the Montgomery context of `n`, the window
//! schedule of `e` and, for a private key, the CRT constants of `p` and `q`
//! with the schedules of `dp` and `dq` — and its clones share them through
//! an `Arc`. Raw RSA then runs on the stack-allocated
//! fixed-limb kernels of [`crate::limbs`], picked by modulus width alone;
//! a key no fixed width covers runs on [`BigUint`] exponentiation instead.
//! Private-key operations use the CRT speed-up; on a fixed width their
//! two halves may run on two cores (`crt_split`). This is a faithful,
//! test-vectored implementation but is **not** hardened against local side
//! channels — see README "Security status".

use crate::bigint::{BigUint, WindowSchedule};
use crate::crt_split::{self, LIMBS};
use crate::error::CryptoError;
use crate::hash::HashAlg;
use crate::limbs::{FixedCrtCtx, FixedMontgomeryCtx, FixedUint};
use crate::prime::gen_prime;
use crate::rng::ChaChaRng;
use std::cmp::Ordering;
use std::sync::Arc;

/// Standard RSA public exponent (F4).
pub const E: u64 = 65537;

/// A per-key constant at the fixed-limb width that covers the key, or
/// `Wide` when none does and the key runs on [`BigUint`] arithmetic.
enum ByWidth<T4, T8, T16, T32> {
    L4(T4),
    L8(T8),
    L16(T16),
    L32(T32),
    Wide,
}

/// Builds `$ty::<N>::new(args)` at the smallest width `N` of at least
/// `$limbs` limbs; `Wide` if there is none or the constructor declines.
macro_rules! build_by_width {
    ($limbs:expr, $ty:ident::new($($arg:expr),*)) => {
        match $limbs {
            0..=4 => $ty::<4>::new($($arg),*).map(ByWidth::L4),
            5..=8 => $ty::<8>::new($($arg),*).map(ByWidth::L8),
            9..=16 => $ty::<16>::new($($arg),*).map(ByWidth::L16),
            17..=32 => $ty::<32>::new($($arg),*).map(ByWidth::L32),
            _ => None,
        }
        .unwrap_or(ByWidth::Wide)
    };
}

/// Evaluates `$fixed` with `$c` bound to the fixed-width value, or `$wide`.
macro_rules! on_width {
    ($v:expr, $c:ident => $fixed:expr, Wide => $wide:expr) => {
        match $v {
            ByWidth::L4($c) => $fixed,
            ByWidth::L8($c) => $fixed,
            ByWidth::L16($c) => $fixed,
            ByWidth::L32($c) => $fixed,
            ByWidth::Wide => $wide,
        }
    };
}

/// An RSA public key `(n, e)`.
///
/// Equality and `Debug` look at `(n, e)` only; the derived constants are a
/// function of them.
#[derive(Clone)]
pub struct RsaPublicKey(Arc<PublicParts>);

/// A public key's components and the constants derived from them.
struct PublicParts {
    n: BigUint,
    e: BigUint,
    /// See [`RsaPublicKey::fingerprint`].
    fingerprint: [u8; 32],
    /// Montgomery context of `n`.
    mont: ByWidth<
        FixedMontgomeryCtx<4>,
        FixedMontgomeryCtx<8>,
        FixedMontgomeryCtx<16>,
        FixedMontgomeryCtx<32>,
    >,
    /// Window schedule of `e`, for verify and encrypt.
    e_schedule: WindowSchedule,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.n == other.0.n && self.0.e == other.0.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey").field("n", &self.0.n).field("e", &self.0.e).finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    crt: Arc<CrtParts>,
}

/// A private key's secret components and its precomputed CRT constants.
pub(crate) struct CrtParts {
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// CRT constants and the schedules of `dp`, `dq` at the width of `p`.
    fixed: ByWidth<FixedCrtCtx<4>, FixedCrtCtx<8>, FixedCrtCtx<16>, FixedCrtCtx<32>>,
}

impl CrtParts {
    /// The q-half `x^dq mod q` of a private operation on `x` (low and high
    /// limbs), at the widest fixed width, where it crosses to the CRT
    /// helper thread; `None` for a key no fixed width covers.
    pub(crate) fn q_half(&self, x: &[FixedUint<LIMBS>; 2]) -> Option<FixedUint<LIMBS>> {
        on_width!(&self.fixed, c => Some(c.q_half(&x.map(|half| half.resize())).resize()),
            Wide => None)
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey").field("bits", &self.public.bits()).finish_non_exhaustive()
    }
}

/// A public/private key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half, freely distributable.
    pub public: RsaPublicKey,
    /// The private half.
    pub private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Constructs from raw components (big-endian byte strings).
    pub fn from_components(n: &[u8], e: &[u8]) -> Self {
        Self::from_parts(BigUint::from_bytes_be(n), BigUint::from_bytes_be(e))
    }

    fn from_parts(n: BigUint, e: BigUint) -> Self {
        use crate::hash::Digest as _;
        let mut h = crate::sha2::Sha256::default();
        let n_be = n.to_bytes_be();
        h.update(&(n_be.len() as u64).to_be_bytes());
        h.update(&n_be);
        h.update(&e.to_bytes_be());
        let mut fingerprint = [0u8; 32];
        fingerprint.copy_from_slice(&h.finalize());
        let mont = build_by_width!(n.limbs().len(), FixedMontgomeryCtx::new(&n));
        let e_schedule = WindowSchedule::new(&e);
        RsaPublicKey(Arc::new(PublicParts { n, e, fingerprint, mont, e_schedule }))
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.0.n.bit_len()
    }

    /// Modulus size in bytes (k in PKCS#1 terms).
    pub fn size(&self) -> usize {
        self.0.n.bit_len().div_ceil(8)
    }

    /// Big-endian modulus bytes.
    pub fn n_bytes(&self) -> Vec<u8> {
        self.0.n.to_bytes_be()
    }

    /// Big-endian exponent bytes.
    pub fn e_bytes(&self) -> Vec<u8> {
        self.0.e.to_bytes_be()
    }

    /// A stable fingerprint of the key (SHA-256 of `len(n) ‖ n ‖ e`),
    /// used as a principal identifier in the protocol layer. Computed
    /// once, when the key is built.
    pub fn fingerprint(&self) -> [u8; 32] {
        self.0.fingerprint
    }

    /// `input^e mod n` as exactly [`Self::size`] big-endian bytes; `None`
    /// when `input` is not below `n`.
    fn raw_public(&self, input: &[u8]) -> Option<Vec<u8>> {
        let PublicParts { n, e, mont, e_schedule, .. } = &*self.0;
        let mut out = vec![0u8; self.size()];
        on_width!(mont, c => c.pow_be_bytes(input, e_schedule, &mut out).then_some(out), Wide => {
            let x = BigUint::from_bytes_be(input);
            if x.cmp_big(n) != Ordering::Less {
                return None;
            }
            x.mod_pow(e, n).to_bytes_be_padded(out.len())
        })
    }

    /// PKCS#1 v1.5 signature verification over `message` hashed with `alg`.
    pub fn verify(
        &self,
        alg: HashAlg,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        self.verify_prehashed(alg, &alg.hash(message), signature)
    }

    /// Verification when the caller already hashed the message.
    pub fn verify_prehashed(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.size();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength);
        }
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let em_bytes = self.raw_public(signature).ok_or(CryptoError::BadSignature)?;
        let expected = emsa_pkcs1_v15(alg, digest, k)?;
        if crate::ct::eq(&em_bytes, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// PKCS#1 v1.5 (type 2) encryption of a short message.
    ///
    /// Maximum plaintext length is `k - 11` bytes; longer payloads go
    /// through the hybrid [`crate::envelope`].
    pub fn encrypt(&self, rng: &mut ChaChaRng, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.size();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong);
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..k - msg.len() - 3 {
            let mut b = [0u8];
            while b == [0] {
                rng.fill_bytes(&mut b);
            }
            em.extend_from_slice(&b);
        }
        em.push(0x00);
        em.extend_from_slice(msg);
        // EM < 2^(8(k-1)) <= n by construction; a failure here is a library
        // bug, surfaced as a typed error rather than a panic (NO-PANIC-PATH).
        self.raw_public(&em).ok_or(CryptoError::Internal("ciphertext exceeds modulus width"))
    }

    /// Verification through the pre-fixed-limb `Vec`-backed per-bit
    /// Montgomery path. Kept as the differential-testing and benchmarking
    /// baseline (experiment E12); byte-for-byte the same accept/reject
    /// behaviour as [`RsaPublicKey::verify_prehashed`], only slower.
    pub fn verify_prehashed_reference(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.size();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength);
        }
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_big(&self.0.n) != Ordering::Less {
            return Err(CryptoError::BadSignature);
        }
        let em = s.mod_pow_classic(&self.0.e, &self.0.n);
        let em_bytes = em.to_bytes_be_padded(k).ok_or(CryptoError::BadSignature)?;
        let expected = emsa_pkcs1_v15(alg, digest, k)?;
        if crate::ct::eq(&em_bytes, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

impl RsaPrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw private-key operation without the CRT (`c^d mod n`); used to
    /// cross-check the CRT path in tests.
    pub fn raw_decrypt_no_crt(&self, c: &BigUint) -> BigUint {
        c.mod_pow(&self.crt.d, &self.public.0.n)
    }

    /// Raw private-key operation using the CRT on [`BigUint`]: the path of
    /// keys no fixed width covers.
    fn raw_decrypt(&self, c: &BigUint) -> BigUint {
        let CrtParts { p, q, dp, dq, qinv, .. } = &*self.crt;
        // m1 = c^dp mod p; m2 = c^dq mod q; h = qinv (m1 - m2) mod p
        let m1 = c.rem(p).mod_pow(dp, p);
        let m2 = c.rem(q).mod_pow(dq, q);
        let h = m1.sub_mod(&m2.rem(p), p).mul_mod(qinv, p);
        m2.add(&h.mul(q))
    }

    /// `input^d mod n` as exactly `k` big-endian bytes through the CRT;
    /// `None` when `input` is not below `n`. On a fixed width the q-half
    /// may run on the CRT helper thread, with the same result.
    fn raw_private(&self, input: &[u8]) -> Option<Vec<u8>> {
        let mut out = vec![0u8; self.public.size()];
        on_width!(&self.crt.fixed, c => {
            let x = c.read_input(input)?;
            let (m1, m2) =
                crt_split::both_halves(&self.crt, &x, || c.p_half(&x), || c.q_half(&x));
            c.combine(&m1, &m2, &mut out).then_some(out)
        }, Wide => {
            let c = BigUint::from_bytes_be(input);
            if c.cmp_big(&self.public.0.n) != Ordering::Less {
                return None;
            }
            self.raw_decrypt(&c).to_bytes_be_padded(out.len())
        })
    }

    /// PKCS#1 v1.5 signature over `message` hashed with `alg`.
    pub fn sign(&self, alg: HashAlg, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.sign_prehashed(alg, &alg.hash(message))
    }

    /// Signing when the caller already hashed the message.
    pub fn sign_prehashed(&self, alg: HashAlg, digest: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let em = emsa_pkcs1_v15(alg, digest, self.public.size())?;
        // EM < 2^(8(k-1)) <= n by construction; a failure here is a library
        // bug, surfaced as a typed error rather than a panic (NO-PANIC-PATH).
        self.raw_private(&em).ok_or(CryptoError::Internal("signature exceeds modulus width"))
    }

    /// Signing through the pre-fixed-limb `Vec`-backed per-bit Montgomery
    /// path. Kept as the differential-testing and benchmarking baseline
    /// (experiment E12): the proptests assert it produces **byte-identical**
    /// signatures to [`Self::sign_prehashed`].
    pub fn sign_prehashed_reference(
        &self,
        alg: HashAlg,
        digest: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let k = self.public.size();
        let em = emsa_pkcs1_v15(alg, digest, k)?;
        let m = BigUint::from_bytes_be(&em);
        // CRT recombination identical to raw_decrypt, with both halves on
        // the classic per-bit Vec path.
        let CrtParts { p, q, dp, dq, qinv, .. } = &*self.crt;
        let m1 = m.rem(p).mod_pow_classic(dp, p);
        let m2 = m.rem(q).mod_pow_classic(dq, q);
        let h = m1.sub_mod(&m2.rem(p), p).mul_mod(qinv, p);
        let s = m2.add(&h.mul(q));
        s.to_bytes_be_padded(k).ok_or(CryptoError::Internal("signature exceeds modulus width"))
    }

    /// PKCS#1 v1.5 (type 2) decryption.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.size();
        if ciphertext.len() != k || k < 11 {
            return Err(CryptoError::InvalidLength);
        }
        let em = self.raw_private(ciphertext).ok_or(CryptoError::InvalidLength)?;
        // EM = 0x00 || 0x02 || PS || 0x00 || M with |PS| >= 8.
        let [0x00, 0x02, body @ ..] = em.as_slice() else {
            return Err(CryptoError::InvalidPadding);
        };
        let sep = body.iter().position(|&b| b == 0).ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            return Err(CryptoError::InvalidPadding);
        }
        Ok(body[sep + 1..].to_vec())
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `bits` bits.
    ///
    /// `bits` must be even and ≥ 512. 1024 matches the paper's era; tests use
    /// 512 or the fixed test keys for speed.
    pub fn generate(bits: usize, rng: &mut ChaChaRng) -> Self {
        assert!(bits >= 512 && bits.is_multiple_of(2), "unsupported RSA size {bits}");
        let e = BigUint::from_u64(E);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            if let Some(kp) = Self::from_primes(p, q) {
                if kp.public.bits() == bits {
                    debug_assert_eq!(kp.public.0.e, e);
                    return kp;
                }
            }
        }
    }

    /// Builds a key pair from two primes; returns `None` if `e` is not
    /// invertible mod φ(n) (caller retries with fresh primes).
    pub fn from_primes(p: BigUint, q: BigUint) -> Option<Self> {
        let one = BigUint::one();
        let n = p.mul(&q);
        let phi = p.sub(&one).mul(&q.sub(&one));
        let e = BigUint::from_u64(E);
        let d = e.mod_inverse(&phi)?;
        let dp = d.rem(&p.sub(&one));
        let dq = d.rem(&q.sub(&one));
        let qinv = q.mod_inverse(&p)?;
        // Keep p > q so CRT recombination in raw_decrypt stays simple.
        let (p, q, dp, dq, qinv) = if p.cmp_big(&q) == Ordering::Less {
            let qinv2 = p.mod_inverse(&q)?;
            (q.clone(), p, dq, dp, qinv2)
        } else {
            (p, q, dp, dq, qinv)
        };
        let fixed = build_by_width!(p.limbs().len(), FixedCrtCtx::new(&p, &q, &qinv, &dp, &dq));
        let public = RsaPublicKey::from_parts(n, e);
        let crt = Arc::new(CrtParts { d, p, q, dp, dq, qinv, fixed });
        Some(RsaKeyPair { public: public.clone(), private: RsaPrivateKey { public, crt } })
    }

    /// A deterministic 512-bit key pair derived from `seed`, for tests and
    /// simulations. **Never** use outside tests.
    pub fn insecure_test_key(seed: u64) -> Self {
        let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x7057_4e52_6b65_7973); // "pTNRkeys"
        Self::generate(512, &mut rng)
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 FF..FF 0x00 DigestInfo(hash)`.
///
/// DigestInfo prefixes are the standard DER encodings from RFC 8017 §9.2.
fn emsa_pkcs1_v15(alg: HashAlg, digest: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let prefix: &[u8] = match alg {
        HashAlg::Md5 => &[
            0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x02, 0x05,
            0x05, 0x00, 0x04, 0x10,
        ],
        HashAlg::Sha1 => &[
            0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
            0x14,
        ],
        HashAlg::Sha256 => &[
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ],
        HashAlg::Sha512 => &[
            0x30, 0x51, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x03, 0x05, 0x00, 0x04, 0x40,
        ],
    };
    let t_len = prefix.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(digest);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key() -> RsaKeyPair {
        RsaKeyPair::insecure_test_key(1)
    }

    #[test]
    fn keygen_produces_working_pair() {
        let kp = test_key();
        assert_eq!(kp.public.bits(), 512);
        assert_eq!(kp.public, *kp.private.public());
    }

    #[test]
    fn sign_verify_roundtrip_all_algs() {
        let kp = test_key();
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let sig = kp.private.sign(alg, b"the financial data").unwrap();
            kp.public.verify(alg, b"the financial data", &sig).unwrap();
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"original").unwrap();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"tampered", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = test_key();
        let mut sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        sig[10] ^= 0x40;
        assert_eq!(kp.public.verify(HashAlg::Sha256, b"m", &sig), Err(CryptoError::BadSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = RsaKeyPair::insecure_test_key(1);
        let kp2 = RsaKeyPair::insecure_test_key(2);
        let sig = kp1.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert!(kp2.public.verify(HashAlg::Sha256, b"m", &sig).is_err());
    }

    #[test]
    fn wrong_hash_alg_rejected() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert!(kp.public.verify(HashAlg::Md5, b"m", &sig).is_err());
    }

    #[test]
    fn signature_length_enforced() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"m", &sig[..sig.len() - 1]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(9);
        for msg in [&b""[..], b"x", b"a 32-byte session key goes here!"] {
            let ct = kp.public.encrypt(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), kp.public.size());
            assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(10);
        let a = kp.public.encrypt(&mut rng, b"same").unwrap();
        let b = kp.public.encrypt(&mut rng, b"same").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(11);
        let too_long = vec![0u8; kp.public.size() - 10];
        assert_eq!(kp.public.encrypt(&mut rng, &too_long), Err(CryptoError::MessageTooLong));
    }

    #[test]
    fn corrupted_ciphertext_rejected() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(12);
        let mut ct = kp.public.encrypt(&mut rng, b"secret").unwrap();
        ct[0] ^= 1;
        // Either padding failure or a garbage plaintext — it must not be the
        // original. (PKCS#1 v1.5 decryption can't authenticate.)
        if let Ok(pt) = kp.private.decrypt(&ct) {
            assert_ne!(pt, b"secret")
        }
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let kp1 = RsaKeyPair::insecure_test_key(1);
        let kp2 = RsaKeyPair::insecure_test_key(2);
        assert_eq!(kp1.public.fingerprint(), kp1.public.fingerprint());
        assert_ne!(kp1.public.fingerprint(), kp2.public.fingerprint());
    }

    #[test]
    fn insecure_test_keys_are_pinned() {
        // Key generation's RNG draws and its every accept/reject decision
        // are part of the simulation's identity: a faster primality test
        // must still yield these keys.
        for (seed, fingerprint) in [
            (0, "93aacc429b2694077ed741df3b1d66ad42188d19b1f8a09c39cb190bdef49e33"),
            (1, "a643d5b19fb4ff0ce8c2acb0bc9b2e54bfc428ce46ac4efb5b3c15c33b40be8a"),
            (2, "e0334497d406da1421ff35f9871c28e35b27b8500c6dc0f041a466932613b4d5"),
            (3, "19896a8e8f8b4d7e07b4b7cf90bc6114386c181f0e07fe3da0986d1dd26c9fc3"),
            (57, "9336e2eaa686ef5665e8004e2de3762c7d17ccb53ef08180be2c2240a8940994"),
            (199, "90b083a04f4f11a74c00b15ab0a040050f05d96efee8345024db8f2f5a4276a8"),
        ] {
            let kp = RsaKeyPair::insecure_test_key(seed);
            assert_eq!(
                crate::encoding::hex_encode(&kp.public.fingerprint()),
                fingerprint,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn components_roundtrip() {
        let kp = test_key();
        let pk = RsaPublicKey::from_components(&kp.public.n_bytes(), &kp.public.e_bytes());
        assert_eq!(pk, kp.public);
    }

    #[test]
    fn debug_does_not_leak_private_key() {
        let kp = test_key();
        let s = format!("{:?}", kp.private);
        let d_hex = crate::encoding::hex_encode(&kp.private.crt.d.to_bytes_be());
        assert!(!s.contains(&d_hex));
        assert!(s.contains("bits"));
        // The key pair's Debug shows the public components only.
        let s = format!("{kp:?}");
        assert!(!s.contains(&d_hex));
        assert!(s.contains(&crate::encoding::hex_encode(&kp.public.n_bytes())));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = test_key();
        let k = kp.public.size();
        let n_minus_1 = kp.public.0.n.sub(&BigUint::one());
        for c in
            [0u64, 1, 2, 12345, 0xffff_ffff].map(BigUint::from_u64).into_iter().chain([n_minus_1])
        {
            let plain = kp.private.raw_decrypt_no_crt(&c);
            assert_eq!(kp.private.raw_decrypt(&c), plain);
            let fixed = kp.private.raw_private(&c.to_bytes_be_padded(k).unwrap()).unwrap();
            assert_eq!(fixed, plain.to_bytes_be_padded(k).unwrap());
        }
        // n itself is not a valid input.
        assert!(kp.private.raw_private(&kp.public.n_bytes()).is_none());
        assert!(kp.public.raw_public(&kp.public.n_bytes()).is_none());
    }

    #[test]
    fn keys_no_fixed_width_covers_run_on_biguint() {
        // The Mersenne primes 2^2203 − 1 (35 limbs) and 2^1279 − 1 give a
        // key whose p and n are both wider than the 32-limb kernels.
        let mersenne = |k: usize| BigUint::one().shl(k).sub(&BigUint::one());
        let kp = RsaKeyPair::from_primes(mersenne(2203), mersenne(1279)).unwrap();
        let mut rng = ChaChaRng::seed_from_u64(78);
        assert!(matches!(kp.public.0.mont, ByWidth::Wide));
        assert!(matches!(kp.private.crt.fixed, ByWidth::Wide));
        let digest = HashAlg::Sha256.hash(b"wide");
        let sig = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        assert_eq!(sig, kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap());
        kp.public.verify_prehashed(HashAlg::Sha256, &digest, &sig).unwrap();
        let ct = kp.public.encrypt(&mut rng, b"session key").unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), b"session key");
        assert!(kp.private.raw_private(&kp.public.n_bytes()).is_none());
        assert!(kp.public.raw_public(&kp.public.n_bytes()).is_none());
    }

    #[test]
    fn clones_share_the_derived_constants() {
        let kp = test_key();
        let pk = kp.public.clone();
        assert!(Arc::ptr_eq(&pk.0, &kp.public.0));
        assert!(Arc::ptr_eq(&pk.0, &kp.private.public().0));
        assert!(Arc::ptr_eq(&kp.private.clone().crt, &kp.private.crt));
        // A key rebuilt from its components is equal, with the same
        // fingerprint and Debug, though nothing is shared.
        let rebuilt = RsaPublicKey::from_components(&pk.n_bytes(), &pk.e_bytes());
        assert!(!Arc::ptr_eq(&rebuilt.0, &pk.0));
        assert_eq!(rebuilt, pk);
        assert_eq!(rebuilt.fingerprint(), pk.fingerprint());
        let mut preimage = (pk.size() as u64).to_be_bytes().to_vec();
        preimage.extend(pk.n_bytes().into_iter().chain(pk.e_bytes()));
        assert_eq!(pk.fingerprint().to_vec(), HashAlg::Sha256.hash(&preimage));
        assert_eq!(format!("{rebuilt:?}"), format!("{pk:?}"));
        assert!(format!("{pk:?}").starts_with("RsaPublicKey { n: BigUint(0x"));
    }

    #[test]
    fn reference_paths_match_fast_paths() {
        let kp = test_key();
        let digest = HashAlg::Sha256.hash(b"differential");
        let fast = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        let slow = kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap();
        assert_eq!(fast, slow, "old and new exponentiation paths must agree byte-for-byte");
        kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &fast).unwrap();
        let mut bad = fast.clone();
        bad[7] ^= 1;
        assert_eq!(
            kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &bad),
            Err(CryptoError::BadSignature)
        );
    }

    /// Keys at 512, 1024 and 2048 bits (CRT halves of 4, 8 and 16 limbs)
    /// and one key no fixed width covers.
    fn split_keys() -> Vec<RsaKeyPair> {
        let mersenne = |k: usize| BigUint::one().shl(k).sub(&BigUint::one());
        let mut keys: Vec<RsaKeyPair> = [512usize, 1024, 2048]
            .iter()
            .map(|&bits| RsaKeyPair::generate(bits, &mut ChaChaRng::seed_from_u64(bits as u64)))
            .collect();
        keys.extend(RsaKeyPair::from_primes(mersenne(2203), mersenne(1279)));
        keys
    }

    /// Signs and decrypts with every key and checks each output against
    /// the serial references; returns the halves the helper computed for
    /// this thread.
    fn sign_and_decrypt_match_the_references(keys: &[RsaKeyPair], seed: u64) -> u64 {
        let helped = crt_split::helped_here();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        for (i, kp) in keys.iter().enumerate() {
            let rounds = if kp.public.bits() > 2048 { 1 } else { 4 };
            for round in 0..rounds {
                let digest = HashAlg::Sha256.hash(&[seed as u8, i as u8, round]);
                assert_eq!(
                    kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap(),
                    kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap(),
                    "{} bits",
                    kp.public.bits()
                );
                let ct = kp.public.encrypt(&mut rng, &digest[..16]).unwrap();
                let k = kp.public.size();
                let plain = kp.private.raw_decrypt_no_crt(&BigUint::from_bytes_be(&ct));
                assert_eq!(kp.private.raw_private(&ct), plain.to_bytes_be_padded(k));
                assert_eq!(kp.private.decrypt(&ct).unwrap(), &digest[..16]);
            }
        }
        crt_split::helped_here() - helped
    }

    #[test]
    fn concurrent_split_operations_match_the_serial_references() {
        let keys = split_keys();
        assert!(matches!(keys[2].private.crt.fixed, ByWidth::L16(_)));
        assert!(matches!(keys[3].private.crt.fixed, ByWidth::Wide));
        let two_cores = tpnr_par::available_parallelism() >= 2;
        // While another test's fan-out runs, no half is offloaded, so the
        // round repeats (a bounded number of times) until one was.
        let mut helped = 0;
        for round in 0..20 {
            helped += std::thread::scope(|s| {
                let threads: Vec<_> = (0..3u64)
                    .map(|t| {
                        let keys = &keys;
                        s.spawn(move || sign_and_decrypt_match_the_references(keys, 3 * round + t))
                    })
                    .collect();
                threads.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            });
            if helped > 0 || !two_cores {
                break;
            }
        }
        if two_cores {
            assert!(helped > 0, "the helper computed no half");
        } else {
            assert_eq!(helped, 0, "a single-core host never offloads");
        }
    }

    /// Runs `step` until it returns true, at most 2,000 times: while
    /// another test's fan-out runs, or another thread's half holds the
    /// slot, nothing is posted.
    fn until(mut step: impl FnMut(u16) -> bool) -> bool {
        (0..2_000).any(|i| {
            let done = step(i);
            if !done {
                std::thread::yield_now();
            }
            done
        })
    }

    #[test]
    fn a_stalled_helper_delays_no_signature_and_frees_its_slot() {
        let kp = RsaKeyPair::generate(512, &mut ChaChaRng::seed_from_u64(512));
        let signs_like_the_reference = |i: u16| {
            let digest = HashAlg::Sha256.hash(&i.to_be_bytes());
            let sig = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
            assert_eq!(sig, kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap());
        };
        let two_cores = tpnr_par::available_parallelism() >= 2;
        // The helper holds a half until its caller gives up waiting; the
        // caller computes it itself and signs alike.
        let (abandoned, helped) = (crt_split::abandoned_here(), crt_split::helped_here());
        let stalled = until(|i| {
            crt_split::stall_next_half();
            signs_like_the_reference(i);
            assert_eq!(crt_split::helped_here(), helped, "a caller waited out a stalled helper");
            crt_split::abandoned_here() > abandoned
        });
        assert_eq!(stalled, two_cores, "a stalled half was abandoned");
        // The helper drops the late half and serves the next post.
        let served = until(|i| {
            signs_like_the_reference(i);
            crt_split::helped_here() > helped
        });
        assert_eq!(served, two_cores, "the helper computed a later half");
    }

    #[test]
    fn fanouts_keep_every_half_on_their_own_workers() {
        let mut keys = split_keys();
        keys.truncate(3);
        for workers in [1, 2] {
            let helped = tpnr_par::Pool::new(workers).run_indexed(2, |i| {
                assert!(tpnr_par::fanouts_running() > 0);
                sign_and_decrypt_match_the_references(&keys, 10 + i as u64)
            });
            assert_eq!(helped, [0, 0], "{workers} workers");
        }
    }

    #[test]
    fn larger_keygen_1024() {
        let mut rng = ChaChaRng::seed_from_u64(77);
        let kp = RsaKeyPair::generate(1024, &mut rng);
        assert_eq!(kp.public.bits(), 1024);
        let sig = kp.private.sign(HashAlg::Sha256, b"big").unwrap();
        kp.public.verify(HashAlg::Sha256, b"big", &sig).unwrap();
    }
}
