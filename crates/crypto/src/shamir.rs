//! Shamir secret sharing over GF(2⁸).
//!
//! Paper §3.2/§3.4: the "SKS" (Secret Key Sharing) bridging schemes split the
//! agreed MD5 between the user and the provider (and optionally the TAC) so
//! that a dispute can only be settled with both halves present — neither
//! party can unilaterally forge the agreed checksum.
//!
//! Each secret byte is shared independently with a random polynomial of
//! degree `k-1`; share `i` is the polynomial evaluated at `x = i` (`x = 0`
//! is the secret itself and is never issued).

use crate::error::CryptoError;
use crate::rng::ChaChaRng;

/// One participant's share: the evaluation point and one byte per secret
/// byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (1..=255); doubles as the share index.
    pub x: u8,
    /// `y_j = P_j(x)` for each secret byte `j`.
    pub y: Vec<u8>,
}

/// GF(2⁸) multiplication with the AES polynomial x⁸+x⁴+x³+x+1 (0x11b).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// GF(2⁸) multiplicative inverse (a ≠ 0) via a^254.
fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "no inverse of 0 in GF(256)");
    // a^254 by square-and-multiply (exponent 254 = 0b11111110).
    let mut result = 1u8;
    let mut base = a;
    let mut e = 254u32;
    while e > 0 {
        if e & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    result
}

/// Splits `secret` into `n` shares with reconstruction threshold `k`.
///
/// Constraints: `1 <= k <= n <= 255`.
pub fn split(
    secret: &[u8],
    k: usize,
    n: usize,
    rng: &mut ChaChaRng,
) -> Result<Vec<Share>, CryptoError> {
    if k == 0 || k > n || n > 255 {
        return Err(CryptoError::InvalidShareParams);
    }
    // coeffs[c][j] = coefficient c of the polynomial for secret byte j;
    // coefficient 0 is the secret byte itself.
    let mut coeffs = vec![secret.to_vec()];
    for _ in 1..k {
        coeffs.push(rng.gen_bytes(secret.len()));
    }
    let mut shares = Vec::with_capacity(n);
    for xi in 1..=n as u8 {
        let mut y = vec![0u8; secret.len()];
        for j in 0..secret.len() {
            // Horner evaluation at x = xi.
            let mut acc = 0u8;
            for c in coeffs.iter().rev() {
                acc = gf_mul(acc, xi) ^ c[j];
            }
            y[j] = acc;
        }
        shares.push(Share { x: xi, y });
    }
    Ok(shares)
}

/// Reconstructs the secret from at least `k` shares (any subset works; extra
/// shares are ignored beyond consistency of length/points).
pub fn combine(shares: &[Share]) -> Result<Vec<u8>, CryptoError> {
    if shares.is_empty() {
        return Err(CryptoError::BadShares);
    }
    let len = shares[0].y.len();
    if shares.iter().any(|s| s.y.len() != len || s.x == 0) {
        return Err(CryptoError::BadShares);
    }
    // Duplicate evaluation points make interpolation ill-defined.
    for (i, a) in shares.iter().enumerate() {
        if shares[i + 1..].iter().any(|b| b.x == a.x) {
            return Err(CryptoError::BadShares);
        }
    }
    // Lagrange interpolation at x = 0; in GF(2^k) subtraction is XOR so the
    // basis weight for share i is Π_{m≠i} x_m / (x_m ⊕ x_i).
    let mut secret = vec![0u8; len];
    for (i, si) in shares.iter().enumerate() {
        let mut weight = 1u8;
        for (m, sm) in shares.iter().enumerate() {
            if m == i {
                continue;
            }
            weight = gf_mul(weight, gf_mul(sm.x, gf_inv(sm.x ^ si.x)));
        }
        for (sj, yj) in secret.iter_mut().zip(&si.y) {
            *sj ^= gf_mul(weight, *yj);
        }
    }
    Ok(secret)
}

impl Share {
    /// Serialises as `x ‖ y…` (used by the bridging-scheme records).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.y.len());
        out.push(self.x);
        out.extend_from_slice(&self.y);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn gf_field_axioms_spot() {
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
        // AES S-box generator fact: 0x53 * 0xCA = 0x01.
        assert_eq!(gf_mul(0x53, 0xca), 0x01);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a}");
        }
    }

    #[test]
    fn gf_mul_commutes_and_distributes() {
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                for c in (0..=255u8).step_by(51) {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn split_and_combine_exact_threshold() {
        let secret = b"an md5 checksum!"; // 16 bytes, like the paper's MD5
        let shares = split(secret, 3, 5, &mut rng()).unwrap();
        assert_eq!(shares.len(), 5);
        assert_eq!(combine(&shares[..3]).unwrap(), secret);
        assert_eq!(combine(&shares[2..]).unwrap(), secret);
        assert_eq!(combine(&shares).unwrap(), secret);
    }

    #[test]
    fn two_party_split_needs_both() {
        // The paper's SKS case: user and provider each hold one share, k=2.
        let secret = b"shared-md5";
        let shares = split(secret, 2, 2, &mut rng()).unwrap();
        assert_eq!(combine(&shares).unwrap(), secret);
        // One share alone interpolates to garbage, not the secret.
        assert_ne!(combine(&shares[..1]).unwrap(), secret);
    }

    #[test]
    fn below_threshold_reveals_nothing_deterministic() {
        // With k=2 a single share is uniformly distributed: sharing two
        // different secrets can produce the same single-share view.
        let s1 = split(b"A", 2, 3, &mut rng()).unwrap();
        let mut other = ChaChaRng::seed_from_u64(0x5eed); // same polynomial coeffs
        let s2 = split(b"B", 2, 3, &mut other).unwrap();
        // Shares differ because the secret differs, but each is still a
        // valid-looking point — nothing structurally identifies the secret.
        assert_ne!(s1[0], s2[0]);
    }

    #[test]
    fn k_equals_one_is_replication() {
        let shares = split(b"public", 1, 4, &mut rng()).unwrap();
        for s in &shares {
            assert_eq!(combine(std::slice::from_ref(s)).unwrap(), b"public");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let mut r = rng();
        assert_eq!(split(b"s", 0, 3, &mut r), Err(CryptoError::InvalidShareParams));
        assert_eq!(split(b"s", 4, 3, &mut r), Err(CryptoError::InvalidShareParams));
        assert_eq!(split(b"s", 2, 256, &mut r), Err(CryptoError::InvalidShareParams));
    }

    #[test]
    fn bad_share_sets_rejected() {
        let shares = split(b"secret", 2, 3, &mut rng()).unwrap();
        assert_eq!(combine(&[]), Err(CryptoError::BadShares));
        // Duplicate x.
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert_eq!(combine(&dup), Err(CryptoError::BadShares));
        // Mismatched lengths.
        let mut bad = shares.clone();
        bad[1].y.pop();
        assert_eq!(combine(&bad[..2]), Err(CryptoError::BadShares));
    }

    #[test]
    fn corrupted_share_changes_output() {
        let secret = b"integrity";
        let mut shares = split(secret, 2, 2, &mut rng()).unwrap();
        shares[0].y[0] ^= 1;
        assert_ne!(combine(&shares).unwrap(), secret);
    }

    #[test]
    fn empty_secret_supported() {
        let shares = split(b"", 2, 3, &mut rng()).unwrap();
        assert_eq!(combine(&shares[..2]).unwrap(), b"");
    }
}
