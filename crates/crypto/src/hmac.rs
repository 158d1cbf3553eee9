//! HMAC (RFC 2104 / FIPS 198-1), generic over any [`Digest`].
//!
//! HMAC-SHA256 is the Azure shared-key request authentication of paper §2.2
//! / Table 1; HMAC also authenticates the secure-channel frames in
//! `tpnr-net`.

use crate::ct;
use crate::hash::{Digest, HashAlg};
use crate::md5::Md5;
use crate::sha1::Sha1;
use crate::sha2::{Sha256, Sha512};

/// Incremental HMAC state over digest `D`.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// Key XOR opad, kept to finish the outer hash.
    opad_key: Vec<u8>,
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC context for `key` (any length; long keys are hashed
    /// first per the RFC).
    pub fn new(key: &[u8]) -> Self {
        let mut k = if key.len() > D::BLOCK_LEN { D::digest(key) } else { key.to_vec() };
        k.resize(D::BLOCK_LEN, 0);
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        let mut inner = D::default();
        inner.update(&ipad);
        Hmac { inner, opad_key: opad }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalises and returns the tag.
    pub fn finalize(self) -> Vec<u8> {
        let inner_hash = self.inner.finalize();
        let mut outer = D::default();
        outer.update(&self.opad_key);
        outer.update(&inner_hash);
        outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time verification of a full-length tag.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        ct::eq(&Self::mac(key, data), tag)
    }
}

/// One-shot HMAC-SHA256 under a 32-byte key, computed on the stack: the
/// envelope's MAC, which [`Hmac`] would answer with six heap buffers.
pub(crate) fn hmac_sha256(key: &[u8; 32], data: &[u8]) -> [u8; 32] {
    // The key, zero-padded to one block, XOR ipad; XOR-ing in
    // `ipad ^ opad` then turns it into the outer key.
    let mut pad = [0x36u8; 64];
    for (p, k) in pad.iter_mut().zip(key) {
        *p ^= k;
    }
    let mut inner = Sha256::default();
    inner.update(&pad);
    inner.update(data);
    let inner_hash = inner.finalize_array();
    for p in &mut pad {
        *p ^= 0x36 ^ 0x5c;
    }
    let mut outer = Sha256::default();
    outer.update(&pad);
    outer.update(&inner_hash);
    outer.finalize_array()
}

/// One-shot HMAC with a runtime-selected hash (mirrors [`HashAlg::hash`]).
pub fn hmac(alg: HashAlg, key: &[u8], data: &[u8]) -> Vec<u8> {
    match alg {
        HashAlg::Md5 => Hmac::<Md5>::mac(key, data),
        HashAlg::Sha1 => Hmac::<Sha1>::mac(key, data),
        HashAlg::Sha256 => Hmac::<Sha256>::mac(key, data),
        HashAlg::Sha512 => Hmac::<Sha512>::mac(key, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{hex_decode, hex_encode};

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex_encode(&Hmac::<Sha512>::mac(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 2202 HMAC-MD5 test vector 1.
    #[test]
    fn rfc2202_md5() {
        let key = [0x0bu8; 16];
        assert_eq!(
            hex_encode(&Hmac::<Md5>::mac(&key, b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
    }

    /// RFC 2202 HMAC-SHA1 test vector 2.
    #[test]
    fn rfc2202_sha1() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex_encode(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"k", b"msg");
        assert!(Hmac::<Sha256>::verify(b"k", b"msg", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"msG", &tag));
        assert!(!Hmac::<Sha256>::verify(b"K", b"msg", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha256>::verify(b"k", b"msg", &bad));
        assert!(!Hmac::<Sha256>::verify(b"k", b"msg", &tag[..31]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Hmac::<Sha256>::new(b"key");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), Hmac::<Sha256>::mac(b"key", b"hello world"));
    }

    #[test]
    fn the_stack_hmac_matches_the_generic_one() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7) as u8);
        for n in [0usize, 1, 55, 56, 63, 64, 65, 119, 200] {
            let data: Vec<u8> = (0..n).map(|i| (i * 13) as u8).collect();
            assert_eq!(hmac_sha256(&key, &data).to_vec(), Hmac::<Sha256>::mac(&key, &data));
        }
    }

    #[test]
    fn runtime_dispatch_matches_static() {
        let t = hmac(HashAlg::Sha256, b"k", b"d");
        assert_eq!(t, Hmac::<Sha256>::mac(b"k", b"d"));
        let _ = hex_decode("00"); // keep import used in all cfg combinations
    }
}
