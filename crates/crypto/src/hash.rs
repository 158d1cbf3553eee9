//! Common digest abstraction over the concrete hash implementations.
//!
//! The paper's platforms use MD5 for content integrity (Azure `Content-MD5`,
//! AWS Import/Export logs) and the TPNR evidence hashes are
//! algorithm-agnostic, so everything downstream is written against
//! [`Digest`] / [`HashAlg`] and can run with either.

use crate::md5::Md5;
use crate::sha1::Sha1;
use crate::sha2::{Sha256, Sha512};

/// Incremental hash function interface.
pub trait Digest: Default + Clone {
    /// Digest size in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block size in bytes (used by HMAC).
    const BLOCK_LEN: usize;
    /// Human-readable algorithm name.
    const NAME: &'static str;

    /// Absorbs more input.
    fn update(&mut self, data: &[u8]);
    /// Finalises and returns the digest.
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::default();
        h.update(data);
        h.finalize()
    }
}

/// Merkle–Damgård message padding: `0x80` then zeros, long enough for the
/// largest block here (SHA-512's 128 bytes). A finalizer absorbs
/// `MD_PAD[..md_pad_len(…)]` in one update.
pub(crate) const MD_PAD: [u8; 128] = {
    let mut pad = [0u8; 128];
    pad[0] = 0x80;
    pad
};

/// How many [`MD_PAD`] bytes take a partial block of `buf_len` bytes to
/// the length field at `block - len_field`, in this block or the next:
/// between 1 and `block`.
pub(crate) fn md_pad_len(buf_len: usize, block: usize, len_field: usize) -> usize {
    let target = block - len_field;
    if buf_len < target {
        target - buf_len
    } else {
        block + target - buf_len
    }
}

/// Runtime-selectable hash algorithm.
///
/// MD5 mirrors the 2010 platforms under study; SHA-256 is the library
/// default for new evidence. MD5 is retained *only* for fidelity to the
/// paper — it is cryptographically broken and must not be used for new
/// designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// MD5 (128-bit) — what AWS/Azure used for content integrity in 2010.
    Md5,
    /// SHA-1 (160-bit).
    Sha1,
    /// SHA-256 (256-bit) — library default.
    Sha256,
    /// SHA-512 (512-bit).
    Sha512,
}

impl HashAlg {
    /// Digest length in bytes.
    pub fn output_len(self) -> usize {
        match self {
            HashAlg::Md5 => 16,
            HashAlg::Sha1 => 20,
            HashAlg::Sha256 => 32,
            HashAlg::Sha512 => 64,
        }
    }

    /// Algorithm name as used in logs and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            HashAlg::Md5 => "MD5",
            HashAlg::Sha1 => "SHA-1",
            HashAlg::Sha256 => "SHA-256",
            HashAlg::Sha512 => "SHA-512",
        }
    }

    /// One-shot hash with the selected algorithm.
    pub fn hash(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Md5 => Md5::digest(data),
            HashAlg::Sha1 => Sha1::digest(data),
            HashAlg::Sha256 => Sha256::digest(data),
            HashAlg::Sha512 => Sha512::digest(data),
        }
    }

    /// Stable one-byte identifier used in the wire codec.
    pub fn wire_id(self) -> u8 {
        match self {
            HashAlg::Md5 => 1,
            HashAlg::Sha1 => 2,
            HashAlg::Sha256 => 3,
            HashAlg::Sha512 => 4,
        }
    }

    /// Inverse of [`HashAlg::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(HashAlg::Md5),
            2 => Some(HashAlg::Sha1),
            3 => Some(HashAlg::Sha256),
            4 => Some(HashAlg::Sha512),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_lengths_match_impls() {
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
            assert_eq!(alg.hash(b"abc").len(), alg.output_len(), "{}", alg.name());
        }
    }

    #[test]
    fn wire_id_roundtrip() {
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
            assert_eq!(HashAlg::from_wire_id(alg.wire_id()), Some(alg));
        }
        assert_eq!(HashAlg::from_wire_id(0), None);
        assert_eq!(HashAlg::from_wire_id(200), None);
    }

    /// Digests of `0, 1, …, len-1` on both sides of every padding boundary:
    /// the 0x80 byte and the length field landing in the same block, in
    /// the next one, or exactly filling a block.
    #[test]
    fn padding_boundary_digests_are_pinned() {
        let cases: &[(HashAlg, usize, &str)] = &[
            (HashAlg::Md5, 55, "6912ee65fff2d9f9ce2508cddf8bcda0"),
            (HashAlg::Md5, 56, "51fdd1acda72405dfdfa03fcb85896d7"),
            (HashAlg::Md5, 63, "48a6295221902e8e0938f773a7185e72"),
            (HashAlg::Md5, 64, "b2d3f56bc197fd985d5965079b5e7148"),
            (HashAlg::Sha1, 55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (HashAlg::Sha1, 56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (HashAlg::Sha1, 63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (HashAlg::Sha1, 64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (
                HashAlg::Sha256,
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                HashAlg::Sha256,
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                HashAlg::Sha256,
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                HashAlg::Sha256,
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                HashAlg::Sha512,
                111,
                "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860de8512746cbc3\
                 1599e6c834de3a3235327af0b51ff57bf7acf1974a73014d9c3953812edc7c8d",
            ),
            (
                HashAlg::Sha512,
                112,
                "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e24593b8e117a7\
                 50e11c1bd867cc2f96dace8c8b74abd2d5c4f236be444e77d30d1916174070b9",
            ),
            (
                HashAlg::Sha512,
                127,
                "eab89674feaa34e27aebeeff3c0a4d70070bb872d5e9f186cf1dbbdee517b6e3\
                 5724d629ff025a5b07185e911ada7e3c8acf830aa0e4f71777bd2d44f504f7f0",
            ),
            (
                HashAlg::Sha512,
                128,
                "1dffd5e3adb71d45d2245939665521ae001a317a03720a45732ba1900ca3b835\
                 1fc5c9b4ca513eba6f80bc7b1d1fdad4abd13491cb824d61b08d8c0e1561b3f7",
            ),
        ];
        for &(alg, len, want) in cases {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(crate::encoding::hex_encode(&alg.hash(&data)), want, "{} {len}", alg.name());
        }
    }

    #[test]
    fn different_algorithms_differ() {
        let d = b"same input";
        assert_ne!(HashAlg::Md5.hash(d), HashAlg::Sha256.hash(d)[..16].to_vec());
        assert_ne!(HashAlg::Sha256.hash(d), HashAlg::Sha512.hash(d)[..32].to_vec());
    }
}
