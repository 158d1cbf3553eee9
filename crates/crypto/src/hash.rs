//! Common digest abstraction over the concrete hash implementations.
//!
//! The paper's platforms use MD5 for content integrity (Azure `Content-MD5`,
//! AWS Import/Export logs) and the TPNR evidence hashes are
//! algorithm-agnostic, so everything downstream is written against
//! [`Digest`] / [`HashAlg`] and can run with either.

use crate::md5::Md5;
use crate::sha1::Sha1;
use crate::sha2::{Sha256, Sha512};
use std::sync::Arc;

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

/// Memoizes digests of shared immutable buffers by allocation identity.
///
/// The hot loops hash the same object many times: the evidence `data_hash`
/// at sealing, the re-hash at receipt verification, storage-platform MD5
/// checks, and Merkle commitments for audits. When the object lives in a
/// shared immutable buffer (`tpnr_net::Bytes` wraps an `Arc<Vec<u8>>`),
/// its digest can be computed once per algorithm and looked up afterwards.
///
/// A cache entry is keyed on `(algorithm, allocation address, window,
/// auxiliary key bytes)` and **pins a clone of the `Arc`**, which makes
/// the scheme sound on two fronts: the allocation cannot be freed (so the
/// address cannot be reused by a different buffer while the entry lives),
/// and `Arc::get_mut` on the buffer fails for everyone (so the contents
/// cannot change under the memo). The `aux` bytes let callers fold extra
/// inputs into the key — e.g. a payload's object key and commitment mode —
/// when the memoized value covers more than the raw buffer.
///
/// Entries live in a plain `Vec` scanned linearly and evicted FIFO:
/// deterministic iteration (no `HashMap` ordering — see the DET-ORDER lint
/// rule), and for the handful of live objects an actor touches the scan is
/// cheaper than hashing even one block.
pub struct DigestCache {
    entries: Vec<CacheEntry>,
    cap: usize,
    hits: u64,
    misses: u64,
}

struct CacheEntry {
    alg: HashAlg,
    addr: usize,
    start: usize,
    end: usize,
    aux: Vec<u8>,
    digest: Vec<u8>,
    /// Keeps the allocation alive (and its address unique) for the
    /// entry's lifetime.
    _pin: Arc<Vec<u8>>,
}

impl DigestCache {
    /// A cache holding at most `cap` entries (oldest evicted first).
    pub fn new(cap: usize) -> DigestCache {
        DigestCache { entries: Vec::new(), cap: cap.max(1), hits: 0, misses: 0 }
    }

    /// Digest of `buf[start..end]` with `alg`, memoized on the buffer's
    /// allocation identity and window.
    pub fn hash(&mut self, alg: HashAlg, buf: &Arc<Vec<u8>>, start: usize, end: usize) -> Vec<u8> {
        self.memo(alg, buf, start, end, &[], |slice| alg.hash(slice))
    }

    /// Generalized memoization: returns the cached value for `(alg, buf
    /// identity, window, aux)` or computes it with `f` over
    /// `buf[start..end]`. `f` must be a pure function of the slice, `alg`
    /// and `aux` — the cache replays its result for any later caller with
    /// the same key.
    pub fn memo(
        &mut self,
        alg: HashAlg,
        buf: &Arc<Vec<u8>>,
        start: usize,
        end: usize,
        aux: &[u8],
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Vec<u8> {
        let addr = Arc::as_ptr(buf) as usize;
        if let Some(e) = self.entries.iter().find(|e| {
            e.alg == alg && e.addr == addr && e.start == start && e.end == end && e.aux == aux
        }) {
            self.hits += 1;
            return e.digest.clone();
        }
        self.misses += 1;
        let digest = f(&buf[start..end]);
        if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push(CacheEntry {
            alg,
            addr,
            start,
            end,
            aux: aux.to_vec(),
            digest: digest.clone(),
            _pin: buf.clone(),
        });
        digest
    }

    /// Number of lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn cache_hits_on_same_identity_misses_on_equal_content() {
        let mut c = DigestCache::new(4);
        let a = Arc::new(vec![0x11u8; 1024]);
        let b = Arc::new(vec![0x11u8; 1024]); // equal bytes, new allocation
        let d1 = c.hash(HashAlg::Sha256, &a, 0, 1024);
        assert_eq!(d1, HashAlg::Sha256.hash(&a));
        assert_eq!((c.hits(), c.misses()), (0, 1));
        assert_eq!(c.hash(HashAlg::Sha256, &a, 0, 1024), d1);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Identity, not content, is the key: a fresh allocation recomputes
        // (correctly, to the same digest).
        assert_eq!(c.hash(HashAlg::Sha256, &b, 0, 1024), d1);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn cache_distinguishes_alg_window_and_aux() {
        let mut c = DigestCache::new(8);
        let a = Arc::new((0u8..64).collect::<Vec<u8>>());
        let full = c.hash(HashAlg::Md5, &a, 0, 64);
        assert_ne!(c.hash(HashAlg::Sha1, &a, 0, 64), full);
        assert_ne!(c.hash(HashAlg::Md5, &a, 0, 32), full);
        assert_eq!(c.hash(HashAlg::Md5, &a, 0, 32), HashAlg::Md5.hash(&a[..32]));
        let tagged = c.memo(HashAlg::Md5, &a, 0, 64, b"commit:flat", |s| {
            let mut v = b"commit:flat".to_vec();
            v.extend_from_slice(s);
            HashAlg::Md5.hash(&v)
        });
        assert_ne!(tagged, full);
        assert_eq!(c.misses(), 4);
        // Replay of the aux-keyed entry is a pure lookup.
        let again = c.memo(HashAlg::Md5, &a, 0, 64, b"commit:flat", |_| unreachable!());
        assert_eq!(again, tagged);
    }

    #[test]
    fn reallocated_address_cannot_return_stale_digest() {
        // The cache keys on `Arc::as_ptr`, so the dangerous sequence is:
        // cache a digest for buffer A, free A, allocate a different buffer B
        // at the same address, look B up. Soundness rests on the entry's
        // pin: while the entry lives, A cannot be freed, so no other buffer
        // can occupy its address; once the entry is evicted the pin drops
        // and the address may be reused — but the entry is gone with it.
        let mut c = DigestCache::new(1);
        let a = Arc::new(vec![0xAAu8; 256]);
        let addr_a = Arc::as_ptr(&a) as usize;
        let weak_a = Arc::downgrade(&a);
        let stale = c.hash(HashAlg::Sha256, &a, 0, 256);
        drop(a);
        // The caller's ref is gone but the entry pins the allocation: a
        // same-layout allocation cannot land on A's address yet.
        assert!(weak_a.upgrade().is_some());
        let probe = Arc::new(vec![0xBBu8; 256]);
        assert_ne!(Arc::as_ptr(&probe) as usize, addr_a, "pinned address was reused");
        drop(probe);
        // Evict A's entry (cap = 1): the pin must drop with it, freeing A.
        let filler = Arc::new(vec![0x55u8; 16]);
        c.hash(HashAlg::Sha256, &filler, 0, 16);
        assert!(weak_a.upgrade().is_none(), "eviction must release the pin");
        // The allocator may now hand A's address to a new same-layout
        // buffer. Whether or not it does, a lookup must never replay A's
        // digest: the evicted entry left no key behind.
        let mut reuse_seen = false;
        for _ in 0..64 {
            let b = Arc::new(vec![0xBBu8; 256]);
            reuse_seen |= Arc::as_ptr(&b) as usize == addr_a;
            let fresh = c.hash(HashAlg::Sha256, &b, 0, 256);
            assert_eq!(fresh, HashAlg::Sha256.hash(&b), "stale digest for reused address");
            assert_ne!(fresh, stale);
        }
        // Not asserted: `reuse_seen` depends on the allocator. With a 256-
        // byte block freed immediately before same-size allocations it is
        // essentially always true, which is what makes this a regression
        // test rather than dead code.
        let _ = reuse_seen;
    }

    #[test]
    fn cache_evicts_fifo_and_pins_allocations() {
        let mut c = DigestCache::new(2);
        let a = Arc::new(vec![1u8; 16]);
        let weak = Arc::downgrade(&a);
        c.hash(HashAlg::Md5, &a, 0, 16);
        drop(a);
        // The entry's pin keeps the allocation (and its address) alive.
        assert!(weak.upgrade().is_some());
        let b = Arc::new(vec![2u8; 16]);
        let d = Arc::new(vec![3u8; 16]);
        c.hash(HashAlg::Md5, &b, 0, 16);
        c.hash(HashAlg::Md5, &d, 0, 16); // evicts the first entry
        assert_eq!(c.len(), 2);
        assert!(weak.upgrade().is_none(), "evicted entry releases its pin");
    }
}
