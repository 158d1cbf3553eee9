//! The provider-side object store.
//!
//! This is the storage medium of paper Figure 5: the thing that sits
//! *between* the SSL-protected upload session and the SSL-protected
//! download session, fully under the provider's (Eve's) control. The
//! [`ObjectStore::tamper`] API is the malicious/faulty provider: it can
//! corrupt bytes, truncate, substitute whole objects, and — the worst case —
//! tamper *consistently*, recomputing the stored checksum so the platform's
//! own integrity metadata agrees with the corrupted data.

use std::collections::HashMap;
use tpnr_crypto::hash::HashAlg;
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// A stored object plus the integrity metadata the platform keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// Object payload — a shared immutable buffer, so putting, getting and
    /// serving an object never copy it. Tampering replaces the handle with
    /// a freshly allocated one (copy-mutate-rewrap), which also gives the
    /// corrupted bytes a new digest-cache identity: a memoized hash of the
    /// old object can never vouch for the new one.
    pub data: Bytes,
    /// Checksum recorded at upload time (`Content-MD5` on Azure, the
    /// Import/Export log MD5 on AWS). `None` if the uploader supplied none.
    pub stored_checksum: Option<Vec<u8>>,
    /// Checksum algorithm used for `stored_checksum`.
    pub checksum_alg: HashAlg,
    /// Upload timestamp.
    pub uploaded_at: SimTime,
    /// Uploading principal (account name).
    pub owner: String,
}

/// Ways the storage medium can corrupt an object in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one bit (silent media corruption).
    BitFlip {
        /// Byte offset whose lowest bit is flipped (wrapped to length).
        offset: usize,
    },
    /// Truncate the payload to `len` bytes.
    Truncate {
        /// New length (clamped to current length).
        len: usize,
    },
    /// Replace the payload entirely (malicious substitution).
    Replace(Vec<u8>),
    /// Append bytes (e.g. a botched partial overwrite).
    Append(Vec<u8>),
    /// Replace the payload **and** recompute the stored checksum so the
    /// platform's own metadata stays consistent. Only the provider can do
    /// this — it models Eve "playing with the data in hand" (paper §2.4
    /// concern 2). No per-session check can ever catch it.
    ConsistentReplace(Vec<u8>),
}

/// Result of applying a tamper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperReport {
    /// Whether the stored checksum still matches the (now corrupted) data.
    pub checksum_still_consistent: bool,
}

/// An in-memory keyed object store.
#[derive(Default)]
pub struct ObjectStore {
    objects: HashMap<String, StoredObject>,
}

impl ObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) an object.
    pub fn put(&mut self, key: &str, obj: StoredObject) {
        self.objects.insert(key.to_string(), obj);
    }

    /// Fetches an object.
    pub fn get(&self, key: &str) -> Option<&StoredObject> {
        self.objects.get(key)
    }

    /// Removes an object.
    pub fn delete(&mut self, key: &str) -> Option<StoredObject> {
        self.objects.remove(key)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates over keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(|s| s.as_str())
    }

    /// Applies a tamper to a stored object. Returns `None` if the key does
    /// not exist.
    pub fn tamper(&mut self, key: &str, t: &Tamper) -> Option<TamperReport> {
        let obj = self.objects.get_mut(key)?;
        // Stored buffers are immutable-by-sharing: every mutation copies
        // into a fresh buffer and rewraps (or, for Truncate, re-windows the
        // shared allocation — the digest cache keys on the window too, so
        // even that gets a distinct cache identity).
        match t {
            Tamper::BitFlip { offset } => {
                if !obj.data.is_empty() {
                    let i = offset % obj.data.len();
                    let mut copy = obj.data.to_vec();
                    copy[i] ^= 1;
                    obj.data = Bytes::from(copy);
                }
            }
            Tamper::Truncate { len } => {
                let new_len = (*len).min(obj.data.len());
                obj.data = obj.data.slice(0..new_len);
            }
            Tamper::Replace(new_data) => {
                obj.data = Bytes::from(new_data.clone());
            }
            Tamper::Append(extra) => {
                let mut copy = obj.data.to_vec();
                copy.extend_from_slice(extra);
                obj.data = Bytes::from(copy);
            }
            Tamper::ConsistentReplace(new_data) => {
                obj.data = Bytes::from(new_data.clone());
                obj.stored_checksum = Some(obj.checksum_alg.hash(&obj.data));
            }
        }
        let consistent = match &obj.stored_checksum {
            Some(sum) => tpnr_crypto::ct::eq(sum, &obj.checksum_alg.hash(&obj.data)),
            None => true, // nothing recorded, nothing to contradict
        };
        Some(TamperReport { checksum_still_consistent: consistent })
    }

    /// Checks whether a stored object's data matches its recorded checksum.
    /// Returns `None` for a missing key or an object with no checksum.
    pub fn verify_checksum(&self, key: &str) -> Option<bool> {
        let obj = self.objects.get(key)?;
        let sum = obj.stored_checksum.as_ref()?;
        Some(tpnr_crypto::ct::eq(sum, &obj.checksum_alg.hash(&obj.data)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(data: &[u8]) -> StoredObject {
        StoredObject {
            data: data.to_vec().into(),
            stored_checksum: Some(HashAlg::Md5.hash(data)),
            checksum_alg: HashAlg::Md5,
            uploaded_at: SimTime::ZERO,
            owner: "alice".into(),
        }
    }

    #[test]
    fn put_get_delete() {
        let mut s = ObjectStore::new();
        assert!(s.is_empty());
        s.put("k", obj(b"data"));
        assert_eq!(s.get("k").unwrap().data, b"data");
        assert_eq!(s.len(), 1);
        assert!(s.delete("k").is_some());
        assert!(s.get("k").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = ObjectStore::new();
        s.put("k", obj(b"v1"));
        s.put("k", obj(b"v2"));
        assert_eq!(s.get("k").unwrap().data, b"v2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bitflip_breaks_checksum_consistency() {
        let mut s = ObjectStore::new();
        s.put("k", obj(b"financial records"));
        let rep = s.tamper("k", &Tamper::BitFlip { offset: 3 }).unwrap();
        assert!(!rep.checksum_still_consistent);
        assert_eq!(s.verify_checksum("k"), Some(false));
    }

    #[test]
    fn bitflip_wraps_offset_and_handles_empty() {
        let mut s = ObjectStore::new();
        s.put("k", obj(b"ab"));
        s.tamper("k", &Tamper::BitFlip { offset: 7 }).unwrap(); // 7 % 2 = 1
        assert_eq!(s.get("k").unwrap().data, vec![b'a', b'b' ^ 1]);
        s.put("e", obj(b""));
        let rep = s.tamper("e", &Tamper::BitFlip { offset: 0 }).unwrap();
        assert!(rep.checksum_still_consistent, "empty object unchanged");
    }

    #[test]
    fn truncate_and_append_detected_by_checksum() {
        let mut s = ObjectStore::new();
        s.put("k", obj(b"0123456789"));
        let rep = s.tamper("k", &Tamper::Truncate { len: 4 }).unwrap();
        assert!(!rep.checksum_still_consistent);
        assert_eq!(s.get("k").unwrap().data, b"0123");

        s.put("k2", obj(b"base"));
        let rep = s.tamper("k2", &Tamper::Append(b"extra".to_vec())).unwrap();
        assert!(!rep.checksum_still_consistent);
    }

    #[test]
    fn consistent_replace_is_undetectable_by_stored_metadata() {
        // The crux of paper §2.4: the provider controls data AND metadata.
        let mut s = ObjectStore::new();
        s.put("k", obj(b"the true financial data"));
        let rep = s.tamper("k", &Tamper::ConsistentReplace(b"forged numbers".to_vec())).unwrap();
        assert!(rep.checksum_still_consistent);
        assert_eq!(s.verify_checksum("k"), Some(true), "platform sees nothing wrong");
        assert_eq!(s.get("k").unwrap().data, b"forged numbers");
    }

    #[test]
    fn tamper_missing_key_is_none() {
        let mut s = ObjectStore::new();
        assert!(s.tamper("nope", &Tamper::Truncate { len: 0 }).is_none());
    }

    #[test]
    fn verify_checksum_none_cases() {
        let mut s = ObjectStore::new();
        assert_eq!(s.verify_checksum("missing"), None);
        let mut o = obj(b"x");
        o.stored_checksum = None;
        s.put("nosum", o);
        assert_eq!(s.verify_checksum("nosum"), None);
    }
}
