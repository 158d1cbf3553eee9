//! Shared immutable byte buffers for the zero-copy payload path.
//!
//! Every payload that crosses the simulator used to be deep-copied at
//! least twice per hop (into the delivery queue and again into the inbox),
//! and once more per duplicate. [`Bytes`] replaces those copies with
//! reference-counted views: cloning bumps a refcount, slicing produces a
//! subview of the same allocation, and the whole chain from an envelope
//! through the codec down to provider storage can share one buffer.
//!
//! **Immutability invariant** (see DESIGN.md §4.10): a `Bytes` never hands
//! out `&mut` access. Code that wants to alter a payload — interceptors
//! returning `Action::Modify`, the storage tamper model — must materialize
//! a fresh `Vec<u8>` and wrap that, so every other holder of the original
//! allocation keeps seeing the original bytes.
//!
//! The module keeps two process-wide counters of *deep* copies performed
//! by [`Bytes::copy_from_slice`] (the only constructor that copies). The
//! bench harness uses them to demonstrate that forwarding a payload
//! through the simulator performs zero payload copies per hop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of deep copies made by [`Bytes::copy_from_slice`].
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);
/// Process-wide total bytes deep-copied by [`Bytes::copy_from_slice`].
static DEEP_COPY_BYTES: AtomicU64 = AtomicU64::new(0);

/// A cheaply cloneable, immutable view into a shared byte allocation.
///
/// Internally `Arc<Vec<u8>>` plus a `[start, end)` window, so
/// [`Bytes::slice`] is allocation-free and [`From<Vec<u8>>`] is a pure
/// move (the vector's buffer becomes the shared allocation without a
/// copy).
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty view (allocates an empty backing vector).
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies `src` into a fresh allocation. This is the **only**
    /// constructor that copies payload bytes; it increments the global
    /// deep-copy counters so benches and tests can prove a path is
    /// copy-free.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        DEEP_COPY_BYTES.fetch_add(src.len() as u64, Ordering::Relaxed);
        Bytes::from(src.to_vec())
    }

    /// A zero-copy subview of this view. `range` is relative to `self`
    /// (so `b.slice(1..3)` of a slice starting at offset 10 covers
    /// absolute bytes 11..13 of the allocation).
    ///
    /// # Panics
    /// Panics if the range is out of bounds, like slice indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end, "slice range inverted");
        assert!(self.start + range.end <= self.end, "slice range out of bounds");
        Bytes {
            buf: self.buf.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The bytes this view keeps allocated: the capacity of its backing
    /// allocation, however little of it the view covers.
    pub fn pinned_len(&self) -> usize {
        self.buf.capacity()
    }

    /// Number of `Bytes` handles sharing the backing allocation.
    #[cfg(test)]
    pub(crate) fn strong_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// True when two views share one backing allocation (regardless of
    /// window).
    pub fn same_allocation(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Process-wide deep-copy count (see [`Bytes::copy_from_slice`]).
    pub fn deep_copies() -> u64 {
        DEEP_COPIES.load(Ordering::Relaxed)
    }

    /// Process-wide deep-copied byte total.
    pub fn deep_copy_bytes() -> u64 {
        DEEP_COPY_BYTES.load(Ordering::Relaxed)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Pure move: the vector's buffer becomes the shared allocation.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { buf: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} of {} bytes)", self.len(), self.buf.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_a_move_not_a_copy() {
        let before = Bytes::deep_copies();
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, [1, 2, 3]);
        assert_eq!(Bytes::deep_copies(), before, "From<Vec<u8>> must not deep-copy");
    }

    #[test]
    fn copy_from_slice_counts() {
        let (c0, b0) = (Bytes::deep_copies(), Bytes::deep_copy_bytes());
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b, b"hello");
        assert!(Bytes::deep_copies() > c0);
        assert!(Bytes::deep_copy_bytes() >= b0 + 5);
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![7u8; 64]);
        let b = a.clone();
        assert!(a.same_allocation(&b));
        assert_eq!(a.strong_count(), 2);
        drop(b);
        assert_eq!(a.strong_count(), 1);
    }

    #[test]
    fn slice_is_zero_copy_and_relative() {
        let a = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let mid = a.slice(8..24);
        assert!(mid.same_allocation(&a));
        assert_eq!(mid.len(), 16);
        assert_eq!(mid[0], 8);
        let inner = mid.slice(4..8);
        assert!(inner.same_allocation(&a));
        assert_eq!(&inner[..], &[12, 13, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let a = Bytes::from(vec![0u8; 4]);
        let _ = a.slice(2..6);
    }

    #[test]
    fn equality_against_common_byte_shapes() {
        let b = Bytes::from(b"abc".to_vec());
        assert_eq!(b, *b"abc");
        assert_eq!(b, b"abc");
        assert_eq!(b, b"abc".to_vec());
        assert_eq!(b, &b"abc"[..]);
        assert_eq!(b"abc".to_vec(), b);
        assert_ne!(b, b"abd");
        let c = Bytes::from(b"abc".to_vec());
        assert_eq!(b, c, "equal content, different allocations");
        assert!(!b.same_allocation(&c));
    }

    #[test]
    fn empty_views() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e, b"");
        let b = Bytes::from(vec![1u8, 2]);
        let sub = b.slice(1..1);
        assert!(sub.is_empty());
    }
}
