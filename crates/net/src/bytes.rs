//! Refcounted, sliceable payload buffers for the zero-copy data plane.
//!
//! A [`Bytes`] is an immutable view into a reference-counted byte buffer:
//! cloning bumps a refcount, [`Bytes::slice`] is O(1), and nothing here
//! uses `unsafe` (the workspace forbids it). Packets carry their payload
//! as `Bytes`, so duplicating a packet on a faulty link, buffering it in a
//! bearer queue, or handing it to a receiver never copies payload bytes.
//!
//! The module also keeps process-wide *deep-copy counters*: the only two
//! operations that materialize payload bytes — [`Bytes::copy_from_slice`]
//! and [`Bytes::to_vec`] — increment them. The `dataplane` bench reads
//! counter deltas around a steady-state run to assert that the forwarding
//! path performs **zero** payload copies after emission. Constructing a
//! `Bytes` from an owned `Vec<u8>` is an ownership transfer, not a copy,
//! and is deliberately uncounted.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of deep copies performed since process start.
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);
/// Number of payload bytes deep-copied since process start.
static DEEP_COPY_BYTES: AtomicU64 = AtomicU64::new(0);

fn count_copy(bytes: usize) {
    DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
    DEEP_COPY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A snapshot of the process-wide deep-copy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyCounters {
    /// How many times payload bytes were materialized into a fresh buffer.
    pub copies: u64,
    /// Total payload bytes materialized.
    pub bytes: u64,
}

/// Reads the current deep-copy counters.
///
/// Benchmarks take a snapshot before and after a run and subtract; the
/// counters are monotonic and never reset.
pub fn copy_counters() -> CopyCounters {
    CopyCounters {
        copies: DEEP_COPIES.load(Ordering::Relaxed),
        bytes: DEEP_COPY_BYTES.load(Ordering::Relaxed),
    }
}

/// An immutable, reference-counted byte buffer with O(1) clone and slice.
///
/// ```
/// use umtslab_net::bytes::Bytes;
///
/// let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
/// let tail = b.slice(2..5); // O(1): shares the same allocation
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// let c = b.clone(); // refcount bump, no bytes move
/// assert_eq!(b, c);
/// ```
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Materializes a new buffer by copying `src`. Counted as a deep copy.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        count_copy(src.len());
        Bytes::from(src.to_vec())
    }

    /// Replaces the viewed bytes with a copy of `src`. The copy goes into
    /// this view's own allocation when nothing else shares it, the view
    /// covers all of it and `src` has its length; otherwise into a fresh
    /// one, as [`Bytes::copy_from_slice`]. Counted as a deep copy either
    /// way.
    pub fn overwrite(&mut self, src: &[u8]) {
        let whole = self.start == 0 && self.end == self.data.len() && self.len() == src.len();
        match Arc::get_mut(&mut self.data) {
            Some(buf) if whole => {
                count_copy(src.len());
                buf.copy_from_slice(src);
            }
            _ => *self = Bytes::copy_from_slice(src),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// O(1) sub-view of `range` (relative to this view).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end, "inverted range");
        assert!(self.start + range.end <= self.end, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Materializes the view into an owned `Vec<u8>`. Counted as a deep
    /// copy.
    pub fn to_vec(&self) -> Vec<u8> {
        count_copy(self.len());
        self.as_slice().to_vec()
    }

    /// How many `Bytes` views currently share this allocation.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// The shared allocation, if this is its only reference *and* the
    /// view covers the whole buffer; `None` otherwise. What a
    /// [`BufferPool`] may keep of a retired payload.
    fn into_unique(self) -> Option<Arc<Vec<u8>>> {
        let mut data = self.data;
        let whole = self.start == 0 && self.end == data.len();
        (whole && Arc::get_mut(&mut data).is_some()).then_some(data)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Ownership transfer: the vector becomes the shared allocation.
    /// Not counted as a copy.
    fn from(vec: Vec<u8>) -> Bytes {
        let end = vec.len();
        Bytes { data: Arc::new(vec), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    /// Copies the slice into a fresh allocation (counted).
    fn from(src: &[u8]) -> Bytes {
        Bytes::copy_from_slice(src)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B", self.len())?;
        if self.ref_count() > 1 {
            write!(f, ", shared x{}", self.ref_count())?;
        }
        f.write_str(")")
    }
}

/// A free-list of retired payload allocations.
///
/// Traffic generators get each payload from [`BufferPool::filled`], which
/// writes it once and hands it out as a [`Bytes`]; when the testbed retires
/// a packet whose payload nothing else shares, [`BufferPool::reclaim`] puts
/// the allocation, refcount included, back on the list. In steady state
/// emitting a payload allocates nothing.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Each uniquely owned, so [`Arc::get_mut`] always succeeds on it.
    free: Vec<Arc<Vec<u8>>>,
    hits: u64,
    misses: u64,
}

/// Cap on pooled buffers; beyond this, retired buffers are dropped.
pub const POOL_CAP: usize = 64;

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// A `len`-byte payload: zeroed, then written by `fill`. It reuses a
    /// retired allocation when one is pooled, so its bytes are the same
    /// either way.
    pub fn filled(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let data = match self.free.pop() {
            Some(mut data) => {
                self.hits += 1;
                let buf = Arc::get_mut(&mut data).expect("pooled buffers are uniquely owned");
                buf.clear();
                buf.resize(len, 0);
                fill(buf);
                data
            }
            None => {
                self.misses += 1;
                let mut buf = vec![0u8; len];
                fill(&mut buf);
                Arc::new(buf)
            }
        };
        Bytes { data, start: 0, end: len }
    }

    /// Pools a retired payload's allocation if nothing else shares it and
    /// the view covers all of it (and the pool is below [`POOL_CAP`]);
    /// otherwise just drops this reference.
    pub fn reclaim(&mut self, bytes: Bytes) {
        if self.free.len() < POOL_CAP {
            if let Some(data) = bytes.into_unique() {
                self.free.push(data);
            }
        }
    }

    /// Buffers on the free list, never more than [`POOL_CAP`].
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// `(reuses, fresh allocations)` served by [`BufferPool::filled`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1, 2, 3]);
        assert_eq!(a.ref_count(), 1);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        assert_eq!(b.ref_count(), 2);
        assert_eq!(a, b);
        drop(b);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn clone_does_not_count_as_a_copy() {
        let before = copy_counters();
        let a = Bytes::from(vec![0u8; 1024]);
        let _b = a.clone();
        let _c = a.slice(0..512);
        let after = copy_counters();
        assert_eq!(before, after);
    }

    #[test]
    fn deep_copies_are_counted() {
        let before = copy_counters();
        let a = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let _v = a.to_vec();
        let after = copy_counters();
        assert_eq!(after.copies - before.copies, 2);
        assert_eq!(after.bytes - before.bytes, 8);
    }

    #[test]
    fn overwrite_reuses_only_a_unique_whole_view_of_the_same_length() {
        let before = copy_counters();
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let addr = Arc::as_ptr(&a.data);
        a.overwrite(&[4, 5, 6]);
        assert_eq!((a.as_slice(), Arc::as_ptr(&a.data)), (&[4u8, 5, 6][..], addr));
        // Shared: the other view keeps its bytes.
        let shared = a.clone();
        a.overwrite(&[7, 8, 9]);
        assert_eq!((shared.as_slice(), a.as_slice()), (&[4u8, 5, 6][..], &[7u8, 8, 9][..]));
        assert_ne!(Arc::as_ptr(&a.data), addr);
        // Another length, or a partial view: a fresh allocation.
        let addr = Arc::as_ptr(&a.data);
        a.overwrite(&[1, 2]);
        assert_eq!((a.as_slice(), a.ref_count()), (&[1u8, 2][..], 1));
        assert_ne!(Arc::as_ptr(&a.data), addr);
        let mut part = Bytes::from(vec![0u8; 4]).slice(0..2);
        part.overwrite(&[3, 3]);
        assert_eq!((part.as_slice(), part.data.len()), (&[3u8, 3][..], 2));
        let after = copy_counters();
        assert_eq!((after.copies - before.copies, after.bytes - before.bytes), (4, 10));
    }

    #[test]
    fn slicing_is_a_view() {
        let a = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = a.slice(3..7);
        assert_eq!(mid.len(), 4);
        assert_eq!(&mid[..], &[3, 4, 5, 6]);
        assert_eq!(mid.ref_count(), 2, "slice shares the parent allocation");
        let inner = mid.slice(1..3);
        assert_eq!(&inner[..], &[4, 5]);
        let empty = a.slice(5..5);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn out_of_bounds_slice_panics() {
        let a = Bytes::from(vec![1, 2, 3]);
        let _ = a.slice(1..4);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[0, 1, 2, 3]).slice(1..4);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, [1u8, 2, 3]);
        assert_eq!(a, &[1u8, 2, 3][..]);
        assert_ne!(a, Bytes::new());
    }

    #[test]
    fn hash_matches_content() {
        use std::collections::hash_map::DefaultHasher;
        let h = |b: &Bytes| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        let a = Bytes::from(vec![9, 9, 9]);
        let b = Bytes::from(vec![0, 9, 9, 9]).slice(1..4);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn reclaim_only_unique_full_views() {
        let mut pool = BufferPool::new();
        let a = pool.filled(16, |b| b.fill(7));
        let b = a.clone();
        // Shared: not pooled.
        pool.reclaim(a);
        assert_eq!(pool.pooled(), 0);
        // A partial view is never pooled, even when unique.
        let part = pool.filled(3, |_| ()).slice(0..2);
        assert_eq!(part.ref_count(), 1);
        pool.reclaim(part);
        assert_eq!(pool.pooled(), 0);
        // Unique full view: pooled.
        pool.reclaim(b);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn pool_recycles_allocations() {
        let mut pool = BufferPool::new();
        let first = pool.filled(100, |b| b[0] = 1);
        assert_eq!(first.len(), 100);
        let addr = Arc::as_ptr(&first.data);
        pool.reclaim(first);
        let again = pool.filled(64, |b| b[63] = 9);
        assert_eq!(again.len(), 64);
        assert_eq!(Arc::as_ptr(&again.data), addr, "the pooled Arc is handed out again");
        assert!(again[..63].iter().all(|&b| b == 0), "reused buffers are zeroed before the fill");
        assert_eq!(again[63], 9);
        assert_eq!(pool.stats(), (1, 1));
    }
}
