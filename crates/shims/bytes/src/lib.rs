//! A minimal, dependency-free stand-in for the `bytes` crate, providing the
//! subset of the [`Bytes`] API this workspace uses: a cheaply cloneable,
//! immutable view into shared, contiguous bytes.
//!
//! The container image has no crates.io access, so the workspace vendors the
//! handful of external APIs it needs as local shims (see `crates/shims/`).
//! This one is semantically compatible with `bytes::Bytes` for the operations
//! exercised here: construction, `Deref` to `[u8]`, equality/ordering/hash by
//! content, and O(1) `clone`/[`Bytes::slice`] that share one reference-counted
//! allocation. [`Bytes::build`] (not in the real crate, where
//! `BytesMut::freeze` plays the part) fills a fresh buffer in place so a
//! header and a payload reach shared storage in one allocation. It does not
//! implement `Buf`/`BufMut`.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// What a view points into. Three shapes, so that each constructor costs at
/// most one allocation and none copies a payload it does not have to.
#[derive(Clone)]
enum Storage {
    /// Borrowed for the program's lifetime: no allocation at all.
    Static(&'static [u8]),
    /// Bytes inline in the reference-counted allocation (copied or built in
    /// place): one allocation.
    Shared(Arc<[u8]>),
    /// An adopted `Vec`: its heap buffer is kept as is, only the small
    /// reference-count node is allocated.
    Vec(Arc<Vec<u8>>),
}

/// An immutable view `[offset, offset + len)` into reference-counted bytes.
/// Cloning and slicing are O(1) and share the storage.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer. Does not allocate.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// View a static byte slice. Does not allocate.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            storage: Storage::Static(data),
            offset: 0,
            len: data.len(),
        }
    }

    /// Copy a slice into a new buffer (one allocation).
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            storage: Storage::Shared(Arc::from(data)),
            offset: 0,
            len: data.len(),
        }
    }

    /// A new `len`-byte buffer written in place by `fill`, which receives it
    /// zeroed: one allocation, however many sources `fill` gathers from.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut data).expect("a fresh allocation has one owner"));
        Bytes {
            storage: Storage::Shared(data),
            offset: 0,
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of a sub-range, sharing this buffer's storage: O(1), no
    /// allocation, no copy. Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds of a {}-byte buffer",
            self.len
        );
        Bytes {
            storage: self.storage.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Copy the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(data) => data,
            Storage::Shared(data) => data,
            Storage::Vec(data) => data,
        };
        &all[self.offset..self.offset + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
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

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopt the vector's buffer without copying it.
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            storage: Storage::Vec(Arc::new(v)),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
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

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len > 32 {
            write!(f, "..{} bytes", self.len)?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// The same six bytes reached four ways: whole, as a slice of a larger
    /// `Vec`-backed buffer, as a slice of a slice, and from static storage.
    fn same_bytes_four_ways() -> [Bytes; 4] {
        let whole = Bytes::copy_from_slice(b"minion");
        let backing = Bytes::from(b"a round minion pipe".to_vec());
        let inner = backing.slice(8..14);
        let nested = backing.slice(2..).slice(6..12);
        [whole, inner, nested, Bytes::from_static(b"minion")]
    }

    #[test]
    fn construction_and_deref() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::from_static(b"abc").to_vec(), b"abc".to_vec());
        assert_eq!((0u8..4).collect::<Bytes>(), vec![0u8, 1, 2, 3]);
    }

    #[test]
    fn build_fills_one_buffer_in_place() {
        let b = Bytes::build(5, |buf| {
            assert_eq!(buf, [0u8; 5], "handed over zeroed");
            buf[..2].copy_from_slice(b"hd");
            buf[2..].copy_from_slice(b"pay");
        });
        assert_eq!(b, b"hdpay");
        assert!(Bytes::build(0, |buf| assert!(buf.is_empty())).is_empty());
    }

    #[test]
    fn slice_of_slice_offsets_compose() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let outer = b.slice(10..90);
        let inner = outer.slice(5..=14);
        assert_eq!(inner.len(), 10);
        assert_eq!(&inner[..], &(15u8..25).collect::<Vec<u8>>()[..]);
        // Unbounded ends are relative to the view, not the backing buffer.
        assert_eq!(&outer.slice(70..)[..], &(80u8..90).collect::<Vec<u8>>()[..]);
        assert_eq!(&outer.slice(..3)[..], &[10, 11, 12]);
        assert_eq!(inner.slice(2..4).slice(1..2)[0], 18);
    }

    #[test]
    fn empty_and_full_range_slices() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        assert_eq!(b.slice(..), b);
        assert_eq!(b.slice(0..5), b);
        for at in 0..=5 {
            assert!(b.slice(at..at).is_empty(), "empty slice at {at}");
        }
        let empty = Bytes::new();
        assert!(empty.slice(..).is_empty());
        assert!(empty.slice(0..0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_end_panics() {
        // In bounds of the backing storage, out of bounds of the view.
        Bytes::from(vec![0u8; 10]).slice(..4).slice(2..6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn inverted_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        Bytes::from(vec![0u8; 10]).slice(6..2);
    }

    #[test]
    fn eq_ord_hash_debug_see_only_the_viewed_bytes() {
        let views = same_bytes_four_ways();
        for a in &views {
            for b in &views {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
                assert_eq!(hash_of(a), hash_of(b));
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            assert_eq!(*a, b"minion"[..]);
            assert_eq!(*a, b"minion".to_vec());
            assert_eq!(*a, b"minion");
            assert_eq!(format!("{a:?}"), "b\"minion\"");
            assert_eq!(hash_of(a), {
                let mut h = DefaultHasher::new();
                b"minion"[..].hash(&mut h);
                h.finish()
            });
        }
        // Ordering is lexicographic on the view, wherever it sits.
        let backing = Bytes::from(b"zzabzzaczz".to_vec());
        let (ab, ac) = (backing.slice(2..4), backing.slice(6..8));
        assert!(ab < ac);
        assert_eq!(ac.cmp(&ab), std::cmp::Ordering::Greater);
        assert!(ab.slice(..1) < ab, "a prefix sorts first");
        assert_ne!(ab, ac);
        // Long views abbreviate by their own length.
        let long = Bytes::from(vec![b'x'; 100]).slice(10..60);
        assert!(format!("{long:?}").ends_with("..50 bytes\""));
    }

    #[test]
    fn clones_and_slices_share_storage() {
        let b = Bytes::from(vec![9u8; 1000]);
        let c = b.clone();
        let s = b.slice(100..200);
        assert_eq!(c.as_ptr(), b.as_ptr());
        assert_eq!(s.as_ptr(), b[100..].as_ptr());
        let Storage::Vec(arc) = &b.storage else {
            panic!("a Vec is adopted")
        };
        assert_eq!(Arc::strong_count(arc), 3);
        drop((c, s));
        assert_eq!(Arc::strong_count(arc), 1);

        let copied = Bytes::copy_from_slice(&[7u8; 64]);
        let tail = copied.slice(32..);
        assert_eq!(tail.as_ptr(), copied[32..].as_ptr());
        let Storage::Shared(arc) = &copied.storage else {
            panic!("a copy is stored inline")
        };
        assert_eq!(Arc::strong_count(arc), 2);
        // A view keeps the storage alive after its parent is gone.
        drop(copied);
        assert_eq!(tail, vec![7u8; 32]);
    }

    #[test]
    fn from_vec_adopts_the_buffer_without_reallocating() {
        let v = vec![5u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(1024..).as_ptr(), b[1024..].as_ptr());
        // Static storage is viewed, not copied.
        static S: [u8; 4] = [1, 2, 3, 4];
        assert_eq!(Bytes::from_static(&S).as_ptr(), S.as_ptr());
    }
}
