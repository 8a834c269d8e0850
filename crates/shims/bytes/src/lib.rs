//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build container has no crates.io access, so this crate implements the
//! subset of the `bytes` API the workspace uses: [`Bytes`] (a cheaply
//! clonable, immutable byte buffer) and [`BytesMut`] (a growable buffer that
//! freezes into `Bytes`). Semantics match the real crate for this subset,
//! including zero-copy [`Bytes::slice`] (a subrange shares the parent's
//! allocation); the split/advance machinery is intentionally absent.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
// The workspace simulator is single-threaded, so the shared buffer uses a
// non-atomic refcount. The real `bytes` crate (atomic, `Send + Sync`) is a
// drop-in superset; swapping it back in only widens the contract.
use std::rc::Rc;

/// A cheaply clonable, immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// A view (`off..off + len`) into a refcounted allocation. Clones and
    /// subslices bump the refcount; nothing is ever copied. Backing store
    /// is the `Vec` the caller built, wrapped as-is — freezing a built
    /// buffer into `Bytes` is zero-copy.
    Shared {
        buf: Rc<Vec<u8>>,
        off: usize,
        len: usize,
    },
}

impl Bytes {
    /// An empty `Bytes`.
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_shared(Rc::new(data.to_vec()))
    }

    #[inline]
    fn from_shared(buf: Rc<Vec<u8>>) -> Self {
        let len = buf.len();
        Bytes(Repr::Shared { buf, off: 0, len })
    }

    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Static(s) => s.len(),
            Repr::Shared { len, .. } => *len,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this is the only handle to the whole backing storage, i.e.
    /// exactly when [`Bytes::try_into_mut`] would succeed. Always false for
    /// a static slice, a subrange or a handle with live clones. Matches
    /// `bytes::Bytes::is_unique` (1.6+): a recycling path checks it in
    /// place and moves only the frames it can reclaim.
    #[inline]
    pub fn is_unique(&self) -> bool {
        match &self.0 {
            Repr::Shared { buf, off, len } => {
                *off == 0 && *len == buf.len() && Rc::strong_count(buf) == 1
            }
            Repr::Static(_) => false,
        }
    }

    /// Returns a `Bytes` for the given subrange, sharing the allocation
    /// with `self` (zero-copy, like the real crate).
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[start..end])),
            Repr::Shared { buf, off, .. } => Bytes(Repr::Shared {
                buf: Rc::clone(buf),
                off: off + start,
                len: end - start,
            }),
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Convert into a [`BytesMut`] without copying if this is the only
    /// reference to the full backing storage; otherwise returns `self`
    /// unchanged. Matches `bytes::Bytes::try_into_mut` (1.4+) — the hook
    /// buffer-recycling paths use to reclaim a dead frame's allocation.
    #[inline]
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.0 {
            // A unique handle is the only strong reference, so the unwrap
            // never clones.
            Repr::Shared { buf, .. } if self.is_unique() => Ok(BytesMut(Rc::unwrap_or_clone(buf))),
            _ => Err(self),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, off, len } => &buf[*off..off + len],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
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
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        // Zero-copy: the vector becomes the shared backing store.
        Bytes::from_shared(Rc::new(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from_shared(Rc::new(b.into_vec()))
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
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
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.0.extend_from_slice(extend)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.0.resize(new_len, value)
    }

    pub fn clear(&mut self) {
        self.0.clear()
    }

    /// Convert into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut(s.to_vec())
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(m: BytesMut) -> Self {
        m.0
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut(v)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.0.extend(iter)
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(&self.0, f)
    }
}

/// Shared `Debug` body: render as `b"..."` like the real crate.
fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        match b {
            b'"' => write!(f, "\\\"")?,
            b'\\' => write!(f, "\\\\")?,
            b'\n' => write!(f, "\\n")?,
            b'\r' => write!(f, "\\r")?,
            b'\t' => write!(f, "\\t")?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.slice(1..), Bytes::from(vec![2, 3]));
    }

    #[test]
    fn slice_shares_the_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Zero-copy: the subrange points into the parent's storage.
        assert!(std::ptr::eq(&b[1], &s[0]));
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert!(std::ptr::eq(&b[2], &ss[0]));
        // Static slices subslice without copying too.
        let st = Bytes::from_static(b"hello");
        let sub = st.slice(1..3);
        assert!(std::ptr::eq(&st[1], &sub[0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..9);
    }

    #[test]
    fn is_unique_only_for_a_sole_full_range_shared_handle() {
        let shared = Bytes::from(vec![5; 8]);
        let shapes = [
            shared.clone(),
            shared.slice(2..),
            Bytes::from_static(b"static"),
        ];
        assert!(!shared.is_unique(), "live clones share the storage");
        drop(shared);
        // The clone is consumed first, so the subrange is a sole handle
        // by the time it is checked: still not unique, still not mutable.
        for b in shapes {
            assert!(!b.is_unique());
            assert!(b.try_into_mut().is_err());
        }
        let sole = Bytes::from(vec![5; 8]);
        assert!(sole.is_unique() && sole.try_into_mut().is_ok());
    }

    #[test]
    fn len_reads_the_stored_length_in_every_shape() {
        let shared = Bytes::from(vec![7; 10]);
        for b in [
            shared.clone(),
            shared.slice(3..8),
            Bytes::from_static(b"hello"),
            Bytes::new(),
        ] {
            assert_eq!(b.len(), b.as_slice().len());
            assert_eq!(b.is_empty(), b.as_slice().is_empty());
        }
    }

    #[test]
    fn freeze() {
        let mut m = BytesMut::from(&b"abc"[..]);
        m.extend_from_slice(b"def");
        assert_eq!(&m.freeze()[..], b"abcdef");
    }
}
