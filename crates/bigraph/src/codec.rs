//! The byte codec every format of the suite shares: the `MBCK` and
//! `MBOK` checkpoints, the serve wire protocol, and the graph
//! fingerprints.
//!
//! * [`Fnv`] / [`fnv1a`] — 64-bit FNV-1a, the fingerprint and checksum
//!   hash;
//! * [`Reader`] and the `put_*` writers — little-endian fields, `u32`
//!   length prefixes, bounds-checked reads that never panic, never
//!   allocate more than the input could hold, and accept only the bytes
//!   an encoder writes (a `bool` is 0 or 1, nothing else);
//! * [`seal`] / [`open`] — the checksummed envelope: a 4-byte magic, the
//!   body, then an FNV-1a trailer over both. [`open`] checks the magic
//!   before the checksum, so a foreign file is [`CodecError::BadMagic`];
//! * [`order_tag`] / [`order_from_tag`] — the one tag codec of
//!   [`VertexOrder`] (tags 1–5 plus a seed that is 0 unless random).
//!
//! Each format keeps its own version field inside the envelope body and
//! maps [`CodecError`] into its own error type.

use crate::order::VertexOrder;

/// 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes `x` as 4 little-endian bytes.
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// Hashes `x` as 8 little-endian bytes.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Why bytes did not decode. Each format maps this into its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside the named field, or the field's length
    /// prefix promises more than the rest of the input holds.
    Truncated(&'static str),
    /// The named field holds a value no encoder writes.
    Invalid(&'static str),
    /// Bytes remain after the last field.
    Trailing,
    /// The envelope does not start with the expected magic.
    BadMagic,
    /// The envelope's FNV-1a trailer does not match its content.
    ChecksumMismatch,
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `bool` as one byte, 0 or 1.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte blob.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends a `u32`-length-prefixed list of little-endian `u32`s.
pub fn put_u32_list(buf: &mut Vec<u8>, items: &[u32]) {
    put_u32(buf, items.len() as u32);
    for &x in items {
        put_u32(buf, x);
    }
}

/// Cursor over encoded bytes with bounds-checked, strict reads. Every
/// read names its field, which a failed read reports.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated(what))?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        self.take(N, what)?.try_into().map_err(|_| CodecError::Truncated(what))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    /// Reads a `bool`: 0 or 1, any other byte is [`CodecError::Invalid`].
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid(what)),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| CodecError::Invalid(what))
    }

    /// Reads a `u32`-length-prefixed list of `u32`s. A length promising
    /// more items than the rest of the input holds is rejected before
    /// anything is allocated.
    pub fn u32_list(&mut self, what: &'static str) -> Result<Vec<u32>, CodecError> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() / 4 {
            return Err(CodecError::Truncated(what));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    /// Ends the read: bytes left over are [`CodecError::Trailing`].
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }
}

/// Seals an envelope: `magic`, the body `body` appends, then the FNV-1a
/// of both. `capacity` is a size hint for the body.
pub fn seal(magic: &[u8; 4], capacity: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + capacity + 8);
    out.extend_from_slice(magic);
    body(&mut out);
    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
    out
}

/// Opens an envelope [`seal`] wrote: checks the magic, then the
/// checksum, and returns a reader over the body.
pub fn open<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Result<Reader<'a>, CodecError> {
    let found = bytes.get(..magic.len()).ok_or(CodecError::Truncated("magic"))?;
    if found != magic {
        return Err(CodecError::BadMagic);
    }
    let content = bytes.len().checked_sub(8).filter(|&n| n >= magic.len());
    let content = content.ok_or(CodecError::Truncated("checksum"))?;
    let (sealed, trailer) = bytes.split_at(content);
    if fnv1a(sealed) != Reader::new(trailer).u64("checksum")? {
        return Err(CodecError::ChecksumMismatch);
    }
    let mut r = Reader::new(sealed);
    r.pos = magic.len();
    Ok(r)
}

/// The checkpoint tag of `order` (1–5) and its seed (0 unless random).
pub fn order_tag(order: VertexOrder) -> (u8, u64) {
    match order {
        VertexOrder::Natural => (1, 0),
        VertexOrder::AscendingDegree => (2, 0),
        VertexOrder::DescendingDegree => (3, 0),
        VertexOrder::Unilateral => (4, 0),
        VertexOrder::Random(seed) => (5, seed),
    }
}

/// Inverse of [`order_tag`]: an unknown tag, or a seed on an order that
/// has none, is [`CodecError::Invalid`].
pub fn order_from_tag(tag: u8, seed: u64) -> Result<VertexOrder, CodecError> {
    match (tag, seed) {
        (1, 0) => Ok(VertexOrder::Natural),
        (2, 0) => Ok(VertexOrder::AscendingDegree),
        (3, 0) => Ok(VertexOrder::DescendingDegree),
        (4, 0) => Ok(VertexOrder::Unilateral),
        (5, seed) => Ok(VertexOrder::Random(seed)),
        _ => Err(CodecError::Invalid("vertex order")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.write_u32(7);
        h.write_u64(9);
        let mut bytes = 7u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
    }

    #[test]
    fn bools_and_lists_roundtrip() {
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_u32_list(&mut buf, &[4, 5]);
        put_u32_list(&mut buf, &[]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bool("a"), Ok(true));
        assert_eq!(r.bool("b"), Ok(false));
        assert_eq!(r.u32_list("c"), Ok(vec![4, 5]));
        assert_eq!(r.u32_list("d"), Ok(vec![]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reads_are_bounded_and_strict() {
        // A blob claiming 100 bytes with none following.
        let mut buf = Vec::new();
        put_u32(&mut buf, 100);
        assert_eq!(Reader::new(&buf).bytes("blob"), Err(CodecError::Truncated("blob")));
        // A list claiming 4 G items is refused before allocating.
        assert_eq!(Reader::new(&[0xFF; 12]).u32_list("list"), Err(CodecError::Truncated("list")));
        assert_eq!(
            Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]).str("s"),
            Err(CodecError::Truncated("s"))
        );
        assert_eq!(Reader::new(&[1, 0, 0, 0, 0xFF]).str("s"), Err(CodecError::Invalid("s")));
        for byte in 2..=u8::MAX {
            assert_eq!(Reader::new(&[byte]).bool("flag"), Err(CodecError::Invalid("flag")));
        }
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8("x"), Ok(1));
        assert_eq!(r.finish(), Err(CodecError::Trailing));
    }

    #[test]
    fn envelope_checks_magic_then_checksum() {
        let sealed = seal(b"TEST", 4, |out| put_u32(out, 42));
        assert_eq!(sealed.len(), 4 + 4 + 8);
        let mut r = open(b"TEST", &sealed).unwrap();
        assert_eq!(r.u32("body"), Ok(42));
        assert_eq!(r.finish(), Ok(()));
        // A foreign file is bad magic, whatever its checksum.
        assert_eq!(open(b"TEST", &[b'A'; 64]).err(), Some(CodecError::BadMagic));
        assert_eq!(open(b"TEST", b"TE").err(), Some(CodecError::Truncated("magic")));
        assert_eq!(open(b"TEST", b"TEST1234").err(), Some(CodecError::Truncated("checksum")));
        for i in 4..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[i] ^= 1;
            assert_eq!(open(b"TEST", &flipped).err(), Some(CodecError::ChecksumMismatch), "{i}");
        }
    }

    #[test]
    fn order_tags_are_strict() {
        for order in [
            VertexOrder::Natural,
            VertexOrder::AscendingDegree,
            VertexOrder::DescendingDegree,
            VertexOrder::Unilateral,
            VertexOrder::Random(u64::MAX),
        ] {
            let (tag, seed) = order_tag(order);
            assert_eq!(order_from_tag(tag, seed), Ok(order));
        }
        assert!(order_from_tag(1, 7).is_err(), "a seed on a non-random order");
        assert!(order_from_tag(0, 0).is_err());
        assert!(order_from_tag(6, 0).is_err());
    }
}
