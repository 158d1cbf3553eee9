//! Canonical binary wire codec.
//!
//! TPNR evidence is *signed*, so every structure that appears under a
//! signature must have exactly one byte representation. This module is a
//! tiny, hand-rolled, length-prefixed big-endian codec with that canonicity
//! guarantee (no maps, no floats, no optional-field ambiguity), used by the
//! protocol messages, the storage manifests and the secure-channel frames.

use crate::bytes::Bytes;
use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// A length prefix exceeds the sanity bound.
    LengthOverflow,
    /// An enum discriminant or magic value is unknown.
    BadDiscriminant(&'static str, u64),
    /// Trailing bytes after a complete structure.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::LengthOverflow => write!(f, "length prefix too large"),
            CodecError::BadDiscriminant(what, v) => {
                write!(f, "unknown {what} discriminant {v}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any single length-prefixed field (1 GiB) — prevents a
/// hostile length prefix from driving an allocation bomb.
pub const MAX_FIELD_LEN: usize = 1 << 30;

/// Canonical encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with room for `capacity` bytes, so an encoding whose
    /// length is known up front takes one allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.buf.push(v as u8);
        self
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= MAX_FIELD_LEN, "field too large to encode");
        self.buf.extend_from_slice(&(v.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends fixed-width bytes with no length prefix (caller knows width).
    pub fn fixed(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finishes and returns the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes into a plain `Vec<u8>`.
    pub fn finish_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes into a shared immutable buffer (pure move, no copy).
    pub fn finish_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Canonical decoder over a borrowed buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// Bytes consumed so far (offset of `buf[0]` within the original
    /// input), used by [`Reader::bytes_shared`] to map positions back
    /// into `origin`.
    consumed: usize,
    /// When decoding out of a shared buffer, the buffer itself — byte
    /// fields can then be returned as zero-copy subviews.
    origin: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, consumed: 0, origin: None }
    }

    /// Wraps a shared buffer; [`Reader::bytes_shared`] fields decode as
    /// zero-copy subviews of `origin`'s allocation.
    pub fn with_origin(origin: &'a Bytes) -> Self {
        Reader { buf: origin, consumed: 0, origin: Some(origin) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the input was consumed exactly.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        self.consumed += n;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.take(1)?.first().copied().ok_or(CodecError::UnexpectedEnd)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b: [u8; 2] = self.take(2)?.try_into().map_err(|_| CodecError::UnexpectedEnd)?;
        Ok(u16::from_be_bytes(b))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| CodecError::UnexpectedEnd)?;
        Ok(u32::from_be_bytes(b))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| CodecError::UnexpectedEnd)?;
        Ok(u64::from_be_bytes(b))
    }

    /// Reads a bool; any byte other than 0/1 is non-canonical and rejected.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::BadDiscriminant("bool", v as u64)),
        }
    }

    /// Reads a `u32`-length-prefixed byte field.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `u32`-length-prefixed byte field as shared [`Bytes`].
    ///
    /// When the reader was built with [`Reader::with_origin`] the result
    /// is a zero-copy subview of the origin allocation; otherwise the
    /// field is deep-copied (and counted by the [`Bytes`] copy counters).
    pub fn bytes_shared(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow);
        }
        let start = self.consumed;
        let field = self.take(len)?;
        match self.origin {
            Some(origin) => Ok(origin.slice(start..start + len)),
            None => Ok(Bytes::copy_from_slice(field)),
        }
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(drop)
    }

    /// Skips a `u32`-length-prefixed byte field and returns its length.
    pub fn skip_bytes(&mut self) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        self.skip(len)?;
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string (invalid UTF-8 is rejected).
    pub fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadDiscriminant("utf-8 string", 0))
    }

    /// Reads exactly `n` bytes (no prefix).
    pub fn fixed(&mut self, n: usize) -> Result<Vec<u8>, CodecError> {
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

/// Largest piece a frame body is read in. Memory follows the bytes that
/// actually arrive: a length prefix alone reserves at most this much, and
/// a frame no larger is still one `read_exact`.
const READ_CHUNK: usize = 64 << 10;

/// Writes `value` as one length-prefixed frame (`u32` big-endian length,
/// then its wire form) — the stream framing the real-socket transport
/// uses, with the same [`MAX_FIELD_LEN`] sanity bound as in-memory
/// decoding. The prefix is reserved in the frame's own buffer and patched
/// once the length is known, so the frame leaves in one `write_all`, and
/// the buffer is sized by [`Wire::encoded_len`] up front.
pub fn write_frame(w: &mut impl std::io::Write, value: &impl Wire) -> std::io::Result<()> {
    let mut out = Writer::with_capacity(4 + value.encoded_len());
    out.u32(0);
    value.encode(&mut out);
    let mut frame = out.finish();
    let len = frame.len() - 4;
    assert!(len <= MAX_FIELD_LEN, "frame too large to encode");
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&frame)
}

/// Reads one length-prefixed frame body written by [`write_frame`]. A
/// hostile length prefix beyond [`MAX_FIELD_LEN`] is rejected before
/// reading on; a smaller one that the peer never backs with bytes costs at
/// most one 64 KiB read chunk.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FIELD_LEN {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame length overflow"));
    }
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        body.resize(filled + (len - filled).min(READ_CHUNK), 0);
        r.read_exact(&mut body[filled..])?;
    }
    Ok(body)
}

/// A type with a canonical wire form.
pub trait Wire: Sized {
    /// Appends this value to `w`.
    fn encode(&self, w: &mut Writer);
    /// Parses one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// The length of this value's wire form, which sizes the buffer it is
    /// encoded into. A type that implements it must return exactly what
    /// [`Wire::encode`] writes; the default, 0, reserves nothing, and the
    /// buffer grows as it is written.
    fn encoded_len(&self) -> usize {
        0
    }

    /// Encodes to a standalone buffer.
    fn to_wire(&self) -> Vec<u8> {
        encode_sized(self).finish_vec()
    }

    /// Decodes from a complete buffer (trailing bytes are an error).
    fn from_wire(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// Encodes into a shared immutable buffer (pure move, no extra copy).
    fn to_wire_bytes(&self) -> Bytes {
        encode_sized(self).finish_bytes()
    }

    /// Decodes from a shared buffer; fields read via
    /// [`Reader::bytes_shared`] come back as zero-copy subviews of
    /// `bytes`' allocation.
    fn from_wire_bytes(bytes: &Bytes) -> Result<Self, CodecError> {
        let mut r = Reader::with_origin(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A writer holding `value`'s encoding, allocated once at its
/// [`Wire::encoded_len`].
fn encode_sized(value: &impl Wire) -> Writer {
    let len = value.encoded_len();
    let mut w = Writer::with_capacity(len);
    value.encode(&mut w);
    debug_assert!(len == 0 || w.buf.len() == len, "encoded_len {len}, encoded {}", w.buf.len());
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).u16(300).u32(70_000).u64(u64::MAX).bool(true).bool(false);
        let buf = w.finish_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut w = Writer::new();
        w.bytes(b"payload").str("Alice").bytes(b"");
        let buf = w.finish_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.str().unwrap(), "Alice");
        assert_eq!(r.bytes().unwrap(), b"");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_detected() {
        let mut w = Writer::new();
        w.bytes(b"hello");
        let buf = w.finish_vec();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.bytes().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut buf = w.finish_vec();
        buf.push(0);
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn non_canonical_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(CodecError::BadDiscriminant("bool", 2))));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Length prefix claims 0xFFFF_FFFF bytes; must not allocate.
        let buf = [0xff, 0xff, 0xff, 0xff, 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.finish_vec();
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn fixed_and_array() {
        let mut w = Writer::new();
        w.fixed(&[1, 2, 3, 4]);
        let buf = w.finish_vec();
        assert_eq!(buf.len(), 4); // no prefix
        let mut r = Reader::new(&buf);
        assert_eq!(r.array::<4>().unwrap(), [1, 2, 3, 4]);
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u64,
        name: String,
        blob: Vec<u8>,
    }

    impl Wire for Sample {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.id).str(&self.name).bytes(&self.blob);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Sample { id: r.u64()?, name: r.str()?, blob: r.bytes()? })
        }
    }

    #[test]
    fn bytes_shared_is_zero_copy_with_origin() {
        let mut w = Writer::new();
        w.u8(5).bytes(b"abcdefgh").u16(9).bytes(b"tail");
        let wire = w.finish_bytes();
        let before = Bytes::deep_copies();
        let mut r = Reader::with_origin(&wire);
        assert_eq!(r.u8().unwrap(), 5);
        let field = r.bytes_shared().unwrap();
        assert_eq!(field, b"abcdefgh");
        assert!(field.same_allocation(&wire), "subview of the wire buffer");
        assert_eq!(r.u16().unwrap(), 9);
        let tail = r.bytes_shared().unwrap();
        assert_eq!(tail, b"tail");
        assert!(tail.same_allocation(&wire));
        r.expect_end().unwrap();
        assert_eq!(Bytes::deep_copies(), before, "no deep copies with an origin");
    }

    #[test]
    fn bytes_shared_without_origin_copies() {
        let mut w = Writer::new();
        w.bytes(b"xyz");
        let buf = w.finish_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes_shared().unwrap(), b"xyz");
    }

    #[test]
    fn bytes_shared_rejects_hostile_lengths_and_truncation() {
        let wire = Bytes::from(vec![0xff, 0xff, 0xff, 0xff, 0x00]);
        assert_eq!(Reader::with_origin(&wire).bytes_shared(), Err(CodecError::LengthOverflow));
        let mut w = Writer::new();
        w.bytes(b"hello");
        let full = w.finish_bytes();
        for cut in 0..full.len() {
            let trunc = full.slice(0..cut);
            assert!(Reader::with_origin(&trunc).bytes_shared().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stream_frames_roundtrip_and_reject_hostile_lengths() {
        let frames = [
            Sample { id: 1, name: "alpha".into(), blob: vec![1, 2] },
            Sample { id: 0, name: String::new(), blob: Vec::new() },
            Sample { id: 3, name: "omega".into(), blob: vec![9; 300] },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&Sample::from_wire(&read_frame(&mut r).unwrap()).unwrap(), f);
        }
        assert!(read_frame(&mut r).is_err(), "clean EOF surfaces as an error");
        // Hostile prefix: claims 4 GiB; must fail before allocating.
        let hostile = [0xffu8, 0xff, 0xff, 0xff, 0x00];
        assert!(read_frame(&mut &hostile[..]).is_err());
        // Truncated body.
        let mut trunc = Vec::new();
        write_frame(&mut trunc, &frames[0]).unwrap();
        trunc.pop();
        assert!(read_frame(&mut &trunc[..]).is_err());
    }

    /// A writer that counts the calls it gets.
    struct CountingWrite(Vec<u8>, usize);

    impl std::io::Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1 += 1;
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        let mut w = CountingWrite(Vec::new(), 0);
        let frames = [
            Sample { id: 7, name: "x".into(), blob: vec![5; 2000] },
            Sample { id: 0, name: String::new(), blob: Vec::new() },
        ];
        for f in &frames {
            write_frame(&mut w, f).unwrap();
        }
        assert_eq!(w.1, 2, "one write per frame");
        let mut r = &w.0[..];
        for f in &frames {
            assert_eq!(&Sample::from_wire(&read_frame(&mut r).unwrap()).unwrap(), f);
        }
    }

    /// A reader that records the largest buffer it is handed.
    struct LargestRead<R> {
        inner: R,
        largest: usize,
    }

    impl<R: std::io::Read> std::io::Read for LargestRead<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn read_frame_memory_follows_the_bytes_that_arrive() {
        use std::io::Read;
        // A 1 GiB prefix, then EOF: an error, and never a buffer past one
        // chunk.
        let prefix = (MAX_FIELD_LEN as u32).to_be_bytes();
        let mut hostile = LargestRead { inner: &prefix[..], largest: 0 };
        assert!(read_frame(&mut hostile).is_err());
        assert!(hostile.largest <= READ_CHUNK, "handed {} bytes", hostile.largest);
        // A 64 MiB frame (E4's largest payload) still arrives whole.
        let len = 64usize << 20;
        let prefix = (len as u32).to_be_bytes();
        let source = (&prefix[..]).chain(std::io::repeat(0xa5).take(len as u64));
        let mut big = LargestRead { inner: source, largest: 0 };
        let body = read_frame(&mut big).unwrap();
        assert_eq!(body.len(), len);
        assert!(body.iter().all(|&b| b == 0xa5));
        assert!(big.largest <= READ_CHUNK, "handed {} bytes", big.largest);
        // A frame of one chunk is still a single read of its body.
        let mut one = Vec::new();
        one.extend_from_slice(&(READ_CHUNK as u32).to_be_bytes());
        one.resize(4 + READ_CHUNK, 1);
        let mut small = LargestRead { inner: &one[..], largest: 0 };
        assert_eq!(read_frame(&mut small).unwrap().len(), READ_CHUNK);
        assert_eq!(small.largest, READ_CHUNK);
    }

    #[test]
    fn wire_trait_roundtrip_and_canonicity() {
        let s = Sample { id: 9, name: "bob".into(), blob: vec![1, 2, 3] };
        let enc = s.to_wire();
        assert_eq!(Sample::from_wire(&enc).unwrap(), s);
        // Canonicity: re-encoding the decoded value is byte-identical.
        assert_eq!(Sample::from_wire(&enc).unwrap().to_wire(), enc);
        // Trailing garbage rejected.
        let mut bad = enc.clone();
        bad.push(0);
        assert!(Sample::from_wire(&bad).is_err());
    }
}
