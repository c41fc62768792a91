//! The one binary codec of the workspace: wire messages, checkpoints and
//! plan fingerprints all go through it.
//!
//! A type states its layout once, by implementing [`Codec`] beside its
//! definition: `encode` writes its fields in order into a [`Sink`],
//! `decode` reads them back in the same order from a [`ByteReader`]. Each
//! field's width comes from its own `Codec` impl, so no layout restates
//! one. Two sinks exist:
//!
//! * [`ByteWriter`] — the byte format: little-endian integers, `usize` as
//!   `u64`, `f64` as raw bits, `bool` as one byte, `Vec`/`String` as a
//!   `u64` count then the elements;
//! * [`Fnv1a`] — an FNV-1a hash that mixes every value as one `u64`
//!   word. Plan fingerprints and route keys are an encoding run into it.
//!
//! Two properties the workspace's determinism contract imposes:
//!
//! * **Bit transparency** — `f64` values round-trip through
//!   [`f64::to_bits`]/[`f64::from_bits`], so a restored state is bitwise
//!   identical to the saved one (including negative zeros and NaN
//!   payloads, which a textual format would destroy).
//! * **No panics** — reads return [`CodecError`] on truncated or
//!   malformed input; a corrupt checkpoint must surface as a typed error
//!   the caller can answer (fall back to an older checkpoint, restart
//!   from scratch), never as an abort. A decoded count is checked against
//!   the bytes left before anything is allocated.
//!
//! The format carries no self-description; each consumer writes its own
//! magic/version header and validates it on read.
//!
//! The sinks, the reader's cursor and the leaf impls are `#[inline]`: a
//! layout's `encode`/`decode` is instantiated in the crate that declares
//! it, and without the hint every `f64` of a `Vec` would cost a call
//! across the crate boundary (it doubled the wire decode time).

/// A decode failure: the buffer ended early or a header field did not
/// match what the reader expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ran out at byte `at` while `needed` more were required.
    UnexpectedEof { at: usize, needed: usize },
    /// A header/tag word did not match (`want` expected, `got` found).
    BadTag { at: usize, want: u64, got: u64 },
    /// The enum tag byte at `at` names no variant this version defines.
    UnknownTag { at: usize, got: u8 },
    /// A declared length is implausible for the remaining buffer.
    BadLength { at: usize, len: u64 },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 { at: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedEof { at, needed } => {
                write!(
                    f,
                    "checkpoint truncated at byte {at} ({needed} more needed)"
                )
            }
            Self::BadTag { at, want, got } => write!(
                f,
                "bad checkpoint tag at byte {at}: expected {want:#018x}, got {got:#018x}"
            ),
            Self::UnknownTag { at, got } => write!(f, "unknown tag {got} at byte {at}"),
            Self::BadLength { at, len } => {
                write!(f, "implausible length {len} at byte {at}")
            }
            Self::BadUtf8 { at } => {
                write!(f, "length-prefixed string at byte {at} is not valid UTF-8")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A binary layout, declared once per type.
pub trait Codec: Sized {
    /// The fewest bytes an encoding takes; a decoded `Vec` count is
    /// checked against `count × MIN_BYTES ≤ bytes left` before allocating.
    const MIN_BYTES: usize = 1;

    /// Write the fields, in layout order. Borrows: nothing is cloned.
    fn encode<S: Sink>(&self, s: &mut S);

    /// Read the fields back in the same order.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Where an encoding goes.
pub trait Sink {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    /// Raw bytes, *not* length-prefixed.
    fn put_bytes(&mut self, bytes: &[u8]);
}

/// Append-only encoder over a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for ByteWriter {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// FNV-1a over an encoding, one `u64` word per value (8 little-endian
/// byte rounds), whatever its width in the byte format — the plan
/// fingerprint and route-key hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in the encoding of `v`.
    #[must_use]
    pub fn mix<T: Codec>(mut self, v: &T) -> Self {
        T::encode(v, &mut self);
        self
    }

    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for Fnv1a {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_u64(u64::from(v));
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_u64(u64::from(v));
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.put_u8(b);
        }
    }
}

/// Cursor-based decoder; every read is bounds-checked and returns a
/// [`CodecError`] instead of panicking.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Offset of the next byte to read.
    #[must_use]
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Borrow the next `n` raw bytes (counterpart of [`Sink::put_bytes`]).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Decode the next value.
    #[inline]
    pub fn decode<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }

    /// Read a `u64` length and validate it against the remaining bytes
    /// (each element at least `elem_bytes` wide), so a corrupt length
    /// cannot drive an enormous allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let len: u64 = self.decode()?;
        let need = len.saturating_mul(elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(CodecError::BadLength { at, len });
        }
        Ok(len as usize)
    }

    /// Read a `u64` and require it to equal `want` — magic/version checks.
    pub fn expect_u64(&mut self, want: u64) -> Result<(), CodecError> {
        let at = self.pos;
        let got = self.decode()?;
        if got != want {
            return Err(CodecError::BadTag { at, want, got });
        }
        Ok(())
    }

    /// Read a one-byte enum tag and map it through `variant`; a byte it
    /// does not know is [`CodecError::UnknownTag`] at the tag's offset.
    pub fn decode_tag<T>(
        &mut self,
        variant: impl FnOnce(u8) -> Option<T>,
    ) -> Result<T, CodecError> {
        let at = self.pos;
        let got = self.decode()?;
        variant(got).ok_or(CodecError::UnknownTag { at, got })
    }

    /// The end of a message: every byte must have been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(CodecError::BadLength {
                at: self.pos,
                len: left as u64,
            }),
        }
    }
}

impl Codec for u8 {
    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u8(*self);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u8::from_le_bytes(r.take_array()?))
    }
}

impl Codec for u32 {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u32(*self);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(r.take_array()?))
    }
}

impl Codec for u64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u64(*self);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(r.take_array()?))
    }
}

/// `usize` is stored as `u64` so the format is identical across pointer
/// widths.
impl Codec for usize {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u64(*self as u64);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u64::decode(r)? as usize)
    }
}

/// Two's-complement bits as `u64`.
impl Codec for i64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u64(*self as u64);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u64::decode(r)? as i64)
    }
}

/// Bit-transparent (see module docs).
impl Codec for f64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u64(self.to_bits());
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

/// One byte; any nonzero byte decodes as `true`.
impl Codec for bool {
    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        s.put_u8(u8::from(*self));
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(u8::decode(r)? != 0)
    }
}

impl<T: Codec> Codec for [T; 3] {
    const MIN_BYTES: usize = 3 * T::MIN_BYTES;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        for v in self {
            T::encode(v, s);
        }
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok([T::decode(r)?, T::decode(r)?, T::decode(r)?])
    }
}

/// A `u64` count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        self.len().encode(s);
        for v in self {
            T::encode(v, s);
        }
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// A `u64` byte count, then UTF-8; invalid UTF-8 is
/// [`CodecError::BadUtf8`], never lossily converted.
impl Codec for String {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn encode<S: Sink>(&self, s: &mut S) {
        self.len().encode(s);
        s.put_bytes(self.as_bytes());
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len(1)?;
        let at = r.pos;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), CodecError>;

    /// Encode `v` into a fresh byte vector.
    fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        T::encode(v, &mut w);
        w.into_bytes()
    }

    /// Decode exactly one `T` from `bytes`: trailing bytes are an error.
    fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
        let mut r = ByteReader::new(bytes);
        let v = r.decode()?;
        r.finish()?;
        Ok(v)
    }

    /// Encode, decode exactly, and compare the re-encoding bit for bit
    /// (`==` would miss a NaN payload or the sign of a zero).
    fn round_trip<T: Codec>(v: &T) -> TestResult {
        let bytes = encode_to_vec(v);
        let back: T = decode_exact(&bytes)?;
        assert_eq!(encode_to_vec(&back), bytes);
        Ok(())
    }

    const ODD_FLOATS: [f64; 6] = [-0.0, f64::NAN, f64::INFINITY, 5e-324, -1.5, 1e300];

    #[test]
    fn every_leaf_round_trips_bit_exactly() -> TestResult {
        let payload_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        for x in ODD_FLOATS.into_iter().chain([payload_nan]) {
            round_trip(&x)?;
            let back: f64 = decode_exact(&encode_to_vec(&x))?;
            assert_eq!(back.to_bits(), x.to_bits());
        }
        round_trip(&0xA5u8)?;
        round_trip(&0xDEAD_BEEFu32)?;
        round_trip(&0xDEAD_BEEF_0BAD_F00Du64)?;
        round_trip(&usize::MAX)?;
        round_trip(&i64::MIN)?;
        round_trip(&-12i64)?;
        round_trip(&true)?;
        round_trip(&false)?;
        round_trip(&[-0.0, f64::NAN, payload_nan])?;
        round_trip(&[7usize, 0, usize::MAX])?;
        round_trip(&ODD_FLOATS.to_vec())?;
        round_trip(&vec![[0.1, -0.0, f64::NAN], [f64::INFINITY, -1.0, 4.0]])?;
        round_trip(&Vec::<f64>::new())?;
        round_trip(&"plan cache α=3.2 \"quoted\"".to_string())?;
        round_trip(&String::new())
    }

    #[test]
    fn byte_widths_are_the_format() {
        let mut w = ByteWriter::new();
        7u8.encode(&mut w);
        1234u32.encode(&mut w);
        5usize.encode(&mut w);
        (-1i64).encode(&mut w);
        true.encode(&mut w);
        vec![1.5f64].encode(&mut w);
        "ab".to_string().encode(&mut w);
        let mut want = vec![7u8];
        want.extend(1234u32.to_le_bytes());
        want.extend(5u64.to_le_bytes());
        want.extend(u64::MAX.to_le_bytes());
        want.push(1);
        want.extend(1u64.to_le_bytes());
        want.extend(1.5f64.to_bits().to_le_bytes());
        want.extend(2u64.to_le_bytes());
        want.extend(b"ab");
        assert_eq!(w.into_bytes(), want);
    }

    #[test]
    fn fnv_sink_mixes_every_value_as_one_word() {
        let word = |h: u64, v: u64| {
            v.to_le_bytes().into_iter().fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let want = [3u64, 7, 1.5f64.to_bits(), 1]
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325, word);
        let got = Fnv1a::new()
            .mix(&3u8)
            .mix(&7u32)
            .mix(&1.5f64)
            .mix(&true)
            .finish();
        assert_eq!(got, want);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let bytes = encode_to_vec(&42u64);
        assert_eq!(
            decode_exact::<u64>(&bytes[..5]),
            Err(CodecError::UnexpectedEof { at: 0, needed: 3 })
        );
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut bytes = encode_to_vec(&42u64);
        bytes.push(0);
        assert_eq!(
            decode_exact::<u64>(&bytes),
            Err(CodecError::BadLength { at: 8, len: 1 })
        );
    }

    #[test]
    fn bad_magic_and_unknown_tags_report_their_offsets() {
        // A count of 2, then 1, then 9.
        let bytes = encode_to_vec(&vec![1u64, 9]);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.expect_u64(2), Ok(()));
        assert_eq!(
            r.expect_u64(2),
            Err(CodecError::BadTag {
                at: 8,
                want: 2,
                got: 1
            })
        );
        let mut r = ByteReader::new(&bytes[16..]);
        assert_eq!(
            r.decode_tag(|t| (t < 3).then_some(t)),
            Err(CodecError::UnknownTag { at: 0, got: 9 })
        );
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut w = ByteWriter::new();
        2usize.encode(&mut w);
        w.put_bytes(&[0xff, 0xfe]);
        assert_eq!(
            decode_exact::<String>(&w.into_bytes()),
            Err(CodecError::BadUtf8 { at: 8 })
        );
    }

    /// A corrupt count fails against the bytes left, at each element's
    /// minimum size, before anything is allocated.
    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        let huge = encode_to_vec(&u64::MAX);
        let bad = CodecError::BadLength {
            at: 0,
            len: u64::MAX,
        };
        assert_eq!(decode_exact::<Vec<f64>>(&huge), Err(bad.clone()));
        assert_eq!(decode_exact::<Vec<[f64; 3]>>(&huge), Err(bad.clone()));
        assert_eq!(decode_exact::<Vec<u8>>(&huge), Err(bad.clone()));
        assert_eq!(decode_exact::<String>(&huge), Err(bad));
        // Two f64s' worth of bytes do not carry three of them, nor one
        // [f64; 3].
        let mut short = encode_to_vec(&3u64);
        short.extend([0u8; 16]);
        assert_eq!(
            decode_exact::<Vec<f64>>(&short),
            Err(CodecError::BadLength { at: 0, len: 3 })
        );
        short[0] = 1;
        assert_eq!(
            decode_exact::<Vec<[f64; 3]>>(&short),
            Err(CodecError::BadLength { at: 0, len: 1 })
        );
        assert_eq!(<[f64; 3]>::MIN_BYTES, 24);
    }
}
