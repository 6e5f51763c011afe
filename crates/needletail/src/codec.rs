//! The one bounded little-endian codec under every byte format in the
//! workspace: the `NTBL` table file ([`crate::storage`]), the `RVCK`
//! session checkpoint and the TCP frame payload are thin schemas over
//! [`Enc`] and [`Dec`]. It lives in this crate because it is the lowest
//! one all three can reach.
//!
//! # Primitives
//!
//! | kind | bytes |
//! |------|-------|
//! | `u8`, `u32`, `u64`, `i64` | fixed-width little-endian |
//! | `f64` | its IEEE-754 bit pattern as a `u64` — exact, NaN-safe |
//! | flag (`bool`) | one byte, `0` or `1` |
//! | string | `u32` byte length, then UTF-8 |
//! | `Option<T>` | a flag, then the [`Item`] `T` when the flag is `1` |
//! | count | a `u32` element count ahead of one or more columns |
//! | column | `k` packed [`Item`]s, `k` taken from an earlier count |
//! | vector | a count, then a column of that many items |
//!
//! # Hardening rules
//!
//! Decoding never panics and never allocates for bytes that are not there;
//! every failure is a [`CodecError`], which each format maps into its own
//! public error type.
//!
//! * Every read is bounds-checked against the remaining payload
//!   ([`CodecError::Truncated`]).
//! * A count is rejected unless `count × min_elem_bytes` fits in the
//!   remaining payload, and a column re-checks `k × Item::MIN_BYTES` before
//!   reserving — a crafted length cannot drive an allocation larger than
//!   the input ([`CodecError::Count`]).
//! * Flags are strict: any byte but `0`/`1` is corruption
//!   ([`CodecError::Flag`]).
//! * Strings must be valid UTF-8 ([`CodecError::Utf8`]).
//! * [`Dec::finish`] rejects trailing bytes ([`CodecError::Trailing`]).
//!
//! Encoding is infallible (it runs on the serving path): a length past
//! `u32::MAX` is clamped, which the peer's decoder then rejects. Whole-
//! payload caps and recursion limits belong to the schemas.

use std::fmt;

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A read ran past the end of the payload.
    Truncated,
    /// An element count (or string length) claims more bytes than remain.
    Count {
        /// The count as read.
        count: usize,
        /// Payload bytes left after the count field.
        remaining: usize,
    },
    /// A boolean byte other than `0`/`1`.
    Flag(u8),
    /// A string that is not UTF-8.
    Utf8,
    /// Bytes left over after the last field.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated => f.write_str("truncated payload"),
            CodecError::Count { count, remaining } => write!(
                f,
                "count {count} exceeds remaining payload ({remaining} bytes)"
            ),
            CodecError::Flag(byte) => write!(f, "bad boolean byte {byte}"),
            CodecError::Utf8 => f.write_str("invalid UTF-8 in string"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash — the table file's trailer checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A value with one wire form, so it can travel in a column or an option.
/// Implemented for `u32`, `u64`, `i64`, `f64` (bit pattern), `bool`
/// (flag), `String` and pairs of items.
pub trait Item: Sized {
    /// Fewest bytes one encoded item occupies — what [`Dec::column`]
    /// checks a count against before reserving.
    const MIN_BYTES: usize;
    /// Appends the item.
    fn put(&self, e: &mut Enc);
    /// Reads one item, failing as the primitive it is made of fails.
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// Byte writer: the encoding half of the [module](self)'s primitives.
/// `Enc::default()` is the empty payload.
#[derive(Debug, Default)]
pub struct Enc(Vec<u8>);

/// Byte reader: the decoding half of the [module](self)'s primitives,
/// enforcing its hardening rules. Every read fails with
/// [`CodecError::Truncated`] when the payload ends early.
#[derive(Debug)]
pub struct Dec<'a>(&'a [u8]);

/// The fixed-width integers, named after their types on both halves.
macro_rules! le_ints {
    ($($int:ident),*) => {$(
        impl Enc {
            #[doc = concat!("A little-endian `", stringify!($int), "`.")]
            #[inline]
            pub fn $int(&mut self, v: $int) {
                self.bytes(&v.to_le_bytes());
            }
        }
        impl Dec<'_> {
            #[doc = concat!("A little-endian `", stringify!($int), "`.")]
            #[inline]
            pub fn $int(&mut self) -> Result<$int, CodecError> {
                let (head, rest) = self.0.split_first_chunk().ok_or(CodecError::Truncated)?;
                self.0 = rest;
                Ok($int::from_le_bytes(*head))
            }
        }
    )*};
}
le_ints!(u8, u32, u64, i64);

impl Enc {
    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
    /// Raw bytes, no length prefix (magics, pre-measured string bodies).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    /// An `f64` as its bit pattern.
    #[inline]
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A boolean as `0`/`1`.
    #[inline]
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// An element count; clamped (never a panic) past `u32::MAX`.
    #[inline]
    pub fn count(&mut self, n: usize) {
        debug_assert!(u32::try_from(n).is_ok(), "count too large to encode");
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
    /// A length-prefixed string; clamped like [`Enc::count`].
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(&s.as_bytes()[..s.len().min(u32::MAX as usize)]);
    }
    /// An optional item: a flag, then the item when present.
    pub fn opt<T: Item>(&mut self, v: &Option<T>) {
        self.flag(v.is_some());
        if let Some(item) = v {
            item.put(self);
        }
    }
    /// A column: every item packed back to back, **no** count — the schema
    /// writes one [`Enc::count`] ahead of the columns that share it.
    pub fn column<T: Item>(&mut self, items: &[T]) {
        self.0.reserve(items.len().saturating_mul(T::MIN_BYTES));
        for item in items {
            item.put(self);
        }
    }
    /// A vector: its own count, then its items.
    pub fn vec<T: Item>(&mut self, items: &[T]) {
        self.count(items.len());
        self.column(items);
    }
}

impl<'a> Dec<'a> {
    /// A reader over one whole payload.
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self(payload)
    }
    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }
    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A strict boolean: [`CodecError::Flag`] for any byte but `0`/`1`.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Flag(other)),
        }
    }
    /// An element count; [`CodecError::Count`] unless `count ×
    /// min_elem_bytes` (the bytes one element takes across every column
    /// sharing the count) fits in the remaining payload.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        self.fits(count, min_elem_bytes)?;
        Ok(count)
    }
    #[inline]
    fn fits(&self, count: usize, elem_bytes: usize) -> Result<(), CodecError> {
        let remaining = self.0.len();
        if count.saturating_mul(elem_bytes.max(1)) > remaining {
            return Err(CodecError::Count { count, remaining });
        }
        Ok(())
    }
    /// A length-prefixed string: [`CodecError::Count`] for a length past
    /// the payload, [`CodecError::Utf8`] for invalid bytes.
    #[inline]
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.count(1)?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }
    /// An optional item.
    pub fn opt<T: Item>(&mut self) -> Result<Option<T>, CodecError> {
        self.flag()?.then(|| T::get(self)).transpose()
    }
    /// A column of `k` items (`k` from an earlier [`Dec::count`]);
    /// [`CodecError::Count`], before reserving, when `k` items cannot fit
    /// in the remaining payload.
    pub fn column<T: Item>(&mut self, k: usize) -> Result<Vec<T>, CodecError> {
        self.fits(k, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(k);
        for _ in 0..k {
            items.push(T::get(self)?);
        }
        Ok(items)
    }
    /// A vector: its own count, then its items.
    pub fn vec<T: Item>(&mut self) -> Result<Vec<T>, CodecError> {
        let k = self.count(T::MIN_BYTES)?;
        self.column(k)
    }
    /// Ends decoding: [`CodecError::Trailing`] when bytes are left over.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

macro_rules! items {
    ($($ty:ty: $bytes:literal, $method:ident;)*) => {$(
        impl Item for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$method(*self);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                d.$method()
            }
        }
    )*};
}
items! {
    u32: 4, u32;
    u64: 8, u64;
    i64: 8, i64;
    f64: 8, f64_bits;
    bool: 1, flag;
}

impl Item for String {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

impl<A: Item, B: Item> Item for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of everything the codec carries.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        tag: u8,
        a: u32,
        b: u64,
        c: i64,
        x: f64,
        on: bool,
        name: String,
        lo: Option<f64>,
        cap: Option<u64>,
        // Four columns sharing one count.
        xs: Vec<f64>,
        flags: Vec<bool>,
        pairs: Vec<(u64, f64)>,
        labels: Vec<String>,
        ids: Vec<u32>,
    }

    fn sample() -> Sample {
        Sample {
            tag: 7,
            a: 0xdead_beef,
            b: u64::MAX - 1,
            c: -42,
            x: -0.0,
            on: true,
            name: "né".into(),
            lo: Some(f64::INFINITY),
            cap: None,
            xs: vec![1.5, f64::MIN_POSITIVE],
            flags: vec![true, false],
            pairs: vec![(3, 0.25), (0, -1.0)],
            labels: vec!["a".into(), String::new()],
            ids: vec![9, 10],
        }
    }

    fn encode(s: &Sample) -> Vec<u8> {
        let mut e = Enc::default();
        e.u8(s.tag);
        e.u32(s.a);
        e.u64(s.b);
        e.i64(s.c);
        e.f64_bits(s.x);
        e.flag(s.on);
        e.str(&s.name);
        e.opt(&s.lo);
        e.opt(&s.cap);
        e.count(s.xs.len());
        e.column(&s.xs);
        e.column(&s.flags);
        e.column(&s.pairs);
        e.column(&s.labels);
        e.vec(&s.ids);
        e.into_bytes()
    }

    fn decode(buf: &[u8]) -> Result<Sample, CodecError> {
        let mut d = Dec::new(buf);
        let (tag, a, b, c) = (d.u8()?, d.u32()?, d.u64()?, d.i64()?);
        let (x, on, name) = (d.f64_bits()?, d.flag()?, d.str()?);
        let (lo, cap) = (d.opt()?, d.opt()?);
        let k = d.count(8 + 1 + 16 + 4)?;
        let sample = Sample {
            tag,
            a,
            b,
            c,
            x,
            on,
            name,
            lo,
            cap,
            xs: d.column(k)?,
            flags: d.column(k)?,
            pairs: d.column(k)?,
            labels: d.column(k)?,
            ids: d.vec()?,
        };
        d.finish()?;
        Ok(sample)
    }

    // Offsets into `encode(&sample())`, 122 bytes in all.
    const ON: usize = 29;
    const NAME_LEN: usize = 30;
    const NAME: usize = 34;
    const LO_FLAG: usize = 37;
    const K: usize = 47;
    const FLAGS: usize = 67;
    const IDS_COUNT: usize = 110;

    #[test]
    fn round_trips_and_layout_is_little_endian() {
        let bytes = encode(&sample());
        assert_eq!(bytes.len(), 122);
        assert_eq!(bytes[..5], [7, 0xef, 0xbe, 0xad, 0xde]);
        assert_eq!(bytes[NAME_LEN..LO_FLAG], [3, 0, 0, 0, b'n', 0xc3, 0xa9]);
        assert_eq!(bytes[K..K + 4], [2, 0, 0, 0]);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, sample());
        assert!(back.x.is_sign_negative(), "-0.0 travels as its bit pattern");
    }

    #[test]
    fn hostile_inputs_get_the_matching_error() {
        let good = encode(&sample());
        let len = good.len();
        let max = u32::MAX.to_le_bytes();
        // (what, offset, replacement bytes, expected error)
        let cases: [(&str, usize, &[u8], CodecError); 9] = [
            (
                "shared count past the payload",
                K,
                &max,
                CodecError::Count {
                    count: u32::MAX as usize,
                    remaining: len - K - 4,
                },
            ),
            (
                "shared count one too many",
                K,
                &[3, 0, 0, 0],
                CodecError::Count {
                    count: 3,
                    remaining: len - K - 4,
                },
            ),
            (
                "vector count past the payload",
                IDS_COUNT,
                &[3, 0, 0, 0],
                CodecError::Count {
                    count: 3,
                    remaining: 8,
                },
            ),
            (
                "string length past the payload",
                NAME_LEN,
                &max,
                CodecError::Count {
                    count: u32::MAX as usize,
                    remaining: len - NAME,
                },
            ),
            ("bad bool in a flag", ON, &[2], CodecError::Flag(2)),
            ("bad bool in an option", LO_FLAG, &[7], CodecError::Flag(7)),
            (
                "bad bool in a column",
                FLAGS + 1,
                &[0xff],
                CodecError::Flag(0xff),
            ),
            ("bad UTF-8", NAME + 1, &[0xff], CodecError::Utf8),
            ("string cut mid-character", NAME_LEN, &[2], CodecError::Utf8),
        ];
        for (what, at, patch, want) in cases {
            let mut bad = good.clone();
            bad[at..at + patch.len()].copy_from_slice(patch);
            assert_eq!(decode(&bad), Err(want), "{what}");
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode(&trailing), Err(CodecError::Trailing(1)));

        for cut in 0..len {
            let err = decode(&good[..cut]).expect_err("a strict prefix never decodes");
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Count { .. }),
                "prefix of {cut} bytes: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_errors_or_decodes_canonically() {
        // The format has no slack (strict flags, exact counts, no padding):
        // whatever still decodes must re-encode to the very bytes it came
        // from, so corruption can change values but never alias.
        let good = encode(&sample());
        for at in 0..good.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                if let Ok(sample) = decode(&bad) {
                    assert_eq!(encode(&sample), bad, "byte {at} ^ {mask:#04x}");
                }
            }
        }
    }

    #[test]
    fn columns_check_their_length_before_reserving() {
        let mut d = Dec::new(&[0u8; 24]);
        assert_eq!(
            d.column::<(u64, u64)>(usize::MAX),
            Err(CodecError::Count {
                count: usize::MAX,
                remaining: 24
            })
        );
        assert!(d.column::<u64>(4).is_err());
        assert_eq!(d.column::<u64>(3), Ok(vec![0, 0, 0]));
        assert_eq!(d.finish(), Ok(()));
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
