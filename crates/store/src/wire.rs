//! The wire substrate: a compact hand-written binary format.
//!
//! Little-endian fixed-width integers, LEB128-style varints for counts
//! and indices, and length-prefixed byte strings. Readers are fully
//! checked: every decode path returns [`DecodeError`] instead of
//! panicking, so a truncated or hostile file can never take the process
//! down.
//!
//! The per-byte methods of both ends are `#[inline]`. Their callers sit
//! in other crates (`bolt_see`, `bolt_core`, `bolt_serve`, and the
//! benchmark package), none of which builds with LTO, so without the
//! attribute every byte of a record would pay a call and a `Result`
//! round trip. The varint's multi-byte tail stays out of line: only
//! its one-byte case is hot.

use std::fmt;

/// Decoding failure. Carries a static description of the first violated
/// invariant; the store treats any error as "record unusable".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// The bytes decoded but violated a format invariant.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Growable output buffer with typed little-endian writers.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, no length prefix (fixed-size fields like magic numbers).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u128 (fingerprints).
    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One-byte boolean (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// LEB128 varint (7 bits per byte, high bit = continuation).
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Checked reader over an encoded byte slice.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless the input is fully consumed (trailing garbage means
    /// the record does not match the format that allegedly wrote it).
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Raw bytes of a known length (fixed-size fields).
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian u128.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// One-byte boolean; any value other than 0/1 is malformed.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("boolean out of range")),
        }
    }

    /// LEB128 varint (at most 10 bytes for a u64), in its one canonical
    /// encoding: a continuation that ends in a zero byte adds nothing to
    /// the value and is what [`ByteWriter::varint`] never writes.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) if b & 0x80 == 0 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.varint_multi_byte(),
        }
    }

    /// [`ByteReader::varint`] past its one-byte case (and its errors).
    fn varint_multi_byte(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DecodeError::Malformed("varint overflows u64"));
            }
            if byte == 0 && shift > 0 {
                return Err(DecodeError::Malformed("overlong varint"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Varint narrowed to usize with an explicit cap (defends count
    /// fields against allocation bombs from corrupt files). Every
    /// element of an encoded collection occupies at least one byte, so
    /// a count exceeding the remaining input is malformed too — this is
    /// what keeps `Vec::with_capacity(count)` at decode sites bounded
    /// by the file size, not by a forged header.
    #[inline]
    pub fn count(&mut self, cap: usize) -> Result<usize, DecodeError> {
        let v = self.varint()?;
        if v > cap as u64 || v > self.remaining() as u64 {
            return Err(DecodeError::Malformed("count exceeds sanity cap"));
        }
        Ok(v as usize)
    }

    /// Length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        self.take(n as usize)
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::Malformed("string not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(0x6c62272e07bb014262b821756295c58d);
        w.bool(true);
        w.varint(0);
        w.varint(127);
        w.varint(128);
        w.varint(u64::MAX);
        w.str("hello · monde");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), 0x6c62272e07bb014262b821756295c58d);
        assert!(r.bool().unwrap());
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), 127);
        assert_eq!(r.varint().unwrap(), 128);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "hello · monde");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
        // A length prefix pointing past the end is truncation too.
        let mut w = ByteWriter::new();
        w.varint(1000);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(), Err(DecodeError::Truncated));
    }

    #[test]
    fn malformed_values_are_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(r.bool(), Err(DecodeError::Malformed(_))));
        // An 11-byte varint cannot fit a u64.
        let bomb = [0xFF; 11];
        let mut r = ByteReader::new(&bomb);
        assert!(matches!(r.varint(), Err(DecodeError::Malformed(_))));
        let mut w = ByteWriter::new();
        w.varint(1 << 20);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.count(1 << 10), Err(DecodeError::Malformed(_))));
    }

    /// The varint format, decoded the slow way: find the terminating
    /// byte, sum the 7-bit groups in a `u128`, then judge. A `u64` takes
    /// at most ten groups, and a final zero group after the first only
    /// pads what a shorter encoding says. Returns the value and the
    /// bytes it took.
    fn reference_varint(bytes: &[u8]) -> Result<(u64, usize), DecodeError> {
        let Some(last) = bytes.iter().take(10).position(|&b| b & 0x80 == 0) else {
            return Err(if bytes.len() >= 10 {
                DecodeError::Malformed("varint overflows u64")
            } else {
                DecodeError::Truncated
            });
        };
        let value = bytes[..=last]
            .iter()
            .enumerate()
            .fold(0u128, |v, (i, &b)| v | u128::from(b & 0x7F) << (7 * i));
        if value > u128::from(u64::MAX) {
            Err(DecodeError::Malformed("varint overflows u64"))
        } else if last > 0 && bytes[last] == 0 {
            Err(DecodeError::Malformed("overlong varint"))
        } else {
            Ok((value as u64, last + 1))
        }
    }

    #[test]
    fn varint_boundaries_match_the_reference() {
        let canonical = |v: u64| {
            let mut w = ByteWriter::new();
            w.varint(v);
            w.into_bytes()
        };
        let mut table: Vec<Vec<u8>> = Vec::new();
        for v in [0, 0x7F, 0x80, 1 << 63, u64::MAX] {
            let bytes = canonical(v);
            // Every truncation point, the empty input included.
            for cut in 0..bytes.len() {
                table.push(bytes[..cut].to_vec());
            }
            table.push(bytes);
        }
        // `80 00`, `80 80 00`, … up to ten bytes: zero, padded.
        for len in 2..=10 {
            let mut overlong = vec![0x80; len - 1];
            overlong.push(0x00);
            table.push(overlong);
        }
        // Ten bytes whose last holds more than bit 63, or continues.
        for tenth in [0x02, 0x7F, 0x80, 0x81, 0xFF] {
            let mut overflow = vec![0xFF; 9];
            overflow.push(tenth);
            table.push(overflow);
        }
        for bytes in &table {
            // Trailing input must not change the verdict.
            for tail in [&[][..], &[0x00], &[0x81, 0x01]] {
                let input = [bytes.as_slice(), tail].concat();
                let mut r = ByteReader::new(&input);
                let got = r.varint().map(|v| (v, input.len() - r.remaining()));
                assert_eq!(got, reference_varint(&input), "{input:02x?}");
            }
        }
        // The reference itself, pinned at the boundaries.
        assert_eq!(reference_varint(&canonical(u64::MAX)), Ok((u64::MAX, 10)));
        assert_eq!(reference_varint(&canonical(1 << 63)), Ok((1 << 63, 10)));
        assert_eq!(reference_varint(&[0x80, 0x01]), Ok((0x80, 2)));
        assert_eq!(reference_varint(&[0x80]), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // A continuation ending in a zero byte encodes what a shorter
        // sequence already does: 0 and 127 here.
        for overlong in [&[0x80, 0x00][..], &[0xff, 0x00], &[0x80, 0x80, 0x00]] {
            assert_eq!(
                ByteReader::new(overlong).varint(),
                Err(DecodeError::Malformed("overlong varint")),
                "{overlong:02x?}"
            );
        }
        // The canonical ten bytes of `u64::MAX` end in 0x01, and a lone
        // zero byte is zero.
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut r = ByteReader::new(&max);
        assert_eq!(r.varint(), Ok(u64::MAX));
        r.expect_end().unwrap();
        assert_eq!(ByteReader::new(&[0x00]).varint(), Ok(0));
    }
}
