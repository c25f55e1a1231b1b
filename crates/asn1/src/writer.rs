//! DER encoding.
//!
//! [`Encoder`] appends TLVs to an internal buffer. Constructed types take a
//! closure that fills the content directly into the same buffer; the
//! encoder then computes the definite length (DER forbids the indefinite
//! form) and inserts the header where the value started. No intermediate
//! `Vec` is allocated per nesting level, and the insertion shifts at most
//! the constructed value's own content by a ≤ 5-byte header. Primitive
//! values (integers, OIDs, times, bit strings) are written straight into
//! the buffer too, with no heap temporaries, so an encoder sized with
//! [`Encoder::with_capacity`] for its message allocates once.

use crate::{Civil, Error, Oid, Result, Tag, Time};

/// A DER encoder.
///
/// All methods append exactly one TLV (or, for [`Encoder::raw`], caller-
/// provided bytes). The final buffer is obtained with [`Encoder::finish`].
#[derive(Debug, Default)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// Create an empty encoder.
    pub fn new() -> Encoder {
        Encoder { out: Vec::new() }
    }

    /// Create an empty encoder with room for `bytes` bytes of output
    /// before its buffer grows.
    pub fn with_capacity(bytes: usize) -> Encoder {
        Encoder {
            out: Vec::with_capacity(bytes),
        }
    }

    /// Consume the encoder and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Append pre-encoded DER (or arbitrary bytes — used by the fault
    /// injector to produce deliberately malformed messages).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Append one TLV with the given tag and content octets.
    pub fn tlv(&mut self, tag: Tag, content: &[u8]) {
        self.out.push(tag.0);
        push_length(&mut self.out, content.len());
        self.out.extend_from_slice(content);
    }

    /// Append a constructed TLV whose content is produced by `f`.
    ///
    /// The content is encoded in place — `f` writes directly into this
    /// encoder's buffer and the definite length is inserted afterwards —
    /// so arbitrarily deep nesting costs no intermediate allocations.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Encoder)) {
        self.out.push(tag.0);
        let len_pos = self.out.len();
        f(self);
        insert_length(&mut self.out, len_pos);
    }

    /// Append a SEQUENCE.
    pub fn sequence(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.constructed(Tag::SEQUENCE, f);
    }

    /// Append a SET.
    pub fn set(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.constructed(Tag::SET, f);
    }

    /// Append an EXPLICIT `[n]` wrapper around the content produced by `f`.
    pub fn explicit(&mut self, n: u8, f: impl FnOnce(&mut Encoder)) {
        self.constructed(Tag::context(n), f);
    }

    /// Append an IMPLICIT `[n]` primitive carrying raw content octets.
    pub fn implicit_primitive(&mut self, n: u8, content: &[u8]) {
        self.tlv(Tag::context_primitive(n), content);
    }

    /// Append an IMPLICIT `[n]` *constructed* value filled by `f`
    /// (an implicitly tagged SEQUENCE keeps its constructed bit).
    pub fn implicit_constructed(&mut self, n: u8, f: impl FnOnce(&mut Encoder)) {
        self.constructed(Tag::context(n), f);
    }

    /// Append a BOOLEAN (DER: TRUE is 0xFF).
    pub fn boolean(&mut self, value: bool) {
        self.tlv(Tag::BOOLEAN, &[if value { 0xff } else { 0x00 }]);
    }

    /// Append NULL.
    pub fn null(&mut self) {
        self.tlv(Tag::NULL, &[]);
    }

    /// Append an INTEGER from an `i64`.
    pub fn integer_i64(&mut self, value: i64) {
        let bytes = value.to_be_bytes();
        // Strip redundant sign-extension bytes, keeping at least one and
        // keeping the sign bit correct.
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next = bytes[start + 1];
            let redundant = (cur == 0x00 && next & 0x80 == 0) || (cur == 0xff && next & 0x80 != 0);
            if redundant {
                start += 1;
            } else {
                break;
            }
        }
        self.tlv(Tag::INTEGER, &bytes[start..]);
    }

    /// Append an INTEGER from unsigned big-endian magnitude bytes
    /// (certificate serial numbers, RSA moduli). A leading zero octet is
    /// inserted when the top bit is set so the value stays non-negative.
    pub fn integer_unsigned(&mut self, magnitude: &[u8]) {
        let mut trimmed = magnitude;
        while trimmed.len() > 1 && trimmed[0] == 0 {
            trimmed = &trimmed[1..];
        }
        if trimmed.is_empty() {
            self.tlv(Tag::INTEGER, &[0]);
            return;
        }
        if trimmed[0] & 0x80 != 0 {
            self.prefixed_tlv(Tag::INTEGER, 0, trimmed);
        } else {
            self.tlv(Tag::INTEGER, trimmed);
        }
    }

    /// Append an ENUMERATED from an `i64`.
    pub fn enumerated(&mut self, value: i64) {
        // Same content as the INTEGER, ENUMERATED tag.
        let start = self.out.len();
        self.integer_i64(value);
        self.out[start] = Tag::ENUMERATED.0;
    }

    /// Append an OBJECT IDENTIFIER, its arcs written straight into the
    /// buffer after a length computed from them.
    pub fn oid(&mut self, oid: &Oid) {
        self.out.push(Tag::OID.0);
        push_length(&mut self.out, oid.der_content_len());
        oid.push_der_content(&mut self.out);
    }

    /// Append an OCTET STRING.
    pub fn octet_string(&mut self, bytes: &[u8]) {
        self.tlv(Tag::OCTET_STRING, bytes);
    }

    /// Append an OCTET STRING whose content is nested DER produced by `f`
    /// (the standard way X.509 wraps extension payloads). Encoded in
    /// place, like [`Encoder::constructed`].
    pub fn octet_string_nested(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.out.push(Tag::OCTET_STRING.0);
        let len_pos = self.out.len();
        f(self);
        insert_length(&mut self.out, len_pos);
    }

    /// Append a BIT STRING with zero unused bits.
    pub fn bit_string(&mut self, bytes: &[u8]) {
        self.prefixed_tlv(Tag::BIT_STRING, 0, bytes);
    }

    /// Append one TLV whose content is `first` followed by `rest`.
    fn prefixed_tlv(&mut self, tag: Tag, first: u8, rest: &[u8]) {
        self.out.push(tag.0);
        push_length(&mut self.out, rest.len() + 1);
        self.out.push(first);
        self.out.extend_from_slice(rest);
    }

    /// Append a UTF8String.
    pub fn utf8_string(&mut self, s: &str) {
        self.tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// Append a PrintableString. The caller must only pass characters in
    /// the PrintableString repertoire; this is checked in debug builds.
    pub fn printable_string(&mut self, s: &str) {
        debug_assert!(
            s.bytes().all(is_printable_char),
            "not a PrintableString: {s:?}"
        );
        self.tlv(Tag::PRINTABLE_STRING, s.as_bytes());
    }

    /// Append an IA5String (ASCII — used for URIs and DNS names).
    pub fn ia5_string(&mut self, s: &str) {
        debug_assert!(s.is_ascii(), "not an IA5String: {s:?}");
        self.tlv(Tag::IA5_STRING, s.as_bytes());
    }

    /// Append a GeneralizedTime: the content of
    /// [`Time::to_generalized`], whose 15 characters are written as
    /// digits for years 0–9999. Other years take the formatted path,
    /// which renders a sign or a fifth year digit.
    pub fn generalized_time(&mut self, t: Time) {
        let c = t.civil();
        let Ok(year @ 0..=9999) = u32::try_from(c.year) else {
            self.tlv(Tag::GENERALIZED_TIME, t.to_generalized().as_bytes());
            return;
        };
        let mut content = [b'Z'; 15];
        put_digits(&mut content[..4], year);
        put_clock(&mut content[4..14], c);
        self.tlv(Tag::GENERALIZED_TIME, &content);
    }

    /// Append a UTCTime (fails outside 1950–2049): the content of
    /// [`Time::to_utc_time`], written as digits.
    pub fn utc_time(&mut self, t: Time) -> Result<()> {
        let c = t.civil();
        if !(1950..2050).contains(&c.year) {
            return Err(Error::InvalidTime);
        }
        let mut content = [b'Z'; 13];
        put_digits(&mut content[..2], c.year.unsigned_abs() % 100);
        put_clock(&mut content[2..12], c);
        self.tlv(Tag::UTC_TIME, &content);
        Ok(())
    }

    /// Append a time using the RFC 5280 rule: UTCTime through 2049,
    /// GeneralizedTime from 2050 on.
    pub fn x509_time(&mut self, t: Time) {
        if self.utc_time(t).is_err() {
            self.generalized_time(t);
        }
    }
}

/// Write `value` as exactly `out.len()` zero-padded decimal digits
/// (the low ones, should it have more).
fn put_digits(out: &mut [u8], mut value: u32) {
    for digit in out.iter_mut().rev() {
        *digit = b'0' + (value % 10) as u8;
        value /= 10;
    }
}

/// Write `MMDDHHMMSS` of `c` over `out`'s ten bytes.
fn put_clock(out: &mut [u8], c: Civil) {
    for (pair, value) in out
        .chunks_exact_mut(2)
        .zip([c.month, c.day, c.hour, c.minute, c.second])
    {
        put_digits(pair, u32::from(value));
    }
}

/// True for bytes allowed in PrintableString.
fn is_printable_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b" '()+,-./:=?".contains(&b)
}

/// Insert the DER definite length of `out[len_pos..]` at `len_pos`,
/// shifting the already-encoded content right by the header size (at
/// most five bytes, so the memmove is cheap relative to the content).
fn insert_length(out: &mut Vec<u8>, len_pos: usize) {
    let len = out.len() - len_pos;
    if len < 0x80 {
        out.insert(len_pos, len as u8);
        return;
    }
    // 0x80 | n, then the length's n significant bytes, built on the
    // stack and spliced in.
    let mut header = [0u8; 9];
    header[1..].copy_from_slice(&(len as u64).to_be_bytes());
    let skip = header[1..].iter().take_while(|&&b| b == 0).count();
    header[skip] = 0x80 | (8 - skip) as u8;
    out.splice(len_pos..len_pos, header[skip..].iter().copied());
}

/// Append a DER definite length.
pub(crate) fn push_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = (len as u64).to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let tail = &bytes[skip..];
        out.push(0x80 | tail.len() as u8);
        out.extend_from_slice(tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        f(&mut e);
        e.finish()
    }

    #[test]
    fn short_and_long_lengths() {
        assert_eq!(
            enc(|e| e.octet_string(&[0xab; 3])),
            vec![0x04, 0x03, 0xab, 0xab, 0xab]
        );
        let der = enc(|e| e.octet_string(&[0u8; 200]));
        assert_eq!(&der[..3], &[0x04, 0x81, 200]);
        let der = enc(|e| e.octet_string(&[0u8; 300]));
        assert_eq!(&der[..4], &[0x04, 0x82, 0x01, 0x2c]);
    }

    #[test]
    fn integer_minimal_encodings() {
        assert_eq!(enc(|e| e.integer_i64(0)), vec![0x02, 0x01, 0x00]);
        assert_eq!(enc(|e| e.integer_i64(127)), vec![0x02, 0x01, 0x7f]);
        assert_eq!(enc(|e| e.integer_i64(128)), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(enc(|e| e.integer_i64(256)), vec![0x02, 0x02, 0x01, 0x00]);
        assert_eq!(enc(|e| e.integer_i64(-1)), vec![0x02, 0x01, 0xff]);
        assert_eq!(enc(|e| e.integer_i64(-128)), vec![0x02, 0x01, 0x80]);
        assert_eq!(enc(|e| e.integer_i64(-129)), vec![0x02, 0x02, 0xff, 0x7f]);
    }

    #[test]
    fn unsigned_integer_adds_sign_pad() {
        assert_eq!(
            enc(|e| e.integer_unsigned(&[0x80])),
            vec![0x02, 0x02, 0x00, 0x80]
        );
        assert_eq!(enc(|e| e.integer_unsigned(&[0x7f])), vec![0x02, 0x01, 0x7f]);
        // Leading zeros in the magnitude are trimmed first.
        assert_eq!(
            enc(|e| e.integer_unsigned(&[0x00, 0x00, 0x01])),
            vec![0x02, 0x01, 0x01]
        );
        assert_eq!(enc(|e| e.integer_unsigned(&[])), vec![0x02, 0x01, 0x00]);
    }

    #[test]
    fn boolean_and_null() {
        assert_eq!(enc(|e| e.boolean(true)), vec![0x01, 0x01, 0xff]);
        assert_eq!(enc(|e| e.boolean(false)), vec![0x01, 0x01, 0x00]);
        assert_eq!(enc(|e| e.null()), vec![0x05, 0x00]);
    }

    #[test]
    fn nested_sequence() {
        let der = enc(|e| {
            e.sequence(|e| {
                e.integer_i64(1);
                e.sequence(|e| e.boolean(true));
            })
        });
        assert_eq!(
            der,
            vec![0x30, 0x08, 0x02, 0x01, 0x01, 0x30, 0x03, 0x01, 0x01, 0xff]
        );
    }

    #[test]
    fn bit_string_prefixes_unused_count() {
        assert_eq!(enc(|e| e.bit_string(&[0xaa])), vec![0x03, 0x02, 0x00, 0xaa]);
    }

    #[test]
    fn explicit_wrapper() {
        let der = enc(|e| e.explicit(0, |e| e.integer_i64(5)));
        assert_eq!(der, vec![0xa0, 0x03, 0x02, 0x01, 0x05]);
    }

    #[test]
    fn constructed_long_lengths() {
        for (len, header) in [
            (127usize, &[0x30, 0x7f][..]),
            (128, &[0x30, 0x81, 0x80]),
            (255, &[0x30, 0x81, 0xff]),
            (256, &[0x30, 0x82, 0x01, 0x00]),
            (70_000, &[0x30, 0x83, 0x01, 0x11, 0x70]),
        ] {
            let der = enc(|e| e.sequence(|e| e.raw(&vec![0xab; len])));
            assert_eq!(&der[..header.len()], header, "{len}");
            assert_eq!(der.len(), header.len() + len);
            assert!(der[header.len()..].iter().all(|&b| b == 0xab));
        }
    }

    #[test]
    fn enumerated_uses_enum_tag() {
        assert_eq!(enc(|e| e.enumerated(1)), vec![0x0a, 0x01, 0x01]);
        assert_eq!(enc(|e| e.enumerated(-129)), vec![0x0a, 0x02, 0xff, 0x7f]);
        assert_eq!(
            enc(|e| {
                e.null();
                e.enumerated(128);
            }),
            vec![0x05, 0x00, 0x0a, 0x02, 0x00, 0x80]
        );
    }
}
