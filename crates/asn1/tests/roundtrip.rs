//! Property tests: encode/decode symmetry and decoder robustness.

use mustaple_asn1::{Decoder, Encoder, Oid, Time, Value};
use proptest::prelude::*;

proptest! {
    #[test]
    fn integer_i64_round_trips(v in any::<i64>()) {
        let mut e = Encoder::new();
        e.integer_i64(v);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        prop_assert_eq!(d.integer_i64().unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn unsigned_integer_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut e = Encoder::new();
        e.integer_unsigned(&bytes);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        let back = d.integer_unsigned().unwrap();
        // Compare magnitudes modulo leading zeros.
        let trimmed: Vec<u8> = {
            let mut s = &bytes[..];
            while s.len() > 1 && s[0] == 0 { s = &s[1..]; }
            if s.is_empty() { vec![0] } else { s.to_vec() }
        };
        prop_assert_eq!(back.to_vec(), trimmed);
    }

    #[test]
    fn octet_string_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut e = Encoder::new();
        e.octet_string(&bytes);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        prop_assert_eq!(d.octet_string().unwrap(), &bytes[..]);
    }

    #[test]
    fn utf8_string_round_trips(s in "\\PC{0,80}") {
        let mut e = Encoder::new();
        e.utf8_string(&s);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        prop_assert_eq!(d.utf8_string().unwrap(), s);
    }

    #[test]
    fn oid_round_trips(arcs in proptest::collection::vec(0u64..100_000, 1..10), first in 0u64..3, second in 0u64..40) {
        let mut all = vec![first, second];
        all.extend(arcs);
        let oid = Oid::new(&all);
        let mut e = Encoder::new();
        e.oid(&oid);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        prop_assert_eq!(d.oid().unwrap(), oid);
    }

    #[test]
    fn time_round_trips(secs in 0i64..4_102_444_800) { // through 2100
        let t = Time::from_unix(secs);
        let mut e = Encoder::new();
        e.generalized_time(t);
        let der = e.finish();
        let mut d = Decoder::new(&der);
        prop_assert_eq!(d.generalized_time().unwrap(), t);
    }

    /// Random bytes must never panic the schema-less parser, only error.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Value::parse(&bytes);
    }

    /// Anything the schema-less parser accepts must re-encode to the
    /// identical bytes (DER is canonical).
    #[test]
    fn value_reencode_is_identity(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(v) = Value::parse(&bytes) {
            // Times re-encode canonically only when the source was canonical;
            // skip inputs containing time tags to keep the oracle exact.
            if !bytes.contains(&0x17) && !bytes.contains(&0x18) {
                prop_assert_eq!(v.encode(), bytes);
            }
        }
    }

    /// Truncating a valid encoding must produce an error, not a panic.
    #[test]
    fn truncation_is_detected(v in any::<i64>(), cut in 1usize..3) {
        let mut e = Encoder::new();
        e.sequence(|e| { e.integer_i64(v); e.boolean(true); });
        let der = e.finish();
        let cut = der.len().saturating_sub(cut);
        let mut d = Decoder::new(&der[..cut]);
        let result = d.sequence().and_then(|mut s| {
            s.integer_i64()?;
            s.boolean()?;
            Ok(())
        });
        prop_assert!(result.is_err());
    }
}

/// `Encoder::oid`'s output: tag, then the length and content octets of
/// `Oid::to_der_content`.
fn oid_tlv_reference(oid: &Oid) -> Vec<u8> {
    let content = oid.to_der_content();
    let mut e = Encoder::new();
    e.octet_string(&content);
    let mut der = e.finish();
    der[0] = 0x06;
    der
}

fn oid_tlv(oid: &Oid) -> Vec<u8> {
    let mut e = Encoder::new();
    e.oid(oid);
    e.finish()
}

/// The GeneralizedTime TLV `Time::to_generalized` spells.
fn generalized_reference(t: Time) -> Vec<u8> {
    let content = t.to_generalized();
    let mut der = vec![0x18, content.len() as u8];
    der.extend_from_slice(content.as_bytes());
    der
}

fn generalized_tlv(t: Time) -> Vec<u8> {
    let mut e = Encoder::new();
    e.generalized_time(t);
    e.finish()
}

#[test]
fn oid_writes_match_content_octets_for_every_catalog_oid() {
    for oid in Oid::CATALOG {
        assert_eq!(oid_tlv(oid), oid_tlv_reference(oid), "{oid}");
    }
}

#[test]
fn generalized_time_outside_four_digit_years_keeps_the_formatted_path() {
    for (year, month, day) in [
        (-1, 12, 31),
        (-2_000, 3, 1),
        (10_000, 1, 1),
        (12_345, 6, 15),
    ] {
        let t = Time::from_civil(year, month, day, 7, 8, 9);
        assert_eq!(generalized_tlv(t), generalized_reference(t), "{year}");
    }
    // The first and last instants with four-digit years.
    for t in [
        Time::from_civil(0, 1, 1, 0, 0, 0),
        Time::from_civil(9_999, 12, 31, 23, 59, 59),
    ] {
        assert_eq!(generalized_tlv(t), generalized_reference(t));
        assert_eq!(generalized_tlv(t)[1], 15);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The digit-writing GeneralizedTime equals `to_generalized()` byte
    /// for byte over years 0–9999.
    #[test]
    fn generalized_time_digits_match_formatting(
        secs in -62_167_219_200i64..253_402_300_800, // 0000-01-01 .. 10000-01-01
    ) {
        let t = Time::from_unix(secs);
        prop_assert_eq!(generalized_tlv(t), generalized_reference(t));
    }

    /// Beyond four-digit years both paths agree too.
    #[test]
    fn generalized_time_matches_formatting_beyond_four_digits(
        secs in any::<i32>().prop_map(|s| i64::from(s) * 100_000),
    ) {
        let t = Time::from_unix(secs);
        prop_assert_eq!(generalized_tlv(t), generalized_reference(t));
    }

    /// The digit-writing UTCTime equals `to_utc_time()`, and refuses the
    /// same years.
    #[test]
    fn utc_time_digits_match_formatting(secs in -946_771_200i64..2_871_763_200) { // 1940 .. 2061
        let t = Time::from_unix(secs);
        let mut e = Encoder::new();
        match (e.utc_time(t), t.to_utc_time()) {
            (Ok(()), Ok(content)) => {
                let mut expected = vec![0x17, content.len() as u8];
                expected.extend_from_slice(content.as_bytes());
                prop_assert_eq!(e.finish(), expected);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                prop_assert!(e.is_empty());
            }
            (ours, theirs) => prop_assert!(false, "{:?} vs {:?}", ours, theirs.map(|_| ())),
        }
    }

    /// The OID written straight into the encoder equals its content
    /// octets, for random arcs of every size.
    #[test]
    fn oid_writes_match_content_octets(
        first in 0u64..3,
        second in any::<u64>(),
        rest in proptest::collection::vec(any::<u64>().prop_map(|a| a >> (a % 64)), 0..12),
    ) {
        let second = if first < 2 { second % 40 } else { second >> 2 };
        let mut arcs = vec![first, second];
        arcs.extend(rest);
        let oid = Oid::new(&arcs);
        prop_assert_eq!(oid_tlv(&oid), oid_tlv_reference(&oid));
    }
}
