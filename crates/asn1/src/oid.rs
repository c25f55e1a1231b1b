//! OBJECT IDENTIFIER values and the well-known OIDs used by the study.

use crate::{Error, Result};
use core::fmt;

/// Arc storage: well-known OIDs borrow a static slice (so they can be
/// `const`, and a decoded catalog OID shares its constant's arcs);
/// every other OID owns its arcs.
#[derive(Clone)]
enum Arcs {
    Static(&'static [u64]),
    Owned(Vec<u64>),
}

/// An ASN.1 OBJECT IDENTIFIER, stored as its component arcs.
///
/// The PKI only needs a handful of OIDs, so an arc list (rather than the
/// packed DER bytes) keeps comparisons and debugging pleasant.
#[derive(Clone)]
pub struct Oid {
    arcs: Arcs,
}

impl PartialEq for Oid {
    fn eq(&self, other: &Self) -> bool {
        self.arcs() == other.arcs()
    }
}
impl Eq for Oid {}

impl PartialOrd for Oid {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Oid {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.arcs().cmp(other.arcs())
    }
}
impl core::hash::Hash for Oid {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.arcs().hash(state)
    }
}

impl Oid {
    // --- Well-known OIDs ---------------------------------------------------

    /// `1.3.6.1.5.5.7.1.24` — the TLS Feature (OCSP Must-Staple) extension.
    /// This is *the* OID the paper studies (its footnote 5).
    pub const TLS_FEATURE: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 1, 24]);
    /// `1.3.6.1.5.5.7.1.1` — Authority Information Access.
    pub const AUTHORITY_INFO_ACCESS: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 1, 1]);
    /// `1.3.6.1.5.5.7.48.1` — the `id-ad-ocsp` access method inside AIA.
    pub const AD_OCSP: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 48, 1]);
    /// `1.3.6.1.5.5.7.48.2` — the `id-ad-caIssuers` access method inside AIA.
    pub const AD_CA_ISSUERS: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 48, 2]);
    /// `2.5.29.31` — CRL Distribution Points.
    pub const CRL_DISTRIBUTION_POINTS: Oid = Oid::from_static(&[2, 5, 29, 31]);
    /// `2.5.29.19` — Basic Constraints.
    pub const BASIC_CONSTRAINTS: Oid = Oid::from_static(&[2, 5, 29, 19]);
    /// `2.5.29.15` — Key Usage.
    pub const KEY_USAGE: Oid = Oid::from_static(&[2, 5, 29, 15]);
    /// `2.5.29.37` — Extended Key Usage.
    pub const EXT_KEY_USAGE: Oid = Oid::from_static(&[2, 5, 29, 37]);
    /// `1.3.6.1.5.5.7.3.9` — `id-kp-OCSPSigning` (delegated OCSP signing).
    pub const KP_OCSP_SIGNING: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 3, 9]);
    /// `2.5.29.17` — Subject Alternative Name.
    pub const SUBJECT_ALT_NAME: Oid = Oid::from_static(&[2, 5, 29, 17]);
    /// `2.5.29.21` — CRL entry Reason Code.
    pub const CRL_REASON: Oid = Oid::from_static(&[2, 5, 29, 21]);
    /// `2.5.29.24` — CRL entry Invalidity Date.
    pub const INVALIDITY_DATE: Oid = Oid::from_static(&[2, 5, 29, 24]);
    /// `2.5.4.3` — X.520 `commonName` attribute.
    pub const COMMON_NAME: Oid = Oid::from_static(&[2, 5, 4, 3]);
    /// `2.5.4.10` — X.520 `organizationName` attribute.
    pub const ORGANIZATION: Oid = Oid::from_static(&[2, 5, 4, 10]);
    /// `2.5.4.6` — X.520 `countryName` attribute.
    pub const COUNTRY: Oid = Oid::from_static(&[2, 5, 4, 6]);
    /// `1.3.6.1.5.5.7.48.1.1` — `id-pkix-ocsp-basic` (the basic OCSP
    /// response type).
    pub const OCSP_BASIC: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 48, 1, 1]);
    /// `1.3.6.1.5.5.7.48.1.2` — `id-pkix-ocsp-nonce`.
    pub const OCSP_NONCE: Oid = Oid::from_static(&[1, 3, 6, 1, 5, 5, 7, 48, 1, 2]);
    /// The study's simulated signature algorithm, "simRSA with SHA-256".
    /// A dedicated arc under the private enterprise space so the toy
    /// algorithm can never be mistaken for real `sha256WithRSAEncryption`.
    pub const SIM_RSA_SHA256: Oid = Oid::from_static(&[1, 3, 6, 1, 4, 1, 99999, 1, 1]);
    /// `2.16.840.1.101.3.4.2.1` — SHA-256 (used inside OCSP CertID).
    pub const SHA256: Oid = Oid::from_static(&[2, 16, 840, 1, 101, 3, 4, 2, 1]);

    /// Every well-known OID above. The decoder returns these constants'
    /// static arcs instead of allocating, so a constant missing here
    /// still decodes, only to an allocated copy.
    pub const CATALOG: &'static [Oid] = &[
        Oid::TLS_FEATURE,
        Oid::AUTHORITY_INFO_ACCESS,
        Oid::AD_OCSP,
        Oid::AD_CA_ISSUERS,
        Oid::CRL_DISTRIBUTION_POINTS,
        Oid::BASIC_CONSTRAINTS,
        Oid::KEY_USAGE,
        Oid::EXT_KEY_USAGE,
        Oid::KP_OCSP_SIGNING,
        Oid::SUBJECT_ALT_NAME,
        Oid::CRL_REASON,
        Oid::INVALIDITY_DATE,
        Oid::COMMON_NAME,
        Oid::ORGANIZATION,
        Oid::COUNTRY,
        Oid::OCSP_BASIC,
        Oid::OCSP_NONCE,
        Oid::SIM_RSA_SHA256,
        Oid::SHA256,
    ];

    /// Create an OID borrowing a static arc slice (usable in `const`).
    pub const fn from_static(arcs: &'static [u64]) -> Oid {
        Oid {
            arcs: Arcs::Static(arcs),
        }
    }

    /// Create an OID from its arcs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two arcs are given or the first two violate
    /// X.660 (first ≤ 2; second ≤ 39 when first < 2).
    pub fn new(arcs: &[u64]) -> Oid {
        assert!(arcs.len() >= 2, "an OID needs at least two arcs");
        assert!(arcs[0] <= 2, "first arc must be 0, 1, or 2");
        if arcs[0] < 2 {
            assert!(arcs[1] <= 39, "second arc must be <= 39 when first arc < 2");
        }
        Oid {
            arcs: Arcs::Owned(arcs.to_vec()),
        }
    }

    /// The component arcs.
    pub fn arcs(&self) -> &[u64] {
        match &self.arcs {
            Arcs::Static(arcs) => arcs,
            Arcs::Owned(arcs) => arcs,
        }
    }

    /// Encode the OID content octets (without tag/length).
    pub fn to_der_content(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.arcs().len() + 1);
        self.push_der_content(&mut out);
        out
    }

    /// Append the content octets to `out`.
    pub(crate) fn push_der_content(&self, out: &mut Vec<u8>) {
        let arcs = self.arcs();
        push_base128(out, arcs[0] * 40 + arcs[1]);
        for &arc in &arcs[2..] {
            push_base128(out, arc);
        }
    }

    /// Length of the content octets, without encoding them.
    pub(crate) fn der_content_len(&self) -> usize {
        let arcs = self.arcs();
        let base128_len = |value: u64| (64 - value.leading_zeros() as usize).div_ceil(7).max(1);
        base128_len(arcs[0] * 40 + arcs[1])
            + arcs[2..].iter().map(|&arc| base128_len(arc)).sum::<usize>()
    }

    /// Decode an OID from content octets (without tag/length). A
    /// [`Oid::CATALOG`] OID comes back as its constant, without
    /// allocating; any other owns its arcs, allocated once at their
    /// exact count.
    pub fn from_der_content(bytes: &[u8]) -> Result<Oid> {
        let mut head = [0u64; MAX_CATALOG_ARCS];
        let count = decode_arcs(bytes, |i, arc| {
            if let Some(slot) = head.get_mut(i) {
                *slot = arc;
            }
        })?;
        let arcs = match head.get(..count) {
            Some(arcs) => {
                if let Some(known) = Oid::CATALOG.iter().find(|oid| oid.arcs() == arcs) {
                    return Ok(known.clone());
                }
                arcs.to_vec()
            }
            None => {
                let mut arcs = Vec::with_capacity(count);
                decode_arcs(bytes, |_, arc| arcs.push(arc))?;
                arcs
            }
        };
        Ok(Oid {
            arcs: Arcs::Owned(arcs),
        })
    }
}

/// The most arcs a [`Oid::CATALOG`] entry has (`OCSP_BASIC` and
/// `OCSP_NONCE`); a longer OID is not in the catalog.
const MAX_CATALOG_ARCS: usize = 10;

/// Decode the arcs of OID content octets, handing each to
/// `arc(index, value)` in order; returns how many there are.
fn decode_arcs(bytes: &[u8], mut arc: impl FnMut(usize, u64)) -> Result<usize> {
    if bytes.is_empty() {
        return Err(Error::InvalidOid);
    }
    let mut count = 0;
    let mut iter = bytes.iter().copied().peekable();
    while iter.peek().is_some() {
        let mut value: u64 = 0;
        loop {
            let byte = iter.next().ok_or(Error::InvalidOid)?;
            if value == 0 && byte == 0x80 {
                // Leading 0x80 pad bytes are forbidden in DER.
                return Err(Error::InvalidOid);
            }
            value = value.checked_mul(128).ok_or(Error::InvalidOid)?;
            value += u64::from(byte & 0x7f);
            if byte & 0x80 == 0 {
                break;
            }
            if iter.peek().is_none() {
                return Err(Error::InvalidOid);
            }
        }
        if count == 0 {
            let (a, b) = if value < 40 {
                (0, value)
            } else if value < 80 {
                (1, value - 40)
            } else {
                (2, value - 80)
            };
            arc(0, a);
            arc(1, b);
            count = 2;
        } else {
            arc(count, value);
            count += 1;
        }
    }
    Ok(count)
}

fn push_base128(out: &mut Vec<u8>, mut value: u64) {
    let mut tmp = [0u8; 10];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            break;
        }
    }
    let last = tmp.len() - 1;
    for (j, byte) in tmp[i..].iter().enumerate() {
        let raw = if i + j == last { *byte } else { *byte | 0x80 };
        out.push(raw);
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.arcs().iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn must_staple_oid_renders() {
        assert_eq!(Oid::TLS_FEATURE.to_string(), "1.3.6.1.5.5.7.1.24");
    }

    #[test]
    fn round_trip_well_known() {
        for oid in Oid::CATALOG {
            let der = oid.to_der_content();
            assert_eq!(&Oid::from_der_content(&der).unwrap(), oid);
        }
    }

    #[test]
    fn static_and_owned_compare_equal() {
        let owned = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 1, 24]);
        assert_eq!(owned, Oid::TLS_FEATURE);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Oid::from_der_content(&[]), Err(Error::InvalidOid));
    }

    #[test]
    fn rejects_truncated_arc() {
        // 0x88 has the continuation bit set with nothing following.
        assert_eq!(Oid::from_der_content(&[0x2b, 0x88]), Err(Error::InvalidOid));
    }

    #[test]
    fn rejects_leading_pad() {
        assert_eq!(
            Oid::from_der_content(&[0x2b, 0x80, 0x01]),
            Err(Error::InvalidOid)
        );
    }

    #[test]
    fn sha256_known_bytes() {
        // 2.16.840.1.101.3.4.2.1 => 60 86 48 01 65 03 04 02 01
        assert_eq!(
            Oid::SHA256.to_der_content(),
            vec![0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01]
        );
    }

    #[test]
    fn every_catalog_oid_decodes_to_its_static_arcs() {
        for oid in Oid::CATALOG {
            let decoded = Oid::from_der_content(&oid.to_der_content()).unwrap();
            let Arcs::Static(arcs) = decoded.arcs else {
                panic!("{oid} decoded to owned arcs");
            };
            assert_eq!(arcs, oid.arcs());
        }
    }

    #[test]
    fn other_oids_own_their_arcs_at_the_exact_size() {
        // A catalog OID's prefix, one with an extra arc, and OIDs past
        // the catalog's longest, whose arcs are decoded a second time.
        let long: Vec<u64> = (1..=24).collect();
        for arcs in [
            &[1, 3, 6, 1, 5, 5, 7, 48][..],
            &[1, 3, 6, 1, 5, 5, 7, 48, 1, 1, 1],
            &[2, 999, 1],
            &long[..MAX_CATALOG_ARCS + 1],
            &long,
        ] {
            let der = Oid::new(arcs).to_der_content();
            let decoded = Oid::from_der_content(&der).unwrap();
            let Arcs::Owned(owned) = &decoded.arcs else {
                panic!("{decoded} decoded to static arcs");
            };
            assert_eq!(owned, arcs);
            assert_eq!(owned.capacity(), arcs.len(), "{decoded}");
        }
    }

    #[test]
    fn first_arc_two_allows_large_second() {
        let oid = Oid::new(&[2, 999, 1]);
        let der = oid.to_der_content();
        assert_eq!(Oid::from_der_content(&der).unwrap(), oid);
    }
}
