//! X.509 v3 certificates with real DER encoding and toy-RSA signatures.

use crate::extensions::{
    AuthorityInfoAccess, BasicConstraints, CrlDistributionPoints, ExtendedKeyUsage, Extension,
    SubjectAltName, TlsFeature,
};
use crate::name::Name;
use crate::serial::Serial;
use asn1::{Decoder, Encoder, Error, Oid, Result, Time};
use simcrypto::{BigUint, PublicKey};
use std::sync::OnceLock;

/// A certificate validity window (inclusive on both ends, as RFC 5280).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// First instant the certificate is valid.
    pub not_before: Time,
    /// Last instant the certificate is valid.
    pub not_after: Time,
}

impl Validity {
    /// Whether `t` falls within the window.
    pub fn contains(&self, t: Time) -> bool {
        self.not_before <= t && t <= self.not_after
    }

    /// Seconds remaining after `t` (zero if expired).
    pub fn remaining(&self, t: Time) -> i64 {
        (self.not_after - t).max(0)
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number, unique per issuer.
    pub serial: Serial,
    /// Issuer distinguished name.
    pub issuer: Name,
    /// Validity window.
    pub validity: Validity,
    /// Subject distinguished name.
    pub subject: Name,
    /// Subject public key.
    pub public_key: PublicKey,
    /// v3 extensions, in order.
    pub extensions: Vec<Extension>,
}

impl TbsCertificate {
    /// Encode to DER (the exact bytes that get signed).
    pub fn to_der(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.sequence(|enc| {
            // version [0] EXPLICIT INTEGER { v3(2) }
            enc.explicit(0, |enc| enc.integer_i64(2));
            self.serial.encode(enc);
            encode_algorithm_id(enc);
            self.issuer.encode(enc);
            enc.sequence(|enc| {
                enc.x509_time(self.validity.not_before);
                enc.x509_time(self.validity.not_after);
            });
            self.subject.encode(enc);
            encode_spki(enc, &self.public_key);
            if !self.extensions.is_empty() {
                enc.explicit(3, |enc| {
                    enc.sequence(|enc| {
                        for ext in &self.extensions {
                            ext.encode(enc);
                        }
                    });
                });
            }
        });
        enc.finish()
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<TbsCertificate> {
        let mut tbs = dec.sequence()?;
        let mut version = tbs.explicit(0)?;
        let v = version.integer_i64()?;
        if v != 2 {
            return Err(Error::ValueOutOfRange);
        }
        let serial = Serial::decode(&mut tbs)?;
        decode_algorithm_id(&mut tbs)?;
        let issuer = Name::decode(&mut tbs)?;
        let mut validity_seq = tbs.sequence()?;
        let validity = Validity {
            not_before: validity_seq.x509_time()?,
            not_after: validity_seq.x509_time()?,
        };
        validity_seq.finish()?;
        let subject = Name::decode(&mut tbs)?;
        let public_key = decode_spki(&mut tbs)?;
        let mut extensions = Vec::new();
        if let Some(mut wrapper) = tbs.optional_explicit(3)? {
            let mut list = wrapper.sequence()?;
            while !list.is_empty() {
                extensions.push(Extension::decode(&mut list)?);
            }
            wrapper.finish()?;
        }
        tbs.finish()?;
        Ok(TbsCertificate {
            serial,
            issuer,
            validity,
            subject,
            public_key,
            extensions,
        })
    }
}

/// A signed certificate.
///
/// Holds the exact DER bytes of its TBS portion so signature verification
/// operates on what was actually signed, whether the certificate was
/// parsed off the wire or issued locally.
///
/// Equality and `Debug` see the TBS, its DER and the signature only.
#[derive(Clone)]
pub struct Certificate {
    tbs: TbsCertificate,
    tbs_der: Vec<u8>,
    signature: Vec<u8>,
    /// [`Certificate::subject_name_hash`], made by its first call rather
    /// than at decode: certificates attached to responses are parsed on
    /// every probe and never asked, while an issuer is asked on every
    /// request it answers.
    subject_name_hash: OnceLock<[u8; 32]>,
}

impl Certificate {
    /// Assemble a certificate from a TBS and its signature. Used by the
    /// CA engine; `signature` must cover `tbs.to_der()`.
    pub fn assemble(tbs: TbsCertificate, signature: Vec<u8>) -> Certificate {
        let tbs_der = tbs.to_der();
        Certificate::from_parts(tbs, tbs_der, signature)
    }

    fn from_parts(tbs: TbsCertificate, tbs_der: Vec<u8>, signature: Vec<u8>) -> Certificate {
        Certificate {
            tbs,
            tbs_der,
            signature,
            subject_name_hash: OnceLock::new(),
        }
    }

    /// The to-be-signed content.
    pub fn tbs(&self) -> &TbsCertificate {
        &self.tbs
    }

    /// The exact signed bytes.
    pub fn tbs_der(&self) -> &[u8] {
        &self.tbs_der
    }

    /// The signature bytes.
    pub fn signature(&self) -> &[u8] {
        &self.signature
    }

    /// Encode the full certificate to DER.
    pub fn to_der(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(self.der_len_bound());
        self.encode(&mut enc);
        enc.finish()
    }

    /// Append the certificate's DER to `enc`, as [`Certificate::to_der`]
    /// spells it.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.raw(&self.tbs_der);
            encode_algorithm_id(enc);
            enc.bit_string(&self.signature);
        });
    }

    /// An upper bound on the DER's length, for sizing a buffer: the
    /// signed bytes and the signature plus room for the headers and the
    /// algorithm identifier.
    pub fn der_len_bound(&self) -> usize {
        self.tbs_der.len() + self.signature.len() + 40
    }

    /// Decode a certificate from DER.
    pub fn from_der(der: &[u8]) -> Result<Certificate> {
        let mut dec = Decoder::new(der);
        let mut seq = dec.sequence()?;
        // Capture the raw TBS bytes, then parse them.
        let tbs_der = seq.raw_tlv()?.to_vec();
        let mut tbs_dec = Decoder::new(&tbs_der);
        let tbs = TbsCertificate::decode(&mut tbs_dec)?;
        tbs_dec.finish()?;
        decode_algorithm_id(&mut seq)?;
        let signature = seq.bit_string()?.to_vec();
        seq.finish()?;
        dec.finish()?;
        Ok(Certificate::from_parts(tbs, tbs_der, signature))
    }

    /// Verify this certificate's signature against an issuer public key.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        issuer_key.verify(&self.tbs_der, &self.signature).is_ok()
    }

    /// SHA-256 fingerprint of the full DER encoding.
    pub fn fingerprint(&self) -> [u8; 32] {
        simcrypto::sha256(&self.to_der())
    }

    // --- Field & extension conveniences ------------------------------------

    /// Serial number.
    pub fn serial(&self) -> &Serial {
        &self.tbs.serial
    }

    /// Subject name.
    pub fn subject(&self) -> &Name {
        &self.tbs.subject
    }

    /// [`Name::hash`] of the subject: the `issuerNameHash` of OCSP
    /// CertIDs for the certificates this one issues.
    pub fn subject_name_hash(&self) -> [u8; 32] {
        *self
            .subject_name_hash
            .get_or_init(|| self.tbs.subject.hash())
    }

    /// Issuer name.
    pub fn issuer(&self) -> &Name {
        &self.tbs.issuer
    }

    /// Validity window.
    pub fn validity(&self) -> Validity {
        self.tbs.validity
    }

    /// Subject public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.tbs.public_key
    }

    /// Find a raw extension by OID.
    pub fn extension(&self, oid: &Oid) -> Option<&Extension> {
        self.tbs.extensions.iter().find(|e| e.oid == *oid)
    }

    /// Whether the certificate carries the OCSP Must-Staple feature —
    /// a TLS Feature extension containing `status_request` (RFC 7633).
    pub fn has_must_staple(&self) -> bool {
        self.extension(&Oid::TLS_FEATURE)
            .and_then(|e| TlsFeature::from_extension(e).ok())
            .is_some_and(|f| f.requires_staple())
    }

    /// OCSP responder URLs from the AIA extension. Non-empty means the
    /// certificate "supports OCSP" in the paper's terminology.
    pub fn ocsp_urls(&self) -> Vec<String> {
        self.extension(&Oid::AUTHORITY_INFO_ACCESS)
            .and_then(|e| AuthorityInfoAccess::from_extension(e).ok())
            .map(|aia| aia.ocsp)
            .unwrap_or_default()
    }

    /// CRL URLs from the CRL Distribution Points extension.
    pub fn crl_urls(&self) -> Vec<String> {
        self.extension(&Oid::CRL_DISTRIBUTION_POINTS)
            .and_then(|e| CrlDistributionPoints::from_extension(e).ok())
            .map(|dp| dp.urls)
            .unwrap_or_default()
    }

    /// DNS names from the SAN extension.
    pub fn dns_names(&self) -> Vec<String> {
        self.extension(&Oid::SUBJECT_ALT_NAME)
            .and_then(|e| SubjectAltName::from_extension(e).ok())
            .map(|san| san.dns_names)
            .unwrap_or_default()
    }

    /// Whether `host` is covered by the SAN (or, absent a SAN, the CN).
    pub fn covers_host(&self, host: &str) -> bool {
        if let Some(ext) = self.extension(&Oid::SUBJECT_ALT_NAME) {
            if let Ok(san) = SubjectAltName::from_extension(ext) {
                return san.covers(host);
            }
        }
        self.tbs
            .subject
            .cn()
            .is_some_and(|cn| cn.eq_ignore_ascii_case(host))
    }

    /// Whether Basic Constraints marks this as a CA certificate.
    pub fn is_ca(&self) -> bool {
        self.extension(&Oid::BASIC_CONSTRAINTS)
            .and_then(|e| BasicConstraints::from_extension(e).ok())
            .is_some_and(|bc| bc.ca)
    }

    /// The Basic Constraints path length limit, if any.
    pub fn path_len(&self) -> Option<u32> {
        self.extension(&Oid::BASIC_CONSTRAINTS)
            .and_then(|e| BasicConstraints::from_extension(e).ok())
            .and_then(|bc| bc.path_len)
    }

    /// Whether the certificate is delegated authority to sign OCSP
    /// responses for its issuer (RFC 6960 §4.2.2.2).
    pub fn allows_ocsp_signing(&self) -> bool {
        self.extension(&Oid::EXT_KEY_USAGE)
            .and_then(|e| ExtendedKeyUsage::from_extension(e).ok())
            .is_some_and(|eku| eku.allows_ocsp_signing())
    }

    /// Whether this is a self-signed (root-style) certificate: subject and
    /// issuer match and the signature verifies under its own key.
    pub fn is_self_signed(&self) -> bool {
        self.tbs.subject == self.tbs.issuer && self.verify_signature(&self.tbs.public_key)
    }
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Certificate) -> bool {
        (&self.tbs, &self.tbs_der, &self.signature)
            == (&other.tbs, &other.tbs_der, &other.signature)
    }
}

impl Eq for Certificate {}

impl core::fmt::Debug for Certificate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Certificate")
            .field("tbs", &self.tbs)
            .field("tbs_der", &self.tbs_der)
            .field("signature", &self.signature)
            .finish()
    }
}

/// Encode `AlgorithmIdentifier ::= SEQUENCE { simRSA-SHA256, NULL }`.
fn encode_algorithm_id(enc: &mut Encoder) {
    enc.sequence(|enc| {
        enc.oid(&Oid::SIM_RSA_SHA256);
        enc.null();
    });
}

/// Decode and check the AlgorithmIdentifier.
fn decode_algorithm_id(dec: &mut Decoder<'_>) -> Result<()> {
    let mut seq = dec.sequence()?;
    let oid = seq.oid()?;
    if oid != Oid::SIM_RSA_SHA256 {
        return Err(Error::ValueOutOfRange);
    }
    seq.null()?;
    seq.finish()
}

/// Encode `SubjectPublicKeyInfo ::= SEQUENCE { AlgorithmIdentifier,
/// BIT STRING { SEQUENCE { n INTEGER, e INTEGER } } }`.
fn encode_spki(enc: &mut Encoder, key: &PublicKey) {
    enc.sequence(|enc| {
        encode_algorithm_id(enc);
        let mut inner = Encoder::new();
        inner.sequence(|enc| {
            enc.integer_unsigned(&key.modulus().to_be_bytes());
            enc.integer_unsigned(&key.exponent().to_be_bytes());
        });
        enc.bit_string(&inner.finish());
    });
}

/// Decode a SubjectPublicKeyInfo.
fn decode_spki(dec: &mut Decoder<'_>) -> Result<PublicKey> {
    let mut seq = dec.sequence()?;
    decode_algorithm_id(&mut seq)?;
    let key_bits = seq.bit_string()?;
    seq.finish()?;
    let mut key_dec = Decoder::new(key_bits);
    let mut key_seq = key_dec.sequence()?;
    let n = BigUint::from_be_bytes(key_seq.integer_unsigned()?);
    let e = BigUint::from_be_bytes(key_seq.integer_unsigned()?);
    key_seq.finish()?;
    key_dec.finish()?;
    Ok(PublicKey::new(n, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use simcrypto::KeyPair;

    fn test_keypair(seed: u64) -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(seed), 384)
    }

    fn sample_tbs(kp: &KeyPair, extensions: Vec<Extension>) -> TbsCertificate {
        TbsCertificate {
            serial: Serial::from_u64(0x0102030405),
            issuer: Name::ca("Example CA", "Example Root R1"),
            validity: Validity {
                not_before: Time::from_civil(2018, 1, 1, 0, 0, 0),
                not_after: Time::from_civil(2018, 12, 31, 23, 59, 59),
            },
            subject: Name::common_name("www.example.com"),
            public_key: kp.public().clone(),
            extensions,
        }
    }

    fn signed(tbs: TbsCertificate, signer: &KeyPair) -> Certificate {
        let sig = signer.sign(&tbs.to_der());
        Certificate::assemble(tbs, sig)
    }

    #[test]
    fn der_round_trip_and_verify() {
        let subject_kp = test_keypair(1);
        let ca_kp = test_keypair(2);
        let exts = vec![
            BasicConstraints {
                ca: false,
                path_len: None,
            }
            .to_extension(),
            TlsFeature::must_staple().to_extension(),
            AuthorityInfoAccess {
                ocsp: vec!["http://ocsp.example-ca.com".into()],
                ca_issuers: vec![],
            }
            .to_extension(),
        ];
        let cert = signed(sample_tbs(&subject_kp, exts), &ca_kp);
        let der = cert.to_der();
        let back = Certificate::from_der(&der).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify_signature(ca_kp.public()));
        assert!(!back.verify_signature(subject_kp.public()));
        assert!(back.has_must_staple());
        assert_eq!(
            back.ocsp_urls(),
            vec!["http://ocsp.example-ca.com".to_string()]
        );
        assert!(!back.is_ca());
    }

    #[test]
    fn memoized_hashes_are_invisible() {
        let kp = test_keypair(4);
        let der = signed(sample_tbs(&kp, vec![]), &kp).to_der();
        let used = Certificate::from_der(&der).unwrap();
        let fresh = Certificate::from_der(&der).unwrap();
        assert_eq!(
            used.public_key().key_id(),
            simcrypto::sha256(&spki_bytes(&kp))
        );
        assert_eq!(used.subject_name_hash(), used.subject().hash());

        let hash_of = |key: &PublicKey| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(key, &mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(used.public_key(), fresh.public_key());
        assert_eq!(hash_of(used.public_key()), hash_of(fresh.public_key()));
        assert_eq!(
            format!("{:?}", used.public_key()),
            format!("{:?}", fresh.public_key())
        );
        assert_eq!(used, fresh);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
        // A clone carries the memo along and still compares equal.
        assert_eq!(used.clone(), fresh);
    }

    /// `n || e`, the bytes a key id hashes.
    fn spki_bytes(kp: &KeyPair) -> Vec<u8> {
        let mut bytes = kp.public().modulus().to_be_bytes();
        bytes.extend_from_slice(&kp.public().exponent().to_be_bytes());
        bytes
    }

    #[test]
    fn tampered_der_fails_signature() {
        let kp = test_keypair(3);
        let cert = signed(sample_tbs(&kp, vec![]), &kp);
        let mut der = cert.to_der();
        // Flip a byte inside the subject name region.
        let idx = der.len() / 2;
        der[idx] ^= 0x01;
        // A parse error is also acceptable: structural damage.
        if let Ok(parsed) = Certificate::from_der(&der) {
            assert!(!parsed.verify_signature(kp.public()));
        }
    }

    #[test]
    fn self_signed_detection() {
        let kp = test_keypair(4);
        let mut tbs = sample_tbs(
            &kp,
            vec![BasicConstraints {
                ca: true,
                path_len: None,
            }
            .to_extension()],
        );
        tbs.subject = tbs.issuer.clone();
        let root = signed(tbs, &kp);
        assert!(root.is_self_signed());
        assert!(root.is_ca());

        let leaf = signed(sample_tbs(&kp, vec![]), &kp);
        assert!(!leaf.is_self_signed()); // subject != issuer
    }

    #[test]
    fn host_coverage_prefers_san() {
        let kp = test_keypair(5);
        let exts = vec![SubjectAltName {
            dns_names: vec!["alt.example.net".into(), "*.wild.example.net".into()],
        }
        .to_extension()];
        let cert = signed(sample_tbs(&kp, exts), &kp);
        assert!(cert.covers_host("alt.example.net"));
        assert!(cert.covers_host("x.wild.example.net"));
        // CN is ignored when a SAN exists.
        assert!(!cert.covers_host("www.example.com"));

        let no_san = signed(sample_tbs(&kp, vec![]), &kp);
        assert!(no_san.covers_host("www.example.com"));
    }

    #[test]
    fn must_staple_absent_by_default() {
        let kp = test_keypair(6);
        let cert = signed(sample_tbs(&kp, vec![]), &kp);
        assert!(!cert.has_must_staple());
        assert!(cert.ocsp_urls().is_empty());
        assert!(cert.crl_urls().is_empty());
    }

    #[test]
    fn validity_window() {
        let v = Validity {
            not_before: Time::from_civil(2018, 1, 1, 0, 0, 0),
            not_after: Time::from_civil(2018, 2, 1, 0, 0, 0),
        };
        assert!(v.contains(Time::from_civil(2018, 1, 15, 0, 0, 0)));
        assert!(v.contains(v.not_before));
        assert!(v.contains(v.not_after));
        assert!(!v.contains(v.not_after + 1));
        assert!(!v.contains(v.not_before - 1));
        assert_eq!(v.remaining(v.not_after), 0);
        assert_eq!(v.remaining(v.not_after + 100), 0);
        assert_eq!(v.remaining(v.not_after - 60), 60);
    }

    #[test]
    fn ocsp_signing_delegation_flag() {
        let kp = test_keypair(7);
        let exts = vec![ExtendedKeyUsage::ocsp_signing().to_extension()];
        let cert = signed(sample_tbs(&kp, exts), &kp);
        assert!(cert.allows_ocsp_signing());
    }

    #[test]
    fn rejects_non_v3() {
        let kp = test_keypair(8);
        let cert = signed(sample_tbs(&kp, vec![]), &kp);
        let der = cert.to_der();
        // Patch version INTEGER 2 -> 1. The version TLV is at a fixed
        // offset: SEQ hdr, SEQ hdr, [0] hdr, INT(1 byte).
        let mut patched = der.clone();
        let pos = patched
            .windows(5)
            .position(|w| w == [0xa0, 0x03, 0x02, 0x01, 0x02])
            .unwrap();
        patched[pos + 4] = 0x01;
        assert!(Certificate::from_der(&patched).is_err());
    }
}
