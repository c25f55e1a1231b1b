//! CertID — how OCSP names a certificate (RFC 6960 §4.1.1).
//!
//! `CertID ::= SEQUENCE { hashAlgorithm, issuerNameHash OCTET STRING,
//! issuerKeyHash OCTET STRING, serialNumber INTEGER }`. The issuer hashes
//! let the responder verify it actually issued the certificate before
//! answering (the paper's §2.2).

use asn1::{Decoder, Encoder, Error, Oid, Result};
use pki::{Certificate, Serial};

/// An OCSP certificate identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CertId {
    /// SHA-256 of the issuer's DER-encoded distinguished name.
    pub issuer_name_hash: [u8; 32],
    /// SHA-256 of the issuer's public key material.
    pub issuer_key_hash: [u8; 32],
    /// The certificate's serial number.
    pub serial: Serial,
}

impl CertId {
    /// Build the CertID for `cert`, issued by `issuer`.
    pub fn for_certificate(cert: &Certificate, issuer: &Certificate) -> CertId {
        CertId::for_serial(cert.serial().clone(), issuer)
    }

    /// The CertID naming `serial` under `issuer`.
    pub fn for_serial(serial: Serial, issuer: &Certificate) -> CertId {
        CertId {
            issuer_name_hash: issuer.subject_name_hash(),
            issuer_key_hash: issuer.public_key().key_id(),
            serial,
        }
    }

    /// Whether this CertID's issuer hashes match `issuer`. Both hashes
    /// are memoized on `issuer`, so a long-lived issuer pays for them
    /// once.
    pub fn matches_issuer(&self, issuer: &Certificate) -> bool {
        self.issuer_name_hash == issuer.subject_name_hash()
            && self.issuer_key_hash == issuer.public_key().key_id()
    }

    /// Encode into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.sequence(|enc| {
                enc.oid(&Oid::SHA256);
                enc.null();
            });
            enc.octet_string(&self.issuer_name_hash);
            enc.octet_string(&self.issuer_key_hash);
            self.serial.encode(enc);
        });
    }

    /// Decode from `dec`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<CertId> {
        let mut seq = dec.sequence()?;
        let mut alg = seq.sequence()?;
        let oid = alg.oid()?;
        if oid != Oid::SHA256 {
            return Err(Error::ValueOutOfRange);
        }
        alg.null()?;
        alg.finish()?;
        let name_hash = seq.octet_string()?;
        let key_hash = seq.octet_string()?;
        let serial = Serial::decode(&mut seq)?;
        seq.finish()?;
        let issuer_name_hash: [u8; 32] =
            name_hash.try_into().map_err(|_| Error::ValueOutOfRange)?;
        let issuer_key_hash: [u8; 32] = key_hash.try_into().map_err(|_| Error::ValueOutOfRange)?;
        Ok(CertId {
            issuer_name_hash,
            issuer_key_hash,
            serial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asn1::Time;
    use pki::{CertificateAuthority, IssueParams};
    use rand::{rngs::StdRng, SeedableRng};

    fn now() -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0)
    }

    #[test]
    fn build_match_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now());
        let mut other =
            CertificateAuthority::new_root(&mut rng, "Other", "Other Root", "o.test", now());
        let leaf = ca.issue(&mut rng, &IssueParams::new("x.example", now()));

        let id = CertId::for_certificate(&leaf, ca.certificate());
        assert!(id.matches_issuer(ca.certificate()));
        assert!(!id.matches_issuer(other.certificate()));
        assert_eq!(&id.serial, leaf.serial());

        let mut enc = Encoder::new();
        id.encode(&mut enc);
        let der = enc.finish();
        let mut dec = Decoder::new(&der);
        let back = CertId::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, id);

        // keep `other` alive so its issue() side effects don't warn
        let _ = other.issue(&mut rng, &IssueParams::new("y.example", now()));
    }

    #[test]
    fn rejects_wrong_hash_sizes() {
        let mut enc = Encoder::new();
        enc.sequence(|enc| {
            enc.sequence(|enc| {
                enc.oid(&Oid::SHA256);
                enc.null();
            });
            enc.octet_string(&[0u8; 16]); // wrong length
            enc.octet_string(&[0u8; 32]);
            enc.integer_i64(5);
        });
        let der = enc.finish();
        let mut dec = Decoder::new(&der);
        assert!(CertId::decode(&mut dec).is_err());
    }

    #[test]
    fn rejects_unknown_hash_algorithm() {
        let mut enc = Encoder::new();
        enc.sequence(|enc| {
            enc.sequence(|enc| {
                enc.oid(&Oid::SIM_RSA_SHA256); // not a digest OID
                enc.null();
            });
            enc.octet_string(&[0u8; 32]);
            enc.octet_string(&[0u8; 32]);
            enc.integer_i64(5);
        });
        let der = enc.finish();
        let mut dec = Decoder::new(&der);
        assert!(CertId::decode(&mut dec).is_err());
    }
}
