//! OCSP requests (RFC 6960 §4.1.1).
//!
//! `OCSPRequest ::= SEQUENCE { tbsRequest TBSRequest }` (we omit the
//! optional request signature, which no web client sends).
//! `TBSRequest ::= SEQUENCE { requestList SEQUENCE OF Request,
//! requestExtensions [2] EXPLICIT Extensions OPTIONAL }` with
//! `Request ::= SEQUENCE { reqCert CertID }`.
//!
//! The study's measurement client sends these over HTTP POST, exactly as
//! the paper's methodology describes (§5.1 step 4).

use crate::certid::CertId;
use asn1::{Decoder, Encoder, Oid, Result};

/// An OCSP request: one or more CertIDs plus an optional nonce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcspRequest {
    /// The certificates whose status is being asked.
    pub cert_ids: Vec<CertId>,
    /// Optional nonce (RFC 6960 §4.4.1) for replay protection.
    pub nonce: Option<Vec<u8>>,
}

impl OcspRequest {
    /// A single-certificate request, the overwhelmingly common case.
    pub fn single(cert_id: CertId) -> OcspRequest {
        OcspRequest {
            cert_ids: vec![cert_id],
            nonce: None,
        }
    }

    /// Attach a nonce.
    pub fn with_nonce(mut self, nonce: Vec<u8>) -> OcspRequest {
        self.nonce = Some(nonce);
        self
    }

    /// Encode to DER.
    pub fn to_der(&self) -> Vec<u8> {
        // Room for the whole message: under 128 bytes per CertID, plus
        // the nonce extension's.
        let nonce_len = self.nonce.as_ref().map_or(0, |nonce| 32 + nonce.len());
        let mut enc = Encoder::with_capacity(16 + 128 * self.cert_ids.len() + nonce_len);
        enc.sequence(|enc| {
            // TBSRequest
            enc.sequence(|enc| {
                enc.sequence(|enc| {
                    for id in &self.cert_ids {
                        enc.sequence(|enc| id.encode(enc));
                    }
                });
                if let Some(nonce) = &self.nonce {
                    enc.explicit(2, |enc| {
                        enc.sequence(|enc| {
                            enc.sequence(|enc| {
                                enc.oid(&Oid::OCSP_NONCE);
                                enc.octet_string_nested(|enc| enc.octet_string(nonce));
                            });
                        });
                    });
                }
            });
        });
        enc.finish()
    }

    /// Decode from DER.
    pub fn from_der(der: &[u8]) -> Result<OcspRequest> {
        let mut dec = Decoder::new(der);
        let mut outer = dec.sequence()?;
        let mut tbs = outer.sequence()?;
        let mut list = tbs.sequence()?;
        let mut cert_ids = Vec::new();
        while !list.is_empty() {
            let mut req = list.sequence()?;
            cert_ids.push(CertId::decode(&mut req)?);
            req.finish()?;
        }
        let mut nonce = None;
        if let Some(mut exts_wrapper) = tbs.optional_explicit(2)? {
            let mut exts = exts_wrapper.sequence()?;
            while !exts.is_empty() {
                let mut ext = exts.sequence()?;
                let oid = ext.oid()?;
                let payload = ext.octet_string()?;
                ext.finish()?;
                if oid == Oid::OCSP_NONCE {
                    let mut inner = Decoder::new(payload);
                    nonce = Some(inner.octet_string()?.to_vec());
                    inner.finish()?;
                }
            }
            exts_wrapper.finish()?;
        }
        tbs.finish()?;
        outer.finish()?;
        dec.finish()?;
        Ok(OcspRequest { cert_ids, nonce })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pki::Serial;

    fn sample_id(serial: u64) -> CertId {
        CertId {
            issuer_name_hash: [0xaa; 32],
            issuer_key_hash: [0xbb; 32],
            serial: Serial::from_u64(serial),
        }
    }

    #[test]
    fn single_round_trip() {
        let req = OcspRequest::single(sample_id(42));
        let back = OcspRequest::from_der(&req.to_der()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn multi_cert_round_trip() {
        let req = OcspRequest {
            cert_ids: (0..5).map(sample_id).collect(),
            nonce: None,
        };
        let back = OcspRequest::from_der(&req.to_der()).unwrap();
        assert_eq!(back.cert_ids.len(), 5);
    }

    #[test]
    fn nonce_round_trip() {
        let req = OcspRequest::single(sample_id(7)).with_nonce(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let back = OcspRequest::from_der(&req.to_der()).unwrap();
        assert_eq!(back.nonce.as_deref(), Some(&[1u8, 2, 3, 4, 5, 6, 7, 8][..]));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(OcspRequest::from_der(b"GET / HTTP/1.1").is_err());
        assert!(OcspRequest::from_der(&[]).is_err());
    }
}
