//! OCSP responses (RFC 6960 §4.2.1).
//!
//! ```text
//! OCSPResponse ::= SEQUENCE {
//!    responseStatus  OCSPResponseStatus,
//!    responseBytes   [0] EXPLICIT ResponseBytes OPTIONAL }
//! ResponseBytes ::= SEQUENCE { responseType OID, response OCTET STRING }
//! BasicOCSPResponse ::= SEQUENCE {
//!    tbsResponseData ResponseData,
//!    signatureAlgorithm AlgorithmIdentifier,
//!    signature BIT STRING,
//!    certs [0] EXPLICIT SEQUENCE OF Certificate OPTIONAL }
//! ResponseData ::= SEQUENCE {
//!    responderID CHOICE { byName [1], byKey [2] },
//!    producedAt GeneralizedTime,
//!    responses SEQUENCE OF SingleResponse }
//! SingleResponse ::= SEQUENCE {
//!    certID CertID,
//!    certStatus CHOICE { good [0] NULL, revoked [1] RevokedInfo,
//!                        unknown [2] NULL },
//!    thisUpdate GeneralizedTime,
//!    nextUpdate [0] EXPLICIT GeneralizedTime OPTIONAL }
//! ```
//!
//! Every field the paper measures is here: `producedAt` (freshness study,
//! §5.4), `thisUpdate`/`nextUpdate` (validity-period CDF, Figures 8–9; a
//! *blank* `nextUpdate` means "newer information is always available"),
//! the `certs` list (superfluous-certificate CDF, Figure 6), and multiple
//! `SingleResponse`s (multi-serial CDF, Figure 7).

use crate::certid::CertId;
use asn1::{Decoder, Encoder, Error, Oid, Result, Tag, Time};
use pki::{Certificate, RevocationReason};
use simcrypto::KeyPair;

/// The outer OCSPResponseStatus (RFC 6960 §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseStatus {
    /// successful (0)
    Successful,
    /// malformedRequest (1)
    MalformedRequest,
    /// internalError (2)
    InternalError,
    /// tryLater (3) — the error §7.2's availability experiment feeds to
    /// web servers.
    TryLater,
    /// sigRequired (5)
    SigRequired,
    /// unauthorized (6)
    Unauthorized,
}

impl ResponseStatus {
    /// Wire code.
    pub fn code(self) -> i64 {
        match self {
            ResponseStatus::Successful => 0,
            ResponseStatus::MalformedRequest => 1,
            ResponseStatus::InternalError => 2,
            ResponseStatus::TryLater => 3,
            ResponseStatus::SigRequired => 5,
            ResponseStatus::Unauthorized => 6,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: i64) -> Result<ResponseStatus> {
        Ok(match code {
            0 => ResponseStatus::Successful,
            1 => ResponseStatus::MalformedRequest,
            2 => ResponseStatus::InternalError,
            3 => ResponseStatus::TryLater,
            5 => ResponseStatus::SigRequired,
            6 => ResponseStatus::Unauthorized,
            _ => return Err(Error::ValueOutOfRange),
        })
    }
}

/// A certificate's revocation status as OCSP reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertStatus {
    /// Not revoked. (Does **not** imply within its validity period — the
    /// paper's footnote 4.)
    Good,
    /// Revoked at `time`, optionally with a reason.
    Revoked {
        /// When the certificate was revoked.
        time: Time,
        /// Why, if the responder includes a reason (most do not — §5.4).
        reason: Option<RevocationReason>,
    },
    /// The responder does not know this certificate; clients are free to
    /// try another revocation source (§2.2).
    Unknown,
}

/// One certificate's entry in a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleResponse {
    /// Which certificate this entry is about.
    pub cert_id: CertId,
    /// Its status.
    pub status: CertStatus,
    /// Start of this entry's validity window.
    pub this_update: Time,
    /// End of the window; `None` ("blank") means newer information is
    /// always available and the response is technically always valid —
    /// the §5.4 cache-poisoning worry.
    pub next_update: Option<Time>,
}

/// The responderID CHOICE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponderId {
    /// byKey: SHA-256 of the responder's public key.
    ByKey([u8; 32]),
}

/// A parsed-and-signed basic OCSP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicResponse {
    /// Who produced the response.
    pub responder_id: ResponderId,
    /// When the responder generated this response (freshness study §5.4).
    pub produced_at: Time,
    /// The per-certificate entries (usually exactly one).
    pub responses: Vec<SingleResponse>,
    /// The exact signed bytes (ResponseData DER).
    pub tbs_der: Vec<u8>,
    /// Signature over `tbs_der`.
    pub signature: Vec<u8>,
    /// Accompanying certificates (delegated signer and/or superfluous
    /// chain padding — Figure 6 counts these).
    pub certs: Vec<Certificate>,
}

/// A complete OCSP response (outer envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcspResponse {
    /// The outer status.
    pub status: ResponseStatus,
    /// The signed payload, present only when `status == Successful`.
    pub basic: Option<BasicResponse>,
}

impl OcspResponse {
    /// Build an error response (no payload).
    pub fn error(status: ResponseStatus) -> OcspResponse {
        OcspResponse {
            status,
            basic: None,
        }
    }

    /// Build and sign a successful response.
    ///
    /// `signer` signs the ResponseData; `certs` ride along in the
    /// BasicOCSPResponse `certs` field.
    pub fn successful(
        responder_key: &KeyPair,
        produced_at: Time,
        responses: Vec<SingleResponse>,
        certs: Vec<Certificate>,
    ) -> OcspResponse {
        let responder_id = ResponderId::ByKey(responder_key.public().key_id());
        let tbs_der = encode_response_data(&responder_id, produced_at, &responses);
        let signature = responder_key.sign(&tbs_der);
        OcspResponse {
            status: ResponseStatus::Successful,
            basic: Some(BasicResponse {
                responder_id,
                produced_at,
                responses,
                tbs_der,
                signature,
                certs,
            }),
        }
    }

    /// Encode the full response to DER.
    pub fn to_der(&self) -> Vec<u8> {
        // Room for the whole message: the envelope's headers and OIDs
        // take under 64 bytes around the basic response's parts.
        let basic_len = self.basic.as_ref().map_or(0, |basic| {
            basic.tbs_der.len()
                + basic.signature.len()
                + basic
                    .certs
                    .iter()
                    .map(Certificate::der_len_bound)
                    .sum::<usize>()
        });
        let mut enc = Encoder::with_capacity(64 + basic_len);
        enc.sequence(|enc| {
            enc.enumerated(self.status.code());
            if let Some(basic) = &self.basic {
                enc.explicit(0, |enc| {
                    enc.sequence(|enc| {
                        enc.oid(&Oid::OCSP_BASIC);
                        enc.octet_string_nested(|enc| basic.encode(enc));
                    });
                });
            }
        });
        enc.finish()
    }

    /// Decode from DER. A status other than `successful` that still
    /// carries `responseBytes` is refused (`ValueOutOfRange`): RFC 6960
    /// §4.2.1 sends them only with `successful`.
    pub fn from_der(der: &[u8]) -> Result<OcspResponse> {
        let mut dec = Decoder::new(der);
        let mut outer = dec.sequence()?;
        let status = ResponseStatus::from_code(outer.enumerated()?)?;
        let mut basic = None;
        if let Some(mut wrapper) = outer.optional_explicit(0)? {
            if status != ResponseStatus::Successful {
                return Err(Error::ValueOutOfRange);
            }
            let mut rb = wrapper.sequence()?;
            let rtype = rb.oid()?;
            if rtype != Oid::OCSP_BASIC {
                return Err(Error::ValueOutOfRange);
            }
            let payload = rb.octet_string()?;
            rb.finish()?;
            wrapper.finish()?;
            let mut inner = Decoder::new(payload);
            basic = Some(BasicResponse::decode(&mut inner)?);
            inner.finish()?;
        }
        outer.finish()?;
        dec.finish()?;
        Ok(OcspResponse { status, basic })
    }
}

impl BasicResponse {
    fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.raw(&self.tbs_der);
            enc.sequence(|enc| {
                enc.oid(&Oid::SIM_RSA_SHA256);
                enc.null();
            });
            enc.bit_string(&self.signature);
            if !self.certs.is_empty() {
                enc.explicit(0, |enc| {
                    enc.sequence(|enc| {
                        for cert in &self.certs {
                            cert.encode(enc);
                        }
                    });
                });
            }
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<BasicResponse> {
        let mut seq = dec.sequence()?;
        let tbs_der = seq.raw_tlv()?.to_vec();
        let (responder_id, produced_at, responses) = decode_response_data(&tbs_der)?;
        let mut alg = seq.sequence()?;
        if alg.oid()? != Oid::SIM_RSA_SHA256 {
            return Err(Error::ValueOutOfRange);
        }
        alg.null()?;
        alg.finish()?;
        let signature = seq.bit_string()?.to_vec();
        let mut certs = Vec::new();
        if let Some(mut wrapper) = seq.optional_explicit(0)? {
            let mut list = wrapper.sequence()?;
            while !list.is_empty() {
                let raw = list.raw_tlv()?;
                certs.push(Certificate::from_der(raw)?);
            }
            wrapper.finish()?;
        }
        seq.finish()?;
        Ok(BasicResponse {
            responder_id,
            produced_at,
            responses,
            tbs_der,
            signature,
            certs,
        })
    }

    /// Verify the signature with a given public key.
    pub fn verify_signature(&self, key: &simcrypto::PublicKey) -> bool {
        key.verify(&self.tbs_der, &self.signature).is_ok()
    }
}

/// Encode ResponseData (the signed portion).
pub fn encode_response_data(
    responder_id: &ResponderId,
    produced_at: Time,
    responses: &[SingleResponse],
) -> Vec<u8> {
    // Room for the whole message: 55 bytes of responder id and
    // producedAt, and under 192 per single response (its CertID, status
    // and two times).
    let mut enc = Encoder::with_capacity(64 + 192 * responses.len());
    enc.sequence(|enc| {
        let ResponderId::ByKey(key_hash) = responder_id;
        enc.explicit(2, |enc| enc.octet_string(key_hash));
        enc.generalized_time(produced_at);
        enc.sequence(|enc| {
            for sr in responses {
                encode_single(enc, sr);
            }
        });
    });
    enc.finish()
}

fn encode_single(enc: &mut Encoder, sr: &SingleResponse) {
    enc.sequence(|enc| {
        sr.cert_id.encode(enc);
        match &sr.status {
            CertStatus::Good => enc.implicit_primitive(0, &[]),
            CertStatus::Revoked { time, reason } => {
                enc.implicit_constructed(1, |enc| {
                    enc.generalized_time(*time);
                    if let Some(reason) = reason {
                        enc.explicit(0, |enc| enc.enumerated(reason.code()));
                    }
                });
            }
            CertStatus::Unknown => enc.implicit_primitive(2, &[]),
        }
        enc.generalized_time(sr.this_update);
        if let Some(nu) = sr.next_update {
            enc.explicit(0, |enc| enc.generalized_time(nu));
        }
    });
}

type ResponseDataParts = (ResponderId, Time, Vec<SingleResponse>);

fn decode_response_data(tbs_der: &[u8]) -> Result<ResponseDataParts> {
    let mut dec = Decoder::new(tbs_der);
    let mut seq = dec.sequence()?;
    let mut by_key = seq.explicit(2)?;
    let key_hash: [u8; 32] = by_key
        .octet_string()?
        .try_into()
        .map_err(|_| Error::ValueOutOfRange)?;
    by_key.finish()?;
    let produced_at = seq.generalized_time()?;
    let mut list = seq.sequence()?;
    let mut responses = Vec::new();
    while !list.is_empty() {
        responses.push(decode_single(&mut list)?);
    }
    seq.finish()?;
    dec.finish()?;
    Ok((ResponderId::ByKey(key_hash), produced_at, responses))
}

fn decode_single(dec: &mut Decoder<'_>) -> Result<SingleResponse> {
    let mut seq = dec.sequence()?;
    let cert_id = CertId::decode(&mut seq)?;
    let status = match seq.peek_tag() {
        Some(t) if t == Tag::context_primitive(0) => {
            let content = seq.expect(Tag::context_primitive(0))?;
            if !content.is_empty() {
                return Err(Error::ValueOutOfRange);
            }
            CertStatus::Good
        }
        Some(t) if t == Tag::context(1) => {
            let mut info = seq.explicit(1)?;
            let time = info.generalized_time()?;
            let mut reason = None;
            if let Some(mut wrapper) = info.optional_explicit(0)? {
                reason = Some(
                    RevocationReason::from_code(wrapper.enumerated()?)
                        .map_err(|_| Error::ValueOutOfRange)?,
                );
                wrapper.finish()?;
            }
            info.finish()?;
            CertStatus::Revoked { time, reason }
        }
        Some(t) if t == Tag::context_primitive(2) => {
            seq.expect(Tag::context_primitive(2))?;
            CertStatus::Unknown
        }
        Some(found) => {
            return Err(Error::UnexpectedTag {
                expected: 0x80,
                found: found.0,
            });
        }
        None => return Err(Error::Truncated),
    };
    let this_update = seq.generalized_time()?;
    let next_update = match seq.optional_explicit(0)? {
        Some(mut wrapper) => {
            let nu = wrapper.generalized_time()?;
            wrapper.finish()?;
            Some(nu)
        }
        None => None,
    };
    seq.finish()?;
    Ok(SingleResponse {
        cert_id,
        status,
        this_update,
        next_update,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pki::Serial;
    use rand::{rngs::StdRng, SeedableRng};

    fn t(h: u8) -> Time {
        Time::from_civil(2018, 5, 1, h, 0, 0)
    }

    fn key() -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(5), 384)
    }

    fn sample_id(serial: u64) -> CertId {
        CertId {
            issuer_name_hash: [0x11; 32],
            issuer_key_hash: [0x22; 32],
            serial: Serial::from_u64(serial),
        }
    }

    fn single(serial: u64, status: CertStatus) -> SingleResponse {
        SingleResponse {
            cert_id: sample_id(serial),
            status,
            this_update: t(0),
            next_update: Some(t(12)),
        }
    }

    #[test]
    fn good_response_round_trip_and_verify() {
        let kp = key();
        let resp = OcspResponse::successful(&kp, t(1), vec![single(7, CertStatus::Good)], vec![]);
        let der = resp.to_der();
        let back = OcspResponse::from_der(&der).unwrap();
        assert_eq!(back, resp);
        let basic = back.basic.unwrap();
        assert!(basic.verify_signature(kp.public()));
        assert_eq!(basic.responses[0].status, CertStatus::Good);
        assert_eq!(basic.produced_at, t(1));
    }

    #[test]
    fn revoked_with_reason_round_trip() {
        let kp = key();
        let status = CertStatus::Revoked {
            time: t(3),
            reason: Some(RevocationReason::KeyCompromise),
        };
        let resp = OcspResponse::successful(&kp, t(4), vec![single(8, status.clone())], vec![]);
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        assert_eq!(back.basic.unwrap().responses[0].status, status);
    }

    #[test]
    fn revoked_without_reason_round_trip() {
        let kp = key();
        let status = CertStatus::Revoked {
            time: t(3),
            reason: None,
        };
        let resp = OcspResponse::successful(&kp, t(4), vec![single(8, status.clone())], vec![]);
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        assert_eq!(back.basic.unwrap().responses[0].status, status);
    }

    #[test]
    fn unknown_status_round_trip() {
        let kp = key();
        let resp =
            OcspResponse::successful(&kp, t(4), vec![single(9, CertStatus::Unknown)], vec![]);
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        assert_eq!(back.basic.unwrap().responses[0].status, CertStatus::Unknown);
    }

    #[test]
    fn blank_next_update_round_trip() {
        let kp = key();
        let mut sr = single(10, CertStatus::Good);
        sr.next_update = None;
        let resp = OcspResponse::successful(&kp, t(4), vec![sr], vec![]);
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        assert_eq!(back.basic.unwrap().responses[0].next_update, None);
    }

    #[test]
    fn multi_serial_response() {
        // 3.3% of responders in the paper always return 20 serials.
        let kp = key();
        let singles: Vec<_> = (0..20).map(|i| single(i, CertStatus::Good)).collect();
        let resp = OcspResponse::successful(&kp, t(4), singles, vec![]);
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        assert_eq!(back.basic.unwrap().responses.len(), 20);
    }

    #[test]
    fn error_statuses_have_no_payload() {
        for status in [
            ResponseStatus::MalformedRequest,
            ResponseStatus::InternalError,
            ResponseStatus::TryLater,
            ResponseStatus::SigRequired,
            ResponseStatus::Unauthorized,
        ] {
            let resp = OcspResponse::error(status);
            let back = OcspResponse::from_der(&resp.to_der()).unwrap();
            assert_eq!(back.status, status);
            assert!(back.basic.is_none());
        }
    }

    /// RFC 6960 §4.2.1 sends `responseBytes` only with `successful`: an
    /// error status that still carries a signed basic response is
    /// refused, not read as that error status.
    #[test]
    fn error_status_with_response_bytes_is_refused() {
        let kp = key();
        let signed = OcspResponse::successful(&kp, t(1), vec![single(7, CertStatus::Good)], vec![]);
        for status in [
            ResponseStatus::MalformedRequest,
            ResponseStatus::InternalError,
            ResponseStatus::TryLater,
            ResponseStatus::SigRequired,
            ResponseStatus::Unauthorized,
        ] {
            let forged = OcspResponse {
                status,
                basic: signed.basic.clone(),
            };
            assert_eq!(
                OcspResponse::from_der(&forged.to_der()),
                Err(Error::ValueOutOfRange),
                "{status:?}"
            );
        }
    }

    #[test]
    fn certs_ride_along() {
        use pki::{CertificateAuthority, IssueParams};
        let mut rng = StdRng::seed_from_u64(9);
        let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "R", "ca.test", t(0));
        let leaf = ca.issue(&mut rng, &IssueParams::new("x.example", t(0)));
        let kp = key();
        let resp = OcspResponse::successful(
            &kp,
            t(4),
            vec![single(11, CertStatus::Good)],
            vec![leaf.clone(), ca.certificate().clone()],
        );
        let back = OcspResponse::from_der(&resp.to_der()).unwrap();
        let basic = back.basic.unwrap();
        assert_eq!(basic.certs.len(), 2);
        assert_eq!(basic.certs[0], leaf);
    }

    #[test]
    fn paper_observed_garbage_is_unparseable() {
        // §5.3: responders returning "0", empty bodies, or JavaScript.
        assert!(OcspResponse::from_der(b"0").is_err());
        assert!(OcspResponse::from_der(b"").is_err());
        assert!(OcspResponse::from_der(b"<html><script>var x=1;</script></html>").is_err());
    }

    #[test]
    fn tampered_signature_detected() {
        let kp = key();
        let resp = OcspResponse::successful(&kp, t(1), vec![single(7, CertStatus::Good)], vec![]);
        let mut basic = resp.basic.clone().unwrap();
        basic.signature[3] ^= 0x10;
        assert!(!basic.verify_signature(kp.public()));
    }

    #[test]
    fn status_codes_round_trip() {
        for code in [0i64, 1, 2, 3, 5, 6] {
            assert_eq!(ResponseStatus::from_code(code).unwrap().code(), code);
        }
        assert!(ResponseStatus::from_code(4).is_err());
        assert!(ResponseStatus::from_code(7).is_err());
    }
}
