//! A certificate authority engine.
//!
//! [`CertificateAuthority`] issues roots, intermediates, leaves, and
//! delegated OCSP-signer certificates, and maintains the revocation
//! database behind the CA's CRL and OCSP responder.
//!
//! The revocation database deliberately keeps **two views** — one feeding
//! the CRL, one feeding OCSP — because §5.4 of the paper found real CAs
//! whose views disagree (Table 1): responders answering `Good` or
//! `Unknown` for CRL-revoked serials, and `ocsp.msocsp.com` reporting
//! revocation times 7 hours to 9 days behind the CRL. Quovadis and
//! Camerfirma confirmed to the authors that they run *two separate
//! databases*; this type models exactly that architecture.

use crate::cert::{Certificate, TbsCertificate, Validity};
use crate::crl::{Crl, RevocationReason, RevokedEntry};
use crate::extensions::{
    AuthorityInfoAccess, BasicConstraints, CrlDistributionPoints, ExtendedKeyUsage, KeyUsage,
    SubjectAltName, TlsFeature,
};
use crate::name::Name;
use crate::serial::Serial;
use asn1::Time;
use rand::Rng;
use simcrypto::KeyPair;
use std::collections::{BTreeMap, BTreeSet};

/// A record in one of the CA's revocation views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationRecord {
    /// The revocation time as this view reports it.
    pub time: Time,
    /// The reason as this view reports it (`None` = no reason code).
    pub reason: Option<RevocationReason>,
}

/// Parameters for issuing a leaf certificate.
#[derive(Debug, Clone)]
pub struct IssueParams {
    /// Primary domain (becomes the CN and first SAN entry).
    pub domain: String,
    /// Additional SAN DNS names ("cruise-liner" certificates carry many).
    pub extra_dns_names: Vec<String>,
    /// Validity window.
    pub validity: Validity,
    /// Include the OCSP Must-Staple (TLS Feature) extension.
    pub must_staple: bool,
    /// Include the CA's OCSP URL in an AIA extension.
    pub with_ocsp_url: bool,
    /// Include the CA's CRL URL in a CRL Distribution Points extension.
    /// (Let's Encrypt famously supports OCSP only — no CRL.)
    pub with_crl_url: bool,
}

impl IssueParams {
    /// Sensible defaults: 90-day validity from `now`, OCSP + CRL,
    /// no Must-Staple.
    pub fn new(domain: &str, now: Time) -> IssueParams {
        IssueParams {
            domain: domain.to_string(),
            extra_dns_names: Vec::new(),
            validity: Validity {
                not_before: now,
                not_after: now + 90 * 86_400,
            },
            must_staple: false,
            with_ocsp_url: true,
            with_crl_url: true,
        }
    }

    /// Toggle Must-Staple.
    pub fn must_staple(mut self, yes: bool) -> IssueParams {
        self.must_staple = yes;
        self
    }

    /// Replace the validity window.
    pub fn valid_for(mut self, days: i64) -> IssueParams {
        self.validity.not_after = self.validity.not_before + days * 86_400;
        self
    }

    /// Drop the CRL Distribution Points extension (OCSP-only CAs).
    pub fn without_crl(mut self) -> IssueParams {
        self.with_crl_url = false;
        self
    }

    /// Add SAN names.
    pub fn with_sans(mut self, names: &[&str]) -> IssueParams {
        self.extra_dns_names
            .extend(names.iter().map(|s| s.to_string()));
        self
    }
}

/// A certificate authority: key material, its own certificate, and the
/// issuance/revocation machinery.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    name: Name,
    keypair: KeyPair,
    certificate: Certificate,
    ocsp_url: String,
    crl_url: String,
    /// Shared subject key for issued leaves. Real leaf keys are unique,
    /// but none of the study's measurements depend on leaf-key
    /// uniqueness, and generating one RSA key per simulated certificate
    /// would dominate runtime. CA keys *are* unique.
    leaf_key: KeyPair,
    issued: BTreeMap<Serial, Validity>,
    crl_view: BTreeMap<Serial, RevocationRecord>,
    ocsp_view: BTreeMap<Serial, RevocationRecord>,
    /// Serials the *OCSP database* rejected or lost — the responder
    /// answers `Unknown` for these even though the CA issued (and may
    /// have CRL-revoked) them. Quovadis told the paper's authors exactly
    /// this happens ("rejected upon insertion into the OCSP database due
    /// to max character size"); GlobalSign's gsalphasha2g2 responder
    /// answered Unknown for all 5,375 CRL-revoked serials (Table 1).
    ocsp_unknown: BTreeSet<Serial>,
}

impl CertificateAuthority {
    /// Create a self-signed root CA. `slug` seeds the default OCSP/CRL
    /// URLs (`http://ocsp.<slug>/`, `http://crl.<slug>/latest.crl`).
    pub fn new_root(rng: &mut impl Rng, org: &str, cn: &str, slug: &str, now: Time) -> Self {
        let keypair = KeyPair::generate_default(rng);
        let leaf_key = KeyPair::generate_default(rng);
        let name = Name::ca(org, cn);
        let tbs = TbsCertificate {
            serial: Serial::random(rng),
            issuer: name.clone(),
            subject: name.clone(),
            validity: Validity {
                not_before: now - 86_400,
                not_after: now + 20 * 365 * 86_400,
            },
            public_key: keypair.public().clone(),
            extensions: vec![
                BasicConstraints {
                    ca: true,
                    path_len: None,
                }
                .to_extension(),
                KeyUsage::KEY_CERT_SIGN
                    .union(KeyUsage::CRL_SIGN)
                    .to_extension(),
            ],
        };
        let sig = keypair.sign(&tbs.to_der());
        let certificate = Certificate::assemble(tbs, sig);
        CertificateAuthority {
            name,
            keypair,
            certificate,
            ocsp_url: format!("http://ocsp.{slug}/"),
            crl_url: format!("http://crl.{slug}/latest.crl"),
            leaf_key,
            issued: BTreeMap::new(),
            crl_view: BTreeMap::new(),
            ocsp_view: BTreeMap::new(),
            ocsp_unknown: BTreeSet::new(),
        }
    }

    /// Issue an intermediate CA under this one.
    pub fn issue_intermediate(
        &mut self,
        rng: &mut impl Rng,
        org: &str,
        cn: &str,
        slug: &str,
        now: Time,
    ) -> CertificateAuthority {
        let keypair = KeyPair::generate_default(rng);
        let leaf_key = KeyPair::generate_default(rng);
        let name = Name::ca(org, cn);
        let serial = Serial::random(rng);
        let validity = Validity {
            not_before: now - 86_400,
            not_after: now + 10 * 365 * 86_400,
        };
        let tbs = TbsCertificate {
            serial: serial.clone(),
            issuer: self.name.clone(),
            subject: name.clone(),
            validity,
            public_key: keypair.public().clone(),
            extensions: vec![
                BasicConstraints {
                    ca: true,
                    path_len: Some(0),
                }
                .to_extension(),
                KeyUsage::KEY_CERT_SIGN
                    .union(KeyUsage::CRL_SIGN)
                    .to_extension(),
                AuthorityInfoAccess {
                    ocsp: vec![self.ocsp_url.clone()],
                    ca_issuers: vec![],
                }
                .to_extension(),
            ],
        };
        let sig = self.keypair.sign(&tbs.to_der());
        let certificate = Certificate::assemble(tbs, sig);
        self.issued.insert(serial, validity);
        CertificateAuthority {
            name,
            keypair,
            certificate,
            ocsp_url: format!("http://ocsp.{slug}/"),
            crl_url: format!("http://crl.{slug}/latest.crl"),
            leaf_key,
            issued: BTreeMap::new(),
            crl_view: BTreeMap::new(),
            ocsp_view: BTreeMap::new(),
            ocsp_unknown: BTreeSet::new(),
        }
    }

    /// Issue a leaf certificate.
    pub fn issue(&mut self, rng: &mut impl Rng, params: &IssueParams) -> Certificate {
        let serial = Serial::random(rng);
        let mut extensions = vec![
            BasicConstraints {
                ca: false,
                path_len: None,
            }
            .to_extension(),
            KeyUsage::DIGITAL_SIGNATURE
                .union(KeyUsage::KEY_ENCIPHERMENT)
                .to_extension(),
        ];
        let mut dns = vec![params.domain.clone()];
        dns.extend(params.extra_dns_names.iter().cloned());
        extensions.push(SubjectAltName { dns_names: dns }.to_extension());
        if params.with_ocsp_url {
            extensions.push(
                AuthorityInfoAccess {
                    ocsp: vec![self.ocsp_url.clone()],
                    ca_issuers: vec![],
                }
                .to_extension(),
            );
        }
        if params.with_crl_url {
            extensions.push(
                CrlDistributionPoints {
                    urls: vec![self.crl_url.clone()],
                }
                .to_extension(),
            );
        }
        if params.must_staple {
            extensions.push(TlsFeature::must_staple().to_extension());
        }
        let tbs = TbsCertificate {
            serial: serial.clone(),
            issuer: self.name.clone(),
            subject: Name::common_name(&params.domain),
            validity: params.validity,
            public_key: self.leaf_key.public().clone(),
            extensions,
        };
        let sig = self.keypair.sign(&tbs.to_der());
        self.issued.insert(serial, params.validity);
        Certificate::assemble(tbs, sig)
    }

    /// Issue a delegated OCSP-signer certificate (EKU `id-kp-OCSPSigning`),
    /// returning the certificate and its key pair.
    pub fn issue_ocsp_signer(&mut self, rng: &mut impl Rng, now: Time) -> (Certificate, KeyPair) {
        let keypair = KeyPair::generate_default(rng);
        let serial = Serial::random(rng);
        let validity = Validity {
            not_before: now - 3_600,
            not_after: now + 365 * 86_400,
        };
        let tbs = TbsCertificate {
            serial: serial.clone(),
            issuer: self.name.clone(),
            subject: Name::ca(self.name.cn().unwrap_or("CA"), "OCSP Signer"),
            validity,
            public_key: keypair.public().clone(),
            extensions: vec![
                BasicConstraints {
                    ca: false,
                    path_len: None,
                }
                .to_extension(),
                KeyUsage::DIGITAL_SIGNATURE.to_extension(),
                ExtendedKeyUsage::ocsp_signing().to_extension(),
            ],
        };
        let sig = self.keypair.sign(&tbs.to_der());
        self.issued.insert(serial, validity);
        (Certificate::assemble(tbs, sig), keypair)
    }

    // --- Revocation ---------------------------------------------------------

    /// Revoke in both views simultaneously (the healthy-CA path).
    pub fn revoke(&mut self, serial: &Serial, time: Time, reason: Option<RevocationReason>) {
        let record = RevocationRecord { time, reason };
        self.crl_view.insert(serial.clone(), record.clone());
        self.ocsp_view.insert(serial.clone(), record);
    }

    /// Revoke in both views, but strip the reason code from the OCSP view —
    /// the paper found 99.99 % of reason-code discrepancies are "CRL has a
    /// code, OCSP has none".
    pub fn revoke_reason_in_crl_only(
        &mut self,
        serial: &Serial,
        time: Time,
        reason: RevocationReason,
    ) {
        self.crl_view.insert(
            serial.clone(),
            RevocationRecord {
                time,
                reason: Some(reason),
            },
        );
        self.ocsp_view
            .insert(serial.clone(), RevocationRecord { time, reason: None });
    }

    /// Revoke in the CRL view only — the Table 1 failure mode where OCSP
    /// keeps answering `Good` (or `Unknown`) for a CRL-revoked serial.
    pub fn revoke_crl_only(
        &mut self,
        serial: &Serial,
        time: Time,
        reason: Option<RevocationReason>,
    ) {
        self.crl_view
            .insert(serial.clone(), RevocationRecord { time, reason });
    }

    /// Revoke in both views with the OCSP view's *time* lagging by
    /// `ocsp_lag` seconds — the `ocsp.msocsp.com` behavior (7 h–9 d lag).
    pub fn revoke_with_ocsp_lag(
        &mut self,
        serial: &Serial,
        time: Time,
        reason: Option<RevocationReason>,
        ocsp_lag: i64,
    ) {
        self.crl_view
            .insert(serial.clone(), RevocationRecord { time, reason });
        self.ocsp_view.insert(
            serial.clone(),
            RevocationRecord {
                time: time + ocsp_lag,
                reason,
            },
        );
    }

    /// Write both views directly — the general form behind the scripted
    /// helpers. `None` for a view means "not revoked there".
    pub fn revoke_detailed(
        &mut self,
        serial: &Serial,
        crl: Option<RevocationRecord>,
        ocsp: Option<RevocationRecord>,
    ) {
        match crl {
            Some(rec) => {
                self.crl_view.insert(serial.clone(), rec);
            }
            None => {
                self.crl_view.remove(serial);
            }
        }
        match ocsp {
            Some(rec) => {
                self.ocsp_view.insert(serial.clone(), rec);
            }
            None => {
                self.ocsp_view.remove(serial);
            }
        }
    }

    /// The OCSP view of a serial's status. `None` = not revoked there.
    pub fn ocsp_revocation(&self, serial: &Serial) -> Option<&RevocationRecord> {
        self.ocsp_view.get(serial)
    }

    /// The CRL view of a serial's status.
    pub fn crl_revocation(&self, serial: &Serial) -> Option<&RevocationRecord> {
        self.crl_view.get(serial)
    }

    /// Whether this CA issued `serial`.
    pub fn knows_serial(&self, serial: &Serial) -> bool {
        self.issued.contains_key(serial)
    }

    /// Drop `serial` from the OCSP database only: the responder will
    /// answer `Unknown` (and never `Revoked`) for it, while the CRL view
    /// is untouched — the Table 1 `gsalphasha2g2`/`firmaprofesional`
    /// failure mode.
    pub fn mark_ocsp_unknown(&mut self, serial: &Serial) {
        self.ocsp_unknown.insert(serial.clone());
        self.ocsp_view.remove(serial);
    }

    /// Whether the OCSP database knows `serial` (issued and not lost).
    pub fn ocsp_knows(&self, serial: &Serial) -> bool {
        self.issued.contains_key(serial) && !self.ocsp_unknown.contains(serial)
    }

    /// Number of certificates issued by this CA.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }

    /// Generate and sign a CRL from the CRL view. Entries whose
    /// certificates have expired before `now` are dropped, as the paper
    /// notes CAs do to keep CRLs small (its footnote 3).
    pub fn generate_crl(&self, this_update: Time, next_update: Option<Time>) -> Crl {
        let entries = self
            .crl_view
            .iter()
            .filter(|(serial, _)| {
                self.issued
                    .get(*serial)
                    .is_none_or(|validity| validity.not_after >= this_update)
            })
            .map(|(serial, record)| RevokedEntry {
                serial: serial.clone(),
                revocation_time: record.time,
                reason: record.reason,
            })
            .collect();
        Crl::build(
            self.name.clone(),
            this_update,
            next_update,
            entries,
            &self.keypair,
        )
    }

    // --- Accessors ----------------------------------------------------------

    /// The CA's distinguished name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The CA's own certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// The CA's signing key pair.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// Default OCSP responder URL baked into issued certificates.
    pub fn ocsp_url(&self) -> &str {
        &self.ocsp_url
    }

    /// Default CRL URL baked into issued certificates.
    pub fn crl_url(&self) -> &str {
        &self.crl_url
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn now() -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0)
    }

    fn root() -> CertificateAuthority {
        let mut rng = StdRng::seed_from_u64(100);
        CertificateAuthority::new_root(
            &mut rng,
            "Example Trust",
            "Example Root R1",
            "example-ca.test",
            now(),
        )
    }

    #[test]
    fn root_is_self_signed_ca() {
        let ca = root();
        assert!(ca.certificate().is_self_signed());
        assert!(ca.certificate().is_ca());
    }

    #[test]
    fn issued_leaf_chains_to_root() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(200);
        let leaf = ca.issue(
            &mut rng,
            &IssueParams::new("www.example.com", now()).must_staple(true),
        );
        assert!(leaf.verify_signature(ca.certificate().public_key()));
        assert!(leaf.has_must_staple());
        assert_eq!(leaf.ocsp_urls(), vec![ca.ocsp_url().to_string()]);
        assert_eq!(leaf.crl_urls(), vec![ca.crl_url().to_string()]);
        assert!(leaf.covers_host("www.example.com"));
        assert!(ca.knows_serial(leaf.serial()));
        // DER round-trip survives.
        let back = Certificate::from_der(&leaf.to_der()).unwrap();
        assert!(back.verify_signature(ca.certificate().public_key()));
    }

    #[test]
    fn ocsp_only_issuance_omits_crl() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(201);
        let leaf = ca.issue(
            &mut rng,
            &IssueParams::new("le-style.example", now()).without_crl(),
        );
        assert!(leaf.crl_urls().is_empty());
        assert!(!leaf.ocsp_urls().is_empty());
    }

    #[test]
    fn intermediate_chain() {
        let mut rootca = root();
        let mut rng = StdRng::seed_from_u64(202);
        let mut inter = rootca.issue_intermediate(
            &mut rng,
            "Example Trust",
            "Example CA A1",
            "a1.example-ca.test",
            now(),
        );
        let leaf = inter.issue(&mut rng, &IssueParams::new("site.example", now()));
        assert!(inter
            .certificate()
            .verify_signature(rootca.certificate().public_key()));
        assert!(leaf.verify_signature(inter.certificate().public_key()));
        assert!(!leaf.verify_signature(rootca.certificate().public_key()));
    }

    #[test]
    fn revocation_views_agree_by_default() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(203);
        let leaf = ca.issue(&mut rng, &IssueParams::new("r.example", now()));
        ca.revoke(
            leaf.serial(),
            now() + 10,
            Some(RevocationReason::KeyCompromise),
        );
        let crl_rec = ca.crl_revocation(leaf.serial()).unwrap();
        let ocsp_rec = ca.ocsp_revocation(leaf.serial()).unwrap();
        assert_eq!(crl_rec, ocsp_rec);
        let crl = ca.generate_crl(now() + 20, Some(now() + 20 + 7 * 86_400));
        assert!(crl.is_revoked(leaf.serial()));
        assert!(crl.verify_signature(ca.certificate().public_key()));
    }

    #[test]
    fn crl_only_revocation_diverges() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(204);
        let leaf = ca.issue(&mut rng, &IssueParams::new("tbl1.example", now()));
        ca.revoke_crl_only(leaf.serial(), now(), None);
        assert!(ca.crl_revocation(leaf.serial()).is_some());
        assert!(ca.ocsp_revocation(leaf.serial()).is_none());
    }

    #[test]
    fn ocsp_lag_shifts_time_only() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(205);
        let leaf = ca.issue(&mut rng, &IssueParams::new("lag.example", now()));
        let lag = 9 * 86_400;
        ca.revoke_with_ocsp_lag(leaf.serial(), now(), None, lag);
        let crl_t = ca.crl_revocation(leaf.serial()).unwrap().time;
        let ocsp_t = ca.ocsp_revocation(leaf.serial()).unwrap().time;
        assert_eq!(ocsp_t - crl_t, lag);
    }

    #[test]
    fn reason_stripped_from_ocsp_view() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(206);
        let leaf = ca.issue(&mut rng, &IssueParams::new("reason.example", now()));
        ca.revoke_reason_in_crl_only(leaf.serial(), now(), RevocationReason::Superseded);
        assert_eq!(
            ca.crl_revocation(leaf.serial()).unwrap().reason,
            Some(RevocationReason::Superseded)
        );
        assert_eq!(ca.ocsp_revocation(leaf.serial()).unwrap().reason, None);
    }

    #[test]
    fn expired_certs_drop_out_of_crl() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(207);
        let leaf = ca.issue(
            &mut rng,
            &IssueParams::new("exp.example", now()).valid_for(10),
        );
        ca.revoke(leaf.serial(), now() + 5 * 86_400, None);
        // Before expiry: present.
        let crl = ca.generate_crl(now() + 6 * 86_400, None);
        assert!(crl.is_revoked(leaf.serial()));
        // After expiry: dropped.
        let crl = ca.generate_crl(now() + 30 * 86_400, None);
        assert!(!crl.is_revoked(leaf.serial()));
    }

    #[test]
    fn ocsp_signer_is_delegated() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(208);
        let (signer_cert, signer_key) = ca.issue_ocsp_signer(&mut rng, now());
        assert!(signer_cert.allows_ocsp_signing());
        assert!(signer_cert.verify_signature(ca.certificate().public_key()));
        assert_eq!(signer_cert.public_key(), signer_key.public());
    }

    #[test]
    fn cruise_liner_certificate() {
        let mut ca = root();
        let mut rng = StdRng::seed_from_u64(209);
        let params = IssueParams::new("shared.example", now()).with_sans(&[
            "a.example",
            "b.example",
            "c.example",
        ]);
        let leaf = ca.issue(&mut rng, &params);
        assert_eq!(leaf.dns_names().len(), 4);
        assert!(leaf.covers_host("b.example"));
    }
}
