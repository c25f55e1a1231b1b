//! The OCSP responder engine.
//!
//! A [`Responder`] answers [`OcspRequest`]s for one CA, with behavior
//! governed by a [`ResponderProfile`]. It supports direct signing (with
//! the CA key) and delegated signing (RFC 6960 §4.2.2.2, an
//! `id-kp-OCSPSigning` certificate included in the response — "OCSP
//! Signature Authority Delegation" in the paper's §2.2).

use crate::certid::CertId;
use crate::profile::{GenerationMode, MalformMode, ResponderProfile};
use crate::request::OcspRequest;
use crate::response::{CertStatus, OcspResponse, ResponseStatus, SingleResponse};
use asn1::Time;
use pki::{Certificate, CertificateAuthority, Serial};
use simcrypto::KeyPair;
use std::collections::HashMap;
use telemetry::catalog;

/// Who signs the responses.
#[derive(Debug, Clone)]
pub enum SignerRole {
    /// The CA key signs directly.
    Direct,
    /// A delegated signer certificate; included in responses so clients
    /// can verify.
    Delegated {
        /// The delegated certificate (must carry `id-kp-OCSPSigning`).
        /// Boxed: a certificate plus key dwarfs the `Direct` variant.
        cert: Box<Certificate>,
        /// Its private key.
        key: Box<KeyPair>,
    },
}

/// A cache entry for pre-generated responses: the boundary at which the
/// current window's response was generated.
#[derive(Debug, Clone)]
struct CachedWindow {
    /// Kept for observability (`Responder::window_of`).
    generated_at: Time,
}

/// Key for the signed-response cache: (serial bytes, window boundary,
/// instance index, signer-role tag). Pre-generated responders use the
/// interval boundary; on-demand responders use the request second, so a
/// cache hit can only repeat bytes that are identical by construction.
type ResponseCacheKey = (Vec<u8>, i64, usize, u8);

/// An OCSP responder bound to one CA.
#[derive(Debug, Clone)]
pub struct Responder {
    url: String,
    profile: ResponderProfile,
    signer: SignerRole,
    /// Last pre-generation boundary per serial (pre-generated mode).
    windows: HashMap<Serial, CachedWindow>,
    /// Signed responses for the healthy path. Any healthy single-serial
    /// request signs once per (serial, window, instance, role) and
    /// serves the cached bytes — matching real deployments and keeping
    /// large scan campaigns cheap. Fault profiles (malformed bodies,
    /// wrong serial, corrupted signatures) bypass the cache entirely.
    response_cache: HashMap<ResponseCacheKey, Vec<u8>>,
}

impl Responder {
    /// Create a responder signing directly with the CA key.
    pub fn new(url: &str, profile: ResponderProfile) -> Responder {
        Responder {
            url: url.to_string(),
            profile,
            signer: SignerRole::Direct,
            windows: HashMap::new(),
            response_cache: HashMap::new(),
        }
    }

    /// Create a responder with a delegated signer.
    pub fn with_delegated_signer(
        url: &str,
        profile: ResponderProfile,
        cert: Certificate,
        key: KeyPair,
    ) -> Responder {
        Responder {
            url: url.to_string(),
            profile,
            signer: SignerRole::Delegated {
                cert: Box::new(cert),
                key: Box::new(key),
            },
            windows: HashMap::new(),
            response_cache: HashMap::new(),
        }
    }

    /// The responder's URL (what certificates' AIA extensions point at).
    pub fn url(&self) -> &str {
        &self.url
    }

    /// The behavior profile.
    pub fn profile(&self) -> &ResponderProfile {
        &self.profile
    }

    /// The pre-generation boundary last used for `serial`, if any —
    /// lets the freshness analysis compare producedAt across windows.
    pub fn window_of(&self, serial: &Serial) -> Option<Time> {
        self.windows.get(serial).map(|w| w.generated_at)
    }

    /// Replace the behavior profile (used by scenario scripts that make a
    /// responder go bad mid-measurement, like the sheca.com episodes).
    pub fn set_profile(&mut self, profile: ResponderProfile) {
        self.profile = profile;
        self.response_cache.clear();
    }

    /// Handle raw request bytes, producing raw response bytes — exactly
    /// what travels over HTTP POST.
    pub fn handle_bytes(&mut self, ca: &CertificateAuthority, body: &[u8], now: Time) -> Vec<u8> {
        self.handle_bytes_with(ca, body, now, &mut telemetry::Registry::new())
    }

    /// [`Responder::handle_bytes`] plus telemetry: fault-profile triggers
    /// are counted into `reg` under `ocsp.responder.fault`.
    pub fn handle_bytes_with(
        &mut self,
        ca: &CertificateAuthority,
        body: &[u8],
        now: Time,
        reg: &mut telemetry::Registry,
    ) -> Vec<u8> {
        match OcspRequest::from_der(body) {
            Ok(req) => self.handle_with(ca, &req, now, reg),
            Err(_) => {
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed_request");
                OcspResponse::error(ResponseStatus::MalformedRequest).to_der()
            }
        }
    }

    /// Handle a parsed request.
    pub fn handle(&mut self, ca: &CertificateAuthority, req: &OcspRequest, now: Time) -> Vec<u8> {
        self.handle_with(ca, req, now, &mut telemetry::Registry::new())
    }

    /// [`Responder::handle`] plus telemetry: each fault-profile trigger
    /// (malformed body, wrong serial, corrupted signature, fillers, …)
    /// increments `ocsp.responder.fault` in `reg`, and the healthy-path
    /// signed-response cache records under `ocsp.responder.cache`:
    /// `hit` (cached bytes served), `miss` (an on-demand request-path
    /// sign), and `window_sign` (a pre-generated window materialized on
    /// first touch — scheduled signing in real deployments, so not a
    /// request-path miss).
    pub fn handle_with(
        &mut self,
        ca: &CertificateAuthority,
        req: &OcspRequest,
        now: Time,
        reg: &mut telemetry::Registry,
    ) -> Vec<u8> {
        // Body-level mangling happens regardless of the request.
        match self.profile.malform {
            MalformMode::LiteralZero => {
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed.literal_zero");
                return b"0".to_vec();
            }
            MalformMode::Empty => {
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed.empty");
                return Vec::new();
            }
            MalformMode::JavascriptPage => {
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed.javascript");
                return b"<html><body><script>window.location='/status';</script></body></html>"
                    .to_vec();
            }
            MalformMode::Valid | MalformMode::TruncatedDer => {}
        }

        if req.cert_ids.is_empty() {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed_request");
            return OcspResponse::error(ResponseStatus::MalformedRequest).to_der();
        }

        // Refuse questions about certificates from other issuers.
        let issuer_cert = ca.certificate();
        if !req.cert_ids.iter().any(|id| id.matches_issuer(issuer_cert)) {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "unauthorized");
            return OcspResponse::error(ResponseStatus::Unauthorized).to_der();
        }

        // Work out which load-balanced instance serves this request.
        // Selection is a deterministic hash of (time, first serial): over
        // a scan campaign this behaves like the random instance placement
        // of a real load balancer, producing the paper's "producedAt goes
        // backwards every 3-4 scans" artifact when instances have skewed
        // clocks (footnote 17).
        let instance = {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in req.cert_ids[0]
                .serial
                .bytes()
                .iter()
                .chain(now.unix().to_be_bytes().iter())
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
            (h % self.profile.instance_skews.len() as u64) as usize
        };
        let skew = self.profile.instance_skews[instance];

        // Healthy-path single-serial requests are served from the
        // signed-response cache: the response bytes are a pure function
        // of (serial, window boundary, instance, signer role). Fault
        // profiles never reach the cache, so their bytes are always
        // regenerated and cached healthy bytes cannot leak into them.
        let healthy = self.profile.malform == MalformMode::Valid
            && !self.profile.wrong_serial
            && !self.profile.corrupt_signature
            && req.cert_ids.len() == 1;
        let cache_key = if healthy {
            let (boundary, pre_generated) = match self.profile.generation {
                GenerationMode::OnDemand => (now.unix(), false),
                GenerationMode::PreGenerated { interval } => {
                    (now.unix() - now.unix().rem_euclid(interval), true)
                }
            };
            let role = match &self.signer {
                SignerRole::Direct => 0u8,
                SignerRole::Delegated { .. } => 1u8,
            };
            let key = (
                req.cert_ids[0].serial.bytes().to_vec(),
                boundary,
                instance,
                role,
            );
            if let Some(bytes) = self.response_cache.get(&key) {
                reg.incr(catalog::OCSP_RESPONDER_CACHE, "hit");
                if pre_generated {
                    self.windows.insert(
                        req.cert_ids[0].serial.clone(),
                        CachedWindow {
                            generated_at: Time::from_unix(boundary),
                        },
                    );
                }
                return bytes.clone();
            }
            Some((key, pre_generated))
        } else {
            None
        };

        let generated_at = match self.profile.generation {
            GenerationMode::OnDemand => now,
            GenerationMode::PreGenerated { interval } => {
                // Responses are refreshed on interval boundaries; every
                // request within a window sees the same times.
                let boundary = Time::from_unix(now.unix() - now.unix().rem_euclid(interval));
                for id in &req.cert_ids {
                    self.windows.insert(
                        id.serial.clone(),
                        CachedWindow {
                            generated_at: boundary,
                        },
                    );
                }
                boundary
            }
        };
        let produced_at = generated_at + skew;
        let this_update = generated_at - self.profile.this_update_margin;
        let next_update = self.profile.validity_secs.map(|v| this_update + v);

        let mut singles = Vec::new();
        for id in &req.cert_ids {
            let mut answered_id = id.clone();
            if self.profile.wrong_serial {
                // Answer about a different serial — §5.3's second error
                // class. Perturb deterministically.
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "wrong_serial");
                let mut bytes = id.serial.bytes().to_vec();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                answered_id.serial = Serial::from_bytes(&bytes);
            }
            singles.push(SingleResponse {
                cert_id: answered_id,
                status: self.status_for(ca, &id.serial),
                this_update,
                next_update,
            });
        }

        // Unsolicited extras (Figure 7).
        if self.profile.extra_serials > 0 {
            reg.add(
                catalog::OCSP_RESPONDER_FAULT,
                "extra_serials",
                self.profile.extra_serials as u64,
            );
        }
        for i in 0..self.profile.extra_serials {
            let filler = Serial::from_u64(0xF00D_0000 + i as u64);
            singles.push(SingleResponse {
                cert_id: CertId::for_serial(filler, issuer_cert),
                status: CertStatus::Good,
                this_update,
                next_update,
            });
        }

        // Certificates riding along (Figure 6): the delegated signer if
        // any, plus superfluous chain copies.
        let mut certs = Vec::new();
        let signing_key = match &self.signer {
            SignerRole::Direct => ca.keypair(),
            SignerRole::Delegated { cert, key } => {
                certs.push((**cert).clone());
                &**key
            }
        };
        if self.profile.superfluous_certs > 0 {
            reg.add(
                catalog::OCSP_RESPONDER_FAULT,
                "superfluous_certs",
                self.profile.superfluous_certs as u64,
            );
        }
        for _ in 0..self.profile.superfluous_certs {
            certs.push(issuer_cert.clone());
        }

        let mut response = OcspResponse::successful(signing_key, produced_at, singles, certs);

        if self.profile.corrupt_signature {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "corrupt_signature");
            if let Some(basic) = &mut response.basic {
                basic.signature[0] ^= 0xff;
            }
        }

        let mut der = response.to_der();
        if self.profile.malform == MalformMode::TruncatedDer {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed.truncated_der");
            der.truncate(der.len() / 2);
        }
        if let Some((key, pre_generated)) = cache_key {
            // A pre-generating responder materializes its window on
            // first touch — the request-path stand-in for the scheduled
            // signing real deployments do off-path (§5.4) — while an
            // on-demand responder signs in the request path proper, so
            // only the latter counts as a cache miss.
            reg.incr(
                catalog::OCSP_RESPONDER_CACHE,
                if pre_generated { "window_sign" } else { "miss" },
            );
            self.response_cache.insert(key, der.clone());
        }
        der
    }

    /// The status of one serial according to the CA's *OCSP view*.
    fn status_for(&self, ca: &CertificateAuthority, serial: &Serial) -> CertStatus {
        if let Some(record) = ca.ocsp_revocation(serial) {
            return CertStatus::Revoked {
                time: record.time,
                reason: record.reason,
            };
        }
        if ca.ocsp_knows(serial) {
            CertStatus::Good
        } else {
            CertStatus::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::BasicResponse;
    use pki::{IssueParams, RevocationReason};
    use rand::{rngs::StdRng, SeedableRng};

    fn now() -> Time {
        Time::from_civil(2018, 5, 1, 10, 30, 0)
    }

    /// Parse response bytes that are well-formed by fixture invariant.
    fn parse(der: &[u8]) -> OcspResponse {
        OcspResponse::from_der(der).expect("fixture responder must emit well-formed DER")
    }

    /// The basic payload of a response that is successful by fixture
    /// invariant.
    fn basic_of(resp: OcspResponse) -> BasicResponse {
        resp.basic
            .expect("successful fixture response must carry a basic payload")
    }

    struct Fixture {
        ca: CertificateAuthority,
        leaf: Certificate,
        id: CertId,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now());
        let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", now()));
        let id = CertId::for_certificate(&leaf, ca.certificate());
        Fixture { ca, leaf, id }
    }

    fn respond(f: &Fixture, profile: ResponderProfile) -> OcspResponse {
        let mut responder = Responder::new("http://ocsp.ca.test/", profile);
        let req = OcspRequest::single(f.id.clone());
        let der = responder.handle(&f.ca, &req, now());
        parse(&der)
    }

    #[test]
    fn healthy_good_response() {
        let f = fixture(1);
        let resp = respond(&f, ResponderProfile::healthy());
        assert_eq!(resp.status, ResponseStatus::Successful);
        let basic = basic_of(resp);
        assert!(basic.verify_signature(f.ca.certificate().public_key()));
        assert_eq!(basic.responses.len(), 1);
        assert_eq!(basic.responses[0].status, CertStatus::Good);
        assert_eq!(basic.responses[0].cert_id, f.id);
        // Margin: thisUpdate backdated one hour.
        assert_eq!(now() - basic.responses[0].this_update, 3_600);
        let next = basic.responses[0]
            .next_update
            .expect("healthy profile must populate nextUpdate");
        assert_eq!(next - basic.responses[0].this_update, 7 * 86_400);
        let _ = f.leaf;
    }

    #[test]
    fn revoked_serial_reported() {
        let mut f = fixture(2);
        f.ca.revoke(
            f.leaf.serial(),
            now() - 100,
            Some(RevocationReason::KeyCompromise),
        );
        let resp = respond(&f, ResponderProfile::healthy());
        let basic = basic_of(resp);
        assert_eq!(
            basic.responses[0].status,
            CertStatus::Revoked {
                time: now() - 100,
                reason: Some(RevocationReason::KeyCompromise)
            }
        );
    }

    #[test]
    fn unknown_serial_reported() {
        let f = fixture(3);
        let mut foreign = f.id.clone();
        foreign.serial = Serial::from_u64(0xdeadbeef);
        let mut responder = Responder::new("http://ocsp.ca.test/", ResponderProfile::healthy());
        let der = responder.handle(&f.ca, &OcspRequest::single(foreign), now());
        let resp = parse(&der);
        assert_eq!(basic_of(resp).responses[0].status, CertStatus::Unknown);
    }

    #[test]
    fn foreign_issuer_unauthorized() {
        let f = fixture(4);
        let foreign = CertId {
            issuer_name_hash: [9; 32],
            issuer_key_hash: [8; 32],
            serial: Serial::from_u64(1),
        };
        let mut responder = Responder::new("http://ocsp.ca.test/", ResponderProfile::healthy());
        let der = responder.handle(&f.ca, &OcspRequest::single(foreign), now());
        let resp = parse(&der);
        assert_eq!(resp.status, ResponseStatus::Unauthorized);
        assert!(resp.basic.is_none());
    }

    #[test]
    fn malformed_modes_produce_unparseable_bodies() {
        let f = fixture(5);
        type BodyCheck = fn(&[u8]) -> bool;
        let cases: Vec<(MalformMode, BodyCheck)> = vec![
            (MalformMode::LiteralZero, |b| b == b"0"),
            (MalformMode::Empty, |b| b.is_empty()),
            (MalformMode::JavascriptPage, |b| b.starts_with(b"<html>")),
            (MalformMode::TruncatedDer, |b| !b.is_empty()),
        ];
        for (mode, check) in cases {
            let mut responder = Responder::new("u", ResponderProfile::healthy().malformed(mode));
            let der = responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now());
            assert!(check(&der), "{mode:?}");
            assert!(
                OcspResponse::from_der(&der).is_err(),
                "{mode:?} should be unparseable"
            );
        }
    }

    #[test]
    fn wrong_serial_mode_mismatches() {
        let f = fixture(6);
        let resp = respond(&f, ResponderProfile::healthy().wrong_serial());
        let basic = basic_of(resp);
        assert_ne!(basic.responses[0].cert_id.serial, f.id.serial);
    }

    #[test]
    fn corrupt_signature_mode_fails_verification() {
        let f = fixture(7);
        let resp = respond(&f, ResponderProfile::healthy().corrupt_signature());
        let basic = basic_of(resp);
        assert!(!basic.verify_signature(f.ca.certificate().public_key()));
    }

    #[test]
    fn superfluous_certs_and_extra_serials() {
        let f = fixture(8);
        let resp = respond(
            &f,
            ResponderProfile::healthy()
                .superfluous_certs(4)
                .extra_serials(19),
        );
        let basic = basic_of(resp);
        assert_eq!(basic.certs.len(), 4);
        assert_eq!(basic.responses.len(), 20);
        // The first entry is the one actually asked about.
        assert_eq!(basic.responses[0].cert_id.serial, f.id.serial);
    }

    #[test]
    fn blank_next_update() {
        let f = fixture(9);
        let resp = respond(&f, ResponderProfile::healthy().blank_next_update());
        assert_eq!(basic_of(resp).responses[0].next_update, None);
    }

    #[test]
    fn zero_margin_and_future_this_update() {
        let f = fixture(10);
        let zero = respond(&f, ResponderProfile::healthy().margin(0));
        assert_eq!(basic_of(zero).responses[0].this_update, now());
        let future = respond(&f, ResponderProfile::healthy().margin(-120));
        assert_eq!(basic_of(future).responses[0].this_update, now() + 120);
    }

    #[test]
    fn pre_generated_windows_are_stable_within_interval() {
        let f = fixture(11);
        let mut responder = Responder::new(
            "u",
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200),
        );
        let req = OcspRequest::single(f.id.clone());
        let r1 = parse(&responder.handle(&f.ca, &req, now()));
        let r2 = parse(&responder.handle(&f.ca, &req, now() + 600));
        let r3 = parse(&responder.handle(&f.ca, &req, now() + 7_200));
        let t1 = basic_of(r1).responses[0].this_update;
        let t2 = basic_of(r2).responses[0].this_update;
        let t3 = basic_of(r3).responses[0].this_update;
        assert_eq!(t1, t2);
        assert!(t3 > t1);
    }

    #[test]
    fn instance_skew_regresses_produced_at() {
        let f = fixture(12);
        // Two instances, one 5 minutes behind: across a series of scans
        // producedAt must go backwards at least once — the footnote 17
        // artifact. Instance choice is a deterministic hash of
        // (serial, time), so probe enough scans that a balanced hash is
        // guaranteed to alternate at least once.
        let mut responder =
            Responder::new("u", ResponderProfile::healthy().instances(vec![0, -300]));
        let req = OcspRequest::single(f.id.clone());
        let mut produced = Vec::new();
        for k in 0..48 {
            let body = responder.handle(&f.ca, &req, now() + k * 10);
            produced.push(basic_of(parse(&body)).produced_at);
        }
        assert!(
            produced.windows(2).any(|w| w[1] < w[0]),
            "producedAt never regressed: {produced:?}"
        );
    }

    #[test]
    fn delegated_signer_included_and_verifies() {
        let mut f = fixture(13);
        let mut rng = StdRng::seed_from_u64(99);
        let (cert, key) = f.ca.issue_ocsp_signer(&mut rng, now());
        let mut responder =
            Responder::with_delegated_signer("u", ResponderProfile::healthy(), cert.clone(), key);
        let der = responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now());
        let basic = basic_of(parse(&der));
        // Signed by the delegate, not the CA.
        assert!(!basic.verify_signature(f.ca.certificate().public_key()));
        assert!(basic.verify_signature(cert.public_key()));
        assert_eq!(basic.certs[0], cert);
    }

    #[test]
    fn fault_profile_triggers_are_counted() {
        let f = fixture(15);
        let mut reg = telemetry::Registry::new();
        let req = OcspRequest::single(f.id.clone());

        let mut responder = Responder::new(
            "u",
            ResponderProfile::healthy()
                .wrong_serial()
                .corrupt_signature()
                .extra_serials(3)
                .superfluous_certs(2),
        );
        responder.handle_with(&f.ca, &req, now(), &mut reg);
        assert_eq!(reg.counter("ocsp.responder.fault", "wrong_serial"), 1);
        assert_eq!(reg.counter("ocsp.responder.fault", "corrupt_signature"), 1);
        assert_eq!(reg.counter("ocsp.responder.fault", "extra_serials"), 3);
        assert_eq!(reg.counter("ocsp.responder.fault", "superfluous_certs"), 2);

        let mut malformed = Responder::new(
            "u",
            ResponderProfile::healthy().malformed(MalformMode::Empty),
        );
        malformed.handle_with(&f.ca, &req, now(), &mut reg);
        assert_eq!(reg.counter("ocsp.responder.fault", "malformed.empty"), 1);

        let mut garbage = Responder::new("u", ResponderProfile::healthy());
        garbage.handle_bytes_with(&f.ca, b"junk", now(), &mut reg);
        assert_eq!(reg.counter("ocsp.responder.fault", "malformed_request"), 1);
    }

    #[test]
    fn pregen_cache_hits_and_window_signs_are_counted() {
        let f = fixture(16);
        let mut reg = telemetry::Registry::new();
        let req = OcspRequest::single(f.id.clone());
        let mut responder = Responder::new(
            "u",
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200),
        );
        responder.handle_with(&f.ca, &req, now(), &mut reg);
        responder.handle_with(&f.ca, &req, now() + 600, &mut reg);
        responder.handle_with(&f.ca, &req, now() + 900, &mut reg);
        // Window materialization is not a request-path miss.
        assert_eq!(reg.counter("ocsp.responder.cache", "window_sign"), 1);
        assert_eq!(reg.counter("ocsp.responder.cache", "hit"), 2);
        assert_eq!(reg.counter("ocsp.responder.cache", "miss"), 0);
    }

    #[test]
    fn on_demand_cache_repeats_identical_bytes_within_a_second() {
        let f = fixture(17);
        let mut reg = telemetry::Registry::new();
        let req = OcspRequest::single(f.id.clone());
        let mut responder = Responder::new("u", ResponderProfile::healthy());
        let first = responder.handle_with(&f.ca, &req, now(), &mut reg);
        let second = responder.handle_with(&f.ca, &req, now(), &mut reg);
        assert_eq!(first, second);
        assert_eq!(reg.counter("ocsp.responder.cache", "miss"), 1);
        assert_eq!(reg.counter("ocsp.responder.cache", "hit"), 1);
        // A later request second is a distinct key: fresh sign.
        responder.handle_with(&f.ca, &req, now() + 1, &mut reg);
        assert_eq!(reg.counter("ocsp.responder.cache", "miss"), 2);
        // And the cached bytes are exactly what a cold responder signs.
        let mut cold = Responder::new("u", ResponderProfile::healthy());
        assert_eq!(cold.handle(&f.ca, &req, now()), second);
    }

    #[test]
    fn fault_profiles_never_touch_the_cache() {
        let f = fixture(18);
        let req = OcspRequest::single(f.id.clone());
        let faults = vec![
            ResponderProfile::healthy().wrong_serial(),
            ResponderProfile::healthy().corrupt_signature(),
            ResponderProfile::healthy().malformed(MalformMode::TruncatedDer),
            ResponderProfile::healthy().malformed(MalformMode::LiteralZero),
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .corrupt_signature(),
        ];
        for profile in faults {
            let mut reg = telemetry::Registry::new();
            let mut responder = Responder::new("u", profile.clone());
            responder.handle_with(&f.ca, &req, now(), &mut reg);
            responder.handle_with(&f.ca, &req, now(), &mut reg);
            assert_eq!(
                reg.counter_total("ocsp.responder.cache"),
                0,
                "fault profile reached the cache: {profile:?}"
            );
        }
        // Multi-serial requests are also uncached.
        let mut reg = telemetry::Registry::new();
        let mut responder = Responder::new("u", ResponderProfile::healthy());
        let multi = OcspRequest {
            cert_ids: vec![f.id.clone(), f.id.clone()],
            nonce: None,
        };
        responder.handle_with(&f.ca, &multi, now(), &mut reg);
        assert_eq!(reg.counter_total("ocsp.responder.cache"), 0);
    }

    #[test]
    fn window_rollover_invalidates_the_cache_entry() {
        let f = fixture(19);
        let mut reg = telemetry::Registry::new();
        let req = OcspRequest::single(f.id.clone());
        let mut responder = Responder::new(
            "u",
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200),
        );
        let before = responder.handle_with(&f.ca, &req, now(), &mut reg);
        let after = responder.handle_with(&f.ca, &req, now() + 7_200, &mut reg);
        assert_ne!(before, after, "rollover must produce fresh bytes");
        let t_before = basic_of(parse(&before)).responses[0].this_update;
        let t_after = basic_of(parse(&after)).responses[0].this_update;
        assert!(t_after > t_before);
        assert_eq!(reg.counter("ocsp.responder.cache", "window_sign"), 2);
        assert_eq!(reg.counter("ocsp.responder.cache", "hit"), 0);
    }

    #[test]
    fn profile_swap_clears_cached_bytes() {
        // The sheca-style episode scripts swap profiles mid-campaign; a
        // healthy response cached before the swap must not survive it.
        let f = fixture(20);
        let req = OcspRequest::single(f.id.clone());
        let mut responder = Responder::new(
            "u",
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200),
        );
        let healthy = responder.handle(&f.ca, &req, now());
        responder.set_profile(
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200)
                .malformed(MalformMode::Empty),
        );
        assert!(responder.handle(&f.ca, &req, now()).is_empty());
        responder.set_profile(
            ResponderProfile::healthy()
                .pre_generated(7_200)
                .validity(7_200),
        );
        // Recovery re-signs (deterministically identical bytes) rather
        // than serving a stale pre-episode entry.
        let mut reg = telemetry::Registry::new();
        let again = responder.handle_with(&f.ca, &req, now(), &mut reg);
        assert_eq!(again, healthy);
        assert_eq!(reg.counter("ocsp.responder.cache", "window_sign"), 1);
    }

    #[test]
    fn garbage_request_gets_malformed_request() {
        let f = fixture(14);
        let mut responder = Responder::new("u", ResponderProfile::healthy());
        let der = responder.handle_bytes(&f.ca, b"not a request", now());
        let resp = parse(&der);
        assert_eq!(resp.status, ResponseStatus::MalformedRequest);
    }
}
