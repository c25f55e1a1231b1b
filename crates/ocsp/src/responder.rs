//! The OCSP responder engine.
//!
//! A [`Responder`] answers [`OcspRequest`]s for one CA, with behavior
//! governed by a [`ResponderProfile`]. It supports direct signing (with
//! the CA key) and delegated signing (RFC 6960 §4.2.2.2, an
//! `id-kp-OCSPSigning` certificate included in the response — "OCSP
//! Signature Authority Delegation" in the paper's §2.2).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::certid::CertId;
use crate::profile::{GenerationMode, MalformMode, ResponderProfile};
use crate::request::OcspRequest;
use crate::response::{CertStatus, OcspResponse, ResponseStatus, SingleResponse};
use asn1::Time;
use pki::{Certificate, CertificateAuthority, Serial};
use simcrypto::KeyPair;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
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
#[derive(Debug, Clone)]
struct CacheKey {
    serial: Vec<u8>,
    boundary: i64,
    instance: usize,
    role: u8,
}

/// A cache key's parts as borrowed values. The cache is looked up
/// through this view, with the request's own serial bytes, so a lookup
/// makes no owned copy of them; [`CacheKey`] hashes and compares through
/// the same view, so both agree.
trait KeyParts {
    fn parts(&self) -> (&[u8], i64, usize, u8);
}

impl KeyParts for CacheKey {
    fn parts(&self) -> (&[u8], i64, usize, u8) {
        (&self.serial, self.boundary, self.instance, self.role)
    }
}

impl KeyParts for (&[u8], i64, usize, u8) {
    fn parts(&self) -> (&[u8], i64, usize, u8) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for CacheKey {}

/// How many parsed requests the raw-bytes path keeps. A campaign world
/// asks each responder about two certificates; a flood of fresh serials
/// replaces the entries in turn and never grows the memo past this.
const REQUEST_MEMO_CAP: usize = 4;

/// Parsed requests keyed on their exact bytes: a scan asks a responder
/// the same questions every round, so each distinct body is parsed once
/// while it stays here. A full memo replaces its entries in insertion
/// order. Malformed bodies are never kept.
#[derive(Debug, Clone, Default)]
struct RequestMemo {
    entries: Vec<(Vec<u8>, OcspRequest)>,
    /// The entry the next insertion replaces once the memo is full.
    next: usize,
}

impl RequestMemo {
    /// The parse of `body`, from the memo or parsed now (and then kept);
    /// `None` if `body` is not a well-formed request.
    fn get_or_parse(&mut self, body: &[u8]) -> Option<&OcspRequest> {
        if let Some(i) = self
            .entries
            .iter()
            .position(|(bytes, _)| bytes[..] == *body)
        {
            return Some(&self.entries[i].1);
        }
        let entry = (body.to_vec(), OcspRequest::from_der(body).ok()?);
        let i = if self.entries.len() < REQUEST_MEMO_CAP {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let i = self.next;
            self.entries[i] = entry;
            self.next = (i + 1) % REQUEST_MEMO_CAP;
            i
        };
        Some(&self.entries[i].1)
    }
}

/// What [`Responder::answer`] produced.
enum Answer {
    /// Bytes shared rather than built: a signed-response cache hit, or a
    /// malformed profile's constant body.
    Shared(Arc<[u8]>),
    /// Bytes built for this request, and where the signed-response
    /// cache keeps them (healthy single-serial requests only).
    Fresh(Vec<u8>, Option<CacheSlot>),
}

/// Where a freshly signed healthy response goes in the cache.
struct CacheSlot {
    key: CacheKey,
    /// Whether the responder pre-generates (counted as `window_sign`
    /// rather than `miss`).
    pre_generated: bool,
}

/// The body a malformed-response profile serves instead of DER, as one
/// buffer shared by every responder of the process, with its
/// `ocsp.responder.fault` label; `None` for the profiles that produce
/// DER.
fn malformed_body(mode: MalformMode) -> Option<(&'static str, Arc<[u8]>)> {
    static ZERO: OnceLock<Arc<[u8]>> = OnceLock::new();
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    static JAVASCRIPT: OnceLock<Arc<[u8]>> = OnceLock::new();
    let (label, cell, bytes): (_, _, &[u8]) = match mode {
        MalformMode::LiteralZero => ("malformed.literal_zero", &ZERO, b"0"),
        MalformMode::Empty => ("malformed.empty", &EMPTY, b""),
        MalformMode::JavascriptPage => (
            "malformed.javascript",
            &JAVASCRIPT,
            b"<html><body><script>window.location='/status';</script></body></html>",
        ),
        MalformMode::Valid | MalformMode::TruncatedDer => return None,
    };
    Some((label, Arc::clone(cell.get_or_init(|| Arc::from(bytes)))))
}

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
    /// Each body is one shared buffer, so a hit copies nothing.
    response_cache: HashMap<CacheKey, Arc<[u8]>>,
    /// Parsed requests of the raw-bytes path.
    requests: RequestMemo,
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
            requests: RequestMemo::default(),
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
            requests: RequestMemo::default(),
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
    pub fn handle_bytes(&mut self, ca: &CertificateAuthority, body: &[u8], now: Time) -> Arc<[u8]> {
        self.handle_bytes_with(ca, body, now, &mut telemetry::Registry::new())
    }

    /// [`Responder::handle_bytes`] plus telemetry: fault-profile triggers
    /// are counted into `reg` under `ocsp.responder.fault`.
    ///
    /// Each distinct well-formed body is parsed once while it stays in a
    /// small memo (four entries) keyed on its exact bytes; a malformed
    /// body is parsed and refused every time. The response comes back
    /// as a shared buffer: a signed-response cache hit hands out the
    /// cached one.
    pub fn handle_bytes_with(
        &mut self,
        ca: &CertificateAuthority,
        body: &[u8],
        now: Time,
        reg: &mut telemetry::Registry,
    ) -> Arc<[u8]> {
        // The memo leaves `self` while its entry is borrowed; moving a
        // `Vec` out and back allocates nothing.
        let mut requests = std::mem::take(&mut self.requests);
        let response = match requests.get_or_parse(body) {
            Some(req) => match self.answer(ca, req, now, reg) {
                Answer::Shared(body) => body,
                Answer::Fresh(der, slot) => {
                    let body: Arc<[u8]> = Arc::from(der);
                    if let Some(slot) = slot {
                        self.store(slot, Arc::clone(&body), reg);
                    }
                    body
                }
            },
            None => {
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed_request");
                Arc::from(OcspResponse::error(ResponseStatus::MalformedRequest).to_der())
            }
        };
        self.requests = requests;
        response
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
        match self.answer(ca, req, now, reg) {
            Answer::Shared(body) => body.to_vec(),
            Answer::Fresh(der, slot) => {
                if let Some(slot) = slot {
                    self.store(slot, Arc::from(&der[..]), reg);
                }
                der
            }
        }
    }

    /// Keep a freshly signed healthy response in the cache, counting the
    /// sign. A pre-generating responder materializes its window on first
    /// touch — the request-path stand-in for the scheduled signing real
    /// deployments do off-path (§5.4) — while an on-demand responder
    /// signs in the request path proper, so only the latter counts as a
    /// cache miss.
    fn store(&mut self, slot: CacheSlot, body: Arc<[u8]>, reg: &mut telemetry::Registry) {
        reg.incr(
            catalog::OCSP_RESPONDER_CACHE,
            if slot.pre_generated {
                "window_sign"
            } else {
                "miss"
            },
        );
        self.response_cache.insert(slot.key, body);
    }

    /// Note `generated_at` as the window last used for `serial`, in place
    /// once the serial is known.
    fn record_window(&mut self, serial: &Serial, generated_at: Time) {
        match self.windows.get_mut(serial) {
            Some(window) => window.generated_at = generated_at,
            None => {
                self.windows
                    .insert(serial.clone(), CachedWindow { generated_at });
            }
        }
    }

    /// The answer to `req`, without storing a freshly signed one: the
    /// two public paths keep it in the cache each in the form that costs
    /// them no extra copy.
    fn answer(
        &mut self,
        ca: &CertificateAuthority,
        req: &OcspRequest,
        now: Time,
        reg: &mut telemetry::Registry,
    ) -> Answer {
        // Body-level mangling happens regardless of the request.
        if let Some((label, body)) = malformed_body(self.profile.malform) {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, label);
            return Answer::Shared(body);
        }

        if req.cert_ids.is_empty() {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed_request");
            let der = OcspResponse::error(ResponseStatus::MalformedRequest).to_der();
            return Answer::Fresh(der, None);
        }

        // Refuse questions about certificates from other issuers.
        let issuer_cert = ca.certificate();
        if !req.cert_ids.iter().any(|id| id.matches_issuer(issuer_cert)) {
            reg.incr(catalog::OCSP_RESPONDER_FAULT, "unauthorized");
            let der = OcspResponse::error(ResponseStatus::Unauthorized).to_der();
            return Answer::Fresh(der, None);
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
        let cache_slot = if healthy {
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
            let serial = &req.cert_ids[0].serial;
            let parts = (serial.bytes(), boundary, instance, role);
            if let Some(body) = self.response_cache.get(&parts as &dyn KeyParts) {
                let body = Arc::clone(body);
                reg.incr(catalog::OCSP_RESPONDER_CACHE, "hit");
                if pre_generated {
                    self.record_window(serial, Time::from_unix(boundary));
                }
                return Answer::Shared(body);
            }
            let key = CacheKey {
                serial: serial.bytes().to_vec(),
                boundary,
                instance,
                role,
            };
            Some(CacheSlot { key, pre_generated })
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
                    self.record_window(&id.serial, boundary);
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
        Answer::Fresh(der, cache_slot)
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
    use rand::{rngs::StdRng, RngCore, SeedableRng};

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

    /// The raw-bytes path, with its request memo and shared bodies,
    /// answers byte for byte and counter for counter like a responder
    /// that parses every body, over a sequence mixing repeated bodies,
    /// fresh serials and malformed bodies, under healthy, pre-generating
    /// and faulty profiles.
    #[test]
    fn memoized_requests_answer_like_parsed_ones() {
        let mut rng = StdRng::seed_from_u64(0x3E30_0001);
        let mut f = fixture(30);
        let second =
            f.ca.issue(&mut rng, &IssueParams::new("two.example", now()));
        let canonical = OcspRequest::single(f.id.clone()).to_der();
        let other = OcspRequest::single(CertId::for_certificate(&second, f.ca.certificate()));
        let other = other.to_der();
        for profile in [
            ResponderProfile::healthy(),
            ResponderProfile::healthy().pre_generated(7_200),
            ResponderProfile::healthy().instances(vec![0, 30, -30]),
            ResponderProfile::healthy().extra_serials(2),
            ResponderProfile::healthy().corrupt_signature(),
            ResponderProfile::healthy().malformed(MalformMode::LiteralZero),
        ] {
            let mut memoized = Responder::new("u", profile.clone());
            let mut parsing = Responder::new("u", profile);
            let (mut memo_reg, mut parse_reg) =
                (telemetry::Registry::new(), telemetry::Registry::new());
            let mut at = now();
            for step in 0..400u64 {
                let body = match rng.next_u64() % 8 {
                    0..=2 => canonical.clone(),
                    3 | 4 => other.clone(),
                    5 => {
                        let mut id = f.id.clone();
                        id.serial = Serial::from_u64(rng.next_u64());
                        OcspRequest::single(id).to_der()
                    }
                    6 => canonical[..canonical.len() - 3].to_vec(),
                    _ => b"junk".to_vec(),
                };
                at += (step % 3) as i64 * 1_800;
                let served = memoized.handle_bytes_with(&f.ca, &body, at, &mut memo_reg);
                let expected = match OcspRequest::from_der(&body) {
                    Ok(req) => parsing.handle_with(&f.ca, &req, at, &mut parse_reg),
                    Err(_) => {
                        parse_reg.incr(catalog::OCSP_RESPONDER_FAULT, "malformed_request");
                        OcspResponse::error(ResponseStatus::MalformedRequest).to_der()
                    }
                };
                assert_eq!(&served[..], &expected[..], "step {step}");
                assert!(memoized.requests.entries.len() <= REQUEST_MEMO_CAP);
            }
            assert_eq!(memo_reg, parse_reg);
            assert!(memo_reg.counter(catalog::OCSP_RESPONDER_FAULT, "malformed_request") > 0);
        }
        let _ = f.leaf;
    }

    /// A cache hit hands out the cached buffer itself, and a flood of
    /// fresh serials never grows the request memo past its cap.
    #[test]
    fn hits_share_the_cached_buffer_and_the_memo_stays_bounded() {
        let f = fixture(31);
        let mut responder = Responder::new("u", ResponderProfile::healthy().pre_generated(3_600));
        let canonical = OcspRequest::single(f.id.clone()).to_der();
        let first = responder.handle_bytes(&f.ca, &canonical, now());
        let again = responder.handle_bytes(&f.ca, &canonical, now() + 60);
        assert!(Arc::ptr_eq(&first, &again));

        let mut serials = StdRng::seed_from_u64(0xF100D);
        for _ in 0..10_000 {
            let mut id = f.id.clone();
            id.serial = Serial::from_u64(serials.next_u64());
            responder.handle_bytes(&f.ca, &OcspRequest::single(id).to_der(), now());
        }
        assert_eq!(responder.requests.entries.len(), REQUEST_MEMO_CAP);
    }
}
