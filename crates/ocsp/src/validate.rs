//! Client-side OCSP response validation.
//!
//! [`validate_response`] performs every check a careful TLS client makes
//! before trusting a response, and classifies failures with the paper's
//! taxonomy:
//!
//! * §5.3 "Validity" errors — **malformed structure** (not parseable
//!   DER), **serial number mismatch**, **incorrect signature** (under the
//!   issuer key or a properly delegated responder certificate);
//! * §5.4 "Quality" errors — **not yet valid** (`thisUpdate` in the
//!   future relative to the client clock; zero-margin responders trip
//!   clients with slightly slow clocks) and **expired**
//!   (`nextUpdate` in the past).
//!
//! A *blank* `nextUpdate` is accepted (RFC 6960 allows it) but surfaced
//! in [`ValidatedResponse::blank_next_update`], since the paper flags it
//! as a caching hazard.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::certid::CertId;
use crate::response::{BasicResponse, CertStatus, OcspResponse, ResponseStatus, SingleResponse};
use asn1::Time;
use pki::Certificate;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use telemetry::{catalog, Metric};

/// Memo for the stages of validation that do not depend on the call:
/// parsing the body, and checking its signature under the issuer.
///
/// Both are pure functions of (issuer key, exact body bytes), so each
/// distinct signed response is parsed once per cache and pays
/// big-integer modexp at most once, not once per vantage point × hour.
/// An entry holds the structural error (`MalformedStructure`,
/// `ErrorStatus`, `MissingPayload`), or the parsed basic response —
/// singles, `producedAt`, attached certificates — plus the signature
/// outcome. The signature stage runs lazily, on the first call whose
/// serial the body answers, so `ocsp.validate.sigcache.{hit,miss}` fall
/// exactly where an unmemoized signature check would run. A hit reruns
/// only the serial match and the time-window checks, which depend on
/// the call.
///
/// Keying on the bytes themselves rather than a digest of them means no
/// two bodies can share an entry. The memo keeps the caller's shared
/// buffer rather than a copy, and checks the last few buffers it was
/// handed by pointer before it hashes a body: a scan that is handed the
/// same buffer again (a responder's signed-response cache serves one
/// buffer to every vantage point) finds its entry without reading the
/// bytes. Equal bytes in a different buffer still find it through the
/// hash. Attached certificates are parsed eagerly, as the uncached path
/// does, so a malformed one stays `MalformedStructure`.
///
/// Scan pipelines hold one cache per shard (or per work chunk), keeping
/// the memo deterministic and thread-local.
#[derive(Debug, Default)]
pub struct SigVerifyCache {
    /// Issuer key id → that issuer's bodies.
    entries: BTreeMap<[u8; 32], BodyMemos>,
}

/// How many recently looked-up buffers an issuer's memo checks by
/// pointer before hashing: a responder's scan interleaves a few
/// certificates' bodies.
const RECENT_BUFFERS: usize = 8;

/// One issuer's memo entries, keyed by the exact response body.
#[derive(Debug, Default)]
struct BodyMemos {
    /// Body → its entry in `memos`. The bodies are responder-controlled
    /// bytes, so the map keeps std's keyed hasher.
    index: HashMap<Arc<[u8]>, usize>,
    memos: Vec<Result<ParsedBody, ResponseError>>,
    /// The buffers most recently looked up, with their entries, replaced
    /// in turn. Holding each buffer keeps its address from being reused
    /// for other bytes while it is here.
    recent: [Option<(Arc<[u8]>, usize)>; RECENT_BUFFERS],
    next_recent: usize,
}

impl BodyMemos {
    /// The entry for `body`: found by pointer among the recent buffers,
    /// else by its bytes, else parsed now and added.
    fn entry(&mut self, body: &Arc<[u8]>) -> &mut Result<ParsedBody, ResponseError> {
        let by_pointer = self
            .recent
            .iter()
            .flatten()
            .find(|(held, _)| Arc::ptr_eq(held, body));
        let i = match by_pointer {
            Some(&(_, i)) => i,
            None => {
                let i = match self.index.get(&body[..]) {
                    Some(&i) => i,
                    None => {
                        let memo = parse_body(body).map(|basic| ParsedBody {
                            basic,
                            signature: None,
                        });
                        self.memos.push(memo);
                        self.index.insert(Arc::clone(body), self.memos.len() - 1);
                        self.memos.len() - 1
                    }
                };
                self.recent[self.next_recent] = Some((Arc::clone(body), i));
                self.next_recent = (self.next_recent + 1) % RECENT_BUFFERS;
                i
            }
        };
        &mut self.memos[i]
    }
}

/// A body that passed the structural stage.
#[derive(Debug)]
struct ParsedBody {
    basic: BasicResponse,
    /// The signature stage's outcome, once a call whose serial the body
    /// answers has needed it.
    signature: Option<Result<(), ResponseError>>,
}

impl SigVerifyCache {
    /// An empty cache.
    pub fn new() -> SigVerifyCache {
        SigVerifyCache::default()
    }

    /// Number of distinct (issuer, body) signature outcomes memoized.
    pub fn len(&self) -> usize {
        self.entries
            .values()
            .flat_map(|bodies| &bodies.memos)
            .filter(|memo| matches!(memo, Ok(parsed) if parsed.signature.is_some()))
            .count()
    }

    /// Whether no signature outcome has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How the client validates (clock model).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidationConfig {
    /// Offset of the client's clock from true time, in seconds. Negative
    /// = slow clock. The paper's Figure 9 analysis is about zero-margin
    /// responses meeting slow clocks.
    pub clock_skew: i64,
    /// Whether to require a `nextUpdate` (strict clients may refuse
    /// never-expiring responses; default false, as real clients accept).
    pub require_next_update: bool,
}

/// Why a response was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseError {
    /// Body is not parseable OCSP DER (Figure 5's dominant class —
    /// includes the `"0"`, empty, and JavaScript bodies), or carries
    /// `responseBytes` under a status other than `successful`.
    MalformedStructure,
    /// Outer status was not `successful` (and no `responseBytes` came
    /// with it).
    ErrorStatus(ResponseStatus),
    /// The response was `successful` but carried no basic response.
    MissingPayload,
    /// No single response matches the requested serial (Figure 5's
    /// second class).
    SerialMismatch,
    /// Signature did not verify under the issuer key or an acceptable
    /// delegate (Figure 5's third class).
    SignatureInvalid,
    /// A delegated signer certificate was present but not issued by the
    /// certificate's issuer, or lacks the OCSP-signing EKU.
    UntrustedDelegate,
    /// `thisUpdate` is after the client's current time.
    NotYetValid {
        /// Seconds until the response becomes valid.
        early_by: i64,
    },
    /// `nextUpdate` is before the client's current time.
    Expired {
        /// Seconds since expiry.
        late_by: i64,
    },
    /// `require_next_update` was set and the response has none.
    BlankNextUpdate,
}

impl core::fmt::Display for ResponseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResponseError::MalformedStructure => write!(f, "malformed OCSP response structure"),
            ResponseError::ErrorStatus(s) => write!(f, "OCSP error status {s:?}"),
            ResponseError::MissingPayload => write!(f, "successful status without payload"),
            ResponseError::SerialMismatch => write!(f, "no response for the requested serial"),
            ResponseError::SignatureInvalid => write!(f, "OCSP signature invalid"),
            ResponseError::UntrustedDelegate => write!(f, "untrusted delegated OCSP signer"),
            ResponseError::NotYetValid { early_by } => {
                write!(f, "response not yet valid ({early_by}s early)")
            }
            ResponseError::Expired { late_by } => write!(f, "response expired ({late_by}s ago)"),
            ResponseError::BlankNextUpdate => write!(f, "response has no nextUpdate"),
        }
    }
}

impl ResponseError {
    /// Stable telemetry label for this error class (one per
    /// error-taxonomy variant, prefixed `err.` to keep them apart from
    /// the `ok` label in a shared counter namespace).
    pub fn metric_label(&self) -> &'static str {
        match self {
            ResponseError::MalformedStructure => "err.malformed_structure",
            ResponseError::ErrorStatus(_) => "err.error_status",
            ResponseError::MissingPayload => "err.missing_payload",
            ResponseError::SerialMismatch => "err.serial_mismatch",
            ResponseError::SignatureInvalid => "err.signature_invalid",
            ResponseError::UntrustedDelegate => "err.untrusted_delegate",
            ResponseError::NotYetValid { .. } => "err.not_yet_valid",
            ResponseError::Expired { .. } => "err.expired",
            ResponseError::BlankNextUpdate => "err.blank_next_update",
        }
    }
}

impl std::error::Error for ResponseError {}

/// The distilled result of a successful validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatedResponse {
    /// The certificate's status.
    pub status: CertStatus,
    /// When the response was produced.
    pub produced_at: Time,
    /// Window start.
    pub this_update: Time,
    /// Window end (`None` = blank).
    pub next_update: Option<Time>,
    /// Whether `nextUpdate` was blank (the §5.4 caching hazard).
    pub blank_next_update: bool,
    /// Total certificates attached to the response (Figure 6 metric).
    pub cert_count: usize,
    /// Total serials answered (Figure 7 metric).
    pub serial_count: usize,
    /// Margin between `thisUpdate` and the *true* receive time — the
    /// Figure 9 metric (negative means future-dated).
    pub this_update_margin: i64,
}

impl ValidatedResponse {
    /// Validity period in seconds, or `None` for blank `nextUpdate`
    /// (plotted as ∞ in Figure 8).
    pub fn validity_period(&self) -> Option<i64> {
        self.next_update.map(|nu| nu - self.this_update)
    }

    /// How long a client may cache this response from `now`.
    pub fn cacheable_for(&self, now: Time) -> Option<i64> {
        self.next_update.map(|nu| (nu - now).max(0))
    }
}

/// Validate `body` as the answer to a request about `cert_id`, issued by
/// `issuer`, received at true time `received_at`, through a client with
/// `config`.
pub fn validate_response(
    body: &[u8],
    cert_id: &CertId,
    issuer: &Certificate,
    received_at: Time,
    config: ValidationConfig,
) -> Result<ValidatedResponse, ResponseError> {
    let basic = parse_body(body)?;
    let single = answer_for(&basic, cert_id)?;
    verify_signature_stage(&basic, issuer)?;
    check_window(&basic, single, received_at, config)
}

/// [`validate_response`] through the memo: a body's parse and signature
/// outcome come from `cache` when it has them, and each signature
/// outcome served or computed counts as a `hit` or `miss` under
/// `ocsp.validate.sigcache` in `reg`.
fn validate_memoized(
    cache: &mut SigVerifyCache,
    reg: &mut telemetry::Registry,
    body: &Arc<[u8]>,
    cert_id: &CertId,
    issuer: &Certificate,
    received_at: Time,
    config: ValidationConfig,
) -> Result<ValidatedResponse, ResponseError> {
    let parsed = cache
        .entries
        .entry(issuer.public_key().key_id())
        .or_default()
        .entry(body)
        .as_mut()
        .map_err(|err| err.clone())?;
    let single = answer_for(&parsed.basic, cert_id)?;
    match &parsed.signature {
        Some(outcome) => {
            reg.incr(catalog::OCSP_VALIDATE_SIGCACHE, "hit");
            outcome.clone()?;
        }
        None => {
            reg.incr(catalog::OCSP_VALIDATE_SIGCACHE, "miss");
            let outcome = verify_signature_stage(&parsed.basic, issuer);
            parsed.signature = Some(outcome.clone());
            outcome?;
        }
    }
    check_window(&parsed.basic, single, received_at, config)
}

/// The structural stage: `body` must be a `successful` OCSP response
/// carrying a basic response.
fn parse_body(body: &[u8]) -> Result<BasicResponse, ResponseError> {
    let response = OcspResponse::from_der(body).map_err(|_| ResponseError::MalformedStructure)?;
    if response.status != ResponseStatus::Successful {
        return Err(ResponseError::ErrorStatus(response.status));
    }
    response.basic.ok_or(ResponseError::MissingPayload)
}

/// The single response answering `cert_id`'s serial.
fn answer_for<'a>(
    basic: &'a BasicResponse,
    cert_id: &CertId,
) -> Result<&'a SingleResponse, ResponseError> {
    basic
        .responses
        .iter()
        .find(|sr| sr.cert_id.serial == cert_id.serial)
        .ok_or(ResponseError::SerialMismatch)
}

/// The time window, as seen through the client's (possibly skewed)
/// clock, and the distilled result. The only stage that depends on the
/// receive time, so the memo reruns it on every call.
fn check_window(
    basic: &BasicResponse,
    single: &SingleResponse,
    received_at: Time,
    config: ValidationConfig,
) -> Result<ValidatedResponse, ResponseError> {
    let client_now = received_at + config.clock_skew;
    if single.this_update > client_now {
        return Err(ResponseError::NotYetValid {
            early_by: single.this_update - client_now,
        });
    }
    match single.next_update {
        Some(nu) => {
            if nu < client_now {
                return Err(ResponseError::Expired {
                    late_by: client_now - nu,
                });
            }
        }
        None => {
            if config.require_next_update {
                return Err(ResponseError::BlankNextUpdate);
            }
        }
    }

    Ok(ValidatedResponse {
        status: single.status.clone(),
        produced_at: basic.produced_at,
        this_update: single.this_update,
        next_update: single.next_update,
        blank_next_update: single.next_update.is_none(),
        cert_count: basic.certs.len(),
        serial_count: basic.responses.len(),
        this_update_margin: received_at - single.this_update,
    })
}

/// Signature check: directly under the issuer key, or under a delegate
/// that (a) is signed by the issuer and (b) carries id-kp-OCSPSigning.
/// Separated out so [`SigVerifyCache`] can memoize exactly this stage.
fn verify_signature_stage(
    basic: &BasicResponse,
    issuer: &Certificate,
) -> Result<(), ResponseError> {
    if basic.verify_signature(issuer.public_key()) {
        return Ok(());
    }
    let delegate = basic
        .certs
        .iter()
        .find(|c| c.allows_ocsp_signing() && basic.verify_signature(c.public_key()));
    match delegate {
        Some(delegate) => {
            if !delegate.verify_signature(issuer.public_key()) {
                return Err(ResponseError::UntrustedDelegate);
            }
            Ok(())
        }
        None => {
            // Any certs present but none fit? Distinguish "a cert
            // claims to sign but is not delegated" from plain bad sig.
            let signer_without_eku = basic
                .certs
                .iter()
                .any(|c| basic.verify_signature(c.public_key()) && !c.allows_ocsp_signing());
            if signer_without_eku {
                return Err(ResponseError::UntrustedDelegate);
            }
            Err(ResponseError::SignatureInvalid)
        }
    }
}

/// [`validate_response`] plus telemetry: counts the outcome under
/// `(metric, label)` where the label is `ok` or the error's
/// [`ResponseError::metric_label`].
///
/// `metric` is caller-supplied so each pipeline gets its own counter
/// namespace (e.g. `scan.hourly.validate` vs `scan.consistency.validate`)
/// and cross-checks against per-pipeline figures stay exact.
pub fn validate_response_with(
    reg: &mut telemetry::Registry,
    metric: Metric,
    body: &[u8],
    cert_id: &CertId,
    issuer: &Certificate,
    received_at: Time,
    config: ValidationConfig,
) -> Result<ValidatedResponse, ResponseError> {
    let result = validate_response(body, cert_id, issuer, received_at, config);
    let label = match &result {
        Ok(_) => "ok",
        Err(err) => err.metric_label(),
    };
    reg.incr(metric, label);
    result
}

/// [`validate_response_with`] through a [`SigVerifyCache`]: the outcome
/// counter is identical to the uncached path (so per-pipeline
/// cross-checks are unaffected), and `ocsp.validate.sigcache.{hit,miss}`
/// records the signature memo's effectiveness separately. `body` is the
/// shared buffer the transport delivered, which the memo keeps.
#[allow(clippy::too_many_arguments, reason = "uncached arguments and a memo")]
pub fn validate_response_cached(
    reg: &mut telemetry::Registry,
    metric: Metric,
    cache: &mut SigVerifyCache,
    body: &Arc<[u8]>,
    cert_id: &CertId,
    issuer: &Certificate,
    received_at: Time,
    config: ValidationConfig,
) -> Result<ValidatedResponse, ResponseError> {
    let result = validate_memoized(cache, reg, body, cert_id, issuer, received_at, config);
    let label = match &result {
        Ok(_) => "ok",
        Err(err) => err.metric_label(),
    };
    reg.incr(metric, label);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MalformMode, ResponderProfile};
    use crate::request::OcspRequest;
    use crate::responder::Responder;
    use pki::{CertificateAuthority, IssueParams, RevocationReason};
    use rand::{rngs::StdRng, SeedableRng};

    fn now() -> Time {
        Time::from_civil(2018, 5, 1, 12, 0, 0)
    }

    struct Fixture {
        ca: CertificateAuthority,
        leaf: Certificate,
        id: CertId,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now());
        let leaf = ca.issue(&mut rng, &IssueParams::new("v.example", now()));
        let id = CertId::for_certificate(&leaf, ca.certificate());
        Fixture { ca, leaf, id }
    }

    fn fetch(f: &Fixture, profile: ResponderProfile, at: Time) -> Arc<[u8]> {
        let mut responder = Responder::new("u", profile);
        responder
            .handle(&f.ca, &OcspRequest::single(f.id.clone()), at)
            .into()
    }

    fn check(
        f: &Fixture,
        profile: ResponderProfile,
        config: ValidationConfig,
    ) -> Result<ValidatedResponse, ResponseError> {
        let body = fetch(f, profile, now());
        validate_response(&body, &f.id, f.ca.certificate(), now(), config)
    }

    /// `check` for profiles that must validate cleanly (fixture invariant).
    fn check_ok(
        f: &Fixture,
        profile: ResponderProfile,
        config: ValidationConfig,
    ) -> ValidatedResponse {
        check(f, profile, config).expect("fixture response must validate cleanly")
    }

    #[test]
    fn healthy_response_validates() {
        let f = fixture(1);
        let v = check_ok(&f, ResponderProfile::healthy(), ValidationConfig::default());
        assert_eq!(v.status, CertStatus::Good);
        assert_eq!(v.this_update_margin, 3_600);
        assert_eq!(v.validity_period(), Some(7 * 86_400));
        assert!(!v.blank_next_update);
        assert_eq!(v.serial_count, 1);
        assert_eq!(v.cert_count, 0);
        let _ = &f.leaf;
    }

    #[test]
    fn revoked_status_passes_validation() {
        let mut f = fixture(2);
        f.ca.revoke(
            f.leaf.serial(),
            now() - 50,
            Some(RevocationReason::Superseded),
        );
        let v = check_ok(&f, ResponderProfile::healthy(), ValidationConfig::default());
        assert!(matches!(v.status, CertStatus::Revoked { .. }));
    }

    #[test]
    fn malformed_bodies_classified() {
        let f = fixture(3);
        for mode in [
            MalformMode::LiteralZero,
            MalformMode::Empty,
            MalformMode::JavascriptPage,
            MalformMode::TruncatedDer,
        ] {
            let err = check(
                &f,
                ResponderProfile::healthy().malformed(mode),
                ValidationConfig::default(),
            )
            .unwrap_err();
            assert_eq!(err, ResponseError::MalformedStructure, "{mode:?}");
        }
    }

    /// A healthy body with its status byte edited from `successful` (0)
    /// to `malformedRequest` (1) still carries its `responseBytes`,
    /// which RFC 6960 sends only with `successful`: it is malformed, not
    /// an error status.
    #[test]
    fn error_status_with_response_bytes_is_malformed() {
        let f = fixture(3);
        let mut body = fetch(&f, ResponderProfile::healthy(), now()).to_vec();
        // SEQUENCE header (long-form length), then ENUMERATED 0.
        let at = usize::from(body[1] & 0x7f) + 2;
        assert_eq!(body[at..at + 3], [0x0a, 0x01, 0x00]);
        body[at + 2] = 0x01;
        let err = validate_response(&body, &f.id, f.ca.certificate(), now(), Default::default())
            .unwrap_err();
        assert_eq!(err, ResponseError::MalformedStructure);
    }

    #[test]
    fn serial_mismatch_classified() {
        let f = fixture(4);
        let err = check(
            &f,
            ResponderProfile::healthy().wrong_serial(),
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ResponseError::SerialMismatch);
    }

    #[test]
    fn bad_signature_classified() {
        let f = fixture(5);
        let err = check(
            &f,
            ResponderProfile::healthy().corrupt_signature(),
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ResponseError::SignatureInvalid);
    }

    #[test]
    fn zero_margin_fails_slow_clock_only() {
        let f = fixture(6);
        // Zero margin + accurate clock: fine.
        check_ok(
            &f,
            ResponderProfile::healthy().margin(0),
            ValidationConfig::default(),
        );
        // Zero margin + clock 30 s slow: rejected as not yet valid.
        let err = check(
            &f,
            ResponderProfile::healthy().margin(0),
            ValidationConfig {
                clock_skew: -30,
                require_next_update: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, ResponseError::NotYetValid { early_by: 30 });
        // Healthy margin + slow clock: fine.
        check_ok(
            &f,
            ResponderProfile::healthy(),
            ValidationConfig {
                clock_skew: -30,
                require_next_update: false,
            },
        );
    }

    #[test]
    fn future_this_update_fails_even_accurate_clocks() {
        let f = fixture(7);
        let err = check(
            &f,
            ResponderProfile::healthy().margin(-120),
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ResponseError::NotYetValid { early_by: 120 });
    }

    #[test]
    fn expired_response_rejected() {
        let f = fixture(8);
        // Fetch at `now`, validate a day after the 2h validity lapsed.
        let body = fetch(&f, ResponderProfile::healthy().validity(7_200), now());
        let later = now() + 86_400;
        let err = validate_response(
            &body,
            &f.id,
            f.ca.certificate(),
            later,
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ResponseError::Expired {
                late_by: 86_400 - (7_200 - 3_600)
            }
        );
    }

    #[test]
    fn blank_next_update_accepted_by_default_rejected_when_strict() {
        let f = fixture(9);
        let v = check_ok(
            &f,
            ResponderProfile::healthy().blank_next_update(),
            ValidationConfig::default(),
        );
        assert!(v.blank_next_update);
        assert_eq!(v.validity_period(), None);
        assert_eq!(v.cacheable_for(now()), None);

        let err = check(
            &f,
            ResponderProfile::healthy().blank_next_update(),
            ValidationConfig {
                clock_skew: 0,
                require_next_update: true,
            },
        )
        .unwrap_err();
        assert_eq!(err, ResponseError::BlankNextUpdate);
    }

    #[test]
    fn error_status_classified() {
        let f = fixture(10);
        // Ask about a foreign issuer to trigger Unauthorized.
        let foreign = CertId {
            issuer_name_hash: [1; 32],
            issuer_key_hash: [2; 32],
            serial: pki::Serial::from_u64(3),
        };
        let mut responder = Responder::new("u", ResponderProfile::healthy());
        let body = responder.handle(&f.ca, &OcspRequest::single(foreign.clone()), now());
        let err = validate_response(
            &body,
            &foreign,
            f.ca.certificate(),
            now(),
            Default::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ResponseError::ErrorStatus(ResponseStatus::Unauthorized)
        );
    }

    #[test]
    fn delegated_signature_validates() {
        let mut f = fixture(11);
        let mut rng = StdRng::seed_from_u64(50);
        let (cert, key) = f.ca.issue_ocsp_signer(&mut rng, now());
        let mut responder =
            Responder::with_delegated_signer("u", ResponderProfile::healthy(), cert, key);
        let body = responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now());
        let v = validate_response(&body, &f.id, f.ca.certificate(), now(), Default::default())
            .expect("delegated response must validate against the issuing CA");
        assert_eq!(v.status, CertStatus::Good);
        assert_eq!(v.cert_count, 1);
    }

    #[test]
    fn delegate_from_wrong_ca_rejected() {
        let f = fixture(12);
        let mut rng = StdRng::seed_from_u64(51);
        // Delegate issued by an unrelated CA.
        let mut other =
            CertificateAuthority::new_root(&mut rng, "Evil", "Evil Root", "e.test", now());
        let (cert, key) = other.issue_ocsp_signer(&mut rng, now());
        let mut responder =
            Responder::with_delegated_signer("u", ResponderProfile::healthy(), cert, key);
        let body = responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now());
        let err = validate_response(&body, &f.id, f.ca.certificate(), now(), Default::default())
            .unwrap_err();
        assert_eq!(err, ResponseError::UntrustedDelegate);
        let _ = f.ca.issued_count();
    }

    #[test]
    fn instrumented_validation_counts_per_variant() {
        let f = fixture(20);
        let mut reg = telemetry::Registry::new();
        let metric = catalog::SCAN_CONSISTENCY_VALIDATE;

        let ok_body = fetch(&f, ResponderProfile::healthy(), now());
        validate_response_with(
            &mut reg,
            metric,
            &ok_body,
            &f.id,
            f.ca.certificate(),
            now(),
            ValidationConfig::default(),
        )
        .expect("healthy body must validate");

        let malformed = fetch(
            &f,
            ResponderProfile::healthy().malformed(MalformMode::Empty),
            now(),
        );
        for _ in 0..2 {
            validate_response_with(
                &mut reg,
                metric,
                &malformed,
                &f.id,
                f.ca.certificate(),
                now(),
                ValidationConfig::default(),
            )
            .unwrap_err();
        }

        let bad_sig = fetch(&f, ResponderProfile::healthy().corrupt_signature(), now());
        validate_response_with(
            &mut reg,
            metric,
            &bad_sig,
            &f.id,
            f.ca.certificate(),
            now(),
            ValidationConfig::default(),
        )
        .unwrap_err();

        assert_eq!(reg.counter(metric, "ok"), 1);
        assert_eq!(reg.counter(metric, "err.malformed_structure"), 2);
        assert_eq!(reg.counter(metric, "err.signature_invalid"), 1);
        assert_eq!(reg.counter_total(metric), 4);
    }

    #[test]
    fn sigcache_memoizes_signature_outcomes_only() {
        let f = fixture(21);
        let mut reg = telemetry::Registry::new();
        let mut cache = SigVerifyCache::new();
        let metric = catalog::SCAN_CONSISTENCY_VALIDATE;

        // Same signed bytes validated repeatedly: one miss, then hits,
        // with outcomes identical to the uncached path.
        let ok_body = fetch(&f, ResponderProfile::healthy(), now());
        for i in 0..3 {
            let cached = validate_response_cached(
                &mut reg,
                metric,
                &mut cache,
                &ok_body,
                &f.id,
                f.ca.certificate(),
                now() + i,
                ValidationConfig::default(),
            )
            .expect("cached validation of a healthy body must succeed");
            let plain = validate_response(
                &ok_body,
                &f.id,
                f.ca.certificate(),
                now() + i,
                ValidationConfig::default(),
            )
            .expect("uncached validation of a healthy body must succeed");
            assert_eq!(cached, plain);
        }
        assert_eq!(reg.counter("ocsp.validate.sigcache", "miss"), 1);
        assert_eq!(reg.counter("ocsp.validate.sigcache", "hit"), 2);
        assert_eq!(cache.len(), 1);

        // Error outcomes are memoized too.
        let bad_sig = fetch(&f, ResponderProfile::healthy().corrupt_signature(), now());
        for _ in 0..2 {
            let err = validate_response_cached(
                &mut reg,
                metric,
                &mut cache,
                &bad_sig,
                &f.id,
                f.ca.certificate(),
                now(),
                ValidationConfig::default(),
            )
            .unwrap_err();
            assert_eq!(err, ResponseError::SignatureInvalid);
        }
        assert_eq!(reg.counter("ocsp.validate.sigcache", "miss"), 2);
        assert_eq!(reg.counter("ocsp.validate.sigcache", "hit"), 3);

        // Outcome counters match what the uncached wrapper would record.
        assert_eq!(reg.counter(metric, "ok"), 3);
        assert_eq!(reg.counter(metric, "err.signature_invalid"), 2);

        // Unparseable bodies never reach the signature stage, so they
        // add no signature outcome and no sigcache count.
        let malformed = fetch(
            &f,
            ResponderProfile::healthy().malformed(MalformMode::Empty),
            now(),
        );
        validate_response_cached(
            &mut reg,
            metric,
            &mut cache,
            &malformed,
            &f.id,
            f.ca.certificate(),
            now(),
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert_eq!(cache.len(), 2);
        assert_eq!(reg.counter_total("ocsp.validate.sigcache"), 5);
    }

    #[test]
    fn sigcache_keys_on_exact_bytes_and_issuer() {
        let f = fixture(23);
        let other = fixture(24);
        let mut reg = telemetry::Registry::new();
        let mut cache = SigVerifyCache::new();
        let mut validate = |body: &Arc<[u8]>, issuer: &Certificate| {
            validate_response_cached(
                &mut reg,
                catalog::SCAN_HOURLY_VALIDATE,
                &mut cache,
                body,
                &f.id,
                issuer,
                now(),
                ValidationConfig::default(),
            )
        };
        let good = |outcome: Result<ValidatedResponse, ResponseError>| {
            outcome.map(|validated| validated.status) == Ok(CertStatus::Good)
        };
        let body = fetch(&f, ResponderProfile::healthy(), now());
        assert!(good(validate(&body, f.ca.certificate())));

        // The signature ends the body (no certificates ride along): one
        // flipped bit in it is a different key, so a miss and a failure.
        let mut flipped = body.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            validate(&flipped.into(), f.ca.certificate()),
            Err(ResponseError::SignatureInvalid)
        );
        // The same bytes under another issuer are another key too.
        assert_eq!(
            validate(&body, other.ca.certificate()),
            Err(ResponseError::SignatureInvalid)
        );
        assert!(good(validate(&body, f.ca.certificate())));

        assert_eq!(reg.counter("ocsp.validate.sigcache", "miss"), 3);
        assert_eq!(reg.counter("ocsp.validate.sigcache", "hit"), 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn sigcache_hit_still_reruns_time_window_checks() {
        let f = fixture(22);
        let mut reg = telemetry::Registry::new();
        let mut cache = SigVerifyCache::new();
        let body = fetch(&f, ResponderProfile::healthy().validity(7_200), now());
        validate_response_cached(
            &mut reg,
            catalog::SCAN_HOURLY_VALIDATE,
            &mut cache,
            &body,
            &f.id,
            f.ca.certificate(),
            now(),
            ValidationConfig::default(),
        )
        .expect("fresh response must validate");
        // Same bytes, a day later: the sig stage hits but the window
        // check must still reject.
        let err = validate_response_cached(
            &mut reg,
            catalog::SCAN_HOURLY_VALIDATE,
            &mut cache,
            &body,
            &f.id,
            f.ca.certificate(),
            now() + 86_400,
            ValidationConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ResponseError::Expired { .. }));
        assert_eq!(reg.counter("ocsp.validate.sigcache", "hit"), 1);
    }

    #[test]
    fn every_error_variant_has_a_distinct_label() {
        let variants = [
            ResponseError::MalformedStructure,
            ResponseError::ErrorStatus(ResponseStatus::Unauthorized),
            ResponseError::MissingPayload,
            ResponseError::SerialMismatch,
            ResponseError::SignatureInvalid,
            ResponseError::UntrustedDelegate,
            ResponseError::NotYetValid { early_by: 1 },
            ResponseError::Expired { late_by: 1 },
            ResponseError::BlankNextUpdate,
        ];
        let labels: std::collections::BTreeSet<&str> =
            variants.iter().map(|v| v.metric_label()).collect();
        assert_eq!(labels.len(), variants.len());
        assert!(labels.iter().all(|l| l.starts_with("err.")));
    }

    #[test]
    fn validity_metrics_exposed() {
        let f = fixture(13);
        let v = check_ok(
            &f,
            ResponderProfile::healthy()
                .validity(30 * 86_400 + 1) // the "over one month" hazard
                .superfluous_certs(3)
                .extra_serials(19),
            ValidationConfig::default(),
        );
        assert_eq!(v.validity_period(), Some(30 * 86_400 + 1));
        assert_eq!(v.cert_count, 3);
        assert_eq!(v.serial_count, 20);
    }
}
