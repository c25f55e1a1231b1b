//! Property tests for the OCSP wire formats and the responder/validator
//! pair: round-trips over randomized contents, the request parser's
//! typed refusal of any bytes that are not a request, the invariant that a
//! healthy responder's answer always validates while a mutated answer
//! never validates as authentic, and the equivalence of the memoized
//! validator with the uncached one.

use asn1::Time;
use mustaple_ocsp::{
    validate_response, validate_response_cached, CertId, CertStatus, MalformMode, OcspRequest,
    OcspResponse, Responder, ResponderProfile, ResponseStatus, SigVerifyCache, SingleResponse,
    ValidationConfig,
};
use pki::{Certificate, CertificateAuthority, IssueParams, RevocationReason, Serial};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use simcrypto::KeyPair;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use telemetry::{catalog, Registry};

thread_local! {
    static ENV: OnceCell<(CertificateAuthority, CertId, KeyPair)> = const { OnceCell::new() };
    static MEMO_ENV: OnceCell<MemoEnv> = const { OnceCell::new() };
}

/// What the memo property draws from: two issuers, the bodies a scan can
/// receive, two CertIds to ask about, and instants on both sides of the
/// healthy validity window.
struct MemoEnv {
    issuers: [Certificate; 2],
    /// `ids[0]` is the certificate every body answers about; `ids[1]` is
    /// its neighbour serial, which only the wrong-serial body answers.
    ids: [CertId; 2],
    bodies: Vec<Vec<u8>>,
    times: [Time; 3],
}

fn with_memo_env<R>(f: impl FnOnce(&MemoEnv) -> R) -> R {
    MEMO_ENV.with(|cell| f(cell.get_or_init(memo_env)))
}

fn memo_env() -> MemoEnv {
    let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
    let mut rng = StdRng::seed_from_u64(0x3E30);
    let mut ca = CertificateAuthority::new_root(&mut rng, "Memo", "Memo Root", "memo.test", now);
    let other = CertificateAuthority::new_root(&mut rng, "Other", "Other Root", "other.test", now);
    let leaf = ca.issue(&mut rng, &IssueParams::new("memo.example", now));
    let id = CertId::for_certificate(&leaf, ca.certificate());
    let mut neighbour = id.clone();
    let mut serial = id.serial.bytes().to_vec();
    if let Some(last) = serial.last_mut() {
        *last ^= 0x01;
    }
    neighbour.serial = Serial::from_bytes(&serial);

    let request = OcspRequest::single(id.clone());
    let answer =
        |responder: &mut Responder, ca: &CertificateAuthority| responder.handle(ca, &request, now);
    let profiles = [
        ResponderProfile::healthy(),
        ResponderProfile::healthy().extra_serials(3),
        ResponderProfile::healthy().corrupt_signature(),
        ResponderProfile::healthy().wrong_serial(),
        ResponderProfile::healthy().malformed(MalformMode::TruncatedDer),
    ];
    let mut bodies: Vec<Vec<u8>> = profiles
        .into_iter()
        .map(|profile| answer(&mut Responder::new("u", profile), &ca))
        .collect();
    let (signer, key) = ca.issue_ocsp_signer(&mut rng, now);
    bodies.push(answer(
        &mut Responder::with_delegated_signer("u", ResponderProfile::healthy(), signer, key),
        &ca,
    ));
    // Asked of the other CA's responder: an `unauthorized` error status.
    bodies.push(answer(
        &mut Responder::new("u", ResponderProfile::healthy()),
        &other,
    ));
    // `successful` with no payload.
    bodies.push(
        OcspResponse {
            status: ResponseStatus::Successful,
            basic: None,
        }
        .to_der(),
    );
    bodies.push(b"0".to_vec());
    bodies.push(Vec::new());
    MemoEnv {
        issuers: [ca.certificate().clone(), other.certificate().clone()],
        ids: [id, neighbour],
        bodies,
        // Healthy bodies are valid from `now - 3600` for seven days.
        times: [now - 7_200, now, now + 8 * 86_400],
    }
}

/// Whether validating `body` for `id` reaches the signature stage: the
/// body parses, is `successful` with a payload, and answers `id`'s
/// serial.
fn reaches_signature_stage(body: &[u8], id: &CertId) -> bool {
    OcspResponse::from_der(body)
        .ok()
        .filter(|response| response.status == ResponseStatus::Successful)
        .and_then(|response| response.basic)
        .is_some_and(|basic| {
            basic
                .responses
                .iter()
                .any(|s| s.cert_id.serial == id.serial)
        })
}

/// Each body as two shared buffers holding the same bytes: body `i` is
/// buffer `i`, handed out again on every draw of `i`, and buffer
/// `i + bodies.len()` is a second copy, which the memo must find by its
/// bytes.
fn shared_buffers(bodies: &[Vec<u8>]) -> Vec<Arc<[u8]>> {
    let buffer = |body: &Vec<u8>| Arc::<[u8]>::from(&body[..]);
    bodies
        .iter()
        .map(buffer)
        .chain(bodies.iter().map(buffer))
        .collect()
}

/// Validate a sequence of `(body, id, issuer, time)` draws through one
/// memo, checking each result against the uncached validator and the
/// memo's counters against the calls that reach the signature stage.
/// Counters are per distinct bytes, whichever buffer holds them.
fn check_memo_sequence(
    env: &MemoEnv,
    bodies: &[Arc<[u8]>],
    calls: &[(usize, usize, usize, usize)],
) -> Result<(), TestCaseError> {
    let mut reg = Registry::new();
    let mut cache = SigVerifyCache::new();
    let (mut reaching, mut distinct) = (0u64, BTreeSet::new());
    for &(body, id, issuer, time) in calls {
        let (body, id, issuer, at) = (
            &bodies[body],
            &env.ids[id],
            &env.issuers[issuer],
            env.times[time],
        );
        let cached = validate_response_cached(
            &mut reg,
            catalog::SCAN_HOURLY_VALIDATE,
            &mut cache,
            body,
            id,
            issuer,
            at,
            ValidationConfig::default(),
        );
        let plain = validate_response(body, id, issuer, at, ValidationConfig::default());
        prop_assert_eq!(&cached, &plain);
        if reaches_signature_stage(body, id) {
            reaching += 1;
            distinct.insert((issuer.public_key().key_id(), body.to_vec()));
        }
    }
    let hits = reg.counter(catalog::OCSP_VALIDATE_SIGCACHE, "hit");
    let misses = reg.counter(catalog::OCSP_VALIDATE_SIGCACHE, "miss");
    prop_assert_eq!(hits + misses, reaching);
    prop_assert_eq!(misses, distinct.len() as u64);
    prop_assert_eq!(cache.len(), distinct.len());
    prop_assert_eq!(
        reg.counter_total(catalog::SCAN_HOURLY_VALIDATE),
        calls.len() as u64
    );
    Ok(())
}

fn with_env<R>(f: impl FnOnce(&CertificateAuthority, &CertId, &KeyPair) -> R) -> R {
    ENV.with(|cell| {
        let (ca, id, kp) = cell.get_or_init(|| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let mut rng = StdRng::seed_from_u64(0xA11CE);
            let mut ca =
                CertificateAuthority::new_root(&mut rng, "Prop", "Prop Root", "prop.test", now);
            let leaf = ca.issue(&mut rng, &IssueParams::new("prop.example", now));
            let id = CertId::for_certificate(&leaf, ca.certificate());
            let kp = KeyPair::generate(&mut rng, 384);
            (ca, id, kp)
        });
        f(ca, id, kp)
    })
}

fn arb_serial() -> impl Strategy<Value = Serial> {
    proptest::collection::vec(any::<u8>(), 1..20).prop_map(|b| Serial::from_bytes(&b))
}

fn arb_time() -> impl Strategy<Value = Time> {
    (1_400_000_000i64..1_700_000_000).prop_map(Time::from_unix)
}

fn arb_status() -> impl Strategy<Value = CertStatus> {
    prop_oneof![
        Just(CertStatus::Good),
        Just(CertStatus::Unknown),
        (
            arb_time(),
            proptest::option::of(Just(RevocationReason::KeyCompromise))
        )
            .prop_map(|(time, reason)| CertStatus::Revoked { time, reason }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn requests_round_trip(
        serials in proptest::collection::vec(arb_serial(), 1..8),
        nonce in proptest::option::of(proptest::collection::vec(any::<u8>(), 8..32)),
    ) {
        let cert_ids: Vec<CertId> = serials
            .into_iter()
            .map(|serial| CertId {
                issuer_name_hash: [1; 32],
                issuer_key_hash: [2; 32],
                serial,
            })
            .collect();
        let req = OcspRequest { cert_ids, nonce };
        let back = OcspRequest::from_der(&req.to_der()).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip(
        singles in proptest::collection::vec(
            (arb_serial(), arb_status(), arb_time(), proptest::option::of(0i64..10_000_000)),
            1..6
        ),
        produced in arb_time(),
    ) {
        with_env(|_, _, kp| {
            let responses: Vec<SingleResponse> = singles
                .iter()
                .cloned()
                .map(|(serial, status, this_update, validity)| SingleResponse {
                    cert_id: CertId {
                        issuer_name_hash: [3; 32],
                        issuer_key_hash: [4; 32],
                        serial,
                    },
                    status,
                    this_update,
                    next_update: validity.map(|v| this_update + v),
                })
                .collect();
            let resp = OcspResponse::successful(kp, produced, responses, vec![]);
            let der = resp.to_der();
            let back = OcspResponse::from_der(&der).unwrap();
            prop_assert_eq!(&back, &resp);
            prop_assert!(back.basic.unwrap().verify_signature(kp.public()));
            Ok(())
        })?;
    }

    /// A healthy responder's output always validates at receipt time.
    #[test]
    fn healthy_responses_always_validate(
        validity in 3_600i64..(30 * 86_400),
        margin in 0i64..1_800,
        at_offset in 0i64..(90 * 86_400),
    ) {
        with_env(|ca, id, _| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0) + at_offset;
            let mut responder = Responder::new(
                "u",
                ResponderProfile::healthy().validity(validity).margin(margin),
            );
            let body = responder.handle(ca, &OcspRequest::single(id.clone()), now);
            let v = validate_response(&body, id, ca.certificate(), now, ValidationConfig::default());
            let v = match v {
                Ok(v) => v,
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            };
            prop_assert_eq!(v.validity_period(), Some(validity));
            prop_assert_eq!(v.this_update_margin, margin);
            prop_assert_eq!(v.status, CertStatus::Good);
            Ok(())
        })?;
    }

    /// Any single-byte mutation of a healthy response either fails to
    /// parse or fails validation — it can never produce a *different*
    /// accepted answer.
    #[test]
    fn mutated_responses_never_validate_differently(
        idx_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        with_env(|ca, id, _| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let mut responder = Responder::new("u", ResponderProfile::healthy());
            let clean = responder.handle(ca, &OcspRequest::single(id.clone()), now);
            let baseline =
                validate_response(&clean, id, ca.certificate(), now, Default::default()).unwrap();

            let mut body = clean.clone();
            let idx = ((body.len() - 1) as f64 * idx_frac) as usize;
            body[idx] ^= xor;
            if let Ok(v) = validate_response(&body, id, ca.certificate(), now, Default::default()) {
                // Only acceptable if the mutation hit a byte that does
                // not change the decoded content (impossible for DER of
                // this shape except... nothing: assert equality).
                prop_assert_eq!(v, baseline, "mutation at {} xor {:#x} accepted", idx, xor);
            }
            Ok(())
        })?;
    }

    /// `OcspRequest::from_der` parses every `/ocsp` body `ocspd` is
    /// sent: on arbitrary bytes, and on every single-byte edit and every
    /// truncation of a valid request, it returns a request or a typed
    /// error and never panics, and it refuses every proper prefix.
    #[test]
    fn request_parser_refuses_what_is_not_a_request(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        serials in proptest::collection::vec(arb_serial(), 1..6),
        nonce in proptest::option::of(proptest::collection::vec(any::<u8>(), 8..32)),
        xor in 1u8..=255,
    ) {
        let _ = OcspRequest::from_der(&bytes);
        let cert_ids = serials
            .into_iter()
            .map(|serial| CertId {
                issuer_name_hash: [1; 32],
                issuer_key_hash: [2; 32],
                serial,
            })
            .collect();
        let request = OcspRequest { cert_ids, nonce };
        let der = request.to_der();
        prop_assert_eq!(OcspRequest::from_der(&der), Ok(request));
        let mut edited = der.clone();
        for i in 0..der.len() {
            edited[i] ^= xor;
            let _ = OcspRequest::from_der(&edited);
            edited[i] ^= xor;
        }
        for cut in 0..der.len() {
            let parsed = OcspRequest::from_der(&der[..cut]);
            prop_assert!(parsed.is_err(), "the {cut}-byte prefix parsed: {parsed:?}");
        }
    }

    /// Truncation at any point is never accepted.
    #[test]
    fn truncated_responses_rejected(cut_frac in 0.01f64..0.99) {
        with_env(|ca, id, _| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let mut responder = Responder::new("u", ResponderProfile::healthy());
            let clean = responder.handle(ca, &OcspRequest::single(id.clone()), now);
            let cut = ((clean.len() as f64) * cut_frac) as usize;
            let body = &clean[..cut];
            prop_assert!(
                validate_response(body, id, ca.certificate(), now, Default::default()).is_err()
            );
            Ok(())
        })?;
    }

    /// The memoized validator is the uncached one: every result is
    /// equal, signature hits and misses fall exactly on the calls that
    /// reach the signature stage, and each distinct (issuer, body) pair
    /// that reaches it misses once. The body pool gains one mutated copy
    /// of the healthy body per case, and every body comes in two buffers
    /// (see `shared_buffers`), so draws repeat one buffer and mix equal
    /// bytes in distinct ones.
    #[test]
    fn memoized_validation_equals_uncached(
        calls in proptest::collection::vec((0usize..22, 0usize..2, 0usize..2, 0usize..3), 1..48),
        idx_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        with_memo_env(|env| {
            let mut bodies = env.bodies.clone();
            let mut mutated = bodies[0].clone();
            let idx = ((mutated.len() - 1) as f64 * idx_frac) as usize;
            mutated[idx] ^= xor;
            bodies.push(mutated);
            check_memo_sequence(env, &shared_buffers(&bodies), &calls)
        })?;
    }

    /// The validator's time window is exact: acceptance flips at the
    /// boundaries.
    #[test]
    fn validity_window_boundaries_are_exact(validity in 3_600i64..86_400) {
        with_env(|ca, id, _| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let mut responder =
                Responder::new("u", ResponderProfile::healthy().margin(0).validity(validity));
            let body = responder.handle(ca, &OcspRequest::single(id.clone()), now);
            let check = |at: Time| {
                validate_response(&body, id, ca.certificate(), at, Default::default())
            };
            prop_assert!(check(now - 1).is_err(), "before thisUpdate");
            prop_assert!(check(now).is_ok(), "at thisUpdate");
            prop_assert!(check(now + validity).is_ok(), "at nextUpdate");
            prop_assert!(check(now + validity + 1).is_err(), "after nextUpdate");
            Ok(())
        })?;
    }
}

/// A body first seen under a serial it does not answer, then under one
/// it does: the first call never reaches the signature stage, so the
/// second is the miss, and every later call a hit.
#[test]
fn memo_counts_a_body_first_seen_under_a_mismatching_serial() {
    with_memo_env(|env| {
        let (healthy, wrong_serial) = (0, 3);
        let calls = [
            (healthy, 1, 0, 1),
            (healthy, 0, 0, 1),
            (healthy, 0, 0, 2),
            (wrong_serial, 0, 0, 1),
            (wrong_serial, 1, 0, 1),
            (wrong_serial, 1, 1, 0),
            (wrong_serial, 1, 0, 1),
        ];
        let outcome = check_memo_sequence(env, &shared_buffers(&env.bodies), &calls);
        assert!(outcome.is_ok(), "{outcome:?}");
    });
}
