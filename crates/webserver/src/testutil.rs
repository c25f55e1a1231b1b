//! Shared fixtures for the server-model tests.
#![allow(missing_docs, reason = "test fixtures")]

use crate::server::SiteConfig;
use asn1::Time;
use ocsp::{CertId, OcspRequest, OcspResponse, Responder, ResponderProfile, ResponseStatus};
use pki::{CertificateAuthority, IssueParams};
use rand::{rngs::StdRng, SeedableRng};

pub struct Fixture {
    pub ca: CertificateAuthority,
    pub id: CertId,
    pub site: SiteConfig,
}

pub fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let now = Time::from_civil(2018, 6, 1, 0, 0, 0);
    let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now);
    let leaf = ca.issue(
        &mut rng,
        &IssueParams::new("site.example", now).must_staple(true),
    );
    let id = CertId::for_certificate(&leaf, ca.certificate());
    let site = SiteConfig {
        chain: vec![leaf.clone(), ca.certificate().clone()],
    };
    Fixture { ca, id, site }
}

/// Healthy 7-day-validity response bytes generated at `now`.
pub fn staple_bytes(f: &Fixture, now: Time) -> Vec<u8> {
    let mut responder = Responder::new("u", ResponderProfile::healthy());
    responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now)
}

/// Response bytes whose validity is only `validity_secs` (zero margin so
/// the window starts exactly at `now`).
pub fn expired_staple_at(f: &Fixture, now: Time, validity_secs: i64) -> Vec<u8> {
    let mut responder = Responder::new(
        "u",
        ResponderProfile::healthy()
            .margin(0)
            .validity(validity_secs),
    );
    responder.handle(&f.ca, &OcspRequest::single(f.id.clone()), now)
}

/// A `tryLater` OCSP error response body.
pub fn try_later_bytes() -> Vec<u8> {
    OcspResponse::error(ResponseStatus::TryLater).to_der()
}
