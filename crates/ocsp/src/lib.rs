//! OCSP (RFC 6960 subset) for the Must-Staple study.
//!
//! Three layers:
//!
//! * **Wire formats** — [`request`], [`response`], [`certid`]: real DER
//!   encode/decode of OCSPRequest, OCSPResponse/BasicOCSPResponse,
//!   CertID, CertStatus (Good/Revoked/Unknown), nonce extension, and
//!   delegated responder certificates.
//! * **Client validation** — [`validate`]: everything a careful client
//!   checks before trusting a response, classified with the paper's §5.3
//!   error taxonomy (malformed structure / serial mismatch / incorrect
//!   signature) plus the §5.4 quality checks (premature `thisUpdate`,
//!   expired `nextUpdate`, blank `nextUpdate`).
//! * **Responder engine** — [`responder`] + [`profile`]: an OCSP
//!   responder whose behavior is controlled by a [`profile::ResponderProfile`]
//!   fault model reproducing every misbehavior the paper measured in the
//!   wild: bodies of `"0"`, empty bodies, JavaScript pages, serial
//!   mismatches, corrupt signatures, superfluous certificates,
//!   multi-serial responses, blank/month-long validity, zero-margin and
//!   future `thisUpdate`, pre-generation with non-overlapping windows,
//!   and multi-instance `producedAt` regressions.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod certid;
pub mod profile;
pub mod request;
pub mod responder;
pub mod response;
pub mod validate;

pub use certid::CertId;
pub use profile::{MalformMode, ResponderProfile};
pub use request::OcspRequest;
pub use responder::Responder;
pub use response::{BasicResponse, CertStatus, OcspResponse, ResponseStatus, SingleResponse};
pub use validate::{
    validate_response, validate_response_cached, validate_response_with, ResponseError,
    SigVerifyCache, ValidatedResponse, ValidationConfig,
};
