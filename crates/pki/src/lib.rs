//! X.509-style PKI for the Must-Staple study.
//!
//! This crate implements the certificate machinery the paper's measurement
//! pipeline exercises:
//!
//! * [`cert`] — certificates with real DER encoding, including every
//!   extension the study inspects: Authority Information Access (OCSP and
//!   caIssuers URLs), CRL Distribution Points, Basic Constraints, Key
//!   Usage, Extended Key Usage (OCSP signing delegation), Subject
//!   Alternative Name, and — centrally — the **TLS Feature extension**
//!   (OID `1.3.6.1.5.5.7.1.24`) whose `status_request` feature is OCSP
//!   Must-Staple;
//! * [`crl`] — certificate revocation lists with reason codes and
//!   validity windows (`thisUpdate`/`nextUpdate`), used in §5.4's
//!   CRL↔OCSP consistency study;
//! * [`ca`] — a certificate authority engine that issues roots,
//!   intermediates, leaves, and delegated OCSP-signer certificates, and
//!   maintains the revocation database that backs both its CRL and its
//!   OCSP responder (including the paper-observed failure mode of the two
//!   views drifting apart);
//! * [`chain`] — client-side chain validation with typed errors;
//! * [`store`] — trusted root stores (the study validates against the
//!   union of Apple/Microsoft/Mozilla-like stores).
//!
//! Signatures use the [`simcrypto`] toy-RSA scheme; they really verify
//! and really fail when tampered with, which the study's fault injection
//! depends on.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ca;
pub mod cert;
pub mod chain;
pub mod crl;
pub mod extensions;
pub mod name;
pub mod serial;
pub mod store;

pub use asn1::Time;
pub use ca::{CertificateAuthority, IssueParams};
pub use cert::{Certificate, TbsCertificate, Validity};
pub use chain::{validate_chain, ChainError};
pub use crl::{Crl, RevocationReason, RevokedEntry};
pub use extensions::{AuthorityInfoAccess, BasicConstraints, Extension, KeyUsage, TlsFeature};
pub use name::Name;
pub use serial::Serial;
pub use store::RootStore;
