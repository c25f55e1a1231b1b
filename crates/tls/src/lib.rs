//! Simulated TLS handshake messages for the Must-Staple study.
//!
//! The study observes three things at the handshake layer (§6's
//! methodology captures client traffic to see exactly these):
//!
//! 1. does the client offer the **Certificate Status Request** extension
//!    (RFC 6066 `status_request`, extension type 5) in its ClientHello?
//! 2. does the server include a **CertificateStatus** message carrying a
//!    stapled OCSP response?
//! 3. what does the client do when a Must-Staple certificate arrives
//!    without a staple?
//!
//! [`wire`] implements real binary encodings of the three messages
//! involved (ClientHello with extensions, Certificate, CertificateStatus)
//! in the RFC 5246/6066 layout, so the measurement code inspects actual
//! bytes rather than boolean flags. [`handshake`] runs the
//! server-flight/client-verdict exchange and produces a
//! [`handshake::Transcript`].

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod handshake;
pub mod wire;

pub use handshake::{ServerFlight, Transcript};
pub use wire::{CertificateMsg, CertificateStatusMsg, ClientHello, WireError};
