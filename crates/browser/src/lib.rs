//! Browser revocation-behavior models.
//!
//! §6 of the paper tests 16 browser/OS combinations against a controlled
//! domain serving a Must-Staple certificate *without* a staple, and
//! records three behaviors (its Table 2):
//!
//! 1. **Request OCSP response** — does the ClientHello carry
//!    `status_request`? (All 16 do.)
//! 2. **Respect OCSP Must-Staple** — is the unstapled connection
//!    refused? (Only Firefox on the three desktop OSes and on Android.)
//! 3. **Send own OCSP request** — do the accepting browsers at least
//!    fall back to contacting the responder themselves? (None do.)
//!
//! [`profile`] encodes the measured matrix; [`client`] turns a profile
//! into an actual TLS client that produces handshake bytes and verdicts;
//! [`testsuite`] is the §6 methodology as a harness and regenerates
//! Table 2.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod client;
pub mod profile;
pub mod testsuite;

pub use client::{BrowserClient, ClientOutcome, NoTransport, OcspTransport, RejectReason, Verdict};
pub use profile::{BrowserProfile, Os, BROWSER_MATRIX};
pub use testsuite::{run_browser_suite, SuiteRow};
