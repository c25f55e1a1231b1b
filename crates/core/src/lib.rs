//! **mustaple** — a full reproduction of *"Is the Web Ready for OCSP
//! Must-Staple?"* (Chung et al., IMC 2018) as a Rust library.
//!
//! The paper measures whether the three principals of the web PKI are
//! ready for hard-fail OCSP stapling: certificate authorities (are their
//! responders available and correct?), clients (do browsers respect the
//! Must-Staple extension?), and web servers (do Apache/Nginx implement
//! stapling correctly?). This crate ties the whole reproduction
//! together:
//!
//! * [`Study`] runs every measurement campaign end to end against a
//!   synthetic-but-calibrated ecosystem and returns a [`StudyResults`]
//!   with everything each figure and table needs;
//! * [`readiness`] distills the §8 conclusion: per-principal verdicts
//!   and the overall "the web is not ready" assessment;
//! * everything else re-exports the underlying crates, so a downstream
//!   user needs only this one dependency.
//!
//! # Quick start
//!
//! ```
//! use mustaple::{Study, ecosystem::EcosystemConfig};
//!
//! let results = Study::new(EcosystemConfig::tiny()).run();
//! let report = results.readiness_report();
//! assert!(!report.web_is_ready());
//! println!("{}", report.render());
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod readiness;
pub mod study;

pub use readiness::{PrincipalVerdict, ReadinessReport};
pub use study::{Study, StudyResults};

// Re-export the subsystem crates under stable names.
pub use analysis;
pub use asn1;
pub use browser;
pub use ecosystem;
pub use netsim;
pub use ocsp;
pub use opsmon;
pub use pki;
pub use scanner;
pub use simcrypto;
pub use tls;
pub use webserver;
