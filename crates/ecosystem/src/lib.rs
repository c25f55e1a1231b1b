//! The synthetic certificate ecosystem.
//!
//! The paper's raw inputs are (a) a Censys certificate snapshot
//! (489,580,002 certificates, 112,841,653 valid), (b) the Alexa Top-1M
//! list, and (c) the live Internet of OCSP responders. None of those are
//! available offline, so this crate generates faithful synthetic
//! equivalents, *calibrated to the paper's own measured marginals* (all
//! constants live in [`calibration`] with section references):
//!
//! * [`corpus`] — a statistical certificate corpus for the §4 adoption
//!   analysis (OCSP support, Must-Staple share, per-CA breakdown);
//! * [`alexa`] — a popularity-ranked domain list with rank-dependent
//!   HTTPS/OCSP/stapling adoption (Figures 2 and 11);
//! * [`history`] — monthly snapshots May 2016 → Sep 2018, including the
//!   Cloudflare cruise-liner spike of June 2017 (Figure 12);
//! * [`authorities`] — the named CA operators with their responder
//!   quality profiles and shared-infrastructure groups;
//! * [`live`] — the *live* ecosystem: real CAs, real responders, a
//!   [`netsim::World`] wired with the paper's outage script, scan
//!   targets, and the revoked-certificate pool for the §5.4 consistency
//!   study;
//! * [`stream`] — the pull-based certificate feeds: seeded deterministic
//!   iterators over [`corpus`] and [`alexa`] records, enabling
//!   bounded-memory ×N scale (DESIGN.md §13).
//!
//! Scale is configurable; see [`config::EcosystemConfig`]. Defaults are
//! roughly 1:5 on responders and 1:1000 on certificate volume, which
//! keeps a full four-month campaign under a couple of minutes while
//! preserving every distribution shape.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod alexa;
pub mod authorities;
pub mod calibration;
pub mod config;
pub mod corpus;
pub mod history;
pub mod live;
pub mod stream;

pub use alexa::AlexaSite;
pub use authorities::{ConsistencyFault, OperatorSpec};
pub use config::EcosystemConfig;
pub use corpus::CorpusStats;
pub use history::monthly_snapshots;
pub use live::{LiveEcosystem, ScanTarget};
pub use stream::{AlexaStream, CorpusFold, CorpusStream};
