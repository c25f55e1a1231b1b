//! The measurement pipelines of the study.
//!
//! Four campaigns, one module each, mirroring §5's methodology:
//!
//! * [`hourly`] — the **Hourly dataset**: every scan round, every vantage
//!   point POSTs an OCSP request for every tracked certificate to its
//!   responder, classifying the result with the full §5.2/§5.3 taxonomy
//!   and accumulating the per-responder quality metrics behind
//!   Figures 3, 5, 6, 7, 8, 9 and the §5.4 freshness analysis;
//! * [`alexa1m`] — the **Alexa1M scan**: maps popular domains to their
//!   responders and measures how many domains lose revocation checking
//!   during outages (Figure 4);
//! * [`consistency`] — the **CRL↔OCSP consistency study**: downloads
//!   CRLs, replays the revoked pool against OCSP, and reports status,
//!   revocation-time, and reason-code discrepancies (Table 1,
//!   Figure 10);
//! * [`cdnlog`] — the **CDN perspective**: replays traffic through a
//!   caching CDN edge and reports origin-contact rarity and success
//!   (§5.2's Akamai-log observation).
//!
//! All campaigns run on [`executor`] — a sharded, deterministic thread
//! executor whose output is byte-identical for every worker count.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod alexa1m;
pub mod cdnlog;
pub mod consistency;
pub mod executor;
pub mod hourly;
pub mod records;

pub use alexa1m::{Alexa1mScan, Alexa1mSummary};
pub use cdnlog::{CdnStudy, CdnSummary};
pub use consistency::{ConsistencyStudy, ConsistencySummary};
pub use executor::{seed_for_shard, Executor};
pub use hourly::{HourlyCampaign, HourlyDataset, ResponderReport};
pub use records::{ErrorClass, ProbeOutcome};
