//! Web-server OCSP Stapling models.
//!
//! §7.2 of the paper tests how Apache 2.4.18 and Nginx 1.13.12 implement
//! OCSP Stapling, across four behaviors (its Table 3):
//!
//! | Experiment                     | Apache            | Nginx              |
//! |--------------------------------|-------------------|--------------------|
//! | Prefetch OCSP response         | ✗ (pauses conn.)  | ✗ (no response)    |
//! | Cache OCSP response            | ✓                 | ✓                  |
//! | Respect `nextUpdate` in cache  | ✗                 | ✓                  |
//! | Retain OCSP response on error  | ✗                 | ✓                  |
//!
//! [`apache::Apache`] and [`nginx::Nginx`] are faithful state machines
//! for those measured behaviors; [`ideal::Ideal`] implements the paper's
//! §8 recommendation (pre-fetch on a schedule, refresh ahead of expiry,
//! retain on error). [`experiment`] is the §7.2 test harness itself — it
//! regenerates Table 3 against any [`StaplingServer`].

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod apache;
pub mod experiment;
pub mod fetcher;
pub mod ideal;
pub mod multistaple;
pub mod nginx;
pub mod server;

#[cfg(test)]
mod testutil;

pub use apache::Apache;
pub use experiment::{run_table3_experiments, Table3Row};
pub use fetcher::{FetchOutcome, FnFetcher, OcspFetcher, ScriptedFetcher};
pub use ideal::Ideal;
pub use multistaple::{verify_multi_staple, MultiIdeal, MultiStapleError};
pub use nginx::Nginx;
pub use server::{ServerKind, StaplingServer};
