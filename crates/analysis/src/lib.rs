//! Analysis toolkit for the measurement pipelines.
//!
//! Small, dependency-free statistics utilities shaped around what the
//! paper's figures need:
//!
//! * [`cdf`] — cumulative distributions, including samples at +∞
//!   (Figure 8 plots blank `nextUpdate` validity periods as infinite);
//! * [`timeseries`] — time-binned aggregation for the availability
//!   plots (Figures 3–5, 12), with a dense round-indexed form for
//!   campaigns whose bins are known up front;
//! * [`bins`] — Alexa-rank binning (bins of 10 000) for the adoption
//!   curves (Figures 2 and 11);
//! * [`table`] — plain-text and CSV rendering used by the `figures`
//!   binary so every table/figure has a machine-readable artifact;
//! * [`stats`] — multi-seed ensemble statistics: mean / sample stddev /
//!   Student-t 95 % confidence intervals per CSV cell, and the
//!   `*.ens.csv` companion-table folding (DESIGN.md §11);
//! * [`stream`] — incremental accumulators for bounded-memory ×N scale:
//!   an exact count-map [`StreamingCdf`] mirroring [`Cdf`] byte for
//!   byte, and the folded Figure 2/11 rank-adoption summary
//!   (DESIGN.md §13).

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod bins;
pub mod cdf;
pub mod stats;
pub mod stream;
pub mod table;
pub mod timeseries;

pub use bins::RankBins;
pub use cdf::Cdf;
pub use stats::{Summary, Welford};
pub use stream::{AlexaAdoption, StreamingCdf};
pub use table::Table;
pub use timeseries::{DenseBins, TimeSeries};
