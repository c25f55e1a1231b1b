//! Analysis toolkit for the measurement pipelines.
//!
//! Small, dependency-free statistics utilities shaped around what the
//! paper's figures need:
//!
//! * [`cdf`] — cumulative distributions, including samples at +∞
//!   (Figure 8 plots blank `nextUpdate` validity periods as infinite),
//!   held as distinct values with counts so partial CDFs merge;
//! * [`timeseries`] — round-indexed time bins for the availability
//!   plots (Figures 3–5), over a span fixed up front;
//! * [`bins`] — Alexa-rank binning (bins of 10 000) and the folded
//!   rank-adoption summary for the adoption curves (Figures 2 and 11);
//! * [`table`] — plain-text and CSV rendering used by the `figures`
//!   binary so every table/figure has a machine-readable artifact;
//! * [`stats`] — multi-seed ensemble statistics: mean / sample stddev /
//!   Student-t 95 % confidence intervals per CSV cell, and the
//!   `*.ens.csv` companion-table folding (DESIGN.md §11).
//!
//! Each statistic has one type. Every one of them is recorded one sample
//! at a time and never keeps the samples themselves (DESIGN.md §13).

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod bins;
pub mod cdf;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use bins::{AlexaAdoption, RankBins};
pub use cdf::Cdf;
pub use stats::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
