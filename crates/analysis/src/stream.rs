//! Incremental (streaming) accumulators for bounded-memory analysis.
//!
//! The batch pipeline materializes a `Vec<f64>` per figure and sorts it
//! at query time ([`crate::Cdf`]). At ×100 scale those vectors are the
//! memory wall, so this module provides one-pass accumulators the scan
//! pipelines can feed per chunk and merge in canonical shard order:
//!
//! * [`StreamingCdf`] — an exact distribution accumulator: a count map
//!   over distinct sample values. Memory is `O(distinct values)` rather
//!   than `O(samples)`, and every query (`quantile`, `median`, `min`,
//!   `max`, `curve`, `fraction_at_most`) reproduces [`crate::Cdf`]'s
//!   answers *byte for byte*, including the infinite-mass contract
//!   (quantiles inside the +∞ mass are `None`).
//! * [`AlexaAdoption`] — the folded Figure 2 / Figure 11 rank-adoption
//!   summary: three [`RankBins`] recorded per site, so the Alexa list
//!   never has to be materialized.
//!
//! [`crate::TimeSeries`] is already an accumulator (binned counts with
//! an order-insensitive `merge`), and one-pass mean/stddev live in
//! [`crate::stats::Welford`]; together with this module they replace
//! every retained-vector analysis path (DESIGN.md §13).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::bins::RankBins;
use crate::cdf::Cdf;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A finite, non-NaN `f64` ordered by `total_cmp` — the `BTreeMap` key
/// of [`StreamingCdf`]. Construction normalizes `-0.0` to `+0.0` so the
/// key equality matches [`Cdf`]'s `==` semantics (which treat the two
/// zeros as one sample value).
#[derive(Debug, Clone, Copy)]
struct SampleKey(f64);

impl SampleKey {
    fn new(sample: f64) -> SampleKey {
        // -0.0 == 0.0 under f64 equality but not under total_cmp; fold
        // the two onto the +0.0 key so Ord and sample identity agree.
        SampleKey(if sample == 0.0 { 0.0 } else { sample })
    }
}

impl PartialEq for SampleKey {
    fn eq(&self, other: &SampleKey) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for SampleKey {}

impl PartialOrd for SampleKey {
    fn partial_cmp(&self, other: &SampleKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SampleKey {
    fn cmp(&self, other: &SampleKey) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An exact streaming CDF: distinct sample values with multiplicities.
///
/// Mirrors [`Cdf`]'s full query surface and contract (see
/// [`crate::cdf`]'s infinite-mass documentation), but is mergeable and
/// bounded by the number of *distinct* values instead of the number of
/// samples — the §5.4 time-difference distribution, for example, is
/// millions of samples over a handful of distinct values.
///
/// Equality is derived over the count map, so summaries carrying a
/// `StreamingCdf` keep their `Eq` (the map never holds NaN — `add`
/// panics first — so `Eq` is sound).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamingCdf {
    counts: BTreeMap<SampleKey, u64>,
    finite: u64,
    infinite: u64,
}

impl StreamingCdf {
    /// An empty accumulator.
    pub fn new() -> StreamingCdf {
        StreamingCdf::default()
    }

    /// Build from finite samples (the batch construction, for tests and
    /// parity checks).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> StreamingCdf {
        let mut cdf = StreamingCdf::new();
        for s in samples {
            cdf.add(s);
        }
        cdf
    }

    /// Add one sample. Same contract as [`Cdf::add`]: `+∞` is routed to
    /// [`StreamingCdf::add_infinite`]; NaN and `−∞` panic in every
    /// build profile.
    pub fn add(&mut self, sample: f64) {
        if sample == f64::INFINITY {
            self.add_infinite();
            return;
        }
        assert!(
            sample.is_finite(),
            "StreamingCdf::add: non-finite sample {sample} \
             (only +inf is representable, via add_infinite)"
        );
        *self.counts.entry(SampleKey::new(sample)).or_insert(0) += 1;
        self.finite += 1;
    }

    /// Add a +∞ sample.
    pub fn add_infinite(&mut self) {
        self.infinite += 1;
    }

    /// Fold another accumulator in. Count sums are order-insensitive,
    /// so any merge order yields the same accumulator — the property
    /// the executor's canonical shard merge relies on.
    pub fn merge(&mut self, other: &StreamingCdf) {
        for (&key, &n) in &other.counts {
            *self.counts.entry(key).or_insert(0) += n;
        }
        self.finite += other.finite;
        self.infinite += other.infinite;
    }

    /// Total sample count (finite + infinite).
    pub fn len(&self) -> usize {
        (self.finite + self.infinite) as usize
    }

    /// Whether no samples were added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of infinite samples.
    pub fn infinite_count(&self) -> usize {
        self.infinite as usize
    }

    /// Number of distinct finite values retained — the memory bound.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Distinct finite values with multiplicities, ascending.
    pub fn counts(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().map(|(&k, &n)| (k.0, n))
    }

    /// Fraction of samples ≤ `x` (infinite samples are never ≤ any
    /// finite `x`). Matches [`Cdf::fraction_at_most`].
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let below: u64 = self
            .counts
            .iter()
            .take_while(|(k, _)| k.0 <= x)
            .map(|(_, &n)| n)
            .sum();
        below as f64 / self.len() as f64
    }

    /// The `q`-quantile over finite samples; `None` when the quantile
    /// falls into the infinite mass or there are no samples. The rank
    /// rule is exactly [`Cdf::quantile`]'s: `⌈q·n⌉ − 1` over all `n`
    /// samples (infinite included).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let idx = if q <= 0.0 {
            0
        } else {
            (q * self.len() as f64).ceil() as u64 - 1
        };
        if idx >= self.finite {
            return None;
        }
        let mut seen = 0u64;
        for (key, &n) in &self.counts {
            seen += n;
            if idx < seen {
                return Some(key.0);
            }
        }
        None
    }

    /// Median, if finite.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The finite maximum.
    pub fn max(&self) -> Option<f64> {
        self.counts.keys().next_back().map(|k| k.0)
    }

    /// The finite minimum.
    pub fn min(&self) -> Option<f64> {
        self.counts.keys().next().map(|k| k.0)
    }

    /// The full curve as `(x, F(x))` points, one per distinct value —
    /// identical to [`Cdf::curve`] on the same samples.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        let mut points = Vec::with_capacity(self.counts.len());
        let mut cumulative = 0u64;
        for (key, &count) in &self.counts {
            cumulative += count;
            points.push((key.0, cumulative as f64 / n));
        }
        points
    }

    /// Expand into a batch [`Cdf`] (already sorted, so downstream
    /// `ensure_sorted` is a no-op and the figure bytes match a
    /// vector-built CDF exactly).
    pub fn to_cdf(&self) -> Cdf {
        let mut cdf = Cdf::from_samples(
            self.counts
                .iter()
                .flat_map(|(key, &n)| std::iter::repeat_n(key.0, n as usize)),
        );
        for _ in 0..self.infinite {
            cdf.add_infinite();
        }
        cdf
    }
}

/// The folded Figure 2 / Figure 11 summary: rank-binned HTTPS, OCSP-
/// among-HTTPS, and stapling-among-OCSP adoption, recorded one site at
/// a time so the Alexa list never needs to exist in memory.
///
/// The record rules are exactly the figures' batch folds: every site
/// feeds the HTTPS bins; only HTTPS sites feed the OCSP bins; only OCSP
/// sites feed the stapling bins.
#[derive(Debug, Clone)]
pub struct AlexaAdoption {
    len: usize,
    https: RankBins,
    ocsp_of_https: RankBins,
    staples_of_ocsp: RankBins,
}

impl AlexaAdoption {
    /// An empty summary for a list of `size` sites (the figures bin
    /// ranks into 100 bins: `bin_width = (size / 100).max(1)`).
    pub fn new(size: usize) -> AlexaAdoption {
        let bin_width = (size / 100).max(1);
        AlexaAdoption {
            len: 0,
            https: RankBins::new(bin_width),
            ocsp_of_https: RankBins::new(bin_width),
            staples_of_ocsp: RankBins::new(bin_width),
        }
    }

    /// Fold one site (1-based `rank`) into the summary.
    pub fn record(&mut self, rank: usize, https: bool, ocsp: bool, staples: bool) {
        self.len += 1;
        self.https.record(rank, https);
        if https {
            self.ocsp_of_https.record(rank, ocsp);
        }
        if ocsp {
            self.staples_of_ocsp.record(rank, staples);
        }
    }

    /// Number of sites recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sites were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// HTTPS adoption by rank bin (Figure 2, first curve).
    pub fn https(&self) -> &RankBins {
        &self.https
    }

    /// OCSP adoption among HTTPS sites by rank bin (Figure 2, second
    /// curve).
    pub fn ocsp_of_https(&self) -> &RankBins {
        &self.ocsp_of_https
    }

    /// Stapling adoption among OCSP sites by rank bin (Figure 11).
    pub fn staples_of_ocsp(&self) -> &RankBins {
        &self.staples_of_ocsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_and_stream(samples: &[f64]) -> (Cdf, StreamingCdf) {
        (
            Cdf::from_samples(samples.iter().copied()),
            StreamingCdf::from_samples(samples.iter().copied()),
        )
    }

    #[test]
    fn quantiles_match_batch_cdf_exactly() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (mut batch, stream) = batch_and_stream(&samples);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(stream.quantile(q), batch.quantile(q), "q={q}");
        }
        assert_eq!(stream.median(), batch.median());
        assert_eq!(stream.min(), batch.min());
        assert_eq!(stream.max(), batch.max());
        assert_eq!(stream.len(), batch.len());
    }

    #[test]
    fn pinned_infinite_mass_cases_match_batch() {
        // The PR 7 regression cases: [1, 2, 3] + ∞ has finite fraction
        // 0.75; everything above it is None on both representations.
        let (mut batch, mut stream) = batch_and_stream(&[1.0, 2.0, 3.0]);
        batch.add_infinite();
        stream.add_infinite();
        assert_eq!(stream.quantile(0.75), Some(3.0));
        assert_eq!(batch.quantile(0.75), Some(3.0));
        assert_eq!(stream.quantile(0.76), None);
        assert_eq!(batch.quantile(0.76), None);
        assert_eq!(stream.quantile(0.9), None);
        assert_eq!(stream.quantile(1.0), None);
        assert_eq!(stream.max(), Some(3.0));
        assert_eq!(stream.len(), 4);
        assert_eq!(stream.infinite_count(), 1);

        // Half-infinite split.
        let (mut batch, mut stream) = batch_and_stream(&[1.0, 2.0]);
        for _ in 0..2 {
            batch.add_infinite();
            stream.add_infinite();
        }
        assert_eq!(stream.median(), Some(2.0));
        assert_eq!(batch.median(), Some(2.0));
        assert_eq!(stream.quantile(0.51), None);

        // All-infinite.
        let mut all = StreamingCdf::new();
        all.add_infinite();
        assert_eq!(all.quantile(0.0), None);
        assert_eq!(all.quantile(0.5), None);
        assert_eq!(all.max(), None);
    }

    #[test]
    fn curve_and_fraction_match_batch() {
        let samples = [5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 3.0];
        let (mut batch, mut stream) = batch_and_stream(&samples);
        batch.add_infinite();
        stream.add_infinite();
        assert_eq!(stream.curve(), batch.curve());
        for x in [0.0, 1.0, 2.5, 3.0, 8.0, 100.0] {
            assert_eq!(stream.fraction_at_most(x), batch.fraction_at_most(x));
        }
    }

    #[test]
    fn add_routes_positive_infinity() {
        let mut stream = StreamingCdf::new();
        stream.add(1.0);
        stream.add(f64::INFINITY);
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.infinite_count(), 1);
        assert_eq!(stream.distinct(), 1);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn add_nan_panics() {
        StreamingCdf::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn add_negative_infinity_panics() {
        StreamingCdf::new().add(f64::NEG_INFINITY);
    }

    #[test]
    fn merge_equals_single_accumulator_in_any_order() {
        let a = StreamingCdf::from_samples([1.0, 2.0, 2.0]);
        let mut b = StreamingCdf::from_samples([2.0, 7.0]);
        b.add_infinite();
        let whole = {
            let mut w = StreamingCdf::from_samples([1.0, 2.0, 2.0, 2.0, 7.0]);
            w.add_infinite();
            w
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn to_cdf_round_trips() {
        let mut stream = StreamingCdf::from_samples([4.0, 4.0, 1.0, 9.0]);
        stream.add_infinite();
        let mut expanded = stream.to_cdf();
        assert_eq!(expanded.len(), stream.len());
        assert_eq!(expanded.infinite_count(), stream.infinite_count());
        assert_eq!(expanded.curve(), stream.curve());
        assert_eq!(expanded.median(), stream.median());
    }

    #[test]
    fn negative_zero_folds_onto_positive_zero() {
        let stream = StreamingCdf::from_samples([-0.0, 0.0]);
        assert_eq!(stream.distinct(), 1);
        assert_eq!(stream.max().map(f64::to_bits), Some(0.0f64.to_bits()));
    }

    #[test]
    fn empty_is_safe() {
        let stream = StreamingCdf::new();
        assert!(stream.is_empty());
        assert_eq!(stream.fraction_at_most(1.0), 0.0);
        assert_eq!(stream.median(), None);
        assert_eq!(stream.min(), None);
    }

    #[test]
    fn alexa_adoption_matches_figure_folds() {
        // Replicate the fig2/fig11 batch fold by hand and compare.
        let sites: Vec<(usize, bool, bool, bool)> = (1..=200)
            .map(|rank| {
                let https = rank % 4 != 0;
                let ocsp = https && rank % 3 != 0;
                let staples = ocsp && rank % 5 == 0;
                (rank, https, ocsp, staples)
            })
            .collect();
        let mut fold = AlexaAdoption::new(sites.len());
        let bin_width = (sites.len() / 100).max(1);
        let mut https_bins = RankBins::new(bin_width);
        let mut ocsp_bins = RankBins::new(bin_width);
        let mut staple_bins = RankBins::new(bin_width);
        for &(rank, https, ocsp, staples) in &sites {
            fold.record(rank, https, ocsp, staples);
            https_bins.record(rank, https);
            if https {
                ocsp_bins.record(rank, ocsp);
            }
            if ocsp {
                staple_bins.record(rank, staples);
            }
        }
        assert_eq!(fold.len(), sites.len());
        assert_eq!(fold.https().percentages(), https_bins.percentages());
        assert_eq!(fold.ocsp_of_https().percentages(), ocsp_bins.percentages());
        assert_eq!(
            fold.staples_of_ocsp().percentages(),
            staple_bins.percentages()
        );
        assert_eq!(
            fold.https().overall_percentage(),
            https_bins.overall_percentage()
        );
        assert_eq!(
            fold.staples_of_ocsp().popularity_gradient(),
            staple_bins.popularity_gradient()
        );
    }
}
