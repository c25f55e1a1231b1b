//! Cumulative distribution functions.
//!
//! # Infinite-mass contract
//!
//! A [`Cdf`] may carry +∞ samples ([`Cdf::add_infinite`] — blank
//! `nextUpdate` validity periods in Figure 8). They count toward
//! [`Cdf::len`] and cap [`Cdf::curve`] / [`Cdf::fraction_at_most`]
//! below 1.0, and any quantile that lands in that mass is `None`:
//! with `f` finite and `k` infinite samples, [`Cdf::quantile`] returns
//! `Some` exactly for `q ≤ f / (f + k)` and `None` above it. The
//! finite maximum is never reported for a quantile an infinite sample
//! occupies.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A finite, non-NaN `f64` ordered by `total_cmp` — the `BTreeMap` key
/// of [`Cdf`]. Construction folds `-0.0` onto `+0.0`, so the two zeros
/// are one sample value, as they are under `==`.
#[derive(Debug, Clone, Copy)]
struct SampleKey(f64);

impl SampleKey {
    fn new(sample: f64) -> SampleKey {
        // -0.0 == 0.0 under f64 equality but not under total_cmp.
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

/// A CDF over `f64` samples, with optional +∞ entries (used for blank
/// `nextUpdate` validity periods in Figure 8). See the module docs for
/// the infinite-mass contract.
///
/// The samples are held as distinct values with their multiplicities,
/// so memory is bounded by the number of *distinct* values — the §5.4
/// time-difference distribution, for example, is thousands of samples
/// over a handful of values — and [`Cdf::merge`] adds counts, so
/// partial CDFs fold in any order. Equality is derived over the count
/// map (which never holds NaN: `add` panics first), so summaries
/// carrying a `Cdf` keep their `Eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cdf {
    counts: BTreeMap<SampleKey, u64>,
    finite: u64,
    infinite: u64,
}

impl Cdf {
    /// An empty CDF.
    pub fn new() -> Cdf {
        Cdf::default()
    }

    /// Build from finite samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut cdf = Cdf::new();
        for s in samples {
            cdf.add(s);
        }
        cdf
    }

    /// Add one sample. `+∞` is routed to [`Cdf::add_infinite`]; NaN and
    /// `−∞` panic immediately, in every build profile.
    pub fn add(&mut self, sample: f64) {
        if sample == f64::INFINITY {
            self.add_infinite();
            return;
        }
        assert!(
            sample.is_finite(),
            "Cdf::add: non-finite sample {sample} (only +inf is representable, via add_infinite)"
        );
        *self.counts.entry(SampleKey::new(sample)).or_insert(0) += 1;
        self.finite += 1;
    }

    /// Add a +∞ sample.
    pub fn add_infinite(&mut self) {
        self.infinite += 1;
    }

    /// Fold another CDF in. Count sums are order-insensitive, so any
    /// merge order yields the same CDF.
    pub fn merge(&mut self, other: &Cdf) {
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

    /// Distinct finite values with multiplicities, ascending.
    pub fn counts(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().map(|(&k, &n)| (k.0, n))
    }

    /// Fraction of samples ≤ `x` (infinite samples are never ≤ any
    /// finite `x`).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let below: u64 = self
            .counts()
            .take_while(|&(value, _)| value <= x)
            .map(|(_, n)| n)
            .sum();
        below as f64 / self.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) over finite samples; `None` when the
    /// quantile falls into the infinite mass or there are no samples.
    ///
    /// The rank is `⌈q·n⌉` over all `n` samples (infinite included), so
    /// a quantile is `Some` exactly when `q` does not exceed the finite
    /// fraction `f/n`. The old `⌊q·(n−1)⌋` rule clamped into the finite
    /// samples and leaked the finite maximum for quantiles the infinite
    /// mass owns.
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
        self.counts().find_map(|(value, n)| {
            seen += n;
            (idx < seen).then_some(value)
        })
    }

    /// Median, if finite.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The finite maximum.
    pub fn max(&self) -> Option<f64> {
        self.counts.keys().next_back().map(|k| k.0)
    }

    /// The full curve as `(x, F(x))` points, one per distinct sample —
    /// exactly what a plotting tool wants. Infinite mass shows up as the
    /// curve plateauing below 1.0.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        let mut cumulative = 0u64;
        self.counts()
            .map(|(value, count)| {
                cumulative += count;
                (value, cumulative as f64 / n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_quantiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.median(), Some(50.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.max(), Some(100.0));
    }

    #[test]
    fn fraction_at_most() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
    }

    #[test]
    fn infinite_mass_caps_the_curve() {
        let mut cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0]);
        cdf.add_infinite();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.fraction_at_most(f64::MAX), 0.75);
        let curve = cdf.curve();
        assert_eq!(curve.last().unwrap().1, 0.75);
    }

    #[test]
    fn quantiles_in_the_infinite_mass_are_none() {
        // Regression: with [1, 2, 3] + ∞ the finite fraction is 0.75,
        // and the old floor(q·(len−1)) rule clamped q=0.9 into the
        // finite samples, leaking Some(3.0) for a quantile the
        // infinite mass owns.
        let mut cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0]);
        cdf.add_infinite();
        assert_eq!(cdf.quantile(0.75), Some(3.0));
        assert_eq!(cdf.quantile(0.76), None, "just above the finite fraction");
        assert_eq!(cdf.quantile(0.9), None);
        assert_eq!(cdf.quantile(1.0), None);
        assert_eq!(cdf.max(), Some(3.0), "max still reports the finite max");

        // Every q in the infinite mass is None, no matter the split.
        let mut half = Cdf::from_samples(vec![1.0, 2.0]);
        half.add_infinite();
        half.add_infinite();
        assert_eq!(half.median(), Some(2.0));
        assert_eq!(half.quantile(0.51), None);

        // All-infinite: nothing finite to report at any q.
        let mut all = Cdf::new();
        all.add_infinite();
        assert_eq!(all.quantile(0.0), None);
        assert_eq!(all.quantile(0.5), None);
        assert_eq!(all.max(), None);
    }

    #[test]
    fn add_routes_positive_infinity_to_the_infinite_mass() {
        let mut cdf = Cdf::new();
        cdf.add(1.0);
        cdf.add(f64::INFINITY);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.infinite_count(), 1);
        assert_eq!(cdf.fraction_at_most(f64::MAX), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn add_nan_panics_in_every_profile() {
        // A plain assert!, not debug_assert!: NaN has no place in the
        // total order the count map keeps.
        Cdf::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn add_negative_infinity_panics() {
        Cdf::new().add(f64::NEG_INFINITY);
    }

    #[test]
    fn empty_is_safe() {
        let cdf = Cdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(1.0), 0.0);
        assert_eq!(cdf.median(), None);
        assert_eq!(cdf.max(), None);
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = Cdf::from_samples(vec![5.0, 1.0, 3.0, 3.0, 2.0, 8.0]);
        let curve = cdf.curve();
        for pair in curve.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn interleaved_add_and_query() {
        let mut cdf = Cdf::new();
        cdf.add(5.0);
        assert_eq!(cdf.median(), Some(5.0));
        cdf.add(1.0);
        cdf.add(9.0);
        assert_eq!(cdf.median(), Some(5.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn merge_equals_single_accumulator_in_any_order() {
        let a = Cdf::from_samples([1.0, 2.0, 2.0]);
        let mut b = Cdf::from_samples([2.0, 7.0]);
        b.add_infinite();
        let mut whole = Cdf::from_samples([1.0, 2.0, 2.0, 2.0, 7.0]);
        whole.add_infinite();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn negative_zero_folds_onto_positive_zero() {
        let cdf = Cdf::from_samples([-0.0, 0.0]);
        assert_eq!(cdf.curve(), [(0.0, 1.0)]);
        assert_eq!(cdf.max().map(f64::to_bits), Some(0.0f64.to_bits()));
    }
}
