//! Streaming ≡ batch: the accumulator-fold contract (DESIGN.md §13).
//!
//! `Cdf` keeps distinct values with their counts and merges partial
//! CDFs, and `TimeSeries` adds partial series bin by bin. Both must
//! answer exactly what the retained samples would — quantiles to the
//! bit, folds to the byte — under arbitrary inputs, arbitrary chunk
//! splits, and the infinite-mass cases pinned in the `Cdf` quantile
//! contract. The reference here is the sorted sample vector itself, so
//! if any property fails, a chunked fold is silently changing
//! artifacts.

use analysis::{Cdf, TimeSeries};
use asn1::Time;
use proptest::prelude::*;

/// The retained-vector reference: finite samples sorted ascending, plus
/// an infinite count, queried with the `⌈q·n⌉` rank rule.
struct Sorted {
    finite: Vec<f64>,
    infinite: usize,
}

impl Sorted {
    fn new(samples: &[f64], infinite: usize) -> Sorted {
        let mut finite = samples.to_vec();
        finite.sort_by(f64::total_cmp);
        Sorted { finite, infinite }
    }

    fn len(&self) -> usize {
        self.finite.len() + self.infinite
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.len() == 0 {
            return None;
        }
        let rank = if q <= 0.0 {
            1
        } else {
            (q * self.len() as f64).ceil() as usize
        };
        self.finite.get(rank - 1).copied()
    }

    fn fraction_at_most(&self, x: f64) -> f64 {
        if self.len() == 0 {
            return 0.0;
        }
        let below = self.finite.partition_point(|&s| s <= x);
        below as f64 / self.len() as f64
    }

    /// One point per distinct value: the value and the fraction of all
    /// samples at or below it.
    fn curve(&self) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.finite.iter().enumerate() {
            let f = (i + 1) as f64 / self.len() as f64;
            match points.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => points.push((x, f)),
            }
        }
        points
    }
}

/// Split `samples` into `chunks` contiguous pieces (some possibly
/// empty), fold each into its own `Cdf`, and merge in order — the
/// exact shape of the scanner's per-chunk folds.
fn chunked_cdf(samples: &[f64], chunks: usize) -> Cdf {
    let size = samples.len().div_ceil(chunks.max(1)).max(1);
    let mut merged = Cdf::new();
    for chunk in samples.chunks(size) {
        merged.merge(&Cdf::from_samples(chunk.iter().copied()));
    }
    merged
}

proptest! {
    #[test]
    fn streaming_cdf_quantiles_match_batch_bit_for_bit(
        samples in proptest::collection::vec(-1e9f64..1e9, 0..200),
        infinite in 0usize..4,
        chunks in 1usize..6,
    ) {
        let batch = Sorted::new(&samples, infinite);
        let mut cdf = chunked_cdf(&samples, chunks);
        for _ in 0..infinite {
            cdf.add_infinite();
        }
        prop_assert_eq!(cdf.len(), batch.len());
        prop_assert_eq!(cdf.infinite_count(), infinite);
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            prop_assert_eq!(
                cdf.quantile(q).map(f64::to_bits),
                batch.quantile(q).map(f64::to_bits),
                "quantile({}) diverged", q
            );
        }
        prop_assert_eq!(cdf.curve(), batch.curve());
        for &x in &samples {
            prop_assert_eq!(
                cdf.fraction_at_most(x),
                batch.fraction_at_most(x),
                "fraction_at_most({}) diverged", x
            );
        }
    }

    #[test]
    fn time_series_chunked_folds_match_batch(
        observations in proptest::collection::vec((0i64..5_000, any::<bool>()), 0..200),
        chunks in 1usize..6,
    ) {
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        let span = || TimeSeries::new(3_600, t0, t0 + 5_000 * 60);
        let mut batch = span();
        for &(offset, hit) in &observations {
            batch.record_bool(t0 + offset * 60, hit);
        }
        let size = observations.len().div_ceil(chunks).max(1);
        let mut merged = span();
        for chunk in observations.chunks(size) {
            let mut partial = span();
            for &(offset, hit) in chunk {
                partial.record_bool(t0 + offset * 60, hit);
            }
            merged.add(&partial);
        }
        prop_assert_eq!(&batch, &merged);
        prop_assert_eq!(batch.fractions(), merged.fractions());
    }
}

/// The infinite-mass quantile cases pinned when the Cdf contract was
/// fixed: quantiles landing inside the infinite mass are `None`, ones
/// on the finite side answer exactly.
#[test]
fn pinned_infinite_mass_cases_match_batch() {
    let mut cdf = Cdf::from_samples([1.0, 2.0, 3.0]);
    cdf.add_infinite();
    let batch = Sorted::new(&[1.0, 2.0, 3.0], 1);

    for (q, expected) in [
        (0.0, Some(1.0)),
        (0.25, Some(1.0)),
        (0.5, Some(2.0)),
        (0.75, Some(3.0)),
        (0.76, None),
        (1.0, None),
    ] {
        assert_eq!(cdf.quantile(q), expected, "quantile({q})");
        assert_eq!(batch.quantile(q), expected, "batch quantile({q})");
    }

    // All-infinite: every quantile is unbounded.
    let mut all_inf = Cdf::new();
    all_inf.add_infinite();
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(all_inf.quantile(q), None);
    }
}

/// `+∞` routes to the infinite mass through `add`.
#[test]
fn positive_infinity_routes_to_infinite_mass() {
    let mut cdf = Cdf::new();
    cdf.add(1.0);
    cdf.add(f64::INFINITY);
    assert_eq!(cdf.len(), 2);
    assert_eq!(cdf.infinite_count(), 1);
    assert_eq!(cdf.quantile(0.5), Some(1.0));
    assert_eq!(cdf.quantile(1.0), None);
}
