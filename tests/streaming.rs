//! Streaming ≡ batch: the accumulator-fold contract (DESIGN.md §13).
//!
//! Every incremental accumulator added for bounded-memory scale must
//! reproduce its retained-vector counterpart *exactly* — quantiles to
//! the bit, folds to the byte — under arbitrary inputs, arbitrary
//! chunk splits, and the infinite-mass CDF cases pinned in the Cdf
//! quantile contract. If any property here fails, a chunked or
//! streamed fold is silently changing artifacts.

use analysis::{Cdf, StreamingCdf, TimeSeries, Welford};
use asn1::Time;
use proptest::prelude::*;

/// Split `samples` into `chunks` contiguous pieces (some possibly
/// empty), fold each into its own accumulator, and merge in order —
/// the exact shape of the scanner's per-chunk folds.
fn chunked_streaming_cdf(samples: &[f64], chunks: usize) -> StreamingCdf {
    let size = samples.len().div_ceil(chunks.max(1)).max(1);
    let mut merged = StreamingCdf::new();
    for chunk in samples.chunks(size) {
        let mut partial = StreamingCdf::new();
        for &s in chunk {
            partial.add(s);
        }
        merged.merge(&partial);
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
        let mut batch = Cdf::from_samples(samples.iter().copied());
        let mut streaming = chunked_streaming_cdf(&samples, chunks);
        for _ in 0..infinite {
            batch.add_infinite();
            streaming.add_infinite();
        }
        prop_assert_eq!(batch.len(), streaming.len());
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            prop_assert_eq!(
                batch.quantile(q),
                streaming.quantile(q),
                "quantile({}) diverged", q
            );
        }
        prop_assert_eq!(batch.curve(), streaming.curve());
        for &x in &samples {
            prop_assert_eq!(
                batch.fraction_at_most(x),
                streaming.fraction_at_most(x),
                "fraction_at_most({}) diverged", x
            );
        }
    }

    #[test]
    fn welford_matches_two_pass_statistics(
        samples in proptest::collection::vec(-1e6f64..1e6, 2..200),
    ) {
        let w = Welford::from_samples(samples.iter().copied());
        let mean = analysis::stats::mean(&samples);
        let stddev = analysis::stats::sample_stddev(&samples);
        // Welford is the *more* numerically stable of the two; agree to
        // a tight relative tolerance.
        let scale = samples.iter().fold(1.0f64, |m, s| m.max(s.abs()));
        prop_assert!(
            (w.mean() - mean).abs() <= 1e-9 * scale,
            "mean {} vs two-pass {}", w.mean(), mean
        );
        prop_assert!(
            (w.sample_stddev() - stddev).abs() <= 1e-6 * scale.max(stddev),
            "stddev {} vs two-pass {}", w.sample_stddev(), stddev
        );
    }

    #[test]
    fn welford_chunked_merge_equals_one_pass(
        samples in proptest::collection::vec(-1e6f64..1e6, 1..200),
        chunks in 1usize..6,
    ) {
        let whole = Welford::from_samples(samples.iter().copied());
        let size = samples.len().div_ceil(chunks).max(1);
        let mut merged = Welford::new();
        for chunk in samples.chunks(size) {
            merged.merge(&Welford::from_samples(chunk.iter().copied()));
        }
        prop_assert_eq!(whole.count(), merged.count());
        let scale = samples.iter().fold(1.0f64, |m, s| m.max(s.abs()));
        prop_assert!((whole.mean() - merged.mean()).abs() <= 1e-9 * scale);
        prop_assert!(
            (whole.sample_stddev() - merged.sample_stddev()).abs()
                <= 1e-6 * scale.max(whole.sample_stddev())
        );
    }

    #[test]
    fn time_series_chunked_folds_match_batch(
        observations in proptest::collection::vec((0i64..5_000, any::<bool>()), 0..200),
        chunks in 1usize..6,
    ) {
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        let mut batch = TimeSeries::new(3_600);
        for &(offset, hit) in &observations {
            batch.record_bool(t0 + offset * 60, hit);
        }
        let size = observations.len().div_ceil(chunks).max(1);
        let mut merged = TimeSeries::new(3_600);
        for chunk in observations.chunks(size) {
            let mut partial = TimeSeries::new(3_600);
            for &(offset, hit) in chunk {
                partial.record_bool(t0 + offset * 60, hit);
            }
            merged.merge(&partial);
        }
        prop_assert_eq!(batch.bin_count(), merged.bin_count());
        prop_assert_eq!(batch.fractions(), merged.fractions());
        prop_assert_eq!(batch.counts(), merged.counts());
        prop_assert_eq!(batch.overall_fraction(), merged.overall_fraction());
    }
}

/// The infinite-mass quantile cases pinned when the Cdf contract was
/// fixed: quantiles landing inside the infinite mass are `None`, ones
/// on the finite side answer exactly.
#[test]
fn pinned_infinite_mass_cases_match_batch() {
    let mut batch = Cdf::from_samples([1.0, 2.0, 3.0]);
    batch.add_infinite();
    let mut streaming = StreamingCdf::from_samples([1.0, 2.0, 3.0]);
    streaming.add_infinite();

    for (q, expected) in [
        (0.0, Some(1.0)),
        (0.25, Some(1.0)),
        (0.5, Some(2.0)),
        (0.75, Some(3.0)),
        (0.76, None),
        (1.0, None),
    ] {
        assert_eq!(batch.quantile(q), expected, "batch quantile({q})");
        assert_eq!(streaming.quantile(q), expected, "streaming quantile({q})");
    }

    // All-infinite: every positive quantile is unbounded.
    let mut all_inf = StreamingCdf::new();
    all_inf.add_infinite();
    let mut batch_inf = Cdf::new();
    batch_inf.add_infinite();
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(batch_inf.quantile(q), all_inf.quantile(q));
    }
}

/// `+∞` routes to the infinite mass through `add` on both types.
#[test]
fn positive_infinity_routes_to_infinite_mass() {
    let mut streaming = StreamingCdf::new();
    streaming.add(1.0);
    streaming.add(f64::INFINITY);
    let mut batch = Cdf::new();
    batch.add(1.0);
    batch.add(f64::INFINITY);
    assert_eq!(streaming.len(), 2);
    assert_eq!(streaming.infinite_count(), 1);
    assert_eq!(batch.quantile(0.5), streaming.quantile(0.5));
    assert_eq!(batch.quantile(1.0), streaming.quantile(1.0));
}
