//! Round-indexed bins ≡ a per-bin map: the same records, fed to
//! `TimeSeries` partials split across accumulators and added in any
//! order, report what a `BTreeMap` from bin index to counts reports —
//! bin for bin, zero-weight bins and bins a staggered probe spills into
//! included.

use asn1::Time;
use mustaple_analysis::TimeSeries;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One record: `(round, stagger, weighted, hit, hits, misses, part)`.
/// A weighted record is `record_hits(t, hits, hits + misses)`, which
/// may be `(0, 0)`; otherwise it is `record_bool(t, hit)`. `part` picks
/// which partial accumulator receives it.
type Record = (usize, i64, bool, bool, u64, u64, usize);

proptest! {
    #[test]
    fn dense_bins_build_the_series_their_records_build(
        bin_secs in 60i64..20_000,
        phase in 0i64..20_000,
        rounds in 0usize..40,
        records in proptest::collection::vec(
            (0usize..40, 0i64..20_000, any::<bool>(), any::<bool>(), 0u64..4, 0u64..4, 0usize..4),
            0..150,
        ),
        parts in 1usize..5,
        reverse in any::<bool>(),
    ) {
        // A campaign start that need not sit on a bin edge, and probes
        // staggered anywhere inside their round: the last ones land in
        // the bin after their round's.
        let start = Time::from_civil(2018, 4, 25, 0, 0, 0) + phase % bin_secs;
        let until = start + rounds as i64 * bin_secs;
        // The reference: bin index → (hits, total), a bin present once
        // any record reaches it.
        let mut oracle: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
        let mut partials: Vec<TimeSeries> =
            (0..parts).map(|_| TimeSeries::new(bin_secs, start, until)).collect();
        let in_range = records.iter().filter(|r: &&Record| r.0 < rounds);
        for &(round, stagger, weighted, hit, hits, misses, part) in in_range {
            let t = start + round as i64 * bin_secs + stagger % bin_secs;
            let (hits, total) = if weighted {
                (hits, hits + misses)
            } else {
                (u64::from(hit), 1)
            };
            let bin = oracle.entry(t.unix().div_euclid(bin_secs)).or_default();
            bin.0 += hits;
            bin.1 += total;
            let series = &mut partials[part % parts];
            if weighted {
                series.record_hits(t, hits, total);
            } else {
                series.record_bool(t, hit);
            }
        }
        if reverse {
            partials.reverse();
        }
        let mut sum = TimeSeries::new(bin_secs, start, until);
        for partial in &partials {
            sum.add(partial);
        }
        let at = |k: i64| Time::from_unix(k * bin_secs);
        let fractions: Vec<(Time, f64)> = oracle
            .iter()
            .map(|(&k, &(hits, total))| (at(k), hits as f64 / total.max(1) as f64))
            .collect();
        let counts: Vec<(Time, u64)> = oracle.iter().map(|(&k, &(hits, _))| (at(k), hits)).collect();
        prop_assert_eq!(sum.bin_count(), oracle.len());
        prop_assert_eq!(sum.fractions(), fractions);
        prop_assert_eq!(sum.counts(), counts);
    }
}
