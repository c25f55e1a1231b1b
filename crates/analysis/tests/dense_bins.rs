//! Dense bins ≡ `TimeSeries`: the same records, fed to round-indexed
//! `DenseBins` split across partial accumulators and added in any
//! order, build the series `TimeSeries::record_bool`/`record_hits`
//! build — bin for bin, zero-weight bins and bins a staggered probe
//! spills into included.

use asn1::Time;
use mustaple_analysis::{DenseBins, TimeSeries};
use proptest::prelude::*;

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
        let mut series = TimeSeries::new(bin_secs);
        let mut partials: Vec<DenseBins> =
            (0..parts).map(|_| DenseBins::new(bin_secs, start, until)).collect();
        let in_range = records.iter().filter(|r: &&Record| r.0 < rounds);
        for &(round, stagger, weighted, hit, hits, misses, part) in in_range {
            let t = start + round as i64 * bin_secs + stagger % bin_secs;
            let dense = &mut partials[part % parts];
            if weighted {
                series.record_hits(t, hits, hits + misses);
                dense.record_hits(t, hits, hits + misses);
            } else {
                series.record_bool(t, hit);
                dense.record_bool(t, hit);
            }
        }
        if reverse {
            partials.reverse();
        }
        let mut total = DenseBins::new(bin_secs, start, until);
        for partial in &partials {
            total.add(partial);
        }
        let built = total.to_series();
        prop_assert_eq!(built.bin_count(), series.bin_count());
        prop_assert_eq!(built.fractions(), series.fractions());
        prop_assert_eq!(built.counts(), series.counts());
        prop_assert_eq!(built.overall_fraction(), series.overall_fraction());
    }
}
