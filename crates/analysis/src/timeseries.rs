//! Time-binned aggregation.

use asn1::Time;
use std::collections::BTreeMap;

/// Accumulates `(time, success)`-style observations into fixed-width
/// bins and reports per-bin fractions and counts — the engine behind the
/// availability plots (Figures 3–5) and the adoption-over-time plot
/// (Figure 12).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_secs: i64,
    bins: BTreeMap<i64, Bin>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    hits: u64,
    total: u64,
    sum: f64,
}

impl TimeSeries {
    /// A series with `bin_secs`-wide bins.
    ///
    /// # Panics
    ///
    /// Panics if `bin_secs` is not positive.
    pub fn new(bin_secs: i64) -> TimeSeries {
        assert!(bin_secs > 0, "bin width must be positive");
        TimeSeries {
            bin_secs,
            bins: BTreeMap::new(),
        }
    }

    fn bin_of(&self, t: Time) -> i64 {
        t.unix().div_euclid(self.bin_secs)
    }

    /// Record a boolean observation (e.g. request success).
    pub fn record_bool(&mut self, t: Time, hit: bool) {
        let bin = self.bins.entry(self.bin_of(t)).or_default();
        bin.total += 1;
        if hit {
            bin.hits += 1;
        }
    }

    /// Record a weighted observation: `hits` out of `total` (used when a
    /// single probe stands in for many dependent domains, as in the
    /// Figure 4 impact analysis).
    pub fn record_hits(&mut self, t: Time, hits: u64, total: u64) {
        let bin = self.bins.entry(self.bin_of(t)).or_default();
        bin.total += total;
        bin.hits += hits;
    }

    /// Record a numeric observation (averaged per bin).
    pub fn record_value(&mut self, t: Time, value: f64) {
        let bin = self.bins.entry(self.bin_of(t)).or_default();
        bin.total += 1;
        bin.sum += value;
    }

    /// Per-bin `(bin_start_time, hit_fraction)`.
    pub fn fractions(&self) -> Vec<(Time, f64)> {
        self.bins
            .iter()
            .map(|(&k, b)| {
                (
                    Time::from_unix(k * self.bin_secs),
                    b.hits as f64 / b.total.max(1) as f64,
                )
            })
            .collect()
    }

    /// Per-bin `(bin_start_time, hit_count)` — absolute counts, as in
    /// Figure 4's "number of domains" axis.
    pub fn counts(&self) -> Vec<(Time, u64)> {
        self.bins
            .iter()
            .map(|(&k, b)| (Time::from_unix(k * self.bin_secs), b.hits))
            .collect()
    }

    /// Per-bin `(bin_start_time, mean_value)`.
    pub fn means(&self) -> Vec<(Time, f64)> {
        self.bins
            .iter()
            .map(|(&k, b)| {
                (
                    Time::from_unix(k * self.bin_secs),
                    b.sum / b.total.max(1) as f64,
                )
            })
            .collect()
    }

    /// Overall hit fraction across all bins.
    pub fn overall_fraction(&self) -> f64 {
        let (hits, total) = self
            .bins
            .values()
            .fold((0u64, 0u64), |(h, t), b| (h + b.hits, t + b.total));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Number of bins with at least one observation.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Fold another series into this one, bin by bin. Counters are
    /// plain sums, so merging per-shard partials in shard-id order
    /// reproduces the serial series exactly (for `record_value` series
    /// the float sums are still deterministic because the merge order is
    /// fixed).
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bin_secs, other.bin_secs,
            "cannot merge series with different bin widths"
        );
        for (&k, b) in &other.bins {
            let bin = self.bins.entry(k).or_default();
            bin.hits += b.hits;
            bin.total += b.total;
            bin.sum += b.sum;
        }
    }
}

/// The dense form of a [`TimeSeries`] over a span known up front: one
/// cell per bin, indexed from the bin holding the span's first second.
///
/// A campaign that knows its rounds can count into plain arrays instead
/// of a `BTreeMap`. Every cell is an integer sum — hits, totals, and how
/// many records landed in the bin — so partial bins add in any order,
/// and [`DenseBins::to_series`] builds exactly the series the same
/// `record_bool`/`record_hits` calls would have built. The record count
/// is what marks a bin as seen: `record_hits(t, 0, 0)` makes a bin with
/// total 0, which a series keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseBins {
    bin_secs: i64,
    first_bin: i64,
    cells: Vec<DenseCell>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DenseCell {
    hits: u64,
    total: u64,
    records: u64,
}

impl DenseBins {
    /// Bins `bin_secs` wide covering `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_secs` is not positive.
    pub fn new(bin_secs: i64, from: Time, until: Time) -> DenseBins {
        assert!(bin_secs > 0, "bin width must be positive");
        let first_bin = from.unix().div_euclid(bin_secs);
        let len = if until > from {
            (until.unix() - 1).div_euclid(bin_secs) - first_bin + 1
        } else {
            0
        };
        DenseBins {
            bin_secs,
            first_bin,
            cells: vec![DenseCell::default(); len as usize],
        }
    }

    /// The cell holding `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the span the bins cover.
    fn cell(&mut self, t: Time) -> &mut DenseCell {
        let index = t.unix().div_euclid(self.bin_secs) - self.first_bin;
        usize::try_from(index)
            .ok()
            .and_then(|i| self.cells.get_mut(i))
            .unwrap_or_else(|| panic!("{t} is outside the dense bins' span"))
    }

    /// Record a boolean observation, as [`TimeSeries::record_bool`].
    pub fn record_bool(&mut self, t: Time, hit: bool) {
        let cell = self.cell(t);
        cell.records += 1;
        cell.total += 1;
        cell.hits += u64::from(hit);
    }

    /// Record `hits` out of `total`, as [`TimeSeries::record_hits`].
    pub fn record_hits(&mut self, t: Time, hits: u64, total: u64) {
        let cell = self.cell(t);
        cell.records += 1;
        cell.total += total;
        cell.hits += hits;
    }

    /// Add another set of bins over the same span, cell by cell.
    ///
    /// # Panics
    ///
    /// Panics if the two cover different bins.
    pub fn add(&mut self, other: &DenseBins) {
        assert!(
            (self.bin_secs, self.first_bin, self.cells.len())
                == (other.bin_secs, other.first_bin, other.cells.len()),
            "cannot add dense bins over different spans"
        );
        for (cell, o) in self.cells.iter_mut().zip(&other.cells) {
            cell.hits += o.hits;
            cell.total += o.total;
            cell.records += o.records;
        }
    }

    /// The series of every bin that saw a record.
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries {
            bin_secs: self.bin_secs,
            bins: (self.first_bin..)
                .zip(&self.cells)
                .filter(|(_, cell)| cell.records > 0)
                .map(|(k, cell)| {
                    let bin = Bin {
                        hits: cell.hits,
                        total: cell.total,
                        sum: 0.0,
                    };
                    (k, bin)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + h * 3_600
    }

    #[test]
    fn fractions_per_bin() {
        let mut ts = TimeSeries::new(3_600);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), false);
        ts.record_bool(t(1), false);
        let f = ts.fractions();
        assert_eq!(f.len(), 2);
        assert!((f[0].1 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(f[1].1, 0.0);
        assert_eq!(ts.overall_fraction(), 0.5);
    }

    #[test]
    fn counts_and_means() {
        let mut ts = TimeSeries::new(3_600);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), true);
        assert_eq!(ts.counts()[0].1, 2);

        let mut ms = TimeSeries::new(3_600);
        ms.record_value(t(0), 10.0);
        ms.record_value(t(0), 20.0);
        assert_eq!(ms.means()[0].1, 15.0);
    }

    #[test]
    fn weighted_hits() {
        let mut ts = TimeSeries::new(3_600);
        ts.record_hits(t(0), 163_000, 600_000);
        assert_eq!(ts.counts()[0].1, 163_000);
        assert!((ts.fractions()[0].1 - 163_000.0 / 600_000.0).abs() < 1e-9);
    }

    #[test]
    fn bins_are_time_ordered() {
        let mut ts = TimeSeries::new(3_600);
        ts.record_bool(t(5), true);
        ts.record_bool(t(1), true);
        ts.record_bool(t(3), true);
        let times: Vec<_> = ts.fractions().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ts.bin_count(), 3);
    }

    #[test]
    fn empty_overall_fraction() {
        let ts = TimeSeries::new(60);
        assert_eq!(ts.overall_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_panics() {
        TimeSeries::new(0);
    }

    #[test]
    fn merge_equals_serial_recording() {
        let mut serial = TimeSeries::new(3_600);
        let mut a = TimeSeries::new(3_600);
        let mut b = TimeSeries::new(3_600);
        for (h, hit) in [(0, true), (0, false), (1, true), (5, false)] {
            serial.record_bool(t(h), hit);
            a.record_bool(t(h), hit);
        }
        for (h, hit) in [(0, true), (2, true), (5, true)] {
            serial.record_bool(t(h), hit);
            b.record_bool(t(h), hit);
        }
        a.merge(&b);
        assert_eq!(serial.fractions(), a.fractions());
        assert_eq!(serial.counts(), a.counts());
        assert_eq!(serial.bin_count(), a.bin_count());
    }

    #[test]
    fn dense_bins_keep_zero_weight_bins() {
        // A responder with no Alexa domains still has Figure 4 bins.
        let mut series = TimeSeries::new(3_600);
        let mut dense = DenseBins::new(3_600, t(0), t(3));
        for h in [0, 2] {
            series.record_hits(t(h), 0, 0);
            dense.record_hits(t(h), 0, 0);
        }
        let built = dense.to_series();
        assert_eq!(built.bin_count(), 2);
        assert_eq!(built.counts(), series.counts());
        assert_eq!(built.fractions(), series.fractions());
    }

    #[test]
    fn dense_bins_take_a_probe_past_the_last_round_start() {
        // A span starting mid-bin: a probe staggered past a bin edge
        // lands one bin later than its round's start.
        let start = t(0) + 1_800;
        let mut series = TimeSeries::new(3_600);
        let mut dense = DenseBins::new(3_600, start, start + 2 * 3_600);
        for round in 0..2 {
            let probe = start + round * 3_600 + 2_000;
            series.record_bool(probe, true);
            dense.record_bool(probe, true);
        }
        assert_eq!(dense.to_series().fractions(), series.fractions());
        assert_eq!(dense.to_series().bin_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the dense bins")]
    fn dense_bins_reject_times_outside_their_span() {
        DenseBins::new(3_600, t(0), t(2)).record_bool(t(2), true);
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn merge_rejects_mismatched_bins() {
        let mut a = TimeSeries::new(60);
        a.merge(&TimeSeries::new(120));
    }
}
