//! Time-binned aggregation.

use asn1::Time;

/// Accumulates `(time, success)`-style observations into fixed-width
/// bins over a span known up front, and reports per-bin fractions and
/// counts — the engine behind the availability plots (Figures 3–5).
///
/// The bins are one cell each, indexed from the bin holding the span's
/// first second, so a campaign that knows its rounds counts into a
/// plain array. Every cell is an integer sum — hits, totals, and how
/// many records landed in the bin — so partial series over one span
/// [`add`](TimeSeries::add) up in any order. The record count is what
/// marks a bin as seen: `record_hits(t, 0, 0)` makes a bin with total
/// 0, which the series reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    bin_secs: i64,
    first_bin: i64,
    cells: Vec<Cell>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    hits: u64,
    total: u64,
    records: u64,
}

impl TimeSeries {
    /// A series of `bin_secs`-wide bins covering `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_secs` is not positive.
    pub fn new(bin_secs: i64, from: Time, until: Time) -> TimeSeries {
        assert!(bin_secs > 0, "bin width must be positive");
        let first_bin = from.unix().div_euclid(bin_secs);
        let len = if until > from {
            (until.unix() - 1).div_euclid(bin_secs) - first_bin + 1
        } else {
            0
        };
        TimeSeries {
            bin_secs,
            first_bin,
            cells: vec![Cell::default(); len as usize],
        }
    }

    /// The cell holding `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the span the series covers.
    fn cell(&mut self, t: Time) -> &mut Cell {
        let index = t.unix().div_euclid(self.bin_secs) - self.first_bin;
        usize::try_from(index)
            .ok()
            .and_then(|i| self.cells.get_mut(i))
            .unwrap_or_else(|| panic!("{t} is outside the series' span"))
    }

    /// Record a boolean observation (e.g. request success).
    pub fn record_bool(&mut self, t: Time, hit: bool) {
        let cell = self.cell(t);
        cell.records += 1;
        cell.total += 1;
        cell.hits += u64::from(hit);
    }

    /// Record a weighted observation: `hits` out of `total` (used when a
    /// single probe stands in for many dependent domains, as in the
    /// Figure 4 impact analysis).
    pub fn record_hits(&mut self, t: Time, hits: u64, total: u64) {
        let cell = self.cell(t);
        cell.records += 1;
        cell.total += total;
        cell.hits += hits;
    }

    /// Add another series over the same span, bin by bin.
    ///
    /// # Panics
    ///
    /// Panics if the two cover different bins.
    pub fn add(&mut self, other: &TimeSeries) {
        assert!(
            (self.bin_secs, self.first_bin, self.cells.len())
                == (other.bin_secs, other.first_bin, other.cells.len()),
            "cannot add series over different spans"
        );
        for (cell, o) in self.cells.iter_mut().zip(&other.cells) {
            cell.hits += o.hits;
            cell.total += o.total;
            cell.records += o.records;
        }
    }

    /// Every bin some record reached, as `(bin_start_time, cell)`, in
    /// time order.
    fn seen(&self) -> impl Iterator<Item = (Time, &Cell)> {
        (self.first_bin..)
            .zip(&self.cells)
            .filter(|(_, cell)| cell.records > 0)
            .map(|(k, cell)| (Time::from_unix(k * self.bin_secs), cell))
    }

    /// Per-bin `(bin_start_time, hit_fraction)`.
    pub fn fractions(&self) -> Vec<(Time, f64)> {
        self.seen()
            .map(|(t, cell)| (t, cell.hits as f64 / cell.total.max(1) as f64))
            .collect()
    }

    /// Per-bin `(bin_start_time, hit_count)` — absolute counts, as in
    /// Figure 4's "number of domains" axis.
    pub fn counts(&self) -> Vec<(Time, u64)> {
        self.seen().map(|(t, cell)| (t, cell.hits)).collect()
    }

    /// Number of bins with at least one observation.
    pub fn bin_count(&self) -> usize {
        self.seen().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + h * 3_600
    }

    fn hours(n: i64) -> TimeSeries {
        TimeSeries::new(3_600, t(0), t(n))
    }

    #[test]
    fn fractions_per_bin() {
        let mut ts = hours(2);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), false);
        ts.record_bool(t(1), false);
        let f = ts.fractions();
        assert_eq!(f.len(), 2);
        assert!((f[0].1 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(f[1].1, 0.0);
    }

    #[test]
    fn counts() {
        let mut ts = hours(1);
        ts.record_bool(t(0), true);
        ts.record_bool(t(0), true);
        assert_eq!(ts.counts()[0].1, 2);
    }

    #[test]
    fn weighted_hits() {
        let mut ts = hours(1);
        ts.record_hits(t(0), 163_000, 600_000);
        assert_eq!(ts.counts()[0].1, 163_000);
        assert!((ts.fractions()[0].1 - 163_000.0 / 600_000.0).abs() < 1e-9);
    }

    #[test]
    fn bins_are_time_ordered() {
        let mut ts = hours(6);
        ts.record_bool(t(5), true);
        ts.record_bool(t(1), true);
        ts.record_bool(t(3), true);
        let times: Vec<_> = ts.fractions().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ts.bin_count(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_panics() {
        TimeSeries::new(0, t(0), t(1));
    }

    #[test]
    fn zero_weight_bins_are_kept() {
        // A responder with no Alexa domains still has Figure 4 bins.
        let mut ts = hours(3);
        for h in [0, 2] {
            ts.record_hits(t(h), 0, 0);
        }
        assert_eq!(ts.bin_count(), 2);
        assert_eq!(ts.counts(), [(t(0), 0), (t(2), 0)]);
        assert_eq!(ts.fractions(), [(t(0), 0.0), (t(2), 0.0)]);
    }

    #[test]
    fn a_probe_past_the_last_round_start_has_a_bin() {
        // A span starting mid-bin: a probe staggered past a bin edge
        // lands one bin later than its round's start.
        let start = t(0) + 1_800;
        let mut ts = TimeSeries::new(3_600, start, start + 2 * 3_600);
        for round in 0..2 {
            ts.record_bool(start + round * 3_600 + 2_000, true);
        }
        assert_eq!(ts.fractions(), [(t(1), 1.0), (t(2), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "outside the series' span")]
    fn times_outside_the_span_are_refused() {
        hours(2).record_bool(t(2), true);
    }

    #[test]
    #[should_panic(expected = "different spans")]
    fn add_rejects_mismatched_spans() {
        hours(2).add(&hours(3));
    }
}
