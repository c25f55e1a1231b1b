//! Deterministic, mergeable telemetry for the measurement pipelines.
//!
//! The scan campaigns are sharded across worker threads (DESIGN.md §6),
//! and the repo's core invariant is that the *serial* and *parallel*
//! runs are byte-identical. Telemetry must not weaken that, so this
//! crate splits its state into two classes:
//!
//! * **Deterministic** — [`Registry::incr`] counters and
//!   [`Registry::observe`] histograms. These depend only on simulated
//!   events, participate in [`Registry::to_prometheus`] (the
//!   `telemetry.prom` artifact) and in equality, and merge by
//!   elementwise sum, so
//!   combining per-shard registries in canonical shard order yields the
//!   exact registry a serial run would have produced.
//! * **Wall-clock** — [`Registry::time`] span timers. These measure
//!   real elapsed time (merge timings, shard durations) and are
//!   **excluded** from `to_prometheus` and from `==`; they exist for human
//!   inspection via [`Registry::wall_report`] only. No wall-clock value
//!   can ever reach an artifact.
//! * **Gauges** — [`Registry::set_gauge`] high-watermark gauges
//!   (peak memory, health-state counts, `ocspd` scrape counts). Some
//!   depend on the run rather than the model — peak memory differs
//!   between worker counts that produce byte-identical artifacts — so
//!   gauges are excluded from the equality-gated exposition and `==`
//!   just like wall-clock spans, and surface only through
//!   [`Registry::gauge_report`], the operational tail of
//!   [`Registry::to_prometheus_with_gauges`], and the accessor
//!   methods.
//!
//! Counters and histograms are keyed by a `(metric, label)` pair of
//! strings, e.g. `("net.failure.tcp", "Virginia")`. Lookups on the hot
//! path borrow the `&str` keys and allocate only on first insertion.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod prom;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds the value
/// zero, bucket `i ≥ 1` holds values with `floor(log2(v)) == i - 1`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Exact `count`/`sum`/`min`/`max` are kept alongside the buckets, so
/// merging histograms (elementwise) loses no summary statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Index of the bucket a value falls in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    fn absorb(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of one log2 bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// The value range a bucket covers, as an inclusive-exclusive
    /// `[lo, hi)` pair in `f64` (bucket 0 is the point `[0, 1)`; bucket
    /// `i ≥ 1` is `[2^(i-1), 2^i)`).
    fn bucket_bounds(index: usize) -> (f64, f64) {
        if index == 0 {
            (0.0, 1.0)
        } else {
            ((1u128 << (index - 1)) as f64, (1u128 << index) as f64)
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the log2 bucket the target rank falls in, clamped to the
    /// exact recorded `[min, max]`. `None` if the histogram is empty.
    ///
    /// The estimator: with `target = q · count`, walk the cumulative
    /// bucket counts to the first bucket whose cumulative count reaches
    /// `target`, then interpolate `lo + (target − below)/occupancy ·
    /// (hi − lo)` across that bucket's value range. The clamp makes
    /// single-bucket distributions exact at the recorded extremes.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (index, &occupancy) in self.buckets.iter().enumerate() {
            if occupancy == 0 {
                continue;
            }
            let cumulative = below + occupancy;
            if cumulative as f64 >= target {
                let (lo, hi) = Histogram::bucket_bounds(index);
                let fraction = ((target - below as f64) / occupancy as f64).clamp(0.0, 1.0);
                let estimate = lo + fraction * (hi - lo);
                return Some(estimate.clamp(self.min as f64, self.max as f64));
            }
            below = cumulative;
        }
        Some(self.max as f64)
    }
}

/// Aggregated wall-clock time for one span name. Never serialized into
/// artifacts; see the crate docs.
#[derive(Debug, Clone, Copy, Default)]
struct WallSpan {
    count: u64,
    total_nanos: u128,
}

/// A high-watermark gauge: last value set, maximum ever set, and how
/// many times it was set. Introspection only (peak memory and the
/// like) — excluded from equality and the equality-gated Prometheus
/// exposition, exactly like wall-clock spans, because gauge values may
/// legitimately differ between runs that produce byte-identical
/// artifacts.
#[derive(Debug, Clone, Copy, Default)]
struct GaugeSpan {
    last: u64,
    max: u64,
    sets: u64,
}

/// A mergeable set of deterministic counters/histograms plus
/// non-deterministic wall-clock spans.
///
/// Equality and [`Registry::to_prometheus`] cover only the
/// deterministic sections, so `assert_eq!` between a serial and a parallel run's
/// registries is meaningful even when both also timed their merges.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    wall: BTreeMap<String, WallSpan>,
    gauges: BTreeMap<String, GaugeSpan>,
}

impl PartialEq for Registry {
    fn eq(&self, other: &Registry) -> bool {
        // Wall-clock spans are intentionally ignored: two runs of the
        // same simulation are equal even if their real durations differ.
        self.counters == other.counters && self.histograms == other.histograms
    }
}

impl Eq for Registry {}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// True if no deterministic metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Increment the counter `(metric, label)` by one.
    pub fn incr(&mut self, metric: &str, label: &str) {
        self.add(metric, label, 1);
    }

    /// Increment the counter `(metric, label)` by `n`.
    pub fn add(&mut self, metric: &str, label: &str, n: u64) {
        if let Some(labels) = self.counters.get_mut(metric) {
            if let Some(v) = labels.get_mut(label) {
                *v += n;
                return;
            }
            labels.insert(label.to_owned(), n);
            return;
        }
        let mut labels = BTreeMap::new();
        labels.insert(label.to_owned(), n);
        self.counters.insert(metric.to_owned(), labels);
    }

    /// Current value of the counter `(metric, label)` (0 if never set).
    pub fn counter(&self, metric: &str, label: &str) -> u64 {
        self.counters
            .get(metric)
            .and_then(|labels| labels.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of all labels under `metric` (0 if never set).
    pub fn counter_total(&self, metric: &str) -> u64 {
        self.counters
            .get(metric)
            .map(|labels| labels.values().sum())
            .unwrap_or(0)
    }

    /// Record one sample into the histogram `(metric, label)`.
    pub fn observe(&mut self, metric: &str, label: &str, value: u64) {
        if let Some(labels) = self.histograms.get_mut(metric) {
            if let Some(h) = labels.get_mut(label) {
                h.record(value);
                return;
            }
            let mut h = Histogram::new();
            h.record(value);
            labels.insert(label.to_owned(), h);
            return;
        }
        let mut h = Histogram::new();
        h.record(value);
        let mut labels = BTreeMap::new();
        labels.insert(label.to_owned(), h);
        self.histograms.insert(metric.to_owned(), labels);
    }

    /// The histogram at `(metric, label)`, if any sample was recorded.
    pub fn histogram(&self, metric: &str, label: &str) -> Option<&Histogram> {
        self.histograms
            .get(metric)
            .and_then(|labels| labels.get(label))
    }

    /// Time `f` as a wall-clock span named `name`.
    ///
    /// The measurement lands in the wall section only — it can never
    /// appear in the exposition or influence equality.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record_wall(name, start.elapsed().as_nanos());
        out
    }

    /// Record one wall-clock span observation directly.
    pub fn record_wall(&mut self, name: &str, nanos: u128) {
        if let Some(span) = self.wall.get_mut(name) {
            span.count += 1;
            span.total_nanos += nanos;
            return;
        }
        self.wall.insert(
            name.to_owned(),
            WallSpan {
                count: 1,
                total_nanos: nanos,
            },
        );
    }

    /// Number of wall-clock observations recorded under `name`.
    pub fn wall_count(&self, name: &str) -> u64 {
        self.wall.get(name).map(|s| s.count).unwrap_or(0)
    }

    /// Set the gauge `name` to `value`, tracking its high watermark.
    ///
    /// Gauges are introspection-only (see [`GaugeSpan`]): they never
    /// reach the equality-gated exposition or equality. Use them
    /// for run-dependent values — peak memory, allocation counts,
    /// scrape counts — which are allowed to differ between runs that
    /// produce byte-identical artifacts.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_owned()).or_default();
        g.last = value;
        g.max = g.max.max(value);
        g.sets += 1;
    }

    /// Last value set on gauge `name` (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|g| g.last)
    }

    /// High watermark of gauge `name` (`None` if never set).
    pub fn gauge_max(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|g| g.max)
    }

    /// Render the gauges for human inspection (never an artifact). One
    /// line per gauge: `name last=.. max=.. sets=..`, or an explicit
    /// placeholder when none were set.
    pub fn gauge_report(&self) -> String {
        if self.gauges.is_empty() {
            return String::from("(no gauges recorded)\n");
        }
        let mut out = String::new();
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "{name} last={} max={} sets={}", g.last, g.max, g.sets);
        }
        out
    }

    /// Fold `other` into `self`.
    ///
    /// Counters and histograms add elementwise, so merging is
    /// associative and commutative; pipelines nevertheless merge
    /// per-shard registries in canonical shard order (matching how their
    /// other per-shard results merge), which the determinism tests rely
    /// on.
    pub fn merge(&mut self, other: &Registry) {
        for (metric, labels) in &other.counters {
            for (label, n) in labels {
                self.add(metric, label, *n);
            }
        }
        for (metric, labels) in &other.histograms {
            for (label, h) in labels {
                if let Some(mine) = self.histograms.get_mut(metric) {
                    if let Some(existing) = mine.get_mut(label) {
                        existing.absorb(h);
                    } else {
                        mine.insert(label.to_owned(), h.clone());
                    }
                } else {
                    let mut mine = BTreeMap::new();
                    mine.insert(label.to_owned(), h.clone());
                    self.histograms.insert(metric.to_owned(), mine);
                }
            }
        }
        for (name, span) in &other.wall {
            if let Some(mine) = self.wall.get_mut(name) {
                mine.count += span.count;
                mine.total_nanos += span.total_nanos;
            } else {
                self.wall.insert(name.to_owned(), *span);
            }
        }
        // Gauges combine by elementwise max (and summed set counts), so
        // merging per-chunk registries in any order reports the same
        // campaign-wide high watermark.
        for (name, gauge) in &other.gauges {
            if let Some(mine) = self.gauges.get_mut(name) {
                mine.last = mine.last.max(gauge.last);
                mine.max = mine.max.max(gauge.max);
                mine.sets += gauge.sets;
            } else {
                self.gauges.insert(name.to_owned(), *gauge);
            }
        }
    }

    /// Iterate all counters as `(metric, label, value)` in canonical
    /// (lexicographic) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters.iter().flat_map(|(metric, labels)| {
            labels
                .iter()
                .map(move |(label, v)| (metric.as_str(), label.as_str(), *v))
        })
    }

    /// Iterate all histograms as `(metric, label, histogram)` in
    /// canonical (lexicographic) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, &Histogram)> {
        self.histograms.iter().flat_map(|(metric, labels)| {
            labels
                .iter()
                .map(move |(label, h)| (metric.as_str(), label.as_str(), h))
        })
    }

    /// Render the deterministic sections in the Prometheus text
    /// exposition format (the `telemetry.prom` artifact); see
    /// [`prom::Exposition`] for the exact subset emitted. Byte-stable
    /// across worker counts; wall-clock spans are never rendered.
    pub fn to_prometheus(&self) -> String {
        prom::Exposition::from_registry(self).render()
    }

    /// Render the *operational* exposition the live service serves at
    /// `GET /metrics`: the equality-gated [`Registry::to_prometheus`]
    /// bytes as an exact prefix, then — after
    /// [`prom::GAUGE_SECTION_MARKER`] — every gauge as a Prometheus
    /// `gauge` family with `stat="last"/"max"/"sets"` samples.
    ///
    /// The prefix property is the contract the live-smoke CI job
    /// leans on: truncating a scrape at the marker yields bytes that
    /// must equal an offline [`Registry::to_prometheus`] render, while
    /// the gauge tail may differ between runs exactly like
    /// every other gauge surface. [`prom::Exposition::parse`] rejects
    /// `gauge` families on purpose, so the tail can never leak into
    /// the determinism-gated toolchain; see `telemetry::prom` for the
    /// full split.
    pub fn to_prometheus_with_gauges(&self) -> String {
        let mut out = self.to_prometheus();
        if self.gauges.is_empty() {
            return out;
        }
        out.push_str(prom::GAUGE_SECTION_MARKER);
        out.push('\n');
        for (name, g) in &self.gauges {
            let family = prom::sanitize_metric(name);
            if family != *name {
                let _ = writeln!(out, "# HELP {family} {name}");
            }
            let _ = writeln!(out, "# TYPE {family} gauge");
            let _ = writeln!(out, "{family}{{stat=\"last\"}} {}", g.last);
            let _ = writeln!(out, "{family}{{stat=\"max\"}} {}", g.max);
            let _ = writeln!(out, "{family}{{stat=\"sets\"}} {}", g.sets);
        }
        out
    }

    /// Render the wall-clock spans for human inspection (never an
    /// artifact). Returns one line per span: `name count total_ms` — or
    /// an explicit `(no wall timings recorded)` line when no span was
    /// ever timed (e.g. replayed or freshly-merged registries), so the
    /// report is never silently empty.
    pub fn wall_report(&self) -> String {
        if self.wall.is_empty() {
            return String::from("(no wall timings recorded)\n");
        }
        let mut out = String::new();
        for (name, span) in &self.wall {
            let _ = writeln!(
                out,
                "{name} count={} total={:.3}ms",
                span.count,
                span.total_nanos as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_a() -> Registry {
        let mut r = Registry::new();
        r.incr("net.failure.tcp", "Virginia");
        r.add("net.failure.tcp", "Oregon", 3);
        r.incr("scan.probes", "r0");
        r.observe("latency", "Virginia", 12);
        r.observe("latency", "Virginia", 80);
        r
    }

    fn sample_b() -> Registry {
        let mut r = Registry::new();
        r.add("net.failure.tcp", "Virginia", 4);
        r.incr("scan.probes", "r1");
        r.observe("latency", "Oregon", 7);
        r
    }

    fn sample_c() -> Registry {
        let mut r = Registry::new();
        r.incr("net.failure.dns", "Sydney");
        r.observe("latency", "Virginia", 200);
        r
    }

    fn merged(parts: &[&Registry]) -> Registry {
        let mut out = Registry::new();
        for p in parts {
            out.merge(p);
        }
        out
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let r = sample_a();
        assert_eq!(r.counter("net.failure.tcp", "Virginia"), 1);
        assert_eq!(r.counter("net.failure.tcp", "Oregon"), 3);
        assert_eq!(r.counter_total("net.failure.tcp"), 4);
        assert_eq!(r.counter("net.failure.tcp", "Sydney"), 0);
        assert_eq!(r.counter_total("absent"), 0);
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (sample_a(), sample_b(), sample_c());
        let left = merged(&[&merged(&[&a, &b]), &c]);
        let right = merged(&[&a, &merged(&[&b, &c])]);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative_so_canonical_order_is_safe() {
        // Elementwise sums commute, so the canonical shard-order merge
        // the pipelines use yields the same registry any order would —
        // the ordering convention is for auditability, not correctness.
        let (a, b, c) = (sample_a(), sample_b(), sample_c());
        let forward = merged(&[&a, &b, &c]);
        let backward = merged(&[&c, &b, &a]);
        assert_eq!(forward, backward);
        assert_eq!(forward.to_prometheus(), backward.to_prometheus());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = sample_a();
        let mut out = a.clone();
        out.merge(&Registry::new());
        assert_eq!(out, a);
        let mut empty = Registry::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn histograms_track_summary_stats_and_buckets() {
        let r = sample_a();
        let h = r.histogram("latency", "Virginia").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 92);
        assert_eq!(h.min(), 12);
        assert_eq!(h.max(), 80);
        assert!((h.mean() - 46.0).abs() < 1e-9);
        assert_eq!(h.bucket(Histogram::bucket_of(12)), 1);
        assert_eq!(h.bucket(Histogram::bucket_of(80)), 1);
        assert!(r.histogram("latency", "Sydney").is_none());
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantile_is_exact_on_single_bucket_distributions() {
        // All mass in one bucket: the [min, max] clamp collapses the
        // interpolation to the exact recorded value at every quantile.
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(7);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.0), "q={q}");
        }
    }

    #[test]
    fn quantile_interpolates_known_distributions() {
        // Samples 1, 2, 3: bucket 1 holds {1}, bucket 2 ([2,4)) holds
        // {2, 3}. target = q·3 walks the cumulative counts.
        let mut h = Histogram::new();
        for v in [1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        // target 1.5 → bucket 2, fraction (1.5−1)/2 → 2 + 0.25·2 = 2.5.
        assert_eq!(h.quantile(0.5), Some(2.5));
        // target 3 lands at the top of bucket 2 → 4.0, clamped to max 3.
        assert_eq!(h.quantile(1.0), Some(3.0));

        // Zeros plus one far outlier: the median stays inside bucket 0
        // and the tail clamps to the recorded max, not the bucket's
        // upper bound (2048).
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        h.record(1024);
        // target 2 of 3 zeros → 0 + (2/3)·1 inside bucket 0's [0, 1).
        assert!((h.quantile(0.5).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.9), Some(1024.0));
        assert_eq!(h.quantile(1.0), Some(1024.0));
    }

    #[test]
    fn quantile_is_monotone_and_none_when_empty() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        let mut h = Histogram::new();
        for v in [0, 1, 3, 9, 40, 41, 500, 8_000, 9_001] {
            h.record(v);
        }
        let mut last = f64::NEG_INFINITY;
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= last, "quantile not monotone at q={q}: {v} < {last}");
            assert!((0.0..=9_001.0).contains(&v), "q={q} escaped [min, max]");
            last = v;
        }
        // Out-of-range q clamps rather than panics.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn wall_spans_are_excluded_from_equality_and_exposition() {
        let mut with_wall = sample_a();
        let result = with_wall.time("merge", || 2 + 2);
        assert_eq!(result, 4);
        with_wall.record_wall("merge", 1_000_000);
        assert_eq!(with_wall.wall_count("merge"), 2);

        let without_wall = sample_a();
        assert_eq!(with_wall, without_wall);
        assert_eq!(with_wall.to_prometheus(), without_wall.to_prometheus());
        assert!(!with_wall.to_prometheus().contains("merge"));
        assert!(with_wall.wall_report().contains("merge count=2"));
    }

    #[test]
    fn quantile_endpoints_are_exact_min_and_max() {
        // Pinned: q=0.0 must report the exact
        // recorded min and q=1.0 the exact recorded max, regardless of
        // bucket boundaries.
        let mut h = Histogram::new();
        for v in [5, 17, 300, 4_096] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(4_096.0));
        let mut single = Histogram::new();
        single.record(42);
        assert_eq!(single.quantile(0.0), Some(42.0));
        assert_eq!(single.quantile(1.0), Some(42.0));
    }

    #[test]
    fn gauges_are_excluded_from_equality_and_artifacts() {
        let mut with_gauge = sample_a();
        with_gauge.set_gauge("queue.depth", 12_000);
        with_gauge.set_gauge("queue.depth", 7);
        assert_eq!(with_gauge.gauge("queue.depth"), Some(7));
        assert_eq!(with_gauge.gauge_max("queue.depth"), Some(12_000));
        assert_eq!(with_gauge.gauge("absent"), None);

        let without_gauge = sample_a();
        assert_eq!(with_gauge, without_gauge);
        assert_eq!(with_gauge.to_prometheus(), without_gauge.to_prometheus());
        assert!(with_gauge
            .gauge_report()
            .contains("queue.depth last=7 max=12000 sets=2"));
        assert_eq!(Registry::new().gauge_report(), "(no gauges recorded)\n");
    }

    #[test]
    fn gauge_exposition_extends_the_equality_gated_render_as_a_prefix() {
        let mut r = sample_a();
        r.set_gauge("queue.depth", 12);
        r.set_gauge("queue.depth", 7);
        let gated = r.to_prometheus();
        let operational = r.to_prometheus_with_gauges();
        // The equality-gated bytes are an exact prefix…
        assert!(operational.starts_with(&gated));
        // …separated by the marker, below which the gauges render as
        // stat-labeled gauge families.
        let tail = &operational[gated.len()..];
        assert!(tail.starts_with(prom::GAUGE_SECTION_MARKER));
        assert!(tail.contains("# TYPE queue_depth gauge"));
        assert!(tail.contains("# HELP queue_depth queue.depth"));
        assert!(tail.contains("queue_depth{stat=\"last\"} 7"));
        assert!(tail.contains("queue_depth{stat=\"max\"} 12"));
        assert!(tail.contains("queue_depth{stat=\"sets\"} 2"));
        // Truncating at the marker recovers the gated subset — the
        // live-smoke contract.
        let truncated = &operational[..gated.len()];
        assert_eq!(truncated, gated);
        assert!(prom::Exposition::parse(truncated).is_ok());
        // The gauge tail is unparseable by design.
        assert!(prom::Exposition::parse(tail).is_err());
        // No gauges → the two renders coincide.
        assert_eq!(
            sample_a().to_prometheus_with_gauges(),
            sample_a().to_prometheus()
        );
    }

    #[test]
    fn gauges_merge_by_high_watermark_in_any_order() {
        let mut a = Registry::new();
        a.set_gauge("queue.depth", 10);
        let mut b = Registry::new();
        b.set_gauge("queue.depth", 25);
        b.set_gauge("queue.depth", 3);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for merged in [&ab, &ba] {
            assert_eq!(merged.gauge_max("queue.depth"), Some(25));
            assert_eq!(merged.gauge("queue.depth"), Some(10).max(Some(3)));
            assert!(merged.gauge_report().contains("sets=3"));
        }
    }

    #[test]
    fn wall_spans_merge_too() {
        let mut a = Registry::new();
        a.record_wall("shard", 10);
        let mut b = Registry::new();
        b.record_wall("shard", 30);
        a.merge(&b);
        assert_eq!(a.wall_count("shard"), 2);
        assert!(a.wall_report().contains("total=0.000"));
    }

    #[test]
    fn empty_registry_reads_zero() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.counter("x", "y"), 0);
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
