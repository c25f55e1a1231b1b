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
//! Counters and histograms are keyed by a `(metric, label)` pair, e.g.
//! `(catalog::NET_FAILURE_TCP, "Virginia")`. The metric is a typed
//! [`catalog`] handle whose index picks its series directly; the label
//! is a [`Label`] — a `&'static str` literal or a shared `Arc<str>`,
//! which the series keeps and later writes match by pointer, so a write
//! to an existing series neither hashes, compares strings, nor
//! allocates.
//! Each metric's series stay sorted by label text, so iteration and
//! rendering are canonical whatever order the writes came in.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod catalog;
pub mod json;
pub mod prom;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
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

/// A catalog metric: its dotted name and its dense index, the slot its
/// series occupy in every [`Registry`]. Only [`catalog`] makes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Metric {
    index: u16,
    name: &'static str,
}

impl Metric {
    /// The dotted name (`net.failure.tcp`).
    pub const fn name(self) -> &'static str {
        self.name
    }

    fn index(self) -> usize {
        usize::from(self.index)
    }
}

/// A metric named for a read: a catalog handle, or its dotted name
/// (which the accounting tests use to cross-check the catalog's values).
pub trait MetricRef {
    /// The catalog entry, if there is one.
    fn metric(self) -> Option<Metric>;
}

impl MetricRef for Metric {
    fn metric(self) -> Option<Metric> {
        Some(self)
    }
}

impl MetricRef for &str {
    fn metric(self) -> Option<Metric> {
        catalog::by_name(self)
    }
}

/// A series label, as a write passes it.
///
/// Closed sets — regions, cache and validation outcomes, fault kinds —
/// are `&'static str` literals, which a series keeps as they are. An
/// open label on a hot path — a responder URL, an infrastructure group,
/// an outage host — is an `Arc<str>` its owner makes once (per work
/// unit, per topology host) and lends to every write; the series keeps
/// a clone. A later write of either kind finds its series by pointer
/// before comparing text, and the text is never copied. Any other text
/// is borrowed and copied once, when its series is created.
#[derive(Debug, Clone, Copy)]
pub enum Label<'a> {
    /// A literal from a closed set.
    Static(&'static str),
    /// An open label the writer shares with the registry.
    Shared(&'a Arc<str>),
    /// Any other text, matched by comparison.
    Borrowed(&'a str),
}

impl From<&'static str> for Label<'_> {
    fn from(text: &'static str) -> Self {
        Label::Static(text)
    }
}

impl<'a> From<&'a Arc<str>> for Label<'a> {
    fn from(text: &'a Arc<str>) -> Self {
        Label::Shared(text)
    }
}

impl<'a> From<&'a String> for Label<'a> {
    fn from(text: &'a String) -> Self {
        Label::Borrowed(text)
    }
}

impl Label<'_> {
    fn as_str(&self) -> &str {
        match self {
            Label::Static(text) | Label::Borrowed(text) => text,
            Label::Shared(text) => text,
        }
    }

    fn key(self) -> Key {
        match self {
            Label::Static(text) => Key::Static(text),
            Label::Shared(text) => Key::Shared(Arc::clone(text)),
            Label::Borrowed(text) => Key::Shared(Arc::from(text)),
        }
    }
}

/// A label as a series keeps it. Its text lives as long as the series,
/// so no other string can occupy its address meanwhile: a write whose
/// text has the same address and length has the same text.
#[derive(Debug, Clone)]
enum Key {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Key {
    fn as_str(&self) -> &str {
        match self {
            Key::Static(text) => text,
            Key::Shared(text) => text,
        }
    }
}

/// One metric's series, sorted by label text.
#[derive(Debug, Clone)]
struct Series<V> {
    entries: Vec<(Key, V)>,
}

impl<V> Default for Series<V> {
    fn default() -> Self {
        Series {
            entries: Vec::new(),
        }
    }
}

impl<V> Series<V> {
    /// Where `text` is (`Ok`) or belongs (`Err`): a stored key at the
    /// same address first, then a binary search by text.
    fn find(&self, text: &str) -> Result<usize, usize> {
        match self
            .entries
            .iter()
            .position(|(key, _)| std::ptr::eq(key.as_str(), text))
        {
            Some(i) => Ok(i),
            None => self
                .entries
                .binary_search_by(|(key, _)| key.as_str().cmp(text)),
        }
    }

    fn get(&self, text: &str) -> Option<&V> {
        let i = self.find(text).ok()?;
        Some(&self.entries[i].1)
    }

    /// The value at `label`, created by `init` on first use.
    fn entry(&mut self, label: Label<'_>, init: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(label.as_str()) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (label.key(), init()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Fold `other` in, combining values that share a label.
    fn absorb(&mut self, other: &Series<V>, combine: impl Fn(&mut V, &V))
    where
        V: Clone,
    {
        for (key, value) in &other.entries {
            match self.find(key.as_str()) {
                Ok(i) => combine(&mut self.entries[i].1, value),
                Err(i) => self.entries.insert(i, (key.clone(), value.clone())),
            }
        }
    }
}

/// The series of one metric, indexed by [`Metric`]: empty until the
/// first write, then one slot per catalog entry.
fn slot<V>(slots: &mut Vec<Series<V>>, metric: Metric) -> &mut Series<V> {
    if slots.is_empty() {
        slots.resize_with(catalog::ALL.len(), Series::default);
    }
    &mut slots[metric.index()]
}

/// `(metric, label, value)` over `slots`, in (name, label) order.
fn flatten<V>(slots: &[Series<V>]) -> impl Iterator<Item = (&str, &str, &V)> {
    catalog::ALL.iter().zip(slots).flat_map(|(metric, series)| {
        series
            .entries
            .iter()
            .map(move |(key, value)| (metric.name, key.as_str(), value))
    })
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
#[derive(Clone, Default)]
pub struct Registry {
    counters: Vec<Series<u64>>,
    histograms: Vec<Series<Histogram>>,
    wall: BTreeMap<Metric, WallSpan>,
    gauges: BTreeMap<Metric, GaugeSpan>,
}

impl PartialEq for Registry {
    fn eq(&self, other: &Registry) -> bool {
        // Wall-clock spans are intentionally ignored: two runs of the
        // same simulation are equal even if their real durations differ.
        self.counters().eq(other.counters()) && self.histograms().eq(other.histograms())
    }
}

impl Eq for Registry {}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters().collect::<Vec<_>>())
            .field("histograms", &self.histograms().collect::<Vec<_>>())
            .field("wall", &self.wall)
            .field("gauges", &self.gauges)
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// True if no deterministic metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none() && self.histograms().next().is_none()
    }

    /// Increment the counter `(metric, label)` by one.
    pub fn incr<'a>(&mut self, metric: Metric, label: impl Into<Label<'a>>) {
        self.add(metric, label, 1);
    }

    /// Increment the counter `(metric, label)` by `n` (creating it, even
    /// for `n = 0`).
    pub fn add<'a>(&mut self, metric: Metric, label: impl Into<Label<'a>>, n: u64) {
        *slot(&mut self.counters, metric).entry(label.into(), || 0) += n;
    }

    /// Current value of the counter `(metric, label)` (0 if never set).
    pub fn counter(&self, metric: impl MetricRef, label: &str) -> u64 {
        metric
            .metric()
            .and_then(|m| self.counters.get(m.index())?.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of all labels under `metric` (0 if never set).
    pub fn counter_total(&self, metric: impl MetricRef) -> u64 {
        metric
            .metric()
            .and_then(|m| self.counters.get(m.index()))
            .map(|series| series.entries.iter().map(|(_, n)| n).sum())
            .unwrap_or(0)
    }

    /// Record one sample into the histogram `(metric, label)`.
    pub fn observe<'a>(&mut self, metric: Metric, label: impl Into<Label<'a>>, value: u64) {
        slot(&mut self.histograms, metric)
            .entry(label.into(), Histogram::new)
            .record(value);
    }

    /// The histogram at `(metric, label)`, if any sample was recorded.
    pub fn histogram(&self, metric: impl MetricRef, label: &str) -> Option<&Histogram> {
        self.histograms.get(metric.metric()?.index())?.get(label)
    }

    /// Time `f` as a wall-clock span under `metric`.
    ///
    /// The measurement lands in the wall section only — it can never
    /// appear in the exposition or influence equality.
    pub fn time<R>(&mut self, metric: Metric, f: impl FnOnce() -> R) -> R {
        #[expect(clippy::disallowed_methods, reason = "a wall span, not an artifact")]
        let start = Instant::now();
        let out = f();
        self.record_wall(metric, start.elapsed().as_nanos());
        out
    }

    /// Record one wall-clock span observation directly.
    pub fn record_wall(&mut self, metric: Metric, nanos: u128) {
        let span = self.wall.entry(metric).or_default();
        span.count += 1;
        span.total_nanos += nanos;
    }

    /// Number of wall-clock observations recorded under `metric`.
    pub fn wall_count(&self, metric: impl MetricRef) -> u64 {
        metric
            .metric()
            .and_then(|m| self.wall.get(&m))
            .map_or(0, |s| s.count)
    }

    /// Set the gauge `metric` to `value`, tracking its high watermark.
    ///
    /// Gauges are introspection-only (see [`GaugeSpan`]): they never
    /// reach the equality-gated exposition or equality. Use them
    /// for run-dependent values — peak memory, allocation counts,
    /// scrape counts — which are allowed to differ between runs that
    /// produce byte-identical artifacts.
    pub fn set_gauge(&mut self, metric: Metric, value: u64) {
        let g = self.gauges.entry(metric).or_default();
        g.last = value;
        g.max = g.max.max(value);
        g.sets += 1;
    }

    /// Last value set on gauge `metric` (`None` if never set).
    pub fn gauge(&self, metric: impl MetricRef) -> Option<u64> {
        self.gauges.get(&metric.metric()?).map(|g| g.last)
    }

    /// High watermark of gauge `metric` (`None` if never set).
    pub fn gauge_max(&self, metric: impl MetricRef) -> Option<u64> {
        self.gauges.get(&metric.metric()?).map(|g| g.max)
    }

    /// Render the gauges for human inspection (never an artifact). One
    /// line per gauge: `name last=.. max=.. sets=..`, or an explicit
    /// placeholder when none were set.
    pub fn gauge_report(&self) -> String {
        if self.gauges.is_empty() {
            return String::from("(no gauges recorded)\n");
        }
        let mut out = String::new();
        for (metric, g) in &self.gauges {
            let _ = writeln!(
                out,
                "{} last={} max={} sets={}",
                metric.name(),
                g.last,
                g.max,
                g.sets
            );
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
        for (metric, series) in catalog::ALL.iter().zip(&other.counters) {
            if !series.entries.is_empty() {
                slot(&mut self.counters, *metric).absorb(series, |mine, n| *mine += n);
            }
        }
        for (metric, series) in catalog::ALL.iter().zip(&other.histograms) {
            if !series.entries.is_empty() {
                slot(&mut self.histograms, *metric).absorb(series, Histogram::absorb);
            }
        }
        for (metric, span) in &other.wall {
            let mine = self.wall.entry(*metric).or_default();
            mine.count += span.count;
            mine.total_nanos += span.total_nanos;
        }
        // Gauges combine by elementwise max (and summed set counts), so
        // merging per-chunk registries in any order reports the same
        // campaign-wide high watermark.
        for (metric, gauge) in &other.gauges {
            let mine = self.gauges.entry(*metric).or_default();
            mine.last = mine.last.max(gauge.last);
            mine.max = mine.max.max(gauge.max);
            mine.sets += gauge.sets;
        }
    }

    /// Iterate all counters as `(metric, label, value)` in canonical
    /// (lexicographic) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        flatten(&self.counters).map(|(metric, label, n)| (metric, label, *n))
    }

    /// Iterate all histograms as `(metric, label, histogram)` in
    /// canonical (lexicographic) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, &Histogram)> {
        flatten(&self.histograms)
    }

    /// Render the deterministic sections in the Prometheus text
    /// exposition format (the `telemetry.prom` artifact); see
    /// [`prom`] for the exact subset emitted. Byte-stable across worker
    /// counts, so CI compares it with `diff`; wall-clock spans are
    /// never rendered.
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
    /// the gauge tail may differ between runs exactly like every other
    /// gauge surface. This render is never an artifact; see
    /// `telemetry::prom` for the full split.
    pub fn to_prometheus_with_gauges(&self) -> String {
        let mut out = self.to_prometheus();
        if self.gauges.is_empty() {
            return out;
        }
        out.push_str(prom::GAUGE_SECTION_MARKER);
        out.push('\n');
        for (metric, g) in &self.gauges {
            let name = metric.name();
            let family = prom::sanitize_metric(name);
            if family != name {
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
        for (metric, span) in &self.wall {
            let _ = writeln!(
                out,
                "{} count={} total={:.3}ms",
                metric.name(),
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
    use catalog::{
        MEM_PEAK_BYTES, NET_FAILURE_DNS, NET_FAILURE_TCP, NET_LATENCY_MS, SCAN_HOURLY_MERGE,
        SCAN_HOURLY_PROBES,
    };

    fn sample_a() -> Registry {
        let mut r = Registry::new();
        r.incr(NET_FAILURE_TCP, "Virginia");
        r.add(NET_FAILURE_TCP, "Oregon", 3);
        r.incr(SCAN_HOURLY_PROBES, "r0");
        r.observe(NET_LATENCY_MS, "Virginia", 12);
        r.observe(NET_LATENCY_MS, "Virginia", 80);
        r
    }

    fn sample_b() -> Registry {
        let mut r = Registry::new();
        r.add(NET_FAILURE_TCP, "Virginia", 4);
        r.incr(SCAN_HOURLY_PROBES, "r1");
        r.observe(NET_LATENCY_MS, "Oregon", 7);
        r
    }

    fn sample_c() -> Registry {
        let mut r = Registry::new();
        r.incr(NET_FAILURE_DNS, "Sydney");
        r.observe(NET_LATENCY_MS, "Virginia", 200);
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
        let h = r.histogram(NET_LATENCY_MS, "Virginia").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 92);
        assert_eq!(h.min(), 12);
        assert_eq!(h.max(), 80);
        assert!((h.mean() - 46.0).abs() < 1e-9);
        assert_eq!(h.bucket(Histogram::bucket_of(12)), 1);
        assert_eq!(h.bucket(Histogram::bucket_of(80)), 1);
        assert!(r.histogram(NET_LATENCY_MS, "Sydney").is_none());
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
        let result = with_wall.time(SCAN_HOURLY_MERGE, || 2 + 2);
        assert_eq!(result, 4);
        with_wall.record_wall(SCAN_HOURLY_MERGE, 1_000_000);
        assert_eq!(with_wall.wall_count(SCAN_HOURLY_MERGE), 2);

        let without_wall = sample_a();
        assert_eq!(with_wall, without_wall);
        assert_eq!(with_wall.to_prometheus(), without_wall.to_prometheus());
        assert!(!with_wall.to_prometheus().contains("merge"));
        assert!(with_wall
            .wall_report()
            .contains("scan.hourly.merge count=2"));
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
        with_gauge.set_gauge(MEM_PEAK_BYTES, 12_000);
        with_gauge.set_gauge(MEM_PEAK_BYTES, 7);
        assert_eq!(with_gauge.gauge(MEM_PEAK_BYTES), Some(7));
        assert_eq!(with_gauge.gauge_max(MEM_PEAK_BYTES), Some(12_000));
        assert_eq!(with_gauge.gauge("absent"), None);

        let without_gauge = sample_a();
        assert_eq!(with_gauge, without_gauge);
        assert_eq!(with_gauge.to_prometheus(), without_gauge.to_prometheus());
        assert!(with_gauge
            .gauge_report()
            .contains("mem.peak_bytes last=7 max=12000 sets=2"));
        assert_eq!(Registry::new().gauge_report(), "(no gauges recorded)\n");
    }

    #[test]
    fn gauge_exposition_extends_the_equality_gated_render_as_a_prefix() {
        let mut r = sample_a();
        r.set_gauge(MEM_PEAK_BYTES, 12);
        r.set_gauge(MEM_PEAK_BYTES, 7);
        let gated = r.to_prometheus();
        let operational = r.to_prometheus_with_gauges();
        // The equality-gated bytes are an exact prefix…
        assert!(operational.starts_with(&gated));
        // …separated by the marker, below which the gauges render as
        // stat-labeled gauge families.
        let tail = &operational[gated.len()..];
        assert!(tail.starts_with(prom::GAUGE_SECTION_MARKER));
        assert!(tail.contains("# TYPE mem_peak_bytes gauge"));
        assert!(tail.contains("# HELP mem_peak_bytes mem.peak_bytes"));
        assert!(tail.contains("mem_peak_bytes{stat=\"last\"} 7"));
        assert!(tail.contains("mem_peak_bytes{stat=\"max\"} 12"));
        assert!(tail.contains("mem_peak_bytes{stat=\"sets\"} 2"));
        // Truncating at the marker recovers the gated subset — the
        // live-smoke contract.
        assert_eq!(&operational[..gated.len()], gated);
        // No gauges → the two renders coincide.
        assert_eq!(
            sample_a().to_prometheus_with_gauges(),
            sample_a().to_prometheus()
        );
    }

    #[test]
    fn gauges_merge_by_high_watermark_in_any_order() {
        let mut a = Registry::new();
        a.set_gauge(MEM_PEAK_BYTES, 10);
        let mut b = Registry::new();
        b.set_gauge(MEM_PEAK_BYTES, 25);
        b.set_gauge(MEM_PEAK_BYTES, 3);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for merged in [&ab, &ba] {
            assert_eq!(merged.gauge_max(MEM_PEAK_BYTES), Some(25));
            assert_eq!(merged.gauge(MEM_PEAK_BYTES), Some(10).max(Some(3)));
            assert!(merged.gauge_report().contains("sets=3"));
        }
    }

    #[test]
    fn wall_spans_merge_too() {
        let mut a = Registry::new();
        a.record_wall(SCAN_HOURLY_MERGE, 10);
        let mut b = Registry::new();
        b.record_wall(SCAN_HOURLY_MERGE, 30);
        a.merge(&b);
        assert_eq!(a.wall_count(SCAN_HOURLY_MERGE), 2);
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
