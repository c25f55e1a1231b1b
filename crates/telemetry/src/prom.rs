//! The Prometheus text exposition behind
//! [`Registry::to_prometheus`](crate::Registry::to_prometheus). It is
//! write-only: CI compares two expositions with `diff`, which names
//! every added, removed or changed series line with both values.
//!
//! The exposition is the `telemetry.prom` artifact, the one telemetry
//! export. It covers only the *deterministic* registry sections
//! (counters and log2 histograms — wall-clock spans are never
//! rendered), so the bytes are identical for every worker count and
//! every `run_chunked` chunking.
//!
//! Mapping onto the text format:
//!
//! * Registry metric names are dotted (`net.failure.tcp`); Prometheus
//!   metric names admit only `[A-Za-z0-9_:]`. Each metric is sanitized
//!   into a *family* name (`net_failure_tcp`) and the original spelling
//!   is kept on the family's `# HELP` line.
//! * The registry label becomes the `label` label:
//!   `net_failure_tcp{label="Virginia"} 5`.
//! * A [`Histogram`] renders as a native Prometheus histogram:
//!   cumulative `_bucket` series with `le` set to each occupied log2
//!   bucket's inclusive upper bound (`0`, `1`, `3`, `7`, … `2^i − 1`,
//!   then `+Inf`), plus exact `_sum` and `_count`.
//! * Families sort by name, samples by label, so rendering is
//!   canonical and one series is one line (pinned byte for byte by the
//!   unit tests below).
//!
//! # The equality-gated / operational split
//!
//! Two expositions share this module's format:
//!
//! * [`Registry::to_prometheus`] — **equality-gated**: counters and
//!   histograms only, byte-identical across worker counts and
//!   chunkings; committed as `results/telemetry.prom` and diffed
//!   exactly in CI.
//! * [`Registry::to_prometheus_with_gauges`](crate::Registry::to_prometheus_with_gauges)
//!   — **operational**: the equality-gated bytes as an *exact prefix*,
//!   then [`GAUGE_SECTION_MARKER`] and the gauges (`mem.*`,
//!   `health.*`, `ocspd.*`) as `gauge` families with
//!   `stat="last"/"max"/"sets"` samples. Gauges may legitimately differ
//!   between runs with identical artifacts, so this render is never an
//!   artifact; the live `/metrics` endpoint serves it, and the
//!   live-smoke CI job truncates a scrape at the marker to recover the
//!   equality-gated subset for byte comparison.

use crate::{Histogram, Registry, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    /// Monotone event counts.
    Counter,
    /// Log2-bucketed sample distributions.
    Histogram,
}

impl FamilyKind {
    fn keyword(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// The key identifying one series within a family: the registry label,
/// plus the `seed` dimension multi-seed ensembles add.
///
/// Single-run expositions carry no seed and render as
/// `name{label="…"} v`. An ensemble exposition (see
/// [`Exposition::from_seeded_registries`]) renders every series as
/// `name{label="…",seed="…"} v`, keeping per-seed telemetry separable
/// after the merge. Series order by label, then by the seed's
/// *decimal text* (`"2018"` before `"7"`): `figures --seeds N
/// --telemetry` has always written that order, so the seed stays a
/// string.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    label: String,
    seed: Option<String>,
}

/// One histogram series as exposed: cumulative buckets plus exact
/// sum/count.
struct PromHistogram {
    /// `(le, cumulative count)` pairs in emission order; `le` is a
    /// decimal integer upper bound, with `"+Inf"` last.
    buckets: Vec<(String, u64)>,
    sum: u64,
    count: u64,
}

/// One metric family: every series sharing a (sanitized) metric name.
struct Family {
    kind: FamilyKind,
    /// The registry metric name, rendered on `# HELP`.
    metric: String,
    counters: BTreeMap<SeriesKey, u64>,
    histograms: BTreeMap<SeriesKey, PromHistogram>,
}

/// A registry-derived exposition: the format-faithful view of one
/// run's (or one ensemble's) deterministic telemetry, ready to render.
#[derive(Default)]
pub struct Exposition {
    /// Families keyed by sanitized name.
    families: BTreeMap<String, Family>,
}

/// The comment line separating the equality-gated exposition from the
/// operational gauge section in
/// [`Registry::to_prometheus_with_gauges`](crate::Registry::to_prometheus_with_gauges).
/// Everything *above* the marker must byte-equal
/// [`Registry::to_prometheus`]; everything below is gauge territory.
/// CI's live-smoke job truncates scrapes at this line.
pub const GAUGE_SECTION_MARKER: &str =
    "# --- operational gauges (excluded from determinism gating) ---";

/// Sanitize a registry metric name into a Prometheus metric name:
/// every character outside `[A-Za-z0-9_:]` becomes `_`, and a leading
/// digit gains a `_` prefix.
pub fn sanitize_metric(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escape a label value per the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The inclusive upper bound of log2 bucket `index`, as its `le` label
/// value: bucket 0 holds only the value zero (`le="0"`); bucket `i ≥ 1`
/// holds `[2^(i−1), 2^i)`, so its integer upper bound is `2^i − 1`.
fn le_of_bucket(index: usize) -> String {
    if index == 0 {
        "0".to_string()
    } else {
        ((1u128 << index) - 1).to_string()
    }
}

impl Exposition {
    /// Snapshot the deterministic sections of a registry.
    ///
    /// Panics if one metric holds both counters and histograms — the
    /// catalog keeps names unique once sanitized, so that is the one
    /// collision left, and it is a programming error, not an input
    /// error.
    pub fn from_registry(registry: &Registry) -> Exposition {
        let mut exposition = Exposition::default();
        exposition.absorb(registry, None);
        exposition
    }

    /// Snapshot an *ensemble* of registries, one per seed, into a single
    /// exposition whose every series carries a `seed` label.
    ///
    /// Registries are absorbed in the order given; callers pass seeds in
    /// canonical (replica) order so the result is a pure function of the
    /// per-seed registries. Duplicate seeds panic — each replica owns
    /// its seed, so a repeat is a programming error.
    pub fn from_seeded_registries<'a>(
        parts: impl IntoIterator<Item = (u64, &'a Registry)>,
    ) -> Exposition {
        let mut exposition = Exposition::default();
        let mut seen = BTreeMap::new();
        for (seed, registry) in parts {
            assert!(
                seen.insert(seed, ()).is_none(),
                "duplicate ensemble seed {seed}"
            );
            exposition.absorb(registry, Some(seed));
        }
        exposition
    }

    fn absorb(&mut self, registry: &Registry, seed: Option<u64>) {
        let key = |label: &str| SeriesKey {
            label: label.to_owned(),
            seed: seed.map(|seed| seed.to_string()),
        };
        for (metric, label, value) in registry.counters() {
            let family = self.family_for(metric, FamilyKind::Counter);
            family.counters.insert(key(label), value);
        }
        for (metric, label, histogram) in registry.histograms() {
            let family = self.family_for(metric, FamilyKind::Histogram);
            family
                .histograms
                .insert(key(label), PromHistogram::from_histogram(histogram));
        }
    }

    fn family_for(&mut self, metric: &str, kind: FamilyKind) -> &mut Family {
        let name = sanitize_metric(metric);
        let family = self.families.entry(name.clone()).or_insert_with(|| Family {
            kind,
            metric: metric.to_owned(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        });
        assert!(
            family.metric == metric && family.kind == kind,
            "{:?} `{}` and {kind:?} `{metric}` collide on family `{name}`",
            family.kind,
            family.metric,
        );
        family
    }

    /// Render the canonical text exposition. Families sort by name,
    /// samples by label; every byte is a pure function of the model.
    pub fn render(&self) -> String {
        // The label set for one series: `label="…"` plus, for ensemble
        // series, `,seed="…"`.
        fn labels_of(key: &SeriesKey) -> String {
            let mut set = format!("label=\"{}\"", escape_label(&key.label));
            if let Some(seed) = &key.seed {
                let _ = write!(set, ",seed=\"{}\"", escape_label(seed));
            }
            set
        }
        let mut out = String::new();
        for (name, family) in &self.families {
            // Catalog names are `[a-z0-9._]` (pinned in `catalog`), so
            // the `# HELP` text needs no escaping.
            if family.metric != *name {
                let _ = writeln!(out, "# HELP {name} {}", family.metric);
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.keyword());
            for (key, value) in &family.counters {
                let _ = writeln!(out, "{name}{{{}}} {value}", labels_of(key));
            }
            for (key, h) in &family.histograms {
                let labels = labels_of(key);
                for (le, cumulative) in &h.buckets {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
            }
        }
        out
    }
}

impl PromHistogram {
    /// Expose one registry histogram: cumulative counts for every
    /// *occupied* log2 bucket (empty buckets are omitted — the `le`
    /// bounds make the series unambiguous), then the mandatory `+Inf`.
    fn from_histogram(histogram: &Histogram) -> PromHistogram {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for index in 0..HISTOGRAM_BUCKETS {
            let occupancy = histogram.bucket(index);
            if occupancy == 0 {
                continue;
            }
            cumulative += occupancy;
            buckets.push((le_of_bucket(index), cumulative));
        }
        buckets.push(("+Inf".to_string(), cumulative));
        PromHistogram {
            buckets,
            sum: histogram.sum(),
            count: histogram.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{NET_FAILURE_TCP, NET_LATENCY_MS, SCAN_HOURLY_PROBES};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.incr(NET_FAILURE_TCP, "Virginia");
        r.add(NET_FAILURE_TCP, "Oregon", 3);
        r.incr(SCAN_HOURLY_PROBES, "r0");
        r.observe(NET_LATENCY_MS, "Virginia", 0);
        r.observe(NET_LATENCY_MS, "Virginia", 12);
        r.observe(NET_LATENCY_MS, "Virginia", 80);
        r.observe(NET_LATENCY_MS, "Oregon", 7);
        r
    }

    #[test]
    fn render_is_canonical_and_complete() {
        let text = sample_registry().to_prometheus();
        let expected = "\
# HELP net_failure_tcp net.failure.tcp
# TYPE net_failure_tcp counter
net_failure_tcp{label=\"Oregon\"} 3
net_failure_tcp{label=\"Virginia\"} 1
# HELP net_latency_ms net.latency_ms
# TYPE net_latency_ms histogram
net_latency_ms_bucket{label=\"Oregon\",le=\"7\"} 1
net_latency_ms_bucket{label=\"Oregon\",le=\"+Inf\"} 1
net_latency_ms_sum{label=\"Oregon\"} 7
net_latency_ms_count{label=\"Oregon\"} 1
net_latency_ms_bucket{label=\"Virginia\",le=\"0\"} 1
net_latency_ms_bucket{label=\"Virginia\",le=\"15\"} 2
net_latency_ms_bucket{label=\"Virginia\",le=\"127\"} 3
net_latency_ms_bucket{label=\"Virginia\",le=\"+Inf\"} 3
net_latency_ms_sum{label=\"Virginia\"} 92
net_latency_ms_count{label=\"Virginia\"} 3
# HELP scan_hourly_probes scan.hourly.probes
# TYPE scan_hourly_probes counter
scan_hourly_probes{label=\"r0\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn the_help_line_carries_the_dotted_registry_name() {
        let mut r = Registry::new();
        r.incr(NET_FAILURE_TCP, "Virginia");
        r.observe(NET_LATENCY_MS, "x", 9);
        assert_eq!(
            r.to_prometheus(),
            "\
# HELP net_failure_tcp net.failure.tcp
# TYPE net_failure_tcp counter
net_failure_tcp{label=\"Virginia\"} 1
# HELP net_latency_ms net.latency_ms
# TYPE net_latency_ms histogram
net_latency_ms_bucket{label=\"x\",le=\"15\"} 1
net_latency_ms_bucket{label=\"x\",le=\"+Inf\"} 1
net_latency_ms_sum{label=\"x\"} 9
net_latency_ms_count{label=\"x\"} 1
"
        );
    }

    #[test]
    fn awkward_label_values_render_escaped() {
        let mut r = Registry::new();
        r.incr(
            SCAN_HOURLY_PROBES,
            "with \"quotes\" and \\slash\\ and\nnewline",
        );
        assert_eq!(
            r.to_prometheus(),
            r#"# HELP scan_hourly_probes scan.hourly.probes
# TYPE scan_hourly_probes counter
scan_hourly_probes{label="with \"quotes\" and \\slash\\ and\nnewline"} 1
"#
        );
    }

    #[test]
    fn sanitize_metric_normalizes_and_prefixes() {
        assert_eq!(sanitize_metric("net.failure.tcp"), "net_failure_tcp");
        assert_eq!(sanitize_metric("plain_name:ok"), "plain_name:ok");
        assert_eq!(sanitize_metric("0day"), "_0day");
        assert_eq!(sanitize_metric(""), "_");
        assert_eq!(sanitize_metric("söme metric"), "s_me_metric");
    }

    #[test]
    #[should_panic(expected = "collide")]
    fn a_metric_written_as_counter_and_histogram_is_loud() {
        let mut r = Registry::new();
        r.incr(NET_LATENCY_MS, "x");
        r.observe(NET_LATENCY_MS, "x", 1);
        let _ = r.to_prometheus();
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_bounds() {
        let mut r = Registry::new();
        for v in [1u64, 1, 2, 3, 1024] {
            r.observe(NET_LATENCY_MS, "l", v);
        }
        assert_eq!(
            r.to_prometheus(),
            "\
# HELP net_latency_ms net.latency_ms
# TYPE net_latency_ms histogram
net_latency_ms_bucket{label=\"l\",le=\"1\"} 2
net_latency_ms_bucket{label=\"l\",le=\"3\"} 4
net_latency_ms_bucket{label=\"l\",le=\"2047\"} 5
net_latency_ms_bucket{label=\"l\",le=\"+Inf\"} 5
net_latency_ms_sum{label=\"l\"} 1031
net_latency_ms_count{label=\"l\"} 5
"
        );
    }

    #[test]
    fn seeded_series_order_by_label_then_seed_text() {
        let mut a = Registry::new();
        a.incr(NET_FAILURE_TCP, "Virginia");
        a.observe(NET_LATENCY_MS, "Oregon", 7);
        let mut b = Registry::new();
        b.add(NET_FAILURE_TCP, "Virginia", 2);
        b.observe(NET_LATENCY_MS, "Oregon", 9);
        // Absorbed 7 first, yet seed "2018" renders first: the seed
        // compares as decimal text.
        let text = Exposition::from_seeded_registries([(7, &b), (2018, &a)]).render();
        let expected = "\
# HELP net_failure_tcp net.failure.tcp
# TYPE net_failure_tcp counter
net_failure_tcp{label=\"Virginia\",seed=\"2018\"} 1
net_failure_tcp{label=\"Virginia\",seed=\"7\"} 2
# HELP net_latency_ms net.latency_ms
# TYPE net_latency_ms histogram
net_latency_ms_bucket{label=\"Oregon\",seed=\"2018\",le=\"7\"} 1
net_latency_ms_bucket{label=\"Oregon\",seed=\"2018\",le=\"+Inf\"} 1
net_latency_ms_sum{label=\"Oregon\",seed=\"2018\"} 7
net_latency_ms_count{label=\"Oregon\",seed=\"2018\"} 1
net_latency_ms_bucket{label=\"Oregon\",seed=\"7\",le=\"15\"} 1
net_latency_ms_bucket{label=\"Oregon\",seed=\"7\",le=\"+Inf\"} 1
net_latency_ms_sum{label=\"Oregon\",seed=\"7\"} 9
net_latency_ms_count{label=\"Oregon\",seed=\"7\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    #[should_panic(expected = "duplicate ensemble seed")]
    fn duplicate_ensemble_seeds_are_loud() {
        let r = Registry::new();
        let _ = Exposition::from_seeded_registries([(7, &r), (7, &r)]);
    }

    #[test]
    fn empty_registry_renders_empty_exposition() {
        assert_eq!(Registry::new().to_prometheus(), "");
    }
}
