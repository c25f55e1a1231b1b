//! The Prometheus text exposition behind
//! [`Registry::to_prometheus`](crate::Registry::to_prometheus), plus a
//! parser for exactly the subset we emit.
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
//!   is preserved on the family's `# HELP` line, so
//!   [`Exposition::parse`] recovers the exact registry names, which
//!   `teldiff` aligns two runs on.
//! * The registry label becomes the `label` label:
//!   `net_failure_tcp{label="Virginia"} 5`.
//! * A [`Histogram`](crate::Histogram) renders as a native Prometheus
//!   histogram: cumulative `_bucket` series with `le` set to each
//!   occupied log2 bucket's inclusive upper bound (`0`, `1`, `3`, `7`,
//!   … `2^i − 1`, then `+Inf`), plus exact `_sum` and `_count`.
//! * Families sort by name, samples by label — rendering is canonical,
//!   and `parse ∘ render` is the identity (pinned by the round-trip
//!   unit tests below).
//!
//! # The equality-gated / operational split
//!
//! Two expositions share this module's format:
//!
//! * [`Registry::to_prometheus`] — **equality-gated**: counters and
//!   histograms only, byte-identical across worker counts and
//!   chunkings; committed as `results/telemetry.prom` and diffed
//!   in CI. This is the only exposition [`Exposition::parse`]
//!   accepts — `# TYPE … gauge` lines are rejected on purpose.
//! * [`Registry::to_prometheus_with_gauges`](crate::Registry::to_prometheus_with_gauges)
//!   — **operational**: the equality-gated bytes as an *exact prefix*,
//!   then [`GAUGE_SECTION_MARKER`] and the gauges (`mem.*`,
//!   `health.*`, `ocspd.*`) as `gauge` families with
//!   `stat="last"/"max"/"sets"` samples. Gauges may legitimately differ
//!   between runs with identical artifacts, so this render is never an
//!   artifact and never parsed back; the live `/metrics` endpoint
//!   serves it, and the live-smoke CI job truncates a scrape at the
//!   marker to recover the equality-gated subset for byte comparison.

use crate::{Histogram, Registry, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
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
/// plus the optional `seed` dimension multi-seed ensembles add.
///
/// Single-run expositions carry no seed (`seed: None`) and render
/// exactly as before — `name{label="…"} v`. An ensemble exposition (see
/// [`Exposition::from_seeded_registries`]) renders every series as
/// `name{label="…",seed="…"} v`, keeping per-seed telemetry separable
/// after the merge. Ordering (and therefore rendering order) is by
/// label first, then seed, with seedless series before seeded ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SeriesKey {
    /// The registry label.
    pub label: String,
    /// The ensemble seed this series came from, if any (decimal).
    pub seed: Option<String>,
}

impl SeriesKey {
    /// A seedless (single-run) key.
    pub fn plain(label: &str) -> SeriesKey {
        SeriesKey {
            label: label.to_owned(),
            seed: None,
        }
    }

    /// A key carrying the ensemble seed dimension.
    pub fn seeded(label: &str, seed: u64) -> SeriesKey {
        SeriesKey {
            label: label.to_owned(),
            seed: Some(seed.to_string()),
        }
    }
}

/// One histogram series as exposed: cumulative buckets plus exact
/// sum/count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromHistogram {
    /// `(le, cumulative count)` pairs in emission order; `le` is a
    /// decimal integer upper bound, with `"+Inf"` last.
    pub buckets: Vec<(String, u64)>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

/// One metric family: every series sharing a (sanitized) metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// Counter or histogram.
    pub kind: FamilyKind,
    /// The original registry metric name (recovered from `# HELP`;
    /// equals the family name when sanitization changed nothing).
    pub metric: String,
    /// `series key → value` for counter families.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// `series key → series` for histogram families.
    pub histograms: BTreeMap<SeriesKey, PromHistogram>,
}

/// A parsed (or registry-derived) exposition: the format-faithful view
/// of one run's deterministic telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exposition {
    /// Families keyed by sanitized name.
    pub families: BTreeMap<String, Family>,
}

/// The comment line separating the equality-gated exposition from the
/// operational gauge section in
/// [`Registry::to_prometheus_with_gauges`](crate::Registry::to_prometheus_with_gauges).
/// Everything *above* the marker must byte-equal
/// [`Registry::to_prometheus`]; everything below is gauge territory
/// that [`Exposition::parse`] would reject. CI's live-smoke job
/// truncates scrapes at this line.
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

/// Escape `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(value: &str, in_label: bool) -> Result<String, String> {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('"') if in_label => out.push('"'),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
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
        let key = |label: &str| match seed {
            None => SeriesKey::plain(label),
            Some(seed) => SeriesKey::seeded(label, seed),
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
            if family.metric != *name {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.metric));
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

    /// Parse an exposition previously produced by [`Exposition::render`].
    ///
    /// Strict for the subset we emit: a family's `# TYPE` line must
    /// precede its samples, histogram sample names must use the
    /// `_bucket`/`_sum`/`_count` suffixes, and duplicate series are
    /// errors. Unrecognized comment lines are ignored (the format
    /// allows free-form comments); unparseable sample lines are not.
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut exposition = Exposition::default();
        // `# HELP` may precede `# TYPE`; remember pending originals.
        let mut pending_help: BTreeMap<String, String> = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let err = |msg: String| format!("line {lineno}: {msg}");
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("malformed HELP".into()))?;
                pending_help.insert(name.to_owned(), unescape(help, false).map_err(&err)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("malformed TYPE".into()))?;
                let kind = match kind {
                    "counter" => FamilyKind::Counter,
                    "histogram" => FamilyKind::Histogram,
                    other => return Err(err(format!("unsupported family kind `{other}`"))),
                };
                let metric = pending_help.remove(name).unwrap_or_else(|| name.to_owned());
                let replaced = exposition.families.insert(
                    name.to_owned(),
                    Family {
                        kind,
                        metric,
                        counters: BTreeMap::new(),
                        histograms: BTreeMap::new(),
                    },
                );
                if replaced.is_some() {
                    return Err(err(format!("duplicate TYPE for family `{name}`")));
                }
                continue;
            }
            if line.starts_with('#') {
                continue; // free-form comment
            }
            exposition.parse_sample(line).map_err(err)?;
        }
        Ok(exposition)
    }

    fn parse_sample(&mut self, line: &str) -> Result<(), String> {
        let (series, value) = split_sample(line)?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("bad sample value `{value}`"))?;
        let (name, labels) = series;
        let label = SeriesKey {
            label: labels
                .get("label")
                .cloned()
                .ok_or_else(|| format!("sample `{name}` has no label=… pair"))?,
            seed: labels.get("seed").cloned(),
        };

        // Histogram sample names carry a suffix on the family name.
        for (suffix, is_bucket) in [("_bucket", true), ("_sum", false), ("_count", false)] {
            let Some(family_name) = name.strip_suffix(suffix) else {
                continue;
            };
            let Some(family) = self.families.get_mut(family_name) else {
                continue; // e.g. a *counter* legitimately named `…_sum`
            };
            if family.kind != FamilyKind::Histogram {
                continue;
            }
            let series = family.histograms.entry(label.clone()).or_default();
            if is_bucket {
                let le = labels
                    .get("le")
                    .cloned()
                    .ok_or_else(|| format!("bucket sample `{name}` has no le=… pair"))?;
                if series.buckets.iter().any(|(existing, _)| *existing == le) {
                    return Err(format!("duplicate bucket le=\"{le}\" for `{family_name}`"));
                }
                series.buckets.push((le, value));
            } else if suffix == "_sum" {
                series.sum = value;
            } else {
                series.count = value;
            }
            return Ok(());
        }

        let family = self
            .families
            .get_mut(&name)
            .ok_or_else(|| format!("sample `{name}` precedes its TYPE line"))?;
        if family.kind != FamilyKind::Counter {
            return Err(format!("bare sample `{name}` for a histogram family"));
        }
        if family.counters.insert(label, value).is_some() {
            return Err(format!("duplicate counter series `{name}`"));
        }
        Ok(())
    }

    /// Iterate every counter series as
    /// `(original metric, series key, value)` in canonical order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &SeriesKey, u64)> {
        self.families.values().flat_map(|family| {
            family
                .counters
                .iter()
                .map(move |(key, v)| (family.metric.as_str(), key, *v))
        })
    }

    /// Iterate every histogram series as
    /// `(original metric, series key, series)` in canonical order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &SeriesKey, &PromHistogram)> {
        self.families.values().flat_map(|family| {
            family
                .histograms
                .iter()
                .map(move |(key, h)| (family.metric.as_str(), key, h))
        })
    }
}

impl PromHistogram {
    /// Expose one registry histogram: cumulative counts for every
    /// *occupied* log2 bucket (empty buckets are omitted — the `le`
    /// bounds make the series unambiguous), then the mandatory `+Inf`.
    pub fn from_histogram(histogram: &Histogram) -> PromHistogram {
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

/// Split one sample line into `((name, labels), value)`.
#[allow(clippy::type_complexity, reason = "a private split, read at one call")]
fn split_sample(line: &str) -> Result<((String, BTreeMap<String, String>), &str), String> {
    let Some(brace) = line.find('{') else {
        // Unlabeled sample: `name value`.
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed sample `{line}`"))?;
        return Ok(((name.to_owned(), BTreeMap::new()), value));
    };
    let name = &line[..brace];
    let rest = &line[brace + 1..];
    let mut labels = BTreeMap::new();
    let mut chars = rest.char_indices();
    loop {
        // Parse `key="value"`, then `,` or `}`.
        let key_start = match chars.next() {
            Some((i, c)) if c.is_ascii_alphabetic() || c == '_' => i,
            _ => return Err(format!("malformed label set in `{line}`")),
        };
        let mut key_end = key_start;
        for (i, c) in chars.by_ref() {
            if c == '=' {
                key_end = i;
                break;
            }
        }
        let key = &rest[key_start..key_end];
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("label `{key}` value is not quoted in `{line}`"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some((_, c)) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next().map(|(_, c)| c) {
                    Some('\\') => value.push('\\'),
                    Some('n') => value.push('\n'),
                    Some('"') => value.push('"'),
                    other => {
                        return Err(format!("bad escape `\\{}`", other.unwrap_or(' ')));
                    }
                },
                _ => value.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated label value in `{line}`"));
        }
        if labels.insert(key.to_owned(), value).is_some() {
            return Err(format!("duplicate label `{key}` in `{line}`"));
        }
        match chars.next().map(|(_, c)| c) {
            Some(',') => continue,
            Some('}') => break,
            _ => return Err(format!("malformed label set in `{line}`")),
        }
    }
    let after = match chars.next() {
        Some((i, ' ')) => &rest[i + 1..],
        _ => return Err(format!("missing value in `{line}`")),
    };
    Ok(((name.to_owned(), labels), after))
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
    fn parse_render_round_trips_byte_exactly() {
        let text = sample_registry().to_prometheus();
        let parsed = Exposition::parse(&text).expect("parse own output");
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed, Exposition::from_registry(&sample_registry()));
    }

    #[test]
    fn original_metric_names_survive_the_round_trip() {
        let mut r = Registry::new();
        r.incr(NET_FAILURE_TCP, "Virginia");
        r.observe(NET_LATENCY_MS, "x", 9);
        let parsed = Exposition::parse(&r.to_prometheus()).expect("parse");
        let counters: Vec<_> = parsed
            .counters()
            .map(|(m, k, v)| (m, k.label.as_str(), v))
            .collect();
        assert_eq!(counters, vec![("net.failure.tcp", "Virginia", 1)]);
        let histograms: Vec<_> = parsed
            .histograms()
            .map(|(m, k, h)| (m, k.label.as_str(), h.count, h.sum))
            .collect();
        assert_eq!(histograms, vec![("net.latency_ms", "x", 1, 9)]);
    }

    #[test]
    fn awkward_label_values_escape_and_round_trip() {
        let mut r = Registry::new();
        r.incr(
            SCAN_HOURLY_PROBES,
            "with \"quotes\" and \\slash\\ and\nnewline",
        );
        let text = r.to_prometheus();
        assert!(text.contains("\\\"quotes\\\""));
        assert!(text.contains("\\\\slash\\\\"));
        assert!(text.contains("\\n"));
        let parsed = Exposition::parse(&text).expect("parse");
        assert_eq!(parsed.render(), text);
        let (_, key, v) = parsed.counters().next().expect("one series");
        assert_eq!(key.label, "with \"quotes\" and \\slash\\ and\nnewline");
        assert_eq!(key.seed, None);
        assert_eq!(v, 1);
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
        let exposition = Exposition::from_registry(&r);
        let (_, _, series) = exposition.histograms().next().expect("series");
        assert_eq!(
            series.buckets,
            vec![
                ("1".to_string(), 2),
                ("3".to_string(), 4),
                ("2047".to_string(), 5),
                ("+Inf".to_string(), 5),
            ]
        );
        assert_eq!(series.count, 5);
        assert_eq!(series.sum, 1031);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Exposition::parse("# TYPE m gauge\n").is_err());
        assert!(Exposition::parse("m{label=\"x\"} 1\n").is_err()); // no TYPE
        assert!(Exposition::parse("# TYPE m counter\nm{label=\"x\"} nope\n").is_err());
        assert!(Exposition::parse("# TYPE m counter\nm 1\n").is_err()); // no label pair
        assert!(
            Exposition::parse("# TYPE m counter\nm{label=\"x\"} 1\nm{label=\"x\"} 2\n").is_err()
        );
        assert!(Exposition::parse("# TYPE m counter\n# TYPE m counter\n").is_err());
        assert!(Exposition::parse("# TYPE m counter\nm{label=\"x} 1\n").is_err());
        // Free-form comments are fine.
        let ok = Exposition::parse("# a comment\n# TYPE m counter\nm{label=\"x\"} 1\n");
        assert!(ok.is_ok());
    }

    #[test]
    fn seeded_ensemble_exposition_round_trips() {
        let mut a = Registry::new();
        a.incr(NET_FAILURE_TCP, "Virginia");
        a.observe(NET_LATENCY_MS, "Oregon", 7);
        let mut b = Registry::new();
        b.add(NET_FAILURE_TCP, "Virginia", 2);
        b.observe(NET_LATENCY_MS, "Oregon", 9);
        let exposition = Exposition::from_seeded_registries([(2018, &a), (7, &b)]);
        let text = exposition.render();
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
        let parsed = Exposition::parse(&text).expect("parse seeded output");
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed, exposition);
        let keys: Vec<_> = parsed.counters().map(|(_, k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                SeriesKey::seeded("Virginia", 2018),
                SeriesKey::seeded("Virginia", 7)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate ensemble seed")]
    fn duplicate_ensemble_seeds_are_loud() {
        let r = Registry::new();
        let _ = Exposition::from_seeded_registries([(7, &r), (7, &r)]);
    }

    #[test]
    fn empty_registry_renders_empty_exposition() {
        let r = Registry::new();
        assert_eq!(r.to_prometheus(), "");
        let parsed = Exposition::parse("").expect("empty parse");
        assert_eq!(parsed, Exposition::default());
    }
}
