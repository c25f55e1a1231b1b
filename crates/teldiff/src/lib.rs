//! Cross-run telemetry regression diffing.
//!
//! The repo's telemetry is deterministic by construction (serial ≡
//! parallel, byte for byte), which makes run-over-run comparison a
//! *regression gate*: any drift between two runs of the same code and
//! config is a bug, and drift across PRs is either intentional (re-
//! baseline) or a silent behavior change (fail). This crate is that
//! gate:
//!
//! * [`Snapshot::parse`] loads the Prometheus text exposition the
//!   telemetry crate emits (`telemetry.prom`) into a flat
//!   `(metric, label, part)` → value series map;
//! * [`diff`] aligns two snapshots and classifies every series as
//!   added, removed, or changed;
//! * [`Thresholds`] (parsed from `teldiff.toml`, a hand-rolled TOML
//!   subset — the build environment has no registry access) decides
//!   which changes are tolerable: a change passes if its absolute delta
//!   is within `abs` **or** its relative delta is within `rel`. The
//!   defaults are zero, so an unconfigured metric must match exactly.
//!
//! The `part` component keeps histogram series comparable: a histogram
//! contributes `count`/`sum` plus one part per `le` bucket.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use telemetry::prom::Exposition;

/// One comparable series: a `(metric, label)` pair plus the `part`
/// distinguishing the scalar within a histogram family (empty for
/// counters).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Original (dotted) registry metric name.
    pub metric: String,
    /// Registry label.
    pub label: String,
    /// `""` for counters; `count`/`sum` or `bucket(le=…)` for histogram
    /// scalars.
    pub part: String,
}

impl fmt::Display for SeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{{}}}", self.metric, self.label)?;
        if !self.part.is_empty() {
            write!(f, ".{}", self.part)?;
        }
        Ok(())
    }
}

/// A flattened view of one run's telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Every scalar series, in canonical order.
    pub series: BTreeMap<SeriesId, u64>,
}

impl Snapshot {
    /// Parse a Prometheus text exposition.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        Ok(Snapshot::from_exposition(&Exposition::parse(text)?))
    }

    /// Flatten a parsed Prometheus exposition. The redundant `+Inf`
    /// bucket (always equal to `count`) is skipped so a count change is
    /// reported once, not twice. Ensemble series (the `seed` label) fold
    /// the seed into the flattened label as `label,seed=N`, so each
    /// replica's telemetry stays an independently-diffed series.
    pub fn from_exposition(exposition: &Exposition) -> Snapshot {
        let flat = |key: &telemetry::prom::SeriesKey| match &key.seed {
            None => key.label.clone(),
            Some(seed) => format!("{},seed={seed}", key.label),
        };
        let mut series = BTreeMap::new();
        for (metric, key, value) in exposition.counters() {
            series.insert(id(metric, &flat(key), ""), value);
        }
        for (metric, key, h) in exposition.histograms() {
            let label = flat(key);
            series.insert(id(metric, &label, "count"), h.count);
            series.insert(id(metric, &label, "sum"), h.sum);
            for (le, cumulative) in &h.buckets {
                if le != "+Inf" {
                    series.insert(id(metric, &label, &format!("bucket(le={le})")), *cumulative);
                }
            }
        }
        Snapshot { series }
    }
}

fn id(metric: &str, label: &str, part: &str) -> SeriesId {
    SeriesId {
        metric: metric.to_owned(),
        label: label.to_owned(),
        part: part.to_owned(),
    }
}

/// The tolerance for one metric's changes. A change passes if
/// `|after − before| ≤ abs` **or** `|after − before| / before ≤ rel`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Maximum absolute delta.
    pub abs: f64,
    /// Maximum relative delta (fraction of the baseline value; a
    /// baseline of zero never passes the relative test).
    pub rel: f64,
}

/// The exact-match default: any change breaches.
impl Default for Rule {
    fn default() -> Rule {
        Rule { abs: 0.0, rel: 0.0 }
    }
}

impl Rule {
    /// Whether a `before → after` change is within tolerance.
    pub fn allows(&self, before: u64, after: u64) -> bool {
        let abs_delta = before.abs_diff(after) as f64;
        if abs_delta <= self.abs {
            return true;
        }
        before > 0 && abs_delta / before as f64 <= self.rel
    }
}

/// Per-metric change tolerances, keyed by the original (dotted) metric
/// name, with a `[default]` fallback.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Thresholds {
    /// The fallback rule for metrics without their own section.
    pub default: Rule,
    /// Per-metric overrides.
    pub per_metric: BTreeMap<String, Rule>,
}

impl Thresholds {
    /// The rule governing one metric.
    pub fn rule_for(&self, metric: &str) -> Rule {
        self.per_metric.get(metric).copied().unwrap_or(self.default)
    }

    /// Parse a `teldiff.toml`. The accepted subset:
    ///
    /// ```toml
    /// # comments and blank lines
    /// [default]
    /// abs = 0
    /// rel = 0.0
    ///
    /// ["scan.hourly.probes"]   # quoted section = metric name
    /// rel = 0.05
    /// ```
    ///
    /// Sections are `[default]` or a (optionally quoted) metric name;
    /// keys are `abs` and `rel` with non-negative numeric values.
    /// Anything else is an error — better loud than a silently ignored
    /// threshold.
    pub fn parse(text: &str) -> Result<Thresholds, String> {
        let mut thresholds = Thresholds::default();
        // None = before any section header.
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                    .trim();
                let name = name
                    .strip_prefix('"')
                    .and_then(|n| n.strip_suffix('"'))
                    .unwrap_or(name);
                if name.is_empty() {
                    return Err(format!("line {lineno}: empty section name"));
                }
                if name != "default" {
                    thresholds
                        .per_metric
                        .entry(name.to_owned())
                        .or_insert_with(Rule::default);
                }
                current = Some(name.to_owned());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("line {lineno}: bad number `{}`", value.trim()))?;
            if value < 0.0 {
                return Err(format!("line {lineno}: thresholds must be non-negative"));
            }
            let section = current
                .as_deref()
                .ok_or_else(|| format!("line {lineno}: key before any [section]"))?;
            let rule = if section == "default" {
                &mut thresholds.default
            } else {
                // Inserted when the header was read.
                match thresholds.per_metric.get_mut(section) {
                    Some(rule) => rule,
                    None => return Err(format!("line {lineno}: unknown section `{section}`")),
                }
            };
            match key.trim() {
                "abs" => rule.abs = value,
                "rel" => rule.rel = value,
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }
        Ok(thresholds)
    }
}

/// Cut a `#` comment, respecting double-quoted strings (metric names in
/// section headers may contain `#`).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One series present in both snapshots with different values.
#[derive(Debug, Clone, PartialEq)]
pub struct Changed {
    /// The series.
    pub id: SeriesId,
    /// Baseline value.
    pub before: u64,
    /// Current value.
    pub after: u64,
    /// Whether the change exceeds the metric's thresholds.
    pub breach: bool,
}

impl Changed {
    /// Relative delta as a fraction of the baseline (`None` when the
    /// baseline is zero).
    pub fn rel_delta(&self) -> Option<f64> {
        (self.before > 0).then(|| self.before.abs_diff(self.after) as f64 / self.before as f64)
    }
}

/// The outcome of aligning two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Series only in the current snapshot.
    pub added: Vec<(SeriesId, u64)>,
    /// Series only in the baseline snapshot.
    pub removed: Vec<(SeriesId, u64)>,
    /// Series in both with differing values.
    pub changed: Vec<Changed>,
}

impl DiffReport {
    /// No differences at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Whether anything exceeds tolerance. Added and removed series are
    /// always breaches: a series appearing or vanishing is a structural
    /// change no numeric threshold can bless — re-baseline if it is
    /// intentional.
    pub fn has_breach(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty() || self.changed.iter().any(|c| c.breach)
    }

    /// Human-readable report: one line per difference, then a summary.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::from("no differences\n");
        }
        let mut out = String::new();
        for (series_id, value) in &self.added {
            let _ = writeln!(out, "+ added   {series_id} = {value}");
        }
        for (series_id, value) in &self.removed {
            let _ = writeln!(out, "- removed {series_id} = {value}");
        }
        for c in &self.changed {
            let verdict = if c.breach { "BREACH" } else { "ok" };
            let rel = match c.rel_delta() {
                Some(r) => format!("{:+.2}%", r * 100.0 * delta_sign(c.before, c.after)),
                None => String::from("from zero"),
            };
            let _ = writeln!(
                out,
                "~ changed {} {} -> {} ({rel}) {verdict}",
                c.id, c.before, c.after
            );
        }
        let breaches = self.changed.iter().filter(|c| c.breach).count()
            + self.added.len()
            + self.removed.len();
        let _ = writeln!(
            out,
            "{} added, {} removed, {} changed; {breaches} past threshold",
            self.added.len(),
            self.removed.len(),
            self.changed.len(),
        );
        out
    }
}

fn delta_sign(before: u64, after: u64) -> f64 {
    if after >= before {
        1.0
    } else {
        -1.0
    }
}

/// Align `current` against `baseline` and classify every series.
pub fn diff(baseline: &Snapshot, current: &Snapshot, thresholds: &Thresholds) -> DiffReport {
    let before = &baseline.series;
    let after = &current.series;
    let mut report = DiffReport::default();
    for (series_id, &value) in before {
        match after.get(series_id) {
            None => report.removed.push((series_id.clone(), value)),
            Some(&new_value) if new_value != value => {
                let rule = thresholds.rule_for(&series_id.metric);
                report.changed.push(Changed {
                    id: series_id.clone(),
                    before: value,
                    after: new_value,
                    breach: !rule.allows(value, new_value),
                });
            }
            Some(_) => {}
        }
    }
    for (series_id, &value) in after {
        if !before.contains_key(series_id) {
            report.added.push((series_id.clone(), value));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::catalog::{
        NET_FAILURE_DNS, NET_FAILURE_TCP, NET_LATENCY_MS, SCAN_HOURLY_PROBES,
    };
    use telemetry::Registry;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.add(SCAN_HOURLY_PROBES, "r0", 100);
        r.add(SCAN_HOURLY_PROBES, "r1", 50);
        r.incr(NET_FAILURE_TCP, "Virginia");
        r.observe(NET_LATENCY_MS, "Virginia", 12);
        r.observe(NET_LATENCY_MS, "Virginia", 80);
        r
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let text = registry().to_prometheus();
        let a = Snapshot::parse(&text).expect("parse");
        let b = Snapshot::parse(&text).expect("parse");
        let report = diff(&a, &b, &Thresholds::default());
        assert!(report.is_empty(), "{}", report.render());
        assert!(!report.has_breach());
        assert_eq!(report.render(), "no differences\n");
    }

    #[test]
    fn seeded_ensemble_series_diff_independently() {
        use telemetry::prom::Exposition;
        let a = registry();
        let mut b = registry();
        b.incr(SCAN_HOURLY_PROBES, "r0");
        let baseline =
            Snapshot::from_exposition(&Exposition::from_seeded_registries([(7, &a), (9, &b)]));
        // Same ensemble, but replica 9 gains one more probe on r0.
        let mut b2 = registry();
        b2.add(SCAN_HOURLY_PROBES, "r0", 2);
        let current =
            Snapshot::from_exposition(&Exposition::from_seeded_registries([(7, &a), (9, &b2)]));
        let report = diff(&baseline, &current, &Thresholds::default());
        assert!(report.has_breach());
        assert_eq!(report.changed.len(), 1);
        assert_eq!(
            report.changed[0].id.to_string(),
            "scan.hourly.probes{r0,seed=9}"
        );
        assert_eq!(
            (report.changed[0].before, report.changed[0].after),
            (101, 102)
        );
    }

    #[test]
    fn perturbed_counter_breaches_exact_default() {
        let baseline = Snapshot::parse(&registry().to_prometheus()).expect("parse");
        let mut r = registry();
        r.incr(SCAN_HOURLY_PROBES, "r0");
        let current = Snapshot::parse(&r.to_prometheus()).expect("parse");
        let report = diff(&baseline, &current, &Thresholds::default());
        assert!(report.has_breach());
        assert_eq!(report.changed.len(), 1);
        assert_eq!(report.changed[0].id.to_string(), "scan.hourly.probes{r0}");
        assert_eq!(
            (report.changed[0].before, report.changed[0].after),
            (100, 101)
        );
        assert!(report.render().contains("BREACH"));
    }

    #[test]
    fn thresholds_bless_small_changes() {
        let toml = "[default]\nabs = 0\n\n[\"scan.hourly.probes\"]\nrel = 0.05\n";
        let thresholds = Thresholds::parse(toml).expect("parse toml");
        let baseline = Snapshot::parse(&registry().to_prometheus()).expect("parse");
        let mut r = registry();
        r.add(SCAN_HOURLY_PROBES, "r0", 4); // +4 % — within rel = 0.05
        let current = Snapshot::parse(&r.to_prometheus()).expect("parse");
        let report = diff(&baseline, &current, &thresholds);
        assert_eq!(report.changed.len(), 1);
        assert!(!report.changed[0].breach);
        assert!(!report.has_breach());
        assert!(report.render().contains("ok"));

        // +10 % is past the blessing.
        let mut r = registry();
        r.add(SCAN_HOURLY_PROBES, "r0", 10);
        let current = Snapshot::parse(&r.to_prometheus()).expect("parse");
        assert!(diff(&baseline, &current, &thresholds).has_breach());
    }

    #[test]
    fn abs_threshold_works_independently_of_rel() {
        let rule = Rule { abs: 5.0, rel: 0.0 };
        assert!(rule.allows(100, 105));
        assert!(!rule.allows(100, 106));
        assert!(rule.allows(0, 5)); // abs covers the zero baseline
        let rel_only = Rule { abs: 0.0, rel: 0.5 };
        assert!(!rel_only.allows(0, 1), "zero baseline never passes rel");
    }

    #[test]
    fn added_and_removed_series_always_breach() {
        let baseline = Snapshot::parse(&registry().to_prometheus()).expect("parse");
        let mut r = registry();
        r.incr(NET_FAILURE_DNS, "x");
        let current = Snapshot::parse(&r.to_prometheus()).expect("parse");
        let generous = Thresholds {
            default: Rule {
                abs: 1e18,
                rel: 1e18,
            },
            per_metric: BTreeMap::new(),
        };
        let report = diff(&baseline, &current, &generous);
        assert_eq!(report.added.len(), 1);
        assert!(report.has_breach(), "new series must breach");
        let report = diff(&current, &baseline, &generous);
        assert_eq!(report.removed.len(), 1);
        assert!(report.has_breach(), "vanished series must breach");
    }

    #[test]
    fn histogram_changes_surface_as_parts() {
        let baseline = Snapshot::parse(&registry().to_prometheus()).expect("parse");
        let mut r = registry();
        r.observe(NET_LATENCY_MS, "Virginia", 80);
        let current = Snapshot::parse(&r.to_prometheus()).expect("parse");
        let report = diff(&baseline, &current, &Thresholds::default());
        let parts: Vec<String> = report.changed.iter().map(|c| c.id.to_string()).collect();
        assert!(
            parts.contains(&"net.latency_ms{Virginia}.count".to_string()),
            "{parts:?}"
        );
        assert!(parts.contains(&"net.latency_ms{Virginia}.sum".to_string()));
        assert!(parts.contains(&"net.latency_ms{Virginia}.bucket(le=127)".to_string()));
    }

    #[test]
    fn toml_subset_parses_and_rejects() {
        let toml = "# comment\n[default]\nabs = 2\nrel = 0.25  # inline\n\n[\"a.b\"]\nabs = 7\n[plain]\nrel = 1\n";
        let t = Thresholds::parse(toml).expect("parse");
        assert_eq!(
            t.default,
            Rule {
                abs: 2.0,
                rel: 0.25
            }
        );
        assert_eq!(t.rule_for("a.b").abs, 7.0);
        assert_eq!(t.rule_for("plain").rel, 1.0);
        assert_eq!(t.rule_for("absent"), t.default);

        assert!(
            Thresholds::parse("abs = 1\n").is_err(),
            "key before section"
        );
        assert!(
            Thresholds::parse("[default]\nwat = 1\n").is_err(),
            "unknown key"
        );
        assert!(
            Thresholds::parse("[default]\nabs = x\n").is_err(),
            "bad number"
        );
        assert!(
            Thresholds::parse("[default]\nabs = -1\n").is_err(),
            "negative"
        );
        assert!(Thresholds::parse("[oops\n").is_err(), "unterminated header");
        assert!(Thresholds::parse("[]\n").is_err(), "empty section");
        assert!(Thresholds::parse("").is_ok(), "empty config is the default");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("kind,metric,label,value\nbogus\n").is_err());
        assert!(Snapshot::parse("# TYPE m gauge\n").is_err());
        // An empty prom exposition is a valid, empty snapshot.
        let empty = Snapshot::parse("").expect("empty");
        assert!(empty.series.is_empty());
    }
}
