//! Findings, reports, and the machine-readable output.
//!
//! Everything here is deterministic by construction: findings are sorted
//! on a total key, counts live in `BTreeMap`s, and the JSON renderer
//! walks them in order — two runs over the same tree produce
//! byte-identical `lint.json` files (a property the test suite asserts).

use std::collections::BTreeMap;
use std::fmt;

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant::now` / `SystemTime::now` outside the allowlist.
    WallClock,
    /// Iterating a `HashMap`/`HashSet` in an artifact-producing crate.
    UnorderedIter,
    /// RNG construction that does not trace to a seed derivation.
    UnseededRng,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Panic-marker count drifted from the checked-in baseline.
    PanicHygiene,
    /// Problems with suppression comments themselves (malformed or
    /// unused `detlint::allow`).
    Suppression,
    /// A crate dependency or `use` that violates the declared DAG.
    Layering,
    /// A declared dependency that no code references (or that belongs in
    /// `[dev-dependencies]`).
    UnusedDep,
    /// `f64` accumulation over non-canonical iteration outside the
    /// blessed helpers.
    FloatDeterminism,
}

impl Rule {
    /// Stable rule name — what suppression comments and reports use.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIter => "unordered-iter",
            Rule::UnseededRng => "unseeded-rng",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::Suppression => "suppression",
            Rule::Layering => "layering",
            Rule::UnusedDep => "unused-dep",
            Rule::FloatDeterminism => "float-determinism",
        }
    }

    /// One-line description, used by the SARIF rule metadata.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock read outside the allowlisted measurement crates",
            Rule::UnorderedIter => "HashMap/HashSet iteration order observed in an artifact crate",
            Rule::UnseededRng => "RNG construction that does not trace to the campaign seed",
            Rule::ForbidUnsafe => "crate root missing #![forbid(unsafe_code)]",
            Rule::PanicHygiene => "panic-marker count drifted from the checked-in baseline",
            Rule::Suppression => "malformed or unused detlint::allow comment",
            Rule::Layering => "crate dependency or use outside the declared workspace DAG",
            Rule::UnusedDep => "declared dependency that no code references",
            Rule::FloatDeterminism => {
                "f64 accumulation over non-canonical iteration outside blessed helpers"
            }
        }
    }

    /// Every rule, in report order — drives the SARIF rule table.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::WallClock,
            Rule::UnorderedIter,
            Rule::UnseededRng,
            Rule::ForbidUnsafe,
            Rule::PanicHygiene,
            Rule::Suppression,
            Rule::Layering,
            Rule::UnusedDep,
            Rule::FloatDeterminism,
        ]
    }

    /// Rules addressable from a `detlint::allow(…)` comment.
    /// `panic-hygiene` is governed by the baseline ratchet (counts, not
    /// lines) and `suppression` findings are about the comments
    /// themselves; neither can be suppressed.
    pub fn suppressible(name: &str) -> Option<Rule> {
        match name {
            "wall-clock" => Some(Rule::WallClock),
            "unordered-iter" => Some(Rule::UnorderedIter),
            "unseeded-rng" => Some(Rule::UnseededRng),
            "forbid-unsafe" => Some(Rule::ForbidUnsafe),
            "layering" => Some(Rule::Layering),
            "unused-dep" => Some(Rule::UnusedDep),
            "float-determinism" => Some(Rule::FloatDeterminism),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A violation: nonzero exit in every mode.
    Error,
    /// The panic-hygiene count *dropped below* the baseline. Good news,
    /// but the ratchet only works if the baseline shrinks in the same
    /// change — a warning normally, an error under `--deny`.
    RatchetSlack,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that produced it.
    pub rule: Rule,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Severity class.
    pub severity: Severity,
}

/// One `detlint::allow` comment, for the suppression audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionRecord {
    /// File carrying the comment (`.rs` or `Cargo.toml`).
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Name of the suppressed rule.
    pub rule: &'static str,
    /// The documented justification.
    pub reason: String,
    /// Whether it silenced a finding this run. `false` means stale —
    /// the matching unused-suppression error is already in `findings`.
    pub used: bool,
}

/// The result of linting one root.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Panic-marker counts per hot-path file (always populated, even
    /// when they match the baseline — the ratchet's source of truth).
    pub panic_counts: BTreeMap<String, u64>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Suppressions that matched a finding.
    pub suppressions_used: usize,
    /// Every suppression comment seen, sorted by (file, line) — the
    /// `--audit-suppressions` inventory.
    pub suppression_records: Vec<SuppressionRecord>,
}

impl Report {
    /// Sort findings on the canonical key. Call once after all rules ran.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        self.suppression_records
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Render the `--audit-suppressions` inventory: every reviewed
    /// exception in the tree, with its rule and justification. Stale
    /// entries are marked; the matching errors are in the findings.
    pub fn render_audit(&self) -> String {
        let mut out = String::new();
        for s in &self.suppression_records {
            let status = if s.used { "active" } else { "STALE" };
            out.push_str(&format!(
                "{status:6} [{}] {}:{}: {}\n",
                s.rule, s.file, s.line, s.reason
            ));
        }
        let stale = self.suppression_records.iter().filter(|s| !s.used).count();
        out.push_str(&format!(
            "detlint: {} suppressions ({} active, {} stale)\n",
            self.suppression_records.len(),
            self.suppression_records.len() - stale,
            stale
        ));
        out
    }

    /// Number of hard errors.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of ratchet-slack warnings.
    pub fn slack(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::RatchetSlack)
            .count()
    }

    /// Render the human-readable diagnostics.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let sev = match f.severity {
                Severity::Error => "error",
                Severity::RatchetSlack => "warning",
            };
            if f.line > 0 {
                out.push_str(&format!(
                    "{sev}[{}] {}:{}: {}\n",
                    f.rule, f.file, f.line, f.message
                ));
            } else {
                out.push_str(&format!("{sev}[{}] {}: {}\n", f.rule, f.file, f.message));
            }
        }
        out.push_str(&format!(
            "detlint: {} files scanned, {} errors, {} ratchet warnings, {} suppressions honored\n",
            self.files_scanned,
            self.errors(),
            self.slack(),
            self.suppressions_used
        ));
        out
    }

    /// Render the machine-readable report (the `results/lint.json`
    /// payload). Byte-stable across runs on the same tree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"errors\": {},\n", self.errors()));
        out.push_str(&format!("  \"ratchet_warnings\": {},\n", self.slack()));
        out.push_str(&format!(
            "  \"suppressions_used\": {},\n",
            self.suppressions_used
        ));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule.name())));
            out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_str(match f.severity {
                    Severity::Error => "error",
                    Severity::RatchetSlack => "ratchet-slack",
                })
            ));
            out.push_str(&format!("\"message\": {}", json_str(&f.message)));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"panic_markers\": {");
        for (i, (file, count)) in self.panic_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(file), count));
        }
        if !self.panic_counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Escape a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The checked-in ratchet state: per-file panic-marker ceilings.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// file → allowed marker count.
    pub panic_markers: BTreeMap<String, u64>,
}

impl Baseline {
    /// Render the `lint-baseline.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"comment\": {},\n",
            json_str(
                "panic-hygiene ratchet: per-file unwrap()/expect(\"…\")/panic! ceilings for \
                 the scan hot path. Counts may only shrink; regenerate with \
                 `cargo run -p detlint -- --update-baseline`."
            )
        ));
        out.push_str("  \"panic_markers\": {");
        for (i, (file, count)) in self.panic_markers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(file), count));
        }
        if !self.panic_markers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parse a baseline file. This is a purpose-built scanner for the
    /// exact shape `to_json` writes (one flat object of string→integer
    /// under `"panic_markers"`), tolerant of whitespace; not a general
    /// JSON parser. Unknown top-level keys are ignored.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut panic_markers = BTreeMap::new();
        let marker = "\"panic_markers\"";
        let at = text
            .find(marker)
            .ok_or_else(|| "baseline missing \"panic_markers\" key".to_string())?;
        let rest = &text[at + marker.len()..];
        let open = rest
            .find('{')
            .ok_or_else(|| "baseline: expected '{' after panic_markers".to_string())?;
        let body = &rest[open + 1..];
        let close = body
            .find('}')
            .ok_or_else(|| "baseline: unterminated panic_markers object".to_string())?;
        let body = &body[..close];
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .rsplit_once(':')
                .ok_or_else(|| format!("baseline: malformed entry {pair:?}"))?;
            let key = key.trim();
            if !(key.starts_with('"') && key.ends_with('"') && key.len() >= 2) {
                return Err(format!("baseline: malformed key {key:?}"));
            }
            let key = &key[1..key.len() - 1];
            if key.contains('\\') {
                return Err(format!("baseline: escapes unsupported in key {key:?}"));
            }
            let count: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("baseline: non-integer count {value:?}"))?;
            panic_markers.insert(key.to_string(), count);
        }
        Ok(Baseline { panic_markers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips() {
        let mut b = Baseline::default();
        b.panic_markers
            .insert("crates/ocsp/src/responder.rs".into(), 12);
        b.panic_markers
            .insert("crates/ocsp/src/validate.rs".into(), 7);
        let text = b.to_json();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"panic_markers\": {\"a\": \"x\"}}").is_err());
    }

    #[test]
    fn empty_baseline_round_trips() {
        let b = Baseline::default();
        assert_eq!(Baseline::parse(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_is_stable() {
        let mut r = Report {
            findings: vec![Finding {
                rule: Rule::WallClock,
                file: "b.rs".into(),
                line: 3,
                message: "m".into(),
                severity: Severity::Error,
            }],
            ..Report::default()
        };
        r.finalize();
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.to_json().contains("\"wall-clock\""));
    }
}
