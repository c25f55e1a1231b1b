//! `detlint` — the workspace determinism & hygiene linter.
//!
//! Every paper shape this repository reproduces rests on one invariant:
//! a scan campaign is a pure function of `(config, seed)`, byte-identical
//! between serial and `--workers N` runs. The dynamic gates (determinism
//! tests, the CI CSV diff) check that invariant for the seeds they run;
//! this linter enforces its *preconditions* statically, at the source
//! line, for every seed:
//!
//! * **wall-clock** — `Instant::now`/`SystemTime::now` only in crates
//!   that measure the run (telemetry, criterion, bench), never in crates
//!   that produce artifacts;
//! * **unordered-iter** — no iteration over `HashMap`/`HashSet` internal
//!   order in artifact-producing crates;
//! * **unseeded-rng** — every RNG traces to the campaign seed;
//! * **forbid-unsafe** — every crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * **panic-hygiene** — a ratchet over panic markers in the scan hot
//!   path, gated on `lint-baseline.json`, which may only shrink;
//! * **layering** — the workspace crate DAG declared in [`Config`] is
//!   enforced against `Cargo.toml` dependencies and `use` statements
//!   (undeclared edges, layer inversions, cycles, dev-deps reached
//!   from non-test code);
//! * **unused-dep** — declared dependencies no identifier references,
//!   and normal deps referenced only from test code;
//! * **float-determinism** — `f64` accumulation over `HashMap` order
//!   outside the blessed order-insensitive helpers.
//!
//! Exceptions are scoped and documented:
//! `// detlint::allow(rule): reason`, with unused suppressions
//! themselves an error. Reports are deterministic (sorted findings,
//! byte-stable JSON), because a linter about determinism that diffed
//! against itself would be embarrassing.
//!
//! Std-only by construction: the build environment has no reachable
//! registry, so the Rust lexer in [`lexer`] is hand-rolled.

#![forbid(unsafe_code)]

pub mod config;
pub mod dag;
pub mod float;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod suppress;

pub use config::Config;
pub use report::{Baseline, Finding, Report, Rule, Severity};

use lexer::TokenKind;
use parse::FileModel;
use report::SuppressionRecord;
use rules::FileContext;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use suppress::Suppression;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];

/// Collect every `.rs` file under `root`, as sorted workspace-relative
/// `/`-separated paths. Deterministic: directory entries are sorted
/// before descent (the OS order of `read_dir` is arbitrary).
pub fn collect_rs_files(root: &Path, exclude: &[String]) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let rel = rel_of(root, &path);
            if exclude.iter().any(|p| rel.starts_with(p.as_str())) {
                continue;
            }
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Lint one file's source text: runs the per-file rules and extracts
/// everything the workspace-level passes need. Findings stay *pending*
/// (unsuppressed) — the engine applies the suppression pool once all
/// passes have contributed.
fn lint_source(
    rel_path: &str,
    source: &str,
    config: &Config,
) -> (Vec<Finding>, Vec<Suppression>, Vec<Finding>, FileModel, u64) {
    let all_tokens = lexer::lex(source);
    let code_tokens: Vec<_> = all_tokens
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
        .cloned()
        .collect();
    let crate_name = Config::crate_of(rel_path);
    let model = parse::model(&code_tokens);
    let ctx = FileContext {
        rel_path,
        crate_name,
        tokens: &code_tokens,
    };

    let mut findings = Vec::new();
    if !config
        .wall_clock_allowed_crates
        .iter()
        .any(|c| c == crate_name)
    {
        findings.extend(rules::wall_clock(&ctx));
    }
    if config.artifact_crates.iter().any(|c| c == crate_name) {
        findings.extend(rules::unordered_iter(&ctx));
    }
    findings.extend(rules::unseeded_rng(&ctx));
    if Config::is_crate_root(rel_path) {
        findings.extend(rules::forbid_unsafe(&ctx));
    }
    if config.float_crates.iter().any(|c| c == crate_name) && !dag::is_test_path(rel_path) {
        findings.extend(float::float_determinism(&ctx, &model));
    }

    let (sups, sup_errors) = suppress::parse(rel_path, &all_tokens);
    let markers = rules::count_panic_markers(&code_tokens);
    (findings, sups, sup_errors, model, markers)
}

/// Lint the tree rooted at `root` under `config`, including the
/// panic-hygiene baseline comparison. The returned report is finalized
/// (findings sorted on the canonical key).
///
/// The engine runs in two phases. Phase one lexes and models every
/// `.rs` file, running the per-file rules and collecting the
/// suppression pool (`.rs` comments *and* `Cargo.toml` comments — the
/// layering findings anchor to manifests). Phase two runs the
/// workspace-level passes — layering/unused-dep over the manifests and
/// file models — then applies the pool:
/// a suppression silences any same-rule finding on its covered line,
/// regardless of which pass produced it, and every suppression is
/// recorded for the `--audit-suppressions` inventory.
pub fn lint_root(root: &Path, config: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    let files = collect_rs_files(root, &config.exclude)?;
    report.files_scanned = files.len();

    // Phase 1: per-file rules, models, suppression pool.
    let mut models: BTreeMap<String, FileModel> = BTreeMap::new();
    let mut pending: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut pool: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let (findings, sups, sup_errors, model, markers) = lint_source(rel, &source, config);
        report.findings.extend(sup_errors);
        if !findings.is_empty() {
            pending.entry(rel.clone()).or_default().extend(findings);
        }
        if !sups.is_empty() {
            pool.entry(rel.clone()).or_default().extend(sups);
        }
        if config.hot_path_files.iter().any(|f| f == rel) {
            report.panic_counts.insert(rel.clone(), markers);
        }
        models.insert(rel.clone(), model);
    }

    // Phase 2: workspace-level passes over manifests and models.
    if !config.layering.is_empty() {
        let (ws, manifest_errors, manifest_sups) = dag::load(root)?;
        report.findings.extend(manifest_errors);
        for (file, sups) in manifest_sups {
            pool.entry(file).or_default().extend(sups);
        }
        for f in dag::check(config, &ws, &models) {
            pending.entry(f.file.clone()).or_default().push(f);
        }
    }

    // Apply the suppression pool and build the audit inventory.
    for (file, mut sups) in pool {
        let mut findings = pending.remove(&file).unwrap_or_default();
        let mut unused = Vec::new();
        let used = suppress::apply(&file, &mut sups, &mut findings, &mut unused);
        report.suppressions_used += used.iter().filter(|u| **u).count();
        for (s, &was_used) in sups.iter().zip(used.iter()) {
            report.suppression_records.push(SuppressionRecord {
                file: file.clone(),
                line: s.line,
                rule: s.rule.name(),
                reason: s.reason.clone(),
                used: was_used,
            });
        }
        report.findings.extend(findings);
        report.findings.extend(unused);
    }
    for (_, findings) in pending {
        report.findings.extend(findings);
    }

    // Hot-path files that were configured but never seen: the config has
    // drifted from the tree.
    for hot in &config.hot_path_files {
        if !report.panic_counts.contains_key(hot) {
            report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: hot.clone(),
                line: 0,
                message: "configured hot-path file does not exist; update the detlint config"
                    .to_string(),
                severity: Severity::Error,
            });
        }
    }

    ratchet(root, config, &mut report);
    report.finalize();
    Ok(report)
}

/// Compare measured panic counts against the checked-in baseline.
fn ratchet(root: &Path, config: &Config, report: &mut Report) {
    if config.hot_path_files.is_empty() {
        return;
    }
    let baseline_rel = &config.baseline_path;
    let baseline = match fs::read_to_string(root.join(baseline_rel)) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                report.findings.push(Finding {
                    rule: Rule::PanicHygiene,
                    file: baseline_rel.clone(),
                    line: 0,
                    message: format!("unparseable baseline: {e}"),
                    severity: Severity::Error,
                });
                return;
            }
        },
        Err(_) => {
            report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: baseline_rel.clone(),
                line: 0,
                message: "baseline file missing; run `cargo run -p detlint -- --update-baseline`"
                    .to_string(),
                severity: Severity::Error,
            });
            return;
        }
    };

    for (file, &count) in &report.panic_counts {
        match baseline.panic_markers.get(file) {
            None => report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: file.clone(),
                line: 0,
                message: format!(
                    "hot-path file has {count} panic markers but no baseline entry; \
                     run `cargo run -p detlint -- --update-baseline`"
                ),
                severity: Severity::Error,
            }),
            Some(&allowed) if count > allowed => report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: file.clone(),
                line: 0,
                message: format!(
                    "{count} panic markers (unwrap/expect(\"…\")/panic!) exceed the \
                     baseline of {allowed}; convert fallible sites to typed errors or \
                     expect() with invariant messages — the ratchet only tightens"
                ),
                severity: Severity::Error,
            }),
            Some(&allowed) if count < allowed => report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: file.clone(),
                line: 0,
                message: format!(
                    "{count} panic markers, below the baseline of {allowed} — tighten \
                     the ratchet: run `cargo run -p detlint -- --update-baseline` and \
                     commit the result"
                ),
                severity: Severity::RatchetSlack,
            }),
            Some(_) => {}
        }
    }

    for file in baseline.panic_markers.keys() {
        if !report.panic_counts.contains_key(file) {
            report.findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: file.clone(),
                line: 0,
                message: "stale baseline entry for a file not on the hot path; \
                          run `cargo run -p detlint -- --update-baseline`"
                    .to_string(),
                severity: Severity::Error,
            });
        }
    }
}

/// The baseline a clean tree would check in: the measured counts.
pub fn baseline_of(report: &Report) -> Baseline {
    Baseline {
        panic_markers: report.panic_counts.clone(),
    }
}
