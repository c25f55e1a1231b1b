//! Fixture trees for the workspace-level rule packs: layering and
//! float-determinism, each through the full
//! `lint_root` engine (positive, suppressed, and clean cases).

use detlint::config::CrateSpec;
use detlint::{lint_root, Config, Report, Rule, Severity};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str, config: &Config) -> Report {
    lint_root(&fixture_root(name), config).expect("fixture tree must be readable")
}

fn errors_of(report: &Report, rule: Rule) -> Vec<(String, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.severity == Severity::Error)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

fn spec(id: &str, layer: Option<u32>, deps: &[&str]) -> CrateSpec {
    CrateSpec {
        id: id.into(),
        lib: id.into(),
        layer,
        deps: deps.iter().map(|d| d.to_string()).collect(),
    }
}

/// The fixture DAG: a ⇄ b (cycle), b → {c, d} with neither referenced.
fn layering_config(layers: [Option<u32>; 4]) -> Config {
    let mut config = Config::bare();
    config.layering = vec![
        spec("a", layers[0], &["b"]),
        spec("b", layers[1], &["a", "c", "d"]),
        spec("c", layers[2], &[]),
        spec("d", layers[3], &[]),
    ];
    config
}

#[test]
fn layering_detects_cycles_undeclared_refs_and_unused_deps() {
    let report = lint("layering", &layering_config([None; 4]));
    assert_eq!(
        errors_of(&report, Rule::Layering),
        vec![
            // The realized a → b → a cycle, anchored at the smallest id.
            ("crates/a/Cargo.toml".to_string(), 0),
            // `c` uses `a` without declaring the dependency.
            ("crates/c/src/api.rs".to_string(), 4),
        ],
        "{}",
        report.render_human()
    );
    assert_eq!(
        errors_of(&report, Rule::UnusedDep),
        vec![
            // `d` is declared but nothing in `b` references it.
            ("crates/b/Cargo.toml".to_string(), 8),
        ],
        "{}",
        report.render_human()
    );
    // `c` is equally unused, but carries a reviewed manifest
    // suppression, which must both silence the finding and count.
    assert_eq!(report.suppressions_used, 1);
    assert_eq!(errors_of(&report, Rule::Suppression), vec![]);
}

#[test]
fn layering_detects_inversions_when_layers_are_declared() {
    // a sits *below* b, so its normal dependency on b inverts the
    // declared ordering.
    let report = lint(
        "layering",
        &layering_config([Some(0), Some(1), Some(0), Some(0)]),
    );
    let layering = errors_of(&report, Rule::Layering);
    assert!(
        layering.contains(&("crates/a/Cargo.toml".to_string(), 5)),
        "expected an inversion finding on a's dependency line\n{}",
        report.render_human()
    );
}

#[test]
fn float_determinism_flags_hash_order_accumulation() {
    let mut config = Config::bare();
    config.float_crates = vec!["fl".into()];
    let report = lint("float_fold", &config);
    assert_eq!(
        errors_of(&report, Rule::FloatDeterminism),
        vec![
            // `.sum()` straight off hash iteration, and `acc +=` inside
            // a hash-order loop. The sorted fold and the Welford loop
            // in the same file stay clean.
            ("crates/fl/src/folds.rs".to_string(), 6),
            ("crates/fl/src/folds.rs".to_string(), 13),
        ],
        "{}",
        report.render_human()
    );
    assert_eq!(report.suppressions_used, 1);
    assert_eq!(errors_of(&report, Rule::Suppression), vec![]);
}
