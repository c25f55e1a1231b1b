//! The `detlint` CLI.
//!
//! ```text
//! cargo run -p detlint                      # lint the workspace, write results/lint.json
//! cargo run -p detlint -- --deny            # CI mode: ratchet slack is fatal too
//! cargo run -p detlint -- --update-baseline # rewrite lint-baseline.json from measured counts
//! cargo run -p detlint -- --root DIR        # lint a different tree (fixtures)
//! cargo run -p detlint -- --json PATH       # write the machine-readable report elsewhere
//! cargo run -p detlint -- --no-json         # skip the JSON artifact
//! cargo run -p detlint -- --sarif PATH      # also write a SARIF 2.1.0 report
//! cargo run -p detlint -- --graph-dot PATH  # also export the realized crate DAG as DOT
//! cargo run -p detlint -- --audit-suppressions  # inventory every detlint::allow instead
//! ```
//!
//! Exit codes: `0` clean (warnings allowed unless `--deny`), `2` findings.

#![forbid(unsafe_code)]

use detlint::{baseline_of, dag, lint_root, sarif, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    deny: bool,
    update_baseline: bool,
    json: Option<PathBuf>,
    no_json: bool,
    sarif: Option<PathBuf>,
    graph_dot: Option<PathBuf>,
    audit_suppressions: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny: false,
        update_baseline: false,
        json: None,
        no_json: false,
        sarif: None,
        graph_dot: None,
        audit_suppressions: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--update-baseline" => args.update_baseline = true,
            "--no-json" => args.no_json = true,
            "--audit-suppressions" => args.audit_suppressions = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--sarif" => {
                args.sarif = Some(PathBuf::from(it.next().ok_or("--sarif needs a path")?));
            }
            "--graph-dot" => {
                args.graph_dot = Some(PathBuf::from(it.next().ok_or("--graph-dot needs a path")?));
            }
            "--help" | "-h" => {
                println!(
                    "detlint: workspace determinism & hygiene linter\n\
                     rules: wall-clock, unordered-iter, unseeded-rng, forbid-unsafe, \
                     panic-hygiene,\n       layering, unused-dep, float-determinism\n\
                     flags: [--root DIR] [--deny] [--update-baseline] [--json PATH] [--no-json]\n\
                     \x20      [--sarif PATH] [--graph-dot PATH] [--audit-suppressions]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn write_artifact(path: &PathBuf, payload: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, payload).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.root.join("Cargo.toml").exists() {
        eprintln!(
            "detlint: {} does not look like a workspace root (no Cargo.toml)",
            args.root.display()
        );
        return ExitCode::from(2);
    }

    let config = Config::workspace();
    let mut report = match lint_root(&args.root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.update_baseline {
        let baseline = baseline_of(&report);
        let path = args.root.join(&config.baseline_path);
        if let Err(e) = std::fs::write(&path, baseline.to_json()) {
            eprintln!("detlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "detlint: wrote {} ({} hot-path files)",
            path.display(),
            baseline.panic_markers.len()
        );
        // Re-lint so the report (and exit code) reflect the new baseline.
        report = match lint_root(&args.root, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("detlint: io error: {e}");
                return ExitCode::from(2);
            }
        };
    }

    if args.audit_suppressions {
        print!("{}", report.render_audit());
    } else {
        print!("{}", report.render_human());
    }

    if !args.no_json {
        let json_path = args
            .json
            .clone()
            .unwrap_or_else(|| args.root.join("results").join("lint.json"));
        if let Err(e) = write_artifact(&json_path, &report.to_json()) {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(sarif_path) = &args.sarif {
        if let Err(e) = write_artifact(sarif_path, &sarif::to_sarif(&report)) {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(dot_path) = &args.graph_dot {
        let ws = match dag::load(&args.root) {
            Ok((ws, _, _)) => ws,
            Err(e) => {
                eprintln!("detlint: io error reading manifests: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = write_artifact(dot_path, &dag::dot(&config, &ws)) {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    }

    let errors = report.errors();
    let slack = report.slack();
    if errors > 0 || (args.deny && slack > 0) {
        if args.deny && slack > 0 {
            eprintln!("detlint: --deny treats ratchet slack as an error");
        }
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
