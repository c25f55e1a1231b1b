//! The `teldiff` CLI.
//!
//! ```text
//! cargo run -p teldiff -- BASELINE CURRENT             # diff two expositions
//! cargo run -p teldiff -- --config teldiff.toml A B    # with thresholds
//! cargo run -p teldiff -- --quiet A B                  # exit code only
//! ```
//!
//! `BASELINE`/`CURRENT` are Prometheus text expositions as the
//! telemetry crate writes them (`telemetry.prom`). Without `--config`,
//! `./teldiff.toml` is used when present; otherwise every metric must
//! match exactly.
//!
//! Exit codes: `0` no differences (or all within thresholds), `1`
//! usage/IO/parse error, `2` threshold breach.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use teldiff::{diff, Snapshot, Thresholds};

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    config: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut config = None;
    let mut quiet = false;
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => {
                config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "teldiff: diff two telemetry expositions (telemetry.prom)\n\
                     usage: teldiff [--config teldiff.toml] [--quiet] BASELINE CURRENT\n\
                     exit codes: 0 within thresholds, 1 error, 2 breach"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?} (try --help)"));
            }
            path => positional.push(PathBuf::from(path)),
        }
    }
    let [baseline, current]: [PathBuf; 2] = positional
        .try_into()
        .map_err(|p: Vec<PathBuf>| format!("expected BASELINE CURRENT, got {} paths", p.len()))?;
    Ok(Args {
        baseline,
        current,
        config,
        quiet,
    })
}

fn load_snapshot(path: &PathBuf) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Snapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_thresholds(config: Option<&PathBuf>) -> Result<Thresholds, String> {
    let path = match config {
        Some(path) => path.clone(),
        None => {
            // Opt-in default: the repo-root config, when present.
            let implicit = PathBuf::from("teldiff.toml");
            if !implicit.exists() {
                return Ok(Thresholds::default());
            }
            implicit
        }
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Thresholds::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let thresholds = load_thresholds(args.config.as_ref())?;
    let baseline = load_snapshot(&args.baseline)?;
    let current = load_snapshot(&args.current)?;
    let report = diff(&baseline, &current, &thresholds);
    if !args.quiet {
        print!("{}", report.render());
    }
    Ok(if report.has_breach() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("teldiff: {message}");
            ExitCode::FAILURE
        }
    }
}
