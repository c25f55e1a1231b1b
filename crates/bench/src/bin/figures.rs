//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! figures [--scale tiny|figures] [--scale-mult K] [--mem-budget BYTES]
//!         [--out DIR] [--workers N] [--seeds N] [--telemetry]
//!         [ARTIFACT...]
//! ```
//!
//! With no artifact arguments, regenerates everything (all figures,
//! all tables, the §5.4 freshness analysis, the five ablations, the
//! §8 readiness report, and the scan-executor benchmark). Each artifact
//! prints a paper-vs-measured summary plus its data table, and is also
//! written as CSV under the output directory (default `results/`).
//!
//! The scan campaigns are sharded across worker threads by default
//! (`available_parallelism`); `--workers N` pins the count (`1` runs
//! serially). Every count produces byte-identical CSVs — it is purely
//! a wall-clock knob (DESIGN.md §8).
//!
//! `--seeds N` reruns the whole study under N independently-derived
//! seeds and writes, next to each
//! regenerated artifact, an `<name>.ens.csv` companion carrying
//! per-cell mean / 95 % confidence interval / stddev / min–max across
//! the seeds, plus a `seeds.txt` manifest. The primary artifacts come
//! from replica 0 — with derived seeds that replica *is* the base seed,
//! so they are byte-identical to a single-seed run. Replicas are the
//! parallel unit: `--workers N` spreads seeds across threads, and every
//! worker count yields byte-identical output.
//!
//! `--scale-mult K` multiplies the *statistical* populations (corpus +
//! Alexa) by K, leaving the scan populations untouched; those
//! populations are folded off the pull-based feeds in bounded memory
//! (DESIGN.md §13). Built with `--features mem-profile`, the binary
//! installs a counting global allocator, reports `mem.peak_bytes` /
//! `mem.alloc_count` as telemetry gauges (excluded from equality
//! surfaces), and `--mem-budget BYTES` turns the peak into a hard gate
//! (exit 3 when exceeded) — the CI peak-memory ratchet.
//!
//! `--telemetry` additionally dumps the campaigns' deterministic
//! counters and histograms as a Prometheus text exposition to
//! `telemetry.prom` (under `--seeds`, every series carries its `seed`
//! label), the simulated-clock span tree to `trace.jsonl`, and the
//! operational event bus (health transitions, outages, window
//! rollovers, revocations) to `events.jsonl` (all byte-identical for
//! every worker count), with histogram quantiles, the span tree, and
//! wall timings summarized on stdout. Each exposition line is one
//! series, so `diff` compares two runs' expositions.

use ecosystem::EcosystemConfig;
use mustaple::{Study, StudyResults};
use mustaple_bench::ensemble::{seeds_for, Ensemble};
use mustaple_bench::{ablations, bench_scan, build, Artifact, ALL_ARTIFACTS};
use std::fs;
use std::path::PathBuf;

/// With `mem-profile`, the whole binary allocates through the counting
/// allocator, so the peak covers the full study — generation,
/// campaigns, and analysis.
#[cfg(feature = "mem-profile")]
#[global_allocator]
static ALLOC: memprof::CountingAlloc = memprof::CountingAlloc;

/// `(peak_bytes, alloc_count)` when instrumented, `None` otherwise.
#[cfg(feature = "mem-profile")]
fn mem_stats() -> Option<(u64, u64)> {
    let stats = memprof::stats();
    Some((stats.peak_bytes, stats.alloc_count))
}

#[cfg(not(feature = "mem-profile"))]
fn mem_stats() -> Option<(u64, u64)> {
    None
}

/// The artifacts this binary makes itself, beyond [`ALL_ARTIFACTS`].
/// Any other name is refused before the study runs.
const EXTRA_ARTIFACTS: [&str; 6] = [
    "freshness",
    "recommendations",
    "telemetry",
    "ablations",
    "readiness",
    "bench-scan",
];

fn main() {
    let mut scale = "figures".to_string();
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut telemetry = false;
    let mut seed_count: Option<usize> = None;
    let mut scale_mult: usize = 1;
    let mut mem_budget: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("--scale needs a value"))
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage("--out needs a value")))
            }
            "--telemetry" => telemetry = true,
            "--workers" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--workers needs a value"));
                workers = Some(n.parse().unwrap_or_else(|_| {
                    usage(&format!("--workers needs a positive integer, got `{n}`"))
                }));
            }
            "--seeds" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--seeds needs a value"));
                let n: usize = n.parse().unwrap_or_else(|_| {
                    usage(&format!("--seeds needs a positive integer, got `{n}`"))
                });
                if n == 0 {
                    usage("--seeds needs a positive integer, got `0`");
                }
                seed_count = Some(n);
            }
            "--scale-mult" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--scale-mult needs a value"));
                scale_mult = n.parse().unwrap_or_else(|_| {
                    usage(&format!("--scale-mult needs a positive integer, got `{n}`"))
                });
                if scale_mult == 0 {
                    usage("--scale-mult needs a positive integer, got `0`");
                }
            }
            "--mem-budget" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--mem-budget needs a value"));
                mem_budget = Some(n.parse().unwrap_or_else(|_| {
                    usage(&format!("--mem-budget needs a byte count, got `{n}`"))
                }));
            }
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag `{flag}`")),
            name if ALL_ARTIFACTS.contains(&name) || EXTRA_ARTIFACTS.contains(&name) => {
                wanted.push(name.to_string())
            }
            name => usage(&format!("unknown artifact `{name}`")),
        }
    }

    let mut config = match scale.as_str() {
        "tiny" => EcosystemConfig::tiny(),
        "figures" => EcosystemConfig::figures(),
        other => usage(&format!("unknown scale `{other}` (use tiny|figures)")),
    };
    if let Some(n) = workers {
        if n == 0 {
            usage("--workers needs a positive integer, got `0`");
        }
        config = config.with_parallelism(n);
    }
    config = config.with_scale_mult(scale_mult);
    if mem_budget.is_some() && mem_stats().is_none() {
        usage("--mem-budget requires building with `--features mem-profile`");
    }

    if wanted.is_empty() {
        // Everything but `telemetry`, which `--telemetry` asks for.
        wanted = ALL_ARTIFACTS
            .iter()
            .chain(&EXTRA_ARTIFACTS)
            .filter(|&&name| name != "telemetry")
            .map(|name| name.to_string())
            .collect();
    }
    if telemetry && !wanted.iter().any(|w| w == "telemetry") {
        wanted.push("telemetry".into());
    }

    let seeds = seed_count.map(|n| seeds_for(config.seed, n));

    // `bench-scan` and `ablations` build their own inputs; every other
    // artifact reads the study's results, so the study (or the
    // ensemble) runs only when one of those is asked for.
    let study_needed = wanted
        .iter()
        .any(|name| !matches!(name.as_str(), "bench-scan" | "ablations"));
    if study_needed {
        eprintln!(
            "running the study at `{scale}` scale ({} responders, {} scan rounds{})...",
            config.responders,
            config.scan_rounds(),
            match &seeds {
                Some(seeds) => format!(", {} seeds", seeds.len()),
                None => String::new(),
            }
        );
    } else {
        eprintln!("no requested artifact reads the study's results; skipping the study");
    }
    #[expect(clippy::disallowed_methods, reason = "stderr reports the wall time")]
    let started = std::time::Instant::now();
    let ensemble = seeds
        .as_deref()
        .filter(|_| study_needed)
        .map(|s| Ensemble::run(&config, s));
    let mut single = (study_needed && ensemble.is_none()).then(|| Study::new(config.clone()).run());
    // Export the allocator's high watermark as telemetry gauges —
    // excluded from every artifact-equality surface, so instrumented
    // and uninstrumented runs stay byte-identical (single-run only;
    // the ensemble's primary results are shared borrows).
    if let (Some((peak, allocs)), Some(results)) = (mem_stats(), single.as_mut()) {
        results
            .telemetry
            .set_gauge(telemetry::catalog::MEM_PEAK_BYTES, peak);
        results
            .telemetry
            .set_gauge(telemetry::catalog::MEM_ALLOC_COUNT, allocs);
    }
    let results: Option<&StudyResults> =
        ensemble.as_ref().map(Ensemble::primary).or(single.as_ref());
    if let Some(results) = results {
        let elapsed = started.elapsed();
        eprintln!(
            "study completed in {:.1?} ({:.0} hourly-scan req/s); rendering artifacts\n",
            elapsed,
            results.hourly.requests as f64 / elapsed.as_secs_f64().max(1e-9)
        );
    }
    let study = || results.expect("the study runs whenever an artifact reads its results");

    fs::create_dir_all(&out_dir).expect("create output directory");
    if let Some(ensemble) = &ensemble {
        fs::write(out_dir.join("seeds.txt"), ensemble.seeds_manifest()).expect("write seeds.txt");
    }

    for name in &wanted {
        match name.as_str() {
            "ablations" => {
                for artifact in ablations::all(config.seed) {
                    emit(&out_dir, &artifact);
                }
            }
            "readiness" => {
                let report = study().readiness_report();
                println!("== readiness ==============================================");
                println!("{}", report.render());
                fs::write(out_dir.join("readiness.txt"), report.render())
                    .expect("write readiness report");
            }
            "bench-scan" => emit(&out_dir, &bench_scan(&config)),
            "telemetry" => {
                let results = study();
                // Ensemble runs keep per-seed series separable in the
                // exposition via a `seed` label.
                let exposition = match &ensemble {
                    Some(ensemble) => ensemble.to_prometheus(),
                    None => results.telemetry.to_prometheus(),
                };
                fs::write(out_dir.join("telemetry.prom"), exposition)
                    .expect("write Prometheus exposition");
                fs::write(out_dir.join("trace.jsonl"), results.trace.to_jsonl())
                    .expect("write trace spans");
                fs::write(out_dir.join("events.jsonl"), results.events.to_jsonl())
                    .expect("write operational events");
                println!("{}", mustaple_bench::telemetry_report(results));
            }
            name => {
                let artifact = build(name, study()).expect("artifact names are checked up front");
                emit(&out_dir, &artifact);
                emit_companion(&out_dir, ensemble.as_ref(), name);
            }
        }
    }
    eprintln!("\nartifacts written to {}", out_dir.display());

    // The peak-memory ratchet: report the high watermark, and gate on
    // it when a budget was given.
    if let Some((peak, allocs)) = mem_stats() {
        eprintln!("peak allocation: {peak} bytes ({allocs} allocations)");
        if let Some(budget) = mem_budget {
            if peak > budget {
                eprintln!("error: peak allocation {peak} bytes exceeds --mem-budget {budget}");
                std::process::exit(3);
            }
            eprintln!("within --mem-budget {budget} bytes");
        }
    }
}

/// Write `<name>.ens.csv` next to the primary artifact: the per-cell
/// mean / CI / stddev / min–max statistics folded across all seeds.
/// A no-op for single-seed (non-ensemble) runs.
fn emit_companion(out_dir: &std::path::Path, ensemble: Option<&Ensemble>, name: &str) {
    let Some(table) = ensemble.and_then(|e| e.companion(name)) else {
        return;
    };
    fs::write(out_dir.join(format!("{name}.ens.csv")), table.to_csv())
        .expect("write ensemble companion CSV");
}

fn emit(out_dir: &std::path::Path, artifact: &Artifact) {
    println!(
        "== {} ==============================================",
        artifact.name
    );
    println!("{}\n", artifact.summary);
    let rendered = artifact.table.render();
    // Long tables (time series, CDFs) are truncated on the terminal but
    // written in full to CSV.
    let lines: Vec<&str> = rendered.lines().collect();
    if lines.len() > 24 {
        for line in &lines[..12] {
            println!("{line}");
        }
        println!("... ({} rows total; full data in CSV)", lines.len() - 2);
        for line in &lines[lines.len() - 4..] {
            println!("{line}");
        }
    } else {
        println!("{rendered}");
    }
    println!();
    fs::write(
        out_dir.join(format!("{}.csv", artifact.name)),
        artifact.table.to_csv(),
    )
    .expect("write CSV artifact");
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: figures [--scale tiny|figures] [--scale-mult K] \
         [--mem-budget BYTES] [--out DIR] [--workers N] \
         [--seeds N] [--telemetry] [ARTIFACT...]\n\
         artifacts: {} {}\n\
         --seeds runs a multi-seed ensemble: every CSV artifact gains an \
         <name>.ens.csv companion (mean, 95% CI, stddev, min/max per cell) plus a \
         seeds.txt manifest",
        ALL_ARTIFACTS.join(" "),
        EXTRA_ARTIFACTS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
