//! `perfbench` — the study's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <campaign|serve-hot|serve-wide> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the run measures for `--seconds`
//! after set-up and a warm-up, checks every output, and prints one JSON object as the
//! last line of stdout: `correct`, `attempted`, `failed`, and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). README.md describes the workloads and metrics.

#![forbid(unsafe_code)]

mod campaign;
mod serve;
mod stats;

// detlint reads this package as part of the umbrella crate; memprof is
// declared in perfbench/Cargo.toml instead.
// detlint::allow(layering): declared in perfbench/Cargo.toml
use memprof::CountingAlloc;

/// Allocation counts per request come from the study's own counting
/// allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <campaign|serve-hot|serve-wide> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The verdict and measurements of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations run and checked, warm-up included.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value would not be JSON; it means the run
                // measured nothing, which the `correct` flag reports.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct =
            self.correct && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The tail operation time is the 90th percentile. A campaign segment
/// holds a few dozen passes, so its 99th would be its slowest pass; on
/// `serve-hot` the 99th lands on the one-in-sixty cache misses, the
/// signing path that `serve-wide` measures at its median.
const TAIL_QUANTILE: f64 = 0.9;

/// The end-to-end metrics, shared by every workload, from a measured
/// window whose operations make `requests_per_op` OCSP requests each.
pub fn end_to_end_metrics(window: &mut stats::Window, requests_per_op: u64) -> Vec<Metric> {
    let requests = window.op_ms.len() as u64 * requests_per_op;
    let quietest = stats::Quietest::of(&window.op_ms, requests_per_op, TAIL_QUANTILE);
    vec![
        Metric::new("throughput", quietest.rate, "1/s"),
        Metric::new("latency_p50_ms", quietest.p50_ms, "ms"),
        Metric::new("latency_tail_ms", quietest.tail_ms, "ms"),
        Metric::new(
            "allocs_per_req",
            window.op_allocs as f64 / requests.max(1) as f64,
            "count",
        ),
        Metric::new("setup_s", stats::quantile(&mut window.setup_s, 0.5), "s"),
    ]
}

/// Work counters of a traced run, summed over its requests.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// OCSP requests issued.
    pub requests: u64,
    /// Responder signed-response cache hits.
    pub cache_hits: u64,
    /// Responder cache misses and window materializations — each one a
    /// fresh signature.
    pub cache_misses: u64,
    /// Response signatures the client verified (not memoized).
    pub sig_verifies: u64,
    /// DER request plus response bytes moved.
    pub der_bytes: u64,
}

/// The per-layer metrics, shared by every workload.
pub fn layer_metrics(ledger: &stats::Ledger, counts: &LayerCounts) -> Vec<Metric> {
    use stats::Layer;
    let requests = counts.requests;
    let us = |layer| ledger.us_per_request(layer, requests);
    let per_kreq = |n: u64| n as f64 * 1e3 / requests.max(1) as f64;
    vec![
        Metric::new("encode_us", us(Layer::Encode), "us"),
        Metric::new("transport_us", us(Layer::Exchange), "us"),
        Metric::new("respond_us", us(Layer::Respond), "us"),
        Metric::new("validate_us", us(Layer::Validate), "us"),
        Metric::new(
            "responder_cache_hits_per_kreq",
            per_kreq(counts.cache_hits),
            "count",
        ),
        Metric::new(
            "responder_signs_per_kreq",
            per_kreq(counts.cache_misses),
            "count",
        ),
        Metric::new(
            "sig_verifies_per_kreq",
            per_kreq(counts.sig_verifies),
            "count",
        ),
        Metric::new(
            "der_bytes_per_req",
            counts.der_bytes as f64 / requests.max(1) as f64,
            "bytes",
        ),
    ]
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("perfbench: {reason}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve-hot" => serve::run(serve::Mix::Hot, &args),
        "serve-wide" => serve::run(serve::Mix::Wide, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_a_full_command_line() {
        let args =
            parse_args(argv("--workload serve-hot --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, "serve-hot");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--workload campaign --seed x --seconds 1",
            "--workload campaign --seed 1 --seconds 0",
            "--workload campaign --seed 1 --seconds 1 --trace 2",
            "--seed 1 --seconds 1",
            "--workload campaign --seed",
            "--bogus 1",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_has_the_four_keys_and_every_digit() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("latency_p50_ms", 1.234_567_891, "ms")],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567891, \"unit\": \"ms\"}}}"
        );
    }
}
