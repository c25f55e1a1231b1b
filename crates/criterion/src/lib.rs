//! Vendored stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build container has no crates.io registry, so this crate
//! implements the 0.5 API surface the workspace's benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BatchSize`],
//! [`black_box`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros. It measures real wall-clock time and prints mean and median
//! per-iteration cost, but does no statistical outlier analysis, HTML
//! reports, or baseline comparison.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How [`Bencher::iter_batched`] amortizes setup cost. The stand-in
/// runs one routine call per setup call regardless of variant, so the
/// variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<f64>,
    sample_count: usize,
    time_budget: Duration,
}

/// Benchmarks are timed on the wall clock, read only here.
#[expect(clippy::disallowed_methods, reason = "benches run on wall time")]
fn now() -> Instant {
    Instant::now()
}

impl Bencher<'_> {
    /// Benchmark `routine`, timing batches of calls.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed call to estimate cost and warm caches.
        let est_start = now();
        black_box(routine());
        let est = est_start.elapsed().max(Duration::from_nanos(1));

        // Batch fast routines so each sample is at least ~1ms of work.
        let per_sample = (Duration::from_millis(1).as_nanos() / est.as_nanos()).max(1) as u64;
        let deadline = now() + self.time_budget;
        for _ in 0..self.sample_count {
            let start = now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples
                .push(elapsed.as_nanos() as f64 / per_sample as f64);
            if now() > deadline {
                break;
            }
        }
    }

    /// Benchmark `routine` on fresh inputs from `setup`; only the
    /// routine is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let deadline = now() + self.time_budget;
        for _ in 0..self.sample_count {
            let input = setup();
            let start = now();
            black_box(routine(input));
            self.samples.push(start.elapsed().as_nanos() as f64);
            if now() > deadline {
                break;
            }
        }
    }
}

/// Summary of one finished benchmark, handed to the reporter.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name (group-qualified for grouped benchmarks).
    pub name: String,
    /// Number of timing samples collected (0 if the closure never ran).
    pub samples: usize,
    /// Median per-iteration cost in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration cost in nanoseconds.
    pub mean_ns: f64,
}

impl BenchReport {
    /// The console line upstream criterion would print for this report.
    pub fn render(&self) -> String {
        if self.samples == 0 {
            return format!("{:<44} (no samples collected)", self.name);
        }
        format!(
            "{:<44} time: [median {} mean {}] ({} samples)",
            self.name,
            format_ns(self.median_ns),
            format_ns(self.mean_ns),
            self.samples
        )
    }
}

/// Where finished benchmarks are announced. The default reporter prints
/// [`BenchReport::render`] to stdout; tests and embedding harnesses can
/// swap in their own sink.
type Reporter = Box<dyn FnMut(&BenchReport)>;

fn console_reporter() -> Reporter {
    Box::new(|report: &BenchReport| println!("{}", report.render()))
}

/// The benchmark driver.
pub struct Criterion {
    sample_count: usize,
    time_budget: Duration,
    reporter: Reporter,
    telemetry: telemetry::Registry,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_count: 100,
            time_budget: Duration::from_secs(3),
            reporter: console_reporter(),
            telemetry: telemetry::Registry::new(),
        }
    }
}

impl Criterion {
    /// Set how many timing samples each benchmark collects.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_count = n.max(1);
        self
    }

    /// Replace the console reporter with a custom sink for finished
    /// benchmarks (not part of the upstream API).
    pub fn with_reporter(mut self, reporter: impl FnMut(&BenchReport) + 'static) -> Criterion {
        self.reporter = Box::new(reporter);
        self
    }

    /// Telemetry accumulated so far: one `criterion.sample_ns` histogram
    /// per benchmark name (not part of the upstream API).
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.telemetry
    }

    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Criterion
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(
            name.into(),
            self.sample_count,
            self.time_budget,
            f,
            &mut self.reporter,
            &mut self.telemetry,
        );
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_count: self.sample_count,
            time_budget: self.time_budget,
            parent: self,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_count: usize,
    time_budget: Duration,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(1);
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        run_one(
            full,
            self.sample_count,
            self.time_budget,
            f,
            &mut self.parent.reporter,
            &mut self.parent.telemetry,
        );
        self
    }

    /// End the group (upstream finalizes reports here; a no-op for us).
    pub fn finish(self) {}
}

fn run_one<F: FnOnce(&mut Bencher)>(
    name: String,
    sample_count: usize,
    time_budget: Duration,
    f: F,
    reporter: &mut Reporter,
    registry: &mut telemetry::Registry,
) {
    let mut samples = Vec::with_capacity(sample_count);
    let mut bencher = Bencher {
        samples: &mut samples,
        sample_count,
        time_budget,
    };
    f(&mut bencher);
    let report = if samples.is_empty() {
        BenchReport {
            name,
            samples: 0,
            median_ns: 0.0,
            mean_ns: 0.0,
        }
    } else {
        samples.sort_by(|a, b| a.total_cmp(b));
        for &s in &samples {
            registry.observe(telemetry::catalog::CRITERION_SAMPLE_NS, &name, s as u64);
        }
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        BenchReport {
            name,
            samples: samples.len(),
            median_ns: median,
            mean_ns: mean,
        }
    };
    reporter(&report);
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Define a benchmark group runner function (both the struct-like and
/// tuple-like upstream forms are accepted).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define `main` running one or more [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(5);
        let mut calls = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| calls += 1);
        });
        assert!(calls > 0);
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput);
        });
        group.finish();
    }

    #[test]
    fn custom_reporter_receives_reports_and_telemetry_accumulates() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<BenchReport>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let mut c = Criterion::default()
            .sample_size(4)
            .with_reporter(move |r| sink.borrow_mut().push(r.clone()));
        c.bench_function("reported", |b| b.iter(|| black_box(1 + 1)));
        let reports = seen.borrow();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "reported");
        assert!(reports[0].samples > 0);
        assert!(reports[0].render().contains("reported"));
        // Every sample also lands in the telemetry histogram.
        let hist = c
            .telemetry()
            .histogram("criterion.sample_ns", "reported")
            .expect("histogram recorded");
        assert_eq!(hist.count(), reports[0].samples as u64);
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(12.3), "12.3 ns");
        assert_eq!(format_ns(12_300.0), "12.300 µs");
        assert_eq!(format_ns(12_300_000.0), "12.300 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }
}
