//! Timing, order statistics, and the per-layer span ledger.

use std::time::{Duration, Instant};

// detlint reads this package as part of the umbrella crate; memprof is
// declared in perfbench/Cargo.toml instead.
// detlint::allow(layering): declared in perfbench/Cargo.toml
use memprof::stats as heap_stats;

/// The one place the benchmark reads the host clock.
pub fn now() -> Instant {
    // detlint::allow(wall-clock): benchmark timings are measurements about the run, never inputs to it
    Instant::now()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Seconds of operations run before anything is timed. On a shared
/// 2-vCPU VM, the first seconds of a run started after an idle spell
/// read up to 1.6x slower than the rest.
const WARMUP_S: f64 = 2.0;

/// Repeat `op` for the warm-up period.
pub fn warm_up(mut op: impl FnMut()) {
    let start = now();
    while start.elapsed().as_secs_f64() < WARMUP_S {
        op();
    }
}

/// Set-ups timed per measured window, spread evenly across it.
const SETUP_SAMPLES: usize = 16;

/// What a measured window recorded.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Time of each operation, in the order they ran.
    pub op_ms: Vec<f64>,
    /// Time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Heap allocations made by the operations (set-ups excluded).
    pub op_allocs: u64,
}

/// Run `op` (which appends one time per operation it performs) for
/// `seconds`, and time `setup` [`SETUP_SAMPLES`] times at evenly spaced
/// moments between operations. Interleaving puts set-up and operations
/// under the same conditions; the value a set-up builds is dropped
/// outside the timed region.
pub fn measure<T>(
    seconds: f64,
    mut op: impl FnMut(&mut Vec<f64>),
    mut setup: impl FnMut() -> T,
) -> Window {
    let mut window = Window::default();
    let mut setup_allocs = 0;
    let allocs_before = heap_stats().alloc_count;
    let start = now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let setup_due = seconds * window.setup_s.len() as f64 / SETUP_SAMPLES as f64;
        if window.setup_s.len() < SETUP_SAMPLES && elapsed >= setup_due {
            let allocs = heap_stats().alloc_count;
            let began = now();
            let built = setup();
            window.setup_s.push(began.elapsed().as_secs_f64());
            drop(std::hint::black_box(built));
            setup_allocs += heap_stats().alloc_count - allocs;
        } else if elapsed < seconds || window.op_ms.is_empty() {
            op(&mut window.op_ms);
        } else {
            break;
        }
    }
    window.op_allocs = heap_stats().alloc_count - allocs_before - setup_allocs;
    window
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the rule `numpy.quantile` uses by default). Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Segments a measured window is cut into.
const SEGMENTS: usize = 40;

/// A window's figures, each from its quietest segment.
///
/// Other tenants of a shared host only ever add time, in bursts from a
/// fraction of a second to whole runs: on a shared 2-vCPU VM one
/// campaign run's segments ranged from 32,000 to 54,000 probes/s. Over
/// ten campaign runs the quietest of forty segments varied 1.5 %
/// (median pass) and 4 % (p90 pass) between runs, where whole-run
/// figures varied 9 % and 15 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quietest {
    /// Highest requests per second of any segment.
    pub rate: f64,
    /// Lowest median operation time of any segment.
    pub p50_ms: f64,
    /// Lowest `tail`-quantile operation time of any segment.
    pub tail_ms: f64,
}

impl Quietest {
    /// Cut `op_ms` (in the order the operations ran, each one
    /// `requests_per_op` requests) into forty runs of consecutive
    /// operations and keep each figure's best segment.
    pub fn of(op_ms: &[f64], requests_per_op: u64, tail: f64) -> Quietest {
        let per_segment = op_ms.len().div_ceil(SEGMENTS).max(1);
        let mut best = Quietest {
            rate: 0.0,
            p50_ms: f64::INFINITY,
            tail_ms: f64::INFINITY,
        };
        for segment in op_ms.chunks(per_segment) {
            let ms: f64 = segment.iter().sum();
            let rate = segment.len() as f64 * requests_per_op as f64 * 1e3 / ms;
            let mut sorted = segment.to_vec();
            best.rate = best.rate.max(rate);
            best.p50_ms = best.p50_ms.min(quantile(&mut sorted, 0.5));
            best.tail_ms = best.tail_ms.min(quantile(&mut sorted, tail));
        }
        best
    }
}

/// The layers a traced run charges time to. Each is a boundary the
/// benchmark's own code calls across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Building the DER request (`asn1` through `ocsp::OcspRequest`).
    Encode,
    /// Moving request and response bytes between client and responder:
    /// `netsim` dispatch in the campaign, loopback TCP plus HTTP framing
    /// in the serve workloads. Recorded as the whole exchange; the
    /// responder's share is subtracted when the ledger is read.
    Exchange,
    /// The responder: request parse, signed-response cache, signing.
    Respond,
    /// Client-side validation: response parse, signature, freshness.
    Validate,
}

const LAYERS: usize = 4;

/// Wall time per layer, summed over a run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    busy: [Duration; LAYERS],
}

impl Ledger {
    /// Run `f`, charging its wall time to `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = now();
        let out = f();
        self.charge(layer, start);
        out
    }

    /// Charge the wall time since `start` to `layer` (for a span that
    /// holds another span of the same ledger).
    pub fn charge(&mut self, layer: Layer, start: Instant) {
        self.busy[layer as usize] += start.elapsed();
    }

    /// Mean microseconds per request charged to `layer`. The exchange
    /// figure excludes the responder, whose time it also contains.
    pub fn us_per_request(&self, layer: Layer, requests: u64) -> f64 {
        let busy = match layer {
            Layer::Exchange => self.busy[Layer::Exchange as usize]
                .saturating_sub(self.busy[Layer::Respond as usize]),
            other => self.busy[other as usize],
        };
        busy.as_secs_f64() * 1e6 / requests.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quietest_takes_each_figure_from_its_best_segment() {
        // Eighty operations of 4 requests, two per segment: every
        // segment but one is slowed by a burst, and the one quiet
        // segment sets every figure.
        let mut ops = vec![6.0; 80];
        ops[10] = 2.0;
        ops[11] = 2.0;
        let quietest = Quietest::of(&ops, 4, 1.0);
        assert_eq!(quietest.rate, 2_000.0);
        assert_eq!(quietest.p50_ms, 2.0);
        assert_eq!(quietest.tail_ms, 2.0);
        // Cut in order: a slow op beside a fast one in a segment counts.
        ops[11] = 4.0;
        let quietest = Quietest::of(&ops, 4, 1.0);
        assert_eq!((quietest.p50_ms, quietest.tail_ms), (3.0, 4.0));
    }

    #[test]
    fn measure_interleaves_setups_and_runs_at_least_one_op() {
        let window = measure(0.0, |ms: &mut Vec<f64>| ms.push(1.0), || vec![0u8; 16]);
        assert_eq!(window.op_ms, vec![1.0]);
        assert_eq!(window.setup_s.len(), SETUP_SAMPLES);
    }

    #[test]
    fn exchange_excludes_the_responder_share() {
        let mut ledger = Ledger::default();
        ledger.busy[Layer::Exchange as usize] = Duration::from_micros(300);
        ledger.busy[Layer::Respond as usize] = Duration::from_micros(100);
        assert_eq!(ledger.us_per_request(Layer::Exchange, 2), 100.0);
        assert_eq!(ledger.us_per_request(Layer::Respond, 2), 50.0);
    }
}
