//! The `campaign` workload: the in-process hourly scan campaign.
//!
//! Set-up generates the ecosystem (CAs, responders, scan targets, outage
//! calendar) for the campaign day the seed picks. One operation is one
//! full campaign pass on one worker — `HourlyCampaign::run_with`, every
//! (round, region, target) probe through `netsim`, the responder, and
//! client validation, then the scanner merge — followed by the analysis
//! folds the §5/§8 figures read (validity, margin and outage-duration
//! CDFs, freshness, the Figure 3/5 series, the event log). Every pass
//! must reproduce a reference pass made by the sharded two-worker
//! executor, bit for bit.
//!
//! The traced run replaces the campaign with the same probe sequence
//! driven from here, so each layer call can carry a span: request
//! encoding, `World::http_post`, a stand-alone responder replaying the
//! request, and `validate_response_cached`. Its work counters must match
//! the campaign's own telemetry, which shows the replay did the same work.

use crate::stats::{self, Layer, Ledger};
use crate::{end_to_end_metrics, layer_metrics, Args, LayerCounts, Report};
use std::num::NonZeroUsize;

// detlint reads this package as part of the umbrella crate; each
// dependency below is declared in perfbench/Cargo.toml instead.
// detlint::allow(layering): declared in perfbench/Cargo.toml
use ecosystem::{EcosystemConfig, LiveEcosystem};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use netsim::{HttpOutcome, Region, World};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use ocsp::{validate_response_cached, OcspRequest, Responder, SigVerifyCache, ValidationConfig};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use scanner::{Executor, HourlyCampaign, HourlyDataset};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use telemetry::{catalog, Registry};

/// Campaign window: eight scan rounds, short enough that each of a
/// run's ten segments holds dozens of passes for its tail figure.
const CAMPAIGN_DAYS: i64 = 1;

/// The tiny-scale ecosystem the study's tests run, with its own fixed
/// population seed; `seed` picks which `CAMPAIGN_DAYS`-day window of the
/// paper's April–September campaign it scans. Drawing the population
/// from `seed` instead would change the mix of responder profiles — and
/// so the work per probe — by up to 30 % between seeds, which no run
/// length averages out.
fn config(seed: u64) -> EcosystemConfig {
    let mut config = EcosystemConfig::tiny().with_parallelism(1);
    let paper = EcosystemConfig::figures();
    let windows = (paper.campaign_end - paper.campaign_start) / 86_400 - CAMPAIGN_DAYS;
    config.campaign_start = paper.campaign_start + (seed % windows as u64) as i64 * 86_400;
    config.campaign_end = config.campaign_start + CAMPAIGN_DAYS * 86_400;
    config
}

/// What one pass produced, in a form two passes can be compared by.
#[derive(Debug, PartialEq)]
struct PassOutput {
    requests: u64,
    dataset: DatasetView,
    /// Bit patterns of the analysis results (exact comparison).
    analysis: Vec<Option<u64>>,
    /// `(bin start, fraction bits)` of every time series.
    series: Vec<(i64, u64)>,
}

/// The equality-relevant parts of an `HourlyDataset`.
#[derive(Debug, PartialEq)]
struct DatasetView {
    responders: Vec<scanner::ResponderReport>,
    telemetry: Registry,
    events: String,
}

fn pass(eco: &LiveEcosystem, executor: &Executor) -> PassOutput {
    let dataset: HourlyDataset = HourlyCampaign::new(eco).run_with(executor);
    let mut validity = dataset.cdf_validity();
    let mut margins = dataset.cdf_margins();
    let mut outages = dataset.cdf_outage_durations(eco.config.scan_interval);
    let freshness = dataset.freshness();
    let analysis = vec![
        validity.median().map(f64::to_bits),
        validity.quantile(0.9).map(f64::to_bits),
        margins.median().map(f64::to_bits),
        outages.median().map(f64::to_bits),
        outages.quantile(0.99).map(f64::to_bits),
        Some(dataset.overall_failure_rate().to_bits()),
        Some(freshness.pre_generated as u64),
        Some(freshness.non_overlapping.len() as u64),
        Some(freshness.produced_at_regressions.len() as u64),
    ];
    // The Figure 3 and Figure 5 series.
    let series = dataset
        .per_region_success
        .iter()
        .map(|(_, ts)| ts)
        .chain(dataset.class_series.iter().map(|(_, ts)| ts))
        .flat_map(|ts| ts.fractions())
        .map(|(t, f)| (t.unix(), f.to_bits()))
        .collect();
    PassOutput {
        requests: dataset.requests,
        dataset: DatasetView {
            responders: dataset.responders,
            telemetry: dataset.telemetry,
            events: dataset.events.to_jsonl(),
        },
        analysis,
        series,
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let eco = LiveEcosystem::generate(config(args.seed));
    // The reference: the same campaign sharded over two workers, which
    // the study guarantees is byte-identical to the serial pass.
    let reference = pass(&eco, &Executor::new(NonZeroUsize::new(2)));
    let expected_requests =
        (eco.config.scan_rounds() * Region::VANTAGE_POINTS.len() * eco.scan_targets.len()) as u64;
    let reference_ok = reference.requests == expected_requests
        && reference
            .dataset
            .telemetry
            .counter_total(catalog::SCAN_HOURLY_PROBES)
            == expected_requests;

    if args.trace {
        return traced(&eco, &reference, reference_ok, args.seconds);
    }

    let serial = Executor::serial();
    let (mut passes, mut failed) = (0u64, 0u64);
    let mut timed_pass = || {
        let began = stats::now();
        let output = pass(&eco, &serial);
        let ms = stats::ms_since(began);
        passes += 1;
        if output != reference {
            failed += 1;
        }
        ms
    };
    stats::warm_up(|| {
        timed_pass();
    });
    let mut window = stats::measure(
        args.seconds,
        |pass_ms| pass_ms.push(timed_pass()),
        || LiveEcosystem::generate(config(args.seed)),
    );
    Report {
        correct: reference_ok && failed == 0,
        attempted: passes,
        failed,
        metrics: end_to_end_metrics(&mut window, expected_requests),
    }
}

/// FNV-1a, the scanner's per-responder probe stagger within a round.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// One campaign's probe sequence, driven layer by layer. Returns the
/// world telemetry (the campaign's own work counters) and the request
/// and response bytes moved.
fn replay(eco: &LiveEcosystem, ledger: &mut Ledger) -> (Registry, u64) {
    let config = &eco.config;
    let topology = eco.build_topology();
    let mut telemetry = Registry::new();
    let mut der_bytes = 0u64;
    for (shard, host) in eco.responders.iter().enumerate() {
        let mut world = World::from_topology(topology.clone());
        let mut sigcache = SigVerifyCache::new();
        let ca = &eco.operators[host.operator].ca;
        let mut responder = Responder::new(&host.url, host.profile.clone());
        let mut responder_telemetry = Registry::new();
        let offset = (fnv1a(host.hostname.as_bytes()) % config.scan_interval as u64) as i64;
        let targets: Vec<_> = eco.targets_of(shard).collect();
        for round in 0..config.scan_rounds() {
            let t = config.campaign_start + round as i64 * config.scan_interval + offset;
            for region in Region::VANTAGE_POINTS {
                for target in &targets {
                    let der = ledger.span(Layer::Encode, || {
                        OcspRequest::single(target.cert_id.clone()).to_der()
                    });
                    let result = ledger.span(Layer::Exchange, || {
                        world.http_post(region, &target.url, &der, t)
                    });
                    der_bytes += der.len() as u64;
                    let HttpOutcome::Ok(body) = &result.outcome else {
                        continue;
                    };
                    der_bytes += body.len() as u64;
                    ledger.span(Layer::Respond, || {
                        responder.handle_bytes_with(ca, &der, t, &mut responder_telemetry)
                    });
                    // Unusable responses are data in this study, not
                    // benchmark failures; the counters record them.
                    let _ = ledger.span(Layer::Validate, || {
                        validate_response_cached(
                            world.telemetry_mut(),
                            catalog::SCAN_HOURLY_VALIDATE,
                            &mut sigcache,
                            body,
                            &target.cert_id,
                            eco.issuer_of(target.operator),
                            t,
                            ValidationConfig::default(),
                        )
                    });
                }
            }
        }
        telemetry.merge(&world.take_telemetry());
    }
    (telemetry, der_bytes)
}

fn traced(eco: &LiveEcosystem, reference: &PassOutput, reference_ok: bool, seconds: f64) -> Report {
    let mut ledger = Ledger::default();
    stats::warm_up(|| {
        replay(eco, &mut Ledger::default());
    });
    let (mut passes, mut failed, mut der_bytes) = (0u64, 0u64, 0u64);
    let mut counts = LayerCounts::default();
    let expected = &reference.dataset.telemetry;
    let start = stats::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let (telemetry, bytes) = replay(eco, &mut ledger);
        passes += 1;
        der_bytes += bytes;
        let same_work = [
            (catalog::NET_REQUEST, None),
            (catalog::OCSP_RESPONDER_CACHE, Some("hit")),
            (catalog::OCSP_RESPONDER_CACHE, Some("miss")),
            (catalog::OCSP_RESPONDER_CACHE, Some("window_sign")),
            (catalog::OCSP_VALIDATE_SIGCACHE, Some("hit")),
            (catalog::OCSP_VALIDATE_SIGCACHE, Some("miss")),
            (catalog::SCAN_HOURLY_VALIDATE, None),
        ]
        .iter()
        .all(|&(metric, label)| match label {
            Some(label) => telemetry.counter(metric, label) == expected.counter(metric, label),
            None => telemetry.counter_total(metric) == expected.counter_total(metric),
        });
        if !same_work {
            failed += 1;
        }
        counts.cache_hits += telemetry.counter(catalog::OCSP_RESPONDER_CACHE, "hit");
        counts.cache_misses += telemetry.counter(catalog::OCSP_RESPONDER_CACHE, "miss")
            + telemetry.counter(catalog::OCSP_RESPONDER_CACHE, "window_sign");
        counts.sig_verifies += telemetry.counter(catalog::OCSP_VALIDATE_SIGCACHE, "miss");
    }
    counts.requests = passes * reference.requests;
    counts.der_bytes = der_bytes;
    Report {
        correct: reference_ok && failed == 0,
        attempted: passes,
        failed,
        metrics: layer_metrics(&ledger, &counts),
    }
}
