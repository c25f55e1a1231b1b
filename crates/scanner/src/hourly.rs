//! The Hourly dataset campaign (§5.1–§5.4).
//!
//! Every scan round, each of the six vantage points POSTs an OCSP
//! request for every tracked certificate to its responder. Results are
//! aggregated streaming (the paper's campaign made ~84 M probes; even
//! scaled down, storing raw records would be wasteful):
//!
//! * per-region success time series → Figure 3;
//! * per-class unusable-response time series → Figure 5;
//! * per-responder quality accumulators → Figures 6–9;
//! * per-responder `producedAt` samples → the §5.4 freshness analysis
//!   (on-demand vs pre-generated, non-overlapping windows, multi-
//!   instance `producedAt` regressions).

use crate::executor::Executor;
use crate::records::{classify_validation_error, ErrorClass, ProbeOutcome};
use analysis::{Cdf, TimeSeries};
use asn1::Time;
use ecosystem::LiveEcosystem;
use netsim::{HttpOutcome, Region, Topology, World};
use ocsp::profile::GenerationMode;
use ocsp::{validate_response_cached, OcspRequest, SigVerifyCache, ValidationConfig};
use opsmon::{Event, EventKind, EventLog, HealthLog, HealthPolicy, HealthReport, Notifier};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use telemetry::catalog;
use telemetry::trace::Span;
use telemetry::Registry;

/// Per-responder accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponderReport {
    /// Responder URL.
    pub url: String,
    /// Operator display name.
    pub operator: String,
    /// Requests attempted per region (indexed like `Region::VANTAGE_POINTS`).
    pub attempts: [u64; 6],
    /// HTTP-successful requests per region.
    pub successes: [u64; 6],
    /// Fully valid responses.
    pub valid: u64,
    /// Unusable responses by class.
    pub unusable: BTreeMap<ErrorClass, u64>,
    /// Parseable-but-invalid (error status / expired / not yet valid).
    pub other_invalid: u64,
    /// Sum and count of certificates per response.
    pub cert_count_sum: u64,
    /// Number of valid responses contributing to the sums.
    pub quality_samples: u64,
    /// Sum of serials per response.
    pub serial_count_sum: u64,
    /// Sum of finite validity periods (seconds).
    pub validity_sum: i64,
    /// Valid responses with a finite validity period.
    pub validity_samples: u64,
    /// Valid responses with a blank `nextUpdate`.
    pub blank_next_update: u64,
    /// Sum of `thisUpdate` margins (receive − thisUpdate, seconds).
    pub margin_sum: i64,
    /// Freshness accumulator fed by the Virginia client's
    /// `(probe_time, produced_at)` samples — stale/sample counts, the
    /// regression flag, and the distinct-`producedAt` set, folded
    /// per-probe instead of retaining the raw sample vector
    /// (DESIGN.md §13).
    pub freshness: FreshnessAccumulator,
    /// Current consecutive-failure streak per region (scan rounds).
    pub failure_streak: [u32; 6],
    /// Longest observed failure streak per region (scan rounds) — the
    /// §8 outage-duration argument: most outages are far shorter than
    /// most validity periods, so prefetching servers ride them out.
    pub max_failure_streak: [u32; 6],
    /// Every *closed* failure streak per region (scan rounds), in the
    /// order observed. A streak closes when a success follows failures;
    /// streaks still open at campaign end are persistent failures, not
    /// transient outages, and never appear here.
    pub closed_streaks: [Vec<u32>; 6],
}

impl ResponderReport {
    fn new(url: &str, operator: &str) -> ResponderReport {
        ResponderReport {
            url: url.to_string(),
            operator: operator.to_string(),
            attempts: [0; 6],
            successes: [0; 6],
            valid: 0,
            unusable: BTreeMap::new(),
            other_invalid: 0,
            cert_count_sum: 0,
            quality_samples: 0,
            serial_count_sum: 0,
            validity_sum: 0,
            validity_samples: 0,
            blank_next_update: 0,
            margin_sum: 0,
            freshness: FreshnessAccumulator::new(),
            failure_streak: [0; 6],
            max_failure_streak: [0; 6],
            closed_streaks: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Average certificates per response (Figure 6 sample).
    pub fn avg_cert_count(&self) -> Option<f64> {
        (self.quality_samples > 0).then(|| self.cert_count_sum as f64 / self.quality_samples as f64)
    }

    /// Average serials per response (Figure 7 sample).
    pub fn avg_serial_count(&self) -> Option<f64> {
        (self.quality_samples > 0)
            .then(|| self.serial_count_sum as f64 / self.quality_samples as f64)
    }

    /// Average validity period; `None` if no valid responses,
    /// `Some(None)` means "blank `nextUpdate` dominates" (∞ in Figure 8).
    pub fn avg_validity(&self) -> Option<Option<f64>> {
        if self.valid == 0 {
            return None;
        }
        if self.blank_next_update > self.validity_samples {
            return Some(None);
        }
        (self.validity_samples > 0)
            .then(|| Some(self.validity_sum as f64 / self.validity_samples as f64))
    }

    /// Average `thisUpdate` margin (Figure 9 sample).
    pub fn avg_margin(&self) -> Option<f64> {
        (self.valid + self.other_invalid > 0 && self.quality_samples > 0)
            .then(|| self.margin_sum as f64 / self.quality_samples as f64)
    }

    /// Whether this responder never returned an HTTP success from
    /// `region_idx`.
    pub fn never_succeeded_from(&self, region_idx: usize) -> bool {
        self.attempts[region_idx] > 0 && self.successes[region_idx] == 0
    }

    /// Whether the responder had at least one *transient* outage seen
    /// from some region: a failure after a success, followed by another
    /// success, is approximated here as "some but not all requests
    /// failed from a region that generally works".
    pub fn had_transient_outage(&self) -> bool {
        (0..6).any(|r| self.successes[r] > 0 && self.successes[r] < self.attempts[r])
    }
}

/// The freshness classification of §5.4.
#[derive(Debug, Clone, Default)]
pub struct FreshnessReport {
    /// Responders generating per-request (producedAt tracks receipt).
    pub on_demand: usize,
    /// Responders serving pre-generated responses.
    pub pre_generated: usize,
    /// Pre-generated responders whose validity ≤ refresh period (the
    /// non-overlap hazard; paper: 7).
    pub non_overlapping: Vec<String>,
    /// Responders whose `producedAt` went backwards between consecutive
    /// scans (footnote 17's multi-instance artifact).
    pub produced_at_regressions: Vec<String>,
}

/// The aggregated campaign results.
pub struct HourlyDataset {
    /// Scan rounds executed.
    pub rounds: usize,
    /// Total probes sent.
    pub requests: u64,
    /// Per-region HTTP-success time series (Figure 3).
    pub per_region_success: Vec<(Region, TimeSeries)>,
    /// Per-class unusable-response time series (Figure 5).
    pub class_series: Vec<(ErrorClass, TimeSeries)>,
    /// Per-responder reports.
    pub responders: Vec<ResponderReport>,
    /// Per-region series of Alexa domains whose responder was down
    /// (Figure 4); counts are domain-weighted.
    pub alexa_unreachable: Vec<(Region, TimeSeries)>,
    /// Alexa domains depending on each responder.
    pub alexa_weights: Vec<usize>,
    /// Campaign telemetry: per-responder probe/round counters, the
    /// `scan.hourly.validate` error-taxonomy counters, and everything
    /// the per-shard worlds recorded (net failures, responder faults),
    /// merged in canonical shard order.
    pub telemetry: Registry,
    /// Deterministic self-profile: one `scan.hourly` span over one
    /// responder span per shard over one span per time chunk, stamped
    /// with simulated campaign hours (see [`telemetry::trace`]).
    pub trace: Span,
    /// Per-responder health-state timelines, replayed from the stitched
    /// first-target probe logs through the [`opsmon`] state machine in
    /// canonical (responder, round, region) order — byte-stable across
    /// worker counts and chunk plans like every other field.
    pub health: HealthReport,
    /// The campaign's operational event stream: health transitions,
    /// outage open/close pairs, and pre-generation window rollovers,
    /// all stamped with simulated-clock instants (see
    /// [`opsmon::EventLog`]).
    pub events: EventLog,
}

impl HourlyDataset {
    /// Overall fraction of failed requests (paper: 1.7 % average).
    pub fn overall_failure_rate(&self) -> f64 {
        let mut attempts = 0u64;
        let mut successes = 0u64;
        for r in &self.responders {
            attempts += r.attempts.iter().sum::<u64>();
            successes += r.successes.iter().sum::<u64>();
        }
        1.0 - successes as f64 / attempts.max(1) as f64
    }

    /// Failure rate from one vantage point.
    pub fn region_failure_rate(&self, region: Region) -> f64 {
        let idx = region_index(region);
        let mut attempts = 0u64;
        let mut successes = 0u64;
        for r in &self.responders {
            attempts += r.attempts[idx];
            successes += r.successes[idx];
        }
        1.0 - successes as f64 / attempts.max(1) as f64
    }

    /// Responders never reachable from *any* vantage point (paper: 2).
    pub fn responders_never_reachable(&self) -> usize {
        self.responders
            .iter()
            .filter(|r| (0..6).all(|i| r.never_succeeded_from(i)))
            .count()
    }

    /// Responders with ≥1 vantage point that never succeeded while
    /// others did (paper: 29 more).
    pub fn responders_partially_dead(&self) -> usize {
        self.responders
            .iter()
            .filter(|r| {
                let dead = (0..6).filter(|&i| r.never_succeeded_from(i)).count();
                (1..6).contains(&dead)
            })
            .count()
    }

    /// Fraction of responders with at least one transient outage
    /// (paper: 36.8 %).
    pub fn transient_outage_fraction(&self) -> f64 {
        let n = self.responders.len().max(1);
        self.responders
            .iter()
            .filter(|r| r.had_transient_outage())
            .count() as f64
            / n as f64
    }

    /// Figure 6: CDF of average certificates per response.
    pub fn cdf_cert_counts(&self) -> Cdf {
        Cdf::from_samples(
            self.responders
                .iter()
                .filter_map(ResponderReport::avg_cert_count),
        )
    }

    /// Figure 7: CDF of average serials per response.
    pub fn cdf_serial_counts(&self) -> Cdf {
        Cdf::from_samples(
            self.responders
                .iter()
                .filter_map(ResponderReport::avg_serial_count),
        )
    }

    /// Figure 8: CDF of average validity periods; blank `nextUpdate`
    /// responders contribute +∞ mass.
    pub fn cdf_validity(&self) -> Cdf {
        let mut cdf = Cdf::new();
        for r in &self.responders {
            match r.avg_validity() {
                Some(Some(v)) => cdf.add(v),
                Some(None) => cdf.add_infinite(),
                None => {}
            }
        }
        cdf
    }

    /// Figure 9: CDF of average `thisUpdate` margins (receive − thisUpdate).
    pub fn cdf_margins(&self) -> Cdf {
        Cdf::from_samples(
            self.responders
                .iter()
                .filter_map(ResponderReport::avg_margin),
        )
    }

    /// Fraction of responders whose average margin is (effectively) zero
    /// or negative — Figure 9's headline 17.2 % + 3 %.
    pub fn zero_margin_fraction(&self) -> f64 {
        let samples: Vec<f64> = self
            .responders
            .iter()
            .filter_map(ResponderReport::avg_margin)
            .collect();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().filter(|&&m| m <= 1.0).count() as f64 / samples.len() as f64
    }

    /// CDF of every observed finite outage per (responder, region), in
    /// seconds — all *closed* failure streaks, not just the longest one,
    /// so short repeated outages carry their full weight. Streaks still
    /// open at campaign end are persistent failures and excluded. The §8
    /// argument compares this against the validity CDF: "most failures
    /// persist far shorter than most OCSP responses' validity periods".
    pub fn cdf_outage_durations(&self, scan_interval: i64) -> Cdf {
        let mut cdf = Cdf::new();
        for r in &self.responders {
            for region in 0..6 {
                for &streak in &r.closed_streaks[region] {
                    cdf.add((streak as i64 * scan_interval) as f64);
                }
            }
        }
        cdf
    }

    /// The §5.4 freshness classification.
    pub fn freshness(&self) -> FreshnessReport {
        let mut report = FreshnessReport::default();
        for r in &self.responders {
            if r.freshness.samples() < 2 {
                continue;
            }
            if !r.freshness.is_pre_generated() {
                report.on_demand += 1;
                continue;
            }
            report.pre_generated += 1;

            // Regressions (footnote 17): producedAt going backwards.
            if r.freshness.has_regression() {
                report.produced_at_regressions.push(r.url.clone());
            }
            if let (Some(refresh), Some(Some(validity))) =
                (r.freshness.min_refresh_gap(), r.avg_validity())
            {
                if validity as i64 <= refresh {
                    report.non_overlapping.push(r.url.clone());
                }
            }
        }
        report
    }
}

/// The §5.4 freshness fold: everything the freshness analysis needs
/// from a responder's Virginia `(probe_time, produced_at)` samples,
/// accumulated per probe so no raw sample vector is ever retained.
/// Memory is bounded by the number of *distinct* `producedAt` values
/// (at most one per refresh window for pre-generated responders).
///
/// The paper's rule, applied per responder behavior: a sample is "not
/// generated on demand" when `producedAt` is more than two minutes
/// before receipt, and a responder is classified pre-generated when
/// the *majority* of its samples say so — a lone stale outlier (cache,
/// load balancer hiccup) must not flip an on-demand responder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreshnessAccumulator {
    samples: u64,
    stale: u64,
    first_produced: Option<Time>,
    last_produced: Option<Time>,
    regressed: bool,
    produced: BTreeSet<Time>,
}

impl FreshnessAccumulator {
    /// An empty accumulator.
    pub fn new() -> FreshnessAccumulator {
        FreshnessAccumulator::default()
    }

    /// Fold one Virginia sample in. Samples must arrive in probe-time
    /// order (they do: chunks run rounds in order and merge in time
    /// order), so a backwards `producedAt` step is observable right
    /// here.
    pub fn record(&mut self, probe: Time, produced: Time) {
        self.samples += 1;
        if probe - produced > 120 {
            self.stale += 1;
        }
        if let Some(last) = self.last_produced {
            if produced < last {
                self.regressed = true;
            }
        }
        if self.first_produced.is_none() {
            self.first_produced = Some(produced);
        }
        self.last_produced = Some(produced);
        self.produced.insert(produced);
    }

    /// Fold a later chunk's accumulator in (chunks merge in time
    /// order), stitching regression detection across the chunk
    /// boundary.
    pub fn merge(&mut self, other: &FreshnessAccumulator) {
        if other.samples == 0 {
            return;
        }
        self.samples += other.samples;
        self.stale += other.stale;
        self.regressed |= other.regressed;
        if let (Some(last), Some(first)) = (self.last_produced, other.first_produced) {
            if first < last {
                self.regressed = true;
            }
        }
        if self.first_produced.is_none() {
            self.first_produced = other.first_produced;
        }
        self.last_produced = other.last_produced;
        self.produced.extend(other.produced.iter().copied());
    }

    /// Number of samples folded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The §5.4 per-responder behavioral rule: pre-generated iff a
    /// strict majority of samples show `producedAt` more than two
    /// minutes before receipt.
    pub fn is_pre_generated(&self) -> bool {
        self.stale * 2 > self.samples
    }

    /// Whether `producedAt` ever went backwards (footnote 17's
    /// multi-instance regressions).
    pub fn has_regression(&self) -> bool {
        self.regressed
    }

    /// Refresh-period estimate: minimum positive gap between distinct
    /// consecutive `producedAt` values. (The set is sorted and
    /// deduplicated, so consecutive gaps are exactly the old
    /// sort+dedup+windows computation.)
    pub fn min_refresh_gap(&self) -> Option<i64> {
        let mut prev: Option<Time> = None;
        let mut min_gap: Option<i64> = None;
        for &p in &self.produced {
            if let Some(prev) = prev {
                let gap = p - prev;
                if gap > 0 && min_gap.is_none_or(|m| gap < m) {
                    min_gap = Some(gap);
                }
            }
            prev = Some(p);
        }
        min_gap
    }
}

/// Deterministic FNV-1a hash used to stagger probe times per responder.
/// Real scan fleets stagger requests; without it, a coarse scan grid
/// would systematically miss short outage windows.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

fn region_index(region: Region) -> usize {
    Region::VANTAGE_POINTS
        .iter()
        .position(|&r| r == region)
        .expect("vantage point")
}

/// One work unit's partial campaign results: everything one responder
/// contributes over one contiguous round range. Chunks merge in
/// (shard, chunk) order — time order within each responder — so the
/// assembled [`HourlyDataset`] is identical for every worker count and
/// every chunk plan.
struct ChunkRecords {
    requests: u64,
    /// Accumulators for this round range only; the streak fields stay
    /// zero here and are recomputed at merge time from
    /// `first_target_ok`, so a chunk boundary can never split a streak.
    report: ResponderReport,
    /// Per-region, per-round first-target HTTP success — the §8 streak
    /// signal, logged raw so the merge can stitch streaks across chunk
    /// boundaries with the one serial pass both paths share.
    first_target_ok: [Vec<bool>; 6],
    per_region_success: Vec<TimeSeries>,
    class_series: Vec<TimeSeries>,
    alexa_unreachable: Vec<TimeSeries>,
    telemetry: Registry,
}

/// How the hourly campaign splits its probe matrix into executor work
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chunking {
    /// One work unit per responder: the reference plan the tests hold
    /// [`Chunking::TimeSliced`] to. A slow responder (many certs, long
    /// fault paths) straggles behind the rest and caps parallel
    /// speedup.
    #[cfg(test)]
    PerResponder,
    /// (responder × time-chunk) work units: each responder's rounds are
    /// cut at cache-safe boundaries ([`chunk_plan`]) so many short
    /// units keep every worker busy. Byte-identical to
    /// [`Chunking::PerResponder`] by construction.
    TimeSliced,
}

/// Aim for this many time chunks per responder.
const TARGET_CHUNKS_PER_SHARD: usize = 8;

/// Cut one responder's `rounds` probe rounds into contiguous
/// `(start, end)` chunks at cache-safe boundaries.
///
/// A boundary is safe when a fresh per-chunk [`World`] replays the
/// monolithic run byte-for-byte from that round on, *including* every
/// telemetry counter. Responder state (the signed-response cache, the
/// validator's signature memo) is a pure function of the request and
/// its generation window, so:
///
/// * on-demand responders key everything by the request second — every
///   round boundary is safe;
/// * pre-generated responders share signed bytes (and the cache events
///   they produce) across all rounds inside one window — boundaries are
///   safe only where the window index `t.div_euclid(interval)` rolls
///   over between consecutive probe times.
///
/// The plan is a pure function of the ecosystem config — never of the
/// worker count — so every executor sees identical chunks.
fn chunk_plan(
    rounds: usize,
    campaign_start: i64,
    scan_interval: i64,
    offset: i64,
    generation: GenerationMode,
) -> Vec<(usize, usize)> {
    let target = (rounds / TARGET_CHUNKS_PER_SHARD).max(1);
    let mut starts = vec![0usize];
    for r in 1..rounds {
        let safe = match generation {
            GenerationMode::OnDemand => true,
            GenerationMode::PreGenerated { interval } => {
                let t_prev = campaign_start + (r as i64 - 1) * scan_interval + offset;
                (t_prev + scan_interval).div_euclid(interval) != t_prev.div_euclid(interval)
            }
        };
        if safe && r - starts.last().unwrap() >= target {
            starts.push(r);
        }
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| (start, starts.get(i + 1).copied().unwrap_or(rounds)))
        .collect()
}

/// Fold one chunk's accumulators into the responder-wide report.
/// Streak fields are deliberately untouched — they come from the
/// stitched `first_target_ok` logs.
fn absorb_report(into: &mut ResponderReport, chunk: ResponderReport) {
    for i in 0..6 {
        into.attempts[i] += chunk.attempts[i];
        into.successes[i] += chunk.successes[i];
    }
    into.valid += chunk.valid;
    for (class, n) in chunk.unusable {
        *into.unusable.entry(class).or_default() += n;
    }
    into.other_invalid += chunk.other_invalid;
    into.cert_count_sum += chunk.cert_count_sum;
    into.quality_samples += chunk.quality_samples;
    into.serial_count_sum += chunk.serial_count_sum;
    into.validity_sum += chunk.validity_sum;
    into.validity_samples += chunk.validity_samples;
    into.blank_next_update += chunk.blank_next_update;
    into.margin_sum += chunk.margin_sum;
    into.freshness.merge(&chunk.freshness);
}

/// Fold one classified probe into the chunk's accumulators — the one
/// place record state mutates per probe. Work units call it right
/// after each probe, in canonical (round, region, target) order, so
/// the order-sensitive fields (streak logs, `producedAt` samples, time
/// series) see the serial probe sequence.
#[allow(clippy::too_many_arguments)]
fn fold_probe(
    records: &mut ChunkRecords,
    region_idx: usize,
    region: Region,
    is_first_target: bool,
    alexa_weight: u64,
    t: Time,
    outcome: &ProbeOutcome,
) {
    let report = &mut records.report;
    report.attempts[region_idx] += 1;
    let probe_ok = outcome.http_success();
    if is_first_target {
        records.first_target_ok[region_idx].push(probe_ok);
    }
    if probe_ok {
        report.successes[region_idx] += 1;
    }
    records.per_region_success[region_idx].record_bool(t, probe_ok);
    if is_first_target {
        let down = if probe_ok { 0 } else { alexa_weight };
        records.alexa_unreachable[region_idx].record_hits(t, down, alexa_weight);
    }
    if probe_ok {
        for (class_idx, class) in ErrorClass::ALL.iter().enumerate() {
            records.class_series[class_idx].record_bool(t, outcome.error_class() == Some(*class));
        }
    }
    match outcome {
        ProbeOutcome::Valid(v) => {
            report.valid += 1;
            report.quality_samples += 1;
            report.cert_count_sum += v.cert_count as u64;
            report.serial_count_sum += v.serial_count as u64;
            match v.validity_period() {
                Some(secs) => {
                    report.validity_sum += secs;
                    report.validity_samples += 1;
                }
                None => report.blank_next_update += 1,
            }
            report.margin_sum += v.this_update_margin;
            // The paper sampled producedAt across all of a responder's
            // tracked certificates; multiple samples per window are what
            // expose the footnote 17 multi-instance regressions.
            if region == Region::Virginia {
                report.freshness.record(t, v.produced_at);
            }
        }
        ProbeOutcome::Unusable(class) => {
            *report.unusable.entry(*class).or_default() += 1;
        }
        ProbeOutcome::OtherInvalid(err) => {
            report.other_invalid += 1;
            // Future-dated thisUpdate responders show up here; keep
            // their margin contribution so the Figure 9 CDF reaches
            // below zero.
            if let ocsp::ResponseError::NotYetValid { early_by } = err {
                report.quality_samples += 1;
                report.margin_sum -= *early_by;
            }
        }
        ProbeOutcome::TransportFailure(_) => {}
    }
}

/// The one streak pass every chunk plan shares: replay the per-round
/// first-target outcomes in time order and fill the §8 streak fields.
fn fill_streaks(report: &mut ResponderReport, first_target_ok: &[Vec<bool>; 6]) {
    for (region, outcomes) in first_target_ok.iter().enumerate() {
        let mut streak = 0u32;
        for &ok in outcomes {
            if ok {
                if streak > 0 {
                    // A success closes the streak: record it for the §8
                    // outage-duration CDF.
                    report.closed_streaks[region].push(streak);
                }
                streak = 0;
            } else {
                streak += 1;
                report.max_failure_streak[region] = report.max_failure_streak[region].max(streak);
            }
        }
        report.failure_streak[region] = streak;
    }
}

/// The campaign driver.
pub struct HourlyCampaign<'a> {
    eco: &'a LiveEcosystem,
    topo: Arc<Topology>,
}

impl<'a> HourlyCampaign<'a> {
    /// Wire the shared topology for the ecosystem.
    pub fn new(eco: &'a LiveEcosystem) -> HourlyCampaign<'a> {
        HourlyCampaign {
            eco,
            topo: eco.build_topology(),
        }
    }

    /// Run the full campaign with the worker count from the ecosystem
    /// config.
    pub fn run(self) -> HourlyDataset {
        let executor = Executor::new(self.eco.config.parallelism);
        self.run_with(&executor)
    }

    /// Run the full campaign on a specific executor, in
    /// (responder × time-chunk) work units.
    ///
    /// Each work unit is one responder over one contiguous round range.
    /// A unit replays *its responder's* exact serial-run probe
    /// subsequence — round by round, region by region, target by
    /// target — against a private [`World`] over the shared topology.
    /// Responder caches and the validator's signature memo are pure
    /// functions of the request and its generation window, chunk
    /// boundaries fall only where no cached state crosses them (see
    /// [`chunk_plan`]), latency is a pure hash of
    /// `(topology seed, host, time)`, and failure streaks are stitched
    /// from raw per-round logs at merge time — so the assembled dataset
    /// is byte-identical for every worker count and chunk plan.
    pub fn run_with(self, executor: &Executor) -> HourlyDataset {
        self.run_with_chunking(executor, Chunking::TimeSliced)
    }

    /// [`HourlyCampaign::run_with`] with an explicit [`Chunking`] —
    /// the coarse plan exists so tests can prove the fine-grained one
    /// changes nothing but wall-clock time.
    ///
    /// Each work unit issues one blocking `World::http_post` per probe
    /// in canonical (round, region, target) order and folds the
    /// classified outcome straight into its records (DESIGN.md §12).
    fn run_with_chunking(self, executor: &Executor, chunking: Chunking) -> HourlyDataset {
        let eco = self.eco;
        let config = &eco.config;
        let bin = config.scan_interval;
        let rounds = config.scan_rounds();

        // Figure 4: how many Alexa domains ride on each responder. The
        // paper's Alexa1M population is the ~60 % of the list that
        // supports HTTPS+OCSP.
        let alexa_ocsp_domains = (config.alexa_size as f64 * 0.6) as usize;
        let alexa_weights = eco.alexa_domains_per_responder(alexa_ocsp_domains);

        // Pre-encode requests; remember which target samples producedAt
        // and which targets belong to which responder shard.
        let requests_der: Vec<Vec<u8>> = eco
            .scan_targets
            .iter()
            .map(|t| OcspRequest::single(t.cert_id.clone()).to_der())
            .collect();
        let mut first_target_of: Vec<Option<usize>> = vec![None; eco.responders.len()];
        let mut targets_of: Vec<Vec<usize>> = vec![Vec::new(); eco.responders.len()];
        for (idx, target) in eco.scan_targets.iter().enumerate() {
            first_target_of[target.responder].get_or_insert(idx);
            targets_of[target.responder].push(idx);
        }
        // Per-responder probe stagger within the scan interval.
        let offsets: Vec<i64> = eco
            .responders
            .iter()
            .map(|host| (fnv1a(host.hostname.as_bytes()) % config.scan_interval as u64) as i64)
            .collect();

        // The chunk plan is a pure function of the config (never of the
        // worker count): responders × window-aligned round ranges.
        let plans: Vec<Vec<(usize, usize)>> = eco
            .responders
            .iter()
            .enumerate()
            .map(|(shard, host)| match chunking {
                #[cfg(test)]
                Chunking::PerResponder => vec![(0, rounds)],
                Chunking::TimeSliced => chunk_plan(
                    rounds,
                    config.campaign_start.unix(),
                    config.scan_interval,
                    offsets[shard],
                    host.profile.generation,
                ),
            })
            .collect();
        let chunk_counts: Vec<usize> = plans.iter().map(Vec::len).collect();

        let topo = &self.topo;
        let requests_der = &requests_der;
        let first_target_of = &first_target_of;
        let targets_of = &targets_of;
        let offsets = &offsets;
        let plans = &plans;

        // The campaign draws no randomness of its own (probe times are
        // FNV-staggered, latency is a pure hash) — the unit RNG is part
        // of the executor contract but unused here.
        let (shards, shard_spans) = executor.run_chunked_traced(
            config.seed,
            &chunk_counts,
            |shard| eco.responders[shard].hostname.clone(),
            |shard, chunk, _rng| {
                let (start_round, end_round) = plans[shard][chunk];
                let host = &eco.responders[shard];
                let mut world = World::from_topology(topo.clone());
                // Signature verification is memoized per work unit; entries
                // never outlive the generation window that produced their
                // bytes, so per-chunk caches count exactly like a
                // per-responder one.
                let mut sigcache = SigVerifyCache::new();
                let mut records = ChunkRecords {
                    requests: 0,
                    report: ResponderReport::new(&host.url, &eco.operators[host.operator].name),
                    first_target_ok: std::array::from_fn(|_| Vec::new()),
                    per_region_success: (0..6).map(|_| TimeSeries::new(bin)).collect(),
                    class_series: ErrorClass::ALL
                        .iter()
                        .map(|_| TimeSeries::new(bin))
                        .collect(),
                    alexa_unreachable: (0..6).map(|_| TimeSeries::new(bin)).collect(),
                    telemetry: Registry::new(),
                };
                let alexa_weight = alexa_weights[shard] as u64;
                for round in start_round..end_round {
                    world
                        .telemetry_mut()
                        .incr(catalog::SCAN_HOURLY_ROUNDS, &host.url);
                    let round_start = config.campaign_start + round as i64 * config.scan_interval;
                    let t = round_start + offsets[shard];
                    for (region_idx, &region) in Region::VANTAGE_POINTS.iter().enumerate() {
                        for &target_idx in &targets_of[shard] {
                            let target = &eco.scan_targets[target_idx];
                            records.requests += 1;
                            world
                                .telemetry_mut()
                                .incr(catalog::SCAN_HOURLY_PROBES, &host.url);
                            let result =
                                world.http_post(region, &target.url, &requests_der[target_idx], t);
                            let outcome = match result.outcome {
                                HttpOutcome::Ok(body) => match validate_response_cached(
                                    world.telemetry_mut(),
                                    catalog::SCAN_HOURLY_VALIDATE,
                                    &mut sigcache,
                                    &body,
                                    &target.cert_id,
                                    eco.issuer_of(target.operator),
                                    t,
                                    ValidationConfig::default(),
                                ) {
                                    Ok(validated) => ProbeOutcome::Valid(validated),
                                    Err(err) => classify_validation_error(err),
                                },
                                other => ProbeOutcome::TransportFailure(other),
                            };
                            fold_probe(
                                &mut records,
                                region_idx,
                                region,
                                first_target_of[shard] == Some(target_idx),
                                alexa_weight,
                                t,
                                &outcome,
                            );
                        }
                    }
                }
                records.telemetry = world.take_telemetry();
                // Chunk span: the simulated hour range this round slice
                // covers, with one unit per probe sent.
                let span = Span::leaf(
                    format!("chunk {chunk}"),
                    (start_round as i64 * config.scan_interval / 3_600) as u64,
                    (end_round as i64 * config.scan_interval / 3_600) as u64,
                    records.requests,
                );
                (records, span)
            },
        );

        // Canonical merge: shard-id order == responder order; within a
        // shard, chunk order == time order, so concatenated logs replay
        // the serial probe sequence exactly.
        let mut requests = 0u64;
        let mut telemetry = Registry::new();
        // detlint::allow(wall-clock): merge wall timing feeds a telemetry span, which is excluded from artifact equality
        let merge_started = Instant::now();
        let mut per_region: Vec<(Region, TimeSeries)> = Region::VANTAGE_POINTS
            .iter()
            .map(|&r| (r, TimeSeries::new(bin)))
            .collect();
        let mut class_series: Vec<(ErrorClass, TimeSeries)> = ErrorClass::ALL
            .iter()
            .map(|&c| (c, TimeSeries::new(bin)))
            .collect();
        let mut alexa_unreachable: Vec<(Region, TimeSeries)> = Region::VANTAGE_POINTS
            .iter()
            .map(|&r| (r, TimeSeries::new(bin)))
            .collect();
        let mut responders = Vec::with_capacity(shards.len());
        let mut health_log = HealthLog::new();
        for (shard_idx, chunks) in shards.into_iter().enumerate() {
            let host = &eco.responders[shard_idx];
            let mut report = ResponderReport::new(&host.url, &eco.operators[host.operator].name);
            let mut first_target_ok: [Vec<bool>; 6] = std::array::from_fn(|_| Vec::new());
            // Chunks arrive in time order, so merging each chunk's
            // probe-outcome log into the campaign log replays the serial
            // (round, region) sequence — the associativity the opsmon
            // property tests pin is exactly what makes this split safe.
            let mut rounds_done = 0usize;
            for chunk in chunks {
                requests += chunk.requests;
                for (i, series) in chunk.per_region_success.iter().enumerate() {
                    per_region[i].1.merge(series);
                }
                for (i, series) in chunk.class_series.iter().enumerate() {
                    class_series[i].1.merge(series);
                }
                for (i, series) in chunk.alexa_unreachable.iter().enumerate() {
                    alexa_unreachable[i].1.merge(series);
                }
                telemetry.merge(&chunk.telemetry);
                let chunk_rounds = chunk.first_target_ok[0].len();
                let mut chunk_health = HealthLog::new();
                for round in 0..chunk_rounds {
                    let t = config.campaign_start
                        + (rounds_done + round) as i64 * config.scan_interval
                        + offsets[shard_idx];
                    for region_log in &chunk.first_target_ok {
                        chunk_health.record(&host.url, t, region_log[round]);
                    }
                }
                rounds_done += chunk_rounds;
                health_log.merge(chunk_health);
                for (into, log) in first_target_ok.iter_mut().zip(chunk.first_target_ok.iter()) {
                    into.extend_from_slice(log);
                }
                absorb_report(&mut report, chunk.report);
            }
            fill_streaks(&mut report, &first_target_ok);
            responders.push(report);
        }
        // Replay the stitched probe logs through the health-state
        // machine and export the resulting gauges/counters; window
        // rollovers for pre-generated responders ride the same bus.
        let mut events = EventLog::new();
        let health = health_log.replay(&HealthPolicy::default(), &mut events);
        health.export(&mut telemetry);
        if rounds > 0 {
            for (shard_idx, host) in eco.responders.iter().enumerate() {
                let GenerationMode::PreGenerated { interval } = host.profile.generation else {
                    continue;
                };
                let first = config.campaign_start.unix() + offsets[shard_idx];
                let last = first + (rounds - 1) as i64 * config.scan_interval;
                for window in (first.div_euclid(interval) + 1)..=(last.div_euclid(interval)) {
                    events.notify(Event::new(
                        Time::from_unix(window * interval),
                        EventKind::Rollover,
                        &host.url,
                        &format!("window {window}"),
                    ));
                }
            }
        }
        // Wall-clock span only — never serialized, never compared.
        telemetry.record_wall(
            catalog::SCAN_HOURLY_MERGE,
            merge_started.elapsed().as_nanos(),
        );

        HourlyDataset {
            rounds,
            requests,
            per_region_success: per_region,
            class_series,
            responders,
            alexa_unreachable,
            alexa_weights,
            telemetry,
            trace: Span::aggregate("scan.hourly", shard_spans),
            health,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;

    fn dataset() -> HourlyDataset {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        HourlyCampaign::new(&eco).run()
    }

    #[test]
    fn campaign_covers_all_probes() {
        let d = dataset();
        let config = EcosystemConfig::tiny();
        let expected =
            (config.scan_rounds() * 6 * config.responders * config.certs_per_responder) as u64;
        assert_eq!(d.requests, expected);
        assert_eq!(d.responders.len(), config.responders);
        assert_eq!(d.per_region_success.len(), 6);
    }

    #[test]
    fn telemetry_accounts_for_every_probe() {
        // Replaces the old eprintln-based debug test: the campaign's
        // accounting is now a telemetry event stream we can assert on.
        let d = dataset();
        assert_eq!(d.telemetry.counter_total("scan.hourly.probes"), d.requests);
        let rounds_total: u64 = d.telemetry.counter_total("scan.hourly.rounds");
        assert_eq!(rounds_total, (d.rounds * d.responders.len()) as u64);
        // Every HTTP success was validated exactly once.
        let successes: u64 = d
            .responders
            .iter()
            .map(|r| r.successes.iter().sum::<u64>())
            .sum();
        assert_eq!(d.telemetry.counter_total("scan.hourly.validate"), successes);
        // Transport failures show up in the netsim counters.
        let failures = d.requests - successes;
        let net_failures: u64 = ["dns", "tcp", "http4xx", "http5xx", "tls", "http"]
            .iter()
            .map(|k| d.telemetry.counter_total(&format!("net.failure.{k}")))
            .sum();
        assert_eq!(net_failures, failures);
    }

    #[test]
    fn telemetry_validate_counters_cross_check_fig5_unusable_totals() {
        // Acceptance cross-check: the per-variant validate counters must
        // sum to the same totals Figure 5's unusable classes report.
        let d = dataset();
        let unusable_total = |class: ErrorClass| -> u64 {
            d.responders
                .iter()
                .map(|r| r.unusable.get(&class).copied().unwrap_or(0))
                .sum()
        };
        assert_eq!(
            d.telemetry
                .counter("scan.hourly.validate", "err.malformed_structure"),
            unusable_total(ErrorClass::Asn1Unparseable)
        );
        assert_eq!(
            d.telemetry
                .counter("scan.hourly.validate", "err.serial_mismatch"),
            unusable_total(ErrorClass::SerialUnmatch)
        );
        assert_eq!(
            d.telemetry
                .counter("scan.hourly.validate", "err.signature_invalid")
                + d.telemetry
                    .counter("scan.hourly.validate", "err.untrusted_delegate"),
            unusable_total(ErrorClass::Signature)
        );
    }

    #[test]
    fn most_requests_succeed_but_not_all() {
        let d = dataset();
        let failure = d.overall_failure_rate();
        assert!(failure > 0.0, "some failures must occur (outage script)");
        assert!(failure < 0.25, "but most requests succeed; got {failure}");
    }

    #[test]
    fn quality_cdfs_are_populated() {
        let d = dataset();
        assert!(!d.cdf_cert_counts().is_empty());
        assert!(!d.cdf_serial_counts().is_empty());
        assert!(!d.cdf_margins().is_empty());
        let mut validity = d.cdf_validity();
        assert!(!validity.is_empty());
        // Median validity should be in the days range.
        if let Some(median) = validity.median() {
            assert!(median > 3_600.0, "median validity {median}");
        }
        let _ = d.cdf_cert_counts().len();
    }

    #[test]
    fn freshness_classifies_both_modes() {
        let d = dataset();
        let f = d.freshness();
        assert!(f.on_demand + f.pre_generated > 0);
        // hinet-style non-overlap exists only at larger scales; at tiny
        // scale just ensure the analysis runs.
    }

    fn accumulate(samples: &[(Time, Time)]) -> FreshnessAccumulator {
        let mut acc = FreshnessAccumulator::new();
        for &(probe, produced) in samples {
            acc.record(probe, produced);
        }
        acc
    }

    #[test]
    fn one_stale_outlier_does_not_flip_freshness_to_pre_generated() {
        // Regression: the old rule (`.any(gap > 120)`) classified a
        // responder as pre-generated from a single outlier sample. Nine
        // on-demand samples plus one stale must stay on-demand.
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        let mut samples: Vec<(Time, Time)> = (0..9)
            .map(|k| (t0 + k * 3_600, t0 + k * 3_600 - 5))
            .collect();
        samples.push((t0 + 9 * 3_600, t0 + 9 * 3_600 - 7_200)); // the outlier
        assert!(
            samples
                .iter()
                .any(|&(probe, produced)| probe - produced > 120),
            "the outlier must trip the old any() rule"
        );
        assert!(!accumulate(&samples).is_pre_generated());
    }

    #[test]
    fn majority_stale_samples_classify_as_pre_generated() {
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        // Six of ten samples stale by two hours: pre-generated.
        let samples: Vec<(Time, Time)> = (0..10)
            .map(|k| {
                let probe = t0 + k * 3_600;
                let produced = if k < 6 { probe - 7_200 } else { probe - 5 };
                (probe, produced)
            })
            .collect();
        assert!(accumulate(&samples).is_pre_generated());
        // An exact half is not a strict majority.
        let split: Vec<(Time, Time)> = (0..10)
            .map(|k| {
                let probe = t0 + k * 3_600;
                let produced = if k < 5 { probe - 7_200 } else { probe - 5 };
                (probe, produced)
            })
            .collect();
        assert!(!accumulate(&split).is_pre_generated());
    }

    #[test]
    fn freshness_merge_stitches_regressions_across_chunks() {
        // A producedAt step backwards exactly at a chunk boundary must
        // still be seen as a regression after the chunks merge.
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        let mut first = FreshnessAccumulator::new();
        first.record(t0, t0 - 7_200);
        first.record(t0 + 3_600, t0 - 3_600);
        let mut second = FreshnessAccumulator::new();
        second.record(t0 + 7_200, t0 - 5_400); // backwards vs. first's last
        assert!(!first.has_regression());
        assert!(!second.has_regression());
        first.merge(&second);
        assert!(first.has_regression());

        // And the merged state equals recording everything in order.
        let whole = accumulate(&[
            (t0, t0 - 7_200),
            (t0 + 3_600, t0 - 3_600),
            (t0 + 7_200, t0 - 5_400),
        ]);
        assert_eq!(first, whole);
    }

    #[test]
    fn min_refresh_gap_matches_sort_dedup_windows() {
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        // Produced values {0, 0, 7200, 18000}: gaps 7200 and 10800.
        let acc = accumulate(&[
            (t0 + 60, t0),
            (t0 + 3_660, t0),
            (t0 + 7_260, t0 + 7_200),
            (t0 + 18_060, t0 + 18_000),
        ]);
        assert_eq!(acc.min_refresh_gap(), Some(7_200));
        // Fewer than two distinct values: no estimate.
        let flat = accumulate(&[(t0 + 60, t0), (t0 + 3_660, t0)]);
        assert_eq!(flat.min_refresh_gap(), None);
    }

    #[test]
    fn every_closed_streak_enters_the_outage_cdf() {
        // Regression: the old CDF kept only the longest closed streak
        // per (responder, region), silently dropping shorter outages.
        let mut report = ResponderReport::new("http://r.test/", "Op");
        report.closed_streaks[0] = vec![2, 3]; // two distinct outages, region 0
        report.closed_streaks[1] = vec![1]; // one more from region 1
                                            // A still-open streak at campaign end must not contribute.
        report.failure_streak[2] = 5;
        report.max_failure_streak[2] = 5;

        let d = HourlyDataset {
            rounds: 10,
            requests: 0,
            per_region_success: Vec::new(),
            class_series: Vec::new(),
            responders: vec![report],
            alexa_unreachable: Vec::new(),
            alexa_weights: Vec::new(),
            telemetry: Registry::new(),
            trace: Span::aggregate("scan.hourly", Vec::new()),
            health: HealthReport::default(),
            events: EventLog::new(),
        };
        let mut cdf = d.cdf_outage_durations(3_600);
        assert_eq!(
            cdf.len(),
            3,
            "all closed streaks counted, open one excluded"
        );
        assert_eq!(cdf.median(), Some(2.0 * 3_600.0));
    }

    #[test]
    fn health_and_events_ride_the_campaign() {
        let d = dataset();
        // Only responders that fielded probes have a health timeline.
        assert!(!d.health.subjects.is_empty());
        assert!(d.health.subjects.len() <= d.responders.len());
        // The exported transition counters live in the merged registry.
        let exported: u64 = d.health.transition_counts.values().sum();
        assert_eq!(
            d.telemetry
                .counter_total(telemetry::catalog::HEALTH_TRANSITIONS),
            exported
        );
        // The event stream round-trips byte-exactly through its strict
        // parser — the same contract trace.jsonl honours.
        let text = d.events.to_jsonl();
        let parsed = EventLog::parse_jsonl(&text).unwrap_or_else(|_| EventLog::new());
        assert!(!text.is_empty(), "the campaign must emit events");
        assert_eq!(parsed.to_jsonl(), text, "events.jsonl parses strictly");
    }

    #[test]
    fn time_series_cover_campaign() {
        let d = dataset();
        for (_, series) in &d.per_region_success {
            assert_eq!(series.bin_count(), d.rounds);
        }
    }

    #[test]
    fn chunk_plans_cover_all_rounds_contiguously() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let config = &eco.config;
        let rounds = config.scan_rounds();
        let mut saw_multi_chunk = false;
        for host in &eco.responders {
            let offset = (fnv1a(host.hostname.as_bytes()) % config.scan_interval as u64) as i64;
            let plan = chunk_plan(
                rounds,
                config.campaign_start.unix(),
                config.scan_interval,
                offset,
                host.profile.generation,
            );
            assert_eq!(plan.first().unwrap().0, 0);
            assert_eq!(plan.last().unwrap().1, rounds);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "chunks must be contiguous");
            }
            // Pre-generated responders only split where the window rolls.
            if let GenerationMode::PreGenerated { interval } = host.profile.generation {
                for &(start, _) in &plan[1..] {
                    let t_prev = config.campaign_start.unix()
                        + (start as i64 - 1) * config.scan_interval
                        + offset;
                    assert_ne!(
                        (t_prev + config.scan_interval).div_euclid(interval),
                        t_prev.div_euclid(interval),
                        "{}: chunk start {start} is mid-window",
                        host.hostname
                    );
                }
            }
            saw_multi_chunk |= plan.len() > 1;
        }
        assert!(
            saw_multi_chunk,
            "tiny scale must actually exercise chunking"
        );
    }

    #[test]
    fn time_sliced_chunking_matches_per_responder_sharding_exactly() {
        // The §5.2 replication contract for the fine-grained executor:
        // (responder × time-chunk) units must reproduce the coarse
        // shard-per-responder run byte-for-byte — figures, reports,
        // telemetry (cache and sigcache counters included), the event
        // bus and the health timelines — at every worker count.
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let coarse = HourlyCampaign::new(&eco)
            .run_with_chunking(&Executor::serial(), Chunking::PerResponder);
        for workers in [1usize, 2, 4] {
            let executor = Executor::new(std::num::NonZeroUsize::new(workers));
            let fine = HourlyCampaign::new(&eco).run_with_chunking(&executor, Chunking::TimeSliced);
            assert_eq!(coarse.requests, fine.requests, "workers={workers}");
            assert_eq!(coarse.responders, fine.responders, "workers={workers}");
            assert_eq!(coarse.alexa_weights, fine.alexa_weights);
            assert_eq!(coarse.telemetry, fine.telemetry, "workers={workers}");
            assert_eq!(
                coarse.events.to_jsonl(),
                fine.events.to_jsonl(),
                "workers={workers}"
            );
            assert_eq!(coarse.health, fine.health, "workers={workers}");
            // The Prometheus exposition is chunking-invariant too (the
            // span tree is not: chunk plans legitimately differ).
            assert_eq!(
                coarse.telemetry.to_prometheus(),
                fine.telemetry.to_prometheus()
            );
            for (a, b) in coarse
                .per_region_success
                .iter()
                .zip(&fine.per_region_success)
            {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.fractions(), b.1.fractions());
            }
            for (a, b) in coarse.class_series.iter().zip(&fine.class_series) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.fractions(), b.1.fractions());
            }
            for (a, b) in coarse.alexa_unreachable.iter().zip(&fine.alexa_unreachable) {
                assert_eq!(a.1.counts(), b.1.counts());
            }
        }
    }

    #[test]
    fn responder_cache_hit_rate_is_high_on_healthy_paths_only() {
        // Acceptance: with six vantage points sharing each probe second,
        // the healthy-path signed-response cache must serve most probes
        // from cached bytes, and fault-profile probes must never touch
        // the cache (they'd serve valid bytes for broken responders).
        let d = dataset();
        let hit = d.telemetry.counter("ocsp.responder.cache", "hit");
        let miss = d.telemetry.counter("ocsp.responder.cache", "miss");
        assert!(hit + miss > 0);
        let rate = hit as f64 / (hit + miss) as f64;
        assert!(rate > 0.8, "request-path hit rate {rate} too low");
        // Fault events and cache events are disjoint by construction:
        // every probe is either served from the healthy path (cache
        // gate) or triggers fault counters, never both.
        assert!(d.telemetry.counter_total("ocsp.responder.fault") > 0);
    }

    #[test]
    fn parallel_run_equals_serial_run_exactly() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        for chunking in [Chunking::TimeSliced, Chunking::PerResponder] {
            // The serial baseline shares the chunk plan under test: the
            // trace tree has one span per chunk, so it is only
            // worker-invariant *within* a chunking.
            let serial = HourlyCampaign::new(&eco).run_with_chunking(&Executor::serial(), chunking);
            for workers in [2usize, 5] {
                let executor = Executor::new(std::num::NonZeroUsize::new(workers));
                let parallel = HourlyCampaign::new(&eco).run_with_chunking(&executor, chunking);
                let label = format!("chunking={chunking:?} workers={workers}");
                assert_eq!(serial.requests, parallel.requests, "{label}");
                assert_eq!(serial.responders, parallel.responders, "{label}");
                assert_eq!(serial.alexa_weights, parallel.alexa_weights, "{label}");
                assert_eq!(serial.telemetry, parallel.telemetry, "{label}");
                assert_eq!(
                    serial.telemetry.to_prometheus(),
                    parallel.telemetry.to_prometheus(),
                    "{label}"
                );
                assert_eq!(serial.trace, parallel.trace, "{label}");
                assert_eq!(
                    serial.trace.to_jsonl(),
                    parallel.trace.to_jsonl(),
                    "{label}"
                );
                for (a, b) in serial
                    .per_region_success
                    .iter()
                    .zip(&parallel.per_region_success)
                {
                    assert_eq!(a.0, b.0, "{label}");
                    assert_eq!(a.1.fractions(), b.1.fractions(), "{label}");
                }
                for (a, b) in serial.class_series.iter().zip(&parallel.class_series) {
                    assert_eq!(a.0, b.0, "{label}");
                    assert_eq!(a.1.fractions(), b.1.fractions(), "{label}");
                }
                for (a, b) in serial
                    .alexa_unreachable
                    .iter()
                    .zip(&parallel.alexa_unreachable)
                {
                    assert_eq!(a.1.counts(), b.1.counts(), "{label}");
                }
            }
        }
    }

    #[test]
    fn trailing_open_streak_is_reported_but_not_closed() {
        // Pinned semantics of the §8 streak fields: a
        // failure streak still open at campaign end lands in
        // `failure_streak` (persistent failure) but deliberately never
        // in `closed_streaks` (transient-outage CDF) — only a
        // subsequent success closes a streak.
        let mut report = ResponderReport::new("http://r.test/", "op");
        let mut first_target_ok: [Vec<bool>; 6] = std::array::from_fn(|_| Vec::new());
        // Region 0: ok, fail, fail, ok, fail — one closed streak of 2,
        // plus a trailing open streak of 1.
        first_target_ok[0] = vec![true, false, false, true, false];
        // Region 1: all failures — a fully open streak, nothing closed.
        first_target_ok[1] = vec![false, false, false];
        // Region 2: ends in a success — streak closed, none open.
        first_target_ok[2] = vec![false, true];
        fill_streaks(&mut report, &first_target_ok);

        assert_eq!(report.closed_streaks[0], vec![2]);
        assert_eq!(report.failure_streak[0], 1);
        assert_eq!(report.max_failure_streak[0], 2);

        assert!(report.closed_streaks[1].is_empty());
        assert_eq!(report.failure_streak[1], 3);
        assert_eq!(report.max_failure_streak[1], 3);

        assert_eq!(report.closed_streaks[2], vec![1]);
        assert_eq!(report.failure_streak[2], 0);
    }
}
