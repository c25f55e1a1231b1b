//! The CRL↔OCSP consistency study (§5.4, Table 1, Figure 10).
//!
//! Methodology, as in the paper: download every CRL referenced by the
//! revoked-certificate pool, extract `(serial, revocation time, reason)`
//! triples, then send an OCSP request for every unexpired-and-revoked
//! certificate and compare the two channels on three axes:
//!
//! * **status** — a CRL-revoked serial answering `Good` or `Unknown`
//!   over OCSP is Table 1's finding;
//! * **revocation time** — Figure 10's CDF of `T_ocsp − T_crl`, with
//!   14.7 % of differing times *negative* and a tail past 137 M s;
//! * **reason code** — 15 % differ, 99.99 % of those because the CRL
//!   carries a code and OCSP none.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::executor::Executor;
use analysis::Cdf;
use asn1::Time;
use ecosystem::LiveEcosystem;
use netsim::{HttpOutcome, Region, World};
use ocsp::{
    validate_response_cached, CertStatus, OcspRequest, SigVerifyCache, ValidatedResponse,
    ValidationConfig,
};
use opsmon::{Event, EventKind, EventLog, HealthMonitor, HealthReport};
use pki::Crl;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use telemetry::catalog;
use telemetry::trace::Span;
use telemetry::Registry;

/// One Table 1 row: a responder whose OCSP answers disagree with its CRL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscrepantResponder {
    /// OCSP URL.
    pub ocsp_url: String,
    /// CRL URL.
    pub crl_url: String,
    /// CRL-revoked serials answered `Unknown`.
    pub unknown: u64,
    /// CRL-revoked serials answered `Good`.
    pub good: u64,
    /// CRL-revoked serials correctly answered `Revoked`.
    pub revoked: u64,
}

/// The study results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencySummary {
    /// Distinct CRLs fetched and parsed.
    pub crls_fetched: usize,
    /// OCSP responses successfully collected (paper: 99.9 %).
    pub responses_collected: u64,
    /// Requests issued.
    pub requests: u64,
    /// Table 1: responders with status discrepancies.
    pub table1: Vec<DiscrepantResponder>,
    /// All `T_ocsp − T_crl` differences for revoked-on-both-sides
    /// certificates, seconds (Figure 10's sample set). A [`Cdf`] keeps
    /// counts per distinct value, so memory is bounded by the number of
    /// *distinct* differences (a handful of fault-model lags), not the
    /// pool size (DESIGN.md §13).
    pub time_diffs: Cdf,
    /// Revocations whose reason exists in the CRL but not over OCSP.
    pub reason_crl_only: u64,
    /// Revocations whose reasons are present and equal on both sides.
    pub reason_match: u64,
    /// Revocations carrying no reason on either side.
    pub reason_absent: u64,
    /// Any other reason mismatch (paper: ~0.01 % of differing reasons).
    pub reason_other_mismatch: u64,
    /// Study telemetry, merged from the per-operator shards in shard-id
    /// order: CRL fetches, per-responder request counts, and one
    /// `scan.consistency.validate` counter per validation outcome.
    pub telemetry: Registry,
    /// Deterministic self-profile: one `scan.consistency` span over one
    /// operator span per shard. The study probes a single simulated
    /// instant, so every span is a point at that campaign hour, with the
    /// shard's request count as its work units.
    pub trace: Span,
    /// Per-responder health snapshots: every probe outcome (collected
    /// or not) at the study instant, folded by its operator's
    /// [`opsmon::HealthMonitor`] in pool order.
    pub health: HealthReport,
    /// The study's event stream: health transitions, outage open/close
    /// pairs, and one revocation event per serial confirmed revoked
    /// over both channels, stamped with the CRL's revocation time.
    pub events: EventLog,
}

impl ConsistencySummary {
    /// Fraction of matched revocations with differing times (paper: 0.15 %).
    pub fn time_diff_fraction(&self) -> f64 {
        let differing: u64 = self
            .time_diffs
            .counts()
            .filter(|&(d, _)| d != 0.0)
            .map(|(_, n)| n)
            .sum();
        differing as f64 / (self.time_diffs.len().max(1)) as f64
    }

    /// Of the differing times, the fraction that are negative
    /// (paper: 14.7 %).
    pub fn negative_diff_fraction(&self) -> f64 {
        let differing: u64 = self
            .time_diffs
            .counts()
            .filter(|&(d, _)| d != 0.0)
            .map(|(_, n)| n)
            .sum();
        if differing == 0 {
            return 0.0;
        }
        let negative: u64 = self
            .time_diffs
            .counts()
            .filter(|&(d, _)| d < 0.0)
            .map(|(_, n)| n)
            .sum();
        negative as f64 / differing as f64
    }

    /// Figure 10: the CDF of nonzero time differences.
    pub fn time_diff_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.time_diffs
                .counts()
                .filter(|&(d, _)| d != 0.0)
                .flat_map(|(d, n)| std::iter::repeat_n(d, n as usize)),
        )
    }

    /// Fraction of revocations with a reason-code discrepancy.
    pub fn reason_diff_fraction(&self) -> f64 {
        let total = self.reason_crl_only
            + self.reason_match
            + self.reason_absent
            + self.reason_other_mismatch;
        (self.reason_crl_only + self.reason_other_mismatch) as f64 / total.max(1) as f64
    }
}

/// One shard's partial study results (one operator's targets).
struct ShardSummary {
    crls_fetched: usize,
    responses_collected: u64,
    requests: u64,
    rows: Vec<DiscrepantResponder>,
    time_diffs: Cdf,
    reason_crl_only: u64,
    reason_match: u64,
    reason_absent: u64,
    reason_other_mismatch: u64,
    telemetry: Registry,
    /// Folds this operator's responders, which no other shard probes.
    health: HealthMonitor,
    events: EventLog,
}

/// The study driver.
pub struct ConsistencyStudy;

impl ConsistencyStudy {
    /// Run the study at time `at` (the paper ran on May 1st, 2018) from
    /// the given vantage point, with the worker count from the
    /// ecosystem config.
    pub fn run(eco: &LiveEcosystem, at: Time, vantage: Region) -> ConsistencySummary {
        let executor = Executor::new(eco.config.parallelism);
        ConsistencyStudy::run_with(eco, at, vantage, &executor)
    }

    /// Run the study on a specific executor.
    ///
    /// Each shard is one *operator*: its CRL endpoint and its responder
    /// URLs are touched by no other shard, and every operator's CRL URL
    /// is distinct, so per-shard CRL deduplication is exactly the global
    /// deduplication and the merged counters equal a serial run's.
    pub fn run_with(
        eco: &LiveEcosystem,
        at: Time,
        vantage: Region,
        executor: &Executor,
    ) -> ConsistencySummary {
        let topo = eco.build_topology();

        // Partition the revoked pool by operator, preserving pool order
        // within each shard (the order responder caches see).
        let mut targets_of: Vec<Vec<usize>> = vec![Vec::new(); eco.operators.len()];
        for (idx, target) in eco.revoked.iter().enumerate() {
            targets_of[target.operator].push(idx);
        }
        let targets_of = &targets_of;
        let topo = &topo;

        // The study draws no randomness of its own; the shard RNG is
        // part of the executor contract but unused here. One chunk per
        // operator: a single probe instant gives time slicing nothing
        // to cut, so the chunked API is used in its degenerate
        // (RNG-compatible) form.
        let chunk_counts = vec![1usize; eco.operators.len()];
        // The single probe instant, as a simulated campaign hour.
        let study_hour = ((at - eco.config.campaign_start).max(0) / 3_600) as u64;
        let (shards, shard_spans) = executor.run_chunked_traced(
            eco.config.seed,
            &chunk_counts,
            |shard| eco.operators[shard].name.clone(),
            |shard, _chunk, _rng| {
                let mut world = World::from_topology(topo.clone());
                // Memoized signature verification for this operator's
                // responders — repeated bodies (shared windows, load
                // balancing) verify once.
                let mut sigcache = SigVerifyCache::new();

                // Step 1: fetch and parse this operator's CRLs once each,
                // counting every fetch outcome.
                let mut crls: HashMap<String, Option<Crl>> = HashMap::new();
                for &idx in &targets_of[shard] {
                    let target = &eco.revoked[idx];
                    if crls.contains_key(&target.crl_url) {
                        continue;
                    }
                    let (label, parsed) =
                        match world.http_post(vantage, &target.crl_url, b"", at).outcome {
                            HttpOutcome::Ok(body) => match Crl::from_der(&body) {
                                Ok(crl) => ("ok", Some(crl)),
                                Err(_) => ("unparseable", None),
                            },
                            _ => ("unreachable", None),
                        };
                    world
                        .telemetry_mut()
                        .incr(catalog::SCAN_CONSISTENCY_CRL_FETCH, label);
                    crls.insert(target.crl_url.clone(), parsed);
                }

                let mut partial = ShardSummary {
                    #[expect(clippy::disallowed_methods, reason = "counting is order-insensitive")]
                    crls_fetched: crls.values().filter(|c| c.is_some()).count(),
                    responses_collected: 0,
                    requests: 0,
                    rows: Vec::new(),
                    time_diffs: Cdf::new(),
                    reason_crl_only: 0,
                    reason_match: 0,
                    reason_absent: 0,
                    reason_other_mismatch: 0,
                    telemetry: Registry::new(),
                    health: HealthMonitor::new(),
                    events: EventLog::new(),
                };
                // BTreeMap, not HashMap: `into_values` feeds `partial.rows`,
                // so the iteration order is artifact-relevant — keyed by URL
                // it yields rows in a deterministic (sorted) order.
                let mut per_responder: BTreeMap<String, DiscrepantResponder> = BTreeMap::new();

                // Fold one validated OCSP answer into the comparison
                // accumulators. Called in pool order, so the Figure 10
                // sample order and the revocation events follow the pool.
                let fold_comparison =
                    |partial: &mut ShardSummary,
                     per_responder: &mut BTreeMap<String, DiscrepantResponder>,
                     idx: usize,
                     validated: &ValidatedResponse| {
                        let target = &eco.revoked[idx];
                        #[expect(clippy::expect_used, reason = "only probed with a parsed CRL")]
                        let crl = crls
                            .get(&target.crl_url)
                            .and_then(Option::as_ref)
                            .expect("only probed with a parsed CRL");
                        #[expect(clippy::expect_used, reason = "only probed for a listed serial")]
                        let crl_entry = crl
                            .find(&target.serial)
                            .expect("only probed when the CRL lists the serial");
                        let row = per_responder.entry(target.url.clone()).or_insert_with(|| {
                            DiscrepantResponder {
                                ocsp_url: target.url.clone(),
                                crl_url: target.crl_url.clone(),
                                unknown: 0,
                                good: 0,
                                revoked: 0,
                            }
                        });
                        match validated.status {
                            CertStatus::Good => row.good += 1,
                            CertStatus::Unknown => row.unknown += 1,
                            CertStatus::Revoked { time, reason } => {
                                row.revoked += 1;
                                // One bus event per serial revoked on both
                                // channels, stamped with the CRL's time —
                                // the channel the paper treats as ground
                                // truth for Figure 10.
                                partial.events.push(Event::new(
                                    crl_entry.revocation_time,
                                    EventKind::Revocation,
                                    &target.url,
                                    &format!("serial {}", target.serial),
                                ));
                                // i64 seconds are exact in f64 far past any
                                // campaign-scale difference (< 2^53).
                                partial
                                    .time_diffs
                                    .add((time - crl_entry.revocation_time) as f64);
                                match (crl_entry.reason, reason) {
                                    (None, None) => partial.reason_absent += 1,
                                    (Some(a), Some(b)) if a == b => partial.reason_match += 1,
                                    (Some(_), None) => partial.reason_crl_only += 1,
                                    _ => partial.reason_other_mismatch += 1,
                                }
                            }
                        }
                    };

                // Step 2: OCSP for every revoked target; compare.
                for &idx in &targets_of[shard] {
                    let target = &eco.revoked[idx];
                    let Some(Some(crl)) = crls.get(&target.crl_url) else {
                        continue;
                    };
                    if crl.find(&target.serial).is_none() {
                        continue;
                    }

                    partial.requests += 1;
                    world
                        .telemetry_mut()
                        .incr(catalog::SCAN_CONSISTENCY_PROBES, &target.url);
                    let req = OcspRequest::single(target.cert_id.clone()).to_der();
                    let outcome = world.http_post(vantage, &target.url, &req, at).outcome;
                    partial.health.observe(
                        &target.url,
                        at,
                        matches!(outcome, HttpOutcome::Ok(_)),
                        &mut partial.events,
                    );
                    let HttpOutcome::Ok(body) = outcome else {
                        continue;
                    };
                    // "Collected" means an HTTP response arrived (the
                    // paper's 99.9 %); unusable bodies are then excluded
                    // from comparison.
                    partial.responses_collected += 1;
                    let issuer = eco.issuer_of(target.operator);
                    let Ok(validated) = validate_response_cached(
                        world.telemetry_mut(),
                        catalog::SCAN_CONSISTENCY_VALIDATE,
                        &mut sigcache,
                        &body,
                        &target.cert_id,
                        issuer,
                        at,
                        ValidationConfig::default(),
                    ) else {
                        continue;
                    };
                    fold_comparison(&mut partial, &mut per_responder, idx, &validated);
                }

                partial.rows = per_responder
                    .into_values()
                    .filter(|row| row.unknown + row.good > 0)
                    .collect();
                partial.telemetry = world.take_telemetry();
                let span = Span::leaf("chunk 0", study_hour, study_hour, partial.requests);
                (partial, span)
            },
        );

        // Canonical merge in shard-id (operator) order; Table 1 gets a
        // final global sort, so intra-shard row order is irrelevant.
        let mut summary = ConsistencySummary {
            crls_fetched: 0,
            responses_collected: 0,
            requests: 0,
            table1: Vec::new(),
            time_diffs: Cdf::new(),
            reason_crl_only: 0,
            reason_match: 0,
            reason_absent: 0,
            reason_other_mismatch: 0,
            telemetry: Registry::new(),
            trace: Span::aggregate("scan.consistency", shard_spans),
            health: HealthReport::default(),
            events: EventLog::new(),
        };
        #[expect(clippy::disallowed_methods, reason = "a wall span, not an artifact")]
        let merge_started = Instant::now();
        for partial in shards.into_iter().flatten() {
            summary.crls_fetched += partial.crls_fetched;
            summary.responses_collected += partial.responses_collected;
            summary.requests += partial.requests;
            summary.table1.extend(partial.rows);
            summary.time_diffs.merge(&partial.time_diffs);
            summary.reason_crl_only += partial.reason_crl_only;
            summary.reason_match += partial.reason_match;
            summary.reason_absent += partial.reason_absent;
            summary.reason_other_mismatch += partial.reason_other_mismatch;
            summary.telemetry.merge(&partial.telemetry);
            summary.health.merge(partial.health.report());
            summary.events.merge(partial.events);
        }
        summary.health.export(&mut summary.telemetry);
        summary.telemetry.record_wall(
            catalog::SCAN_CONSISTENCY_MERGE,
            merge_started.elapsed().as_nanos(),
        );
        summary.table1.sort_by(|a, b| a.ocsp_url.cmp(&b.ocsp_url));
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;

    fn summary() -> ConsistencySummary {
        let mut config = EcosystemConfig::tiny();
        config.responders = 92; // include all named (fault-scripted) operators
        config.revoked_pool = 400;
        let eco = LiveEcosystem::generate(config);
        ConsistencyStudy::run(
            &eco,
            Time::from_civil(2018, 5, 1, 0, 0, 0),
            Region::Virginia,
        )
    }

    #[test]
    fn nearly_all_responses_collected() {
        let s = summary();
        assert!(s.requests > 0);
        let rate = s.responses_collected as f64 / s.requests as f64;
        assert!(rate > 0.9, "collection rate {rate}");
        assert!(s.crls_fetched > 10);
    }

    #[test]
    fn table1_contains_good_and_unknown_rows() {
        let s = summary();
        assert!(!s.table1.is_empty(), "discrepant responders expected");
        let has_good = s.table1.iter().any(|r| r.good > 0);
        let has_unknown_for_all = s
            .table1
            .iter()
            .any(|r| r.unknown > 0 && r.revoked == 0 && r.good == 0);
        assert!(has_good, "a GoodForSome responder should appear");
        assert!(
            has_unknown_for_all,
            "an UnknownForAll responder should appear"
        );
    }

    #[test]
    fn time_diffs_mostly_zero_with_a_tail() {
        let s = summary();
        assert!(!s.time_diffs.is_empty());
        let f = s.time_diff_fraction();
        // msocsp's lag makes this a bit higher than the paper's global
        // 0.15 % at tiny scale; the shape requirement is "small".
        assert!(f < 0.2, "diff fraction {f}");
        // The msocsp lag is present: some positive diffs of >= 7 hours.
        assert!(
            s.time_diffs.max().is_some_and(|d| d >= (7 * 3_600) as f64),
            "expected msocsp-style lag"
        );
    }

    #[test]
    fn parallel_run_equals_serial_run_exactly() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let at = Time::from_civil(2018, 5, 1, 0, 0, 0);
        let serial = ConsistencyStudy::run_with(&eco, at, Region::Virginia, &Executor::serial());
        for workers in [2usize, 5] {
            let executor = Executor::new(std::num::NonZeroUsize::new(workers));
            let parallel = ConsistencyStudy::run_with(&eco, at, Region::Virginia, &executor);
            // ConsistencySummary's PartialEq covers every artifact field.
            assert_eq!(serial, parallel, "workers={workers}");
            assert_eq!(
                serial.telemetry.to_prometheus(),
                parallel.telemetry.to_prometheus(),
                "workers={workers}"
            );
            assert_eq!(
                serial.trace.to_jsonl(),
                parallel.trace.to_jsonl(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn table1_row_order_is_deterministic_and_sorted() {
        // Regression: `per_responder` was once a HashMap, so intra-shard
        // row order leaked hash order into Table 1 until the final sort.
        // With the BTreeMap the rows are sorted (and thus repeatable) at
        // every stage.
        let a = summary();
        let b = summary();
        assert_eq!(a.table1, b.table1);
        let urls: Vec<&str> = a.table1.iter().map(|r| r.ocsp_url.as_str()).collect();
        let mut sorted = urls.clone();
        sorted.sort();
        assert_eq!(urls, sorted, "Table 1 rows must come out sorted by URL");
    }

    #[test]
    fn telemetry_counts_match_summary_totals() {
        let s = summary();
        assert_eq!(
            s.telemetry.counter_total("scan.consistency.probes"),
            s.requests
        );
        assert_eq!(
            s.telemetry.counter("scan.consistency.crl_fetch", "ok"),
            s.crls_fetched as u64
        );
        // Every collected response is validated exactly once (ok or err).
        assert_eq!(
            s.telemetry.counter_total("scan.consistency.validate"),
            s.responses_collected
        );
    }

    #[test]
    fn reason_discrepancies_are_crl_only() {
        let s = summary();
        assert!(s.reason_crl_only > 0, "CRL-only reasons expected");
        assert_eq!(
            s.reason_other_mismatch, 0,
            "no cross-coded reasons in the model"
        );
        let f = s.reason_diff_fraction();
        assert!((0.05..0.3).contains(&f), "reason diff fraction {f}");
    }
}
