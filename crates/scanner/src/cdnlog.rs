//! The CDN's perspective (§5.2).
//!
//! Akamai logs from two locations over ~60 hours showed: a CDN fronting
//! OCSP traffic contacts only ~20 distinct responders, most responses
//! come from cache, and — in that window — every origin contact
//! succeeded. This module replays synthetic TLS-driven OCSP traffic
//! through [`netsim::CdnNode`] edges and reports the same three
//! observations.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::executor::Executor;
use asn1::Time;
use ecosystem::LiveEcosystem;
use netsim::{CdnNode, Region};
use ocsp::{OcspRequest, OcspResponse, ResponseStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use telemetry::catalog;
use telemetry::trace::Span;

/// Study results.
#[derive(Debug, Clone)]
pub struct CdnSummary {
    /// TLS-driven OCSP lookups replayed.
    pub lookups: u64,
    /// Distinct responders the CDN contacted (paper: ~20).
    pub distinct_responders: usize,
    /// Fraction of lookups served from the edge cache.
    pub cache_hit_ratio: f64,
    /// Fraction of origin fetches that succeeded (paper: 100 %).
    pub origin_success_ratio: f64,
    /// Origin fetches made.
    pub origin_fetches: u64,
    /// Study telemetry: per-edge lookup counters plus everything the
    /// world recorded (edge hits/misses/origin fetches per region).
    pub telemetry: telemetry::Registry,
    /// Deterministic self-profile: one `scan.cdnlog` span over the
    /// single replay work unit, covering the replayed hour window with
    /// one unit per lookup.
    pub trace: Span,
}

/// The study driver.
pub struct CdnStudy;

impl CdnStudy {
    /// Replay `hours` of traffic (paper: ~60) at `lookups_per_hour`
    /// through two edge locations.
    pub fn run(
        eco: &LiveEcosystem,
        start: Time,
        hours: i64,
        lookups_per_hour: usize,
    ) -> CdnSummary {
        CdnStudy::run_with(eco, start, hours, lookups_per_hour, &Executor::serial())
    }

    /// [`CdnStudy::run`] scheduled on a specific executor.
    ///
    /// Both edges share one cache-coupled world and one sequentially
    /// drawn RNG, so the replay cannot be subdivided without changing
    /// its byte stream: it runs as a *single* work unit, letting the
    /// executor overlap it with other studies rather than split it. The
    /// study keeps its own `seed ^ 0xCD11` RNG (not the unit RNG) so
    /// results are identical to the historical serial path.
    pub fn run_with(
        eco: &LiveEcosystem,
        start: Time,
        hours: i64,
        lookups_per_hour: usize,
        executor: &Executor,
    ) -> CdnSummary {
        let (mut out, spans) = executor.run_chunked_traced(
            eco.config.seed ^ 0xCD11,
            &[1],
            |_shard| "replay".to_string(),
            |_shard, _chunk, _rng| {
                let summary = CdnStudy::replay(eco, start, hours, lookups_per_hour);
                let span = summary.trace.clone();
                (summary, span)
            },
        );
        #[expect(clippy::expect_used, reason = "the plan is one work unit")]
        let mut summary = out
            .pop()
            .and_then(|mut chunks| chunks.pop())
            .expect("one work unit");
        summary.trace = Span::aggregate("scan.cdnlog", spans);
        summary
    }

    /// The sequential replay body.
    fn replay(eco: &LiveEcosystem, start: Time, hours: i64, lookups_per_hour: usize) -> CdnSummary {
        let mut world = eco.build_world();
        let mut edges = [CdnNode::new(Region::Virginia), CdnNode::new(Region::Paris)];
        let mut rng = StdRng::seed_from_u64(eco.config.seed ^ 0xCD11);

        // Traffic concentrates on popular certificates: pick an operator
        // with probability proportional to the *square* of its market
        // share (popular sites skew toward the big CAs even harder than
        // issuance volume does), then one of its certificates. This is
        // why the paper's CDN logs show only ~20 distinct responders.
        let weights: Vec<f64> = eco
            .operators
            .iter()
            .map(|op| op.market_share * op.market_share)
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let targets = &eco.scan_targets;
        let mut lookups = 0u64;
        let mut contacted: HashSet<String> = HashSet::new();

        for hour in 0..hours {
            for _ in 0..lookups_per_hour {
                let now = start + hour * 3_600 + rng.gen_range(0..3_600);
                let mut pick: f64 = rng.gen_range(0.0..total_weight);
                let mut op_idx = 0;
                for (i, w) in weights.iter().enumerate() {
                    if pick < *w {
                        op_idx = i;
                        break;
                    }
                    pick -= w;
                }
                let candidates: Vec<usize> = targets
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.operator == op_idx)
                    .map(|(i, _)| i)
                    .collect();
                let idx = candidates[rng.gen_range(0..candidates.len())];
                let target = &targets[idx];
                let req = OcspRequest::single(target.cert_id.clone()).to_der();
                // Each request lands on an edge independently (real
                // clients are routed per-connection, not per-hour);
                // drawn from the study RNG so replay stays deterministic.
                let edge = &mut edges[rng.gen_range(0..edges.len())];
                let edge_region = edge.region();
                let before = edge.stats().origin_fetches;
                let result = edge.fetch(&mut world, &target.url, &req, now, |body| {
                    // Cache until the response's nextUpdate (cap 24 h).
                    match OcspResponse::from_der(body) {
                        Ok(resp) if resp.status == ResponseStatus::Successful => resp
                            .basic
                            .as_ref()
                            .and_then(|b| b.responses.first())
                            .and_then(|sr| sr.next_update)
                            .map(|nu| (nu - now).clamp(0, 86_400))
                            .unwrap_or(3_600),
                        _ => 0, // never cache garbage
                    }
                });
                if edge.stats().origin_fetches > before {
                    contacted.insert(target.url.clone());
                }
                let _ = result;
                world
                    .telemetry_mut()
                    .incr(catalog::SCAN_CDN_LOOKUPS, edge_region.label());
                lookups += 1;
            }
        }

        let stats = edges[0].stats();
        let stats1 = edges[1].stats();
        let cache_hits = stats.cache_hits + stats1.cache_hits;
        let origin = stats.origin_fetches + stats1.origin_fetches;
        let origin_ok = stats.origin_successes + stats1.origin_successes;
        CdnSummary {
            lookups,
            distinct_responders: contacted.len(),
            cache_hit_ratio: cache_hits as f64 / lookups.max(1) as f64,
            origin_success_ratio: if origin == 0 {
                1.0
            } else {
                origin_ok as f64 / origin as f64
            },
            origin_fetches: origin,
            telemetry: world.take_telemetry(),
            trace: Span::leaf(
                "chunk 0",
                ((start - eco.config.campaign_start).max(0) / 3_600) as u64,
                ((start - eco.config.campaign_start).max(0) / 3_600 + hours.max(0)) as u64,
                lookups,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;

    #[test]
    fn cache_absorbs_most_lookups_and_origins_mostly_succeed() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let start = eco.config.campaign_start + 86_400;
        let summary = CdnStudy::run(&eco, start, 60, 50);

        assert_eq!(summary.lookups, 60 * 50);
        // "most responses are served from cache".
        assert!(
            summary.cache_hit_ratio > 0.5,
            "hit ratio {}",
            summary.cache_hit_ratio
        );
        // Origin contacts are far rarer than lookups.
        assert!(summary.origin_fetches < summary.lookups / 2);
        // The CDN talks to a small set of responders.
        assert!(summary.distinct_responders <= eco.responders.len());
        // Origin success is high (the paper saw 100 %; our world has
        // scripted outages, so allow a small margin).
        assert!(
            summary.origin_success_ratio > 0.9,
            "{}",
            summary.origin_success_ratio
        );
    }

    #[test]
    fn single_hour_traffic_reaches_both_edges() {
        // Regression: edge selection used to be `edges[(hour % 2)]`,
        // pinning every request inside an hour to one location — a
        // single-hour replay would leave the other edge completely
        // idle. Requests are now routed per-lookup.
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let start = eco.config.campaign_start + 86_400;
        let summary = CdnStudy::run(&eco, start, 1, 200);

        let virginia = summary
            .telemetry
            .counter("scan.cdn.lookups", Region::Virginia.label());
        let paris = summary
            .telemetry
            .counter("scan.cdn.lookups", Region::Paris.label());
        assert!(virginia > 0, "Virginia edge saw no traffic");
        assert!(paris > 0, "Paris edge saw no traffic");
        assert_eq!(virginia + paris, summary.lookups);
        // The world-side edge counters rode along with the merge.
        let hits: u64 = [Region::Virginia, Region::Paris]
            .iter()
            .map(|r| summary.telemetry.counter("cdn.edge.hit", r.label()))
            .sum();
        let misses: u64 = [Region::Virginia, Region::Paris]
            .iter()
            .map(|r| summary.telemetry.counter("cdn.edge.miss", r.label()))
            .sum();
        assert_eq!(hits + misses, summary.lookups);
    }
}
