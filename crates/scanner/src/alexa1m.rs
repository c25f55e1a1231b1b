//! The Alexa1M impact analysis — Figure 4.
//!
//! The paper's Alexa1M dataset maps popular domains to their OCSP
//! responders and asks: during each hour, from each vantage point, how
//! many domains could *not* have their revocation status checked because
//! their responder was down? The headline events: 163 k domains dark
//! from Oregon/Sydney/Seoul during the Comodo episode; 77 k from Seoul
//! during the Digicert episode; 318 domains *persistently* unavailable
//! from São Paulo.
//!
//! The analysis performs no network I/O of its own: it folds a
//! completed [`HourlyDataset`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::executor::Executor;
use crate::hourly::HourlyDataset;
use asn1::Time;
use netsim::Region;
use std::time::Instant;
use telemetry::catalog;
use telemetry::trace::Span;
use telemetry::Registry;

/// Analysis wrapper over a completed campaign.
pub struct Alexa1mScan;

/// The Figure 4 summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alexa1mSummary {
    /// Per-region `(time, domains unreachable)` series.
    pub series: Vec<(Region, Vec<(Time, u64)>)>,
    /// Per-region peak `(time, domains)` — the outage-event spikes.
    pub peaks: Vec<(Region, Time, u64)>,
    /// Domains persistently unreachable from São Paulo only (paper: 318).
    pub sao_paulo_persistent: u64,
    /// Total Alexa domains covered by the mapping.
    pub total_domains: u64,
    /// Per-shard contribution counters (`scan.alexa1m.*`), merged in
    /// shard-id order.
    pub telemetry: Registry,
    /// Deterministic self-profile: one `scan.alexa1m` span over one
    /// responder span per shard; the analysis reads the whole campaign,
    /// so every span covers the full simulated hour range, with the
    /// responder's Alexa domain weight as its work units.
    pub trace: Span,
}

impl Alexa1mScan {
    /// Derive the summary from a campaign (default executor).
    pub fn summarize(dataset: &HourlyDataset) -> Alexa1mSummary {
        Alexa1mScan::summarize_with(dataset, &Executor::default())
    }

    /// Derive the summary from a campaign on a specific executor. One
    /// shard per responder; each shard's contribution to the persistent
    /// count is a pure function of its responder's report, and the merge
    /// is a plain sum — identical for every worker count.
    pub fn summarize_with(dataset: &HourlyDataset, executor: &Executor) -> Alexa1mSummary {
        let series: Vec<(Region, Vec<(Time, u64)>)> = dataset
            .alexa_unreachable
            .iter()
            .map(|(region, ts)| (*region, ts.counts()))
            .collect();

        let peaks = series
            .iter()
            .map(|(region, counts)| {
                let (t, n) = counts
                    .iter()
                    .max_by_key(|(_, n)| *n)
                    .copied()
                    .unwrap_or((Time::UNIX_EPOCH, 0));
                (*region, t, n)
            })
            .collect();

        // Persistently dark from São Paulo but fine elsewhere.
        #[expect(clippy::expect_used, reason = "São Paulo is a vantage point")]
        let sp = Region::VANTAGE_POINTS
            .iter()
            .position(|&r| r == Region::SaoPaulo)
            .expect("São Paulo is a vantage point");
        // One chunk per responder: the per-shard work is a handful of
        // arithmetic ops, so the chunked API is used in its degenerate
        // (RNG-compatible) form purely for executor uniformity.
        let chunk_counts = vec![1usize; dataset.responders.len()];
        let (campaign_start_hour, campaign_end_hour) =
            (dataset.trace.start_hour, dataset.trace.end_hour);
        let (contributions, shard_spans) = executor.run_chunked_traced(
            0,
            &chunk_counts,
            |shard| dataset.responders[shard].url.clone(),
            |shard, _chunk, _rng| {
                let report = &dataset.responders[shard];
                // "Persistent" as the paper used it: dark from São Paulo for
                // essentially the whole campaign while reachable elsewhere.
                // (The digitalcertvalidation responders were fixed on Aug 31
                // — footnote 11 — so a strict never-succeeded test would
                // undercount them.)
                let attempts = report.attempts[sp].max(1);
                let dead_fraction = 1.0 - report.successes[sp] as f64 / attempts as f64;
                let alive_elsewhere = (0..6).any(|i| i != sp && report.successes[i] > 0);
                let mut shard_telemetry = Registry::new();
                shard_telemetry.incr(catalog::SCAN_ALEXA1M_RESPONDERS_EVALUATED, &report.url);
                let contribution = if dead_fraction >= 0.9 && alive_elsewhere {
                    let weight = dataset.alexa_weights[shard] as u64;
                    shard_telemetry.add(
                        catalog::SCAN_ALEXA1M_PERSISTENT_DOMAINS,
                        &report.url,
                        weight,
                    );
                    weight
                } else {
                    0
                };
                // The analysis reads the whole campaign for this responder;
                // its weight (domains depending on it) is the work covered.
                let span = Span::leaf(
                    "chunk 0",
                    campaign_start_hour,
                    campaign_end_hour,
                    dataset.alexa_weights[shard] as u64,
                );
                ((contribution, shard_telemetry), span)
            },
        );

        let mut telemetry = Registry::new();
        #[expect(clippy::disallowed_methods, reason = "a wall span, not an artifact")]
        let merge_started = Instant::now();
        let mut sao_paulo_persistent = 0u64;
        for (contribution, shard_telemetry) in contributions.iter().flatten() {
            sao_paulo_persistent += contribution;
            telemetry.merge(shard_telemetry);
        }
        telemetry.record_wall(
            catalog::SCAN_ALEXA1M_MERGE,
            merge_started.elapsed().as_nanos(),
        );

        let total_domains = dataset.alexa_weights.iter().map(|&w| w as u64).sum();
        Alexa1mSummary {
            series,
            peaks,
            sao_paulo_persistent,
            total_domains,
            telemetry,
            trace: Span::aggregate("scan.alexa1m", shard_spans),
        }
    }
}

impl Alexa1mSummary {
    /// The single largest event across all regions.
    #[expect(clippy::expect_used, reason = "one peak per vantage point")]
    pub fn global_peak(&self) -> (Region, Time, u64) {
        *self
            .peaks
            .iter()
            .max_by_key(|(_, _, n)| *n)
            .expect("six regions")
    }

    /// The series for one region.
    #[expect(clippy::expect_used, reason = "one series per vantage point")]
    pub fn region_series(&self, region: Region) -> &[(Time, u64)] {
        &self
            .series
            .iter()
            .find(|(r, _)| *r == region)
            .expect("vantage point")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hourly::HourlyCampaign;
    use ecosystem::{EcosystemConfig, LiveEcosystem};

    #[test]
    fn comodo_episode_dominates_affected_regions() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let dataset = HourlyCampaign::new(&eco).run();
        let summary = Alexa1mScan::summarize(&dataset);

        assert!(summary.total_domains > 0);
        assert_eq!(summary.series.len(), 6);

        // The Comodo outage (Apr 25, Oregon/Sydney/Seoul) is the largest
        // single event: those regions' peaks dwarf Virginia's and fall on
        // April 25.
        let (region, t, peak) = summary.global_peak();
        assert!(
            matches!(region, Region::Oregon | Region::Sydney | Region::Seoul),
            "peak region {region}"
        );
        assert!(peak > 0);
        let civil = t.civil();
        assert_eq!(
            (civil.year, civil.month, civil.day),
            (2018, 4, 25),
            "peak at {t}"
        );

        // And Comodo's market share makes the peak a big share of all
        // domains.
        assert!(peak as f64 / summary.total_domains as f64 > 0.1);
    }

    #[test]
    fn parallel_summary_equals_serial_summary_exactly() {
        let eco = LiveEcosystem::generate(EcosystemConfig::tiny());
        let dataset = HourlyCampaign::new(&eco).run();
        let serial = Alexa1mScan::summarize_with(&dataset, &Executor::serial());
        assert_eq!(
            serial
                .telemetry
                .counter_total("scan.alexa1m.responders_evaluated"),
            dataset.responders.len() as u64
        );
        assert_eq!(
            serial
                .telemetry
                .counter_total("scan.alexa1m.persistent_domains"),
            serial.sao_paulo_persistent
        );
        for workers in [2usize, 5] {
            let executor = Executor::new(std::num::NonZeroUsize::new(workers));
            let parallel = Alexa1mScan::summarize_with(&dataset, &executor);
            assert_eq!(serial, parallel, "workers={workers}");
            assert_eq!(
                serial.telemetry.to_prometheus(),
                parallel.telemetry.to_prometheus(),
                "workers={workers}"
            );
        }
    }
}
