//! The end-to-end study driver.

use crate::readiness::ReadinessReport;
use analysis::AlexaAdoption;
use browser::testsuite::{run_browser_suite, SuiteRow};
use ecosystem::{AlexaStream, CorpusStats, CorpusStream, EcosystemConfig, LiveEcosystem};
use netsim::Region;
use pki::RootStore;
use scanner::alexa1m::{Alexa1mScan, Alexa1mSummary};
use scanner::cdnlog::{CdnStudy, CdnSummary};
use scanner::consistency::{ConsistencyStudy, ConsistencySummary};
use scanner::executor::Executor;
use scanner::hourly::{HourlyCampaign, HourlyDataset};
use webserver::experiment::{run_table3_experiments, Table3Row, TestBench};
use webserver::{Apache, Ideal, Nginx};

/// The configured study, ready to run.
pub struct Study {
    config: EcosystemConfig,
}

/// Everything the paper's evaluation section reports, in one place.
pub struct StudyResults {
    /// The generation configuration used.
    pub config: EcosystemConfig,
    /// §4: corpus statistics (OCSP support, Must-Staple share, CA
    /// breakdown).
    pub corpus: CorpusStats,
    /// §4: the per-CA Must-Staple breakdown.
    pub must_staple_by_ca: Vec<(String, usize)>,
    /// §4 / Figures 2 & 11: the Alexa rank-adoption summary, folded
    /// site by site off the feed (DESIGN.md §13).
    pub alexa: AlexaAdoption,
    /// §5: the Hourly campaign aggregation (Figures 3, 5–9, freshness).
    /// Its event log is moved into [`StudyResults::events`] and left
    /// empty here.
    pub hourly: HourlyDataset,
    /// §5.2 / Figure 4: the Alexa-impact summary.
    pub alexa1m: Alexa1mSummary,
    /// §5.4 / Table 1 / Figure 10: the consistency study. Its event
    /// log, too, is moved into [`StudyResults::events`].
    pub consistency: ConsistencySummary,
    /// §5.2: the CDN-perspective study.
    pub cdn: CdnSummary,
    /// §6 / Table 2: the browser suite.
    pub browsers: Vec<SuiteRow>,
    /// §7.2 / Table 3: the web-server experiments (Apache, Nginx, Ideal).
    pub table3: Vec<Table3Row>,
    /// Telemetry from every campaign, merged in a fixed order (hourly,
    /// alexa1m, consistency, cdn, table3 rows) so the combined registry
    /// is identical for every worker count.
    pub telemetry: telemetry::Registry,
    /// Deterministic self-profile: a `campaign` root span over the four
    /// scan pipelines' span trees (the `trace.jsonl` artifact; see
    /// [`telemetry::trace`]).
    pub trace: telemetry::trace::Span,
    /// The operational event bus (the `events.jsonl` artifact): health
    /// transitions, outage open/close pairs, window rollovers, and
    /// revocation events from the hourly and consistency pipelines,
    /// merged into one canonically-sorted stream. Byte-identical for
    /// every worker count, like `trace.jsonl`.
    pub events: opsmon::EventLog,
}

impl Study {
    /// Configure a study.
    pub fn new(config: EcosystemConfig) -> Study {
        Study { config }
    }

    /// Run every campaign. At [`EcosystemConfig::tiny`] scale this takes
    /// around a second; at [`EcosystemConfig::figures`] scale, minutes.
    pub fn run(self) -> StudyResults {
        // §4: the statistical corpus and Alexa list, at the scaled
        // sizes. Scan populations below intentionally keep the *base*
        // sizes, so `scale_mult` moves only these statistical passes.
        // Bounded memory: drain the feeds, keep only the folds.
        let corpus_size = self.config.scaled_corpus_size();
        let alexa_size = self.config.scaled_alexa_size();
        let (corpus, must_staple_by_ca) = {
            let mut feed = CorpusStream::new(self.config.seed, corpus_size);
            for _ in feed.by_ref() {}
            let fold = feed.into_fold();
            (fold.stats().clone(), fold.must_staple_by_issuer())
        };
        let mut alexa = AlexaAdoption::new(alexa_size);
        for site in AlexaStream::new(self.config.seed, alexa_size) {
            alexa.record(site.rank, site.https, site.ocsp, site.staples);
        }

        // §5: the live ecosystem and its campaigns. One executor, sized
        // by `config.parallelism`, drives all of them; every worker
        // count produces bit-identical results.
        let executor = Executor::new(self.config.parallelism);
        let eco = LiveEcosystem::generate(self.config.clone());
        let mut hourly = HourlyCampaign::new(&eco).run_with(&executor);
        let alexa1m = Alexa1mScan::summarize_with(&hourly, &executor);
        let mut consistency = ConsistencyStudy::run_with(
            &eco,
            self.config.campaign_start + 6 * 86_400, // the paper: May 1st
            Region::Virginia,
            &executor,
        );
        let cdn = CdnStudy::run_with(&eco, self.config.campaign_start + 86_400, 60, 40, &executor);

        // §6: the browser suite, against a controlled bench.
        let bench = TestBench::new(self.config.seed, self.config.campaign_start);
        let mut roots = RootStore::new("suite");
        roots.add(bench.site.chain.last().expect("bench chain").clone());
        let browsers = run_browser_suite(&bench, &roots, self.config.campaign_start);

        // §7.2: the web-server experiments.
        let table3 = vec![
            run_table3_experiments(&bench, Apache::new),
            run_table3_experiments(&bench, Nginx::new),
            run_table3_experiments(&bench, Ideal::new),
        ];

        let mut telemetry = telemetry::Registry::new();
        telemetry.merge(&hourly.telemetry);
        telemetry.merge(&alexa1m.telemetry);
        telemetry.merge(&consistency.telemetry);
        telemetry.merge(&cdn.telemetry);
        for row in &table3 {
            telemetry.merge(&row.telemetry);
        }

        // The event bus: both probing pipelines feed one stream, their
        // logs moved (not copied) out of their results. The merge order
        // is irrelevant — `to_jsonl` sorts canonically.
        let mut events = std::mem::take(&mut hourly.events);
        events.merge(std::mem::take(&mut consistency.events));

        // One root over the four pipelines, in the fixed merge order.
        let trace = telemetry::trace::Span::aggregate(
            "campaign",
            vec![
                hourly.trace.clone(),
                alexa1m.trace.clone(),
                consistency.trace.clone(),
                cdn.trace.clone(),
            ],
        );

        StudyResults {
            config: self.config,
            corpus,
            must_staple_by_ca,
            alexa,
            hourly,
            alexa1m,
            consistency,
            cdn,
            browsers,
            table3,
            telemetry,
            trace,
            events,
        }
    }
}

impl StudyResults {
    /// Distill the §8 readiness verdicts.
    pub fn readiness_report(&self) -> ReadinessReport {
        ReadinessReport::from_results(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_study_runs_at_tiny_scale() {
        let results = Study::new(EcosystemConfig::tiny()).run();
        // §4 shapes.
        assert!(results.corpus.ocsp_fraction() > 0.9);
        assert!(results.corpus.must_staple_fraction() < 0.01);
        // §5 shapes.
        assert!(results.hourly.requests > 0);
        assert!(results.hourly.overall_failure_rate() < 0.2);
        assert!(results.alexa1m.total_domains > 0);
        assert!(results.consistency.responses_collected > 0);
        assert!(results.cdn.cache_hit_ratio > 0.3);
        // §6: sixteen browsers, four respecting.
        assert_eq!(results.browsers.len(), 16);
        assert_eq!(
            results
                .browsers
                .iter()
                .filter(|r| r.respected_must_staple)
                .count(),
            4
        );
        // §7.2: three server rows (Apache, Nginx, Ideal).
        assert_eq!(results.table3.len(), 3);
        // The verdict.
        let report = results.readiness_report();
        assert!(!report.web_is_ready());
        let rendered = report.render();
        assert!(rendered.contains("NOT ready"));
    }
}
