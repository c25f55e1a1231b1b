//! Shape checks against the paper's headline numbers, at a mid scale
//! large enough for the calibrated marginals to show through.
//!
//! These assert *shapes* (who wins, rough magnitudes, where crossovers
//! fall), not exact values — the corpus is scaled ~1:1000 and the clock
//! is simulated.

use mustaple::ecosystem::{CorpusStream, EcosystemConfig, LiveEcosystem};
use mustaple::netsim::Region;
use mustaple::scanner::consistency::ConsistencyStudy;
use mustaple::scanner::hourly::HourlyCampaign;
use mustaple::Study;

fn mid_config() -> EcosystemConfig {
    let mut config = EcosystemConfig::tiny();
    config.responders = 92; // all named operators present, plus fillers
    config.certs_per_responder = 2;
    config.revoked_pool = 600;
    config
}

#[test]
fn sec4_shapes_hold_at_scale() {
    let mut corpus = CorpusStream::new(99, 300_000);
    for _ in corpus.by_ref() {}
    let fold = corpus.into_fold();
    let stats = fold.stats();
    // 95.4% OCSP.
    assert!(
        (stats.ocsp_fraction() - 0.954).abs() < 0.01,
        "{}",
        stats.ocsp_fraction()
    );
    // Must-Staple well under 0.1%.
    assert!(stats.must_staple_fraction() < 0.001);
    assert!(stats.must_staple > 0, "but not zero at 300k certs");
    // Let's Encrypt dominates Must-Staple issuance.
    assert!(stats.lets_encrypt_must_staple_share() > 0.85);
    // Multi-responder certificates are vanishingly rare but present.
    assert!(stats.multi_responder < stats.total / 1_000);
}

#[test]
fn availability_shapes_hold() {
    let eco = LiveEcosystem::generate(mid_config());
    let dataset = HourlyCampaign::new(&eco).run();

    // Small overall failure rate, São Paulo worse than Virginia (the
    // paper: 5.7% vs 2.2% — ours differs in level but must match order).
    let overall = dataset.overall_failure_rate();
    assert!(overall > 0.001 && overall < 0.15, "overall {overall}");
    let sp = dataset.region_failure_rate(Region::SaoPaulo);
    let va = dataset.region_failure_rate(Region::Virginia);
    assert!(sp > va, "São Paulo {sp} must exceed Virginia {va}");

    // The two IdenTrust-style responders never answer anywhere.
    assert_eq!(dataset.responders_never_reachable(), 2);
    // Some responders are dead from a strict subset of vantage points.
    assert!(dataset.responders_partially_dead() >= 1);

    // A sizable minority of responders had at least one outage.
    let transient = dataset.transient_outage_fraction();
    assert!((0.15..0.75).contains(&transient), "transient {transient}");
}

#[test]
fn quality_shapes_hold() {
    let eco = LiveEcosystem::generate(mid_config());
    let dataset = HourlyCampaign::new(&eco).run();

    // Figure 6: most responders send one certificate; a tail sends more,
    // with the cpc.gov.ae-style responder at 4+.
    let mut certs = dataset.cdf_cert_counts();
    assert!(
        certs.fraction_at_most(0.51) > 0.6,
        "most responders send <= ~0 extra certs"
    );
    assert!(certs.max().unwrap() >= 4.0, "the 4-chain responder exists");

    // Figure 7: overwhelmingly one serial, with a 20-serial tail.
    let mut serials = dataset.cdf_serial_counts();
    assert!(serials.fraction_at_most(1.01) > 0.85);
    assert!(serials.max().unwrap() >= 19.0);

    // Figure 8: validity median in the days; some blank (infinite) mass;
    // a >1-month tail.
    let mut validity = dataset.cdf_validity();
    let median = validity.median().unwrap();
    assert!(
        (86_400.0..15.0 * 86_400.0).contains(&median),
        "median validity {median}"
    );
    assert!(validity.infinite_count() > 0, "blank nextUpdate mass");

    // Figure 9: a nonzero share of responders at (or below) zero margin.
    let zero = dataset.zero_margin_fraction();
    assert!((0.05..0.5).contains(&zero), "zero-margin share {zero}");

    // §5.4 freshness: both generation modes, and at least one
    // non-overlapping responder (hinet/cnnic).
    let freshness = dataset.freshness();
    assert!(freshness.on_demand > 0);
    assert!(freshness.pre_generated > 0);
    assert!(
        !freshness.non_overlapping.is_empty(),
        "hinet/cnnic-style responders must be flagged"
    );
    assert!(
        freshness
            .non_overlapping
            .iter()
            .any(|url| url.contains("hinet") || url.contains("cnnic")),
        "{:?}",
        freshness.non_overlapping
    );
    // Footnote 17: the CNNIC multi-instance skew shows up as producedAt
    // regressions.
    assert!(
        freshness
            .produced_at_regressions
            .iter()
            .any(|url| url.contains("cnnic")),
        "{:?}",
        freshness.produced_at_regressions
    );
}

#[test]
fn consistency_shapes_hold() {
    let eco = LiveEcosystem::generate(mid_config());
    let at = eco.config.campaign_start + 6 * 86_400;
    let summary = ConsistencyStudy::run(&eco, at, Region::Virginia);

    // Collection rate near-complete.
    assert!(summary.responses_collected as f64 / summary.requests as f64 > 0.9);

    // Table 1: a handful of discrepant responders, including both shapes.
    assert!(
        (1..=12).contains(&summary.table1.len()),
        "{} discrepant responders",
        summary.table1.len()
    );
    assert!(summary.table1.iter().any(|r| r.good > 0));
    assert!(summary
        .table1
        .iter()
        .any(|r| r.unknown > 0 && r.revoked == 0));

    // Figure 10: time differences are rare; negatives exist; msocsp-like
    // lags of >= 7h exist.
    let diff_fraction = summary.time_diff_fraction();
    assert!(diff_fraction < 0.25, "diff fraction {diff_fraction}");
    assert!(summary
        .time_diffs
        .max()
        .is_some_and(|d| d >= (7 * 3_600) as f64));

    // Reason codes: discrepancies exist and all are CRL-only.
    assert!(summary.reason_crl_only > 0);
    assert_eq!(summary.reason_other_mismatch, 0);
}

#[test]
fn full_study_conclusion_matches_the_paper() {
    let results = Study::new(mid_config()).run();
    let report = results.readiness_report();
    assert!(!report.web_is_ready(), "2018's web must not be ready");
    // Browsers: 4/16; servers: Apache+Nginx fail at least one experiment.
    assert_eq!(
        results
            .browsers
            .iter()
            .filter(|r| r.respected_must_staple)
            .count(),
        4
    );
    let apache = results
        .table3
        .iter()
        .find(|r| r.server == mustaple::webserver::ServerKind::Apache)
        .unwrap();
    assert!(!apache.respects_next_update && !apache.retains_on_error);
    let nginx = results
        .table3
        .iter()
        .find(|r| r.server == mustaple::webserver::ServerKind::Nginx)
        .unwrap();
    assert!(nginx.respects_next_update && nginx.retains_on_error);
}
