//! Figure and table regeneration.
//!
//! One function per table/figure in the paper's evaluation. Each returns
//! an [`Artifact`]: a name, a prose summary comparing paper and measured
//! values, and a [`Table`] that renders to aligned text or CSV. The
//! `figures` binary drives these; EXPERIMENTS.md quotes their output.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ablations;
pub mod ensemble;

use analysis::table::{pct, secs};
use analysis::{Cdf, Table};
use ecosystem::{monthly_snapshots, EcosystemConfig, LiveEcosystem};
use scanner::executor::Executor;
use scanner::hourly::HourlyCampaign;
use scanner::ErrorClass;

use mustaple::StudyResults;
use telemetry::catalog;

/// A regenerated figure or table.
pub struct Artifact {
    /// Identifier, e.g. `fig3` or `table1`.
    pub name: &'static str,
    /// What the paper reported and what we measured.
    pub summary: String,
    /// The data.
    pub table: Table,
}

/// All artifact names, in paper order.
pub const ALL_ARTIFACTS: [&str; 17] = [
    "sec4", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "fig10",
    "reasons", "table2", "fig11", "fig12", "table3", "cdn",
];

/// Build one artifact by name (plus "freshness" as a bonus §5.4 table).
pub fn build(name: &str, results: &StudyResults) -> Option<Artifact> {
    Some(match name {
        "sec4" => sec4(results),
        "fig2" => fig2(results),
        "fig3" => fig3(results),
        "fig4" => fig4(results),
        "fig5" => fig5(results),
        "fig6" => cdf_figure("fig6", "CDF of average certificates per OCSP response (paper: 14.5% of responders send more than one; max 4 full chains)", &results.hourly.cdf_cert_counts()),
        "fig7" => cdf_figure("fig7", "CDF of average serial numbers per OCSP response (paper: 96.2% send one; 3.3% always send 20)", &results.hourly.cdf_serial_counts()),
        "fig8" => fig8(results),
        "fig9" => cdf_figure("fig9", "CDF of thisUpdate margin at receipt (paper: 17.2% zero margin, 3% future-dated)", &results.hourly.cdf_margins()),
        "table1" => table1(results),
        "fig10" => fig10(results),
        "reasons" => reasons(results),
        "table2" => table2(results),
        "fig11" => fig11(results),
        "fig12" => fig12(),
        "table3" => table3(results),
        "cdn" => cdn(results),
        "freshness" => freshness(results),
        "recommendations" => recommendations(results),
        _ => return None,
    })
}

fn sec4(results: &StudyResults) -> Artifact {
    let stats = &results.corpus;
    let mut table = Table::new(&["metric", "paper", "measured"]);
    table.row(&[
        "certificates supporting OCSP".into(),
        "95.4%".into(),
        pct(stats.ocsp_fraction()),
    ]);
    table.row(&[
        "certificates with Must-Staple".into(),
        "0.02%".into(),
        format!("{:.3}%", stats.must_staple_fraction() * 100.0),
    ]);
    table.row(&[
        "Must-Staple share issued by Let's Encrypt".into(),
        "97.3%".into(),
        pct(stats.lets_encrypt_must_staple_share()),
    ]);
    for (issuer, count) in results.must_staple_by_ca.iter().take(6) {
        table.row(&[
            format!("Must-Staple issuer: {issuer}"),
            "-".into(),
            count.to_string(),
        ]);
    }
    Artifact {
        name: "sec4",
        summary: format!(
            "§4 deployment status — OCSP near-universal ({}), Must-Staple minuscule ({:.3}%), \
             dominated by Let's Encrypt ({}).",
            pct(stats.ocsp_fraction()),
            stats.must_staple_fraction() * 100.0,
            pct(stats.lets_encrypt_must_staple_share()),
        ),
        table,
    }
}

fn fig2(results: &StudyResults) -> Artifact {
    // The rank folds arrive pre-accumulated from the study (batch and
    // streaming runs fold identically — DESIGN.md §13).
    let https_bins = results.alexa.https();
    let ocsp_bins = results.alexa.ocsp_of_https();
    let mut table = Table::new(&["rank_bin", "https_pct", "ocsp_pct_of_https"]);
    for ((rank, https), (_, ocsp)) in https_bins
        .percentages()
        .into_iter()
        .zip(ocsp_bins.percentages())
    {
        table.row(&[
            rank.to_string(),
            format!("{https:.1}"),
            format!("{ocsp:.1}"),
        ]);
    }
    Artifact {
        name: "fig2",
        summary: format!(
            "Figure 2 — HTTPS ~75% across ranks (measured avg {:.1}%), OCSP among HTTPS high \
             (paper avg 91.3%, measured {:.1}%), both declining gently with rank \
             (gradients {:+.1} / {:+.1} points).",
            https_bins.overall_percentage(),
            ocsp_bins.overall_percentage(),
            https_bins.popularity_gradient(),
            ocsp_bins.popularity_gradient(),
        ),
        table,
    }
}

fn fig3(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&[
        "time",
        "Oregon",
        "Virginia",
        "Sao-Paulo",
        "Paris",
        "Sydney",
        "Seoul",
    ]);
    let series: Vec<Vec<(asn1::Time, f64)>> = results
        .hourly
        .per_region_success
        .iter()
        .map(|(_, ts)| ts.fractions())
        .collect();
    if let Some(first) = series.first() {
        for (i, (t, _)) in first.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for region_series in &series {
                row.push(format!("{:.2}", region_series[i].1 * 100.0));
            }
            table.row(&row);
        }
    }
    let failure = results.hourly.overall_failure_rate();
    Artifact {
        name: "fig3",
        summary: format!(
            "Figure 3 — per-region success fraction over the campaign. Paper: 1.7% average \
             failure, worst from São Paulo; measured {:.1}% average, São Paulo {:.1}% vs \
             Virginia {:.1}%. {} responders never reachable anywhere; {} partially dead.",
            failure * 100.0,
            results.hourly.region_failure_rate(netsim::Region::SaoPaulo) * 100.0,
            results.hourly.region_failure_rate(netsim::Region::Virginia) * 100.0,
            results.hourly.responders_never_reachable(),
            results.hourly.responders_partially_dead(),
        ),
        table,
    }
}

fn fig4(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&[
        "time",
        "Oregon",
        "Virginia",
        "Sao-Paulo",
        "Paris",
        "Sydney",
        "Seoul",
    ]);
    let series: Vec<&[(asn1::Time, u64)]> = netsim::Region::VANTAGE_POINTS
        .iter()
        .map(|&r| results.alexa1m.region_series(r))
        .collect();
    if let Some(first) = series.first() {
        for (i, (t, _)) in first.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for region_series in &series {
                row.push(region_series[i].1.to_string());
            }
            table.row(&row);
        }
    }
    let (region, t, peak) = results.alexa1m.global_peak();
    Artifact {
        name: "fig4",
        summary: format!(
            "Figure 4 — Alexa domains unable to fetch OCSP. Paper: 163k domains dark during \
             the Comodo episode (Oregon/Sydney/Seoul), 318 persistently dark from São Paulo. \
             Measured peak: {peak} of {} domains from {region} at {t}; {} persistently dark \
             from São Paulo.",
            results.alexa1m.total_domains, results.alexa1m.sao_paulo_persistent,
        ),
        table,
    }
}

fn fig5(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&[
        "time",
        "asn1_unparseable_pct",
        "serial_unmatch_pct",
        "signature_pct",
    ]);
    let series: Vec<Vec<(asn1::Time, f64)>> = results
        .hourly
        .class_series
        .iter()
        .map(|(_, ts)| ts.fractions())
        .collect();
    if let Some(first) = series.first() {
        for (i, (t, _)) in first.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for class_series in &series {
                row.push(format!("{:.3}", class_series[i].1 * 100.0));
            }
            table.row(&row);
        }
    }
    // Totals per class for the summary.
    let totals: Vec<(ErrorClass, u64)> = ErrorClass::ALL
        .iter()
        .map(|&c| {
            (
                c,
                results
                    .hourly
                    .responders
                    .iter()
                    .map(|r| r.unusable.get(&c).copied().unwrap_or(0))
                    .sum(),
            )
        })
        .collect();
    Artifact {
        name: "fig5",
        summary: format!(
            "Figure 5 — unusable responses by cause. Paper: malformed ASN.1 dominates \
             (responders returning '0', empty bodies, JavaScript), with episodic spikes \
             (sheca, postsignum). Measured totals: {:?}.",
            totals
                .iter()
                .map(|(c, n)| format!("{}={n}", c.label()))
                .collect::<Vec<_>>()
        ),
        table,
    }
}

fn fig8(results: &StudyResults) -> Artifact {
    let cdf = results.hourly.cdf_validity();
    let infinite = cdf.infinite_count();
    let total = cdf.len();
    let mut artifact = cdf_figure(
        "fig8",
        "CDF of validity periods (paper: median ~1 week, 9.1% blank nextUpdate plotted as ∞, 2% over a month, max 1,251 days)",
        &cdf,
    );
    artifact.summary = format!(
        "Figure 8 — validity periods. Paper: median ~1 week, 9.1% blank nextUpdate, 2% over \
         a month, max 1,251 days. Measured: median {}, blank {} of {} responders ({:.1}%), \
         max {}.",
        cdf.median().map(secs).unwrap_or_else(|| "n/a".into()),
        infinite,
        total,
        100.0 * infinite as f64 / total.max(1) as f64,
        cdf.max().map(secs).unwrap_or_else(|| "n/a".into()),
    );
    artifact
}

fn cdf_figure(name: &'static str, description: &str, cdf: &Cdf) -> Artifact {
    let mut table = Table::new(&["x", "cdf"]);
    for (x, f) in cdf.curve() {
        table.row(&[format!("{x:.2}"), format!("{f:.4}")]);
    }
    Artifact {
        name,
        summary: format!(
            "{description}. Measured: {} samples, median {:?}, max {:?}.",
            cdf.len(),
            cdf.median(),
            cdf.max(),
        ),
        table,
    }
}

fn table1(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&["ocsp_url", "crl_url", "unknown", "good", "revoked"]);
    for row in &results.consistency.table1 {
        table.row(&[
            row.ocsp_url.clone(),
            row.crl_url.clone(),
            row.unknown.to_string(),
            row.good.to_string(),
            row.revoked.to_string(),
        ]);
    }
    Artifact {
        name: "table1",
        summary: format!(
            "Table 1 — responders whose OCSP view disagrees with their CRL. Paper: 7 CRLs \
             with discrepancies (five answering Good, two Unknown-for-all). Measured: {} \
             discrepant responders, of which {} answer Good for some revoked serials and {} \
             answer Unknown for every revoked serial.",
            results.consistency.table1.len(),
            results
                .consistency
                .table1
                .iter()
                .filter(|r| r.good > 0)
                .count(),
            results
                .consistency
                .table1
                .iter()
                .filter(|r| r.unknown > 0 && r.good == 0 && r.revoked == 0)
                .count(),
        ),
        table,
    }
}

fn fig10(results: &StudyResults) -> Artifact {
    let cdf = results.consistency.time_diff_cdf();
    let mut artifact = cdf_figure("fig10", "CDF of OCSP-minus-CRL revocation times", &cdf);
    artifact.summary = format!(
        "Figure 10 — revocation-time differences. Paper: 0.15% differ, 14.7% of those \
         negative, msocsp lags 7h–9d, tail past 137M seconds. Measured: {:.2}% differ, \
         {:.1}% negative, max difference {}.",
        results.consistency.time_diff_fraction() * 100.0,
        results.consistency.negative_diff_fraction() * 100.0,
        cdf.max().map(secs).unwrap_or_else(|| "n/a".into()),
    );
    artifact
}

fn reasons(results: &StudyResults) -> Artifact {
    let c = &results.consistency;
    let mut table = Table::new(&["category", "count"]);
    table.row(&[
        "reason absent on both sides".into(),
        c.reason_absent.to_string(),
    ]);
    table.row(&[
        "reason matches on both sides".into(),
        c.reason_match.to_string(),
    ]);
    table.row(&["reason in CRL only".into(), c.reason_crl_only.to_string()]);
    table.row(&["other mismatch".into(), c.reason_other_mismatch.to_string()]);
    Artifact {
        name: "reasons",
        summary: format!(
            "§5.4 reason codes — paper: 15% of revocations differ, 99.99% of those 'CRL has \
             a code, OCSP none'. Measured: {:.1}% differ, all of the CRL-only shape.",
            c.reason_diff_fraction() * 100.0
        ),
        table,
    }
}

fn table2(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&["browser", "request_ocsp", "respect_must_staple", "own_ocsp"]);
    for row in &results.browsers {
        table.row(&[
            row.profile.label(),
            mark(row.requested_ocsp).into(),
            mark(row.respected_must_staple).into(),
            match row.sent_own_ocsp {
                None => "-".into(),
                Some(b) => mark(b).into(),
            },
        ]);
    }
    let respecting = results
        .browsers
        .iter()
        .filter(|r| r.respected_must_staple)
        .count();
    Artifact {
        name: "table2",
        summary: format!(
            "Table 2 — browser matrix. Paper: all 16 request stapled responses; only \
             Firefox desktop (3 OSes) + Firefox Android respect Must-Staple; none send \
             their own OCSP request. Measured: {respecting}/16 respect; all request; none \
             fall back.",
        ),
        table,
    }
}

fn fig11(results: &StudyResults) -> Artifact {
    let bins = results.alexa.staples_of_ocsp();
    let mut table = Table::new(&["rank_bin", "stapling_pct_of_ocsp"]);
    for (rank, staple) in bins.percentages() {
        table.row(&[rank.to_string(), format!("{staple:.1}")]);
    }
    Artifact {
        name: "fig11",
        summary: format!(
            "Figure 11 — OCSP Stapling adoption vs rank. Paper: ~35% overall, higher for \
             popular domains. Measured: {:.1}% overall, gradient {:+.1} points toward the top.",
            bins.overall_percentage(),
            bins.popularity_gradient(),
        ),
        table,
    }
}

fn fig12() -> Artifact {
    let snaps = monthly_snapshots();
    let mut table = Table::new(&["month", "ocsp_pct", "stapling_pct", "cloudflare_domains"]);
    for s in &snaps {
        let c = s.time.civil();
        table.row(&[
            format!("{:04}-{:02}", c.year, c.month),
            format!("{:.1}", s.ocsp_fraction * 100.0),
            format!("{:.1}", s.stapling_fraction * 100.0),
            s.cloudflare_stapling_domains.to_string(),
        ]);
    }
    Artifact {
        name: "fig12",
        summary: "Figure 12 — OCSP & Stapling adoption May 2016 → Sep 2018, both growing \
                  steadily, with the June 2017 Cloudflare cruise-liner step (11,675 → 78,907 \
                  stapled domains)."
            .to_string(),
        table,
    }
}

fn table3(results: &StudyResults) -> Artifact {
    let mut table = Table::new(&["experiment", "Apache", "Nginx", "Ideal (recommended)"]);
    let get = |kind| {
        results
            .table3
            .iter()
            .find(move |r| r.server == kind)
            .expect("all three servers run")
    };
    let (a, n, i) = (
        get(webserver::ServerKind::Apache),
        get(webserver::ServerKind::Nginx),
        get(webserver::ServerKind::Ideal),
    );
    table.row(&[
        "Prefetch OCSP response".into(),
        a.prefetch.cell().into(),
        n.prefetch.cell().into(),
        i.prefetch.cell().into(),
    ]);
    table.row(&[
        "Cache OCSP response".into(),
        mark(a.caches).into(),
        mark(n.caches).into(),
        mark(i.caches).into(),
    ]);
    table.row(&[
        "Respect nextUpdate in cache".into(),
        mark(a.respects_next_update).into(),
        mark(n.respects_next_update).into(),
        mark(i.respects_next_update).into(),
    ]);
    table.row(&[
        "Retain OCSP response on error".into(),
        mark(a.retains_on_error).into(),
        mark(n.retains_on_error).into(),
        mark(i.retains_on_error).into(),
    ]);
    Artifact {
        name: "table3",
        summary: "Table 3 — web-server stapling correctness. Paper: Apache pauses the first \
                  connection, ignores nextUpdate, and drops valid responses on error; Nginx \
                  leaves the first client unstapled but respects nextUpdate and retains on \
                  error. Measured: identical, plus the §8 recommended model passing all four."
            .to_string(),
        table,
    }
}

fn cdn(results: &StudyResults) -> Artifact {
    let c = &results.cdn;
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["lookups replayed".into(), c.lookups.to_string()]);
    table.row(&[
        "distinct responders contacted".into(),
        c.distinct_responders.to_string(),
    ]);
    table.row(&["cache hit ratio".into(), pct(c.cache_hit_ratio)]);
    table.row(&["origin fetches".into(), c.origin_fetches.to_string()]);
    table.row(&["origin success ratio".into(), pct(c.origin_success_ratio)]);
    Artifact {
        name: "cdn",
        summary: format!(
            "§5.2 CDN perspective — paper: ~20 distinct responders contacted, most lookups \
             cached, 100% origin success. Measured: {} responders, {} cached, {} origin \
             success.",
            c.distinct_responders,
            pct(c.cache_hit_ratio),
            pct(c.origin_success_ratio),
        ),
        table,
    }
}

fn freshness(results: &StudyResults) -> Artifact {
    let f = results.hourly.freshness();
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["on-demand responders".into(), f.on_demand.to_string()]);
    table.row(&[
        "pre-generated responders".into(),
        f.pre_generated.to_string(),
    ]);
    table.row(&[
        "non-overlapping windows".into(),
        f.non_overlapping.len().to_string(),
    ]);
    table.row(&[
        "producedAt regressions (multi-instance)".into(),
        f.produced_at_regressions.len().to_string(),
    ]);
    for url in &f.non_overlapping {
        table.row(&["non-overlapping responder".into(), url.clone()]);
    }
    Artifact {
        name: "freshness",
        summary: format!(
            "§5.4 freshness — paper: 51.7% of responders pre-generate; 7 have validity equal \
             to their refresh period (hinet 7200s, cnnic 10800s); some regress producedAt \
             across instances. Measured: {} pre-generated vs {} on-demand, {} non-overlapping, \
             {} with producedAt regressions.",
            f.pre_generated,
            f.on_demand,
            f.non_overlapping.len(),
            f.produced_at_regressions.len(),
        ),
        table,
    }
}

/// The §8 recommendation 2 quantified: outage durations vs validity
/// periods. If most outages are much shorter than most validity windows,
/// a prefetching server survives them with a cached staple.
fn recommendations(results: &StudyResults) -> Artifact {
    let outages = results
        .hourly
        .cdf_outage_durations(results.config.scan_interval);
    let validity = results.hourly.cdf_validity();
    let mut table = Table::new(&["percentile", "outage_duration", "validity_period"]);
    for q in [0.5, 0.75, 0.9, 0.99] {
        table.row(&[
            format!("p{:.0}", q * 100.0),
            outages
                .quantile(q)
                .map(secs)
                .unwrap_or_else(|| "n/a".into()),
            validity
                .quantile(q)
                .map(secs)
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    let median_outage = outages.median().unwrap_or(0.0);
    let median_validity = validity.median().unwrap_or(0.0);
    Artifact {
        name: "recommendations",
        summary: format!(
            "§8 recommendation 2 — 'most failures persist far shorter than most OCSP \
             responses' validity periods': median observed outage {} vs median validity {} \
             ({}x headroom); a prefetching server rides out virtually every outage with a \
             cached staple.",
            secs(median_outage),
            secs(median_validity),
            if median_outage > 0.0 {
                (median_validity / median_outage) as i64
            } else {
                0
            },
        ),
        table,
    }
}

/// The human-oriented report printed by `figures --telemetry`:
/// log2-interpolated histogram quantiles, the simulated-clock span
/// tree, and the wall-clock report. Everything above the wall section
/// is deterministic; the wall section is informational only and is
/// excluded from every on-disk artifact.
pub fn telemetry_report(results: &StudyResults) -> String {
    let reg = &results.telemetry;
    let mut out = String::new();
    out.push_str("-- histogram quantiles (log2-interpolated) --\n");
    let mut table = Table::new(&["metric", "label", "p50", "p90", "p99"]);
    let mut any = false;
    for (metric, label, h) in reg.histograms() {
        any = true;
        let q = |q: f64| {
            h.quantile(q)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "n/a".into())
        };
        table.row(&[metric.into(), label.into(), q(0.5), q(0.9), q(0.99)]);
    }
    if any {
        out.push_str(&table.render());
    } else {
        out.push_str("(no histogram series recorded)\n");
    }
    out.push_str("\n-- span tree (simulated hours) --\n");
    out.push_str(&results.trace.render_ascii(1));
    out.push_str("\n-- wall timings (informational, excluded from artifacts) --\n");
    out.push_str(&reg.wall_report());
    out
}

/// The `bench-scan` artifact: serial vs parallel wall clock and peak
/// allocation for the hourly campaign over one figures-scale ecosystem
/// — the parallel speedup and the figures-scale memory, which the
/// per-probe benchmark (`perfbench`) does not report. Both legs replay
/// the identical request count, so the rows are directly comparable,
/// and the artifact doubles as a determinism probe at full scale (both
/// campaign runs must agree on requests and responder reports).
pub fn bench_scan(config: &EcosystemConfig) -> Artifact {
    let eco = LiveEcosystem::generate(config.clone());

    let serial_exec = Executor::serial();
    // The parallel leg honors `config.parallelism` when set (and >1);
    // otherwise it uses every available core, with a floor of 4 workers
    // so the sharded path is always what gets measured (on a single-core
    // host the honest speedup is then ~1x).
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let parallel_exec = match config.parallelism {
        Some(n) if n.get() > 1 => Executor::new(Some(n)),
        _ => Executor::new(std::num::NonZeroUsize::new(available.max(4))),
    };
    // Serial first: it is the speedup baseline.
    let [baseline, parallel] =
        [("serial", &serial_exec), ("parallel", &parallel_exec)].map(|(mode, executor)| {
            let mem_before = mem_leg_start();
            #[expect(clippy::disallowed_methods, reason = "bench-scan reports wall time")]
            let started = std::time::Instant::now();
            let dataset = HourlyCampaign::new(&eco).run_with(executor);
            let wall = started.elapsed();
            let memory = mem_leg_end(mem_before);
            CampaignLeg::new(mode, executor.workers(), wall, dataset, memory)
        });
    assert_eq!(
        baseline.requests, parallel.requests,
        "parallel run diverged"
    );
    assert_eq!(
        baseline.responders, parallel.responders,
        "parallel run diverged from serial"
    );

    let req_per_sec =
        |requests: u64, wall: std::time::Duration| requests as f64 / wall.as_secs_f64().max(1e-9);
    let mut table = Table::new(&[
        "mode",
        "workers",
        "wall_ms",
        "requests",
        "req_per_sec",
        "cache_hit_rate",
        "speedup",
        "peak_alloc_bytes",
        "alloc_count",
    ]);
    let serial_wall = baseline.wall;
    for leg in [&baseline, &parallel] {
        let speedup = serial_wall.as_secs_f64() / leg.wall.as_secs_f64().max(1e-9);
        table.row(&[
            leg.mode.into(),
            leg.workers.to_string(),
            format!("{:.1}", leg.wall.as_secs_f64() * 1e3),
            leg.requests.to_string(),
            format!("{:.0}", req_per_sec(leg.requests, leg.wall)),
            format!("{:.4}", leg.cache_hit_rate()),
            format!("{speedup:.2}"),
            leg.peak.clone(),
            leg.allocs.clone(),
        ]);
    }
    let speedup = serial_wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    Artifact {
        name: "bench-scan",
        summary: format!(
            "Hourly-scan wall clock, serial vs sharded: {:.1?} serial vs {:.1?} on {} \
             workers ({speedup:.2}x; available_parallelism {available}), for {} probes at \
             {:.0} req/s serial, responder-cache hit rate {:.1}% — both campaign outputs \
             verified identical. Peak-allocation columns are real only under \
             `--features mem-profile` (else n/a).",
            serial_wall,
            parallel.wall,
            parallel.workers,
            baseline.requests,
            req_per_sec(baseline.requests, serial_wall),
            baseline.cache_hit_rate() * 100.0,
        ),
        table,
    }
}

/// What `bench_scan` keeps of a finished campaign leg: the table's cells
/// and what the identity check compares. The leg's `HourlyDataset` is
/// dropped when this is made, so it cannot count toward a later leg's
/// peak allocation.
struct CampaignLeg {
    mode: &'static str,
    workers: usize,
    wall: std::time::Duration,
    requests: u64,
    responders: Vec<scanner::hourly::ResponderReport>,
    /// `ocsp.responder.cache{hit}` and `{miss}`.
    cache_hits: u64,
    cache_misses: u64,
    /// The leg's `peak_alloc_bytes` and `alloc_count` cells.
    peak: String,
    allocs: String,
}

impl CampaignLeg {
    fn new(
        mode: &'static str,
        workers: usize,
        wall: std::time::Duration,
        dataset: scanner::hourly::HourlyDataset,
        (peak, allocs): (String, String),
    ) -> CampaignLeg {
        let counter = |label| {
            dataset
                .telemetry
                .counter(catalog::OCSP_RESPONDER_CACHE, label)
        };
        CampaignLeg {
            mode,
            workers,
            wall,
            requests: dataset.requests,
            cache_hits: counter("hit"),
            cache_misses: counter("miss"),
            responders: dataset.responders,
            peak,
            allocs,
        }
    }

    /// Request-path cache effectiveness: `window_sign` events stand in
    /// for the scheduled signing real pre-generating responders do off
    /// the request path, so the hit rate is hit / (hit + miss).
    fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Start a `bench_scan` leg's memory window: reset the allocator's high
/// watermark and remember the allocation count. Returns 0 when the
/// `mem-profile` feature is off.
#[cfg(feature = "mem-profile")]
fn mem_leg_start() -> u64 {
    memprof::reset_peak();
    memprof::stats().alloc_count
}

#[cfg(not(feature = "mem-profile"))]
fn mem_leg_start() -> u64 {
    0
}

/// Close a leg's memory window: `(peak_alloc_bytes, alloc_count)` cells.
/// Honest `n/a` when the feature is off — and also when the counting
/// allocator is not actually installed (the counters never moved), so a
/// `mem-profile` library build inside an uninstrumented binary cannot
/// report a fake zero.
#[cfg(feature = "mem-profile")]
fn mem_leg_end(before: u64) -> (String, String) {
    let stats = memprof::stats();
    if stats.alloc_count == 0 {
        return ("n/a".into(), "n/a".into());
    }
    (
        stats.peak_bytes.to_string(),
        (stats.alloc_count - before).to_string(),
    )
}

#[cfg(not(feature = "mem-profile"))]
fn mem_leg_end(_before: u64) -> (String, String) {
    ("n/a".into(), "n/a".into())
}

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;
    use mustaple::Study;

    #[test]
    fn every_artifact_builds_at_tiny_scale() {
        let results = Study::new(EcosystemConfig::tiny()).run();
        for name in ALL_ARTIFACTS
            .iter()
            .chain(["freshness", "recommendations"].iter())
        {
            let artifact = build(name, &results).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(&artifact.name, name);
            assert!(!artifact.summary.is_empty(), "{name} summary");
            let rendered = artifact.table.render();
            assert!(rendered.lines().count() >= 2, "{name} table\n{rendered}");
            let csv = artifact.table.to_csv();
            assert!(csv.contains(','), "{name} csv");
        }
        assert!(build("nope", &results).is_none());
    }
}
