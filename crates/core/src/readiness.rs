//! The §8 concluding assessment.
//!
//! "Considering OCSP Must-Staple can operate only if each of the
//! principals in the PKI performs correctly, we conclude that,
//! currently, the web is not ready for OCSP Must-Staple."

use crate::study::StudyResults;
use webserver::experiment::PrefetchBehavior;
use webserver::ServerKind;

/// A per-principal verdict with the evidence behind it.
#[derive(Debug, Clone)]
pub struct PrincipalVerdict {
    /// The principal ("Certificate authorities", …).
    pub principal: &'static str,
    /// Whether this principal is ready today.
    pub ready: bool,
    /// One-line findings supporting the verdict.
    pub findings: Vec<String>,
}

/// The overall readiness report.
#[derive(Debug, Clone)]
pub struct ReadinessReport {
    /// One verdict per principal.
    pub verdicts: Vec<PrincipalVerdict>,
}

impl ReadinessReport {
    /// Build the report from study results.
    pub fn from_results(results: &StudyResults) -> ReadinessReport {
        let mut verdicts = Vec::new();

        // --- Certificate authorities (OCSP responders) ------------------
        let failure_rate = results.hourly.overall_failure_rate();
        let transient = results.hourly.transient_outage_fraction();
        let discrepant = results.consistency.table1.len();
        let ca_findings = vec![
            format!(
                "{:.1}% of OCSP requests fail on average",
                failure_rate * 100.0
            ),
            format!(
                "{:.1}% of responders had at least one outage during the campaign",
                transient * 100.0
            ),
            format!(
                "{} responders answer Good/Unknown for CRL-revoked certificates",
                discrepant
            ),
            format!(
                "median response validity {} — outages are survivable if servers prefetch",
                match results.hourly.cdf_validity().median() {
                    Some(v) => analysis::table::secs(v),
                    None => "unknown".to_string(),
                }
            ),
        ];
        // The paper's nuance: responders are imperfect but "would not be
        // a barrier" thanks to caching — yet the quality defects mean
        // they are not *fully* ready either.
        let ca_ready = failure_rate < 0.005 && discrepant == 0;
        verdicts.push(PrincipalVerdict {
            principal: "Certificate authorities",
            ready: ca_ready,
            findings: ca_findings,
        });

        // --- Deployment (certificate issuance) --------------------------
        let ms_fraction = results.corpus.must_staple_fraction();
        verdicts.push(PrincipalVerdict {
            principal: "Deployment",
            ready: ms_fraction > 0.05,
            findings: vec![
                format!(
                    "only {:.3}% of valid certificates carry OCSP Must-Staple",
                    ms_fraction * 100.0
                ),
                format!(
                    "{:.1}% of Must-Staple certificates come from a single CA (Let's Encrypt)",
                    results.corpus.lets_encrypt_must_staple_share() * 100.0
                ),
            ],
        });

        // --- Clients (browsers) ------------------------------------------
        let respecting = results
            .browsers
            .iter()
            .filter(|r| r.respected_must_staple)
            .count();
        let total = results.browsers.len();
        let own_ocsp = results
            .browsers
            .iter()
            .filter_map(|r| r.sent_own_ocsp)
            .filter(|&sent| sent)
            .count();
        verdicts.push(PrincipalVerdict {
            principal: "Clients (browsers)",
            ready: respecting == total,
            findings: vec![
                format!("all {total} tested browsers solicit stapled responses"),
                format!(
                    "only {respecting}/{total} hard-fail an unstapled Must-Staple certificate \
                     (Firefox on desktop and Android)"
                ),
                format!("{own_ocsp} accepting browsers fall back to their own OCSP request"),
            ],
        });

        // --- Web servers ---------------------------------------------------
        let apache = results
            .table3
            .iter()
            .find(|r| r.server == ServerKind::Apache);
        let nginx = results
            .table3
            .iter()
            .find(|r| r.server == ServerKind::Nginx);
        let servers_ready = results
            .table3
            .iter()
            .filter(|r| r.server != ServerKind::Ideal)
            .all(|r| {
                r.prefetch == PrefetchBehavior::Prefetches
                    && r.caches
                    && r.respects_next_update
                    && r.retains_on_error
            });
        let mut server_findings = Vec::new();
        if let Some(apache) = apache {
            server_findings.push(format!(
                "Apache: prefetch {:?}, respects nextUpdate {}, retains on error {}",
                apache.prefetch, apache.respects_next_update, apache.retains_on_error
            ));
        }
        if let Some(nginx) = nginx {
            server_findings.push(format!(
                "Nginx: prefetch {:?}, respects nextUpdate {}, retains on error {}",
                nginx.prefetch, nginx.respects_next_update, nginx.retains_on_error
            ));
        }
        server_findings
            .push("neither server prefetches; first clients stall or go unstapled".to_string());
        verdicts.push(PrincipalVerdict {
            principal: "Web server software",
            ready: servers_ready,
            findings: server_findings,
        });

        ReadinessReport { verdicts }
    }

    /// The paper's bottom line: every principal must be ready.
    pub fn web_is_ready(&self) -> bool {
        self.verdicts.iter().all(|v| v.ready)
    }

    /// Render a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Is the web ready for OCSP Must-Staple?\n");
        out.push_str("=======================================\n\n");
        for verdict in &self.verdicts {
            out.push_str(&format!(
                "{} — {}\n",
                verdict.principal,
                if verdict.ready { "ready" } else { "NOT ready" }
            ));
            for finding in &verdict.findings {
                out.push_str(&format!("  * {finding}\n"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "Conclusion: the web is {} for OCSP Must-Staple.\n",
            if self.web_is_ready() {
                "ready"
            } else {
                "NOT ready"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::study::Study;
    use ecosystem::EcosystemConfig;

    #[test]
    fn report_structure_and_conclusion() {
        let results = Study::new(EcosystemConfig::tiny()).run();
        let report = results.readiness_report();
        assert_eq!(report.verdicts.len(), 4);
        // The paper's state of the world: clients and servers are not
        // ready; deployment is minuscule.
        let by_name: std::collections::HashMap<&str, bool> = report
            .verdicts
            .iter()
            .map(|v| (v.principal, v.ready))
            .collect();
        assert!(!by_name["Clients (browsers)"]);
        assert!(!by_name["Web server software"]);
        assert!(!by_name["Deployment"]);
        assert!(!report.web_is_ready());
        let text = report.render();
        assert!(text.contains("Clients (browsers)"));
        assert!(text.contains("Conclusion"));
    }
}
