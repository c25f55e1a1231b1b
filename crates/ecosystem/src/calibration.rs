//! Every calibration constant, with its source in the paper.
//!
//! These are the measured marginals the synthetic ecosystem reproduces.
//! Keeping them in one annotated module makes the calibration auditable:
//! each figure/table regeneration in EXPERIMENTS.md traces back to the
//! constants here.

/// §4: fraction of valid certificates whose AIA carries an OCSP URL
/// (107,664,132 / 112,841,653).
pub const OCSP_SUPPORT_FRACTION: f64 = 0.954;

/// §4: fraction of valid certificates carrying OCSP Must-Staple
/// (29,709 / 112,841,653 ≈ 0.026 %; the paper rounds to 0.02 %).
pub const MUST_STAPLE_FRACTION: f64 = 0.000_263;

/// §4: share of Must-Staple certificates issued by Let's Encrypt
/// (28,919 / 29,709).
pub const MUST_STAPLE_LETS_ENCRYPT_SHARE: f64 = 0.973;

/// §4: the remaining Must-Staple issuers and their certificate counts.
pub const MUST_STAPLE_OTHERS: [(&str, u64); 3] = [("DFN", 716), ("Comodo", 73), ("UserTrust", 1)];

/// §4 / Figure 2: HTTPS support across the Alexa range is "close to 75 %".
pub const ALEXA_HTTPS_TOP: f64 = 0.80;
/// Figure 2: HTTPS support at the tail of the Top-1M.
pub const ALEXA_HTTPS_TAIL: f64 = 0.70;
/// Figure 2: OCSP adoption among HTTPS domains averages 91.3 %, slightly
/// higher for popular domains.
pub const ALEXA_OCSP_TOP: f64 = 0.945;
/// Figure 2: OCSP adoption at the tail.
pub const ALEXA_OCSP_TAIL: f64 = 0.89;
/// §4: certificates from Alexa Top-1M domains with Must-Staple: 100
/// out of ~606 k (0.01 %).
pub const ALEXA_MUST_STAPLE_FRACTION: f64 = 0.000_165;

/// Figure 11: OCSP Stapling adoption among OCSP-enabled domains is
/// roughly 35 % overall, higher for popular domains (~50 % at the top,
/// ~28 % at the tail).
pub const ALEXA_STAPLING_TOP: f64 = 0.50;
/// Figure 11 tail value.
pub const ALEXA_STAPLING_TAIL: f64 = 0.28;

/// §5.1: responders measured in the Hourly dataset.
pub const HOURLY_RESPONDERS: usize = 536;
/// §5.1: certificates tracked in the Hourly dataset.
pub const HOURLY_CERTIFICATES: usize = 14_634;
/// §5.1: certificates per responder sampled (50, or all if fewer).
pub const CERTS_PER_RESPONDER_SAMPLE: usize = 50;
/// §5.1: responders seen in the Alexa1M scan.
pub const ALEXA1M_RESPONDERS: usize = 128;
/// §4: fraction of certificates listing more than one OCSP responder
/// (6,308 / 77,399,894).
pub const MULTI_RESPONDER_FRACTION: f64 = 0.000_08;

/// §5.2: average request failure rate across the campaign.
pub const AVG_FAILURE_RATE: f64 = 0.017;
/// §5.2: per-region average failure rates (min Virginia, max São Paulo).
pub const FAILURE_RATE_VIRGINIA: f64 = 0.022;
/// §5.2: São Paulo failure rate.
pub const FAILURE_RATE_SAO_PAULO: f64 = 0.057;
/// §5.2: responders never reachable from any vantage point.
pub const RESPONDERS_ALWAYS_DEAD: usize = 2;
/// §5.2: responders with at least one never-succeeding vantage point: 29,
/// split 16 DNS / 4 TCP / 8 HTTP / 1 TLS.
pub const PERSISTENT_DNS_FAILURES: usize = 16;
/// §5.2 persistent TCP failures.
pub const PERSISTENT_TCP_FAILURES: usize = 4;
/// §5.2 persistent HTTP 4xx/5xx failures.
pub const PERSISTENT_HTTP_FAILURES: usize = 8;
/// §5.2 persistent TLS (bad certificate) failures.
pub const PERSISTENT_TLS_FAILURES: usize = 1;
/// §5.2: fraction of responders with ≥1 transient outage (211 / 536).
pub const TRANSIENT_OUTAGE_FRACTION: f64 = 0.368;

/// §5.3: responders persistently returning malformed bodies (8 / 536).
pub const PERSISTENT_MALFORMED: usize = 8;

/// Figure 6: fraction of responders sending >1 certificate (79 / 536).
pub const MULTI_CERT_FRACTION: f64 = 0.145;
/// Figure 7: fraction of responders answering with >1 serial.
pub const MULTI_SERIAL_FRACTION: f64 = 0.048;
/// Figure 7: fraction always answering with exactly 20 serials (17/536).
pub const TWENTY_SERIAL_FRACTION: f64 = 0.033;

/// Figure 8: fraction of responders with a blank `nextUpdate` (45/483
/// measured ≈ 9.1 %).
pub const BLANK_NEXT_UPDATE_FRACTION: f64 = 0.091;
/// Figure 8: fraction with validity periods over one month (11 ≈ 2 %).
pub const MONTH_PLUS_VALIDITY_FRACTION: f64 = 0.02;
/// Figure 8: the maximum observed validity period — 108,130,800 s
/// (1,251 days).
pub const MAX_VALIDITY_SECS: i64 = 108_130_800;
/// §8: the median validity period is about a week.
pub const MEDIAN_VALIDITY_SECS: i64 = 7 * 86_400;

/// Figure 9: responders returning zero-margin `thisUpdate` (85 ≈ 17.2 %).
pub const ZERO_MARGIN_FRACTION: f64 = 0.172;
/// Figure 9: responders returning *future* `thisUpdate` (15 ≈ 3 %).
pub const FUTURE_THIS_UPDATE_FRACTION: f64 = 0.03;

/// §5.4: responders that pre-generate responses (245 / 483 ≈ 51.7 %).
pub const PRE_GENERATED_FRACTION: f64 = 0.517;
/// §5.4: responders whose validity equals their refresh interval (7).
pub const NON_OVERLAPPING_RESPONDERS: usize = 7;
/// §5.4: hinet.net refresh/validity period (seconds).
pub const HINET_PERIOD: i64 = 7_200;
/// §5.4: cnnic refresh/validity period (seconds).
pub const CNNIC_PERIOD: i64 = 10_800;

/// §5.4 consistency study: unique CRLs among Alexa Top-1M certificates.
pub const UNIQUE_CRLS: usize = 1_579;
/// §5.4: revoked serials found across those CRLs.
pub const REVOKED_SERIALS: usize = 2_041_345;
/// §5.4: unexpired-and-revoked certificates cross-referenced.
pub const UNEXPIRED_REVOKED: usize = 728_261;
/// §5.4: fraction of OCSP responses with a revocation time differing
/// from the CRL (863 / 727,440).
pub const REVTIME_DIFF_FRACTION: f64 = 0.001_5;
/// §5.4: of those, the fraction where OCSP is *behind* the CRL
/// (127 / 863).
pub const REVTIME_NEGATIVE_FRACTION: f64 = 0.147;
/// §5.4: ocsp.msocsp.com lag bounds (7 hours to 9 days).
pub const MSOCSP_LAG_MIN: i64 = 7 * 3_600;
/// Upper bound of the msocsp lag.
pub const MSOCSP_LAG_MAX: i64 = 9 * 86_400;
/// Figure 10: the revocation-time difference tail exceeds 137M seconds.
pub const REVTIME_TAIL_SECS: i64 = 137_000_000;
/// §5.4: fraction of revocations whose reason codes differ between CRL
/// and OCSP (15 %), of which 99.99 % are "CRL has a code, OCSP none".
pub const REASON_DIFF_FRACTION: f64 = 0.15;

/// Figure 12: Cloudflare-served stapling domains before the June 2017
/// cruise-liner expansion.
pub const CLOUDFLARE_STAPLES_MAY17: u64 = 11_675;
/// Figure 12: and after.
pub const CLOUDFLARE_STAPLES_JUN17: u64 = 78_907;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_probabilities() {
        for f in [
            OCSP_SUPPORT_FRACTION,
            MUST_STAPLE_FRACTION,
            MUST_STAPLE_LETS_ENCRYPT_SHARE,
            ALEXA_HTTPS_TOP,
            ALEXA_HTTPS_TAIL,
            ALEXA_OCSP_TOP,
            ALEXA_OCSP_TAIL,
            ALEXA_STAPLING_TOP,
            ALEXA_STAPLING_TAIL,
            AVG_FAILURE_RATE,
            TRANSIENT_OUTAGE_FRACTION,
            MULTI_CERT_FRACTION,
            MULTI_SERIAL_FRACTION,
            TWENTY_SERIAL_FRACTION,
            BLANK_NEXT_UPDATE_FRACTION,
            MONTH_PLUS_VALIDITY_FRACTION,
            ZERO_MARGIN_FRACTION,
            FUTURE_THIS_UPDATE_FRACTION,
            PRE_GENERATED_FRACTION,
            REVTIME_DIFF_FRACTION,
            REVTIME_NEGATIVE_FRACTION,
            REASON_DIFF_FRACTION,
        ] {
            assert!((0.0..=1.0).contains(&f), "{f} out of range");
        }
    }

    #[allow(
        clippy::assertions_on_constants,
        reason = "the test re-checks the calibration constants whenever they are edited"
    )]
    #[test]
    fn ordering_sanity() {
        assert!(ALEXA_HTTPS_TOP > ALEXA_HTTPS_TAIL);
        assert!(ALEXA_OCSP_TOP > ALEXA_OCSP_TAIL);
        assert!(ALEXA_STAPLING_TOP > ALEXA_STAPLING_TAIL);
        assert!(FAILURE_RATE_SAO_PAULO > FAILURE_RATE_VIRGINIA);
        assert!(MSOCSP_LAG_MAX > MSOCSP_LAG_MIN);
        assert!(MAX_VALIDITY_SECS > MEDIAN_VALIDITY_SECS);
        assert!(CLOUDFLARE_STAPLES_JUN17 > CLOUDFLARE_STAPLES_MAY17);
    }

    #[test]
    fn persistent_failure_taxonomy_totals_29() {
        assert_eq!(
            PERSISTENT_DNS_FAILURES
                + PERSISTENT_TCP_FAILURES
                + PERSISTENT_HTTP_FAILURES
                + PERSISTENT_TLS_FAILURES,
            29
        );
    }
}
