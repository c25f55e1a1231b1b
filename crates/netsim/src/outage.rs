//! Failure injection: the §5.2 failure taxonomy.
//!
//! The paper classified why OCSP requests fail:
//!
//! * 16 responders — persistent DNS `NXDOMAIN` from at least one region;
//! * 4 responders — TCP connection never establishes;
//! * 8 responders — persistent HTTP 4xx/5xx;
//! * 1 responder — HTTPS URL served with an invalid certificate;
//! * 36.8 % of responders — at least one *transient* outage (usually a
//!   couple of hours), sometimes correlated across responders sharing
//!   infrastructure (Comodo, Digicert, Certum, wosign/startssl) and
//!   sometimes region-specific (the Seoul-only Digicert outage, the
//!   Sydney-only Certum outage, the São Paulo-only
//!   `*.digitalcertvalidation.com` 404s).

use crate::region::Region;
use asn1::Time;
use telemetry::{catalog, Metric};

/// How a request fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// DNS resolution fails (NXDOMAIN).
    DnsNxDomain,
    /// TCP connection refused / times out.
    TcpConnect,
    /// Server answers with an HTTP 4xx.
    Http4xx,
    /// Server answers with an HTTP 5xx.
    Http5xx,
    /// HTTPS endpoint presents an invalid certificate.
    TlsBadCertificate,
}

impl FailureKind {
    /// The HTTP status code seen by the client, if the failure reaches
    /// the HTTP layer.
    pub fn http_status(self) -> Option<u16> {
        match self {
            FailureKind::Http4xx => Some(404),
            FailureKind::Http5xx => Some(503),
            _ => None,
        }
    }

    /// This failure's counter: the `net.failure.<label>` family.
    pub fn metric(self) -> Metric {
        match self {
            FailureKind::DnsNxDomain => catalog::NET_FAILURE_DNS,
            FailureKind::TcpConnect => catalog::NET_FAILURE_TCP,
            FailureKind::Http4xx => catalog::NET_FAILURE_HTTP4XX,
            FailureKind::Http5xx => catalog::NET_FAILURE_HTTP5XX,
            FailureKind::TlsBadCertificate => catalog::NET_FAILURE_TLS,
        }
    }
}

/// Which regions an outage affects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionScope {
    /// Every region.
    All,
    /// Only the listed regions (the paper saw many single-region events).
    Only(Vec<Region>),
}

impl RegionScope {
    /// Whether `region` is covered.
    pub fn covers(&self, region: Region) -> bool {
        match self {
            RegionScope::All => true,
            RegionScope::Only(list) => list.contains(&region),
        }
    }
}

/// One failure window (or a persistent failure, with an unbounded end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outage {
    /// Start of the window.
    pub start: Time,
    /// End of the window; `None` = persistent from `start` on.
    pub end: Option<Time>,
    /// Affected regions.
    pub scope: RegionScope,
    /// How requests fail during the window.
    pub kind: FailureKind,
}

impl Outage {
    /// A transient outage affecting all regions.
    pub fn transient(start: Time, duration_secs: i64, kind: FailureKind) -> Outage {
        Outage {
            start,
            end: Some(start + duration_secs),
            scope: RegionScope::All,
            kind,
        }
    }

    /// A transient outage visible only from certain regions.
    pub fn regional(
        start: Time,
        duration_secs: i64,
        regions: Vec<Region>,
        kind: FailureKind,
    ) -> Outage {
        Outage {
            start,
            end: Some(start + duration_secs),
            scope: RegionScope::Only(regions),
            kind,
        }
    }

    /// A persistent failure from `start` on, for certain regions
    /// (pass all vantage points for a globally dead responder).
    pub fn persistent(start: Time, regions: RegionScope, kind: FailureKind) -> Outage {
        Outage {
            start,
            end: None,
            scope: regions,
            kind,
        }
    }

    /// Whether this outage affects `region` at `time`.
    pub fn active(&self, time: Time, region: Region) -> bool {
        self.start <= time && self.end.is_none_or(|e| time < e) && self.scope.covers(region)
    }
}

/// Find the first outage in `outages` hitting `(time, region)`.
pub fn first_active(outages: &[Outage], time: Time, region: Region) -> Option<&Outage> {
    outages.iter().find(|o| o.active(time, region))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + h * 3_600
    }

    #[test]
    fn transient_window_bounds() {
        let o = Outage::transient(t(19), 2 * 3_600, FailureKind::TcpConnect);
        assert!(!o.active(t(18), Region::Oregon));
        assert!(o.active(t(19), Region::Oregon));
        assert!(o.active(t(20), Region::Seoul));
        assert!(!o.active(t(21), Region::Oregon)); // end-exclusive
    }

    #[test]
    fn regional_scope() {
        // The paper's Comodo outage was seen only from Oregon, Sydney, Seoul.
        let o = Outage::regional(
            t(19),
            2 * 3_600,
            vec![Region::Oregon, Region::Sydney, Region::Seoul],
            FailureKind::TcpConnect,
        );
        assert!(o.active(t(19), Region::Oregon));
        assert!(o.active(t(20), Region::Seoul));
        assert!(!o.active(t(20), Region::Virginia));
        assert!(!o.active(t(20), Region::Paris));
    }

    #[test]
    fn persistent_has_no_end() {
        let o = Outage::persistent(
            t(0),
            RegionScope::Only(vec![Region::SaoPaulo]),
            FailureKind::Http4xx,
        );
        assert!(o.active(t(10_000), Region::SaoPaulo));
        assert!(!o.active(t(10_000), Region::Paris));
    }

    #[test]
    fn first_active_picks_earliest_matching() {
        let outages = vec![
            Outage::transient(t(5), 3_600, FailureKind::Http5xx),
            Outage::transient(t(5), 7_200, FailureKind::TcpConnect),
        ];
        let hit = first_active(&outages, t(5), Region::Paris).unwrap();
        assert_eq!(hit.kind, FailureKind::Http5xx);
        let hit = first_active(&outages, t(6) + 1800, Region::Paris).unwrap();
        assert_eq!(hit.kind, FailureKind::TcpConnect);
        assert!(first_active(&outages, t(8), Region::Paris).is_none());
    }

    #[test]
    fn http_status_mapping() {
        assert_eq!(FailureKind::Http4xx.http_status(), Some(404));
        assert_eq!(FailureKind::Http5xx.http_status(), Some(503));
        assert_eq!(FailureKind::DnsNxDomain.http_status(), None);
    }
}
