//! The paper's recommended server behavior (§8, recommendation 2).
//!
//! "Web server software should pre-fetch OCSP responses from the OCSP
//! responders on a regular basis even if there are no clients who have
//! attempted to make TLS connections. This will help reduce unnecessary
//! latency to clients during their TLS handshakes and cope with
//! intermittent unavailability and errors of OCSP responders."
//!
//! [`Ideal`] prefetches on `tick`, refreshes when half the validity
//! window has elapsed, retries (with backoff bounded by the tick cadence)
//! while the responder is down, retains the old response through errors,
//! and never staples an expired or error response.

use crate::fetcher::{FetchOutcome, OcspFetcher};
use crate::server::{CachedStaple, ServerKind, SiteConfig, StaplingServer};
use asn1::Time;
use telemetry::{catalog, Metric, Registry};
use tls::ServerFlight;

/// The recommended model.
pub struct Ideal {
    site: SiteConfig,
    cache: Option<CachedStaple>,
    telemetry: Registry,
}

impl Ideal {
    /// A server for `site`.
    pub fn new(site: SiteConfig) -> Ideal {
        Ideal {
            site,
            cache: None,
            telemetry: Registry::new(),
        }
    }

    fn needs_refresh(&self, now: Time) -> bool {
        match &self.cache {
            None => true,
            Some(c) => match c.next_update {
                // Refresh once past the midpoint of the validity window.
                Some(nu) => {
                    let midpoint = c.fetched_at + (nu - c.fetched_at) / 2;
                    now >= midpoint
                }
                None => false,
            },
        }
    }

    /// `fetch_metric` distinguishes timer-driven prefetches from the
    /// serve-path safety net in the telemetry.
    fn refresh(&mut self, now: Time, fetcher: &mut dyn OcspFetcher, fetch_metric: Metric) {
        if !self.needs_refresh(now) {
            return;
        }
        self.telemetry.incr(fetch_metric, "Ideal");
        if let FetchOutcome::Fetched { body, .. } = fetcher.fetch(now) {
            let fresh = CachedStaple::from_fetch(body, now);
            if fresh.is_successful_response && fresh.ocsp_fresh(now) {
                self.cache = Some(fresh);
                self.telemetry
                    .incr(catalog::WEBSERVER_STAPLE_INSTALL, "Ideal");
            } else {
                // Error responses and stale responses are ignored; the
                // old staple stays.
                self.telemetry
                    .incr(catalog::WEBSERVER_STAPLE_REJECT_ERROR, "Ideal");
            }
        } else {
            // Unreachable: old staple stays; the next tick retries.
            self.telemetry
                .incr(catalog::WEBSERVER_STAPLE_RETAIN, "Ideal");
        }
    }
}

impl StaplingServer for Ideal {
    fn kind(&self) -> ServerKind {
        ServerKind::Ideal
    }

    fn serve(&mut self, now: Time, fetcher: &mut dyn OcspFetcher) -> ServerFlight {
        // Safety net: if ticks never ran (misconfigured deployment),
        // behave like a prefetch that happens to occur now, in the
        // background (never stall, never fail closed beyond this one
        // connection).
        if self.cache.is_none() {
            self.refresh(now, fetcher, catalog::WEBSERVER_FETCH_BACKGROUND);
        }
        // Never staple an expired response.
        let staple = self
            .cache
            .as_ref()
            .filter(|c| c.ocsp_fresh(now))
            .map(|c| c.body.clone());
        if staple.is_some() {
            self.telemetry.incr(catalog::WEBSERVER_CACHE_HIT, "Ideal");
        }
        self.site.flight(staple, 0.0)
    }

    fn tick(&mut self, now: Time, fetcher: &mut dyn OcspFetcher) {
        self.refresh(now, fetcher, catalog::WEBSERVER_PREFETCH);
    }

    fn telemetry(&self) -> Option<&Registry> {
        Some(&self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetcher::ScriptedFetcher;
    use crate::testutil::{expired_staple_at, fixture, staple_bytes, try_later_bytes};

    fn t0() -> Time {
        Time::from_civil(2018, 6, 1, 0, 0, 0)
    }

    #[test]
    fn prefetches_before_first_connection() {
        let f = fixture(41);
        let mut server = Ideal::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::always(staple_bytes(&f, t0()));
        server.tick(t0(), &mut fetcher);
        let flight = server.serve(t0() + 60, &mut fetcher);
        assert!(flight.stapled_ocsp.is_some(), "first client is stapled");
        assert_eq!(flight.stall_ms, 0.0, "without any stall");
        assert_eq!(fetcher.attempts(), 1);
    }

    #[test]
    fn refreshes_ahead_of_expiry() {
        let f = fixture(42);
        let mut server = Ideal::new(f.site.clone());
        let first = expired_staple_at(&f, t0(), 7_200);
        let second = expired_staple_at(&f, t0() + 3_700, 7_200);
        let mut fetcher = ScriptedFetcher::new(vec![
            FetchOutcome::Fetched {
                body: first,
                latency_ms: 50.0,
            },
            FetchOutcome::Fetched {
                body: second,
                latency_ms: 50.0,
            },
        ]);
        server.tick(t0(), &mut fetcher);
        // Past the midpoint (t0+3600) the next tick refreshes.
        server.tick(t0() + 3_700, &mut fetcher);
        assert_eq!(fetcher.attempts(), 2);
        let flight = server.serve(t0() + 7_300, &mut fetcher); // old would have expired
        assert!(flight.stapled_ocsp.is_some());
    }

    #[test]
    fn retains_through_outages_and_never_staples_expired() {
        let f = fixture(43);
        let mut server = Ideal::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::new(vec![
            FetchOutcome::Fetched {
                body: expired_staple_at(&f, t0(), 7_200),
                latency_ms: 50.0,
            },
            FetchOutcome::Unreachable {
                latency_ms: 1_000.0,
            },
        ]);
        server.tick(t0(), &mut fetcher);
        server.tick(t0() + 4_000, &mut fetcher); // refresh fails
                                                 // Still valid: staple retained.
        assert!(server
            .serve(t0() + 5_000, &mut fetcher)
            .stapled_ocsp
            .is_some());
        // After expiry with the responder still down: no staple, but
        // crucially also no expired staple.
        let flight = server.serve(t0() + 8_000, &mut fetcher);
        assert_eq!(flight.stapled_ocsp, None);
    }

    #[test]
    fn never_installs_error_responses() {
        let f = fixture(44);
        let mut server = Ideal::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::new(vec![
            FetchOutcome::Fetched {
                body: expired_staple_at(&f, t0(), 7_200),
                latency_ms: 50.0,
            },
            FetchOutcome::Fetched {
                body: try_later_bytes(),
                latency_ms: 50.0,
            },
        ]);
        server.tick(t0(), &mut fetcher);
        server.tick(t0() + 4_000, &mut fetcher); // tryLater ignored
        let staple = server
            .serve(t0() + 5_000, &mut fetcher)
            .stapled_ocsp
            .unwrap();
        let parsed = ocsp::OcspResponse::from_der(&staple).unwrap();
        assert_eq!(parsed.status, ocsp::ResponseStatus::Successful);
    }
}
