//! The Apache 2.4.18 stapling model.
//!
//! Measured behaviors (§7.2 and Table 3):
//!
//! * **No prefetch** — the first connection using a certificate triggers
//!   a synchronous fetch; Apache *pauses the TLS handshake* until the
//!   OCSP response arrives, so the first client eats the fetch latency.
//! * **Caches** — subsequent connections are served from a cache
//!   (`SSLStaplingStandardCacheTimeout`, default 3 600 s).
//! * **Does not respect `nextUpdate`** — the cache key is its own
//!   timeout, so expired OCSP responses keep being stapled until the
//!   *Apache* cache entry lapses (the Bugzilla #62400 bug the authors
//!   filed).
//! * **Does not retain on error** — on a failed refresh it deletes the
//!   old (still valid!) response: an unreachable responder yields *no*
//!   staple, and an OCSP error response (e.g. `tryLater`) is stapled
//!   *itself* to clients.

use crate::fetcher::{FetchOutcome, OcspFetcher};
use crate::server::{CachedStaple, ServerKind, SiteConfig, StaplingServer};
use asn1::Time;
use telemetry::{catalog, Registry};
use tls::ServerFlight;

/// Default `SSLStaplingStandardCacheTimeout` in seconds.
pub const APACHE_CACHE_TIMEOUT: i64 = 3_600;

/// The Apache model.
pub struct Apache {
    site: SiteConfig,
    cache: Option<CachedStaple>,
    telemetry: Registry,
}

impl Apache {
    /// A server for `site`.
    pub fn new(site: SiteConfig) -> Apache {
        Apache {
            site,
            cache: None,
            telemetry: Registry::new(),
        }
    }

    /// Whether the Apache-level cache entry is live at `now`.
    /// Note this consults `fetched_at + timeout`, *not* the OCSP
    /// `nextUpdate` — that is the bug.
    fn cache_live(&self, now: Time) -> bool {
        self.cache
            .as_ref()
            .is_some_and(|c| now < c.fetched_at + APACHE_CACHE_TIMEOUT)
    }

    fn refresh(&mut self, now: Time, fetcher: &mut dyn OcspFetcher) -> f64 {
        match fetcher.fetch(now) {
            FetchOutcome::Fetched { body, latency_ms } => {
                // Whatever came back gets cached and stapled — even an
                // OCSP error response.
                self.cache = Some(CachedStaple::from_fetch(body, now));
                self.telemetry
                    .incr(catalog::WEBSERVER_STAPLE_INSTALL, "Apache");
                latency_ms
            }
            FetchOutcome::Unreachable { latency_ms } => {
                // The old response — even if still valid — is discarded.
                self.cache = None;
                self.telemetry
                    .incr(catalog::WEBSERVER_STAPLE_DROP, "Apache");
                latency_ms
            }
        }
    }
}

impl StaplingServer for Apache {
    fn kind(&self) -> ServerKind {
        ServerKind::Apache
    }

    fn serve(&mut self, now: Time, fetcher: &mut dyn OcspFetcher) -> ServerFlight {
        if self.cache_live(now) {
            self.telemetry.incr(catalog::WEBSERVER_CACHE_HIT, "Apache");
            let body = self.cache.as_ref().unwrap().body.clone();
            return self.site.flight(Some(body), 0.0);
        }
        // Cache miss (first connection or Apache-cache expiry): fetch
        // synchronously, pausing this handshake.
        self.telemetry.incr(catalog::WEBSERVER_CACHE_MISS, "Apache");
        self.telemetry.incr(catalog::WEBSERVER_FETCH_SYNC, "Apache");
        let stall_ms = self.refresh(now, fetcher);
        let staple = self.cache.as_ref().map(|c| c.body.clone());
        self.site.flight(staple, stall_ms)
    }

    fn tick(&mut self, _now: Time, _fetcher: &mut dyn OcspFetcher) {
        // Apache does no background prefetching.
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
    fn first_connection_pauses_and_staples() {
        let f = fixture(21);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::always(staple_bytes(&f, t0()));
        let flight = server.serve(t0(), &mut fetcher);
        assert!(flight.stapled_ocsp.is_some());
        assert!(flight.stall_ms > 0.0, "Apache pauses the first handshake");
        assert_eq!(fetcher.attempts(), 1);
    }

    #[test]
    fn second_connection_is_cached_and_fast() {
        let f = fixture(22);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::always(staple_bytes(&f, t0()));
        server.serve(t0(), &mut fetcher);
        let flight = server.serve(t0() + 60, &mut fetcher);
        assert!(flight.stapled_ocsp.is_some());
        assert_eq!(flight.stall_ms, 0.0);
        assert_eq!(fetcher.attempts(), 1, "served from cache");
    }

    #[test]
    fn serves_expired_response_from_cache() {
        // Bugzilla #62400: response with a 10-minute validity; Apache's
        // own cache lives an hour, so minutes 10–60 staple an expired
        // response.
        let f = fixture(23);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::always(expired_staple_at(&f, t0(), 600));
        server.serve(t0(), &mut fetcher);
        let at = t0() + 1_800; // OCSP-expired, Apache-cache still live
        let flight = server.serve(at, &mut fetcher);
        let staple = flight.stapled_ocsp.expect("still staples");
        let cached = CachedStaple::from_fetch(staple, at);
        assert!(
            !cached.ocsp_fresh(at),
            "the staple Apache serves is expired"
        );
        assert_eq!(fetcher.attempts(), 1);
    }

    #[test]
    fn drops_valid_response_when_responder_unreachable() {
        let f = fixture(24);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::new(vec![
            FetchOutcome::Fetched {
                body: staple_bytes(&f, t0()),
                latency_ms: 50.0,
            },
            FetchOutcome::Unreachable {
                latency_ms: 1_000.0,
            },
        ]);
        server.serve(t0(), &mut fetcher);
        // Apache cache expires; the refetch fails; the old, still-valid
        // (7-day) response is gone.
        let flight = server.serve(t0() + APACHE_CACHE_TIMEOUT + 1, &mut fetcher);
        assert_eq!(flight.stapled_ocsp, None, "old valid staple was discarded");
    }

    #[test]
    fn staples_error_responses() {
        let f = fixture(25);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::new(vec![
            FetchOutcome::Fetched {
                body: staple_bytes(&f, t0()),
                latency_ms: 50.0,
            },
            FetchOutcome::Fetched {
                body: try_later_bytes(),
                latency_ms: 50.0,
            },
        ]);
        server.serve(t0(), &mut fetcher);
        let flight = server.serve(t0() + APACHE_CACHE_TIMEOUT + 1, &mut fetcher);
        let staple = flight
            .stapled_ocsp
            .expect("Apache staples the error itself");
        let parsed = ocsp::OcspResponse::from_der(&staple).unwrap();
        assert_eq!(parsed.status, ocsp::ResponseStatus::TryLater);
    }

    #[test]
    fn no_background_prefetch() {
        let f = fixture(26);
        let mut server = Apache::new(f.site.clone());
        let mut fetcher = ScriptedFetcher::always(staple_bytes(&f, t0()));
        server.tick(t0(), &mut fetcher);
        server.tick(t0() + 60, &mut fetcher);
        assert_eq!(fetcher.attempts(), 0);
    }
}
