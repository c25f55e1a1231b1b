//! A caching CDN front for OCSP responders.
//!
//! §5.2's "CDN's perspective": Akamai logs showed that a cache-fronting
//! CDN contacts only ~20 distinct responders, rarely goes to origin at
//! all (most responses served from cache), and — in their 60-hour
//! window — saw a 100 % origin success rate. [`CdnNode`] reproduces that
//! architecture: an edge cache keyed by request body, with entry
//! lifetimes supplied by the caller (who knows the response's
//! `nextUpdate`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::region::Region;
use crate::world::{HttpOutcome, HttpResult, World};
use asn1::Time;
use simcrypto::sha256;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::catalog;

/// Counters for the CDN-perspective analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdnStats {
    /// Requests served from cache.
    pub cache_hits: u64,
    /// Requests forwarded to the origin.
    pub origin_fetches: u64,
    /// Origin fetches that returned HTTP 200.
    pub origin_successes: u64,
}

impl CdnStats {
    /// Fraction of all requests served from cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.origin_fetches;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of origin fetches that succeeded (the paper: 100 %).
    pub fn origin_success_ratio(&self) -> f64 {
        if self.origin_fetches == 0 {
            1.0
        } else {
            self.origin_successes as f64 / self.origin_fetches as f64
        }
    }
}

#[derive(Clone)]
struct CacheEntry {
    body: Arc<[u8]>,
    expires: Time,
}

/// One CDN edge node: a cache in a region, fronting arbitrary origins.
pub struct CdnNode {
    region: Region,
    cache: HashMap<[u8; 32], CacheEntry>,
    stats: CdnStats,
}

impl CdnNode {
    /// An edge node in `region`.
    pub fn new(region: Region) -> CdnNode {
        CdnNode {
            region,
            cache: HashMap::new(),
            stats: CdnStats::default(),
        }
    }

    /// The node's region (requests to origins depart from here).
    pub fn region(&self) -> Region {
        self.region
    }

    /// Fetch `url` with `body` through the cache. `ttl_of` inspects a
    /// fresh origin response and decides how long it may be cached
    /// (for OCSP: `nextUpdate - now`, clamped by policy).
    pub fn fetch(
        &mut self,
        world: &mut World,
        url: &str,
        body: &[u8],
        now: Time,
        ttl_of: impl Fn(&[u8]) -> i64,
    ) -> HttpResult {
        let mut keyed = url.as_bytes().to_vec();
        keyed.push(0);
        keyed.extend_from_slice(body);
        let key = sha256(&keyed);

        if let Some(entry) = self.cache.get(&key) {
            if entry.expires > now {
                self.stats.cache_hits += 1;
                world
                    .telemetry_mut()
                    .incr(catalog::CDN_EDGE_HIT, self.region.label());
                return HttpResult {
                    outcome: HttpOutcome::Ok(Arc::clone(&entry.body)),
                };
            }
            self.cache.remove(&key);
        }

        self.stats.origin_fetches += 1;
        world
            .telemetry_mut()
            .incr(catalog::CDN_EDGE_MISS, self.region.label());
        world
            .telemetry_mut()
            .incr(catalog::CDN_ORIGIN_FETCH, self.region.label());
        let result = world.http_post(self.region, url, body, now);
        if let HttpOutcome::Ok(reply) = &result.outcome {
            self.stats.origin_successes += 1;
            world
                .telemetry_mut()
                .incr(catalog::CDN_ORIGIN_SUCCESS, self.region.label());
            let ttl = ttl_of(reply);
            if ttl > 0 {
                self.cache.insert(
                    key,
                    CacheEntry {
                        body: Arc::clone(reply),
                        expires: now + ttl,
                    },
                );
            }
        }
        result
    }

    /// Running counters.
    pub fn stats(&self) -> CdnStats {
        self.stats
    }

    /// Number of live cache entries.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: i64) -> Time {
        Time::from_civil(2018, 5, 1, 0, 0, 0) + h * 3_600
    }

    fn world() -> World {
        let mut w = World::new(3);
        w.register(
            "ocsp.origin.test",
            Region::Virginia,
            None,
            Box::new(|_, body, now, _, _| {
                let mut reply = body.to_vec();
                reply.extend_from_slice(&now.unix().to_be_bytes());
                (200, reply.into())
            }),
        );
        w
    }

    #[test]
    fn second_request_hits_cache() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        let r1 = cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 7_200);
        let r2 = cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(1), |_| 7_200);
        assert!(r1.outcome.is_success());
        assert_eq!(r1.outcome, r2.outcome); // cached body identical
        assert_eq!(cdn.stats().origin_fetches, 1);
        assert_eq!(cdn.stats().cache_hits, 1);
    }

    #[test]
    fn expiry_forces_refetch() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 3_600);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(2), |_| 3_600);
        assert_eq!(cdn.stats().origin_fetches, 2);
    }

    #[test]
    fn distinct_bodies_cached_separately() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        cdn.fetch(
            &mut w,
            "http://ocsp.origin.test/",
            b"serial-1",
            t(0),
            |_| 7_200,
        );
        cdn.fetch(
            &mut w,
            "http://ocsp.origin.test/",
            b"serial-2",
            t(0),
            |_| 7_200,
        );
        assert_eq!(cdn.stats().origin_fetches, 2);
        assert_eq!(cdn.cached_entries(), 2);
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 0);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 0);
        assert_eq!(cdn.stats().origin_fetches, 2);
        assert_eq!(cdn.cached_entries(), 0);
    }

    #[test]
    fn failures_are_not_cached_and_ratios_track() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        let r = cdn.fetch(&mut w, "http://nxdomain.test/", b"q", t(0), |_| 7_200);
        assert!(!r.outcome.is_success());
        assert_eq!(cdn.stats().origin_fetches, 1);
        assert_eq!(cdn.stats().origin_successes, 0);
        assert_eq!(cdn.stats().origin_success_ratio(), 0.0);

        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 7_200);
        for _ in 0..8 {
            cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 7_200);
        }
        assert!(cdn.stats().hit_ratio() > 0.7);
    }

    #[test]
    fn edge_traffic_is_recorded_in_world_telemetry() {
        let mut w = world();
        let mut cdn = CdnNode::new(Region::Paris);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(0), |_| 7_200);
        cdn.fetch(&mut w, "http://ocsp.origin.test/", b"q", t(1), |_| 7_200);
        cdn.fetch(&mut w, "http://nxdomain.test/", b"q", t(0), |_| 7_200);
        let reg = w.telemetry();
        assert_eq!(reg.counter("cdn.edge.hit", "Paris"), 1);
        assert_eq!(reg.counter("cdn.edge.miss", "Paris"), 2);
        assert_eq!(reg.counter("cdn.origin.fetch", "Paris"), 2);
        assert_eq!(reg.counter("cdn.origin.success", "Paris"), 1);
    }
}
