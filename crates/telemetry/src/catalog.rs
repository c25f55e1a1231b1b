//! The metric-name catalog: one constant per telemetry name.
//!
//! Every metric, gauge, and wall-span name the workspace emits is
//! declared here as a `pub const NAME: &str = "dotted.name";`. Call
//! sites reference the constant instead of repeating the string, so a
//! typo is a compile error (unknown identifier) instead of a silently
//! forked metric family. `detlint`'s metric-catalog pass enforces the
//! discipline three ways: call sites in the metric crates must route
//! through these constants, every family in the committed
//! `results/telemetry.prom` baseline must be declared here, and every
//! `["metric"]` tolerance section in `teldiff.toml` must be declared
//! here — so the catalog, the baseline, and the tolerances cannot
//! drift apart. An orphaned constant (referenced by no call site) is
//! itself a lint error: a retired metric leaves no residue.
//!
//! Test code deliberately keeps its metric names as string literals —
//! the equality and accounting tests cross-check these constants'
//! *values*, which a catalog-wide rename would otherwise silently
//! rewrite on both sides.
//!
//! Naming: the constant is the SCREAMING_SNAKE form of the dotted
//! name. Grouping mirrors the emitting subsystem.

// --- netsim: transport requests and failure taxonomy -----------------

/// Every HTTP transaction entering the simulated network, by vantage
/// region.
pub const NET_REQUEST: &str = "net.request";
/// DNS resolution failures (NXDOMAIN, unregistered host), by region.
pub const NET_FAILURE_DNS: &str = "net.failure.dns";
/// TCP connect failures from injected outages, by region.
pub const NET_FAILURE_TCP: &str = "net.failure.tcp";
/// Injected HTTP 4xx outcomes, by region.
pub const NET_FAILURE_HTTP4XX: &str = "net.failure.http4xx";
/// Injected HTTP 5xx outcomes, by region.
pub const NET_FAILURE_HTTP5XX: &str = "net.failure.http5xx";
/// HTTPS endpoints presenting an invalid certificate, by region.
pub const NET_FAILURE_TLS: &str = "net.failure.tls";
/// Handler-returned non-200 statuses outside the injected taxonomy,
/// by region.
pub const NET_FAILURE_HTTP: &str = "net.failure.http";
/// Failures attributed to a shared-infrastructure group outage, by
/// group name.
pub const NET_FAILURE_BY_GROUP: &str = "net.failure.by_group";
/// Outage activations, by host (or `group:<name>`).
pub const NET_OUTAGE_ACTIVATION: &str = "net.outage.activation";
/// Warm-path request latency histogram (ms), by region.
pub const NET_LATENCY_MS: &str = "net.latency_ms";

// --- netsim: CDN edge cache ------------------------------------------

/// CDN edge-cache hits, by edge region.
pub const CDN_EDGE_HIT: &str = "cdn.edge.hit";
/// CDN edge-cache misses, by edge region.
pub const CDN_EDGE_MISS: &str = "cdn.edge.miss";
/// Origin fetches issued on an edge miss, by edge region.
pub const CDN_ORIGIN_FETCH: &str = "cdn.origin.fetch";
/// Origin fetches that returned HTTP 200, by edge region.
pub const CDN_ORIGIN_SUCCESS: &str = "cdn.origin.success";

// --- ocsp: responder engine and client validation --------------------

/// Fault-profile activations in the responder engine, by fault label.
pub const OCSP_RESPONDER_FAULT: &str = "ocsp.responder.fault";
/// Signed-response cache outcomes on the responder request path
/// (`hit` / `miss` / `window_sign`).
pub const OCSP_RESPONDER_CACHE: &str = "ocsp.responder.cache";
/// Signature-verification cache outcomes in client-side validation
/// (`hit` / `miss`).
pub const OCSP_VALIDATE_SIGCACHE: &str = "ocsp.validate.sigcache";

// --- scanner: the four measurement pipelines -------------------------

/// Hourly-scan probes sent, by responder label.
pub const SCAN_HOURLY_PROBES: &str = "scan.hourly.probes";
/// Hourly-scan rounds executed, by responder label.
pub const SCAN_HOURLY_ROUNDS: &str = "scan.hourly.rounds";
/// Hourly-scan validation outcomes, by outcome label.
pub const SCAN_HOURLY_VALIDATE: &str = "scan.hourly.validate";
/// Alexa1M responders evaluated, by shard label.
pub const SCAN_ALEXA1M_RESPONDERS_EVALUATED: &str = "scan.alexa1m.responders_evaluated";
/// Alexa1M persistent domains accumulated, by shard label.
pub const SCAN_ALEXA1M_PERSISTENT_DOMAINS: &str = "scan.alexa1m.persistent_domains";
/// Consistency-study probes sent, by responder label.
pub const SCAN_CONSISTENCY_PROBES: &str = "scan.consistency.probes";
/// CRL fetch outcomes in the consistency study (`ok` / `err`).
pub const SCAN_CONSISTENCY_CRL_FETCH: &str = "scan.consistency.crl_fetch";
/// Consistency-study validation outcomes, by outcome label.
pub const SCAN_CONSISTENCY_VALIDATE: &str = "scan.consistency.validate";
/// CDN-perspective log lookups, by outcome label.
pub const SCAN_CDN_LOOKUPS: &str = "scan.cdn.lookups";

// --- scanner: wall-clock merge spans (excluded from artifacts) -------

/// Wall time of the hourly scan's shard-merge phase.
pub const SCAN_HOURLY_MERGE: &str = "scan.hourly.merge";
/// Wall time of the consistency study's shard-merge phase.
pub const SCAN_CONSISTENCY_MERGE: &str = "scan.consistency.merge";
/// Wall time of the Alexa1M scan's shard-merge phase.
pub const SCAN_ALEXA1M_MERGE: &str = "scan.alexa1m.merge";

// --- webserver: stapling behavior models -----------------------------

/// Staples installed into the server cache, by server kind.
pub const WEBSERVER_STAPLE_INSTALL: &str = "webserver.staple.install";
/// Cached staples dropped (expired or evicted), by server kind.
pub const WEBSERVER_STAPLE_DROP: &str = "webserver.staple.drop";
/// Connections served with no staple available, by server kind.
pub const WEBSERVER_STAPLE_NONE: &str = "webserver.staple.none";
/// Old staples retained after a failed refresh, by server kind.
pub const WEBSERVER_STAPLE_RETAIN: &str = "webserver.staple.retain";
/// Error/stale responses rejected instead of installed (Ideal server
/// only), by server kind.
pub const WEBSERVER_STAPLE_REJECT_ERROR: &str = "webserver.staple.reject_error";
/// Staple served from the warm cache, by server kind.
pub const WEBSERVER_CACHE_HIT: &str = "webserver.cache.hit";
/// Connection arrived with a cold/expired cache, by server kind.
pub const WEBSERVER_CACHE_MISS: &str = "webserver.cache.miss";
/// Synchronous (handshake-pausing) OCSP fetches, by server kind.
pub const WEBSERVER_FETCH_SYNC: &str = "webserver.fetch.sync";
/// Background (non-blocking) OCSP fetches, by server kind.
pub const WEBSERVER_FETCH_BACKGROUND: &str = "webserver.fetch.background";
/// Scheduled prefetches ahead of expiry, by server kind.
pub const WEBSERVER_PREFETCH: &str = "webserver.prefetch";
/// Refresh intervals clamped to the responder's validity window, by
/// server kind.
pub const WEBSERVER_REFRESH_CLAMPED: &str = "webserver.refresh.clamped";

// --- ecosystem / study: churn gauges (excluded from artifacts) -------

/// Certificates issued over the simulated study window.
pub const ECOSYSTEM_CHURN_ISSUED: &str = "ecosystem.churn.issued";
/// Certificates expired over the simulated study window.
pub const ECOSYSTEM_CHURN_EXPIRED: &str = "ecosystem.churn.expired";
/// Certificates revoked over the simulated study window.
pub const ECOSYSTEM_CHURN_REVOKED: &str = "ecosystem.churn.revoked";
/// Certificates live at the end of the simulated study window.
pub const ECOSYSTEM_CHURN_LIVE: &str = "ecosystem.churn.live";

// --- opsmon: responder health-state machine --------------------------

/// Health-state transitions observed by the per-responder tracker, by
/// edge label (`healthy_degraded`, `degraded_failed`,
/// `degraded_healthy`, `failed_healthy`). Deterministic (replayed from
/// probe classifications in simulated time), so artifact-grade.
pub const HEALTH_TRANSITIONS: &str = "health.transitions";
/// Subjects currently Healthy after the replay (gauge, excluded from
/// artifacts).
pub const HEALTH_STATE_HEALTHY: &str = "health.state.healthy";
/// Subjects currently Degraded after the replay (gauge, excluded from
/// artifacts).
pub const HEALTH_STATE_DEGRADED: &str = "health.state.degraded";
/// Subjects currently Failed after the replay (gauge, excluded from
/// artifacts).
pub const HEALTH_STATE_FAILED: &str = "health.state.failed";
/// Worst scheduled retry backoff across Failed subjects, in seconds
/// (gauge, excluded from artifacts).
pub const HEALTH_BACKOFF_SECS: &str = "health.backoff_secs";

// --- ocspd: the live service tier ------------------------------------

/// OCSP requests served over the live `POST /ocsp` socket path, by
/// route label. Deterministic given the request sequence (the
/// live-smoke job replays it offline for byte comparison).
pub const OCSPD_REQUESTS: &str = "ocspd.requests";
/// Live `GET /metrics` scrapes served (gauge — scrape counts are
/// operational, never part of the equality-gated exposition).
pub const OCSPD_SCRAPES_METRICS: &str = "ocspd.scrapes.metrics";
/// Live `GET /health` scrapes served (gauge, excluded from artifacts).
pub const OCSPD_SCRAPES_HEALTH: &str = "ocspd.scrapes.health";

// --- bench: allocator instrumentation gauges -------------------------

/// Peak bytes outstanding reported by the counting allocator
/// (`--features mem-profile` only).
pub const MEM_PEAK_BYTES: &str = "mem.peak_bytes";
/// Total allocation count reported by the counting allocator
/// (`--features mem-profile` only).
pub const MEM_ALLOC_COUNT: &str = "mem.alloc_count";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_dotted_and_lowercase() {
        let all = [
            NET_REQUEST,
            NET_FAILURE_DNS,
            NET_FAILURE_TCP,
            NET_FAILURE_HTTP4XX,
            NET_FAILURE_HTTP5XX,
            NET_FAILURE_TLS,
            NET_FAILURE_HTTP,
            NET_FAILURE_BY_GROUP,
            NET_OUTAGE_ACTIVATION,
            NET_LATENCY_MS,
            CDN_EDGE_HIT,
            CDN_EDGE_MISS,
            CDN_ORIGIN_FETCH,
            CDN_ORIGIN_SUCCESS,
            OCSP_RESPONDER_FAULT,
            OCSP_RESPONDER_CACHE,
            OCSP_VALIDATE_SIGCACHE,
            SCAN_HOURLY_PROBES,
            SCAN_HOURLY_ROUNDS,
            SCAN_HOURLY_VALIDATE,
            SCAN_ALEXA1M_RESPONDERS_EVALUATED,
            SCAN_ALEXA1M_PERSISTENT_DOMAINS,
            SCAN_CONSISTENCY_PROBES,
            SCAN_CONSISTENCY_CRL_FETCH,
            SCAN_CONSISTENCY_VALIDATE,
            SCAN_CDN_LOOKUPS,
            SCAN_HOURLY_MERGE,
            SCAN_CONSISTENCY_MERGE,
            SCAN_ALEXA1M_MERGE,
            WEBSERVER_STAPLE_INSTALL,
            WEBSERVER_STAPLE_DROP,
            WEBSERVER_STAPLE_NONE,
            WEBSERVER_STAPLE_RETAIN,
            WEBSERVER_STAPLE_REJECT_ERROR,
            WEBSERVER_CACHE_HIT,
            WEBSERVER_CACHE_MISS,
            WEBSERVER_FETCH_SYNC,
            WEBSERVER_FETCH_BACKGROUND,
            WEBSERVER_PREFETCH,
            WEBSERVER_REFRESH_CLAMPED,
            HEALTH_TRANSITIONS,
            HEALTH_STATE_HEALTHY,
            HEALTH_STATE_DEGRADED,
            HEALTH_STATE_FAILED,
            HEALTH_BACKOFF_SECS,
            OCSPD_REQUESTS,
            OCSPD_SCRAPES_METRICS,
            OCSPD_SCRAPES_HEALTH,
            ECOSYSTEM_CHURN_ISSUED,
            ECOSYSTEM_CHURN_EXPIRED,
            ECOSYSTEM_CHURN_REVOKED,
            ECOSYSTEM_CHURN_LIVE,
            MEM_PEAK_BYTES,
            MEM_ALLOC_COUNT,
        ];
        for name in all {
            assert!(
                name.contains('.')
                    && name.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || "._45".contains(c)),
                "unexpected metric name shape: {name}"
            );
        }
        // No duplicates: the catalog is a bijection name ↔ value.
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
