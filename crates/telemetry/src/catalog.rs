//! The metric catalog: one typed [`Metric`] handle per telemetry name.
//!
//! Every counter, histogram, gauge, and wall-span name the workspace
//! emits is declared here, and [`Registry`](crate::Registry) writes
//! (`incr`, `add`, `observe`, `set_gauge`, `record_wall`, `time`) take
//! only these handles: a metric the catalog does not declare cannot be
//! written, and a typo is an unknown identifier. Each handle carries its
//! dotted name and a dense index, the position of its series in every
//! registry, so a write finds its metric without hashing or comparing
//! the name.
//!
//! Entries are declared in name order and indexed in that order, which
//! is the order [`Registry::counters`](crate::Registry::counters) and
//! the renderers iterate in. The unit tests below hold the rest of the
//! discipline: names are unique and stay unique once sanitized for
//! Prometheus, every family in the committed `results/telemetry.prom`
//! baseline names an entry, each constant is the SCREAMING_SNAKE form
//! of its dotted name, and each is referenced outside this file, so a
//! retired metric leaves no residue.
//!
//! Reads ([`Registry::counter`](crate::Registry::counter) and the like)
//! also accept the dotted name: the accounting tests deliberately spell
//! names out to cross-check these values.

use crate::Metric;

/// Declare the catalog: one `pub const` per entry, indexed in
/// declaration order, plus [`ALL`].
macro_rules! catalog {
    ($($(#[doc = $doc:literal])* $ident:ident = $name:literal;)*) => {
        /// Declaration positions, the handles' indices.
        #[allow(
            non_camel_case_types,
            clippy::upper_case_acronyms,
            reason = "the variants reuse the constants' SCREAMING_CASE names"
        )]
        enum Index {
            $($ident,)*
        }

        $(
            $(#[doc = $doc])*
            pub const $ident: Metric = Metric {
                index: Index::$ident as u16,
                name: $name,
            };
        )*

        /// Every entry, in name (and index) order.
        pub const ALL: &[Metric] = &[$($ident),*];

        /// Each entry's constant name, for the naming and liveness tests.
        #[cfg(test)]
        const IDENTS: &[&str] = &[$(stringify!($ident)),*];
    };
}

catalog! {
    // --- netsim: CDN edge cache ---------------------------------------

    /// CDN edge-cache hits, by edge region.
    CDN_EDGE_HIT = "cdn.edge.hit";
    /// CDN edge-cache misses, by edge region.
    CDN_EDGE_MISS = "cdn.edge.miss";
    /// Origin fetches issued on an edge miss, by edge region.
    CDN_ORIGIN_FETCH = "cdn.origin.fetch";
    /// Origin fetches that returned HTTP 200, by edge region.
    CDN_ORIGIN_SUCCESS = "cdn.origin.success";

    // --- criterion: benchmark samples ---------------------------------

    /// Per-iteration benchmark sample times (ns), by benchmark name.
    CRITERION_SAMPLE_NS = "criterion.sample_ns";

    // --- opsmon: responder health-state machine -----------------------

    /// Worst scheduled retry backoff across Failed subjects, in seconds
    /// (gauge, excluded from artifacts).
    HEALTH_BACKOFF_SECS = "health.backoff_secs";
    /// Subjects currently Degraded (gauge, excluded from artifacts).
    HEALTH_STATE_DEGRADED = "health.state.degraded";
    /// Subjects currently Failed (gauge, excluded from artifacts).
    HEALTH_STATE_FAILED = "health.state.failed";
    /// Subjects currently Healthy (gauge, excluded from artifacts).
    HEALTH_STATE_HEALTHY = "health.state.healthy";
    /// Health-state transitions observed by the per-responder tracker,
    /// by edge label (`healthy_degraded`, `degraded_failed`,
    /// `degraded_healthy`, `failed_healthy`). Deterministic (folded
    /// from probe classifications in simulated time), so
    /// artifact-grade.
    HEALTH_TRANSITIONS = "health.transitions";

    // --- bench: allocator instrumentation gauges ----------------------

    /// Total allocation count reported by the counting allocator
    /// (`--features mem-profile` only).
    MEM_ALLOC_COUNT = "mem.alloc_count";
    /// Peak bytes outstanding reported by the counting allocator
    /// (`--features mem-profile` only).
    MEM_PEAK_BYTES = "mem.peak_bytes";

    // --- netsim: transport requests and failure taxonomy --------------

    /// Failures attributed to a shared-infrastructure group outage, by
    /// group name.
    NET_FAILURE_BY_GROUP = "net.failure.by_group";
    /// DNS resolution failures (NXDOMAIN, unregistered host), by region.
    NET_FAILURE_DNS = "net.failure.dns";
    /// Handler-returned non-200 statuses outside the injected taxonomy,
    /// by region.
    NET_FAILURE_HTTP = "net.failure.http";
    /// Injected HTTP 4xx outcomes, by region.
    NET_FAILURE_HTTP4XX = "net.failure.http4xx";
    /// Injected HTTP 5xx outcomes, by region.
    NET_FAILURE_HTTP5XX = "net.failure.http5xx";
    /// TCP connect failures from injected outages, by region.
    NET_FAILURE_TCP = "net.failure.tcp";
    /// HTTPS endpoints presenting an invalid certificate, by region.
    NET_FAILURE_TLS = "net.failure.tls";
    /// Request latency histogram (ms), by region.
    NET_LATENCY_MS = "net.latency_ms";
    /// Outage activations, by host (or `group:<name>`).
    NET_OUTAGE_ACTIVATION = "net.outage.activation";
    /// Every HTTP transaction entering the simulated network, by
    /// vantage region.
    NET_REQUEST = "net.request";

    // --- ocsp: responder engine and client validation -----------------

    /// Signed-response cache outcomes on the responder request path
    /// (`hit` / `miss` / `window_sign`).
    OCSP_RESPONDER_CACHE = "ocsp.responder.cache";
    /// Fault-profile activations in the responder engine, by fault
    /// label.
    OCSP_RESPONDER_FAULT = "ocsp.responder.fault";
    /// Signature-verification cache outcomes in client-side validation
    /// (`hit` / `miss`).
    OCSP_VALIDATE_SIGCACHE = "ocsp.validate.sigcache";

    // --- ocspd: the live service tier ---------------------------------

    /// OCSP requests served over the live `POST /ocsp` socket path, by
    /// route label. Deterministic given the request sequence (the
    /// live-smoke job replays it offline for byte comparison).
    OCSPD_REQUESTS = "ocspd.requests";
    /// Live `GET /health` scrapes served (gauge, excluded from
    /// artifacts).
    OCSPD_SCRAPES_HEALTH = "ocspd.scrapes.health";
    /// Live `GET /metrics` scrapes served (gauge — scrape counts are
    /// operational, never part of the equality-gated exposition).
    OCSPD_SCRAPES_METRICS = "ocspd.scrapes.metrics";

    // --- scanner: the four measurement pipelines, and the wall-clock
    // --- merge spans (excluded from artifacts) ------------------------

    /// Wall time of the Alexa1M scan's shard-merge phase.
    SCAN_ALEXA1M_MERGE = "scan.alexa1m.merge";
    /// Alexa1M persistent domains accumulated, by shard label.
    SCAN_ALEXA1M_PERSISTENT_DOMAINS = "scan.alexa1m.persistent_domains";
    /// Alexa1M responders evaluated, by shard label.
    SCAN_ALEXA1M_RESPONDERS_EVALUATED = "scan.alexa1m.responders_evaluated";
    /// CDN-perspective log lookups, by outcome label.
    SCAN_CDN_LOOKUPS = "scan.cdn.lookups";
    /// CRL fetch outcomes in the consistency study (`ok` / `err`).
    SCAN_CONSISTENCY_CRL_FETCH = "scan.consistency.crl_fetch";
    /// Wall time of the consistency study's shard-merge phase.
    SCAN_CONSISTENCY_MERGE = "scan.consistency.merge";
    /// Consistency-study probes sent, by responder label.
    SCAN_CONSISTENCY_PROBES = "scan.consistency.probes";
    /// Consistency-study validation outcomes, by outcome label.
    SCAN_CONSISTENCY_VALIDATE = "scan.consistency.validate";
    /// Wall time of the hourly scan's shard-merge phase.
    SCAN_HOURLY_MERGE = "scan.hourly.merge";
    /// Hourly-scan probes sent, by responder label.
    SCAN_HOURLY_PROBES = "scan.hourly.probes";
    /// Hourly-scan rounds executed, by responder label.
    SCAN_HOURLY_ROUNDS = "scan.hourly.rounds";
    /// Hourly-scan validation outcomes, by outcome label.
    SCAN_HOURLY_VALIDATE = "scan.hourly.validate";

    // --- webserver: stapling behavior models --------------------------

    /// Staple served from the warm cache, by server kind.
    WEBSERVER_CACHE_HIT = "webserver.cache.hit";
    /// Connection arrived with a cold/expired cache, by server kind.
    WEBSERVER_CACHE_MISS = "webserver.cache.miss";
    /// Background (non-blocking) OCSP fetches, by server kind.
    WEBSERVER_FETCH_BACKGROUND = "webserver.fetch.background";
    /// Synchronous (handshake-pausing) OCSP fetches, by server kind.
    WEBSERVER_FETCH_SYNC = "webserver.fetch.sync";
    /// Scheduled prefetches ahead of expiry, by server kind.
    WEBSERVER_PREFETCH = "webserver.prefetch";
    /// Refresh intervals clamped to the responder's validity window, by
    /// server kind.
    WEBSERVER_REFRESH_CLAMPED = "webserver.refresh.clamped";
    /// Cached staples dropped (expired or evicted), by server kind.
    WEBSERVER_STAPLE_DROP = "webserver.staple.drop";
    /// Staples installed into the server cache, by server kind.
    WEBSERVER_STAPLE_INSTALL = "webserver.staple.install";
    /// Connections served with no staple available, by server kind.
    WEBSERVER_STAPLE_NONE = "webserver.staple.none";
    /// Error/stale responses rejected instead of installed (Ideal
    /// server only), by server kind.
    WEBSERVER_STAPLE_REJECT_ERROR = "webserver.staple.reject_error";
    /// Old staples retained after a failed refresh, by server kind.
    WEBSERVER_STAPLE_RETAIN = "webserver.staple.retain";
}

/// The entry named `name`, if the catalog declares one.
pub fn by_name(name: &str) -> Option<Metric> {
    ALL.binary_search_by(|m| m.name().cmp(name))
        .ok()
        .map(|i| ALL[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::sanitize_metric;
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn read(relative: &str) -> String {
        let path = workspace_root().join(relative);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    #[test]
    fn entries_are_sorted_indexed_and_resolvable() {
        for (i, metric) in ALL.iter().enumerate() {
            assert_eq!(metric.index(), i, "{}", metric.name());
            assert_eq!(by_name(metric.name()), Some(*metric));
        }
        for pair in ALL.windows(2) {
            assert!(
                pair[0].name() < pair[1].name(),
                "`{}` is declared before `{}`; keep the catalog in name order",
                pair[0].name(),
                pair[1].name()
            );
        }
        assert_eq!(by_name("not.declared"), None);
    }

    #[test]
    fn names_are_dotted_lowercase_and_unique_once_sanitized() {
        let mut families = BTreeSet::new();
        for metric in ALL {
            let name = metric.name();
            assert!(
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "unexpected metric name shape: {name}"
            );
            assert!(
                families.insert(sanitize_metric(name)),
                "`{name}` collides with another entry once sanitized for Prometheus"
            );
        }
    }

    #[test]
    fn constants_are_the_screaming_form_of_their_names() {
        for (metric, ident) in ALL.iter().zip(IDENTS) {
            assert_eq!(metric.name().to_ascii_uppercase().replace('.', "_"), *ident);
        }
    }

    #[test]
    fn the_prom_baseline_names_only_catalog_entries() {
        let baseline = read("results/telemetry.prom");
        let mut families = 0;
        for line in baseline.lines() {
            let Some((_, dotted)) = line
                .strip_prefix("# HELP ")
                .and_then(|rest| rest.split_once(' '))
            else {
                continue;
            };
            families += 1;
            assert!(
                by_name(dotted).is_some(),
                "baseline family \"{dotted}\" is not in the catalog; declare it or retire the family"
            );
        }
        assert!(families > 0, "the baseline declares no families");
    }

    /// Every `.rs` file under `dir`, skipping build output.
    fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    sources(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn every_entry_is_referenced_outside_the_catalog() {
        let root = workspace_root();
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
            sources(&root.join(dir), &mut files);
        }
        let this_file = root.join("crates/telemetry/src/catalog.rs");
        let mut words = BTreeSet::new();
        for file in files.iter().filter(|f| **f != this_file) {
            let text = fs::read_to_string(file).expect("source files are readable");
            words.extend(
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .map(str::to_owned),
            );
        }
        for ident in IDENTS {
            assert!(
                words.contains(*ident),
                "catalog entry `{ident}` is never referenced; delete it"
            );
        }
    }
}
