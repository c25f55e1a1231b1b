//! The host registry and HTTP dispatch.
//!
//! The simulated Internet is split in two layers so scan shards can run
//! in parallel:
//!
//! - [`Topology`] is the immutable wiring: hosts, regions,
//!   infrastructure groups, outage schedules, and *handler factories*
//!   (recipes for building a host's request handler). Once built it is
//!   shared read-only behind an `Arc` by any number of worlds.
//! - [`World`] is one mutable view: its own lazily-instantiated
//!   handlers (responder caches and the like live here) and its own DNS
//!   cache. Two worlds over the same topology evolve independently —
//!   exactly what a per-shard scan executor needs.
//!
//! [`World::http_post`] walks the full request path — DNS, outage
//! checks (host- and group-level), latency, handler dispatch. Along the
//! way it records deterministic telemetry into the world's
//! [`Registry`]: per-region failure counts by kind, per-group failure
//! counts, and outage-schedule activations. Per-shard worlds hand their
//! registry back via [`World::take_telemetry`] so pipelines can merge
//! them in canonical shard order.

use crate::latency::http_latency_ms;
use crate::outage::{first_active, FailureKind, Outage};
use crate::region::Region;
use asn1::Time;
use simcrypto::HmacSha256;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{catalog, Registry};

/// A boxed request handler: `(path, body, now, client_region, telemetry)
/// -> (status, body)`. The handler may record its own events (e.g.
/// responder fault-profile triggers) into the world's registry. The
/// reply body is a shared buffer, so a handler that serves the same
/// bytes again (a responder's signed-response cache) shares the buffer
/// it holds instead of copying it.
pub type Handler =
    Box<dyn FnMut(&str, &[u8], Time, Region, &mut Registry) -> (u16, Arc<[u8]>) + Send>;

/// A recipe for building a host's handler. Stored in the shared
/// [`Topology`] so every [`World`] can instantiate its own private
/// handler (and therefore its own responder state).
pub type HandlerFactory = Box<dyn Fn() -> Handler + Send + Sync>;

/// How an HTTP transaction ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpOutcome {
    /// HTTP 200 with a body, as the handler shared it.
    Ok(Arc<[u8]>),
    /// A non-200 HTTP status (body discarded; the study only needs the
    /// code).
    HttpError(u16),
    /// DNS resolution failed.
    DnsFailure,
    /// TCP connection failed.
    ConnectFailure,
    /// TLS failure (invalid server certificate on an HTTPS URL).
    TlsFailure,
}

impl HttpOutcome {
    /// The paper's success criterion: "a request that resulted in the
    /// server responding with HTTP status code 200" (§5.2).
    pub fn is_success(&self) -> bool {
        matches!(self, HttpOutcome::Ok(_))
    }
}

/// The outcome plus timing of one transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResult {
    /// What happened.
    pub outcome: HttpOutcome,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
}

struct HostSpec {
    region: Region,
    group: Option<String>,
    outages: Vec<Outage>,
    factory: Option<HandlerFactory>,
    /// Server-side processing time per request, ms.
    server_time_ms: f64,
}

/// The immutable network wiring: hosts, groups, outage schedules, and
/// handler factories. Build once, share behind an `Arc` across worlds.
pub struct Topology {
    /// The latency-jitter PRF, keyed with the topology seed.
    jitter: HmacSha256,
    hosts: HashMap<String, HostSpec>,
    group_outages: HashMap<String, Vec<Outage>>,
}

impl Topology {
    /// A fresh topology with a latency seed.
    pub fn new(seed: u64) -> Topology {
        Topology {
            jitter: HmacSha256::new(&seed.to_be_bytes()),
            hosts: HashMap::new(),
            group_outages: HashMap::new(),
        }
    }

    /// Register a host whose handler is built on demand, per world.
    /// `group` ties hosts into shared infrastructure — a group outage
    /// takes all members down together (the Comodo CNAME/shared-IP
    /// episode).
    pub fn register(
        &mut self,
        hostname: &str,
        region: Region,
        group: Option<&str>,
        factory: HandlerFactory,
    ) {
        self.insert(hostname, region, group, Some(factory));
    }

    fn insert(
        &mut self,
        hostname: &str,
        region: Region,
        group: Option<&str>,
        factory: Option<HandlerFactory>,
    ) {
        self.hosts.insert(
            hostname.to_string(),
            HostSpec {
                region,
                group: group.map(str::to_string),
                outages: Vec::new(),
                factory,
                server_time_ms: 5.0,
            },
        );
    }

    /// Whether a hostname is registered.
    pub fn knows_host(&self, hostname: &str) -> bool {
        self.hosts.contains_key(hostname)
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Attach an outage to one host.
    ///
    /// # Panics
    ///
    /// Panics if the host is unknown (scenario-script bug).
    pub fn add_outage(&mut self, hostname: &str, outage: Outage) {
        self.hosts
            .get_mut(hostname)
            .unwrap_or_else(|| panic!("unknown host {hostname}"))
            .outages
            .push(outage);
    }

    /// Attach an outage to every member of an infrastructure group.
    pub fn add_group_outage(&mut self, group: &str, outage: Outage) {
        self.group_outages
            .entry(group.to_string())
            .or_default()
            .push(outage);
    }

    /// Members of a group.
    pub fn group_members(&self, group: &str) -> Vec<String> {
        let mut members: Vec<String> = self
            .hosts // detlint::allow(unordered-iter): the collected names are sorted below, so hash order never reaches a caller
            .iter()
            .filter(|(_, h)| h.group.as_deref() == Some(group))
            .map(|(name, _)| name.clone())
            .collect();
        members.sort();
        members
    }
}

/// One mutable view over a shared [`Topology`]: private handler
/// instances and a private DNS cache.
pub struct World {
    topo: Arc<Topology>,
    /// This world's state for each host it has contacted (or had a
    /// handler registered for), keyed by hostname and looked up by
    /// `&str`, so only first contact allocates.
    hosts: HashMap<String, HostState>,
    /// Deterministic event counters for this world (one per shard).
    telemetry: Registry,
}

/// One world's private state for one host.
#[derive(Default)]
struct HostState {
    /// Bit `r` is set once client region `r` has resolved the host
    /// (warm-cache latency from then on).
    resolved: u8,
    /// The handler: registered directly, or built from the topology's
    /// factory on first dispatch.
    handler: Option<Handler>,
}

impl World {
    /// A fresh world over its own fresh topology.
    pub fn new(seed: u64) -> World {
        World::from_topology(Arc::new(Topology::new(seed)))
    }

    /// A world over an existing (possibly shared) topology. Handler
    /// state and DNS cache start empty and evolve independently of any
    /// sibling world.
    pub fn from_topology(topo: Arc<Topology>) -> World {
        World {
            topo,
            hosts: HashMap::new(),
            telemetry: Registry::new(),
        }
    }

    /// This world's telemetry registry.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Mutable access for callers recording world-adjacent events.
    pub fn telemetry_mut(&mut self) -> &mut Registry {
        &mut self.telemetry
    }

    /// Take the accumulated telemetry, leaving an empty registry (used
    /// by per-shard pipelines handing their registry to the merge).
    pub fn take_telemetry(&mut self) -> Registry {
        std::mem::take(&mut self.telemetry)
    }

    /// The shared topology (clone the `Arc` to build sibling worlds).
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    fn topo_mut(&mut self) -> &mut Topology {
        Arc::get_mut(&mut self.topo)
            .expect("cannot mutate a World whose Topology is shared with other worlds")
    }

    /// Register a host with a ready-made handler (single-world usage;
    /// sibling worlds of a shared topology cannot rebuild it — use
    /// [`Topology::register`] with a factory for that).
    pub fn register(
        &mut self,
        hostname: &str,
        region: Region,
        group: Option<&str>,
        handler: Handler,
    ) {
        self.topo_mut().insert(hostname, region, group, None);
        self.hosts.entry(hostname.to_string()).or_default().handler = Some(handler);
    }

    /// Whether a hostname is registered.
    pub fn knows_host(&self, hostname: &str) -> bool {
        self.topo.knows_host(hostname)
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.topo.host_count()
    }

    /// Attach an outage to one host (requires sole ownership of the
    /// topology; see [`Topology::add_outage`]).
    ///
    /// # Panics
    ///
    /// Panics if the host is unknown (scenario-script bug).
    pub fn add_outage(&mut self, hostname: &str, outage: Outage) {
        self.topo_mut().add_outage(hostname, outage);
    }

    /// Attach an outage to every member of an infrastructure group.
    pub fn add_group_outage(&mut self, group: &str, outage: Outage) {
        self.topo_mut().add_group_outage(group, outage);
    }

    /// Members of a group.
    pub fn group_members(&self, group: &str) -> Vec<String> {
        self.topo.group_members(group)
    }

    /// Perform an HTTP POST of `body` to `url` from `client` at `now`:
    /// DNS, outage checks, latency draw, handler dispatch and telemetry
    /// all run synchronously, and the finished result comes back with
    /// its simulated latency.
    pub fn http_post(&mut self, client: Region, url: &str, body: &[u8], now: Time) -> HttpResult {
        self.telemetry.incr(catalog::NET_REQUEST, client.label());
        let (scheme, hostname, path) = match split_url(url) {
            Some(parts) => parts,
            None => {
                self.telemetry
                    .incr(catalog::NET_FAILURE_DNS, client.label());
                return HttpResult {
                    outcome: HttpOutcome::DnsFailure,
                    latency_ms: 0.0,
                };
            }
        };

        let Some(host) = self.topo.hosts.get(hostname) else {
            // Unregistered host: NXDOMAIN after a resolver round trip.
            self.telemetry
                .incr(catalog::NET_FAILURE_DNS, client.label());
            return HttpResult {
                outcome: HttpOutcome::DnsFailure,
                latency_ms: 30.0,
            };
        };

        let state = match self.hosts.get_mut(hostname) {
            Some(state) => state,
            None => self.hosts.entry(hostname.to_string()).or_default(),
        };
        let region_bit = 1u8 << client as u8;
        let cold_dns = state.resolved & region_bit == 0;
        state.resolved |= region_bit;
        let latency = http_latency_ms(
            &self.topo.jitter,
            hostname,
            client,
            host.region,
            now,
            host.server_time_ms,
        );
        let latency_ms = if cold_dns {
            latency.cold_ms
        } else {
            latency.warm_ms
        };

        // Failure injection: host outages first, then group outages.
        let host_hit = first_active(&host.outages, now, client);
        let group_hit = host
            .group
            .as_ref()
            .and_then(|g| self.topo.group_outages.get(g))
            .and_then(|outages| first_active(outages, now, client));
        let failure = host_hit.or(group_hit).map(|o| o.kind);
        if let Some(kind) = failure {
            self.telemetry.incr(kind.metric_name(), client.label());
            if let Some(group) = &host.group {
                self.telemetry.incr(catalog::NET_FAILURE_BY_GROUP, group);
            }
            let activation = if host_hit.is_some() {
                hostname.to_string()
            } else {
                format!("group:{}", host.group.as_deref().unwrap_or("?"))
            };
            self.telemetry
                .incr(catalog::NET_OUTAGE_ACTIVATION, &activation);
            let outcome = match kind {
                FailureKind::DnsNxDomain => HttpOutcome::DnsFailure,
                FailureKind::TcpConnect => HttpOutcome::ConnectFailure,
                FailureKind::Http4xx | FailureKind::Http5xx => {
                    HttpOutcome::HttpError(kind.http_status().unwrap())
                }
                FailureKind::TlsBadCertificate => HttpOutcome::TlsFailure,
            };
            // DNS failures are fast; the rest pay partial latency.
            let latency_ms = match kind {
                FailureKind::DnsNxDomain => 30.0,
                _ => latency_ms * 0.6,
            };
            return HttpResult {
                outcome,
                latency_ms,
            };
        }

        // An https:// URL with TLS trouble is modeled via TlsBadCertificate
        // outages; a plain handler call otherwise. (All real OCSP URLs are
        // http://, but the paper found one https:// responder with an
        // invalid certificate.)
        let _ = scheme;

        // This world's private handler instance, built from the shared
        // factory on first contact.
        let handler = state.handler.get_or_insert_with(|| {
            let factory = host
                .factory
                .as_ref()
                .unwrap_or_else(|| panic!("host {hostname} has neither a handler nor a factory"));
            factory()
        });
        let (status, reply) = handler(path, body, now, client, &mut self.telemetry);
        let outcome = if status == 200 {
            HttpOutcome::Ok(reply)
        } else {
            self.telemetry
                .incr(catalog::NET_FAILURE_HTTP, client.label());
            HttpOutcome::HttpError(status)
        };
        // Simulated warm-path (DNS-cached) latency, per vantage point.
        // Model-derived and hash-jittered, never wall clock. The cold-DNS
        // surcharge is excluded on purpose: DNS cache state is per-world
        // (one world per shard chunk), so including it would make the
        // histogram depend on the chunk plan and break the exported
        // telemetry's chunking invariance.
        self.telemetry.observe(
            catalog::NET_LATENCY_MS,
            client.label(),
            latency.warm_ms as u64,
        );
        HttpResult {
            outcome,
            latency_ms,
        }
    }
}

/// Split a URL into (scheme, host, path).
fn split_url(url: &str) -> Option<(&str, &str, &str)> {
    let (scheme, rest) = url.split_once("://")?;
    if scheme != "http" && scheme != "https" {
        return None;
    }
    match rest.split_once('/') {
        Some((host, path_rest)) if !host.is_empty() => {
            // Path pointer into the original string, keeping the slash.
            let path_start = url.len() - path_rest.len() - 1;
            Some((scheme, host, &url[path_start..]))
        }
        None if !rest.is_empty() => Some((scheme, rest, "/")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outage::RegionScope;

    fn t(h: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + h * 3_600
    }

    fn echo_handler() -> Handler {
        Box::new(|path, body, _, _, _| {
            let mut reply = path.as_bytes().to_vec();
            reply.push(b'|');
            reply.extend_from_slice(body);
            (200, reply.into())
        })
    }

    fn world_with_host() -> World {
        let mut w = World::new(7);
        w.register(
            "ocsp.ca.test",
            Region::Virginia,
            Some("ca-infra"),
            echo_handler(),
        );
        w
    }

    #[test]
    fn successful_post_reaches_handler() {
        let mut w = world_with_host();
        let r = w.http_post(Region::Paris, "http://ocsp.ca.test/sub", b"req", t(0));
        assert_eq!(r.outcome, HttpOutcome::Ok(b"/sub|req"[..].into()));
        assert!(r.latency_ms > 100.0); // trans-Atlantic
    }

    #[test]
    fn latency_bits_are_pinned() {
        // Latencies and the `net.latency_ms` histogram are artifacts:
        // a change to the draw must show up here first.
        let mut w = world_with_host();
        let cold = w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(3));
        let warm = w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(3));
        let observed = w
            .telemetry()
            .histogram(catalog::NET_LATENCY_MS, Region::Paris.label())
            .map(|h| (h.count(), h.sum()));
        assert_eq!(
            (
                cold.latency_ms.to_bits(),
                warm.latency_ms.to_bits(),
                observed
            ),
            (0x406a_3e55_b7d9_ee1a, 0x4065_3e55_b7d9_ee1a, Some((2, 338)))
        );
    }

    #[test]
    fn unknown_host_is_dns_failure() {
        let mut w = world_with_host();
        let r = w.http_post(Region::Paris, "http://missing.test/", b"", t(0));
        assert_eq!(r.outcome, HttpOutcome::DnsFailure);
    }

    #[test]
    fn bad_urls_fail() {
        let mut w = world_with_host();
        for url in ["not a url", "ftp://x/", "http://"] {
            let r = w.http_post(Region::Paris, url, b"", t(0));
            assert_eq!(r.outcome, HttpOutcome::DnsFailure, "{url}");
        }
    }

    #[test]
    fn url_without_path_defaults_to_root() {
        let mut w = world_with_host();
        let r = w.http_post(Region::Paris, "http://ocsp.ca.test", b"x", t(0));
        assert_eq!(r.outcome, HttpOutcome::Ok(b"/|x"[..].into()));
    }

    #[test]
    fn host_outage_fails_requests_in_window_only() {
        let mut w = world_with_host();
        w.add_outage(
            "ocsp.ca.test",
            Outage::transient(t(19), 2 * 3_600, FailureKind::TcpConnect),
        );
        assert!(w
            .http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(18))
            .outcome
            .is_success());
        assert_eq!(
            w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(19))
                .outcome,
            HttpOutcome::ConnectFailure
        );
        assert!(w
            .http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(21))
            .outcome
            .is_success());
    }

    #[test]
    fn regional_outage_spares_other_regions() {
        let mut w = world_with_host();
        w.add_outage(
            "ocsp.ca.test",
            Outage::regional(t(0), 3_600, vec![Region::SaoPaulo], FailureKind::Http4xx),
        );
        assert_eq!(
            w.http_post(Region::SaoPaulo, "http://ocsp.ca.test/", b"", t(0))
                .outcome,
            HttpOutcome::HttpError(404)
        );
        assert!(w
            .http_post(Region::Virginia, "http://ocsp.ca.test/", b"", t(0))
            .outcome
            .is_success());
    }

    #[test]
    fn group_outage_hits_all_members() {
        let mut w = World::new(7);
        for name in [
            "ocsp1.comodo.test",
            "ocsp2.comodo.test",
            "ocsp3.comodo.test",
        ] {
            w.register(name, Region::Virginia, Some("comodo"), echo_handler());
        }
        w.register("ocsp.other.test", Region::Virginia, None, echo_handler());
        w.add_group_outage(
            "comodo",
            Outage::transient(t(19), 2 * 3_600, FailureKind::TcpConnect),
        );
        for name in [
            "ocsp1.comodo.test",
            "ocsp2.comodo.test",
            "ocsp3.comodo.test",
        ] {
            let r = w.http_post(Region::Oregon, &format!("http://{name}/"), b"", t(20));
            assert_eq!(r.outcome, HttpOutcome::ConnectFailure, "{name}");
        }
        assert!(w
            .http_post(Region::Oregon, "http://ocsp.other.test/", b"", t(20))
            .outcome
            .is_success());
        assert_eq!(w.group_members("comodo").len(), 3);
    }

    #[test]
    fn persistent_regional_failure() {
        // The wellsfargo scenario: a responder 404ing only from São Paulo.
        let mut w = world_with_host();
        w.add_outage(
            "ocsp.ca.test",
            Outage::persistent(
                t(0),
                RegionScope::Only(vec![Region::SaoPaulo]),
                FailureKind::Http4xx,
            ),
        );
        for h in [0, 100, 2000] {
            assert!(!w
                .http_post(Region::SaoPaulo, "http://ocsp.ca.test/", b"", t(h))
                .outcome
                .is_success());
            assert!(w
                .http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(h))
                .outcome
                .is_success());
        }
    }

    #[test]
    fn dns_cache_warms_up() {
        let mut w = world_with_host();
        let first = w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(0));
        let second = w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(0));
        assert!(second.latency_ms < first.latency_ms);
    }

    #[test]
    fn non_200_from_handler_is_http_error() {
        let mut w = World::new(1);
        w.register(
            "err.test",
            Region::Paris,
            None,
            Box::new(|_, _, _, _, _| (500, Arc::from(&[][..]))),
        );
        let r = w.http_post(Region::Paris, "http://err.test/", b"", t(0));
        assert_eq!(r.outcome, HttpOutcome::HttpError(500));
        assert!(!r.outcome.is_success());
    }

    #[test]
    fn shared_topology_worlds_are_independent() {
        let mut topo = Topology::new(7);
        // A stateful factory-built handler: counts requests per world.
        topo.register(
            "ocsp.ca.test",
            Region::Virginia,
            None,
            Box::new(|| {
                let mut count = 0u32;
                Box::new(move |_, _, _, _, _| {
                    count += 1;
                    (200, count.to_be_bytes().into())
                })
            }),
        );
        let topo = Arc::new(topo);
        let mut a = World::from_topology(topo.clone());
        let mut b = World::from_topology(topo.clone());

        let post = |w: &mut World| match w
            .http_post(Region::Virginia, "http://ocsp.ca.test/", b"", t(0))
            .outcome
        {
            HttpOutcome::Ok(body) => u32::from_be_bytes(body[..].try_into().unwrap()),
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(post(&mut a), 1);
        assert_eq!(post(&mut a), 2);
        // b has its own handler instance and its own DNS cache.
        assert_eq!(post(&mut b), 1);
        let cold = b.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(0));
        let warm = b.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(0));
        assert!(warm.latency_ms < cold.latency_ms);
    }

    #[test]
    fn failures_and_outage_activations_are_counted() {
        let mut w = world_with_host();
        w.add_outage(
            "ocsp.ca.test",
            Outage::transient(t(19), 2 * 3_600, FailureKind::TcpConnect),
        );
        w.add_group_outage(
            "ca-infra",
            Outage::transient(t(30), 3_600, FailureKind::Http5xx),
        );
        w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(0)); // ok
        w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(19)); // host outage
        w.http_post(Region::Seoul, "http://ocsp.ca.test/", b"", t(20)); // host outage
        w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(30)); // group outage
        w.http_post(Region::Paris, "http://nxdomain.test/", b"", t(0)); // unknown host

        let reg = w.telemetry();
        assert_eq!(reg.counter_total("net.request"), 5);
        assert_eq!(reg.counter("net.failure.tcp", "Paris"), 1);
        assert_eq!(reg.counter("net.failure.tcp", "Seoul"), 1);
        assert_eq!(reg.counter("net.failure.http5xx", "Paris"), 1);
        assert_eq!(reg.counter("net.failure.dns", "Paris"), 1);
        assert_eq!(reg.counter("net.failure.by_group", "ca-infra"), 3);
        assert_eq!(reg.counter("net.outage.activation", "ocsp.ca.test"), 2);
        assert_eq!(reg.counter("net.outage.activation", "group:ca-infra"), 1);

        let taken = w.take_telemetry();
        assert_eq!(taken.counter_total("net.request"), 5);
        assert!(w.telemetry().is_empty());
    }

    #[test]
    fn handler_status_errors_are_counted() {
        let mut w = World::new(1);
        w.register(
            "err.test",
            Region::Paris,
            None,
            Box::new(|_, _, _, _, reg: &mut Registry| {
                reg.incr("handler.custom", "err.test");
                (500, Arc::from(&[][..]))
            }),
        );
        w.http_post(Region::Paris, "http://err.test/", b"", t(0));
        assert_eq!(w.telemetry().counter("net.failure.http", "Paris"), 1);
        assert_eq!(w.telemetry().counter("handler.custom", "err.test"), 1);
    }

    #[test]
    #[should_panic(expected = "Topology is shared")]
    fn mutating_a_shared_topology_panics() {
        let mut w = world_with_host();
        let _sibling = World::from_topology(w.topology().clone());
        w.add_outage(
            "ocsp.ca.test",
            Outage::transient(t(0), 60, FailureKind::TcpConnect),
        );
    }

    #[test]
    fn identical_worlds_over_one_topology_agree_byte_for_byte() {
        let mut topo = Topology::new(42);
        topo.register(
            "ocsp.ca.test",
            Region::Virginia,
            Some("g"),
            Box::new(echo_handler),
        );
        topo.add_outage(
            "ocsp.ca.test",
            Outage::transient(t(5), 3_600, FailureKind::Http5xx),
        );
        let topo = Arc::new(topo);
        let mut a = World::from_topology(topo.clone());
        let mut b = World::from_topology(topo);
        for h in 0..10 {
            let ra = a.http_post(Region::Seoul, "http://ocsp.ca.test/x", b"q", t(h));
            let rb = b.http_post(Region::Seoul, "http://ocsp.ca.test/x", b"q", t(h));
            assert_eq!(ra, rb);
        }
    }
}
