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
//!   handlers (responder caches and the like live here). Two worlds
//!   over the same topology evolve independently — exactly what a
//!   per-shard scan executor needs.
//!
//! Hosts live in a `Vec` behind one name index, and each world keeps
//! its handlers in a `Vec` at the same positions. [`World::resolve`]
//! turns a URL into a [`Route`] — the host's position and the path —
//! once; [`World::post`] then walks the request path for that route:
//! outage checks (host- and group-level), handler dispatch, latency.
//! [`World::http_post`] is the two in one call. Along the way the
//! world records deterministic telemetry into its [`Registry`]:
//! per-region failure counts by kind, per-group failure counts, and
//! outage-schedule activations. Per-shard worlds hand their registry
//! back via [`World::take_telemetry`] so pipelines can merge them in
//! canonical shard order.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

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

/// The result of one transaction. Its simulated latency goes to the
/// world's `net.latency_ms` histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResult {
    /// What happened.
    pub outcome: HttpOutcome,
}

/// A URL resolved against a topology: the position of the host it names
/// and the path to request, or nothing when the URL is malformed or the
/// host is not registered (both fail as NXDOMAIN). Resolve a target
/// once and [`World::post`] to it many times; a route is meaningful
/// only to worlds over the topology that resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    host: Option<(usize, &'a str)>,
}

struct HostSpec {
    /// The hostname: the latency PRF's input and the host's
    /// outage-activation label.
    name: Arc<str>,
    region: Region,
    /// Position in [`Topology::groups`].
    group: Option<usize>,
    outages: Vec<Outage>,
    factory: Option<HandlerFactory>,
    /// Server-side processing time per request, ms.
    server_time_ms: f64,
}

/// A shared-infrastructure group, with its telemetry labels made once.
struct Group {
    /// The group name, the `net.failure.by_group` label.
    name: Arc<str>,
    /// `group:<name>`, the `net.outage.activation` label.
    activation: Arc<str>,
    outages: Vec<Outage>,
}

/// The immutable network wiring: hosts, groups, outage schedules, and
/// handler factories. Build once, share behind an `Arc` across worlds.
pub struct Topology {
    /// The latency-jitter PRF, keyed with the topology seed.
    jitter: HmacSha256,
    /// Hosts in registration order.
    hosts: Vec<HostSpec>,
    /// Hostname → position in `hosts`.
    index: HashMap<String, usize>,
    groups: Vec<Group>,
}

impl Topology {
    /// A fresh topology with a latency seed.
    pub fn new(seed: u64) -> Topology {
        Topology {
            jitter: HmacSha256::new(&seed.to_be_bytes()),
            hosts: Vec::new(),
            index: HashMap::new(),
            groups: Vec::new(),
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

    /// Add (or replace) a host; returns its position.
    fn insert(
        &mut self,
        hostname: &str,
        region: Region,
        group: Option<&str>,
        factory: Option<HandlerFactory>,
    ) -> usize {
        let spec = HostSpec {
            name: Arc::from(hostname),
            region,
            group: group.map(|g| self.group_index(g)),
            outages: Vec::new(),
            factory,
            server_time_ms: 5.0,
        };
        match self.index.get(hostname) {
            Some(&at) => {
                self.hosts[at] = spec;
                at
            }
            None => {
                self.index.insert(hostname.to_string(), self.hosts.len());
                self.hosts.push(spec);
                self.hosts.len() - 1
            }
        }
    }

    /// The position of group `name`, created on first mention.
    fn group_index(&mut self, name: &str) -> usize {
        if let Some(at) = self.groups.iter().position(|g| &*g.name == name) {
            return at;
        }
        self.groups.push(Group {
            name: Arc::from(name),
            activation: Arc::from(format!("group:{name}")),
            outages: Vec::new(),
        });
        self.groups.len() - 1
    }

    /// Whether a hostname is registered.
    pub fn knows_host(&self, hostname: &str) -> bool {
        self.index.contains_key(hostname)
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
        #[expect(clippy::panic, reason = "an unknown host is a scenario-script bug")]
        let at = *self
            .index
            .get(hostname)
            .unwrap_or_else(|| panic!("unknown host {hostname}"));
        self.hosts[at].outages.push(outage);
    }

    /// Attach an outage to every member of an infrastructure group.
    pub fn add_group_outage(&mut self, group: &str, outage: Outage) {
        let at = self.group_index(group);
        self.groups[at].outages.push(outage);
    }

    /// Members of a group.
    pub fn group_members(&self, group: &str) -> Vec<String> {
        let Some(at) = self.groups.iter().position(|g| &*g.name == group) else {
            return Vec::new();
        };
        let mut members: Vec<String> = self
            .hosts
            .iter()
            .filter(|h| h.group == Some(at))
            .map(|h| h.name.to_string())
            .collect();
        members.sort();
        members
    }
}

/// One mutable view over a shared [`Topology`]: private handler
/// instances and telemetry.
pub struct World {
    topo: Arc<Topology>,
    /// This world's handler for each topology host, at the host's
    /// position: registered directly, or built from the topology's
    /// factory on first dispatch. Empty until then.
    handlers: Vec<Option<Handler>>,
    /// Deterministic event counters for this world (one per shard).
    telemetry: Registry,
}

impl World {
    /// A fresh world over its own fresh topology.
    pub fn new(seed: u64) -> World {
        World::from_topology(Arc::new(Topology::new(seed)))
    }

    /// A world over an existing (possibly shared) topology. Handler
    /// state starts empty and evolves independently of any sibling
    /// world.
    pub fn from_topology(topo: Arc<Topology>) -> World {
        World {
            topo,
            handlers: Vec::new(),
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

    #[expect(clippy::expect_used, reason = "mutators run before the Arc is shared")]
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
        let at = self.topo_mut().insert(hostname, region, group, None);
        self.handlers.resize_with(self.topo.hosts.len(), || None);
        self.handlers[at] = Some(handler);
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

    /// Resolve `url` against this world's topology: split it and look
    /// its host up, once, for any number of [`World::post`] calls.
    pub fn resolve<'a>(&self, url: &'a str) -> Route<'a> {
        Route {
            host: split_url(url).and_then(|(host, path)| Some((*self.topo.index.get(host)?, path))),
        }
    }

    /// Perform an HTTP POST of `body` to `url` from `client` at `now`:
    /// [`World::resolve`], then [`World::post`].
    pub fn http_post(&mut self, client: Region, url: &str, body: &[u8], now: Time) -> HttpResult {
        let route = self.resolve(url);
        self.post(client, &route, body, now)
    }

    /// POST `body` along `route` from `client` at `now`: outage checks,
    /// handler dispatch, latency draw and telemetry all run
    /// synchronously.
    pub fn post(&mut self, client: Region, route: &Route, body: &[u8], now: Time) -> HttpResult {
        self.telemetry.incr(catalog::NET_REQUEST, client.label());
        let Some((at, path)) = route.host else {
            // A malformed URL or an unregistered host: NXDOMAIN.
            self.telemetry
                .incr(catalog::NET_FAILURE_DNS, client.label());
            return HttpResult {
                outcome: HttpOutcome::DnsFailure,
            };
        };
        let host = &self.topo.hosts[at];

        // Failure injection: host outages first, then group outages.
        let group = host.group.map(|g| &self.topo.groups[g]);
        let host_hit = first_active(&host.outages, now, client);
        let group_hit = group.and_then(|g| first_active(&g.outages, now, client));
        if let Some(outage) = host_hit.or(group_hit) {
            let kind = outage.kind;
            self.telemetry.incr(kind.metric(), client.label());
            if let Some(group) = group {
                self.telemetry
                    .incr(catalog::NET_FAILURE_BY_GROUP, &group.name);
            }
            let activation = match (host_hit, group) {
                (None, Some(group)) => &group.activation,
                _ => &host.name,
            };
            self.telemetry
                .incr(catalog::NET_OUTAGE_ACTIVATION, activation);
            let outcome = match kind {
                FailureKind::DnsNxDomain => HttpOutcome::DnsFailure,
                FailureKind::TcpConnect => HttpOutcome::ConnectFailure,
                #[expect(clippy::unwrap_used, reason = "both HTTP kinds carry a status")]
                FailureKind::Http4xx | FailureKind::Http5xx => {
                    HttpOutcome::HttpError(kind.http_status().unwrap())
                }
                FailureKind::TlsBadCertificate => HttpOutcome::TlsFailure,
            };
            return HttpResult { outcome };
        }

        // This world's private handler instance, built from the shared
        // factory on first contact. (An https:// URL with TLS trouble is
        // modeled via TlsBadCertificate outages above; all real OCSP URLs
        // are http://, but the paper found one https:// responder with an
        // invalid certificate.)
        if self.handlers.is_empty() {
            self.handlers.resize_with(self.topo.hosts.len(), || None);
        }
        let handler = self.handlers[at].get_or_insert_with(|| {
            #[expect(clippy::panic, reason = "hosts without a factory have a handler")]
            let factory = host.factory.as_ref().unwrap_or_else(|| {
                panic!("host {} has neither a handler nor a factory", host.name)
            });
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
        // Simulated latency, per vantage point: model-derived and
        // hash-jittered, never wall clock. Only a dispatched request
        // draws one.
        let latency_ms = http_latency_ms(
            &self.topo.jitter,
            &host.name,
            client,
            host.region,
            now,
            host.server_time_ms,
        );
        self.telemetry
            .observe(catalog::NET_LATENCY_MS, client.label(), latency_ms as u64);
        HttpResult { outcome }
    }
}

/// Split an `http://` or `https://` URL into (host, path).
fn split_url(url: &str) -> Option<(&str, &str)> {
    let (scheme, rest) = url.split_once("://")?;
    if scheme != "http" && scheme != "https" {
        return None;
    }
    match rest.split_once('/') {
        Some((host, path_rest)) if !host.is_empty() => {
            // Path pointer into the original string, keeping the slash.
            let path_start = url.len() - path_rest.len() - 1;
            Some((host, &url[path_start..]))
        }
        None if !rest.is_empty() => Some((rest, "/")),
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
        let fastest = w
            .telemetry()
            .histogram(catalog::NET_LATENCY_MS, Region::Paris.label())
            .map(|h| h.min());
        assert!(fastest > Some(100)); // trans-Atlantic
    }

    #[test]
    fn a_route_posts_like_its_url() {
        let mut by_url = world_with_host();
        let mut by_route = world_with_host();
        let route = by_route.resolve("http://ocsp.ca.test/sub");
        for h in 0..3 {
            assert_eq!(
                by_route.post(Region::Seoul, &route, b"q", t(h)),
                by_url.http_post(Region::Seoul, "http://ocsp.ca.test/sub", b"q", t(h))
            );
        }
        for url in ["http://missing.test/", "ftp://ocsp.ca.test/"] {
            let route = by_route.resolve(url);
            assert_eq!(
                by_route.post(Region::Seoul, &route, b"", t(0)).outcome,
                HttpOutcome::DnsFailure
            );
            by_url.http_post(Region::Seoul, url, b"", t(0));
        }
        assert_eq!(by_route.telemetry(), by_url.telemetry());
    }

    #[test]
    fn latency_bits_are_pinned() {
        // Latencies and the `net.latency_ms` histogram are artifacts:
        // a change to the draw must show up here first.
        let mut w = world_with_host();
        w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(3));
        w.http_post(Region::Paris, "http://ocsp.ca.test/", b"", t(3));
        let latency = http_latency_ms(
            &w.topology().jitter,
            "ocsp.ca.test",
            Region::Paris,
            Region::Virginia,
            t(3),
            5.0,
        );
        let observed = w
            .telemetry()
            .histogram(catalog::NET_LATENCY_MS, Region::Paris.label())
            .map(|h| (h.count(), h.sum()));
        assert_eq!(
            (latency.to_bits(), observed),
            (0x4065_3e55_b7d9_ee1a, Some((2, 338)))
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
        // b has its own handler instance.
        assert_eq!(post(&mut b), 1);
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
                reg.incr(catalog::OCSP_RESPONDER_FAULT, "err.test");
                (500, Arc::from(&[][..]))
            }),
        );
        w.http_post(Region::Paris, "http://err.test/", b"", t(0));
        assert_eq!(w.telemetry().counter("net.failure.http", "Paris"), 1);
        assert_eq!(w.telemetry().counter("ocsp.responder.fault", "err.test"), 1);
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
