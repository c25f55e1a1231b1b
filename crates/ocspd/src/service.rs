//! The deterministic service core behind the daemon's routes.
//!
//! Every piece of state is a pure function of the seed and the request
//! sequence: the PKI fixture is generated from a seeded RNG, the clock
//! is simulated (it advances one fixed step per `/ocsp` request and
//! never reads the host's), and all counting goes through
//! [`telemetry::Registry`]. That is what lets the CI live-smoke job
//! assert a *live* scrape byte-for-byte against an in-process replay.

use crate::http::{HttpRequest, HttpResponse};
use asn1::Time;
use ocsp::{CertId, OcspRequest, Responder, ResponderProfile};
use opsmon::{EventLog, HealthMonitor, HealthReport};
use pki::{CertificateAuthority, IssueParams};
use rand::{rngs::StdRng, SeedableRng};
use telemetry::{catalog, Registry};

/// The campaign epoch (2018-04-25T00:00:00Z), shared with the offline
/// studies so live timestamps land on the same simulated timeline.
pub const CAMPAIGN_EPOCH_UNIX: i64 = 1_524_614_400;

/// The health subject for the single backend the daemon fronts.
const BACKEND: &str = "ocsp.live.test";

/// A simulated clock: starts at the campaign epoch and advances a fixed
/// step per `/ocsp` request. Scrapes never advance it, so observing the
/// service does not perturb it.
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    epoch: Time,
    step_secs: i64,
    ticks: i64,
}

impl SimClock {
    /// A clock at `epoch` advancing `step_secs` per tick.
    pub fn new(epoch: Time, step_secs: i64) -> SimClock {
        assert!(step_secs > 0, "the clock must move forward");
        SimClock {
            epoch,
            step_secs,
            ticks: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> Time {
        self.epoch + self.ticks * self.step_secs
    }

    /// Return the current instant, then advance one step.
    pub fn tick(&mut self) -> Time {
        let now = self.now();
        self.ticks += 1;
        now
    }
}

/// A deterministic request sequence shared by the live probe client and
/// the offline replay: `total` requests, every `malformed_every`-th one
/// garbage bytes instead of the canonical DER request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPlan {
    /// Requests to issue.
    pub total: u64,
    /// Every n-th request is garbage (`0` = never) — it drives the
    /// health-state machine through real transitions.
    pub malformed_every: u64,
}

impl RequestPlan {
    /// The body of request `i` (0-based).
    pub fn body(&self, i: u64, canonical: &[u8]) -> Vec<u8> {
        if self.malformed_every > 0 && (i + 1).is_multiple_of(self.malformed_every) {
            b"not-a-der-ocsp-request".to_vec()
        } else {
            canonical.to_vec()
        }
    }
}

/// The service: one CA, one responder, one simulated clock, and the
/// telemetry/health state every route reads or feeds. Health is folded
/// per request, so the state it keeps does not grow with the requests
/// served; only the event log grows, by the events requests cause.
#[derive(Debug, Clone)]
pub struct OcspService {
    ca: CertificateAuthority,
    responder: Responder,
    cert_id: CertId,
    clock: SimClock,
    registry: Registry,
    health: HealthMonitor,
    events: EventLog,
    scrapes_metrics: u64,
    scrapes_health: u64,
}

impl OcspService {
    /// Build the seeded fixture: a root CA, one issued leaf, and a
    /// healthy pre-generated responder (hourly windows, so repeated
    /// requests inside a window exercise the signed-response cache).
    pub fn new(seed: u64) -> OcspService {
        OcspService::with_step(seed, 60)
    }

    /// [`OcspService::new`] with an explicit clock step in seconds.
    pub fn with_step(seed: u64, step_secs: i64) -> OcspService {
        let epoch = Time::from_unix(CAMPAIGN_EPOCH_UNIX);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = CertificateAuthority::new_root(&mut rng, "Live CA", "Root", "ca.test", epoch);
        let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", epoch));
        let cert_id = CertId::for_certificate(&leaf, ca.certificate());
        let responder = Responder::new(BACKEND, ResponderProfile::healthy().pre_generated(3_600));
        OcspService {
            ca,
            responder,
            cert_id,
            clock: SimClock::new(epoch, step_secs),
            registry: Registry::new(),
            health: HealthMonitor::new(),
            events: EventLog::new(),
            scrapes_metrics: 0,
            scrapes_health: 0,
        }
    }

    /// The canonical DER request for the fixture's leaf — what the
    /// probe client POSTs and the README transcript curls.
    pub fn canonical_request(&self) -> Vec<u8> {
        OcspRequest::single(self.cert_id.clone()).to_der()
    }

    /// Dispatch one request to its route.
    pub fn handle(&mut self, request: &HttpRequest) -> HttpResponse {
        match (request.method(), request.path()) {
            ("POST", "/ocsp") => self.handle_ocsp(request.body()),
            ("GET", "/metrics") => {
                self.scrapes_metrics += 1;
                HttpResponse::ok(
                    "text/plain; version=0.0.4; charset=utf-8",
                    self.render_metrics().into_bytes(),
                )
            }
            ("GET", "/health") => {
                self.scrapes_health += 1;
                HttpResponse::ok(
                    "text/plain; charset=utf-8",
                    self.health_report().render_table().into_bytes(),
                )
            }
            (_, "/ocsp") | (_, "/metrics") | (_, "/health") => {
                HttpResponse::error(405, "method not allowed")
            }
            _ => HttpResponse::error(404, "no such route"),
        }
    }

    /// `POST /ocsp`: classify, count, fold into health, sign. The
    /// body is parsed once; the responder answers the parsed request,
    /// and refuses a malformed body on its own raw-bytes path.
    fn handle_ocsp(&mut self, body: &[u8]) -> HttpResponse {
        let at = self.clock.tick();
        let request = OcspRequest::from_der(body).ok();
        let label = if request.is_some() { "ok" } else { "malformed" };
        self.registry.incr(catalog::OCSPD_REQUESTS, label);
        self.health
            .observe(BACKEND, at, request.is_some(), &mut self.events);
        let der = match &request {
            Some(request) => self
                .responder
                .handle_with(&self.ca, request, at, &mut self.registry),
            None => self
                .responder
                .handle_bytes_with(&self.ca, body, at, &mut self.registry)
                .to_vec(),
        };
        HttpResponse::ok("application/ocsp-response", der)
    }

    /// `/ocsp` requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.registry.counter_total(catalog::OCSPD_REQUESTS)
    }

    /// Read-only view of the request-path registry, for harnesses that
    /// want the raw counters (e.g. the bench `serve` leg's cache-hit
    /// rate) without parsing an exposition.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The backend's current health.
    pub fn health_report(&self) -> HealthReport {
        self.health.report()
    }

    /// The event stream so far (health transitions and outage
    /// open/close pairs observed on the `/ocsp` path).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The operational exposition a live `GET /metrics` serves: the
    /// equality-gated render plus the gauge tail (health state, scrape
    /// counts). Renders from a clone so repeated scrapes never
    /// double-export the health counters.
    pub fn render_metrics(&self) -> String {
        let mut snapshot = self.registry.clone();
        self.health_report().export(&mut snapshot);
        snapshot.set_gauge(catalog::OCSPD_SCRAPES_METRICS, self.scrapes_metrics);
        snapshot.set_gauge(catalog::OCSPD_SCRAPES_HEALTH, self.scrapes_health);
        snapshot.to_prometheus_with_gauges()
    }

    /// The equality-gated exposition alone — what the offline replay
    /// writes and the live-smoke job compares a truncated scrape
    /// against.
    pub fn gated_metrics(&self) -> String {
        let mut snapshot = self.registry.clone();
        self.health_report().export(&mut snapshot);
        snapshot.to_prometheus()
    }

    /// Replay a request plan in-process — no TCP, same bytes.
    pub fn run_offline(&mut self, plan: &RequestPlan) {
        let canonical = self.canonical_request();
        for i in 0..plan.total {
            let body = plan.body(i, &canonical);
            self.handle(&HttpRequest::new("POST", "/ocsp", &body));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::prom::GAUGE_SECTION_MARKER;

    #[test]
    fn ocsp_route_serves_der_and_counts() {
        let mut service = OcspService::new(7);
        let request = service.canonical_request();
        let resp = service.handle(&HttpRequest::new("POST", "/ocsp", &request));
        assert_eq!(resp.status, 200);
        assert!(!resp.body.is_empty());
        assert_eq!(resp.content_type, "application/ocsp-response");
        assert_eq!(service.requests_served(), 1);
    }

    #[test]
    fn unknown_routes_and_methods_are_refused() {
        let mut service = OcspService::new(7);
        assert_eq!(
            service.handle(&HttpRequest::new("GET", "/", b"")).status,
            404
        );
        assert_eq!(
            service
                .handle(&HttpRequest::new("GET", "/ocsp", b""))
                .status,
            405
        );
        assert_eq!(
            service
                .handle(&HttpRequest::new("DELETE", "/metrics", b""))
                .status,
            405
        );
        // Refusals never tick the clock or the request counter.
        assert_eq!(service.requests_served(), 0);
    }

    #[test]
    fn live_scrape_equals_offline_replay_on_the_gated_prefix() {
        let plan = RequestPlan {
            total: 20,
            malformed_every: 7,
        };

        // "Live": requests interleaved with scrapes.
        let mut live = OcspService::new(11);
        let canonical = live.canonical_request();
        for i in 0..plan.total {
            let body = plan.body(i, &canonical);
            live.handle(&HttpRequest::new("POST", "/ocsp", &body));
            if i % 5 == 0 {
                live.handle(&HttpRequest::new("GET", "/metrics", b""));
                live.handle(&HttpRequest::new("GET", "/health", b""));
            }
        }
        let scrape = live.render_metrics();

        // Offline: the same plan, no scrapes.
        let mut offline = OcspService::new(11);
        offline.run_offline(&plan);

        let gated = scrape
            .split(&format!("{GAUGE_SECTION_MARKER}\n"))
            .next()
            .unwrap();
        assert_eq!(gated, offline.gated_metrics());
        // The tail carries the operational gauges the gated render
        // must exclude.
        assert!(scrape.contains(GAUGE_SECTION_MARKER));
        assert!(scrape.contains("health_state_healthy"));
        assert!(scrape.contains("ocspd_scrapes_metrics"));
    }

    #[test]
    fn malformed_requests_drive_health_transitions() {
        let mut service = OcspService::new(3);
        let canonical = service.canonical_request();
        // Three garbage bodies in a row: Healthy → Degraded → Failed.
        for _ in 0..3 {
            service.handle(&HttpRequest::new("POST", "/ocsp", b"junk"));
        }
        let (healthy, _, failed) = service.health_report().state_counts();
        assert_eq!((healthy, failed), (0, 1));
        // Recovery after two good requests.
        for _ in 0..2 {
            service.handle(&HttpRequest::new("POST", "/ocsp", &canonical));
        }
        let (healthy, degraded, failed) = service.health_report().state_counts();
        assert_eq!((healthy, degraded, failed), (1, 0, 0));
        let events = service.events();
        let text = events.to_jsonl();
        assert!(text.contains("healthy -> degraded"));
        assert!(text.contains("failed -> healthy"));
        assert!(text.contains("\"kind\":\"outage\""));
    }

    #[test]
    fn the_clock_is_simulated_and_scrape_free() {
        let mut service = OcspService::with_step(1, 90);
        assert_eq!(service.clock.now().unix(), CAMPAIGN_EPOCH_UNIX);
        service.handle(&HttpRequest::new("GET", "/metrics", b""));
        assert_eq!(service.clock.now().unix(), CAMPAIGN_EPOCH_UNIX);
        let body = service.canonical_request();
        service.handle(&HttpRequest::new("POST", "/ocsp", &body));
        assert_eq!(service.clock.now().unix(), CAMPAIGN_EPOCH_UNIX + 90);
    }
}
