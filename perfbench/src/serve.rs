//! The serve workloads: OCSP over the live `ocspd` tier on loopback.
//!
//! Set-up builds the seeded `OcspService` (CA, leaf, pre-generating
//! responder) and a loopback listener. One operation is one status
//! query: encode the DER request, connect and POST it to `/ocsp` the way
//! `ocspd::client::post` does, let `ocspd::serve` accept and answer that
//! one connection (the daemon's `Connection: close` model), read the
//! answer, and validate it against the issuer at the service's simulated
//! time. Every answer must validate and carry the expected status.
//!
//! Client and daemon take turns on one thread. A loopback connect
//! completes inside the kernel and the request and answer fit in the
//! socket buffers, so neither side ever waits for the other. A thread
//! each would add two cross-thread wake-ups to every query, and on a
//! shared host their cost is the scheduler's, not the program's.
//!
//! The traced run serves through an instrumented copy of the daemon's
//! per-connection step — `HttpRequest::read_from`, `OcspService::handle`,
//! `HttpResponse::write_to` — so the responder's share of each exchange
//! can be separated from the transport's.

use crate::stats::{self, Layer, Ledger};
use crate::{end_to_end_metrics, layer_metrics, Args, LayerCounts, Report};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

// detlint reads this package as part of the umbrella crate; each
// dependency below is declared in perfbench/Cargo.toml instead.
// detlint::allow(layering): declared in perfbench/Cargo.toml
use asn1::Time;
// detlint::allow(layering): declared in perfbench/Cargo.toml
use ocsp::{validate_response, CertId, CertStatus, OcspRequest, ValidationConfig};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use ocspd::{HttpRequest, HttpResponse, OcspService, CAMPAIGN_EPOCH_UNIX};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use pki::{Certificate, CertificateAuthority, Serial};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use rand::{rngs::StdRng, RngCore, SeedableRng};
// detlint::allow(layering): declared in perfbench/Cargo.toml
use telemetry::catalog;

/// Which certificates the client asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Always the fixture's one issued certificate: the responder signs
    /// once per pre-generation window and answers every other request
    /// from its signed-response cache.
    Hot,
    /// A fresh random serial under the same issuer every time: every
    /// request misses the cache and is signed (status unknown).
    Wide,
}

/// Simulated seconds the service clock advances per `/ocsp` request.
const STEP_SECS: i64 = 60;
/// Queries between two looks at the clock.
const BATCH: u64 = 64;
/// Salt separating the serial stream from the fixture's key stream.
const SERIAL_SALT: u64 = 0x5e41_a15e;

/// What the client checks answers against.
struct Fixture {
    issuer: Certificate,
    leaf: CertId,
}

/// Rebuild the service's issuer from the seed (the service does not
/// expose it) and prove it is the same CA through the canonical request.
fn fixture(seed: u64, service: &OcspService) -> Option<Fixture> {
    let epoch = Time::from_unix(CAMPAIGN_EPOCH_UNIX);
    let mut rng = StdRng::seed_from_u64(seed);
    let ca = CertificateAuthority::new_root(&mut rng, "Live CA", "Root", "ca.test", epoch);
    let request = OcspRequest::from_der(&service.canonical_request()).ok()?;
    let leaf = request.cert_ids.first()?.clone();
    leaf.matches_issuer(ca.certificate()).then(|| Fixture {
        issuer: ca.certificate().clone(),
        leaf,
    })
}

fn spanned<R>(ledger: &mut Option<Ledger>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match ledger {
        Some(ledger) => ledger.span(layer, f),
        None => f(),
    }
}

/// Serve one connection like `ocspd::serve`, charging
/// `OcspService::handle` to the responder layer.
fn serve_traced(
    listener: &TcpListener,
    service: &mut OcspService,
    ledger: &mut Ledger,
) -> std::io::Result<()> {
    let (stream, _) = listener.accept()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let response = match HttpRequest::read_from(&mut reader) {
        Ok(request) => ledger.span(Layer::Respond, || service.handle(&request)),
        Err(reason) => HttpResponse::error(400, &reason),
    };
    // As in the daemon, a broken client connection is not the server's
    // failure; the client side counts it.
    let _ = response.write_to(&mut BufWriter::new(stream));
    Ok(())
}

/// The daemon: `ocspd`'s service behind a loopback listener.
struct Daemon {
    listener: TcpListener,
    addr: String,
    service: OcspService,
}

impl Daemon {
    /// POST `body` to `/ocsp` as `ocspd::client::post` does, and serve the
    /// connection — through the instrumented copy when `ledger` is given.
    fn exchange(
        &mut self,
        body: &[u8],
        ledger: Option<&mut Ledger>,
    ) -> std::io::Result<HttpResponse> {
        let stream = TcpStream::connect(&self.addr)?;
        let mut writer = BufWriter::new(&stream);
        write!(
            writer,
            "POST /ocsp HTTP/1.1\r\nHost: {}\r\nContent-Type: application/ocsp-request\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        )?;
        writer.write_all(body)?;
        writer.flush()?;
        drop(writer);
        match ledger {
            Some(ledger) => serve_traced(&self.listener, &mut self.service, ledger)?,
            None => {
                ocspd::serve(&self.listener, &mut self.service, Some(1))?;
            }
        }
        HttpResponse::read_from(&mut BufReader::new(&stream))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The load generator: one closed-loop client.
struct Client {
    mix: Mix,
    fixture: Fixture,
    serials: StdRng,
    ledger: Option<Ledger>,
    sent: u64,
    failed: u64,
    der_bytes: u64,
}

impl Client {
    /// Issue one batch of queries, appending each one's milliseconds.
    fn batch(&mut self, daemon: &mut Daemon, query_ms: &mut Vec<f64>) {
        for _ in 0..BATCH {
            let began = stats::now();
            self.query(daemon);
            query_ms.push(stats::ms_since(began));
        }
    }

    /// One status query, checked.
    fn query(&mut self, daemon: &mut Daemon) {
        let cert_id = match self.mix {
            Mix::Hot => self.fixture.leaf.clone(),
            Mix::Wide => CertId {
                serial: Serial::from_u64(self.serials.next_u64()),
                ..self.fixture.leaf.clone()
            },
        };
        let expected = if cert_id.serial == self.fixture.leaf.serial {
            CertStatus::Good
        } else {
            CertStatus::Unknown
        };
        let body = spanned(&mut self.ledger, Layer::Encode, || {
            OcspRequest::single(cert_id.clone()).to_der()
        });
        let reply = match &mut self.ledger {
            Some(ledger) => {
                // The exchange span holds the responder's span.
                let began = stats::now();
                let reply = daemon.exchange(&body, Some(ledger));
                ledger.charge(Layer::Exchange, began);
                reply
            }
            None => daemon.exchange(&body, None),
        };
        let response = match reply {
            Ok(response) if response.status == 200 => response,
            _ => {
                self.failed += 1;
                self.sent += 1;
                return;
            }
        };
        // The service clock ticks once per `/ocsp` request.
        let at = Time::from_unix(CAMPAIGN_EPOCH_UNIX) + self.sent as i64 * STEP_SECS;
        let issuer = &self.fixture.issuer;
        let valid = spanned(&mut self.ledger, Layer::Validate, || {
            validate_response(
                &response.body,
                &cert_id,
                issuer,
                at,
                ValidationConfig::default(),
            )
        });
        if valid.map(|v| v.status) != Ok(expected) {
            self.failed += 1;
        }
        self.der_bytes += (body.len() + response.body.len()) as u64;
        self.sent += 1;
    }
}

/// Run one of the serve workloads.
pub fn run(mix: Mix, args: &Args) -> Report {
    let service = OcspService::with_step(args.seed, STEP_SECS);
    let Some(fixture) = fixture(args.seed, &service) else {
        eprintln!("perfbench: the service fixture no longer matches its seed");
        return Report {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("loopback listener address")
        .to_string();

    let mut daemon = Daemon {
        listener,
        addr,
        service,
    };
    let mut client = Client {
        mix,
        fixture,
        serials: StdRng::seed_from_u64(args.seed ^ SERIAL_SALT),
        ledger: args.trace.then(Ledger::default),
        sent: 0,
        failed: 0,
        der_bytes: 0,
    };
    stats::warm_up(|| client.batch(&mut daemon, &mut Vec::new()));
    // Key generation searches for primes, so one seed's set-up can cost
    // several times another's; time a spread of seeds around this one.
    let mut next_seed = args.seed;
    let mut window = stats::measure(
        args.seconds,
        |query_ms| client.batch(&mut daemon, query_ms),
        || {
            next_seed = next_seed.wrapping_add(1);
            OcspService::with_step(next_seed, STEP_SECS)
        },
    );
    let Client {
        ledger,
        sent,
        failed,
        der_bytes,
        ..
    } = client;
    let service = daemon.service;

    let registry = service.registry();
    let hits = registry.counter(catalog::OCSP_RESPONDER_CACHE, "hit");
    let signs = registry.counter(catalog::OCSP_RESPONDER_CACHE, "miss")
        + registry.counter(catalog::OCSP_RESPONDER_CACHE, "window_sign");
    let served_all = service.requests_served() == sent
        && registry.counter(catalog::OCSPD_REQUESTS, "ok") == sent
        && hits + signs == sent
        && service.health_report().state_counts() == (1, 0, 0);
    let metrics = match ledger {
        Some(ledger) => layer_metrics(
            &ledger,
            &LayerCounts {
                requests: sent,
                cache_hits: hits,
                cache_misses: signs,
                // The client verifies every answer's signature.
                sig_verifies: sent,
                der_bytes,
            },
        ),
        None => end_to_end_metrics(&mut window, 1),
    };
    Report {
        correct: served_all && failed == 0,
        attempted: sent,
        failed,
        metrics,
    }
}
