//! Heap allocations per campaign probe, per `ocspd` query (with and
//! without its HTTP framing) and per signature verification, the
//! campaign's peak live bytes, and `ocspd`'s live bytes over a steady
//! stream of queries, pinned exactly.
//!
//! This binary installs `memprof::CountingAlloc` as its global
//! allocator, and it holds a single test, so while that test measures
//! nothing else in the process allocates: the harness's main thread only
//! waits for it. `Executor::serial()` runs every campaign work unit
//! inline, so each count below is the same on every run and every host.
//! A change that adds or removes allocations on these paths, or holds
//! more or less state at once, moves a count; update the pin along with
//! the change that moved it.

use ecosystem::{EcosystemConfig, LiveEcosystem};
use netsim::Region;
use ocsp::{CertId, OcspRequest};
use ocspd::{HttpRequest, HttpResponse, OcspService};
use pki::Serial;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use scanner::{Executor, HourlyCampaign};
use simcrypto::{KeyPair, SignatureError};

#[global_allocator]
static ALLOC: memprof::CountingAlloc = memprof::CountingAlloc;

/// Run `f` and return its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = memprof::stats().alloc_count;
    let result = f();
    (result, memprof::stats().alloc_count - before)
}

#[test]
fn campaign_and_serve_allocations_are_pinned() {
    // The campaign: the second day of the paper's campaign at tiny
    // scale, as in `tests/sha256_work.rs`.
    let mut config = EcosystemConfig::tiny().with_parallelism(1);
    config.campaign_start = EcosystemConfig::figures().campaign_start + 86_400;
    config.campaign_end = config.campaign_start + 86_400;
    let eco = LiveEcosystem::generate(config);
    let probes =
        (eco.config.scan_rounds() * Region::VANTAGE_POINTS.len() * eco.scan_targets.len()) as u64;
    let campaign = HourlyCampaign::new(&eco);
    // The campaign's peak: the high watermark while it runs, above the
    // bytes live when it starts.
    memprof::reset_peak();
    let live_before = memprof::stats().current_bytes;
    let (dataset, campaign_allocs) = allocations(|| campaign.run_with(&Executor::serial()));
    let campaign_peak = memprof::stats().peak_bytes - live_before;
    assert_eq!(dataset.requests, probes);

    // The serve paths behind `ocspd`'s `POST /ocsp`: the canonical
    // request again and again (the signed-response cache answers), and
    // a fresh serial under the same issuer each time (every query is
    // signed).
    const QUERIES: u64 = 1_000;
    let mut hot = OcspService::new(7);
    let canonical = HttpRequest::new("POST", "/ocsp", &hot.canonical_request());
    let ((), hot_allocs) = allocations(|| {
        for _ in 0..QUERIES {
            hot.handle(&canonical);
        }
    });

    // One hot query end to end in memory, framing included: the request
    // perfbench's client writes is read as `ocspd::serve` reads it,
    // handled, written into a buffer reserved outside the count, and
    // read back as the client reads it.
    let mut framed = OcspService::new(7);
    let der = framed.canonical_request();
    let mut wire = format!(
        "POST /ocsp HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/ocsp-request\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        der.len()
    )
    .into_bytes();
    wire.extend_from_slice(&der);
    let mut out = Vec::with_capacity(4_096);
    let mut round_trip = || {
        out.clear();
        let request = HttpRequest::read_from(&mut &wire[..]).expect("the request parses");
        let response = framed.handle(&request);
        response
            .write_to(&mut out)
            .expect("a Vec takes every write");
        HttpResponse::read_from(&mut &out[..]).expect("the response parses")
    };
    // The first query signs; the counted ones are answered from cache.
    assert_eq!(round_trip().status, 200);
    let (statuses, framed_allocs) = allocations(|| {
        (0..QUERIES)
            .map(|_| u64::from(round_trip().status))
            .sum::<u64>()
    });
    assert_eq!(statuses, 200 * QUERIES);

    let mut wide = OcspService::new(7);
    let leaf = OcspRequest::from_der(&wide.canonical_request())
        .expect("the canonical request parses")
        .cert_ids[0]
        .clone();
    let mut serials = StdRng::seed_from_u64(0x5e41_a15e);
    let fresh: Vec<HttpRequest> = (0..QUERIES)
        .map(|_| {
            let cert_id = CertId {
                serial: Serial::from_u64(serials.next_u64()),
                ..leaf.clone()
            };
            HttpRequest::new("POST", "/ocsp", &OcspRequest::single(cert_id).to_der())
        })
        .collect();
    let ((), wide_allocs) = allocations(|| {
        for request in &fresh {
            wide.handle(request);
        }
    });

    // `ocspd`'s live state over a steady stream: with a one-second
    // clock step, every query below falls in the first 3,600 s response
    // window, so the signed-response cache adds no entry, and nothing
    // else the service keeps may grow with the queries it serves.
    let mut steady = OcspService::with_step(7, 1);
    let query = HttpRequest::new("POST", "/ocsp", &steady.canonical_request());
    for _ in 0..100 {
        steady.handle(&query);
    }
    let live_before = memprof::stats().current_bytes as i64;
    for _ in 0..QUERIES {
        steady.handle(&query);
    }
    let steady_growth = memprof::stats().current_bytes as i64 - live_before;
    assert_eq!(steady.requests_served(), 100 + QUERIES);

    // One RSA verification, valid or not, once the key has made its
    // Montgomery constants (its first verification makes them): the
    // signature's limbs and both encodings live on the stack.
    let key = KeyPair::generate(&mut StdRng::seed_from_u64(0x7e51), 384);
    let message = b"tbsResponseData";
    let signature = key.sign(message);
    let mut forged = signature.clone();
    forged[40] ^= 1;
    assert_eq!(key.public().verify(message, &signature), Ok(()));
    let (outcomes, verify_allocs) = allocations(|| {
        [
            key.public().verify(message, &signature),
            key.public().verify(message, &forged),
        ]
    });
    assert_eq!(outcomes, [Ok(()), Err(SignatureError::Invalid)]);

    // Per probe and per query: campaign 4.1, hot 3.1, wide 10.0. The
    // framed hot query adds one buffer per message read: 5.1.
    assert_eq!(
        (probes, campaign_allocs, hot_allocs, wide_allocs),
        (1_344, 5_470, 3_116, 10_028)
    );
    assert_eq!(framed_allocs, 5_099);
    assert_eq!(campaign_peak, 79_329);
    assert_eq!(steady_growth, 0);
    assert_eq!(verify_allocs, 0);
}
