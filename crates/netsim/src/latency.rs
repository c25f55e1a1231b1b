//! Latency modeling.
//!
//! Request latency = TCP handshake (1 RTT) + HTTP request/response
//! (1 RTT + server time), with deterministic per-sample jitter derived
//! from a hash of the inputs so the same (client, host, time) always
//! sees the same latency. Zhu et al.'s 2016 measurement (cited in §3)
//! found a 20 ms median OCSP lookup because 94 % of requests hit CDN
//! edges; our CDN front reproduces that by serving from the client's
//! own region.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::region::Region;
use asn1::Time;
use simcrypto::HmacSha256;

/// Deterministic jitter in `[0, spread_ms)` for a `(host, region, time)`
/// triple, drawn from `prf` (HMAC keyed with the topology seed).
fn jitter_ms(prf: &HmacSha256, host: &str, region: Region, time: Time, spread_ms: f64) -> f64 {
    let [b0, b1, b2, b3, b4, b5, b6, b7, ..] =
        prf.mac_parts(&[host.as_bytes(), &[region as u8], &time.unix().to_be_bytes()]);
    let x = u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
    (x as f64 / u64::MAX as f64) * spread_ms
}

/// Latency in milliseconds of one HTTP exchange from `client` to a
/// server in `server_region`.
pub fn http_latency_ms(
    prf: &HmacSha256,
    host: &str,
    client: Region,
    server_region: Region,
    time: Time,
    server_time_ms: f64,
) -> f64 {
    let rtt = client.rtt_ms(server_region);
    let jitter = jitter_ms(prf, host, client, time, rtt * 0.25);
    rtt /* TCP */ + rtt /* HTTP */ + server_time_ms + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Time {
        Time::from_civil(2018, 5, 1, 0, 0, 0)
    }

    fn prf() -> HmacSha256 {
        HmacSha256::new(&1u64.to_be_bytes())
    }

    #[test]
    fn deterministic() {
        let a = http_latency_ms(
            &prf(),
            "ocsp.ca.test",
            Region::Paris,
            Region::Virginia,
            t(),
            5.0,
        );
        let b = http_latency_ms(
            &prf(),
            "ocsp.ca.test",
            Region::Paris,
            Region::Virginia,
            t(),
            5.0,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn varies_with_inputs() {
        let latency = |host: &str, time: Time| {
            http_latency_ms(&prf(), host, Region::Paris, Region::Virginia, time, 5.0)
        };
        let a = latency("a.test", t());
        let b = latency("b.test", t());
        let c = latency("a.test", t() + 3600);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn nearby_beats_faraway() {
        // Same-region (CDN-edge-like) exchange ~ a few ms; antipodal ~ 600+.
        let near = http_latency_ms(&prf(), "x.test", Region::Sydney, Region::Sydney, t(), 1.0);
        let far = http_latency_ms(&prf(), "x.test", Region::Sydney, Region::SaoPaulo, t(), 1.0);
        assert!(near < 10.0, "near = {near}");
        assert!(far > 500.0, "far = {far}");
    }
}
