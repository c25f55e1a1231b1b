//! Simulation-grade cryptography for the Must-Staple study.
//!
//! The study needs signatures on certificates, CRLs, and OCSP responses to
//! be *real enough to fail*: one of the measured OCSP error classes is
//! "incorrect signature", so tampered responses must actually flunk
//! verification, and delegated OCSP signing (RFC 6960 §4.2.2.2) must
//! actually chain. At the same time, nothing here protects real secrets,
//! so key sizes are deliberately toy (256–768 bits) and generation favors
//! determinism over entropy.
//!
//! What is real:
//!
//! * [`mod@sha256`] — a complete FIPS 180-4 SHA-256, tested against NIST
//!   vectors. Used for CertID hashes, signature digests, and key IDs.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104). [`HmacSha256`] absorbs its
//!   key once and MACs many messages; netsim keys one with the topology
//!   seed and draws every request's latency jitter from it.
//! * [`bigint`] — arbitrary-precision unsigned arithmetic (add, sub, mul,
//!   div/rem, modpow, modular inverse).
//! * [`prime`] — Miller–Rabin probabilistic primality and random prime
//!   generation.
//! * [`rsa`] — textbook RSA keygen/sign/verify with PKCS#1 v1.5-shaped
//!   padding over a SHA-256 DigestInfo.
//!
//! What is *not* real: key sizes, padding side-channel hygiene, and any
//! claim of confidentiality. The algorithm identifier used throughout the
//! PKI is the private-arc OID `1.3.6.1.4.1.99999.1.1` ("simRSA-SHA256")
//! precisely so these keys can never be confused with production RSA.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod bigint;
pub mod hmac;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use bigint::BigUint;
pub use hmac::HmacSha256;
pub use rsa::{KeyPair, PublicKey, SignatureError};
pub use sha256::Sha256;

/// Convenience: SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Convenience: HMAC-SHA256 of `data` under `key` (one-shot; see
/// [`HmacSha256`] for a key used many times).
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    hmac::hmac_sha256(key, data)
}
