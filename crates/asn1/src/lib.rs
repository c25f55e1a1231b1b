//! A small, strict DER (Distinguished Encoding Rules) library.
//!
//! This crate implements the subset of ASN.1/X.690 needed to encode and
//! decode X.509 certificates, CRLs, and OCSP messages for the OCSP
//! Must-Staple readiness study. It follows the smoltcp wire-format idiom:
//!
//! * **parse/emit symmetry** — everything that can be written with
//!   [`Encoder`] can be read back with [`Decoder`], and round-trips are
//!   checked by property tests;
//! * **malformed input is data, not a bug** — decoding never panics; all
//!   failures are reported through the typed [`Error`] enum. This matters
//!   because one of the study's measured error classes is *malformed OCSP
//!   responses* (empty bodies, the literal string `"0"`, JavaScript pages),
//!   and the client code paths that classify those must be real.
//!
//! # Supported universal types
//!
//! BOOLEAN, INTEGER (arbitrary precision, big-endian two's complement),
//! BIT STRING, OCTET STRING, NULL, OBJECT IDENTIFIER, ENUMERATED,
//! UTF8String, PrintableString, IA5String, UTCTime, GeneralizedTime,
//! SEQUENCE (OF) and SET (OF), plus context-specific implicit and explicit
//! tagging.
//!
//! # Example
//!
//! ```
//! use mustaple_asn1::{Encoder, Decoder, Oid};
//!
//! let mut enc = Encoder::new();
//! enc.sequence(|enc| {
//!     enc.integer_i64(42);
//!     enc.oid(&Oid::OCSP_BASIC);
//!     enc.utf8_string("hello");
//! });
//! let der = enc.finish();
//!
//! let mut dec = Decoder::new(&der);
//! let mut seq = dec.sequence().unwrap();
//! assert_eq!(seq.integer_i64().unwrap(), 42);
//! assert_eq!(seq.oid().unwrap(), Oid::OCSP_BASIC);
//! assert_eq!(seq.utf8_string().unwrap(), "hello");
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod error;
mod oid;
mod reader;
mod tag;
mod time;
mod value;
mod writer;

pub use error::Error;
pub use oid::Oid;
pub use reader::Decoder;
pub use tag::{Class, Tag};
pub use time::{Civil, Time};
pub use value::Value;
pub use writer::Encoder;

/// Result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;
