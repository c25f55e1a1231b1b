//! A deterministic simulated Internet for the Must-Staple study.
//!
//! The paper's availability results (§5.2) are produced by six
//! measurement clients in AWS regions POSTing OCSP requests to 536
//! responders every hour for four months. This crate is the fabric that
//! replaces the real Internet in that loop:
//!
//! * [`region`] — the six vantage-point regions plus server-side hosting
//!   regions, with a realistic RTT matrix;
//! * [`world`] — the host registry and HTTP dispatch: URL → route (DNS)
//!   → outage checks → handler → latency. Handlers are plain closures,
//!   so any crate (OCSP responders, web servers, CRL file servers) can
//!   plug in;
//! * [`outage`] — failure injection: persistent per-region failures (the
//!   NXDOMAIN / TCP / HTTP-4xx/5xx / bad-certificate taxonomy of §5.2)
//!   and transient windows, attachable to single hosts or to
//!   *infrastructure groups* (the Comodo episode: eight CNAMEs and six
//!   shared IPs all failing together);
//! * [`cdn`] — a caching CDN front, for the §5.2 "CDN's perspective"
//!   experiment (origin contacts are rare and, when the origin is up,
//!   always succeed).
//!
//! Design note: the simulation is *stepped*, not event-queued. Every
//! interaction takes an explicit `Time` and returns its outcome
//! synchronously; the measurement schedule (hourly scans) is the
//! only driver of time. This follows the smoltcp philosophy of explicit
//! state machines polled by the caller — no hidden concurrency, perfect
//! reproducibility.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod cdn;
pub mod latency;
pub mod outage;
pub mod region;
pub mod world;

pub use asn1::Time;
pub use cdn::CdnNode;
pub use outage::{FailureKind, Outage};
pub use region::Region;
pub use world::{Handler, HandlerFactory, HttpOutcome, HttpResult, Route, Topology, World};
