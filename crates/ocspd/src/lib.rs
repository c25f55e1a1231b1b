//! The live operational tier: `ocspd`, a std-only HTTP/1.1 daemon that
//! serves the simulated OCSP responder over a real loopback socket.
//!
//! Everything below the socket is the same deterministic machinery the
//! offline studies use — [`ocsp::Responder`] signs the responses, a
//! simulated clock stamps them, [`telemetry::Registry`] counts them,
//! and [`opsmon`] tracks backend health — so a live `GET /metrics`
//! scrape is *reproducible*: replaying the identical request sequence
//! in-process (no TCP) renders the identical equality-gated exposition,
//! byte for byte. The CI `live-smoke` job pins exactly that.
//!
//! Routes:
//!
//! * `POST /ocsp` — raw DER request in, raw DER response out
//!   (`application/ocsp-response`), exactly what travels in the
//!   simulated campaigns;
//! * `GET /metrics` — [`telemetry::Registry::to_prometheus_with_gauges`]:
//!   the equality-gated exposition plus the operational gauge tail;
//! * `GET /health` — the [`opsmon::HealthReport`] table, folded from
//!   each `/ocsp` outcome as it arrives.
//!
//! The daemon is deliberately single-threaded and `Connection: close`
//! only: the workspace has no async runtime, the host pins one CPU, and
//! a deterministic accept loop is what makes the live tier testable at
//! all.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod http;
pub mod server;
pub mod service;

pub use http::{HttpRequest, HttpResponse};
pub use server::{client, post_events, serve};
pub use service::{OcspService, RequestPlan, SimClock, CAMPAIGN_EPOCH_UNIX};
