//! Operational monitoring over the measurement pipelines.
//!
//! The paper's core findings are *operational*: responders and web
//! servers fail in ways (outages, stale windows, broken staples) that
//! only show up when you watch them over time — §5's
//! responder-availability and §8's outage-streak analyses are exactly
//! the signals an operator would alert on. This crate turns those
//! signals into operator-facing machinery without giving up the
//! study's determinism contract:
//!
//! * [`health`] — a per-responder health-state machine (Healthy →
//!   Degraded → Failed, exponential retry backoff, recovery after K
//!   consecutive successes) driven by probe classifications in
//!   *simulated* time, plus [`HealthLog`], a mergeable accumulator in
//!   the mold of the telemetry registry: shards and chunks record
//!   outcomes independently and the merged replay is byte-stable for
//!   every worker count and chunking;
//! * [`event`] — a deterministic event bus: health transitions, outage
//!   open/close, revocation, and window-rollover events flow through
//!   the [`Notifier`] trait into a depth-free `events.jsonl` with the
//!   same byte-stability contract as `trace.jsonl`, plus a
//!   webhook-style [`EventSink`] abstraction whose real-HTTP
//!   implementation lives in the live service tier (`ocspd`).
//!
//! Everything here runs on the simulated clock ([`asn1::Time`]); only
//! the live tier ever attaches these types to a wall clock.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod event;
pub mod health;

pub use event::{
    BufferSink, Event, EventKind, EventLog, EventSink, Notifier, NullNotifier, WebhookNotifier,
};
pub use health::{
    HealthLog, HealthPolicy, HealthReport, HealthState, HealthTracker, SubjectHealth,
};
