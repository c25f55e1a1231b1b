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
//!   Degraded → Failed, exponential retry backoff, recovery after two
//!   consecutive successes) driven by probe classifications in
//!   *simulated* time, plus [`HealthMonitor`], which folds every
//!   subject's outcomes as they arrive and keeps nothing per outcome;
//! * [`event`] — a deterministic event log: health transitions, outage
//!   open/close, revocation, and window-rollover events, pushed into
//!   an [`EventLog`] and rendered to a depth-free `events.jsonl` with
//!   the same byte-stability contract as `trace.jsonl`. The live tier
//!   (`ocspd`) posts the same JSON lines to a webhook.
//!
//! Everything here runs on the simulated clock ([`asn1::Time`]); only
//! the live tier ever attaches these types to a wall clock.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod event;
pub mod health;

pub use event::{Event, EventKind, EventLog};
pub use health::{HealthMonitor, HealthReport, HealthState, HealthTracker, SubjectHealth};
