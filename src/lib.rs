//! Umbrella package for the OCSP Must-Staple readiness study.
//!
//! This package exists to host the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`). The actual library
//! surface lives in the workspace crates; the most convenient entry point
//! is the [`mustaple`] crate, which re-exports everything.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use mustaple as core;
