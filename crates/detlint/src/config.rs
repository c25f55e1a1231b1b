//! Lint policy: which rules apply where.
//!
//! The policy is code, not a config file, on purpose: the invariants it
//! encodes (which crates produce artifacts, which crates own wall-clock
//! reads, which files are the scan hot path) change only when the
//! workspace architecture changes, and a PR that changes the
//! architecture should have to change this file in the same diff.

/// One crate's position in the declared dependency DAG.
#[derive(Debug, Clone)]
pub struct CrateSpec {
    /// Crate id — the directory name under `crates/`, or `study` for
    /// the umbrella package.
    pub id: String,
    /// The name code imports it under (`use <lib>::…`), underscored.
    pub lib: String,
    /// Layer index for the DOT export and the inversion check: every
    /// normal dependency must point at a strictly lower layer. `None`
    /// exempts the crate from the layer ordering (cycle detection still
    /// applies).
    pub layer: Option<u32>,
    /// Crate ids this crate may depend on (normal or dev).
    pub deps: Vec<String>,
}

impl CrateSpec {
    fn new(id: &str, lib: &str, layer: u32, deps: &[&str]) -> CrateSpec {
        CrateSpec {
            id: id.into(),
            lib: lib.into(),
            layer: Some(layer),
            deps: deps.iter().map(|d| d.to_string()).collect(),
        }
    }
}

/// File paths the metric-catalog closure checks read.
#[derive(Debug, Clone)]
pub struct CatalogPolicy {
    /// The catalog module, relative to the root (its `pub const NAME:
    /// &str = "…";` items are the metric namespace).
    pub module: String,
    /// The committed Prometheus exposition baseline; every family in it
    /// must be declared in the catalog.
    pub prom_baseline: String,
    /// The teldiff tolerance file; every `["metric"]` section must be
    /// declared in the catalog.
    pub teldiff: String,
}

/// Lint configuration for one root directory.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs feed scan artifacts (CSV rows, telemetry,
    /// figures). The unordered-iter rule applies only here: iterating a
    /// `HashMap`/`HashSet` in these crates risks artifact-order
    /// nondeterminism.
    pub artifact_crates: Vec<String>,
    /// Crates allowed to read the wall clock. Telemetry spans and
    /// criterion timings are *measurements about the run* (excluded from
    /// artifact equality); everything else must be simulation time.
    pub wall_clock_allowed_crates: Vec<String>,
    /// Scan-hot-path files under the panic-hygiene ratchet, as
    /// `/`-separated paths relative to the root.
    pub hot_path_files: Vec<String>,
    /// Path prefixes (relative, `/`-separated) skipped entirely —
    /// lint-rule fixtures live here.
    pub exclude: Vec<String>,
    /// Path of the panic-hygiene baseline, relative to the root.
    pub baseline_path: String,
    /// The declared crate DAG. Empty disables the layering pack.
    pub layering: Vec<CrateSpec>,
    /// Crates whose telemetry call sites must route metric names through
    /// `telemetry::catalog` constants. Empty disables the call-site
    /// check.
    pub metric_crates: Vec<String>,
    /// Catalog ↔ baseline ↔ tolerance closure policy. `None` disables
    /// the metric-catalog pack entirely.
    pub catalog: Option<CatalogPolicy>,
    /// Crates under the float-determinism rule (artifact crates plus the
    /// figure/bench producers). Empty disables the pack.
    pub float_crates: Vec<String>,
}

impl Config {
    /// The policy for this workspace.
    pub fn workspace() -> Config {
        Config {
            artifact_crates: vec![
                "scanner".into(),
                "netsim".into(),
                "ocsp".into(),
                "analysis".into(),
                "core".into(),
                "opsmon".into(),
            ],
            wall_clock_allowed_crates: vec!["telemetry".into(), "criterion".into(), "bench".into()],
            hot_path_files: vec![
                "crates/ocsp/src/responder.rs".into(),
                "crates/ocsp/src/validate.rs".into(),
                "crates/scanner/src/hourly.rs".into(),
                "crates/scanner/src/consistency.rs".into(),
                "crates/scanner/src/alexa1m.rs".into(),
                "crates/scanner/src/cdnlog.rs".into(),
                "crates/scanner/src/executor.rs".into(),
                "crates/netsim/src/world.rs".into(),
                "crates/netsim/src/cdn.rs".into(),
                "crates/netsim/src/latency.rs".into(),
                "crates/simcrypto/src/sha256.rs".into(),
                "crates/simcrypto/src/hmac.rs".into(),
                "crates/simcrypto/src/rsa.rs".into(),
                "crates/simcrypto/src/bigint.rs".into(),
                "crates/ecosystem/src/stream.rs".into(),
                "crates/analysis/src/stream.rs".into(),
                "crates/memprof/src/lib.rs".into(),
            ],
            exclude: vec!["crates/detlint/tests/fixtures".into()],
            baseline_path: "lint-baseline.json".into(),
            layering: Self::workspace_layering(),
            metric_crates: vec![
                "netsim".into(),
                "ocsp".into(),
                "scanner".into(),
                "webserver".into(),
                "ecosystem".into(),
                "core".into(),
                "bench".into(),
                "study".into(),
                "opsmon".into(),
                "ocspd".into(),
            ],
            catalog: Some(CatalogPolicy {
                module: "crates/telemetry/src/catalog.rs".into(),
                prom_baseline: "results/telemetry.prom".into(),
                teldiff: "teldiff.toml".into(),
            }),
            float_crates: vec![
                "scanner".into(),
                "netsim".into(),
                "ocsp".into(),
                "analysis".into(),
                "core".into(),
                "ecosystem".into(),
                "bench".into(),
                "study".into(),
            ],
        }
    }

    /// The declared workspace DAG: who may depend on whom, and at which
    /// layer. Allowed sets are exact — a new edge must be added here (in
    /// the same diff that justifies it) before `cargo` metadata may grow
    /// it. Layers order the DOT export and catch inversions: every
    /// normal dependency points at a strictly lower layer (dev
    /// dependencies are exempt from the ordering, since test harness
    /// edges like asn1 → proptest legitimately point upward).
    fn workspace_layering() -> Vec<CrateSpec> {
        vec![
            // Layer 0: leaves — no workspace dependencies.
            CrateSpec::new("rand", "rand", 0, &[]),
            CrateSpec::new("asn1", "asn1", 0, &["proptest"]),
            CrateSpec::new("memprof", "memprof", 0, &[]),
            CrateSpec::new("detlint", "detlint", 0, &[]),
            CrateSpec::new("telemetry", "telemetry", 0, &[]),
            // Layer 1: primitives over the leaves.
            CrateSpec::new("simcrypto", "simcrypto", 1, &["rand", "proptest"]),
            CrateSpec::new("proptest", "proptest", 1, &["rand"]),
            CrateSpec::new("opsmon", "opsmon", 1, &["asn1", "telemetry", "proptest"]),
            CrateSpec::new("criterion", "criterion", 1, &["telemetry"]),
            CrateSpec::new("analysis", "analysis", 1, &["asn1", "proptest"]),
            CrateSpec::new("teldiff", "teldiff", 1, &["telemetry"]),
            // Layer 2–3: the PKI and protocol stack.
            CrateSpec::new("pki", "pki", 2, &["asn1", "simcrypto", "rand", "proptest"]),
            CrateSpec::new(
                "ocsp",
                "ocsp",
                3,
                &["asn1", "simcrypto", "pki", "rand", "telemetry", "proptest"],
            ),
            CrateSpec::new("tls", "tls", 3, &["asn1", "pki", "rand"]),
            // Layer 4–5: simulated infrastructure and its clients.
            CrateSpec::new("netsim", "netsim", 4, &["asn1", "telemetry", "simcrypto"]),
            CrateSpec::new(
                "ocspd",
                "ocspd",
                4,
                &["asn1", "pki", "ocsp", "rand", "telemetry", "opsmon"],
            ),
            CrateSpec::new(
                "webserver",
                "webserver",
                4,
                &["asn1", "pki", "ocsp", "tls", "rand", "telemetry"],
            ),
            CrateSpec::new(
                "browser",
                "browser",
                5,
                &["asn1", "pki", "ocsp", "tls", "webserver"],
            ),
            CrateSpec::new(
                "ecosystem",
                "ecosystem",
                5,
                &["asn1", "pki", "ocsp", "netsim", "rand", "telemetry"],
            ),
            // Layer 6–7: the scan pipelines and the study facade.
            CrateSpec::new(
                "scanner",
                "scanner",
                6,
                &[
                    "asn1",
                    "pki",
                    "ocsp",
                    "netsim",
                    "ecosystem",
                    "analysis",
                    "rand",
                    "telemetry",
                    "opsmon",
                    "proptest",
                ],
            ),
            CrateSpec::new(
                "core",
                "mustaple",
                7,
                &[
                    "asn1",
                    "simcrypto",
                    "pki",
                    "ocsp",
                    "netsim",
                    "tls",
                    "webserver",
                    "browser",
                    "ecosystem",
                    "scanner",
                    "analysis",
                    "telemetry",
                    "opsmon",
                    "proptest",
                ],
            ),
            // Layer 8–9: harnesses over everything.
            CrateSpec::new(
                "bench",
                "mustaple_bench",
                8,
                &[
                    "core",
                    "asn1",
                    "simcrypto",
                    "pki",
                    "ocsp",
                    "netsim",
                    "tls",
                    "webserver",
                    "browser",
                    "ecosystem",
                    "scanner",
                    "analysis",
                    "telemetry",
                    "rand",
                    "memprof",
                    "criterion",
                ],
            ),
            CrateSpec::new(
                "study",
                "mustaple_study",
                9,
                &[
                    "core",
                    "bench",
                    "asn1",
                    "simcrypto",
                    "pki",
                    "ocsp",
                    "netsim",
                    "tls",
                    "webserver",
                    "browser",
                    "ecosystem",
                    "scanner",
                    "analysis",
                    "telemetry",
                    "rand",
                    "proptest",
                    // `tests/alloc_work.rs` counts `ocspd` queries with
                    // the counting allocator.
                    "ocspd",
                    "memprof",
                ],
            ),
        ]
    }

    /// An empty policy for fixture trees; tests fill in what they need.
    pub fn bare() -> Config {
        Config {
            artifact_crates: Vec::new(),
            wall_clock_allowed_crates: Vec::new(),
            hot_path_files: Vec::new(),
            exclude: Vec::new(),
            baseline_path: "lint-baseline.json".into(),
            layering: Vec::new(),
            metric_crates: Vec::new(),
            catalog: None,
            float_crates: Vec::new(),
        }
    }

    /// The crate a workspace-relative path belongs to: `crates/<name>/…`
    /// maps to `<name>`; the umbrella package's `src`/`tests`/`examples`
    /// map to `study`.
    pub fn crate_of(rel_path: &str) -> &str {
        let mut parts = rel_path.split('/');
        if parts.next() == Some("crates") {
            if let Some(name) = parts.next() {
                return name;
            }
        }
        "study"
    }

    /// Whether `rel_path` is a crate root (where `#![forbid(unsafe_code)]`
    /// must live): `src/lib.rs`, `src/main.rs`, or `src/bin/*.rs` of any
    /// crate, including the umbrella package.
    pub fn is_crate_root(rel_path: &str) -> bool {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let tail: &[&str] = if parts.first() == Some(&"crates") && parts.len() > 2 {
            &parts[2..]
        } else {
            &parts[..]
        };
        match tail {
            ["src", f] => *f == "lib.rs" || *f == "main.rs",
            ["src", "bin", f] => f.ends_with(".rs"),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(Config::crate_of("crates/scanner/src/hourly.rs"), "scanner");
        assert_eq!(Config::crate_of("src/lib.rs"), "study");
        assert_eq!(Config::crate_of("tests/determinism.rs"), "study");
    }

    #[test]
    fn crate_roots() {
        assert!(Config::is_crate_root("crates/ocsp/src/lib.rs"));
        assert!(Config::is_crate_root("crates/detlint/src/main.rs"));
        assert!(Config::is_crate_root("crates/bench/src/bin/figures.rs"));
        assert!(Config::is_crate_root("src/lib.rs"));
        assert!(!Config::is_crate_root("crates/ocsp/src/responder.rs"));
        assert!(!Config::is_crate_root("crates/asn1/tests/roundtrip.rs"));
        assert!(!Config::is_crate_root("examples/quickstart.rs"));
    }
}
