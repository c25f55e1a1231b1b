//! The determinism gate: the scan campaigns must produce byte-identical
//! artifacts for every worker count.
//!
//! This is the repo's contract for the sharded executor — parallelism
//! is a wall-clock knob only. The same study runs once serially
//! (`--workers 1`) and once on four workers, and
//! every scan-derived artifact's CSV must match byte for byte. CI runs
//! this test plus a binary-level `figures` diff.

use ecosystem::EcosystemConfig;
use mustaple::{Study, StudyResults};
use mustaple_bench::{build, ALL_ARTIFACTS};

fn run_study(workers: usize) -> StudyResults {
    Study::new(EcosystemConfig::tiny().with_parallelism(workers)).run()
}

#[test]
fn serial_and_parallel_artifacts_are_byte_identical() {
    let serial = run_study(1);
    let parallel = run_study(4);

    for name in ALL_ARTIFACTS
        .iter()
        .chain(["freshness", "recommendations"].iter())
    {
        let a = build(name, &serial).unwrap_or_else(|| panic!("missing artifact {name}"));
        let b = build(name, &parallel).unwrap_or_else(|| panic!("missing artifact {name}"));
        let csv_a = a.table.to_csv();
        let csv_b = b.table.to_csv();
        assert!(
            csv_a.as_bytes() == csv_b.as_bytes(),
            "artifact `{name}` differs between serial and 4-worker runs:\n\
             --- serial ---\n{csv_a}\n--- parallel ---\n{csv_b}"
        );
    }

    // The merged telemetry registries themselves must agree as values
    // (counters + histograms; wall-clock spans are excluded from
    // equality); their bytes are checked through `telemetry.prom`
    // below.
    assert_eq!(
        serial.telemetry, parallel.telemetry,
        "telemetry registries diverged"
    );

    // The readiness verdict is derived from everything above; it must
    // agree too.
    assert_eq!(
        serial.readiness_report().render(),
        parallel.readiness_report().render(),
        "readiness reports diverged"
    );

    // The exported telemetry surface — the Prometheus exposition and the
    // simulated-clock span tree — is part of the same contract: the
    // bytes `figures --telemetry` writes to `telemetry.prom` and
    // `trace.jsonl` must not depend on the worker count.
    let two = run_study(2);
    for (workers, run) in [(2usize, &two), (4, &parallel)] {
        assert!(
            serial.telemetry.to_prometheus().as_bytes() == run.telemetry.to_prometheus().as_bytes(),
            "telemetry.prom differs between serial and {workers}-worker runs"
        );
        assert!(
            serial.trace.to_jsonl().as_bytes() == run.trace.to_jsonl().as_bytes(),
            "trace.jsonl differs between serial and {workers}-worker runs"
        );
        assert!(
            serial.events.to_jsonl().as_bytes() == run.events.to_jsonl().as_bytes(),
            "events.jsonl differs between serial and {workers}-worker runs"
        );
    }
    // And the exposition must survive its own parser unchanged, so
    // `teldiff` sees exactly what was measured.
    let parsed = telemetry::prom::Exposition::parse(&serial.telemetry.to_prometheus())
        .expect("exposition round-trip");
    assert_eq!(parsed.render(), serial.telemetry.to_prometheus());
}

#[test]
fn event_bus_is_byte_identical_across_the_whole_split_matrix() {
    // The event bus joins trace.jsonl under the determinism contract:
    // health transitions, outages, rollovers, and revocation events
    // must render the same bytes for every worker count, and the
    // health-state machine's exported counters must agree with them.
    // (The hourly campaign's chunk-plan axis is pinned in
    // `scanner::hourly`'s own tests.)
    let reference = run_study(1);
    let baseline = reference.events.to_jsonl();
    assert!(!baseline.is_empty(), "tiny scale must produce events");

    // The artifact honours the same strict-parse round-trip contract
    // as trace.jsonl.
    let parsed = mustaple::opsmon::EventLog::parse_jsonl(&baseline).expect("events round-trip");
    assert_eq!(parsed.to_jsonl(), baseline);

    for workers in [1usize, 4] {
        let run = run_study(workers);
        assert!(
            run.events.to_jsonl().as_bytes() == baseline.as_bytes(),
            "events.jsonl differs at {workers} workers"
        );
        assert_eq!(
            run.hourly.health, reference.hourly.health,
            "hourly health report differs at {workers} workers"
        );
        assert_eq!(
            run.consistency.health, reference.consistency.health,
            "consistency health differs at {workers} workers"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_byte_identical() {
    // Same seed, same worker count, two fresh runs: scheduling noise
    // must not be observable.
    let first = run_study(3);
    let second = run_study(3);
    for name in ["fig3", "fig4", "fig5", "table1", "fig10"] {
        let a = build(name, &first).expect("artifact");
        let b = build(name, &second).expect("artifact");
        assert!(
            a.table.to_csv().as_bytes() == b.table.to_csv().as_bytes(),
            "artifact `{name}` differs between two identical runs"
        );
    }
}
