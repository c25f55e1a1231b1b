//! The ensemble determinism gate: multi-seed runs must produce
//! byte-identical companions, manifests, and expositions for every
//! worker count, and replica 0 must reproduce a standalone study
//! exactly.
//!
//! This extends the single-run contract of `tests/determinism.rs` one
//! level up: replicas are scheduled as top-level work units on the same
//! executor, so the scheduling of *whole studies* across workers must
//! be as unobservable as the scheduling of shards within one.

use ecosystem::EcosystemConfig;
use mustaple::Study;
use mustaple_bench::build;
use mustaple_bench::ensemble::{seeds_for, Ensemble};

const ARTIFACTS: [&str; 3] = ["fig2", "fig5", "fig8"];

#[test]
fn ensemble_output_is_invariant_to_replica_scheduling() {
    let seeds = seeds_for(EcosystemConfig::tiny().seed, 3);
    let serial = Ensemble::run(&EcosystemConfig::tiny().with_parallelism(1), &seeds);
    let parallel = Ensemble::run(&EcosystemConfig::tiny().with_parallelism(4), &seeds);

    assert_eq!(serial.seeds(), parallel.seeds());
    assert_eq!(serial.seeds_manifest(), parallel.seeds_manifest());
    for name in ARTIFACTS {
        let a = serial.companion(name).expect("serial companion");
        let b = parallel.companion(name).expect("parallel companion");
        assert!(
            a.to_csv().as_bytes() == b.to_csv().as_bytes(),
            "companion `{name}.ens.csv` differs between serial and 4-worker ensembles"
        );
    }
    assert!(
        serial.to_prometheus().as_bytes() == parallel.to_prometheus().as_bytes(),
        "seeded telemetry.prom differs between serial and 4-worker ensembles"
    );
}

#[test]
fn replica_zero_reproduces_a_standalone_study_and_stats_are_sane() {
    let config = EcosystemConfig::tiny().with_parallelism(1);
    let n = 3;
    let ensemble = Ensemble::run(&config, &seeds_for(config.seed, n));

    // Replica 0 runs under the base seed itself: its artifacts are the
    // bytes a plain single-seed `figures` run would have written.
    let standalone = Study::new(config.clone()).run();
    for name in ARTIFACTS {
        let primary = build(name, ensemble.primary()).expect("primary artifact");
        let plain = build(name, &standalone).expect("standalone artifact");
        assert!(
            primary.table.to_csv().as_bytes() == plain.table.to_csv().as_bytes(),
            "primary artifact `{name}` differs from a standalone run"
        );
    }
    assert!(
        ensemble.primary().telemetry.to_prometheus().as_bytes()
            == standalone.telemetry.to_prometheus().as_bytes(),
        "primary telemetry.prom differs from a standalone run"
    );

    // Companion shape: every row summarizes all n seeds, the interval
    // contains the mean, and the envelope bounds it.
    let mut nondegenerate = 0usize;
    for name in ARTIFACTS {
        let companion = ensemble.companion(name).expect("companion");
        for row in companion.rows() {
            let metric = &row[0];
            let stat =
                |i: usize| -> f64 { row[i].parse().unwrap_or_else(|_| panic!("{metric}[{i}]")) };
            let (mean, ci_lo, ci_hi) = (stat(1), stat(2), stat(3));
            let (stddev, min, max) = (stat(5), stat(6), stat(7));
            assert_eq!(row[4], n.to_string(), "{name}/{metric}: wrong n");
            assert!(
                ci_lo <= mean && mean <= ci_hi,
                "{name}/{metric}: CI excludes mean"
            );
            assert!(
                min <= mean && mean <= max,
                "{name}/{metric}: envelope excludes mean"
            );
            assert!(stddev >= 0.0, "{name}/{metric}: negative stddev");
            if stddev > 0.0 {
                assert!(ci_hi > ci_lo, "{name}/{metric}: variance but zero-width CI");
                nondegenerate += 1;
            }
        }
    }
    assert!(
        nondegenerate > 0,
        "every companion cell is zero-variance — the ensemble measured nothing"
    );
}
