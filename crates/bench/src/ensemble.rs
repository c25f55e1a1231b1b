//! Multi-seed ensemble runner.
//!
//! A single study run is one draw from one RNG seed; every number in a
//! regenerated figure is a point estimate with no error bar. This
//! module reruns the full campaign under N independently-derived seeds
//! and folds the N copies of each artifact into statistics with real
//! uncertainty: mean, sample standard deviation, Student-t 95 %
//! confidence intervals, and min/max envelopes (see
//! [`analysis::stats`]).
//!
//! Determinism contract, inherited from the executor:
//!
//! * Replica seeds are a pure function of `(base seed, replica index)`
//!   via [`seed_for_replica`] — the same SplitMix64 derivation
//!   [`scanner::executor::seed_for_shard`] uses, salted with
//!   [`ENSEMBLE_STREAM`] so ensemble streams never collide with the
//!   campaign's own shard streams. Replica 0 *is* the base seed, so the
//!   primary artifacts of an ensemble run are byte-identical to a
//!   plain single-seed run.
//! * Replicas are scheduled as top-level work units on
//!   [`Executor::run_chunked`] (one single-chunk shard per replica) and
//!   collected in replica order, so `--workers 1` and `--workers N`
//!   produce byte-identical companions, manifests, and expositions.
//! * Folding happens in canonical seed order (replica order), making
//!   every ensemble output a pure function of `(config, seeds)`.

use analysis::stats::fold_tables;
use analysis::Table;
use ecosystem::EcosystemConfig;
use mustaple::{Study, StudyResults};
use scanner::executor::{seed_for_shard, Executor};
use std::num::NonZeroUsize;
use telemetry::prom::Exposition;

/// Stream salt separating replica-seed derivation from the campaign's
/// own shard-seed derivation (the bytes spell `ENSEMBLE`). Without it,
/// replica `i` of base seed `b` would draw the same stream as shard `i`
/// of campaign seed `b`.
pub const ENSEMBLE_STREAM: u64 = 0x454e_5345_4d42_4c45;

/// The seed for replica `replica` of an ensemble rooted at `base_seed`.
///
/// Replica 0 is the base seed itself — an ensemble's first replica is
/// exactly the run a plain `figures` invocation would produce, so
/// committed single-seed baselines stay valid. Later replicas derive
/// through [`seed_for_shard`] over the [`ENSEMBLE_STREAM`]-salted base.
pub fn seed_for_replica(base_seed: u64, replica: usize) -> u64 {
    if replica == 0 {
        base_seed
    } else {
        seed_for_shard(base_seed ^ ENSEMBLE_STREAM, replica as u64)
    }
}

/// The first `n` replica seeds of an ensemble rooted at `base_seed`.
///
/// # Panics
///
/// Panics if the derivation ever collides (astronomically unlikely; a
/// collision would silently halve the effective sample size).
pub fn seeds_for(base_seed: u64, n: usize) -> Vec<u64> {
    let seeds: Vec<u64> = (0..n).map(|i| seed_for_replica(base_seed, i)).collect();
    assert_distinct(&seeds);
    seeds
}

fn assert_distinct(seeds: &[u64]) {
    for (i, a) in seeds.iter().enumerate() {
        assert!(!seeds[..i].contains(a), "replica seed collision on {a}");
    }
}

/// N completed study replicas, one per seed, in canonical seed order.
pub struct Ensemble {
    seeds: Vec<u64>,
    replicas: Vec<StudyResults>,
}

impl Ensemble {
    /// Run one full study per seed.
    ///
    /// Replicas are the parallel unit: they are scheduled as top-level
    /// single-chunk shards on [`Executor::run_chunked`] (sized by
    /// `config.parallelism`), and each replica's *inner* study runs
    /// serially so the worker budget is spent across replicas rather
    /// than nested. Inner results are worker-invariant anyway, so this
    /// is purely a scheduling choice, not a determinism requirement.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or contains duplicates.
    pub fn run(config: &EcosystemConfig, seeds: &[u64]) -> Ensemble {
        assert!(!seeds.is_empty(), "an ensemble needs at least one seed");
        assert_distinct(seeds);
        let replicas = Executor::new(config.parallelism)
            .run_chunked(
                config.seed,
                &vec![1; seeds.len()],
                |replica, _chunk, _rng| {
                    let mut replica_config = config.clone();
                    replica_config.seed = seeds[replica];
                    replica_config.parallelism = NonZeroUsize::new(1);
                    Study::new(replica_config).run()
                },
            )
            .into_iter()
            .map(|mut per_shard| per_shard.remove(0))
            .collect();
        Ensemble {
            seeds: seeds.to_vec(),
            replicas,
        }
    }

    /// The replica seeds, in canonical order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The completed replicas, in canonical seed order.
    pub fn replicas(&self) -> &[StudyResults] {
        &self.replicas
    }

    /// The primary replica (index 0 — the base seed when the ensemble
    /// was derived via [`seeds_for`]). Its artifacts are what a
    /// single-seed run would have produced.
    pub fn primary(&self) -> &StudyResults {
        &self.replicas[0]
    }

    /// Fold the named artifact's N per-seed tables into its ensemble
    /// companion table (the `<name>.ens.csv` payload). `None` when the
    /// artifact name is unknown or the per-seed tables cannot be folded
    /// (shape drift across seeds).
    pub fn companion(&self, name: &str) -> Option<Table> {
        let tables: Option<Vec<Table>> = self
            .replicas
            .iter()
            .map(|results| crate::build(name, results).map(|artifact| artifact.table))
            .collect();
        fold_tables(&tables?)
    }

    /// The `seeds.txt` manifest: one decimal seed per line, in
    /// canonical order.
    pub fn seeds_manifest(&self) -> String {
        let mut out = String::new();
        for seed in &self.seeds {
            out.push_str(&seed.to_string());
            out.push('\n');
        }
        out
    }

    /// The merged telemetry exposition: every replica's registry,
    /// absorbed in canonical seed order, each series carrying its
    /// `seed` label (see [`Exposition::from_seeded_registries`]).
    pub fn to_prometheus(&self) -> String {
        Exposition::from_seeded_registries(
            self.seeds
                .iter()
                .zip(&self.replicas)
                .map(|(&seed, results)| (seed, &results.telemetry)),
        )
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_zero_is_the_base_seed() {
        assert_eq!(seed_for_replica(2018, 0), 2018);
        assert_eq!(seed_for_replica(7, 0), 7);
    }

    #[test]
    fn later_replicas_derive_away_from_the_base() {
        let seeds = seeds_for(2018, 8);
        assert_eq!(seeds[0], 2018);
        for (i, &s) in seeds.iter().enumerate().skip(1) {
            assert_ne!(s, 2018, "replica {i} collapsed onto the base seed");
            // Salted derivation: never the campaign's own shard stream.
            assert_ne!(
                s,
                seed_for_shard(2018, i as u64),
                "replica {i} collided with campaign shard {i}"
            );
        }
    }

    #[test]
    fn seed_derivation_is_stable() {
        // Pinned values: committed `seeds.txt` baselines depend on them.
        assert_eq!(seeds_for(2018, 3), seeds_for(2018, 3));
        let again = seeds_for(2018, 5);
        assert_eq!(&seeds_for(2018, 3)[..], &again[..3]);
    }

    #[test]
    fn tiny_two_seed_ensemble_has_sane_shape() {
        let config = EcosystemConfig::tiny();
        let ensemble = Ensemble::run(&config, &seeds_for(config.seed, 2));
        assert_eq!(
            ensemble.seeds(),
            &[config.seed, seeds_for(config.seed, 2)[1]]
        );
        assert_eq!(ensemble.replicas().len(), 2);
        assert_eq!(ensemble.primary().config.seed, config.seed);
        assert_eq!(ensemble.seeds_manifest().lines().count(), 2);

        let companion = ensemble.companion("fig5").expect("fold fig5");
        assert_eq!(companion.header()[0], "metric");
        assert!(!companion.is_empty(), "fig5 companion is empty");
        for row in companion.rows() {
            assert_eq!(row[4], "2", "every cell summarizes both seeds");
        }
        assert!(ensemble.companion("no-such-artifact").is_none());

        let prom = ensemble.to_prometheus();
        assert!(prom.contains("seed=\"7\""), "missing primary seed label");
    }
}
