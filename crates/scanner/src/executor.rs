//! A deterministic sharded executor for the scan campaigns.
//!
//! The real study ran six clients POSTing to 536 responders every hour
//! for four months; the simulation replays that serially in a single
//! loop. This module shards that loop across OS threads **without
//! changing a single output byte**:
//!
//! * Work is split into *shards* — one per responder (hourly scan,
//!   Alexa1M) or one per operator (consistency study) — and each shard
//!   into one or more time *chunks*. A (shard × chunk) work unit is the
//!   unit of determinism, not the thread: a unit always processes the
//!   exact same probe subsequence the serial run would have given it.
//! * Each unit owns a private RNG seeded by [`seed_for_shard`] or
//!   [`seed_for_chunk`] — a fixed function of the *unit id*, never of
//!   the worker that happens to run it. Worker count and OS scheduling
//!   therefore cannot influence any random draw.
//! * Unit results come back per shard in chunk order regardless of
//!   completion order, so the caller's merge is canonical.
//! * Each worker may also carry an accumulator through every unit it
//!   runs (`Executor::run_folded`). A unit folds into it only what
//!   adds up the same in any order — integer sums — so the campaign
//!   totals need neither per-unit copies nor an order, and only what is
//!   order-sensitive waits for the canonical merge.
//!
//! A "serial" run is simply `workers = 1` through the identical worker
//! loop, run on the calling thread — there is no second implementation
//! to drift.
//!
//! Only `std::thread::scope` is used; no thread-pool dependency
//! (DESIGN.md §6: standard library only).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use telemetry::trace::Span;

/// Derive the RNG seed for one shard from the campaign's base seed.
///
/// This is the SplitMix64 finalizer over `base ^ (shard · φ64)`: cheap,
/// bijective in `base` for fixed `shard`, and avalanching, so
/// neighboring shard ids get statistically independent streams. The
/// derivation depends only on `(base_seed, shard_id)` — *not* on worker
/// count or scheduling — which is the whole determinism argument.
pub fn seed_for_shard(base_seed: u64, shard_id: u64) -> u64 {
    let mut z = base_seed ^ shard_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ready-to-use RNG for one shard.
pub fn shard_rng(base_seed: u64, shard_id: u64) -> StdRng {
    StdRng::seed_from_u64(seed_for_shard(base_seed, shard_id))
}

/// Derive the RNG seed for one *chunk* of a shard: the
/// [`seed_for_shard`] derivation applied twice, first over the shard id
/// and then over the chunk index. A shard with a single chunk draws
/// `seed_for_shard(base, shard)` instead (see [`Executor::run_chunked`]),
/// so cutting a shard into one chunk changes no random stream.
pub fn seed_for_chunk(base_seed: u64, shard_id: u64, chunk: u64) -> u64 {
    seed_for_shard(seed_for_shard(base_seed, shard_id), chunk)
}

/// A ready-to-use RNG for one chunk of a shard. Chunk 0 of a
/// single-chunk shard must use [`shard_rng`] instead — see
/// [`Executor::run_chunked`] for the compatibility rule.
pub fn chunk_rng(base_seed: u64, shard_id: u64, chunk: u64) -> StdRng {
    StdRng::seed_from_u64(seed_for_chunk(base_seed, shard_id, chunk))
}

/// Runs shard closures across a fixed number of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: NonZeroUsize,
}

impl Executor {
    /// An executor with the given worker count; `None` means "use
    /// [`std::thread::available_parallelism`]" (falling back to 1 if
    /// that errors).
    pub fn new(workers: Option<NonZeroUsize>) -> Executor {
        let workers = workers
            .or_else(|| std::thread::available_parallelism().ok())
            .unwrap_or(NonZeroUsize::MIN);
        Executor { workers }
    }

    /// A single-threaded executor (the serial escape hatch).
    pub fn serial() -> Executor {
        Executor {
            workers: NonZeroUsize::MIN,
        }
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// Run `job` over (shard × chunk) work units, returning per-shard
    /// result vectors in chunk order.
    ///
    /// Chunks split a shard's timeline into independently runnable
    /// pieces, so one Alexa-heavy responder no longer serializes a whole
    /// worker. `chunks_per_shard[s]` is the number of chunks for shard
    /// `s`; all units feed one shared atomic queue.
    ///
    /// RNG rule: a shard with exactly one chunk draws
    /// [`seed_for_shard`]`(base, shard)` while multi-chunk shards draw
    /// [`seed_for_chunk`]`(base, shard, chunk)` per chunk. Both depend
    /// only on indices, never on worker count, so output is identical
    /// for every worker count; callers must additionally pick the
    /// *chunk plan* as a pure function of configuration.
    pub fn run_chunked<R, F>(
        &self,
        base_seed: u64,
        chunks_per_shard: &[usize],
        job: F,
    ) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, usize, &mut StdRng) -> R + Sync,
    {
        let (_, per_shard) = self.run_folded(
            base_seed,
            chunks_per_shard,
            || (),
            |(), shard, chunk, rng| job(shard, chunk, rng),
        );
        per_shard
    }

    /// [`Executor::run_chunked`], with a deterministic trace span per
    /// chunk.
    ///
    /// `job` returns `(result, span)` per chunk; chunk spans aggregate
    /// into one shard span named by `shard_name(shard_id)` (envelope
    /// hours, summed units — see [`Span::aggregate`]). Returns the
    /// per-shard results exactly as [`Executor::run_chunked`] would,
    /// plus the shard spans in shard-id order, so the trace is as
    /// worker-count-independent as the results themselves.
    pub fn run_chunked_traced<R, F, N>(
        &self,
        base_seed: u64,
        chunks_per_shard: &[usize],
        shard_name: N,
        job: F,
    ) -> (Vec<Vec<R>>, Vec<Span>)
    where
        R: Send,
        F: Fn(usize, usize, &mut StdRng) -> (R, Span) + Sync,
        N: Fn(usize) -> String,
    {
        let (_, results, spans) = self.run_folded_traced(
            base_seed,
            chunks_per_shard,
            || (),
            shard_name,
            |(), shard, chunk, rng| job(shard, chunk, rng),
        );
        (results, spans)
    }

    /// [`Executor::run_folded`], with a deterministic trace span per
    /// chunk aggregated into one span per shard, as in
    /// [`Executor::run_chunked_traced`].
    pub(crate) fn run_folded_traced<A, R, I, F, N>(
        &self,
        base_seed: u64,
        chunks_per_shard: &[usize],
        init: I,
        shard_name: N,
        job: F,
    ) -> (Vec<A>, Vec<Vec<R>>, Vec<Span>)
    where
        A: Send,
        R: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, usize, &mut StdRng) -> (R, Span) + Sync,
        N: Fn(usize) -> String,
    {
        let (accumulators, per_shard) = self.run_folded(base_seed, chunks_per_shard, init, job);
        let mut results = Vec::with_capacity(per_shard.len());
        let mut spans = Vec::with_capacity(per_shard.len());
        for (shard, pairs) in per_shard.into_iter().enumerate() {
            let (shard_results, chunk_spans): (Vec<R>, Vec<Span>) = pairs.into_iter().unzip();
            results.push(shard_results);
            spans.push(Span::aggregate(shard_name(shard), chunk_spans));
        }
        (accumulators, results, spans)
    }

    /// The one worker loop: run `job` over (shard × chunk) work units,
    /// folding each into the accumulator of the worker that runs it.
    ///
    /// Every worker starts from `init()` and lends its accumulator to
    /// each unit it claims from the shared queue. Which worker claims
    /// which unit depends on scheduling, so a unit may fold into the
    /// accumulator only what adds up the same in any order (integer
    /// sums, say), and the caller may only add the returned
    /// accumulators together — one per worker, at least one. Whatever
    /// depends on order a unit returns as its result; the results come
    /// back per shard in chunk order, and each unit draws its RNG, as
    /// in [`Executor::run_chunked`].
    ///
    /// With one worker (or at most one unit) the loop runs on the
    /// calling thread; otherwise each worker is a scoped thread.
    pub(crate) fn run_folded<A, R, I, F>(
        &self,
        base_seed: u64,
        chunks_per_shard: &[usize],
        init: I,
        job: F,
    ) -> (Vec<A>, Vec<Vec<R>>)
    where
        A: Send,
        R: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, usize, &mut StdRng) -> R + Sync,
    {
        let units: Vec<(usize, usize)> = chunks_per_shard
            .iter()
            .enumerate()
            .flat_map(|(shard, &chunks)| (0..chunks).map(move |chunk| (shard, chunk)))
            .collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..units.len()).map(|_| Mutex::new(None)).collect();
        let worker = || {
            let mut acc = init();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(shard, chunk)) = units.get(i) else {
                    return acc;
                };
                let mut rng = if chunks_per_shard[shard] == 1 {
                    shard_rng(base_seed, shard as u64)
                } else {
                    chunk_rng(base_seed, shard as u64, chunk as u64)
                };
                let result = job(&mut acc, shard, chunk, &mut rng);
                #[expect(clippy::expect_used, reason = "a slot's lock only guards a store")]
                let mut slot = slots[i]
                    .lock()
                    .expect("a slot's lock is held only to store its result");
                *slot = Some(result);
            }
        };

        let workers = self.workers.get().min(units.len().max(1));
        let accumulators = if workers == 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle
                            .join()
                            .unwrap_or_else(|e| std::panic::resume_unwind(e))
                    })
                    .collect()
            })
        };

        let mut results = slots.into_iter().map(|slot| {
            #[expect(clippy::expect_used, reason = "a slot's lock only guards a store")]
            let stored = slot
                .into_inner()
                .expect("a slot's lock is held only to store its result");
            #[expect(clippy::expect_used, reason = "every unit stored exactly one result")]
            let result = stored.expect("every unit index was claimed exactly once");
            result
        });
        let per_shard = chunks_per_shard
            .iter()
            .map(|&c| (&mut results).take(c).collect())
            .collect();
        (accumulators, per_shard)
    }
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    fn stream(seed: u64, shard: u64, n: usize) -> Vec<u64> {
        let mut rng = shard_rng(seed, shard);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_and_shard_give_identical_streams() {
        assert_eq!(stream(2018, 3, 64), stream(2018, 3, 64));
    }

    #[test]
    fn distinct_shards_give_distinct_streams() {
        for a in 0..24u64 {
            for b in (a + 1)..24 {
                assert_ne!(
                    stream(7, a, 8),
                    stream(7, b, 8),
                    "shards {a} and {b} collided"
                );
            }
        }
    }

    #[test]
    fn distinct_base_seeds_give_distinct_streams() {
        assert_ne!(stream(1, 0, 8), stream(2, 0, 8));
    }

    #[test]
    fn shard_zero_is_not_the_raw_base_seed_stream() {
        // Shard 0 must still go through the derivation, otherwise its
        // stream would collide with unrelated uses of the base seed.
        let mut raw = StdRng::seed_from_u64(2018);
        let raw_stream: Vec<u64> = (0..8).map(|_| raw.next_u64()).collect();
        assert_ne!(stream(2018, 0, 8), raw_stream);
    }

    #[test]
    fn results_come_back_in_shard_order() {
        let out =
            Executor::new(NonZeroUsize::new(4)).run_chunked(0, &[1; 100], |shard, _, _| shard);
        let expected: Vec<Vec<usize>> = (0..100).map(|shard| vec![shard]).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn zero_shards_is_fine() {
        let out = Executor::new(NonZeroUsize::new(4)).run_chunked(0, &[], |_, _, _| ());
        assert!(out.is_empty());
    }

    #[test]
    fn single_chunk_shards_draw_the_shard_stream() {
        // The compatibility rule: a shard cut into one chunk draws
        // exactly the stream `shard_rng` gives it, at any worker count.
        let job = |_: usize, chunk: usize, rng: &mut StdRng| -> Vec<u64> {
            assert_eq!(chunk, 0);
            (0..6).map(|_| rng.next_u64()).collect()
        };
        for workers in [1usize, 3] {
            let chunked = Executor::new(NonZeroUsize::new(workers)).run_chunked(2018, &[1; 9], job);
            for (shard, results) in chunked.iter().enumerate() {
                assert_eq!(
                    results,
                    &vec![stream(2018, shard as u64, 6)],
                    "shard {shard}"
                );
            }
        }
    }

    #[test]
    fn chunk_streams_are_distinct_from_each_other_and_the_shard_stream() {
        let shard = stream(2018, 4, 8);
        let mut chunk_streams = Vec::new();
        for chunk in 0..8u64 {
            let mut rng = chunk_rng(2018, 4, chunk);
            chunk_streams.push((0..8).map(|_| rng.next_u64()).collect::<Vec<_>>());
        }
        for (i, cs) in chunk_streams.iter().enumerate() {
            assert_ne!(*cs, shard, "chunk {i} collided with the shard stream");
            for (j, other) in chunk_streams.iter().enumerate().skip(i + 1) {
                assert_ne!(cs, other, "chunks {i} and {j} collided");
            }
        }
    }

    #[test]
    fn worker_count_does_not_affect_chunked_results() {
        let chunks = [3usize, 1, 7, 2, 1, 5, 4];
        let job = |shard: usize, chunk: usize, rng: &mut StdRng| -> (usize, usize, Vec<u64>) {
            let n = 1 + (shard * 5 + chunk * 3) % 11;
            (shard, chunk, (0..n).map(|_| rng.next_u64()).collect())
        };
        let serial = Executor::serial().run_chunked(42, &chunks, job);
        assert_eq!(serial.len(), chunks.len());
        for (shard, results) in serial.iter().enumerate() {
            assert_eq!(results.len(), chunks[shard]);
            for (chunk, r) in results.iter().enumerate() {
                assert_eq!((r.0, r.1), (shard, chunk));
            }
        }
        for workers in [2usize, 3, 4, 8] {
            let parallel = Executor::new(NonZeroUsize::new(workers)).run_chunked(42, &chunks, job);
            assert_eq!(serial, parallel, "workers={workers} diverged from serial");
        }
    }

    #[test]
    fn zero_chunks_everywhere_is_fine() {
        let out = Executor::new(NonZeroUsize::new(4))
            .run_chunked(0, &[0, 0, 0], |_, _, _| panic!("zero chunks run no job"));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(Vec::<()>::is_empty));
    }

    #[test]
    fn traced_chunking_matches_plain_and_aggregates_spans() {
        let chunks = [2usize, 1, 3];
        let plain_job = |shard: usize, chunk: usize, rng: &mut StdRng| -> u64 {
            rng.next_u64().wrapping_add((shard * 10 + chunk) as u64)
        };
        let traced_job = |shard: usize, chunk: usize, rng: &mut StdRng| -> (u64, Span) {
            let value = plain_job(shard, chunk, rng);
            let start = (chunk * 4) as u64;
            (
                value,
                Span::leaf(format!("chunk {chunk}"), start, start + 4, 1),
            )
        };
        let plain = Executor::serial().run_chunked(7, &chunks, plain_job);
        let (results, spans) = Executor::serial().run_chunked_traced(
            7,
            &chunks,
            |shard| format!("shard {shard}"),
            traced_job,
        );
        assert_eq!(results, plain, "tracing must not perturb results");
        assert_eq!(spans.len(), chunks.len());
        assert_eq!(spans[0].name, "shard 0");
        assert_eq!((spans[0].start_hour, spans[0].end_hour), (0, 8));
        assert_eq!(spans[0].units, 2);
        assert_eq!(spans[2].children.len(), 3);
        for workers in [2usize, 4] {
            let (_, parallel_spans) = Executor::new(NonZeroUsize::new(workers)).run_chunked_traced(
                7,
                &chunks,
                |shard| format!("shard {shard}"),
                traced_job,
            );
            assert_eq!(spans, parallel_spans, "workers={workers} trace diverged");
        }
    }

    #[test]
    fn folded_sums_and_results_are_worker_count_invariant() {
        // Each unit adds its draws into the worker's accumulator and
        // returns its (shard, chunk) id: the accumulators must sum to the
        // same totals, and the results match `run_chunked`'s, for every
        // worker count.
        let chunks = [3usize, 1, 7, 2, 1, 5, 4];
        let job = |acc: &mut (u64, u64), shard: usize, chunk: usize, rng: &mut StdRng| {
            let draw = rng.next_u64() >> 8;
            acc.0 += draw;
            acc.1 += 1;
            (shard, chunk, draw)
        };
        let sum = |accs: &[(u64, u64)]| {
            accs.iter()
                .fold((0u64, 0u64), |(a, n), &(b, m)| (a + b, n + m))
        };
        let (serial_accs, serial) = Executor::serial().run_folded(42, &chunks, || (0, 0), job);
        assert_eq!(serial_accs.len(), 1);
        let units: usize = chunks.iter().sum();
        let draws: u64 = serial.iter().flatten().map(|r| r.2).sum();
        assert_eq!(
            sum(&serial_accs),
            (draws, units as u64),
            "each unit folds once"
        );
        let plain = Executor::serial().run_chunked(42, &chunks, |shard, chunk, rng| {
            (shard, chunk, rng.next_u64() >> 8)
        });
        assert_eq!(serial, plain, "folding must not perturb results");
        for workers in [2usize, 3, 4, 8, 64] {
            let (accs, parallel) =
                Executor::new(NonZeroUsize::new(workers)).run_folded(42, &chunks, || (0, 0), job);
            assert!(!accs.is_empty() && accs.len() <= workers.min(units));
            assert_eq!(sum(&accs), sum(&serial_accs), "workers={workers}");
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn no_units_still_yield_one_accumulator() {
        let (accs, out) =
            Executor::new(NonZeroUsize::new(4)).run_folded(0, &[0, 0], || 7u32, |_, _, _, _| ());
        assert_eq!(accs, vec![7]);
        assert_eq!(out, vec![Vec::<()>::new(), Vec::new()]);
    }

    #[test]
    fn shard_rng_draws_cover_ranges() {
        let mut rng = shard_rng(9, 9);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn default_executor_has_at_least_one_worker() {
        assert!(Executor::default().workers() >= 1);
    }
}
