//! Vendored stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 API subset).
//!
//! The build container has no crates.io registry, so the workspace
//! vendors the thin slice of `rand` it actually uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! `gen_range`, `gen_bool`, and `fill`. The generator is xoshiro256**
//! seeded through SplitMix64 — not `rand`'s ChaCha12, so streams differ
//! from upstream `rand`, but every consumer in this workspace only
//! requires determinism (same seed, same stream, forever) and solid
//! statistical quality, both of which xoshiro256** provides.
//!
//! Nothing here is cryptographic; the study's crypto lives in
//! `simcrypto` and never draws from this crate for secrecy.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: raw output blocks.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (mirroring `rand 0.8`'s extension-trait design).
pub trait Rng: RngCore {
    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} out of range"
        );
        unit_f64(self.next_u64()) < p
    }

    /// Fill `dest` (a byte buffer) with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T)
    where
        Self: Sized,
    {
        dest.fill_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types that can be filled with random bytes via [`Rng::fill`].
pub trait Fill {
    /// Overwrite `self` with bytes drawn from `rng`.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self)
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self)
    }
}

/// Deterministic seeding.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed. Same seed, same stream, bit for bit.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    // 53 mantissa bits of precision, the standard construction.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform integer below `span` (`span > 0`) via 128-bit widening
/// multiply. The modulo bias is below 2^-64 — irrelevant for simulation.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range called with empty range");
                let span = end.wrapping_sub(start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                self.start + (unit_f64(rng.next_u64()) as $t) * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range called with empty range");
                start + (unit_f64(rng.next_u64()) as $t) * (end - start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// (Blackman & Vigna), state seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    use super::RngCore;

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let v: i64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: u8 = rng.gen_range(1..=255);
            assert!(w >= 1);
            let f: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in a small span appear");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.03, "observed {freq}");
    }

    #[test]
    fn fill_fills_all_lengths() {
        let mut rng = StdRng::seed_from_u64(13);
        for len in [0usize, 1, 7, 8, 9, 16, 33] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf[..]);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} left all zero");
            }
        }
        let mut arr = [0u8; 16];
        rng.fill(&mut arr);
        assert!(arr.iter().any(|&b| b != 0));
    }

    #[test]
    fn full_u64_inclusive_range_works() {
        let mut rng = StdRng::seed_from_u64(17);
        // Regression guard for the span == u64::MAX special case.
        let v: u64 = rng.gen_range(0..=u64::MAX);
        let _ = v;
        let w: u64 = rng.gen_range(1..u64::MAX);
        assert!((1..u64::MAX).contains(&w));
    }
}
