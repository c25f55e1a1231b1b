//! Vendored stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build container has no crates.io registry, so this crate
//! implements exactly the slice of the proptest 1.x API that the
//! workspace's property tests use: the [`proptest!`] macro,
//! [`strategy::Strategy`] with `prop_map`, [`any`], numeric range
//! strategies, a regex-subset string strategy, [`collection::vec`],
//! [`option::of`], [`Just`], [`prop_oneof!`], the `prop_assert*`
//! macros, and [`test_runner::ProptestConfig`].
//!
//! Differences from upstream are deliberate and small: inputs are
//! generated from a deterministic per-test seed (the FNV-1a hash of the
//! test name), there is no shrinking, and failure messages report the
//! failing case index instead of a minimized input. Determinism means a
//! failure reproduces exactly by re-running the same test binary.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

pub use crate::strategy::{Just, Strategy};

/// Core strategy abstraction and combinators.
pub mod strategy {
    use super::*;

    /// A source of random values of one type.
    ///
    /// Unlike upstream proptest there is no value tree or shrinking:
    /// `generate` draws one concrete value.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform every generated value through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type (used by [`prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The combinator behind [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed strategies (behind [`prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from at least one arm.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut StdRng) -> V {
            let idx = rng.gen_range(0..self.arms.len());
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategies {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
    }

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut StdRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }
}

/// Types with a canonical "any value" strategy, used via [`any`].
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty => $m:ident),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.$m() as $t
            }
        }
    )*};
}

arbitrary_ints!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64
);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full range of values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A `Vec` whose length is uniform in `len` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(
            len.start < len.end,
            "empty length range for collection::vec"
        );
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::strategy::Strategy;
    use super::*;

    /// Strategy for `Option<S::Value>` (`None` half the time).
    pub struct OptionStrategy<S>(S);

    /// `Some` of the inner strategy or `None`, equiprobably.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Generation from the small regex subset used as string strategies.
pub mod string {
    use super::*;

    enum Atom {
        /// A set of candidate characters (from `[...]`, `\PC`, or a literal).
        Class(Vec<char>),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    /// Parse the supported regex subset: literals, `[...]` classes with
    /// ranges, `\PC` (printable), and `{m}` / `{m,n}` quantifiers.
    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let (lo, hi) = (chars[i], chars[i + 2]);
                            assert!(lo <= hi, "bad class range in {pattern:?}");
                            set.extend(lo..=hi);
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in {pattern:?}");
                    i += 1; // consume ']'
                    Atom::Class(set)
                }
                '\\' => {
                    // Only `\PC` (a printable character) is supported.
                    assert!(
                        chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C'),
                        "unsupported escape in pattern {pattern:?}"
                    );
                    i += 3;
                    Atom::Class((' '..='~').collect())
                }
                c => {
                    i += 1;
                    Atom::Class(vec![c])
                }
            };
            let (mut min, mut max) = (1, 1);
            if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated quantifier")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                match body.split_once(',') {
                    Some((lo, hi)) => {
                        min = lo.trim().parse().expect("bad quantifier");
                        max = hi.trim().parse().expect("bad quantifier");
                    }
                    None => {
                        min = body.trim().parse().expect("bad quantifier");
                        max = min;
                    }
                }
                assert!(min <= max, "bad quantifier in {pattern:?}");
                i = close + 1;
            }
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    /// Generate one string matching `pattern`.
    pub fn generate_from_pattern(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let count = rng.gen_range(piece.min..=piece.max);
            let Atom::Class(set) = &piece.atom;
            assert!(!set.is_empty(), "empty class in {pattern:?}");
            for _ in 0..count {
                out.push(set[rng.gen_range(0..set.len())]);
            }
        }
        out
    }
}

/// Test configuration, error type, and the driver behind [`proptest!`].
pub mod test_runner {
    use super::strategy::Strategy;
    use super::*;
    use rand::SeedableRng;

    /// How a single proptest case can fail.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property did not hold.
        Fail(String),
        /// The input was rejected (e.g. by `prop_assume!`); does not
        /// count as a failure, another input is drawn instead.
        Reject(String),
    }

    impl TestCaseError {
        /// A property violation.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        /// An input rejection.
        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }

    /// Runner configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted inputs each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config that runs `cases` inputs per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    fn seed_from_name(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Drive one property: draw inputs from `strategy` until `cases`
    /// of them are accepted, panicking on the first failure.
    ///
    /// The RNG is seeded from the test name, so each test's input
    /// sequence is stable across runs and machines.
    pub fn run_proptest<S, F>(config: &ProptestConfig, name: &str, strategy: &S, test: F)
    where
        S: Strategy,
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        let mut rng = StdRng::seed_from_u64(seed_from_name(name));
        let mut accepted: u32 = 0;
        let mut rejected: u32 = 0;
        let max_rejects = config.cases.saturating_mul(16).max(1024);
        while accepted < config.cases {
            let input = strategy.generate(&mut rng);
            match test(input) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= max_rejects,
                        "proptest {name}: too many rejected inputs \
                         ({rejected} rejects for {accepted} accepted cases)"
                    );
                }
                Err(TestCaseError::Fail(reason)) => {
                    panic!(
                        "proptest {name}: property failed at case {accepted} \
                         (deterministic seed; rerun reproduces): {reason}"
                    );
                }
            }
        }
    }
}

/// Everything a property-test file normally imports.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that checks the body against generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: one test fn per recursion step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(
                &$config,
                stringify!($name),
                &($($strat,)+),
                |($($arg,)+)| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Like `assert!`, but fails the current proptest case instead of
/// panicking directly (must be used where `Result<_, TestCaseError>`
/// can be returned).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Like `assert_eq!`, but fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            concat!("assertion failed: ", stringify!($left), " == ", stringify!($right))
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Reject the current input (it is re-drawn, not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = "[a-z][a-z0-9-]{0,14}[a-z0-9]".generate(&mut rng);
            assert!(s.len() >= 2 && s.len() <= 16, "bad length: {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            let last = s.chars().last().unwrap();
            assert!(last.is_ascii_lowercase() || last.is_ascii_digit());
        }
        for _ in 0..200 {
            let s = "\\PC{1,40}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 40);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let strat = crate::collection::vec(any::<u8>(), 3..7);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn option_of_produces_both_variants() {
        let mut rng = StdRng::seed_from_u64(3);
        let strat = crate::option::of(0u64..10);
        let values: Vec<_> = (0..100).map(|_| strat.generate(&mut rng)).collect();
        assert!(values.iter().any(Option::is_some));
        assert!(values.iter().any(Option::is_none));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: args, assume, assert, oneof.
        #[test]
        fn macro_round_trip(
            v in any::<i64>(),
            s in "[a-d]{2,5}",
            choice in prop_oneof![Just(1u8), Just(2u8), 3u8..=9],
        ) {
            prop_assume!(v != i64::MIN);
            prop_assert!(v.abs() >= 0 || v == i64::MIN);
            prop_assert_eq!(s.len(), s.chars().count());
            prop_assert!((1..=9).contains(&choice), "choice {} out of range", choice);
        }
    }
}
