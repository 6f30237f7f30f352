//! A miniature property-testing harness replacing the `proptest` crate for
//! this workspace's suites.
//!
//! It keeps the parts the test files actually use — the `proptest!` macro
//! with `arg in strategy` bindings, range and `any::<T>()` strategies,
//! `prop_map`, `collection::vec`, and `prop_assert!`/`prop_assert_eq!` —
//! and drops shrinking. Failures instead print the failing case's inputs
//! and the seed needed to replay it:
//!
//! * `SMOKESCREEN_PT_SEED=<n>` pins the base seed (printed on failure),
//! * `SMOKESCREEN_PT_CASES=<n>` overrides the per-test case count
//!   (default 64).
//!
//! Both are read under the `rt::knob` policy: a malformed seed or a case
//! count below 1 fails the test loudly instead of replaying nothing.
//!
//! Case generation is deterministic: each test derives its base seed from
//! its own name, so suites are reproducible run-to-run and across
//! machines.

use crate::knob;
use crate::rng::StdRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A generator of random values for one `proptest!` argument.
pub trait Strategy {
    /// The value type produced.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

/// Full-type-range generation for [`any`].
pub trait Arbitrary: Debug + Sized {
    /// Draws one value covering the whole type.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        // Finite, sign-symmetric, spanning several orders of magnitude —
        // enough for numeric property tests without NaN plumbing.
        let mag = rng.gen_range(-9.0f64..9.0);
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        sign * 10f64.powf(mag)
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Strategy over the full range of `T`, e.g. `any::<u64>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use std::ops::Range;

    /// The strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(!len.is_empty(), "vec strategy requires a non-empty length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Number of cases each property runs: `SMOKESCREEN_PT_CASES` if set (a
/// positive integer, so a property can never pass vacuously), else 64.
pub fn case_count() -> u64 {
    knob::get("SMOKESCREEN_PT_CASES", &knob::POSITIVE).map_or(64, |n| n as u64)
}

/// Base seed for a property test: `SMOKESCREEN_PT_SEED` if set (a decimal
/// `u64`, as printed on failure), else an FNV-1a hash of the test name
/// (stable across runs and platforms).
pub fn base_seed(test_name: &str) -> u64 {
    if let Some(seed) = knob::get("SMOKESCREEN_PT_SEED", &knob::SEED) {
        return seed;
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Derives the per-case seed from the base seed.
pub fn case_seed(base: u64, case: u64) -> u64 {
    base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything a property-test file needs: `use
/// smokescreen_rt::proptest::prelude::*;`.
///
/// The glob also binds the name `proptest` itself (both this module and
/// the [`proptest!`](crate::proptest) macro), so
/// `proptest::collection::vec(..)`-style paths keep resolving exactly as
/// they did against the external crate.
pub mod prelude {
    pub use super::{any, collection, Arbitrary, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each function runs its body against many
/// seeded random cases; a failing case prints its inputs and replay seed
/// before propagating the panic.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cases = $crate::proptest::case_count();
                let __base = $crate::proptest::base_seed(stringify!($name));
                $(let $arg = $strat;)+
                for __case in 0..__cases {
                    let __seed = $crate::proptest::case_seed(__base, __case);
                    let mut __rng = $crate::rng::StdRng::seed_from_u64(__seed);
                    $(
                        let $arg = $crate::proptest::Strategy::generate(&$arg, &mut __rng);
                    )+
                    let __inputs = format!(
                        concat!($("\n    ", stringify!($arg), " = {:?}"),+),
                        $(&$arg),+
                    );
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let ::std::result::Result::Err(__panic) = __outcome {
                        eprintln!(
                            "[smokescreen-rt proptest] {} failed at case {}/{}\n  \
                             replay: SMOKESCREEN_PT_SEED={} SMOKESCREEN_PT_CASES={}\n  \
                             inputs:{}",
                            stringify!($name),
                            __case + 1,
                            __cases,
                            __base,
                            __cases,
                            __inputs,
                        );
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let s = collection::vec((0u32..100).prop_map(f64::from), 2..50);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let s = collection::vec(0u32..10, 2..5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn base_seed_differs_per_test_name() {
        assert_ne!(base_seed("alpha"), base_seed("beta"));
        assert_eq!(base_seed("alpha"), base_seed("alpha"));
    }

    #[test]
    fn any_u64_spans_magnitudes() {
        let s = any::<u64>();
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<u64> = (0..64).map(|_| s.generate(&mut rng)).collect();
        assert!(vals.iter().any(|&v| v > u64::MAX / 2));
        assert!(vals.iter().any(|&v| v < u64::MAX / 2));
    }

    // The macro itself, exercised end-to-end.
    proptest! {
        #[test]
        fn macro_binds_multiple_args(
            xs in collection::vec(0u32..7, 1..20),
            k in 1usize..4,
        ) {
            prop_assert!(xs.iter().all(|&x| x < 7));
            prop_assert!(k >= 1 && k < 4);
            prop_assert_eq!(xs.len(), xs.len());
        }
    }
}
