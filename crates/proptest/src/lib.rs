//! A minimal, dependency-free, deterministic stand-in for the subset of
//! the `proptest` API this workspace uses.
//!
//! The container this project builds in has no access to crates.io, so the
//! real `proptest` cannot be fetched. This crate re-implements exactly the
//! surface the workspace's property tests rely on:
//!
//! * [`Strategy`] with `generate` + [`Strategy::prop_map`];
//! * integer [`std::ops::Range`] strategies, tuple strategies (arity 2–6),
//!   [`any`] for primitives, and [`collection::vec`] /
//!   [`collection::btree_set`];
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_assert_ne!`] macros, plus [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate: generation is seeded deterministically
//! from the test name and case index (fully reproducible, no
//! `PROPTEST_CASES` env handling), and failing cases are reported but
//! **not shrunk**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;

/// Deterministic generator backing all strategies (xoshiro256++ seeded via
/// SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates the generator for one (test, case) pair.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        let mut sm = splitmix(h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut state = [0u64; 4];
        for word in &mut state {
            sm = splitmix(sm);
            *word = sm;
        }
        TestRng { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Error produced by a failing `prop_assert!` inside a property body.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail<S: Into<String>>(message: S) -> Self {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value-generation strategy.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_wide_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.wrapping_sub(self.start) as u128;
                let x = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                self.start.wrapping_add((x % span) as $t)
            }
        }
    )*};
}

impl_wide_range_strategy!(u128, i128);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical full-domain strategy (the [`any`] function).
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (e.g. `any::<u64>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::{vec, btree_set}`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Collection-size specifications: a fixed size or a half-open range.
    pub trait IntoSizeRange {
        /// Samples a size.
        fn sample_size(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_size(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn sample_size(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// The strategy returned by [`vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample_size(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `size` elements drawn from `element`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`btree_set`].
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            // Sample up to `n` elements; duplicates collapse, so the set may
            // come out smaller (same as the real crate under a tight
            // domain).
            let n = self.size.sample_size(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `BTreeSet`s of up to `size` elements.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        BTreeSetStrategy { element, size }
    }
}

/// Everything a property-test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Any, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// Namespace mirror of the real crate's `prop` module.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines deterministic property tests.
///
/// Mirrors the real crate's syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     #[test]
///     fn holds(x in 0u64..100, ys in prop::collection::vec(0u64..10, 1..20)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut proptest_case_rng =
                        $crate::TestRng::for_case(stringify!($name), case);
                    $(
                        let $arg = $crate::Strategy::generate(
                            &($strat),
                            &mut proptest_case_rng,
                        );
                    )+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body (early-returns a
/// [`TestCaseError`] instead of panicking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} != {:?})",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} != {:?}): {}",
                stringify!($left),
                stringify!($right),
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
            let s = Strategy::generate(&(2usize..4), &mut rng);
            assert!((2..4).contains(&s));
            let i = Strategy::generate(&(-3i64..3), &mut rng);
            assert!((-3..3).contains(&i));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = prop::collection::vec(0u64..1000, 1..50);
        let a = Strategy::generate(&strat, &mut TestRng::for_case("det", 7));
        let b = Strategy::generate(&strat, &mut TestRng::for_case("det", 7));
        assert_eq!(a, b);
        let c = Strategy::generate(&strat, &mut TestRng::for_case("det", 8));
        assert_ne!(a, c, "different cases should differ");
    }

    #[test]
    fn prop_map_and_tuples_compose() {
        let strat = (0u64..10, 0u64..10).prop_map(|(a, b)| a + b);
        let mut rng = TestRng::for_case("map", 0);
        for _ in 0..100 {
            assert!(Strategy::generate(&strat, &mut rng) < 19);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_checks(x in 0u64..100, flag in any::<bool>()) {
            prop_assert!(x < 100);
            // Both generated values reach the body: the flag picks the
            // radix `x` round-trips through.
            let radix = if flag { 16 } else { 10 };
            let shown = if flag { format!("{x:x}") } else { x.to_string() };
            prop_assert_eq!(u64::from_str_radix(&shown, radix), Ok(x));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
