//! Offline stand-in for `proptest`.
//!
//! Provides deterministic random-case testing with the subset of the
//! proptest surface this workspace uses: the [`proptest!`] macro,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, range and tuple
//! strategies, [`Just`], [`any`], and [`collection::vec`].
//!
//! Unlike the real crate there is no shrinking and no failure
//! persistence: a failing case reports its case index, and every run
//! replays the same deterministic case sequence (no clock or OS entropy
//! is consulted), so a reported failure always reproduces.

#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Everything a test module normally imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, Union,
    };
}

// ---- configuration and errors ----------------------------------------------

/// Per-block configuration, set via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure of a single random case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure from any displayable reason.
    pub fn fail(reason: impl ToString) -> Self {
        TestCaseError(reason.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

// ---- deterministic RNG -----------------------------------------------------

/// Deterministic per-case random source (splitmix64).
///
/// Seeded purely from the case index so test runs are reproducible
/// everywhere.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for case number `case` of a test function.
    pub fn deterministic(case: u64) -> Self {
        TestRng {
            state: case.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling range");
        // Multiply-shift bounded sampling; bias is negligible for test
        // generation purposes.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---- strategies ------------------------------------------------------------

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// A [`Strategy`] behind a type-erased box, as produced by
/// [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among several boxed strategies; the expansion of
/// `prop_oneof!`.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union over the given non-empty option list.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.next_below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// The canonical whole-domain strategy for `T`, as returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// The whole-domain strategy for a type: `any::<u8>()` etc.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical whole-domain generator.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128) as u64;
                let offset = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.next_below(span + 1)
                };
                (*self.start() as i128 + offset as i128) as $t
            }
        }
    )*};
}

strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        self.start() + unit * (self.end() - self.start())
    }
}

macro_rules! strategy_for_tuple {
    ($(($($s:ident : $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

strategy_for_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A vector of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---- macros ----------------------------------------------------------------

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(128))]
///     #[test]
///     fn holds(x in 0u64..100, flag in any::<bool>()) {
///         prop_assert!(x < 100 || flag);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!((<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: expands each test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident ( $($params:tt)* ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::TestRng::deterministic(case);
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $crate::__proptest_bind!(rng; $($params)*);
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest `{}` failed at case {case}/{}: {e}",
                        stringify!($name),
                        config.cases,
                    );
                }
            }
        }
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: binds one `name in strategy`
/// parameter at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body, failing the case (not
/// panicking) on mismatch.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`",
                left, right,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`: {}",
                left,
                right,
                format!($($fmt)+),
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = crate::TestRng::deterministic(3);
        let mut b = crate::TestRng::deterministic(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = crate::TestRng::deterministic(4);
        assert_ne!(crate::TestRng::deterministic(3).next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(
            x in 10u32..20,
            y in -5i64..5,
            f in 0.0..=1.0f64,
            z in any::<u8>(),
        ) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.0..=1.0).contains(&f), "f = {f}");
            let _ = z;
        }

        #[test]
        fn vec_and_oneof_compose(
            xs in crate::collection::vec(
                prop_oneof![Just(1u8), Just(2u8), (3u8..10).prop_map(|v| v)],
                0..16,
            ),
        ) {
            prop_assert!(xs.len() < 16);
            for x in xs {
                prop_assert!((1..10).contains(&x));
            }
        }

        #[test]
        fn question_mark_propagates(n in 0u8..4) {
            let r: Result<u8, &str> = Ok(n);
            let v = r.map_err(TestCaseError::fail)?;
            prop_assert_eq!(v, n);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    // The nested `#[test]` is deliberately unnameable: it is invoked by
    // hand below rather than collected by the harness.
    #[allow(unnameable_test_items)]
    fn failing_case_panics_with_index() {
        proptest! {
            #[test]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 200, "x = {x}");
            }
        }
        always_fails();
    }
}
