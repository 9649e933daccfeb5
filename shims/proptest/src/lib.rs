//! Offline stand-in for `proptest`.
//!
//! Reproduces the subset of the proptest API the workspace's tests use:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, [`Just`], [`any`], `prop::collection::vec`,
//! and the `prop_assert*`/`prop_assume!` macros. Sampling is deterministic
//! (seeded per test from the test's name), rejected cases via
//! `prop_assume!` are re-drawn with a bounded retry budget, and failures
//! panic with the offending assertion — there is no shrinking.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The RNG driving strategy sampling.
pub type TestRng = SmallRng;

/// Marker returned (via `Err`) when `prop_assume!` rejects a case.
#[derive(Clone, Copy, Debug)]
pub struct Rejected;

/// Runner configuration; only the case count is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic per-test RNG: FNV-1a of the test name.
#[doc(hidden)]
pub fn rng_for(test_name: &str) -> TestRng {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(hash)
}

/// Indirection so the macro expansion avoids an immediately-invoked
/// closure literal (and the lints that pattern attracts).
#[doc(hidden)]
pub fn run_case(case: impl FnOnce() -> Result<(), Rejected>) -> Result<(), Rejected> {
    case()
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn pick(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (API compatibility).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, dynamically-dispatched strategy.
pub struct BoxedStrategy<T>(Box<dyn StrategyObject<Value = T>>);

trait StrategyObject {
    type Value;
    fn pick_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> StrategyObject for S {
    type Value = S::Value;
    fn pick_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.pick(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn pick(&self, rng: &mut TestRng) -> T {
        self.0.pick_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn pick(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.pick(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn pick(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.pick(rng)).pick(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn pick(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn pick(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy {self:?}");
                let span = (self.end - self.start) as u64;
                self.start + (rng.random::<u64>() % span) as $ty
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn pick(&self, rng: &mut TestRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end - start) as u64 + 1;
                start + (rng.random::<u64>() % span) as $ty
            }
        }
    )*};
}

impl_int_range!(usize, u8, u16, u32, u64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn pick(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        self.start + rng.random::<f64>() * (self.end - self.start)
    }
}

macro_rules! impl_signed_range {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn pick(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy {self:?}");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.random::<u64>() % span) as i64) as $ty
            }
        }
    )*};
}

impl_signed_range!(i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn pick(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.pick(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.random::<bool>()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.random::<u64>()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.random::<u32>()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.random::<usize>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.random::<f64>()
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn pick(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngExt;

    /// Accepted size specifications for [`vec`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max_exclusive: len + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range {r:?}");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for vectors of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.random::<u64>() % span.max(1)) as usize;
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod prelude {
    /// Mirrors proptest's `prelude::prop` module alias.
    pub use crate as prop;
    pub use crate::{any, proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
}

/// Defines functions whose arguments are drawn from strategies. As in
/// proptest, the caller writes each one's `#[test]`: the macro adds none,
/// so a test is registered once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($body:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($body)* }
    };
    ($($body:tt)*) => {
        $crate::__proptest_tests! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($body)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::rng_for(::std::stringify!($name));
                let mut __accepted: u32 = 0;
                let mut __attempts: u32 = 0;
                let __max_attempts = __config.cases.saturating_mul(64).max(1024);
                while __accepted < __config.cases {
                    ::std::assert!(
                        __attempts < __max_attempts,
                        "too many rejected cases in {}",
                        ::std::stringify!($name),
                    );
                    __attempts += 1;
                    let __outcome = $crate::run_case(|| {
                        $(let $arg = $crate::Strategy::pick(&($strat), &mut __rng);)*
                        { $body }
                        ::std::result::Result::Ok(())
                    });
                    if __outcome.is_ok() {
                        __accepted += 1;
                    }
                }
            }
        )*
    };
}

/// Rejects the current case, drawing a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::Rejected);
        }
    };
}

/// Asserts within a property; failure fails the test immediately.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { ::std::assert!($($args)*) };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { ::std::assert_eq!($($args)*) };
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { ::std::assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_sampling() {
        let strat = (1usize..10, 0.0f64..1.0).prop_map(|(n, x)| (n * 2, x));
        let mut a = crate::rng_for("seed");
        let mut b = crate::rng_for("seed");
        for _ in 0..32 {
            assert_eq!(strat.pick(&mut a), strat.pick(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro wires strategies, assume, and assertions together.
        #[test]
        fn macro_end_to_end(
            n in 2usize..20,
            flags in prop::collection::vec(any::<bool>(), 1usize..8),
            scale in 0.5f64..2.0,
        ) {
            prop_assume!(n % 7 != 0);
            prop_assert!(n >= 2 && n < 20);
            prop_assert!(!flags.is_empty() && flags.len() < 8);
            prop_assert!(scale * 2.0 > scale, "scale {scale}");
            prop_assert_eq!(n + 1, 1 + n);
        }
    }
}
