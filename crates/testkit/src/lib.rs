#![warn(missing_docs)]
//! The workspace's property-test kit, depended on under the name
//! `proptest` so that suites read `use proptest::prelude::*`.
//!
//! Implements exactly the subset this workspace uses — `proptest!`,
//! `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`, `Strategy` with
//! `prop_map`, range/tuple strategies, `collection::vec`, `any`,
//! `ProptestConfig::with_cases` — generating random cases with a
//! deterministic per-test seed. No shrinking: a failing case reports
//! its case number and panics.

use std::marker::PhantomData;

/// Deterministic generator driving all strategies (SplitMix64, seeded
/// from the test-function name).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream depends only on `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        convergent_rng::splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }
}

/// A generator of values (stands in for `proptest::strategy::Strategy`;
/// no value trees / shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adaptor returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! uint_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u128;
                self.start + (u128::from(rng.next_u64()) % span) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end - start) as u128 + 1;
                start + (u128::from(rng.next_u64()) % span) as $t
            }
        }
    )*};
}
uint_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// `Just`-style constant strategy (handy for oneof arms).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Object-safe strategy, used by [`Union`] / `prop_oneof!`.
pub trait StrategyObj<T> {
    /// Generates one value.
    fn generate_obj(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> StrategyObj<S::Value> for S {
    fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Boxes one `prop_oneof!` arm. The box's value type is the arm's
/// `S::Value`, so the union's value type is inferred from the arms and
/// not from how the test body uses the drawn value.
#[doc(hidden)]
pub fn union_arm<S: Strategy + 'static>(arm: S) -> Box<dyn StrategyObj<S::Value>> {
    Box::new(arm)
}

/// Uniform choice between heterogeneous strategies with a common value
/// type (what `prop_oneof!` builds).
pub struct Union<T> {
    arms: Vec<Box<dyn StrategyObj<T>>>,
}

impl<T> Union<T> {
    /// Creates the union; panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<Box<dyn StrategyObj<T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let k = rng.below(self.arms.len() as u64) as usize;
        self.arms[k].generate_obj(rng)
    }
}

/// Types with a canonical strategy (stands in for `Arbitrary`).
pub trait ArbitraryValue {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl ArbitraryValue for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl ArbitraryValue for u16 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct AnyStrategy<A>(PhantomData<A>);

impl<A: ArbitraryValue> Strategy for AnyStrategy<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The canonical strategy for `A` (mirrors `proptest::prelude::any`).
#[must_use]
pub fn any<A: ArbitraryValue>() -> AnyStrategy<A> {
    AnyStrategy(PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};

    /// Length specification accepted by [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `elem` values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Runner configuration.

    /// Per-test configuration (only `cases` is honoured).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// Re-export under proptest's user-facing name.
pub use test_runner::Config as ProptestConfig;

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, ProptestConfig,
        Strategy,
    };
}

/// Builds a [`Union`] choosing uniformly between the given strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $($crate::union_arm($arm)),+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` block
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let mut __rng = $crate::TestRng::from_name(stringify!($name));
            for __case in 0..__cfg.cases {
                let ($($arg,)*) =
                    ($($crate::Strategy::generate(&($strat), &mut __rng),)*);
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| { $body }),
                );
                if let Err(err) = __outcome {
                    eprintln!(
                        "proptest: case {}/{} of {} failed (no shrinking)",
                        __case + 1,
                        __cfg.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(err);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples(x in 3usize..10, pair in (0u32..4, 0.0f64..1.0)) {
            let (a, b) = pair;
            prop_assert!((3..10).contains(&x));
            prop_assert!(a < 4);
            prop_assert!((0.0..1.0).contains(&b));
        }

        #[test]
        fn vec_and_oneof(
            v in crate::collection::vec(prop_oneof![0usize..2, 5usize..7], 2..5)
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for x in v {
                prop_assert!(x < 2 || (5..7).contains(&x));
            }
        }

        #[test]
        fn any_u64_works(s in any::<u64>()) {
            let _ = s;
        }
    }
}
