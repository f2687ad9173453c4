//! Offline deterministic shim for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] macro, `prop_assert*`
//! macros, [`prop_oneof!`], [`Strategy`] with `prop_map`, integer/float
//! range strategies, tuple strategies, [`any`], [`collection::vec`] and a
//! [`test_runner::TestRunner`].
//!
//! Unlike upstream proptest there is **no shrinking and no persistence
//! file**: every run is fully deterministic. Cases are derived from
//! `Config::seed` (default [`test_runner::DEFAULT_SEED`], overridable per
//! config with [`test_runner::Config::seed`] or globally with the
//! `DMEM_PROPTEST_SEED` environment variable), the test's name and the
//! case index, so a reported failure names everything needed to replay
//! it: rerun the same test with the same seed and the same case index is
//! regenerated exactly.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// The deterministic RNG handed to strategies.
///
/// xoshiro256++ seeded by SplitMix64 expansion: a private copy of
/// `dmem_sim::DetRng`'s generator, since this crate is `dmem-sim`'s
/// dev-dependency and cannot use it. `dmem-sim`'s
/// `proptest_rng_is_the_same_stream` test holds the two to one stream.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A generator whose state is the first four outputs of the
    /// SplitMix64 stream that starts at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let s = std::array::from_fn(|i| {
            test_runner::splitmix(seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        });
        TestRng { s }
    }

    /// The next 64 random bits (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
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

    /// Uniform integer in `[lo, lo + span)`.
    fn offset(&mut self, lo: i128, span: u128) -> i128 {
        lo + (u128::from(self.next_u64()) % span) as i128
    }
}

/// A generator of values of one type.
///
/// This is the shim's flattened take on proptest's `Strategy`: a sampler
/// without shrink trees. `Value` must be `Debug` so failing cases can be
/// reported.
pub trait Strategy {
    /// The type of the generated values.
    type Value: fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erases the strategy's type (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let inner = self;
        BoxedStrategy(Rc::new(move |rng| inner.sample(rng)))
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among type-erased alternatives; see [`prop_oneof!`].
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T: fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.offset(0, self.0.len() as u128) as usize;
        self.0[idx].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                rng.offset(self.start as i128, span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                rng.offset(start as i128, span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `start + unit * (end - start)` for `unit` uniform in `[0, 1)` (53
/// mantissa bits).
impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Samples the half-open counterpart of the range.
impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        (*self.start()..*self.end()).sample(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical full-domain strategy, used by [`any`].
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<A>(std::marker::PhantomData<A>);

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn sample(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The full-domain strategy for `A`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length specification for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = (self.size.lo..self.size.hi).sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Test execution: configuration, case derivation and failure reporting.
pub mod test_runner {
    use super::{Strategy, TestRng};
    use std::fmt;

    /// Seed used when neither [`Config::seed`] nor `DMEM_PROPTEST_SEED`
    /// overrides it. Recorded here so failures are replayable forever.
    pub const DEFAULT_SEED: u64 = 0x243f_6a88_85a3_08d3;

    /// Why one generated case failed.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An explicit `prop_assert*` failure.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(reason) => write!(f, "{reason}"),
            }
        }
    }

    /// A whole test's failure: the case that failed and how to replay it.
    #[derive(Debug)]
    pub struct TestError {
        /// Human-readable description: seed, case index, values, reason.
        pub message: String,
    }

    impl fmt::Display for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.message)
        }
    }

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Base RNG seed; combined with the test name and case index.
        pub seed: u64,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                seed: env_seed().unwrap_or(DEFAULT_SEED),
            }
        }
    }

    impl Config {
        /// A config running `cases` cases with the default seed.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }

        /// Pins the base seed explicitly (wins over the environment).
        pub fn seed(mut self, seed: u64) -> Self {
            self.seed = seed;
            self
        }
    }

    fn env_seed() -> Option<u64> {
        let raw = std::env::var("DMEM_PROPTEST_SEED").ok()?;
        let raw = raw.trim();
        // Accept both the decimal form printed in failure banners and the
        // 0x-prefixed hex form used in docs and chaos reports.
        if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            raw.parse().ok()
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }

    pub(crate) fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The RNG for `(seed, test name, case index)`. Public so the
    /// [`crate::proptest!`] macro (and replay tooling) can rebuild any
    /// reported case.
    pub fn case_rng(seed: u64, name: &str, case: u32) -> TestRng {
        TestRng::seed_from_u64(splitmix(
            seed ^ fnv1a(name.as_bytes()) ^ splitmix(u64::from(case)),
        ))
    }

    /// Formats the standard replay banner for a failing case.
    pub fn failure_banner(name: &str, seed: u64, case: u32, values: &str, reason: &str) -> String {
        format!(
            "proptest case failed: {name} (seed = {seed:#x}, case = {case}): \
             inputs: {values}: {reason}\n\
             replay: DMEM_PROPTEST_SEED={seed} cargo test {name}"
        )
    }

    /// Explicit runner (the `TestRunner::run` style of driving cases).
    #[derive(Debug)]
    pub struct TestRunner {
        config: Config,
    }

    impl TestRunner {
        /// Creates a runner for `config`.
        pub fn new(config: Config) -> Self {
            TestRunner { config }
        }

        /// Runs `test` against `config.cases` generated values, stopping
        /// at the first failure.
        ///
        /// # Errors
        ///
        /// Returns a [`TestError`] describing the failing case.
        pub fn run<S: Strategy>(
            &mut self,
            strategy: &S,
            mut test: impl FnMut(S::Value) -> Result<(), TestCaseError>,
        ) -> Result<(), TestError> {
            for case in 0..self.config.cases {
                let mut rng = case_rng(self.config.seed, "test_runner", case);
                let value = strategy.sample(&mut rng);
                let desc = format!("{value:?}");
                if let Err(e) = test(value) {
                    return Err(TestError {
                        message: failure_banner(
                            "test_runner",
                            self.config.seed,
                            case,
                            &desc,
                            &e.to_string(),
                        ),
                    });
                }
            }
            Ok(())
        }
    }
}

/// The commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{Just, Strategy};
}

/// Defines deterministic property tests; see the crate docs.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($binder:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                for case in 0..config.cases {
                    let mut proptest_rng =
                        $crate::test_runner::case_rng(config.seed, stringify!($name), case);
                    $(
                        let $binder = $crate::Strategy::sample(&($strat), &mut proptest_rng);
                    )+
                    let values = [$(format!(concat!(stringify!($binder), " = {:?}"), $binder)),+]
                        .join(", ");
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                            || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                                $body
                                ::std::result::Result::Ok(())
                            },
                        )) {
                            ::std::result::Result::Ok(r) => r,
                            ::std::result::Result::Err(panic) => {
                                let reason = panic
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| panic.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "panicked".to_string());
                                ::std::result::Result::Err(
                                    $crate::test_runner::TestCaseError::fail(format!(
                                        "panic: {reason}"
                                    )),
                                )
                            }
                        };
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "{}",
                            $crate::test_runner::failure_banner(
                                stringify!($name),
                                config.seed,
                                case,
                                &values,
                                &e.to_string(),
                            )
                        );
                    }
                }
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@cfg ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} == {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} == {:?}: {}", left, right, format!($($fmt)+)
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} != {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} != {:?}: {}", left, right, format!($($fmt)+)
        );
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::OneOf(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{Config, TestCaseError, TestRunner};
    use crate::TestRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::seed_from_u64(8);
        assert_ne!(TestRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let w = (0usize..=3).sample(&mut rng);
            assert!(w <= 3);
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..1000 {
            let u = (0.0f64..1.0).sample(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let strat = crate::collection::vec(0u64..100, 1..10);
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        TestRunner::new(Config::with_cases(5).seed(7))
            .run(&strat, |v| {
                seen_a.push(v);
                Ok(())
            })
            .unwrap();
        TestRunner::new(Config::with_cases(5).seed(7))
            .run(&strat, |v| {
                seen_b.push(v);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen_a, seen_b);
    }

    #[test]
    fn runner_reports_failing_case() {
        let err = TestRunner::new(Config::with_cases(50).seed(1))
            .run(&(0u64..100), |v| {
                if v >= 50 {
                    return Err(TestCaseError::fail("too big"));
                }
                Ok(())
            })
            .unwrap_err();
        assert!(err.message.contains("too big"), "{}", err.message);
        assert!(err.message.contains("seed"), "{}", err.message);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_in_ranges(x in 5u64..10, f in -1.0f64..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn tuples_vecs_and_oneof_compose(
            v in crate::collection::vec((0u8..4, any::<bool>()), 1..20),
            pick in prop_oneof![0u64..10, 90u64..100],
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (small, _flag) in &v {
                prop_assert!(*small < 4);
            }
            prop_assert!(pick < 10 || (90..100).contains(&pick));
        }

        #[test]
        fn prop_map_applies(double in (0u32..50).prop_map(|x| x * 2)) {
            prop_assert_eq!(double % 2, 0);
            prop_assert_ne!(double, 99);
        }
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn failing_property_names_seed_and_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4).seed(3))]
            fn inner_always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner_always_fails();
    }
}
