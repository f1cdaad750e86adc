//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build container has no crates.io access, so this shim implements the
//! subset of the proptest API the workspace's property suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map` / `boxed`, strategies for integer
//!   ranges, tuples, `&str` patterns of the form `.{m,n}`, [`Just`],
//!   [`any`], `prop::collection::vec` and `prop::option::of`,
//! * the [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_assert_ne!`] macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the test's case seed in
//!   the panic message (via the value bindings printed by the assertion),
//!   but is not minimized.
//! * **Deterministic generation.** Each test function derives its RNG
//!   stream from a hash of its own name plus the case index, so runs are
//!   reproducible without a persistence file.
//! * **`PROPTEST_CASES` caps, never raises.** The env var clamps the
//!   per-test case count downward so CI can bound runtime; an explicit
//!   `ProptestConfig::with_cases` below the cap is respected.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// SplitMix64; mirrors the shim `rand` crate so test streams are
    /// self-contained and deterministic.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// FNV-1a, used to give every test function its own seed stream.
    pub fn fnv(s: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Per-case seed: decorrelates consecutive cases of one test.
    pub fn case_seed(base: u64, case: u32) -> u64 {
        base ^ (case as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// Why a single test case did not pass: a real failure, or an input
    /// rejected by `prop_assume!`.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }
}

use test_runner::TestRng;

pub use test_runner::TestCaseError;

/// Runner configuration. Only `cases` is meaningful to the shim; the
/// struct is non-exhaustive-by-convention so `with_cases` is the expected
/// constructor.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` cap.
    pub fn resolved_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => match v.trim().parse::<u32>() {
                Ok(cap) => self.cases.min(cap.max(1)),
                Err(_) => self.cases,
            },
            Err(_) => self.cases,
        }
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// just samples.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe core used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`] and
/// [`prop_oneof!`].
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.sample(rng))
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives; built by [`prop_oneof!`].
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

/// Types with a canonical "anything goes" strategy, for [`any`].
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Bias ~1/8 of samples toward boundary values — uniform
                // u64 essentially never hits 0/MIN/MAX, and codecs and
                // calculi care about exactly those.
                match rng.below(16) {
                    0 => 0 as $t,
                    1 => <$t>::MAX,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize);

macro_rules! impl_arbitrary_sint {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                match rng.below(16) {
                    0 => 0 as $t,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )+};
}

impl_arbitrary_sint!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        sample_char(rng)
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = self.start + unit * (self.end - self.start);
        // The affine map can round up to `end` exactly (e.g. huge start,
        // tiny span); clamp back inside the half-open contract.
        if v >= self.end {
            self.end.next_down().max(self.start)
        } else {
            v
        }
    }
}

/// A character for string strategies: mostly ASCII printable, with a tail
/// of non-ASCII and exotic code points so decoder tests see real noise.
/// Never `'\n'`, matching regex `.`.
fn sample_char(rng: &mut TestRng) -> char {
    match rng.below(10) {
        0..=6 => (0x20 + rng.below(0x5F) as u32) as u8 as char,
        7 => {
            // Latin-1 and general BMP text.
            char::from_u32(0xA1 + rng.below(0x500) as u32).unwrap_or('¿')
        }
        8 => {
            // Astral plane (emoji block) — multi-byte UTF-8.
            char::from_u32(0x1F300 + rng.below(0x200) as u32).unwrap_or('🦀')
        }
        _ => {
            // Control characters other than newline.
            let c = rng.below(31) as u32; // 0..=30, skip 0x0A below
            let c = if c == 0x0A { 0x0B } else { c };
            char::from_u32(c).unwrap()
        }
    }
}

/// `&str` patterns as strategies. Real proptest compiles the full regex;
/// the shim supports the `.{m,n}` shape the workspace uses and treats any
/// other pattern as a literal.
impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        fn parse_dot_rep(pat: &str) -> Option<(u64, u64)> {
            let inner = pat.strip_prefix(".{")?.strip_suffix('}')?;
            let (lo, hi) = inner.split_once(',')?;
            Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
        }
        match parse_dot_rep(self) {
            Some((lo, hi)) => {
                let len = lo + rng.below(hi - lo + 1);
                (0..len).map(|_| sample_char(rng)).collect()
            }
            None => (*self).to_string(),
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// The `prop::` module re-exported by the prelude.
pub mod prop {
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Accepted size shapes for [`vec`].
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty collection size range");
                SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi_inclusive: n }
            }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    pub mod option {
        use super::super::{Strategy, TestRng};

        pub struct OptionStrategy<S> {
            inner: S,
        }

        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                // Some ~3/4 of the time, like real proptest's default.
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

// The assertion macros return `Err(TestCaseError::Fail)` instead of
// panicking so the proptest! runner can prefix failures with the case
// index (the only reproduction handle a no-shrinking shim can offer).

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! proptest {
    (@run ($config:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = config.resolved_cases();
                let base = $crate::test_runner::fnv(stringify!($name));
                for case in 0..cases {
                    let mut prop_rng =
                        $crate::test_runner::TestRng::new($crate::test_runner::case_seed(base, case));
                    $(let $pat = $crate::Strategy::sample(&($strategy), &mut prop_rng);)+
                    // The body runs in a closure so that real-proptest
                    // idioms — `return Err(TestCaseError::fail(..))`, `?`,
                    // `prop_assume!` — work unchanged.
                    // mut is needed only when the body mutates a binding.
                    #[allow(unused_mut)]
                    let mut case_fn = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    match case_fn() {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject(_)) => continue,
                        Err($crate::TestCaseError::Fail(reason)) => {
                            panic!("proptest case {case} of {}: {reason}", stringify!($name));
                        }
                    }
                }
            }
        )+
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -5i64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn vec_and_oneof_compose(
            v in prop::collection::vec(prop_oneof![Just(0u8), 1u8..255], 2..5),
            s in ".{0,12}",
            opt in prop::option::of(0u32..4),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(s.chars().count() <= 12);
            prop_assert!(!s.contains('\n'));
            if let Some(x) = opt {
                prop_assert!(x < 4);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1))]
        #[test]
        #[should_panic(expected = "proptest case 0 of failing_case_reports_its_index")]
        fn failing_case_reports_its_index(x in 0u8..1) {
            prop_assert!(x > 0, "x was {x}");
        }
    }

    /// Cases run by `registered_once` across every registration of it.
    static REGISTERED_ONCE_RUNS: std::sync::atomic::AtomicU32 =
        std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The macro emits the caller's attributes and no `#[test]` of its
        /// own, as real proptest does: a property is registered once, so
        /// its cases run once. A second registration would run them again
        /// and push the shared count past the configured cases.
        #[test]
        fn registered_once(_x in 0u8..1) {
            let runs = REGISTERED_ONCE_RUNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            let cases = ProptestConfig::with_cases(4).resolved_cases();
            prop_assert!(runs <= cases, "case {runs} of {cases}: property registered twice");
        }
    }

    #[test]
    fn tuple_and_map_strategies() {
        let mut rng = crate::test_runner::TestRng::new(1);
        let strat = ((1u64..10), (0u64..10)).prop_map(|(a, b)| a + b);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!(v < 19);
        }
    }

    #[test]
    fn proptest_cases_env_caps_downward() {
        // resolved_cases never exceeds the explicit count even if the env
        // var asks for more (env raises are ignored; caps are honored).
        let cfg = ProptestConfig::with_cases(10);
        assert!(cfg.resolved_cases() <= 10);
    }
}
