//! Offline stand-in for the `proptest` crate.
//!
//! Implements the API subset this workspace's property tests use:
//! [`Strategy`] with `prop_map` / `prop_flat_map` / `prop_recursive` /
//! `boxed`, range and tuple strategies, a character-class string strategy
//! (`"[a-z]{0,8}"`-style patterns), `collection::vec`, `Just`, `any`,
//! `prop_oneof!` unions, and the `proptest!` / `prop_assert*` macros.
//!
//! Differences from real proptest: generation is plain pseudo-random (no
//! size ramping) and failures are **not shrunk** — the failing case index
//! and seed are reported instead, so a failure reproduces deterministically
//! by re-running the test.

#![forbid(unsafe_code)]

use std::rc::Rc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator handed to strategies (xoshiro256**).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeded constructor (SplitMix64 state expansion).
    pub fn seed(seed: u64) -> TestRng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `usize` below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Config, errors, runner
// ---------------------------------------------------------------------------

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure raised by `prop_assert*` inside a test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Assertion failure with message.
    Fail(String),
    /// Case rejected (skipped, not a failure).
    Reject(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Construct a rejection.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drive one property test: `cases` deterministic cases, panicking with the
/// case index and seed on the first failure. Used by the `proptest!` macro.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let base = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or_else(|_| fnv1a(&s)),
        Err(_) => 0x5EED_0000_0000_0000 ^ fnv1a(name),
    };
    for i in 0..config.cases {
        let seed = base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = TestRng::seed(seed);
        match case(&mut rng) {
            Ok(()) | Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => panic!(
                "proptest `{name}` failed at case {i}/{} (base seed {base:#x}):\n{msg}",
                config.cases
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Derive a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase (reference-counted, cheap to clone).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Recursive structures: `recurse` receives the strategy built so far
    /// and wraps it one level deeper, up to `depth` levels; every level also
    /// keeps the leaf as an alternative so generation terminates.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(current).boxed();
            current = Union::new(vec![leaf.clone(), deeper]).boxed();
        }
        current
    }
}

trait DynStrategy<T> {
    fn dyn_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply cloneable strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// `prop_map` combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` combinator.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Union over `options` (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len());
        self.options[i].generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for an [`Arbitrary`] type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
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
        // Finite doubles spanning a wide magnitude range.
        let mag = rng.unit_f64() * 600.0 - 300.0;
        let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
        sign * 10f64.powf(mag / 10.0)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        char::from_u32(0x20 + (rng.next_u64() % 0x5F) as u32).unwrap_or('?')
    }
}

// ---------------------------------------------------------------------------
// Range strategies
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------------

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

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, G);

// ---------------------------------------------------------------------------
// String (character-class regex) strategies
// ---------------------------------------------------------------------------

/// `&'static str` patterns of the form `[class]{m,n}` (e.g. `"[a-z]{0,8}"`,
/// `"[ -~]{0,80}"`) act as `String` strategies. Only a single repeated
/// character class is supported — the subset the workspace's tests use.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string strategy pattern: {self:?}"));
        let n = lo + rng.below(hi - lo + 1);
        (0..n).map(|_| chars[rng.below(chars.len())]).collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let mut chars = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (a, b) = (class[i] as u32, class[i + 2] as u32);
            for c in a..=b {
                chars.push(char::from_u32(c)?);
            }
            i += 3;
        } else {
            chars.push(class[i]);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    let reps = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match reps.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = reps.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((chars, lo, hi))
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Size specification for [`vec()`]: an exact count or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from the range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.lo + rng.below(self.size.hi - self.size.lo + 1);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy over both booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    /// Either boolean, uniformly.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests; see crate docs for the supported syntax subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($config:expr)) => {};
    (@cfg($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            $crate::run_proptest(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                $body
                #[allow(unreachable_code)]
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_impl! { @cfg($config) $($rest)* }
    };
}

/// Assert inside a property test (returns an `Err` instead of panicking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n{}",
            l, r, format!($($fmt)*)
        );
    }};
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `left != right`\n  both: {:?}",
            l
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::seed(1);
        for _ in 0..1000 {
            let (a, b) = (0..3usize, -5i64..5).generate(&mut rng);
            assert!(a < 3 && (-5..5).contains(&b));
        }
    }

    #[test]
    fn string_pattern_respects_class_and_len() {
        let mut rng = crate::TestRng::seed(2);
        for _ in 0..500 {
            let s = "[a-z]{1,4}".generate(&mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn oneof_hits_all_branches() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = crate::TestRng::seed(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(s.generate(&mut rng) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        let strat = (0..10i64)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 8, 3, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = crate::TestRng::seed(4);
        for _ in 0..200 {
            let _ = strat.generate(&mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro wires args, early returns, and assertions.
        #[test]
        fn macro_smoke(x in 0..100u32, v in crate::collection::vec(0..5usize, 1..4)) {
            if x > 90 {
                return Ok(());
            }
            prop_assert!(x <= 90, "x={}", x);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
