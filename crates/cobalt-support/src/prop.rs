//! A deterministic property-testing harness.
//!
//! A pared-down, fully hermetic stand-in for `proptest`: seeded case
//! generation (so every failure is reproducible), a fixed iteration
//! budget, failing-seed reporting, and best-effort shrinking. Tests are
//! written with the [`props!`](crate::props) macro:
//!
//! ```
//! cobalt_support::props! {
//!     config = cobalt_support::prop::Config::with_cases(64);
//!
//!     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! The base seed defaults to a fixed constant so runs are reproducible
//! out of the box; set `COBALT_PROP_SEED=<u64>` to explore a different
//! region of the input space (CI could rotate it). On failure the
//! harness shrinks the input and panics with the base seed, case index,
//! and minimal counterexample.

use crate::rng::{derive_seed, Rng};

/// Default base seed ("COBALT" on a hex keyboard).
pub const DEFAULT_SEED: u64 = 0xC0BA17;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` uses a stream derived from `(seed, i)`.
    pub seed: u64,
    /// Upper bound on candidate inputs tried while shrinking.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: seed_from_env(),
            max_shrink_steps: 1_024,
        }
    }
}

impl Config {
    /// A configuration running `cases` cases, defaults elsewhere.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

fn seed_from_env() -> u64 {
    match std::env::var("COBALT_PROP_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("COBALT_PROP_SEED must be a u64, got {s:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The property failed with this message.
    Fail(String),
    /// The input was rejected (does not apply); not a failure.
    Reject,
}

impl CaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseError::Fail(msg.into())
    }
}

/// The result type property bodies evaluate to.
pub type CaseResult = Result<(), CaseError>;

/// A generator of test-case values with best-effort shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + std::fmt::Debug;
    /// Generates one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;
    /// Proposes strictly "smaller" variants of `value` to try while
    /// shrinking a failure. May be empty.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Integer range strategies: `0u64..10_000` is itself a strategy.
// ---------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v != lo {
                    out.push(lo);
                    // Halve the distance to the lower bound.
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != mid && v > lo {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------
// Tuples of strategies (shrink one component at a time).
// ---------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($S:ident / $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = candidate;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A / 0)
    (A / 0, B / 1)
    (A / 0, B / 1, C / 2)
    (A / 0, B / 1, C / 2, D / 3)
}

// ---------------------------------------------------------------------
// Collections.
// ---------------------------------------------------------------------

/// Strategy for `Vec<T>` with lengths drawn from `len`.
pub struct VecStrategy<S> {
    elem: S,
    len: core::ops::Range<usize>,
}

/// Vectors of values from `elem` with a length in `len`.
pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec: empty length range");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        let min = self.len.start;
        // Structural shrinks first: halve, then drop single elements.
        if value.len() > min {
            let half = (value.len() + min) / 2;
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            for i in 0..value.len() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Element-wise shrinks (first candidate per position only, to
        // keep the fan-out bounded).
        for i in 0..value.len() {
            if let Some(cand) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Booleans, characters, fuzz strings.
// ---------------------------------------------------------------------

/// Strategy for an unbiased `bool` (shrinks `true` → `false`).
pub struct AnyBool;

/// An unbiased boolean.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Strategy for arbitrary `char`s, biased toward ASCII (shrinks toward
/// `'a'`).
pub struct AnyChar;

/// Arbitrary characters: mostly printable ASCII, with a tail of
/// whitespace and non-ASCII code points to stress lexers.
pub fn any_char() -> AnyChar {
    AnyChar
}

fn gen_char(rng: &mut Rng) -> char {
    match rng.gen_range(0u32..100) {
        // Printable ASCII: the region parsers mostly operate in.
        0..=64 => char::from_u32(rng.gen_range(0x20u32..0x7F)).unwrap(),
        // Whitespace and control characters.
        65..=74 => *rng.choose(&[' ', '\t', '\n', '\r', '\u{0}', '\u{7}', '\u{b}']),
        // Latin-1 and general BMP.
        75..=89 => loop {
            if let Some(c) = char::from_u32(rng.gen_range(0xA0u32..0x3000)) {
                break c;
            }
        },
        // Anywhere in the scalar-value space, surrogates excluded.
        _ => loop {
            let raw = rng.gen_range(0u32..0x11_0000);
            if let Some(c) = char::from_u32(raw) {
                break c;
            }
        },
    }
}

impl Strategy for AnyChar {
    type Value = char;
    fn generate(&self, rng: &mut Rng) -> char {
        gen_char(rng)
    }
    fn shrink(&self, value: &char) -> Vec<char> {
        if *value == 'a' {
            Vec::new()
        } else if value.is_ascii_lowercase() {
            vec!['a']
        } else {
            vec!['a', ' ']
        }
    }
}

/// Strategy for fuzzing strings (see [`fuzz_string`]).
pub struct FuzzString {
    max_len: usize,
}

/// Strings of up to `max_len` non-control characters (the analogue of
/// the `proptest` regex `\PC{0,n}`), for parser robustness tests.
pub fn fuzz_string(max_len: usize) -> FuzzString {
    FuzzString { max_len }
}

impl Strategy for FuzzString {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.gen_range(0..=self.max_len);
        let mut s = String::with_capacity(n);
        while s.chars().count() < n {
            let c = gen_char(rng);
            if !c.is_control() {
                s.push(c);
            }
        }
        s
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let chars: Vec<char> = value.chars().collect();
        let mut out = Vec::new();
        if !chars.is_empty() {
            out.push(chars[..chars.len() / 2].iter().collect());
            for i in 0..chars.len().min(16) {
                let mut v = chars.clone();
                v.remove(i);
                out.push(v.into_iter().collect());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_one<V, F>(test: &F, value: V) -> Outcome
where
    V: Clone + std::fmt::Debug,
    F: Fn(V) -> CaseResult,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(CaseError::Reject)) => Outcome::Reject,
        Ok(Err(CaseError::Fail(msg))) => Outcome::Fail(msg),
        Err(payload) => Outcome::Fail(format!(
            "panic: {}",
            crate::pool::panic_message(payload.as_ref())
        )),
    }
}

/// Runs a property: `config.cases` seeded cases, shrinking and
/// reporting the first failure. Called by the [`props!`](crate::props)
/// macro; use directly for programmatic properties.
///
/// # Panics
///
/// Panics with the failing seed, case index, and minimal
/// counterexample if the property fails.
pub fn run<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    for case in 0..config.cases {
        let case_seed = derive_seed(config.seed, case as u64);
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        if let Outcome::Fail(msg) = run_one(&test, value.clone()) {
            let (min_value, min_msg, steps) = shrink(config, strategy, &test, value, msg);
            panic!(
                "property `{name}` failed at case {case}/{} (base seed {}; \
                 rerun with COBALT_PROP_SEED={} to reproduce)\n\
                 minimal input after {steps} shrink steps: {min_value:?}\n{min_msg}",
                config.cases, config.seed, config.seed,
            );
        }
    }
}

fn shrink<S, F>(
    config: &Config,
    strategy: &S,
    test: &F,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    let mut steps = 0u32;
    'outer: loop {
        for candidate in strategy.shrink(&value) {
            if steps >= config.max_shrink_steps {
                break 'outer;
            }
            steps += 1;
            if let Outcome::Fail(m) = run_one(test, candidate.clone()) {
                value = candidate;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

// ---------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------

/// Declares property tests. See the [module docs](crate::prop).
///
/// Grammar: an optional `config = <expr>;` line, then one or more
/// `fn name(binding in strategy, ...) { body }` items. Each becomes a
/// `#[test]`; the body may use `prop_assert!`-family macros and
/// `return Ok(())` to reject an inapplicable input.
#[macro_export]
macro_rules! props {
    ( config = $config:expr; $($rest:tt)+ ) => {
        $crate::__props_impl! { ($config) $($rest)+ }
    };
    ( $($rest:tt)+ ) => {
        $crate::__props_impl! { ($crate::prop::Config::default()) $($rest)+ }
    };
}

/// Implementation detail of [`props!`](crate::props).
#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let strategy = ($($strat,)+);
                $crate::prop::run(
                    stringify!($name),
                    &config,
                    &strategy,
                    |($($arg,)+)| -> $crate::prop::CaseResult {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Fails the enclosing property case if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Fails the enclosing property case if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {} == {} ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(),
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Fails the enclosing property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {} != {} ({}:{})\n  both: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let hits = std::cell::Cell::new(0u32);
        run(
            "count",
            &Config {
                cases: 37,
                seed: 1,
                max_shrink_steps: 10,
            },
            &(0u64..100),
            |_| {
                hits.set(hits.get() + 1);
                Ok(())
            },
        );
        assert_eq!(hits.get(), 37);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property "x < 10" over 0..1000 should shrink to exactly 10.
        let err = std::panic::catch_unwind(|| {
            run(
                "min",
                &Config {
                    cases: 200,
                    seed: 2,
                    max_shrink_steps: 1_024,
                },
                &(0u64..1000),
                |x| {
                    if x < 10 {
                        Ok(())
                    } else {
                        Err(CaseError::fail("too big"))
                    }
                },
            )
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("minimal input"), "{msg}");
        assert!(msg.contains("10"), "{msg}");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let err = std::panic::catch_unwind(|| {
            run(
                "panic",
                &Config {
                    cases: 100,
                    seed: 3,
                    max_shrink_steps: 256,
                },
                &(0i64..100, 0i64..100),
                |(a, b)| {
                    assert!(a + b < 120, "sum overflow {a}+{b}");
                    Ok(())
                },
            )
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("panic: sum overflow"), "{msg}");
    }

    #[test]
    fn rejections_do_not_fail() {
        run(
            "reject",
            &Config {
                cases: 50,
                seed: 4,
                max_shrink_steps: 10,
            },
            &(0u64..100),
            |x| {
                if x % 2 == 0 {
                    return Err(CaseError::Reject);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn vec_strategy_respects_length_bounds() {
        let strat = vec(0u8..10, 2..6);
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            for candidate in strat.shrink(&v) {
                assert!(candidate.len() >= 2, "{candidate:?}");
            }
        }
    }

    #[test]
    fn fuzz_string_has_no_control_chars_and_bounded_len() {
        let strat = fuzz_string(40);
        let mut rng = Rng::seed_from_u64(10);
        for _ in 0..200 {
            let s = strat.generate(&mut rng);
            assert!(s.chars().count() <= 40);
            assert!(s.chars().all(|c| !c.is_control()), "{s:?}");
        }
    }

    props! {
        config = Config { cases: 32, seed: 5, max_shrink_steps: 64 };

        fn macro_smoke(a in 0i64..50, flip in super::any_bool()) {
            let doubled = a * 2;
            prop_assert!(doubled >= a, "doubling went down");
            prop_assert_eq!(doubled % 2, 0);
            if flip {
                prop_assert_ne!(doubled + 1, doubled);
            }
        }
    }
}
