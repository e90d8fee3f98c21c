//! Offline stand-in for the `proptest` property-testing framework.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the slice of proptest's API used by the workspace test suites:
//!
//! * the [`strategy::Strategy`] trait with `prop_map`, implemented for
//!   integer ranges, tuples, [`strategy::Just`], unions
//!   ([`prop_oneof!`]), collections ([`collection::vec`]) and
//!   regex-like string patterns (`&str` strategies),
//! * the [`proptest!`], [`prop_assert!`] and [`prop_assert_eq!`]
//!   macros, and
//! * [`test_runner::Config`] (`ProptestConfig`) with `with_cases`.
//!
//! Differences from real proptest: generation is driven by a fixed-seed
//! xorshift RNG keyed by the property's path and the case number (cases
//! are deterministic across runs and differ between properties), there is **no
//! shrinking** (a failing case reports its inputs via the assert
//! message only), and the regex subset covers character classes,
//! ranges, escapes, `\PC`, and the `*`/`+`/`?`/`{n}`/`{n,m}`
//! quantifiers — enough for the suites in this workspace.

pub mod collection;
pub mod regex;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude::*`.
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Declares property tests. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(..)]` inner attribute followed by `#[test]`
/// functions whose arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_inner! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_inner! { $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_inner {
    ($cfg:expr; $( $(#[$meta:meta])+ fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg = $cfg;
                // PROPTEST_SEED=<n> replays exactly one case (the seed
                // a failure printed); otherwise run the configured (or
                // PROPTEST_CASES-overridden) number of cases.
                if let Some(seed) = $crate::test_runner::env_seed() {
                    let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng); )+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = result {
                        panic!("proptest replay PROPTEST_SEED={seed} failed: {e}");
                    }
                    return;
                }
                // Each property draws its own inputs: its path keys the
                // seeds, so two properties of one shape never replay
                // each other's cases.
                let property = concat!(module_path!(), "::", stringify!($name));
                for case in 0..cfg.effective_cases() {
                    let seed = $crate::test_runner::TestRng::seed_for_case(property, case);
                    let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng); )+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = result {
                        panic!(
                            "proptest case {case} failed: {e}\n\
                             replay with: PROPTEST_SEED={seed} cargo test {}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// Fallible assert for use inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fallible equality assert for use inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Picks uniformly among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( ::std::boxed::Box::new($strat) ),+
        ])
    };
}
