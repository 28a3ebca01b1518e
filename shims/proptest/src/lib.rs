//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] test macro,
//! `prop_assert*` / `prop_assume!`, integer-range and `any::<T>()`
//! strategies, `Just`, tuples, `prop::collection::vec`,
//! `prop::sample::select`, `.prop_map`, and [`prop_oneof!`].
//!
//! Semantics deliberately kept from upstream: each test runs
//! `ProptestConfig::cases` random cases, `prop_assume!` rejects a case
//! without counting it, and a failing case panics with the generated inputs
//! in the message. Deliberately dropped: shrinking (failures report the raw
//! inputs; cases are deterministic per test name, so failures reproduce),
//! persistence files, and fork mode.

pub mod strategy;
pub mod test_runner;

/// `prop::collection` — sized collections of sub-strategy values.
pub mod collection {
    use crate::strategy::{SizeBounds, Strategy, VecStrategy};

    /// Strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeBounds) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// `prop::sample` — choosing among explicit values.
pub mod sample {
    use crate::strategy::Select;

    /// Strategy drawing uniformly from `options`.
    ///
    /// # Panics
    ///
    /// Panics (at generation time) if `options` is empty.
    pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select: no options");
        Select { options }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Fails the current test case (with `format!`-style context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert!(left == right)` with better diagnostics.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert!(left != right)` with better diagnostics.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Discards the current case (not counted toward `cases`) when the inputs
/// don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)
/// { body }` becomes a test running `cases` random cases. As upstream, the
/// caller's own `#[test]` is what registers it; the macro adds none, so a
/// property is one test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                let mut __accepted: u32 = 0;
                let mut __attempts: u32 = 0;
                let __max_attempts = __config.cases.saturating_mul(20).max(1000);
                while __accepted < __config.cases {
                    __attempts += 1;
                    assert!(
                        __attempts <= __max_attempts,
                        "{}: too many prop_assume! rejections ({} attempts for {} cases)",
                        stringify!($name), __attempts, __config.cases
                    );
                    let __vals = ($(
                        $crate::strategy::Strategy::generate(&$strat, &mut __rng),
                    )+);
                    let __inputs = format!("{:?}", __vals);
                    let ($($pat,)+) = __vals;
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => __accepted += 1,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => {
                            panic!(
                                "{} failed on case {} with inputs {}:\n{}",
                                stringify!($name), __accepted, __inputs, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}
