//! Bit-identity of the compiled-plan execution engine against the seed's
//! direct `xor_of`-per-chain encoder, across every code and several
//! primes — the property the whole plan-compile/execute refactor rests on.

use std::sync::Arc;

use proptest::prelude::*;

use raid_core::{ArrayCode, Stripe, XorPlan};

fn small_prime() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![5usize, 7, 11, 13, 17])
}

/// The codes under test at prime `p` — every registered code.
fn codes(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    integration::all_codes(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled plan (what `Stripe::encode` interprets) produces
    /// byte-identical parities to the reference per-chain `xor_of` walk.
    #[test]
    fn compiled_encode_matches_reference_for_every_code(
        p in small_prime(),
        seed in any::<u64>(),
        element in prop::sample::select(vec![1usize, 16, 24, 64, 129]),
    ) {
        for code in codes(p) {
            let layout = code.layout();
            let mut planned = Stripe::for_layout(layout, element);
            planned.fill_data_seeded(layout, seed);
            let mut reference = planned.clone();
            planned.encode(layout);
            reference.encode_reference(layout);
            prop_assert_eq!(&planned, &reference, "{} at p = {}", code.name(), p);
        }
    }

    /// Compiling the encode schedule is a pure function of the layout:
    /// a freshly compiled plan re-executed on dirty parities reproduces
    /// exactly what the cached plan computed.
    #[test]
    fn fresh_plan_agrees_with_cached_plan(
        p in small_prime(),
        seed in any::<u64>(),
    ) {
        for code in codes(p) {
            let layout = code.layout();
            let mut cached = Stripe::for_layout(layout, 32);
            cached.fill_data_seeded(layout, seed);
            let mut fresh = cached.clone();
            cached.encode(layout);
            XorPlan::compile_encode(layout).execute(&mut fresh);
            prop_assert_eq!(&cached, &fresh, "{} at p = {}", code.name(), p);
        }
    }
}

/// Deterministic exhaustive check at the paper's headline configuration:
/// every code, both encode paths, several element sizes including ones
/// that defeat SIMD alignment (1, odd, prime-sized).
#[test]
fn encode_paths_agree_at_p13_all_element_shapes() {
    for element in [1usize, 7, 31, 64, 4096] {
        for code in codes(13) {
            let layout = code.layout();
            let mut planned = Stripe::for_layout(layout, element);
            planned.fill_data_seeded(layout, 99);
            let mut reference = planned.clone();
            planned.encode(layout);
            reference.encode_reference(layout);
            assert_eq!(
                planned,
                reference,
                "{} at element = {element}",
                code.name()
            );
        }
    }
}
