//! Property tests pinning the dispatched SIMD XOR kernel to the scalar
//! reference implementation, byte for byte, across ragged lengths.

use proptest::prelude::*;

use raid_math::xor::{active_backend, xor_gather_into, xor_gather_into_scalar};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dispatched kernel equals the scalar reference for 0..=6
    /// sources at ragged lengths, and equals folding the sources in one
    /// at a time from zero. Each side starts from a different `dst`, so
    /// the destination's prior contents never leak through.
    #[test]
    fn xor_gather_into_matches_scalar_and_accumulate(
        len in 0usize..=4096,
        nsrcs in 0usize..=6,
        seed in any::<u64>(),
    ) {
        let srcs: Vec<Vec<u8>> = (0..nsrcs).map(|i| bytes(len, seed ^ (i as u64 + 29))).collect();
        let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let mut simd = bytes(len, seed.rotate_left(9));
        let mut scalar = bytes(len, seed.rotate_left(33));
        xor_gather_into(&mut simd, &refs);
        xor_gather_into_scalar(&mut scalar, &refs);
        prop_assert_eq!(&simd, &scalar);
        prop_assert_eq!(&simd, &folded(len, &refs));
    }

    /// One gather over every source equals folding the sources in pairwise,
    /// `acc = acc ⊕ s`, one two-source gather at a time.
    #[test]
    fn single_pass_equals_folded_pairwise(
        len in 0usize..=1024,
        nsrcs in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let srcs: Vec<Vec<u8>> = (0..nsrcs).map(|i| bytes(len, seed ^ (i as u64 + 11))).collect();
        let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let mut single = bytes(len, seed);
        xor_gather_into(&mut single, &refs);
        prop_assert_eq!(single, folded(len, &refs));
    }
}

/// Every length 0..=4096 exactly once (the proptest cases sample; this
/// sweep guarantees no length is skipped), on whatever backend dispatch
/// selected for this host.
#[test]
fn exhaustive_length_sweep_matches_scalar() {
    eprintln!("xor backend under test: {}", active_backend().name());
    for len in 0..=4096usize {
        let a = bytes(len, len as u64 + 1);
        let b = bytes(len, !(len as u64));
        let mut simd = bytes(len, len as u64 ^ 0x5A);
        let mut scalar = simd.clone();
        xor_gather_into(&mut simd, &[&a, &b]);
        xor_gather_into_scalar(&mut scalar, &[&a, &b]);
        assert_eq!(simd, scalar, "len = {len}");
    }
}

/// `⊕ srcs` folded one source at a time from a zero accumulator, each step
/// a two-source gather into a fresh buffer.
fn folded(len: usize, srcs: &[&[u8]]) -> Vec<u8> {
    srcs.iter().fold(vec![0u8; len], |acc, s| {
        let mut next = vec![0xA5u8; len];
        xor_gather_into(&mut next, &[&acc, s]);
        next
    })
}

fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}
