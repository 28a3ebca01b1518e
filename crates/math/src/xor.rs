//! The one XOR kernel — the only arithmetic XOR-based array codes (HV,
//! RDP, X-Code, …) ever perform on element payloads.
//!
//! [`xor_gather_into`] overwrites `dst` with the XOR of its sources
//! (`dst = ⊕ srcs`) without reading `dst`: each cache line of `dst` is
//! stored once, folded from the matching line of every source. Encoding,
//! updates, degraded reads and double-failure recovery are all this one
//! operation over a chain's cells.
//!
//! Three backends share one behaviour, selected once per process at
//! runtime (see [`active_backend`]):
//!
//! * **AVX2** (x86_64, when the CPU reports it) — 32-byte vectors, 64-byte
//!   unrolled main loop;
//! * **NEON** (aarch64) — 16-byte vectors;
//! * **scalar** — `u64` words, used for ragged tails and as the portable
//!   fallback on every other target.
//!
//! [`xor_gather_into_scalar`] is public so property tests can assert the
//! vector backends are byte-identical to the portable implementation.
//!
//! # Safety layering
//!
//! All `unsafe` lives in the backend modules; everything above them is
//! safe Rust. The contract has exactly two obligations and both are
//! discharged before any `unsafe fn` is entered:
//!
//! 1. **equal lengths** — the public kernel funnels through
//!    `precondition::equal_len`, a plain checked-slice comparison (it
//!    runs under miri like any safe code). The vector kernels' pointer
//!    arithmetic never leaves `[0, dst.len())`, so this check is the
//!    entire bounds story; each `unsafe fn` re-states it as a debug
//!    assertion.
//! 2. **ISA support** — AVX2 is runtime-probed at each dispatch; NEON is
//!    baseline on `aarch64`.
//!
//! Building with `RUSTFLAGS="--cfg kernel_audit"` additionally runs every
//! dispatched call twice — once through the selected backend, once through
//! the scalar reference on a copy — and asserts the outputs are
//! byte-identical (`make test-kernel-audit`).

// SIMD intrinsics are the one place this crate needs `unsafe`; the crate
// root denies it, and this module opts back in for the kernels below.
#![allow(unsafe_code)]

/// Which XOR backend [`xor_gather_into`] dispatches to on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 vectors (x86_64 with runtime CPUID support).
    Avx2,
    /// 128-bit NEON vectors (aarch64, baseline feature).
    Neon,
    /// Portable `u64`-word loop.
    Scalar64,
}

impl Backend {
    /// Stable lower-case name for reports (`"avx2"`, `"neon"`, `"scalar64"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
            Backend::Scalar64 => "scalar64",
        }
    }
}

/// The backend the dispatching kernel uses on this machine.
///
/// The x86 feature probe is cached by the standard library, so calling this
/// (or the kernel) in a hot loop costs one relaxed atomic load.
pub fn active_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar64
}

/// Overwrites `dst` with the XOR of all `srcs`, without reading `dst`.
///
/// Every XOR in the workspace is this call: a parity computed from its
/// chain, a lost element from its survivors, a chain checked by gathering
/// parity and members and testing for zero. Each `dst` cache line is
/// written exactly once and never loaded. With zero sources `dst` is
/// zero-filled.
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
///
/// ```
/// use raid_math::xor::xor_gather_into;
/// let mut d = vec![0xFFu8; 4];
/// xor_gather_into(&mut d, &[&[0b1010u8; 4], &[0b0110u8; 4]]);
/// assert_eq!(d, vec![0b1100u8; 4]);
/// ```
pub fn xor_gather_into(dst: &mut [u8], srcs: &[&[u8]]) {
    precondition::equal_len("xor_gather_into", dst.len(), srcs);
    if srcs.is_empty() {
        dst.fill(0);
        return;
    }
    #[cfg(kernel_audit)]
    let shadow = audit::shadow(dst, |copy| scalar::xor_gather_into(copy, srcs));
    dispatch_xor_gather_into(dst, srcs);
    #[cfg(kernel_audit)]
    audit::check("xor_gather_into", dst, &shadow);
}

fn dispatch_xor_gather_into(dst: &mut [u8], srcs: &[&[u8]]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; equal
            // lengths and a non-empty `srcs` were checked by the public
            // wrapper.
            unsafe { avx2::xor_gather_into(dst, srcs) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is a baseline feature of the aarch64 targets; equal
        // lengths and a non-empty `srcs` were checked by the public
        // wrapper.
        unsafe { neon::xor_gather_into(dst, srcs) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::xor_gather_into(dst, srcs);
}

/// Portable-backend [`xor_gather_into`]; reference implementation for
/// property tests.
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
pub fn xor_gather_into_scalar(dst: &mut [u8], srcs: &[&[u8]]) {
    precondition::equal_len("xor_gather_into", dst.len(), srcs);
    if srcs.is_empty() {
        dst.fill(0);
        return;
    }
    scalar::xor_gather_into(dst, srcs);
}

/// Tile size (bytes) the plan executor uses to keep a working set of
/// elements resident in L1 while it walks every op of a plan over one
/// tile before advancing to the next.
///
/// 16 KiB leaves room in a typical 32–48 KiB L1d for the destination
/// tile plus a couple of source tiles and the gather pointer array.
pub const L1_TILE_BYTES: usize = 16 * 1024;

/// Splits `len` bytes into [`L1_TILE_BYTES`]-sized chunks, yielding
/// `(offset, chunk_len)` pairs — the chunked entry point tiled plan
/// execution slices every element buffer with. The final chunk carries
/// the ragged tail; `len == 0` yields nothing.
pub fn tiles(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(L1_TILE_BYTES)
        .map(move |off| (off, L1_TILE_BYTES.min(len - off)))
}

/// True if the buffer is entirely zero — handy for parity-consistency
/// checks (`P ^ recomputed(P) == 0`).
pub fn is_zero(buf: &[u8]) -> bool {
    buf.iter().all(|&b| b == 0)
}

/// The checked-slice precondition the public kernel and its scalar
/// reference funnel through. This is ordinary safe code — miri executes
/// it — and proving `src.len() == dst.len()` here is what makes the raw-pointer loops in
/// the vector backends sound (their indices never leave `[0, dst.len())`).
mod precondition {
    /// Asserts every source slice has exactly `dst_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics with a `"length mismatch"` message naming the kernel and the
    /// offending source index.
    #[inline]
    pub(super) fn equal_len(op: &str, dst_len: usize, srcs: &[&[u8]]) {
        for (k, src) in srcs.iter().enumerate() {
            assert!(
                src.len() == dst_len,
                "{op}: length mismatch — source {k} is {} bytes, dst is {dst_len}",
                src.len(),
            );
        }
    }
}

/// Scalar-shadow cross-check, compiled in with `--cfg kernel_audit`: each
/// dispatched kernel call also runs the portable reference on a copy and
/// the two results are compared byte-for-byte.
#[cfg(kernel_audit)]
mod audit {
    /// Runs `reference` over a copy of `dst` and returns the copy.
    pub(super) fn shadow(dst: &[u8], reference: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut copy = dst.to_vec();
        reference(&mut copy);
        copy
    }

    /// Asserts the dispatched result equals the scalar shadow.
    pub(super) fn check(op: &str, got: &[u8], want: &[u8]) {
        assert!(
            got == want,
            "kernel_audit: {op} on the {} backend diverged from the scalar reference",
            super::active_backend().name(),
        );
    }
}

mod scalar {
    /// `dst = XOR(srcs)` without reading `dst`. Callers guarantee
    /// `srcs` is non-empty.
    pub(super) fn xor_gather_into(dst: &mut [u8], srcs: &[&[u8]]) {
        let (first, rest) = srcs.split_first().expect("non-empty srcs");
        let n = dst.len();
        let words = n / 8;
        for w in 0..words {
            let at = w * 8;
            let mut acc =
                u64::from_ne_bytes(first[at..at + 8].try_into().expect("8-byte chunk"));
            for src in rest {
                acc ^= u64::from_ne_bytes(src[at..at + 8].try_into().expect("8-byte chunk"));
            }
            dst[at..at + 8].copy_from_slice(&acc.to_ne_bytes());
        }
        for at in words * 8..n {
            let mut acc = first[at];
            for src in rest {
                acc ^= src[at];
            }
            dst[at] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// # Safety
    ///
    /// * The caller must have verified AVX2 support at runtime; on a CPU
    ///   without AVX2 the 256-bit instructions are undefined behaviour.
    /// * Every `srcs[k].len() == dst.len()` — all pointer offsets below
    ///   are `< dst.len()` and each source's bounds rely on the equality.
    /// * `srcs` must be non-empty (`dst` is overwritten from the first
    ///   source, not read).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_gather_into(dst: &mut [u8], srcs: &[&[u8]]) {
        debug_assert!(srcs.iter().all(|s| s.len() == dst.len()));
        let (first, rest) = srcs.split_first().expect("non-empty srcs");
        let n = dst.len();
        let d = dst.as_mut_ptr();
        let f = first.as_ptr();
        let mut i = 0;
        // Two independent accumulators per iteration for load-port ILP.
        while i + 64 <= n {
            let mut acc0 = _mm256_loadu_si256(f.add(i) as *const __m256i);
            let mut acc1 = _mm256_loadu_si256(f.add(i + 32) as *const __m256i);
            for src in rest {
                let s = src.as_ptr();
                acc0 = _mm256_xor_si256(acc0, _mm256_loadu_si256(s.add(i) as *const __m256i));
                acc1 =
                    _mm256_xor_si256(acc1, _mm256_loadu_si256(s.add(i + 32) as *const __m256i));
            }
            _mm256_storeu_si256(d.add(i) as *mut __m256i, acc0);
            _mm256_storeu_si256(d.add(i + 32) as *mut __m256i, acc1);
            i += 64;
        }
        if i + 32 <= n {
            let mut acc = _mm256_loadu_si256(f.add(i) as *const __m256i);
            for src in rest {
                let v = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                acc = _mm256_xor_si256(acc, v);
            }
            _mm256_storeu_si256(d.add(i) as *mut __m256i, acc);
            i += 32;
        }
        if i < n {
            let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
            super::scalar::xor_gather_into(&mut dst[i..], &tails);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{veorq_u8, vld1q_u8, vst1q_u8};

    /// # Safety
    ///
    /// * NEON is baseline on the `aarch64` targets this module compiles
    ///   for, so the feature obligation is discharged statically.
    /// * Every `srcs[k].len() == dst.len()` — all pointer offsets below
    ///   are `< dst.len()` and each source's bounds rely on the equality.
    /// * `srcs` must be non-empty (`dst` is overwritten from the first
    ///   source, not read).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn xor_gather_into(dst: &mut [u8], srcs: &[&[u8]]) {
        debug_assert!(srcs.iter().all(|s| s.len() == dst.len()));
        let (first, rest) = srcs.split_first().expect("non-empty srcs");
        let n = dst.len();
        let d = dst.as_mut_ptr();
        let f = first.as_ptr();
        let mut i = 0;
        while i + 16 <= n {
            let mut acc = vld1q_u8(f.add(i));
            for src in rest {
                acc = veorq_u8(acc, vld1q_u8(src.as_ptr().add(i)));
            }
            vst1q_u8(d.add(i), acc);
            i += 16;
        }
        if i < n {
            let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
            super::scalar::xor_gather_into(&mut dst[i..], &tails);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_involution() {
        let a: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        let b: Vec<u8> = (0..100).map(|i| (i * 13 + 1) as u8).collect();
        let mut once = vec![0u8; 100];
        xor_gather_into(&mut once, &[&a, &b]);
        let mut twice = vec![0u8; 100];
        xor_gather_into(&mut twice, &[&once, &b]);
        assert_eq!(twice, a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut d = vec![0u8; 3];
        xor_gather_into(&mut d, &[&[0u8; 4]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn many_mismatched_lengths_panic() {
        let mut d = vec![0u8; 3];
        xor_gather_into(&mut d, &[&[0u8; 3], &[0u8; 4]]);
    }

    #[test]
    fn tiles_cover_len_exactly() {
        for len in [0usize, 1, L1_TILE_BYTES - 1, L1_TILE_BYTES, L1_TILE_BYTES + 1, 3 * L1_TILE_BYTES + 7] {
            let chunks: Vec<(usize, usize)> = tiles(len).collect();
            let mut expect_off = 0;
            for &(off, n) in &chunks {
                assert_eq!(off, expect_off);
                assert!(n > 0 && n <= L1_TILE_BYTES);
                expect_off += n;
            }
            assert_eq!(expect_off, len);
        }
    }

    #[test]
    fn gather_never_reads_dst() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let c = [7u8, 8, 9];
        let mut x = vec![0xFFu8; 3];
        xor_gather_into(&mut x, &[&a, &b, &c]);
        assert_eq!(x, vec![1 ^ 4 ^ 7, 2 ^ 5 ^ 8, 3 ^ 6 ^ 9]);
        let mut y = vec![0x5Au8; 3];
        xor_gather_into(&mut y, &[&a, &b, &c]);
        assert_eq!(y, x);
    }

    #[test]
    fn zero_detection() {
        assert!(is_zero(&[0u8; 16]));
        assert!(!is_zero(&[0, 0, 1]));
        assert!(is_zero(&[]));
    }

    #[test]
    fn odd_lengths_and_empty() {
        let mut d = vec![0x11; 17];
        let s = vec![0xAB; 17];
        xor_gather_into(&mut d, &[&s, &s]);
        assert!(is_zero(&d));
        let mut e: Vec<u8> = vec![];
        xor_gather_into(&mut e, &[&[]]);
        assert!(e.is_empty());
        xor_gather_into(&mut e, &[&[], &[]]);
        assert!(e.is_empty());
    }

    #[test]
    fn gather_with_no_sources_zero_fills() {
        let mut d = vec![9u8; 5];
        xor_gather_into(&mut d, &[]);
        assert!(is_zero(&d));
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt).rotate_left(3))
            .collect()
    }

    #[test]
    fn dispatched_matches_scalar_across_ragged_lengths() {
        // Cross lane boundaries: 0, tails below/at/above 16, 32, 64.
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 4096, 4099] {
            let srcs: Vec<Vec<u8>> = [1, 77, 200].iter().map(|&k| pattern(len, k)).collect();
            let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
            for n in 1..=refs.len() {
                let mut simd = pattern(len, 50);
                let mut scalar = pattern(len, 51);
                xor_gather_into(&mut simd, &refs[..n]);
                xor_gather_into_scalar(&mut scalar, &refs[..n]);
                assert_eq!(simd, scalar, "{n} sources diverged at len {len}");
            }
        }
    }

    #[test]
    fn backend_reports_a_name() {
        let b = active_backend();
        assert!(["avx2", "neon", "scalar64"].contains(&b.name()));
    }
}
