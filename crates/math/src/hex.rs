//! Hex text ⇄ bytes kernels — the payload codec of the block service's
//! line protocol (`raid_service::proto`), which is `#![forbid(unsafe_code)]`
//! and so keeps its one vectorisable loop here, beside the XOR kernels and
//! under their rules.
//!
//! Two backends share one behaviour, selected per call at runtime:
//!
//! * **AVX2** (x86_64, when the CPU reports it) — [`encode`] turns 32 bytes
//!   into 64 digits per iteration (`pshufb` nibble → digit, then an unpack
//!   interleaves the high and low digits); [`decode`] turns 64 digits into
//!   32 bytes (range compares classify and validate every byte, `maddubs`
//!   folds digit pairs, `packus` narrows);
//! * **scalar** — one table lookup per byte, used for ragged tails and on
//!   every other target (no NEON backend: nothing here was measured on
//!   aarch64).
//!
//! [`encode`] writes lower case; [`decode`] accepts either case.
//!
//! # Safety layering
//!
//! As in [`crate::xor`]: all `unsafe` lives in the `avx2` module, and its
//! two obligations are discharged in safe code before it is entered. The
//! **length relation** (`dst` is exactly twice `src` for [`encode`], half
//! for [`decode`]) is asserted by every public entry, and the vector
//! loops' pointer offsets never leave the slices given that relation; the
//! **ISA** is probed at each dispatch. Under `--cfg kernel_audit` every
//! dispatched call is repeated through the scalar reference and the two
//! results compared (`make test-kernel-audit`).

// SIMD intrinsics need `unsafe`; the crate root denies it and this module
// opts back in for the `avx2` backend below.
#![allow(unsafe_code)]

/// Writes the lower-case hex digits of `src` into `dst`, two per byte.
///
/// # Panics
///
/// Panics unless `dst.len() == 2 * src.len()`.
///
/// ```
/// let mut text = [0u8; 4];
/// raid_math::hex::encode(&mut text, &[0xde, 0x0a]);
/// assert_eq!(&text, b"de0a");
/// ```
pub fn encode(dst: &mut [u8], src: &[u8]) {
    assert_lengths("encode", src.len(), dst.len());
    dispatch_encode(dst, src);
    #[cfg(kernel_audit)]
    {
        let mut want = vec![0u8; dst.len()];
        scalar::encode(&mut want, src);
        assert!(dst == want, "kernel_audit: hex::encode diverged from the scalar reference");
    }
}

/// Decodes the hex digits of `src` (either case) into `dst`, one byte per
/// two digits. `Err(at)` names the first byte of `src` that is not a hex
/// digit; `dst` then holds nothing meaningful.
///
/// # Errors
///
/// Returns the index of the first non-digit byte.
///
/// # Panics
///
/// Panics unless `src.len() == 2 * dst.len()`.
///
/// ```
/// let mut bytes = [0u8; 2];
/// assert_eq!(raid_math::hex::decode(&mut bytes, b"DE0a"), Ok(()));
/// assert_eq!(bytes, [0xde, 0x0a]);
/// assert_eq!(raid_math::hex::decode(&mut bytes, b"de0g"), Err(3));
/// ```
pub fn decode(dst: &mut [u8], src: &[u8]) -> Result<(), usize> {
    assert_lengths("decode", dst.len(), src.len());
    let result = dispatch_decode(dst, src);
    #[cfg(kernel_audit)]
    {
        let mut want = vec![0u8; dst.len()];
        let reference = scalar::decode(&mut want, src);
        assert!(
            result == reference && (result.is_err() || dst == want),
            "kernel_audit: hex::decode diverged from the scalar reference"
        );
    }
    result
}

/// Portable-backend [`encode`]; reference implementation for property
/// tests.
///
/// # Panics
///
/// Panics unless `dst.len() == 2 * src.len()`.
pub fn encode_scalar(dst: &mut [u8], src: &[u8]) {
    assert_lengths("encode", src.len(), dst.len());
    scalar::encode(dst, src);
}

/// Portable-backend [`decode`]; reference implementation for property
/// tests.
///
/// # Errors
///
/// Returns the index of the first non-digit byte.
///
/// # Panics
///
/// Panics unless `src.len() == 2 * dst.len()`.
pub fn decode_scalar(dst: &mut [u8], src: &[u8]) -> Result<(), usize> {
    assert_lengths("decode", dst.len(), src.len());
    scalar::decode(dst, src)
}

/// The length precondition of every public entry: ordinary safe code
/// (miri runs it), and the whole bounds argument of the vector loops.
fn assert_lengths(op: &str, bytes: usize, digits: usize) {
    assert!(
        bytes.checked_mul(2) == Some(digits),
        "hex::{op}: length mismatch — {bytes} bytes against {digits} digits",
    );
}

fn dispatch_encode(dst: &mut [u8], src: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; the
            // public wrapper checked `dst.len() == 2 * src.len()`.
            unsafe { avx2::encode(dst, src) };
            return;
        }
    }
    scalar::encode(dst, src);
}

fn dispatch_decode(dst: &mut [u8], src: &[u8]) -> Result<(), usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; the
            // public wrapper checked `src.len() == 2 * dst.len()`.
            return unsafe { avx2::decode(dst, src) };
        }
    }
    scalar::decode(dst, src)
}

/// The digit of each nibble.
const DIGITS: &[u8; 16] = b"0123456789abcdef";

mod scalar {
    use super::DIGITS;

    /// Both digits of every byte value.
    const PAIRS: [[u8; 2]; 256] = {
        let mut table = [[0u8; 2]; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = [DIGITS[b >> 4], DIGITS[b & 15]];
            b += 1;
        }
        table
    };

    /// Marks a byte that is not a hex digit; no nibble has these bits.
    const BAD: u8 = 0xf0;

    /// The nibble each digit (of either case) stands for, [`BAD`] for
    /// every other byte.
    const NIBBLE: [u8; 256] = {
        let mut table = [BAD; 256];
        let mut n = 0;
        while n < 16 {
            table[DIGITS[n] as usize] = n as u8;
            table[DIGITS[n].to_ascii_uppercase() as usize] = n as u8;
            n += 1;
        }
        table
    };

    pub(super) fn encode(dst: &mut [u8], src: &[u8]) {
        for (pair, &b) in dst.chunks_exact_mut(2).zip(src) {
            pair.copy_from_slice(&PAIRS[usize::from(b)]);
        }
    }

    pub(super) fn decode(dst: &mut [u8], src: &[u8]) -> Result<(), usize> {
        for (k, (byte, pair)) in dst.iter_mut().zip(src.chunks_exact(2)).enumerate() {
            let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
            if (hi | lo) & BAD != 0 {
                return Err(2 * k + usize::from(hi & BAD == 0));
            }
            *byte = hi << 4 | lo;
        }
        Ok(())
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::DIGITS;

    /// # Safety
    ///
    /// * The caller must have verified AVX2 support at runtime; on a CPU
    ///   without AVX2 the 256-bit instructions are undefined behaviour.
    /// * `dst.len() == 2 * src.len()` — the loop reads `src[i..i + 32]`
    ///   only while `i + 32 <= src.len()` and writes `dst[2i..2i + 64]`,
    ///   which that equality keeps inside `dst`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn encode(dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), 2 * src.len());
        // The digits in each 128-bit lane: `pshufb` indexes them by nibble.
        let digits = _mm256_broadcastsi128_si256(_mm_loadu_si128(DIGITS.as_ptr().cast()));
        let low = _mm256_set1_epi8(0x0f);
        let n = src.len();
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let hi = _mm256_shuffle_epi8(digits, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
            let lo = _mm256_shuffle_epi8(digits, _mm256_and_si256(v, low));
            // Unpacks interleave within each 128-bit lane: `a` holds the
            // digits of bytes 0–7 | 16–23, `b` those of 8–15 | 24–31.
            let a = _mm256_unpacklo_epi8(hi, lo);
            let b = _mm256_unpackhi_epi8(hi, lo);
            let out = d.add(2 * i);
            _mm256_storeu_si256(out as *mut __m256i, _mm256_permute2x128_si256(a, b, 0x20));
            _mm256_storeu_si256(out.add(32) as *mut __m256i, _mm256_permute2x128_si256(a, b, 0x31));
            i += 32;
        }
        super::scalar::encode(&mut dst[2 * i..], &src[i..]);
    }

    /// The nibble of each of 32 digits, and a mask of the bytes that are
    /// digits. The compares are signed, so every byte ≥ 0x80 fails both
    /// ranges; `| 0x20` folds `A–F` onto `a–f` and nothing else into that
    /// range.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    unsafe fn nibbles(c: __m256i) -> (__m256i, __m256i) {
        let lower = _mm256_or_si256(c, _mm256_set1_epi8(0x20));
        let digit = _mm256_and_si256(
            _mm256_cmpgt_epi8(c, _mm256_set1_epi8(b'0' as i8 - 1)),
            _mm256_cmpgt_epi8(_mm256_set1_epi8(b'9' as i8 + 1), c),
        );
        let letter = _mm256_and_si256(
            _mm256_cmpgt_epi8(lower, _mm256_set1_epi8(b'a' as i8 - 1)),
            _mm256_cmpgt_epi8(_mm256_set1_epi8(b'f' as i8 + 1), lower),
        );
        // '0'–'9' end in their value, 'a'–'f' in their value − 9.
        let nibble = _mm256_add_epi8(
            _mm256_and_si256(c, _mm256_set1_epi8(0x0f)),
            _mm256_and_si256(letter, _mm256_set1_epi8(9)),
        );
        (nibble, _mm256_or_si256(digit, letter))
    }

    /// # Safety
    ///
    /// * The caller must have verified AVX2 support at runtime; on a CPU
    ///   without AVX2 the 256-bit instructions are undefined behaviour.
    /// * `src.len() == 2 * dst.len()` — the loop writes `dst[i..i + 32]`
    ///   only while `i + 32 <= dst.len()` and reads `src[2i..2i + 64]`,
    ///   which that equality keeps inside `src`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode(dst: &mut [u8], src: &[u8]) -> Result<(), usize> {
        debug_assert_eq!(src.len(), 2 * dst.len());
        // Per 16-bit lane: first digit × 16 + second digit × 1.
        let weights = _mm256_set1_epi16(0x0110);
        let n = dst.len();
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 32 <= n {
            let (x, x_ok) = nibbles(_mm256_loadu_si256(s.add(2 * i) as *const __m256i));
            let (y, y_ok) = nibbles(_mm256_loadu_si256(s.add(2 * i + 32) as *const __m256i));
            if _mm256_movemask_epi8(_mm256_and_si256(x_ok, y_ok)) != -1 {
                break; // the scalar pass below names the offending byte
            }
            let packed = _mm256_packus_epi16(
                _mm256_maddubs_epi16(x, weights),
                _mm256_maddubs_epi16(y, weights),
            );
            // `packus` narrows per 128-bit lane (x₀ y₀ x₁ y₁): restore order.
            let bytes = _mm256_permute4x64_epi64(packed, 0b11_01_10_00);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, bytes);
            i += 32;
        }
        super::scalar::decode(&mut dst[i..], &src[2 * i..]).map_err(|at| 2 * i + at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_lower_case_and_decodes_either() {
        let bytes: Vec<u8> = (0..=255).collect();
        let mut text = vec![0u8; 512];
        encode(&mut text, &bytes);
        assert!(text.starts_with(b"000102") && text.ends_with(b"fdfeff"));
        let mut back = vec![0u8; 256];
        assert_eq!(decode(&mut back, &text), Ok(()));
        assert_eq!(back, bytes);
        assert_eq!(decode(&mut back, &text.to_ascii_uppercase()), Ok(()));
        assert_eq!(back, bytes);
    }

    #[test]
    fn empty_is_fine() {
        encode(&mut [], &[]);
        assert_eq!(decode(&mut [], &[]), Ok(()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn encode_rejects_a_short_destination() {
        encode(&mut [0u8; 3], &[0u8; 2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn decode_rejects_an_odd_source() {
        let _ = decode(&mut [0u8; 1], b"abc");
    }
}
