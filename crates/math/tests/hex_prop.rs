//! Pins the dispatched hex kernels to the scalar twins and to a
//! digit-at-a-time reference, byte for byte: every length around the
//! vector widths, every non-digit byte at every position of a vector
//! block and of the scalar tail, and either letter case.

use proptest::prelude::*;

use raid_math::hex::{decode, decode_scalar, encode, encode_scalar};

/// The service's original codec (`char::from_digit` per nibble).
fn reference_encode(bytes: &[u8]) -> Vec<u8> {
    let digit = |n: u8| char::from_digit(u32::from(n), 16).expect("nibble") as u8;
    bytes.iter().flat_map(|b| [digit(b >> 4), digit(b & 0xf)]).collect()
}

/// The service's original decoder (`char::to_digit` per digit), with the
/// first offending index in place of its message.
fn reference_decode(text: &[u8]) -> Result<Vec<u8>, usize> {
    let digit = |at: usize| char::from(text[at]).to_digit(16).map(|d| d as u8).ok_or(at);
    (0..text.len() / 2).map(|k| Ok(digit(2 * k)? << 4 | digit(2 * k + 1)?)).collect()
}

/// Encodes `bytes` three ways, decodes the text three ways, and requires
/// all of them to agree; returns the text.
fn roundtrip_all_ways(bytes: &[u8]) -> Vec<u8> {
    let mut text = vec![0u8; 2 * bytes.len()];
    let mut text_scalar = text.clone();
    encode(&mut text, bytes);
    encode_scalar(&mut text_scalar, bytes);
    assert_eq!(text, text_scalar, "encode vs scalar, {} bytes", bytes.len());
    assert_eq!(text, reference_encode(bytes), "encode vs reference, {} bytes", bytes.len());

    let mut back = vec![0xa5u8; bytes.len()];
    let mut back_scalar = back.clone();
    assert_eq!(decode(&mut back, &text), Ok(()));
    assert_eq!(decode_scalar(&mut back_scalar, &text), Ok(()));
    assert_eq!(back, bytes, "decode, {} bytes", bytes.len());
    assert_eq!(back_scalar, bytes, "scalar decode, {} bytes", bytes.len());
    assert_eq!(reference_decode(&text).as_deref(), Ok(bytes));
    text
}

#[test]
fn hex_kernels_agree_at_every_length_around_the_vector_widths() {
    for len in (0..=130).chain(4096 - 3..=4096 + 3) {
        roundtrip_all_ways(&bytes(len, len as u64 + 1));
    }
}

#[test]
fn hex_decodes_lower_upper_and_mixed_case_alike() {
    let want = bytes(100, 7);
    let lower = roundtrip_all_ways(&want);
    let upper = lower.to_ascii_uppercase();
    let mixed: Vec<u8> = lower
        .iter()
        .enumerate()
        .map(|(i, c)| if i % 3 == 0 { c.to_ascii_uppercase() } else { *c })
        .collect();
    for text in [&upper, &mixed] {
        let mut got = vec![0u8; want.len()];
        assert_eq!(decode(&mut got, text), Ok(()));
        assert_eq!(got, want);
        assert_eq!(decode_scalar(&mut got, text), Ok(()));
        assert_eq!(got, want);
    }
}

/// All 234 byte values that are not hex digits, each planted at every
/// position of a 64-digit vector block followed by a 6-digit scalar tail
/// (and the block repeated, so a later iteration is covered too).
#[test]
fn hex_decode_rejects_every_non_digit_at_every_position() {
    let not_digits: Vec<u8> = (0..=255u8).filter(|b| !b.is_ascii_hexdigit()).collect();
    assert_eq!(not_digits.len(), 256 - 22);
    for must in [b'g', b'/', b':', b'@', b'G', b'`', b' ', 0x80, 0xff] {
        assert!(not_digits.contains(&must));
    }
    let clean = roundtrip_all_ways(&bytes(64 + 3, 11)); // 128 + 6 digits
    let mut out = vec![0u8; clean.len() / 2];
    for at in 0..clean.len() {
        for &bad in &not_digits {
            let mut text = clean.clone();
            text[at] = bad;
            assert_eq!(decode(&mut out, &text), Err(at), "byte {bad:#04x} at {at}");
            assert_eq!(decode_scalar(&mut out, &text), Err(at), "scalar, byte {bad:#04x} at {at}");
            assert_eq!(reference_decode(&text), Err(at));
        }
    }
}

#[test]
fn hex_decode_names_the_first_of_several_non_digits() {
    let mut text = roundtrip_all_ways(&bytes(96, 3));
    text[150] = b'x';
    text[70] = b'-';
    let mut out = vec![0u8; 96];
    assert_eq!(decode(&mut out, &text), Err(70));
    assert_eq!(decode_scalar(&mut out, &text), Err(70));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hex_random_buffers_roundtrip_all_ways(len in 0usize..=5000, seed in any::<u64>()) {
        roundtrip_all_ways(&bytes(len, seed));
    }

    /// Arbitrary text: the dispatched decoder, the scalar twin and the
    /// reference agree on the verdict, the offending index and the bytes.
    #[test]
    fn hex_arbitrary_text_decodes_like_the_reference(
        half in 0usize..=300,
        seed in any::<u64>(),
        digits_only in any::<bool>(),
    ) {
        let mut text = bytes(2 * half, seed);
        if digits_only {
            // Mostly valid text with a few stray bytes is the likelier
            // malformed input than uniform noise.
            for (i, c) in text.iter_mut().enumerate() {
                if i % 97 != 96 {
                    *c = b"0123456789abcdefABCDEF"[usize::from(*c) % 22];
                }
            }
        }
        let want = reference_decode(&text);
        let mut got = vec![0u8; half];
        let verdict = decode(&mut got, &text);
        prop_assert_eq!(verdict, want.as_ref().map(|_| ()).map_err(|at| *at));
        let mut got_scalar = vec![0u8; half];
        prop_assert_eq!(decode_scalar(&mut got_scalar, &text), verdict);
        if let Ok(bytes) = want {
            prop_assert_eq!(&got, &bytes);
            prop_assert_eq!(&got_scalar, &bytes);
        }
    }
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
