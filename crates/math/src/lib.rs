//! Modular arithmetic plus XOR kernels for RAID-6 array codes.
//!
//! This crate is the arithmetic substrate shared by every code in the
//! workspace:
//!
//! * [`prime`] — primality testing and the [`prime::Prime`] newtype used to
//!   parameterize array codes (`p` in the HV Code paper).
//! * [`modp`] — the `⟨·⟩_p` modular arithmetic of the paper, including the
//!   modular halving of Eq. (2) (`k := ⟨(j − 4i)/2⟩_p`) and modular division
//!   `⟨i/j⟩_p`.
//! * [`xor`] — wide XOR kernels used by every XOR-based array code.
//! * [`hex`] — hex text ⇄ bytes kernels, the block service's wire codec.
//!
//! # Examples
//!
//! ```
//! use raid_math::prime::Prime;
//! use raid_math::modp::{mul_mod, div_mod};
//!
//! let p = Prime::new(7)?;
//! // ⟨2·4⟩_7 = 1
//! assert_eq!(mul_mod(2, 4, p), 1);
//! // u := ⟨1/2⟩_7 satisfies ⟨2u⟩_7 = 1
//! assert_eq!(mul_mod(div_mod(1, 2, p) as i64, 2, p), 1);
//! # Ok::<(), raid_math::prime::NotPrimeError>(())
//! ```

// `deny` rather than `forbid`: the SIMD kernels in [`xor`] and [`hex`] opt
// back in for their intrinsics; every other module stays `unsafe`-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::needless_range_loop, clippy::redundant_clone)]

pub mod hex;
pub mod modp;
pub mod prime;
pub mod xor;

pub use prime::Prime;
