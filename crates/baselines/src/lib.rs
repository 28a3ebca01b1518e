//! Baseline RAID-6 MDS array codes, implemented from scratch on the
//! `raid-core` engine, for comparison against HV Code exactly as the paper
//! does:
//!
//! * [`rdp::RdpCode`] — Row-Diagonal Parity (Corbett et al., FAST'04),
//!   `p + 1` disks, dedicated row/diagonal parity disks;
//! * [`evenodd::EvenOddCode`] — EVENODD (Blaum et al., ToC'95), `p + 2`
//!   disks, S-adjuster diagonal parity;
//! * [`xcode::XCode`] — X-Code (Xu & Bruck, IT'99), `p` disks, diagonal +
//!   anti-diagonal parity rows;
//! * [`hcode::HCode`] — H-Code (Wu et al., IPDPS'11), `p + 1` disks,
//!   dedicated horizontal parity disk + spread anti-diagonal parities;
//! * [`hdp::HdpCode`] — HDP (Wu et al., DSN'11), `p − 1` disks,
//!   horizontal-diagonal + anti-diagonal parity;
//! * [`pcode::PCode`] — P-Code (Jin et al., ICS'09), `p` disks, vertical
//!   parity driven by the `i + j ≡ k (mod p)` pairing rule.
//!
//! Each code implements [`raid_core::ArrayCode`]; the exhaustive MDS tests
//! in every module and the shared structural checks in `testutil` (test
//! builds only) are the correctness ground truth. Where the original paper's
//! exact parity-to-diagonal assignment is not reprinted in the HV paper, the
//! assignment used here is pinned by those tests and documented in the
//! module docs (see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evenodd;
pub mod hcode;
pub mod hdp;
pub mod pcode;
pub mod rdp;
pub mod xcode;

#[cfg(test)]
pub(crate) mod testutil;

pub use evenodd::EvenOddCode;
pub use hcode::HCode;
pub use hdp::HdpCode;
pub use pcode::PCode;
pub use rdp::RdpCode;
pub use xcode::XCode;

use std::fmt;

use raid_math::prime::NotPrimeError;

/// Parameter-validation error shared by every baseline code constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The parameter is not prime.
    NotPrime(NotPrimeError),
    /// The prime is too small to produce any data elements for this code.
    TooSmall {
        /// The rejected prime.
        p: usize,
        /// The minimum supported prime.
        min: usize,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::NotPrime(e) => e.fmt(f),
            CodeError::TooSmall { p, min } => {
                write!(f, "prime {p} too small for this code (minimum {min})")
            }
        }
    }
}

impl std::error::Error for CodeError {}

impl From<NotPrimeError> for CodeError {
    fn from(e: NotPrimeError) -> Self {
        CodeError::NotPrime(e)
    }
}
