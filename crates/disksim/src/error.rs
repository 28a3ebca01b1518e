//! The errors a disk backend reports, and their recovery classes.

use std::fmt;

/// Error returned when I/O targets an unusable disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The disk index exceeds the array size.
    NoSuchDisk {
        /// Offending index.
        disk: usize,
    },
    /// The disk has failed; its contents are lost until it is replaced.
    DiskFailed {
        /// The failed disk.
        disk: usize,
    },
    /// The disk's medium rejected the transfer (real-backend I/O error).
    Io {
        /// The disk whose transfer failed.
        disk: usize,
    },
    /// A recoverable hiccup (bus reset, command timeout): the request
    /// failed but retrying it after a short backoff is expected to
    /// succeed.
    Transient {
        /// The disk that hiccuped.
        disk: usize,
    },
    /// A latent sector error: exactly one element is unreadable. The disk
    /// is otherwise healthy; rewriting the element (after reconstructing
    /// it from its parity chains) remaps the sector and clears the error.
    LatentSector {
        /// The disk carrying the bad sector.
        disk: usize,
        /// The unreadable element's index on that disk.
        index: usize,
    },
    /// The whole backend is gone mid-operation (simulated process crash):
    /// nothing further can be served until the volume is reopened.
    Crashed,
}

/// The coarse failure class an error belongs to — what the volume's
/// recovery driver dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retry after backoff; escalates to [`ErrorClass::DiskDead`] past a
    /// threshold.
    Transient,
    /// Reconstruct the one element and rewrite it in place.
    LatentSector,
    /// The disk's contents are lost; replan degraded and rebuild.
    DiskDead,
    /// Simulated process crash; recovery happens at reopen, not in-line.
    Crashed,
    /// Addressing or hard medium error — a caller bug or an unrecoverable
    /// condition; never retried.
    Fatal,
}

impl DiskError {
    /// Classifies the error for the recovery driver.
    pub fn class(&self) -> ErrorClass {
        match self {
            DiskError::Transient { .. } => ErrorClass::Transient,
            DiskError::LatentSector { .. } => ErrorClass::LatentSector,
            DiskError::DiskFailed { .. } => ErrorClass::DiskDead,
            DiskError::Crashed => ErrorClass::Crashed,
            DiskError::NoSuchDisk { .. } | DiskError::Io { .. } => ErrorClass::Fatal,
        }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::NoSuchDisk { disk } => write!(f, "no disk #{disk} in the array"),
            DiskError::DiskFailed { disk } => write!(f, "disk #{disk} has failed"),
            DiskError::Io { disk } => write!(f, "I/O error on disk #{disk}"),
            DiskError::Transient { disk } => {
                write!(f, "transient error on disk #{disk} (retryable)")
            }
            DiskError::LatentSector { disk, index } => {
                write!(f, "latent sector error on disk #{disk} element {index}")
            }
            DiskError::Crashed => write!(f, "backend crashed mid-operation"),
        }
    }
}

impl std::error::Error for DiskError {}
