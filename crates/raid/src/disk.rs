//! The disk model: what a disk costs and how it fails.
//!
//! The HV paper's timing experiments (Fig. 6c, 7a, 9b) ran on a 16-spindle
//! SAS array; this module is the synthetic stand-in (see DESIGN.md §2).
//! Those results depend only on how many elements each disk serves and on
//! how long the recovery chains are, so one constant carries the time:
//! [`DiskProfile::element_service_ms`], the paper's `Re`. An operation's
//! request sets are served one after another, each as fast as its busiest
//! disk, so an op costs its busiest disks' element counts × `Re`; and a
//! double-failure rebuild costs `Lc · Re` (§V-D).
//!
//! [`DiskError`] is what a backend reports when a disk refuses a transfer,
//! and [`ErrorClass`] is how the volume's recovery driver dispatches on it.

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
    /// A volume-level sidecar file — the undo journal or `volume.meta` —
    /// could not be written or removed. No disk is at fault.
    Sidecar {
        /// The file's name inside the volume directory.
        file: &'static str,
    },
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
            DiskError::NoSuchDisk { .. } | DiskError::Io { .. } | DiskError::Sidecar { .. } => {
                ErrorClass::Fatal
            }
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
            DiskError::Sidecar { file } => write!(f, "I/O error on the volume's {file}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Service-time model of one disk.
///
/// An element request (read or write of one full element) costs
/// `seek_latency_ms + element_mb / bandwidth`. With the paper's 16 MB
/// elements the transfer term dominates, as on the real Savvio array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Average positioning time per request, in milliseconds.
    pub seek_latency_ms: f64,
    /// Sustained transfer rate, MB/s.
    pub bandwidth_mb_s: f64,
    /// Element size, MB (the paper uses 16 MB).
    pub element_mb: f64,
}

impl DiskProfile {
    /// A Savvio-10K-like profile with the paper's 16 MB elements: ~5 ms
    /// positioning, 160 MB/s sustained.
    pub fn savvio_10k() -> Self {
        DiskProfile { seek_latency_ms: 5.0, bandwidth_mb_s: 160.0, element_mb: 16.0 }
    }

    /// Cost of serving one element request, in milliseconds.
    ///
    /// ```
    /// use raid_array::DiskProfile;
    /// let p = DiskProfile::savvio_10k();
    /// assert!((p.element_service_ms() - 105.0).abs() < 1e-9); // 5 + 16/160*1000
    /// ```
    pub fn element_service_ms(&self) -> f64 {
        self.seek_latency_ms + self.element_mb / self.bandwidth_mb_s * 1000.0
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile::savvio_10k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_savvio() {
        assert_eq!(DiskProfile::default(), DiskProfile::savvio_10k());
    }

    #[test]
    fn service_time_scales_with_element_size() {
        let mut p = DiskProfile::savvio_10k();
        let t16 = p.element_service_ms();
        p.element_mb = 32.0;
        let t32 = p.element_service_ms();
        assert!(t32 > t16);
        assert!((t32 - t16 - 100.0).abs() < 1e-9); // extra 16 MB at 160 MB/s
    }
}