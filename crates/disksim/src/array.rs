//! The event-driven disk array.

use std::fmt;

use raid_core::io::RequestSet;

use crate::profile::DiskProfile;
use crate::queue::DiskQueues;

/// Error returned when I/O targets an unusable disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The disk index exceeds the array size.
    NoSuchDisk {
        /// Offending index.
        disk: usize,
    },
    /// The disk was failed via [`DiskArray::fail_disk`].
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

#[derive(Debug, Clone)]
struct Disk {
    /// Total busy time, for utilization stats.
    busy_ms: f64,
    /// Requests served.
    served: u64,
    failed: bool,
}

/// One executed batch, as recorded in the array's event log.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Simulated start time of the batch (ms).
    pub start_ms: f64,
    /// Simulated completion time (ms).
    pub end_ms: f64,
    /// The request set the batch served — the very object accounting
    /// absorbed, so timing and ledgers can never disagree.
    pub io: RequestSet,
}

impl BatchRecord {
    /// The batch's makespan.
    pub fn makespan_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// Total requests in the batch.
    pub fn requests(&self) -> u64 {
        self.io.total()
    }
}

/// A simulated disk array with per-disk FIFO queues ([`DiskQueues`],
/// issued at the array's own serializing clock).
///
/// The clock advances only through [`DiskArray::run_batch`]: a batch models
/// a set of element requests issued at the same instant (the controller
/// dispatches a whole write-pattern or read-pattern at once), and returns
/// the batch's makespan. Consecutive batches are serialized, matching the
/// paper's replay of one pattern at a time.
///
/// ```
/// use disk_sim::{DiskArray, DiskProfile};
///
/// let mut arr = DiskArray::new(4, DiskProfile::savvio_10k());
/// // Three elements on disk 0, one on disk 1 — disk 0 is the bottleneck.
/// let makespan = arr.run_batch([0, 0, 0, 1])?;
/// assert!((makespan - 3.0 * DiskProfile::savvio_10k().element_service_ms()).abs() < 1e-9);
/// # Ok::<(), disk_sim::DiskError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiskArray {
    profile: DiskProfile,
    disks: Vec<Disk>,
    queues: DiskQueues,
    now_ms: f64,
    log: Vec<BatchRecord>,
    logging: bool,
}

impl DiskArray {
    /// Creates an array of `disks` identical disks.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    pub fn new(disks: usize, profile: DiskProfile) -> Self {
        DiskArray {
            profile,
            disks: vec![Disk { busy_ms: 0.0, served: 0, failed: false }; disks],
            queues: DiskQueues::new(disks, profile),
            now_ms: 0.0,
            log: Vec::new(),
            logging: false,
        }
    }

    /// Enables per-batch event logging (off by default; long replays would
    /// otherwise accumulate unbounded history).
    pub fn enable_logging(&mut self) {
        self.logging = true;
    }

    /// The recorded batches (empty unless [`DiskArray::enable_logging`] was
    /// called).
    pub fn log(&self) -> &[BatchRecord] {
        &self.log
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.disks.len()
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// The service profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Marks a disk failed; subsequent requests to it error out.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchDisk`] for a bad index.
    pub fn fail_disk(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = true;
        Ok(())
    }

    /// Restores a failed disk (after reconstruction onto a spare).
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchDisk`] for a bad index.
    pub fn restore_disk(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = false;
        Ok(())
    }

    /// True if the disk is currently failed.
    pub fn is_failed(&self, disk: usize) -> bool {
        self.disks.get(disk).is_some_and(|d| d.failed)
    }

    /// Runs one batch: every request (one element on the named disk) is
    /// issued at the current instant; each disk serves its share FIFO.
    /// Returns the batch makespan in milliseconds and advances the clock
    /// past the batch.
    ///
    /// This is the index-list convenience over [`DiskArray::run_requests`];
    /// the requests are accounted as reads.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] if any request names a missing or failed disk;
    /// the batch is then not executed at all.
    pub fn run_batch(&mut self, requests: impl IntoIterator<Item = usize>) -> Result<f64, DiskError> {
        let mut rs = RequestSet::new(self.disks.len());
        for disk in requests {
            if disk >= self.disks.len() {
                return Err(DiskError::NoSuchDisk { disk });
            }
            rs.add_read(disk);
        }
        self.run_requests(&rs)
    }

    /// Runs one lowered operation's [`RequestSet`]: each disk serves its
    /// per-disk total (reads + writes) FIFO from the current instant.
    /// Returns the makespan in milliseconds and advances the clock.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] if the set addresses a missing disk or puts
    /// requests on a failed one; the batch is then not executed at all.
    pub fn run_requests(&mut self, requests: &RequestSet) -> Result<f64, DiskError> {
        if requests.disks() > self.disks.len() {
            return Err(DiskError::NoSuchDisk { disk: self.disks.len() });
        }
        let per_disk = requests.per_disk_totals();
        for (disk, &n) in per_disk.iter().enumerate() {
            if n > 0 && self.disks[disk].failed {
                return Err(DiskError::DiskFailed { disk });
            }
        }
        let service = self.profile.element_service_ms();
        let start = self.now_ms;
        let makespan = self.queues.issue(start, &per_disk);
        for (d, (disk, &n)) in self.disks.iter_mut().zip(&per_disk).enumerate() {
            if n == 0 {
                continue;
            }
            disk.busy_ms += n as f64 * service;
            disk.served += n;
            // Serialize: the clock moves past the batch's slowest disk.
            self.now_ms = self.now_ms.max(self.queues.busy_until_ms(d));
        }
        if self.logging {
            self.log.push(BatchRecord {
                start_ms: start,
                end_ms: self.now_ms,
                io: requests.clone(),
            });
        }
        Ok(makespan)
    }

    /// Per-disk utilization over the elapsed simulated time (0 if idle).
    pub fn utilization(&self) -> Vec<f64> {
        self.disks
            .iter()
            .map(|d| if self.now_ms > 0.0 { d.busy_ms / self.now_ms } else { 0.0 })
            .collect()
    }

    /// Requests served per disk.
    pub fn served(&self) -> Vec<u64> {
        self.disks.iter().map(|d| d.served).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_profile() -> DiskProfile {
        // 1 ms per element for easy arithmetic.
        DiskProfile { seek_latency_ms: 1.0, bandwidth_mb_s: 1.0, element_mb: 0.0 }
    }

    #[test]
    fn batch_makespan_is_max_disk_queue() {
        let mut arr = DiskArray::new(4, unit_profile());
        // 3 requests on disk 0, 1 on disk 1.
        let t = arr.run_batch([0, 0, 0, 1]).unwrap();
        assert!((t - 3.0).abs() < 1e-12);
        assert_eq!(arr.served(), vec![3, 1, 0, 0]);
    }

    #[test]
    fn batches_serialize_on_the_clock() {
        let mut arr = DiskArray::new(2, unit_profile());
        let t1 = arr.run_batch([0, 0]).unwrap();
        let t2 = arr.run_batch([1]).unwrap();
        assert!((t1 - 2.0).abs() < 1e-12);
        assert!((t2 - 1.0).abs() < 1e-12);
        assert!((arr.now_ms() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut arr = DiskArray::new(2, unit_profile());
        let t = arr.run_batch([]).unwrap();
        assert_eq!(t, 0.0);
        assert_eq!(arr.now_ms(), 0.0);
    }

    #[test]
    fn failed_disk_rejects_io_and_batch_is_atomic() {
        let mut arr = DiskArray::new(2, unit_profile());
        arr.fail_disk(1).unwrap();
        assert!(arr.is_failed(1));
        let err = arr.run_batch([0, 1]).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // Nothing ran.
        assert_eq!(arr.served(), vec![0, 0]);
        arr.restore_disk(1).unwrap();
        assert!(arr.run_batch([0, 1]).is_ok());
    }

    #[test]
    fn bad_disk_index() {
        let mut arr = DiskArray::new(2, unit_profile());
        assert_eq!(arr.run_batch([5]).unwrap_err(), DiskError::NoSuchDisk { disk: 5 });
        assert_eq!(arr.fail_disk(9).unwrap_err(), DiskError::NoSuchDisk { disk: 9 });
    }

    #[test]
    fn event_log_records_batches_when_enabled() {
        let mut arr = DiskArray::new(2, unit_profile());
        arr.run_batch([0]).unwrap();
        assert!(arr.log().is_empty(), "logging is opt-in");
        arr.enable_logging();
        arr.run_batch([0, 0, 1]).unwrap();
        arr.run_batch([1]).unwrap();
        let log = arr.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].io.per_disk_totals(), vec![2, 1]);
        assert_eq!(log[0].requests(), 3);
        assert!((log[0].makespan_ms() - 2.0).abs() < 1e-12);
        assert!(log[1].start_ms >= log[0].start_ms);
    }

    #[test]
    fn request_sets_time_like_equivalent_batches() {
        let mut a = DiskArray::new(3, unit_profile());
        let mut b = DiskArray::new(3, unit_profile());
        let mut rs = RequestSet::new(3);
        rs.add_read(0);
        rs.add_read(0);
        rs.add_data_write(1);
        rs.add_parity_write(2);
        let t_rs = a.run_requests(&rs).unwrap();
        let t_batch = b.run_batch([0, 0, 1, 2]).unwrap();
        assert!((t_rs - t_batch).abs() < 1e-12);
        assert_eq!(a.served(), b.served());
    }

    #[test]
    fn request_set_on_failed_disk_is_atomic() {
        let mut arr = DiskArray::new(2, unit_profile());
        arr.fail_disk(1).unwrap();
        let mut rs = RequestSet::new(2);
        rs.add_read(0);
        rs.add_parity_write(1);
        assert_eq!(arr.run_requests(&rs).unwrap_err(), DiskError::DiskFailed { disk: 1 });
        assert_eq!(arr.served(), vec![0, 0]);
        // A set that leaves the failed disk idle still runs.
        let mut quiet = RequestSet::new(2);
        quiet.add_read(0);
        assert!(arr.run_requests(&quiet).is_ok());
    }

    #[test]
    fn oversized_request_set_rejected() {
        let mut arr = DiskArray::new(2, unit_profile());
        let rs = RequestSet::new(3);
        assert!(matches!(arr.run_requests(&rs), Err(DiskError::NoSuchDisk { .. })));
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let mut arr = DiskArray::new(2, unit_profile());
        arr.run_batch([0, 0, 0, 0, 1]).unwrap();
        let u = arr.utilization();
        assert!(u[0] > u[1]);
        assert!((u[0] - 1.0).abs() < 1e-12); // disk 0 was the bottleneck
    }
}
