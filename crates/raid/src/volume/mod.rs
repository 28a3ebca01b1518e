//! The RAID-6 volume: striped storage with partial writes, degraded reads
//! and reconstruction over any array code, executed through the unified
//! I/O pipeline.
//!
//! Every operation is **lowered** per touched stripe by [`crate::lower`]
//! into a [`crate::pipeline::LoweredOp`] — element reads, a compiled
//! [`raid_core::XorPlan`], element writes — and executed by the
//! [`IoPipeline`] against a pluggable [`DiskBackend`]. The pipeline
//! merges each op's per-disk request set into the cumulative [`IoLedger`]
//! and counts its busiest disk into the operation's disk time, so data
//! movement, modeled time, and the paper's request accounting always
//! agree. Each public operation begins and ends one pipeline op, and the
//! receipt it returns is what the pipeline recorded in between — every
//! retry, repair and flush it caused included.
//!
//! A volume holds three groups, one per thing that changes at its own
//! pace, and each has its module:
//!
//! * its **shape** — the code, the address map, the element size and the
//!   stripe count — fixed when the volume is made (this module: the type,
//!   its constructors and accessors, the per-stripe retry loop);
//! * its **healing** state — the failed set, the health monitor, the
//!   spare pool, the rebuild in flight and the write fence — which moves
//!   only when a disk fails or is rebuilt (`healing`: failure adoption,
//!   latent repair, rebuild, spares, the fence, scrub);
//! * its **data path** — the pipeline and the stripe cache — which every
//!   read and write runs through (`data`: read, write, flush and the
//!   cache policy).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use raid_core::io::IoLedger;
use raid_core::{ArrayCode, Cell, Layout};

use crate::addr::Addressing;
use crate::backend::{DiskBackend, FaultyBackend, MemBackend, RebuildCheckpoint};
use crate::cache::StripeCache;
use crate::disk::DiskError;
use crate::health::{HealthMonitor, HealthState};
use crate::lower;
use crate::pipeline::{DiskAddr, IoPipeline};

mod data;
mod healing;

/// Hard cap on recovery attempts per stripe step — a backstop against a
/// fault source that never clears (the health policy normally escalates
/// long before this).
const MAX_OP_ATTEMPTS: usize = 64;

/// Errors from volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// Request exceeds the volume's data-element space.
    OutOfRange {
        /// First element requested.
        start: usize,
        /// Elements requested.
        len: usize,
        /// Volume capacity in data elements.
        capacity: usize,
    },
    /// Buffer length does not match `len × element_size`.
    BadBufferLength {
        /// Expected byte count.
        expected: usize,
        /// Provided byte count.
        got: usize,
    },
    /// A disk index was out of range.
    NoSuchDisk {
        /// The offending index.
        disk: usize,
    },
    /// A stripe index or a cell of it was out of range.
    NoSuchCell {
        /// The stripe asked for.
        stripe: usize,
        /// The cell asked for.
        cell: Cell,
    },
    /// More disks failed than the code tolerates.
    TooManyFailures {
        /// Currently failed disk count.
        failed: usize,
    },
    /// The spare pool cannot cover the failed disks: rebuild cannot
    /// start, and — with the write fence armed — new writes are refused
    /// while the array is parked at the RAID-6 correction limit.
    SpareExhausted {
        /// Failed disks with no rebuild underway.
        failed: usize,
        /// Spares left in the pool.
        spares: usize,
    },
    /// The backend rejected a request.
    Backend(DiskError),
    /// The backend's rebuild checkpoint names a disk or a stripe the
    /// volume does not have.
    CheckpointOutOfRange(RebuildCheckpoint),
    /// No disk can hold this shape: a zero dimension, or a disk whose
    /// element or byte count overflows.
    BadShape {
        /// Stripes asked for.
        stripes: usize,
        /// Rows per stripe of the code.
        rows: usize,
        /// Bytes per element asked for.
        element_size: usize,
    },
    /// The backend's shape does not fit the volume.
    BackendMismatch {
        /// The mismatched dimension.
        what: &'static str,
        /// The volume's expectation.
        expected: usize,
        /// What the backend provides.
        got: usize,
    },
}

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeError::OutOfRange { start, len, capacity } => {
                // `check_range` rejects `start + len` overflows, so the sum
                // may not be computed exactly here.
                let end = start.saturating_add(*len);
                write!(f, "request [{start}, {end}) exceeds capacity {capacity}")
            }
            VolumeError::BadBufferLength { expected, got } => {
                write!(f, "buffer holds {got} bytes, expected {expected}")
            }
            VolumeError::NoSuchDisk { disk } => write!(f, "no disk #{disk}"),
            VolumeError::NoSuchCell { stripe, cell } => {
                write!(f, "no cell {cell} in stripe {stripe}")
            }
            VolumeError::TooManyFailures { failed } => {
                write!(f, "{failed} failed disks exceed RAID-6 tolerance")
            }
            VolumeError::SpareExhausted { failed, spares } => {
                write!(f, "spare pool exhausted: {failed} failed disks uncovered, {spares} spares")
            }
            VolumeError::Backend(e) => write!(f, "backend: {e}"),
            VolumeError::CheckpointOutOfRange(cp) => {
                write!(f, "rebuild checkpoint {} is outside the volume", cp.encode())
            }
            VolumeError::BadShape { stripes, rows, element_size } => {
                let what = if *stripes == 0 || *element_size == 0 {
                    "has a zero dimension"
                } else if stripes.checked_mul(*rows).is_none() {
                    "overflows a disk's elements"
                } else {
                    "overflows a disk offset"
                };
                write!(f, "{stripes} stripes × {rows} rows × {element_size} B elements {what}")
            }
            VolumeError::BackendMismatch { what, expected, got } => {
                write!(f, "backend {what} is {got}, volume needs {expected}")
            }
        }
    }
}

impl std::error::Error for VolumeError {}

impl From<DiskError> for VolumeError {
    fn from(e: DiskError) -> Self {
        VolumeError::Backend(e)
    }
}

/// A RAID-6 volume striping data elements over a pluggable disk backend.
///
/// ```
/// use std::sync::Arc;
/// use hv_code::HvCode;
/// use raid_array::RaidVolume;
///
/// let mut v = RaidVolume::in_memory(Arc::new(HvCode::new(7)?), 4, 16);
/// v.write(3, &[0xAB; 2 * 16])?;          // two elements at address 3
/// v.fail_disk(1)?;                        // disk dies
/// let (bytes, io) = v.read(3, 2)?;        // degraded read still serves
/// assert_eq!(bytes, vec![0xAB; 32]);
/// assert!(io.total_reads() >= 2);
/// v.rebuild()?;                           // minimum-I/O reconstruction
/// assert!(v.verify_all());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct RaidVolume {
    shape: Shape,
    healing: Healing,
    pipeline: IoPipeline,
    /// The write-back stripe cache, when enabled. Declared after
    /// `pipeline`, so the pipeline's disks drop before the cache's slots.
    cache: Option<StripeCache>,
    /// Unused: keeps `RaidVolume` at 536 B. A volume 24 B smaller puts
    /// the `Service` that owns it in a smaller allocator size class, and
    /// hvbench's `front_door_mixed` then sets up about twice as slowly:
    /// glibc trims the dropped rig's disks and the next set-up faults
    /// them back (EXPERIMENTS, "An operation is counted once"). Goes when
    /// set-up timing no longer depends on the trim (ROADMAP 1(a)).
    _size_class: [u64; 3],
}

/// What a volume is, fixed when it is made: its code's geometry and how
/// data elements map onto it.
struct Shape {
    code: Arc<dyn ArrayCode>,
    addressing: Addressing,
    element_size: usize,
    stripes: usize,
}

/// Where the volume stands in its failure and recovery state machine
/// (the paper's §V-C/D); it changes only when a disk fails, a spare
/// arrives or a rebuild moves.
struct Healing {
    failed: BTreeSet<usize>,
    health: HealthMonitor,
    /// Hot spares available to the background healer.
    spares: usize,
    /// The in-flight background rebuild, if any: the in-memory mirror of
    /// the persisted checkpoint. Its disks stay in `failed` — their
    /// content ahead of the frontier is invalid — even though the backend
    /// already serves the replacements.
    rebuild_task: Option<RebuildCheckpoint>,
    /// When armed, refuse new writes while the array is parked at the
    /// correction limit with no rebuild underway and no spares left.
    write_fence: bool,
}

impl fmt::Debug for RaidVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaidVolume")
            .field("code", &self.shape.code.name())
            .field("backend", &self.pipeline.backend().kind())
            .field("stripes", &self.shape.stripes)
            .field("element_size", &self.shape.element_size)
            .field("failed", &self.healing.failed)
            .field("health", &self.healing.health.state())
            .field("rebuild_task", &self.healing.rebuild_task)
            .finish()
    }
}

/// The elements each disk holds for `stripes` stripes of `layout` at
/// `element_size` bytes an element — the one size check every constructor
/// and the CLI share, so no backend is sized from a product that wrapped.
///
/// # Errors
///
/// Returns [`VolumeError::BadShape`] if `stripes` or `element_size` is
/// zero, or if a disk's elements or bytes overflow: past `isize::MAX`
/// bytes, no allocation or file offset can address it.
pub fn disk_extent(
    layout: &Layout,
    stripes: usize,
    element_size: usize,
) -> Result<usize, VolumeError> {
    let bad = VolumeError::BadShape { stripes, rows: layout.rows(), element_size };
    let elements = stripes.checked_mul(layout.rows()).ok_or_else(|| bad.clone())?;
    match elements.checked_mul(element_size) {
        Some(bytes) if bytes > 0 && bytes <= isize::MAX as usize => Ok(elements),
        _ => Err(bad),
    }
}

impl RaidVolume {
    /// Creates a volume of `stripes` stripes over the given backend
    /// (no stripe rotation).
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::BadShape`] if [`disk_extent`] refuses the
    /// shape, or [`VolumeError::BackendMismatch`] if the backend's shape
    /// does not fit the code and stripe count.
    pub fn new(
        code: Arc<dyn ArrayCode>,
        stripes: usize,
        element_size: usize,
        backend: Box<dyn DiskBackend>,
    ) -> Result<Self, VolumeError> {
        Self::with_backend(code, stripes, element_size, false, backend)
    }

    /// Creates a volume over a fresh in-memory backend — the default for
    /// tests and experiments.
    ///
    /// # Panics
    ///
    /// Panics if [`disk_extent`] refuses the shape.
    pub fn in_memory(code: Arc<dyn ArrayCode>, stripes: usize, element_size: usize) -> Self {
        Self::with_rotation(code, stripes, element_size, false)
    }

    /// Like [`RaidVolume::in_memory`] with stripe rotation enabled or
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if [`disk_extent`] refuses the shape.
    pub fn with_rotation(
        code: Arc<dyn ArrayCode>,
        stripes: usize,
        element_size: usize,
        rotate: bool,
    ) -> Self {
        let layout = code.layout();
        let per_disk = disk_extent(layout, stripes, element_size)
            .unwrap_or_else(|e| panic!("in-memory volume: {e}"));
        let backend = MemBackend::new(layout.cols(), per_disk, element_size);
        Self::with_backend(code, stripes, element_size, rotate, Box::new(backend))
            .expect("in-memory backend matches by construction")
    }

    /// Creates a volume over an arbitrary backend with explicit rotation.
    ///
    /// A fresh all-zero backend is parity-consistent (every XOR chain of
    /// zeroes is zero), so no initial encode pass is issued. Failure flags
    /// already recorded by the backend (e.g. a reopened [`crate::backend::FileBackend`])
    /// are adopted as the volume's failed set.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::BadShape`] if [`disk_extent`] refuses the
    /// shape, [`VolumeError::BackendMismatch`] on shape mismatches,
    /// [`VolumeError::TooManyFailures`] if the backend reports more than
    /// two failed disks, or [`VolumeError::CheckpointOutOfRange`] if its
    /// rebuild checkpoint does not fit the volume.
    pub fn with_backend(
        code: Arc<dyn ArrayCode>,
        stripes: usize,
        element_size: usize,
        rotate: bool,
        backend: Box<dyn DiskBackend>,
    ) -> Result<Self, VolumeError> {
        let layout = code.layout();
        let per_disk = disk_extent(layout, stripes, element_size)?;
        if backend.disks() != layout.cols() {
            return Err(VolumeError::BackendMismatch {
                what: "disk count",
                expected: layout.cols(),
                got: backend.disks(),
            });
        }
        if backend.element_size() != element_size {
            return Err(VolumeError::BackendMismatch {
                what: "element size",
                expected: element_size,
                got: backend.element_size(),
            });
        }
        if backend.elements_per_disk() != per_disk {
            return Err(VolumeError::BackendMismatch {
                what: "elements per disk",
                expected: per_disk,
                got: backend.elements_per_disk(),
            });
        }
        let addressing = Addressing::new(layout.num_data_cells(), layout.cols(), rotate);
        let mut failed = BTreeSet::new();
        for d in 0..backend.disks() {
            if backend.is_failed(d) {
                failed.insert(d);
            }
        }
        if failed.len() > 2 {
            return Err(VolumeError::TooManyFailures { failed: failed.len() });
        }
        let mut volume = RaidVolume {
            shape: Shape { code, addressing, element_size, stripes },
            healing: Healing {
                failed,
                health: HealthMonitor::default(),
                spares: 0,
                rebuild_task: None,
                write_fence: false,
            },
            pipeline: IoPipeline::new(backend),
            cache: None,
            _size_class: [0; 3],
        };
        volume.resume_rebuild_checkpoint()?;
        volume.note_health();
        Ok(volume)
    }

    /// The array code in use.
    pub fn code(&self) -> &dyn ArrayCode {
        self.shape.code.as_ref()
    }

    /// The backend kind (`"mem"`, `"file"`, `"faulty"`).
    pub fn backend_kind(&self) -> &'static str {
        self.pipeline.backend().kind()
    }

    /// Volume capacity in data elements.
    pub fn data_elements(&self) -> usize {
        self.shape.addressing.data_per_stripe() * self.shape.stripes
    }

    /// Stripes in the volume.
    pub fn stripes(&self) -> usize {
        self.shape.stripes
    }

    /// The linear-address-to-stripe map.
    pub fn addressing(&self) -> &Addressing {
        &self.shape.addressing
    }

    /// Element size in bytes.
    pub fn element_size(&self) -> usize {
        self.shape.element_size
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.shape.code.layout().cols()
    }

    /// Currently failed disks.
    pub fn failed_disks(&self) -> Vec<usize> {
        self.healing.failed.iter().copied().collect()
    }

    /// The cumulative per-disk I/O ledger.
    pub fn ledger(&self) -> &IoLedger {
        self.pipeline.ledger()
    }

    /// Resets the I/O ledger (between experiments).
    pub fn reset_ledger(&mut self) {
        self.pipeline.reset_ledger();
    }

    /// The disk time of the most recent operation, in element service
    /// times: the busiest disk's element count of each request set the
    /// operation committed, summed. Multiplied by
    /// [`crate::disk::DiskProfile::element_service_ms`] it is the op's
    /// latency (the paper's Fig. 6c and 7a).
    pub fn last_op_busiest_elements(&self) -> u64 {
        self.pipeline.op_busiest_elements()
    }

    /// The volume's health monitor (state machine, retry/repair stats).
    pub fn health(&self) -> &HealthMonitor {
        &self.healing.health
    }

    /// Current health state (`Healthy → Degraded → Critical → Failed`).
    pub fn health_state(&self) -> HealthState {
        self.healing.health.state()
    }

    /// Spares currently in the pool.
    pub fn spares(&self) -> usize {
        self.healing.spares
    }

    /// The in-flight background rebuild, as its persisted checkpoint
    /// form, if one is active.
    pub fn rebuild_progress(&self) -> Option<RebuildCheckpoint> {
        self.healing.rebuild_task.clone()
    }

    /// The fault injector wrapping the backend, if the volume runs over a
    /// [`FaultyBackend`] (chaos/test hook).
    pub fn backend_faulty_mut(&mut self) -> Option<&mut FaultyBackend> {
        self.pipeline.backend_mut().as_faulty_mut()
    }

    /// True when the write-back stripe cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Stripes resident in the cache (dirty or clean); 0 without a cache.
    pub fn cache_resident_stripes(&self) -> usize {
        self.cache.as_ref().map_or(0, StripeCache::len)
    }

    /// Elements the cache holds a copy of, over every resident stripe —
    /// its footprint in units of `element_size`; 0 without a cache.
    pub fn cache_resident_elements(&self) -> usize {
        self.cache.as_ref().map_or(0, StripeCache::resident_elements)
    }

    /// Stripes with unflushed dirty data; 0 without a cache.
    pub fn cache_dirty_stripes(&self) -> usize {
        self.cache.as_ref().map_or(0, StripeCache::dirty_count)
    }

    /// The backend address `(disk, element index)` holding linear data
    /// element `at` — lets fault-driving code (the chaos harness, tests)
    /// aim element-granular faults at an address an upcoming operation
    /// will touch. `None` if `at` is out of range.
    pub fn locate_data_element(&self, at: usize) -> Option<(usize, usize)> {
        if at >= self.data_elements() {
            return None;
        }
        let per = self.shape.addressing.data_per_stripe();
        let (stripe, ordinal) = (at / per, at % per);
        let cell = self.shape.code.layout().data_cells()[ordinal];
        let a = self.addr_of(stripe, cell);
        Some((a.disk, a.index))
    }

    /// The address function of stripe `stripe` handed to [`lower`]; it
    /// copies what it needs, so it does not keep `self` borrowed.
    fn addr_fn(&self, stripe: usize) -> impl Fn(Cell) -> DiskAddr {
        let (addressing, rows) = (self.shape.addressing, self.shape.code.layout().rows());
        move |cell| lower::cell_addr(&addressing, rows, stripe, cell)
    }

    /// The backend address of `cell` in stripe `stripe`.
    fn addr_of(&self, stripe: usize, cell: Cell) -> DiskAddr {
        self.addr_fn(stripe)(cell)
    }

    /// Runs one stripe's step under the health policy — the volume's one
    /// retry loop: a backend error goes through [`Self::recover`] (retry,
    /// latent repair, adopt the dead disk) and the step is replanned
    /// against the new state, up to [`MAX_OP_ATTEMPTS`] times. An op runs
    /// one step per stripe (a write's or flush's store, a read's run, a
    /// scrub's stripe, a rebuild's next stripe), so a retry repeats only
    /// the stripe that failed, and a step that succeeds ends every
    /// transient streak.
    fn with_recovery<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<T, VolumeError>,
    ) -> Result<T, VolumeError> {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            match attempt(self) {
                Err(VolumeError::Backend(e)) if attempts < MAX_OP_ATTEMPTS => self.recover(e)?,
                other => {
                    if other.is_ok() {
                        self.healing.health.note_op_ok();
                    }
                    return other;
                }
            }
        }
    }

    /// Closes the volume: flushes the write-back cache and reports what
    /// the flush returned — the error dropping the volume would swallow.
    /// The volume is gone either way; on error, the writes the flush could
    /// not store are lost with it, and drop does not try them again.
    ///
    /// # Errors
    ///
    /// Returns the final flush's [`VolumeError`].
    pub fn close(mut self) -> Result<(), VolumeError> {
        let flushed = self.flush();
        self.cache = None;
        flushed.map(drop)
    }

    fn check_range(&self, start: usize, len: usize) -> Result<(), VolumeError> {
        match start.checked_add(len) {
            Some(end) if end <= self.data_elements() => Ok(()),
            _ => Err(VolumeError::OutOfRange { start, len, capacity: self.data_elements() }),
        }
    }
}

impl Drop for RaidVolume {
    /// Best-effort drop barrier: dirty cached stripes are flushed so a
    /// clean shutdown loses nothing. Errors are swallowed — a crashed
    /// backend cannot accept the flush, and the undo journal already
    /// guarantees no *partial* flush is visible after reopen. A caller
    /// that must know closes the volume with [`RaidVolume::close`].
    fn drop(&mut self) {
        if self.cache.as_ref().is_some_and(|c| c.dirty_count() > 0) {
            let _ = self.flush();
        }
    }
}

#[cfg(test)]
mod tests;
