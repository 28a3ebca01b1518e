//! The RAID-6 volume: striped storage with partial writes, degraded reads
//! and reconstruction over any array code, executed through the unified
//! I/O pipeline.
//!
//! Every operation is **lowered** per touched stripe by [`crate::lower`]
//! into a [`crate::pipeline::LoweredOp`] — element reads, a compiled
//! [`raid_core::XorPlan`], element writes — and executed by the
//! [`IoPipeline`] against a pluggable
//! [`DiskBackend`]. The pipeline absorbs each per-disk
//! [`raid_core::io::RequestSet`] into the cumulative [`IoLedger`] and
//! counts its busiest disk into the operation's disk time, so data
//! movement, modeled time, and the paper's request accounting always
//! agree. Each public operation begins and ends one pipeline op, and the
//! receipt it returns is what the pipeline recorded in between — every
//! retry, repair and flush it caused included.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use disk_sim::DiskError;
use raid_core::io::IoLedger;
use raid_core::scrub::ScrubReport;
use raid_core::{ArrayCode, Cell, Stripe};

use crate::addr::Addressing;
use crate::backend::{DiskBackend, FaultyBackend, MemBackend, RebuildCheckpoint};
use crate::cache::{CacheConfig, StripeCache, StripeEntry};
use crate::health::{HealthMonitor, HealthState, RecoveryAction};
use crate::lower;
use crate::pipeline::{DiskAddr, IoPipeline};

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
    code: Arc<dyn ArrayCode>,
    addressing: Addressing,
    element_size: usize,
    stripes: usize,
    pipeline: IoPipeline,
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
    /// The write-back stripe cache, when enabled.
    cache: Option<StripeCache>,
    /// Unused: keeps `RaidVolume` at 536 B. A volume 24 B smaller puts
    /// the `Service` that owns it in a smaller allocator size class, and
    /// hvbench's `front_door_mixed` then sets up about twice as slowly:
    /// glibc trims the dropped rig's disks and the next set-up faults
    /// them back (EXPERIMENTS, "An operation is counted once"). Goes when
    /// set-up timing no longer depends on the trim (ROADMAP 1(a)).
    _size_class: [u64; 3],
}

/// What a stripe store writes — the new bytes of its dirty ordinals —
/// and, from a cache entry, the clean old values it may use in place of
/// disk reads. [`RaidVolume::store_stripe`] lends each to its op where it
/// lives: the caller's buffer or the entry's slot.
#[derive(Clone, Copy)]
enum Dirty<'a> {
    /// An uncached write: the stripe's elements from ordinal `start` on.
    Caller { start: usize, bytes: &'a [u8], element_size: usize },
    /// A flush: the cache entry's dirty slots, its clean ones offered.
    Cache(&'a StripeEntry),
}

impl<'a> Dirty<'a> {
    /// The dirty ordinals, ascending.
    fn ordinals(&self) -> Vec<usize> {
        match self {
            Dirty::Caller { start, bytes, element_size } => {
                (*start..start + bytes.len() / element_size).collect()
            }
            Dirty::Cache(entry) => entry.dirty_ordinals(),
        }
    }

    /// True if the old value of `ord` is held clean — a disk read saved.
    fn is_clean(&self, ord: usize) -> bool {
        matches!(self, Dirty::Cache(entry) if entry.is_clean(ord))
    }

    /// The bytes of `ord`: new if it is dirty, old if it is clean.
    fn element(&self, ord: usize) -> &'a [u8] {
        match *self {
            Dirty::Caller { start, bytes, element_size } => {
                &bytes[(ord - start) * element_size..][..element_size]
            }
            Dirty::Cache(entry) => entry.element(ord),
        }
    }
}

impl fmt::Debug for RaidVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaidVolume")
            .field("code", &self.code.name())
            .field("backend", &self.pipeline.backend().kind())
            .field("stripes", &self.stripes)
            .field("element_size", &self.element_size)
            .field("failed", &self.failed)
            .field("health", &self.health.state())
            .field("rebuild_task", &self.rebuild_task)
            .finish()
    }
}

impl RaidVolume {
    /// Creates a volume of `stripes` stripes over the given backend
    /// (no stripe rotation).
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::BackendMismatch`] if the backend's shape
    /// does not fit the code and stripe count.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` or `element_size` is zero.
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
    /// Panics if `stripes` or `element_size` is zero.
    pub fn in_memory(code: Arc<dyn ArrayCode>, stripes: usize, element_size: usize) -> Self {
        Self::with_rotation(code, stripes, element_size, false)
    }

    /// Like [`RaidVolume::in_memory`] with stripe rotation enabled or
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` or `element_size` is zero.
    pub fn with_rotation(
        code: Arc<dyn ArrayCode>,
        stripes: usize,
        element_size: usize,
        rotate: bool,
    ) -> Self {
        assert!(stripes > 0, "volume needs at least one stripe");
        assert!(element_size > 0, "element size must be positive");
        let layout = code.layout();
        let backend =
            MemBackend::new(layout.cols(), stripes * layout.rows(), element_size);
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
    /// Returns [`VolumeError::BackendMismatch`] on shape mismatches, or
    /// [`VolumeError::TooManyFailures`] if the backend reports more than
    /// two failed disks.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` or `element_size` is zero.
    pub fn with_backend(
        code: Arc<dyn ArrayCode>,
        stripes: usize,
        element_size: usize,
        rotate: bool,
        backend: Box<dyn DiskBackend>,
    ) -> Result<Self, VolumeError> {
        assert!(stripes > 0, "volume needs at least one stripe");
        assert!(element_size > 0, "element size must be positive");
        let layout = code.layout();
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
        // `stripes` may come off disk (`volume.meta`): no overflow panic.
        let per_disk = stripes.saturating_mul(layout.rows());
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
            code,
            addressing,
            element_size,
            stripes,
            pipeline: IoPipeline::new(backend),
            failed,
            health: HealthMonitor::default(),
            spares: 0,
            rebuild_task: None,
            write_fence: false,
            cache: None,
            _size_class: [0; 3],
        };
        volume.resume_rebuild_checkpoint()?;
        volume.note_health();
        Ok(volume)
    }

    /// Adopts a persisted rebuild checkpoint: the previous process died
    /// mid-rebuild, and the checkpointed disks hold invalid data up from
    /// `next_stripe`. Resuming means continuing from there — *not*
    /// swapping in fresh spares (that would lose the stripes already
    /// rebuilt) and *not* restarting at stripe 0. The one exception: a
    /// disk the checkpoint names that the backend still reports failed
    /// (crash fell between checkpoint-write and spare-swap, which implies
    /// `next_stripe == 0`) gets its spare now.
    fn resume_rebuild_checkpoint(&mut self) -> Result<(), VolumeError> {
        let Some(cp) = self.pipeline.backend().load_checkpoint() else { return Ok(()) };
        if cp.disks.iter().any(|&d| d >= self.disks()) || cp.next_stripe > self.stripes {
            // A checkpoint for a different geometry: drop it rather than
            // scribble on the wrong disks.
            self.pipeline.backend_mut().save_checkpoint(None)?;
            return Ok(());
        }
        for &d in &cp.disks {
            if self.pipeline.backend().is_failed(d) {
                self.pipeline.backend_mut().replace(d)?;
            }
            self.failed.insert(d);
        }
        if self.failed.len() > 2 {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() });
        }
        self.rebuild_task = Some(cp);
        Ok(())
    }

    /// The array code in use.
    pub fn code(&self) -> &dyn ArrayCode {
        self.code.as_ref()
    }

    /// The backend kind (`"mem"`, `"file"`, `"faulty"`).
    pub fn backend_kind(&self) -> &'static str {
        self.pipeline.backend().kind()
    }

    /// Volume capacity in data elements.
    pub fn data_elements(&self) -> usize {
        self.addressing.data_per_stripe() * self.stripes
    }

    /// Stripes in the volume.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// The linear-address-to-stripe map.
    pub fn addressing(&self) -> &Addressing {
        &self.addressing
    }

    /// Element size in bytes.
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.code.layout().cols()
    }

    /// Currently failed disks.
    pub fn failed_disks(&self) -> Vec<usize> {
        self.failed.iter().copied().collect()
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
    /// [`disk_sim::DiskProfile::element_service_ms`] it is the op's
    /// latency (the paper's Fig. 6c and 7a).
    pub fn last_op_busiest_elements(&self) -> u64 {
        self.pipeline.op_busiest_elements()
    }

    /// Marks a disk failed (its contents become unreadable).
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the disk does not exist or a third disk
    /// would be failed.
    pub fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        if disk >= self.disks() {
            return Err(VolumeError::NoSuchDisk { disk });
        }
        self.failed.insert(disk);
        if self.failed.len() > 2 {
            self.failed.remove(&disk);
            return Err(VolumeError::TooManyFailures { failed: 3 });
        }
        self.pipeline.backend_mut().fail(disk)?;
        self.after_failure();
        Ok(())
    }

    /// The volume's health monitor (state machine, retry/repair stats).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Current health state (`Healthy → Degraded → Critical → Failed`).
    pub fn health_state(&self) -> HealthState {
        self.health.state()
    }

    /// Stocks the hot-spare pool. Spares are consumed (one per dead disk)
    /// when a background rebuild starts.
    pub fn set_spares(&mut self, spares: usize) {
        self.spares = spares;
    }

    /// Spares currently in the pool.
    pub fn spares(&self) -> usize {
        self.spares
    }

    /// Arms/disarms the critical write fence (off by default). While
    /// armed, a volume parked at the RAID-6 correction limit — two dead
    /// disks, no rebuild underway, no spares — refuses new writes with
    /// [`VolumeError::SpareExhausted`] instead of accepting data with
    /// zero remaining redundancy. Reads, flushes of already-accepted
    /// data, and rebuild I/O are unaffected; the fence lifts as soon as
    /// a spare arrives and a rebuild starts.
    pub fn set_write_fence(&mut self, on: bool) {
        self.write_fence = on;
    }

    /// True when the armed fence is currently refusing writes.
    pub fn write_fenced(&self) -> bool {
        self.write_fence
            && self.failed.len() >= 2
            && self.rebuild_task.is_none()
            && self.spares == 0
    }

    /// Asks the healer to cover every failed disk, reporting — rather
    /// than silently parking on — an empty spare pool.
    ///
    /// With spares stocked this behaves like a zero-budget
    /// [`RaidVolume::maintain`]: it starts the spare-consuming rebuild
    /// (if warranted) without rebuilding any stripes yet. With failed
    /// disks left uncovered and the pool empty it returns the typed
    /// [`VolumeError::SpareExhausted`] so the caller can stock a spare
    /// instead of inferring exhaustion from "maintain did nothing".
    ///
    /// # Errors
    ///
    /// [`VolumeError::SpareExhausted`] when failed disks remain with no
    /// rebuild covering them and no spares; backend errors from the
    /// rebuild kickoff.
    pub fn request_heal(&mut self) -> Result<(), VolumeError> {
        if self.rebuild_task.is_none() && !self.failed.is_empty() {
            if self.spares == 0 {
                return Err(VolumeError::SpareExhausted {
                    failed: self.failed.len(),
                    spares: 0,
                });
            }
            return self.start_spare_rebuild();
        }
        let covered: usize = self
            .rebuild_task
            .as_ref()
            .map_or(0, |t| t.disks.iter().filter(|d| self.failed.contains(d)).count());
        let uncovered = self.failed.len().saturating_sub(covered);
        if uncovered > 0 && self.spares == 0 {
            return Err(VolumeError::SpareExhausted { failed: uncovered, spares: 0 });
        }
        // Uncovered failures with spares in the pool wait for the active
        // task to finish; the next maintain() starts their rebuild.
        Ok(())
    }

    /// The in-flight background rebuild, as its persisted checkpoint
    /// form, if one is active.
    pub fn rebuild_progress(&self) -> Option<RebuildCheckpoint> {
        self.rebuild_task.clone()
    }

    /// The fault injector wrapping the backend, if the volume runs over a
    /// [`FaultyBackend`] (chaos/test hook).
    pub fn backend_faulty_mut(&mut self) -> Option<&mut FaultyBackend> {
        self.pipeline.backend_mut().as_faulty_mut()
    }

    /// Enables the write-back stripe cache. Subsequent writes are
    /// absorbed in memory and flushed coalesced per stripe (see
    /// [`CacheConfig`] for the policy knobs); reads become read-through
    /// cached. Call [`RaidVolume::flush`] for an explicit write barrier —
    /// dropping the volume flushes best-effort.
    ///
    /// # Panics
    ///
    /// Panics if a cache is already enabled.
    pub fn enable_cache(&mut self, cfg: CacheConfig) {
        assert!(self.cache.is_none(), "cache already enabled");
        self.cache =
            Some(StripeCache::new(cfg, self.addressing.data_per_stripe(), self.element_size));
    }

    /// Flushes and removes the stripe cache, returning the flush's
    /// receipt.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the final flush cannot be served; the
    /// cache stays enabled with its dirty data intact.
    pub fn disable_cache(&mut self) -> Result<IoLedger, VolumeError> {
        let flushed = self.flush()?;
        self.cache = None;
        Ok(flushed)
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

    /// Re-derives the health state from the failed-disk count; the
    /// monitor logs the transition.
    fn note_health(&mut self) {
        self.health.observe_failed_count(self.failed.len());
    }

    /// Post-failure bookkeeping: health transition, then — when spares
    /// are stocked — kick off the background rebuild.
    fn after_failure(&mut self) {
        self.note_health();
        if self.rebuild_task.is_none() && self.spares > 0 {
            // Best effort: a failure here (e.g. mid-crash) leaves the
            // array degraded-but-consistent, and the next maintain() call
            // retries the kickoff.
            let _ = self.start_spare_rebuild();
        }
    }

    /// One recovery step for a backend error, per the health policy:
    /// transients are retried (the caller loops), latent sectors repaired
    /// in place, dead disks adopted into the failed set, everything else
    /// propagated.
    fn recover(&mut self, e: DiskError) -> Result<(), VolumeError> {
        match self.health.on_error(&e) {
            RecoveryAction::Retry => Ok(()),
            RecoveryAction::RepairLatent { disk, index } => self.repair_latent(disk, index),
            RecoveryAction::FailDisk { disk } => self.adopt_failure(disk, e),
            RecoveryAction::Fatal => Err(VolumeError::Backend(e)),
        }
    }

    /// Records a failure the backend reported on its own (e.g. a
    /// [`FaultyBackend`] fault) so the operation can be replanned
    /// degraded. Errors if the failure is not survivable.
    fn adopt_failure(&mut self, disk: usize, source: DiskError) -> Result<(), VolumeError> {
        if disk >= self.disks() {
            return Err(VolumeError::Backend(source));
        }
        if self.failed.contains(&disk) {
            // A spare died while being rebuilt: swap in a fresh one and
            // restart its rebuild from stripe 0 (nothing on the
            // replacement is valid yet).
            let spare_died = self.pipeline.backend().is_failed(disk);
            let task = self.rebuild_task.as_mut();
            if let Some(task) = task.filter(|t| spare_died && t.disks.contains(&disk)) {
                self.pipeline.backend_mut().replace(disk)?;
                task.next_stripe = 0;
                self.pipeline.backend_mut().save_checkpoint(Some(task))?;
                return Ok(());
            }
            return Err(VolumeError::Backend(source));
        }
        if self.failed.len() >= 2 {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() + 1 });
        }
        self.failed.insert(disk);
        let _ = self.pipeline.backend_mut().fail(disk);
        self.after_failure();
        Ok(())
    }

    /// Reconstructs the one element a latent-sector error named from its
    /// parity chains and rewrites it in place — the write remaps the bad
    /// sector. Runs through the pipeline, so the repair I/O is accounted.
    /// Additional bad sectors discovered while reading the reconstruction
    /// sources are folded into the same decode — which is why this keeps
    /// its own loop instead of [`Self::with_recovery`]: handing such a
    /// sector to [`Self::recover`] would start a second repair inside this
    /// one, and the two would recurse between the sectors.
    fn repair_latent(&mut self, disk: usize, index: usize) -> Result<(), VolumeError> {
        let mut sectors = vec![(disk, index)];
        for _ in 0..MAX_OP_ATTEMPTS {
            match self.try_repair_latent(&sectors) {
                Err(VolumeError::Backend(DiskError::LatentSector { disk: d, index: i })) => {
                    if sectors.contains(&(d, i)) {
                        return Err(VolumeError::Backend(DiskError::LatentSector {
                            disk: d,
                            index: i,
                        }));
                    }
                    // Another bad sector among the sources: charge it
                    // against the policy and widen the decode.
                    match self.health.on_error(&DiskError::LatentSector { disk: d, index: i })
                    {
                        RecoveryAction::FailDisk { disk } => {
                            self.adopt_failure(disk, DiskError::LatentSector {
                                disk: d,
                                index: i,
                            })?;
                        }
                        _ => sectors.push((d, i)),
                    }
                }
                // Transients/disk deaths during the repair reads go
                // through the normal policy (latent errors are already
                // intercepted above, so this cannot re-enter
                // repair_latent).
                Err(VolumeError::Backend(e)) => self.recover(e)?,
                other => return other,
            }
        }
        Err(VolumeError::Backend(DiskError::LatentSector { disk, index }))
    }

    /// One in-place reconstruction attempt for the given bad sectors
    /// (all in one stripe): decode them — together with any whole failed
    /// columns — from the surviving elements, write back only the bad
    /// sectors.
    fn try_repair_latent(&mut self, sectors: &[(usize, usize)]) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let rows = layout.rows();
        let live: Vec<(usize, usize)> = sectors
            .iter()
            .copied()
            .filter(|&(d, i)| {
                d < self.disks() && i < self.stripes * rows && !self.disk_failed_at(d, i / rows)
            })
            .collect();
        let Some(&(d0, i0)) = live.first() else { return Ok(()) };
        let stripe_idx = i0 / rows;
        let cells: Vec<Cell> = live
            .iter()
            .map(|&(d, i)| {
                debug_assert_eq!(i / rows, stripe_idx, "latent repair spans one stripe");
                Cell::new(i % rows, self.addressing.logical_col(stripe_idx, d))
            })
            .collect();
        let failed_cols = self.failed_cols(stripe_idx);
        let addr = self.addr_fn(stripe_idx);
        let Some(op) = lower::decode_op(layout, &failed_cols, &cells, &cells, &addr) else {
            // Bad sectors + failed columns exceed the code's erasure
            // capability: unrecoverable in place.
            return Err(VolumeError::Backend(DiskError::LatentSector {
                disk: d0,
                index: i0,
            }));
        };
        // The op stores only the bad sectors it decodes: they are
        // computed where they are rewritten.
        self.pipeline.execute_in_place(&op)?;
        Ok(())
    }

    /// The backend address `(disk, element index)` holding linear data
    /// element `at` — lets fault-driving code (the chaos harness, tests)
    /// aim element-granular faults at an address an upcoming operation
    /// will touch. `None` if `at` is out of range.
    pub fn locate_data_element(&self, at: usize) -> Option<(usize, usize)> {
        if at >= self.data_elements() {
            return None;
        }
        let per = self.addressing.data_per_stripe();
        let (stripe, ordinal) = (at / per, at % per);
        let cell = self.code.layout().data_cells()[ordinal];
        let a = self.addr_of(stripe, cell);
        Some((a.disk, a.index))
    }

    /// The address function of stripe `stripe` handed to [`lower`]; it
    /// copies what it needs, so it does not keep `self` borrowed.
    fn addr_fn(&self, stripe: usize) -> impl Fn(Cell) -> DiskAddr {
        let (addressing, rows) = (self.addressing, self.code.layout().rows());
        move |cell| lower::cell_addr(&addressing, rows, stripe, cell)
    }

    /// The backend address of `cell` in stripe `stripe`.
    fn addr_of(&self, stripe: usize, cell: Cell) -> DiskAddr {
        self.addr_fn(stripe)(cell)
    }

    /// Whether `disk` must be treated as failed for operations touching
    /// `stripe`. A disk under rebuild is failed only ahead of the rebuild
    /// frontier: stripes below `next_stripe` are fully reconstructed on the
    /// live replacement, so reads may hit them directly and writes MUST
    /// write through — skipping them would leave the already-rebuilt region
    /// stale and surface as silent corruption when the rebuild finishes.
    fn disk_failed_at(&self, disk: usize, stripe: usize) -> bool {
        self.failed.contains(&disk)
            && !self
                .rebuild_task
                .as_ref()
                .is_some_and(|t| stripe < t.next_stripe && t.disks.contains(&disk))
    }

    /// The stripe's logical columns currently failed (rebuild-frontier
    /// aware, see [`Self::disk_failed_at`]).
    fn failed_cols(&self, stripe: usize) -> Vec<usize> {
        self.failed
            .iter()
            .filter(|&&d| self.disk_failed_at(d, stripe))
            .map(|&d| self.addressing.logical_col(stripe, d))
            .collect()
    }

    /// Writes `len` data elements starting at linear element `start`.
    ///
    /// Each touched stripe goes through `store_stripe`, straight
    /// from `data` (or, with the cache on, is absorbed and stored at flush
    /// time by the same lowering). A disk failing mid-write is rolled back
    /// by the pipeline and the stripe it was storing replans degraded;
    /// stripes already stored are not stored again.
    ///
    /// Returns the operation's receipt: the I/O and cache events it
    /// caused, flushes, retries and repairs included.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on range/length mismatches, or if more
    /// disks fail than the code tolerates.
    pub fn write(&mut self, start: usize, data: &[u8]) -> Result<IoLedger, VolumeError> {
        let len = data.len() / self.element_size.max(1);
        if data.len() != len * self.element_size || data.is_empty() {
            return Err(VolumeError::BadBufferLength {
                expected: len.max(1) * self.element_size,
                got: data.len(),
            });
        }
        self.check_range(start, len)?;
        if self.write_fenced() {
            return Err(VolumeError::SpareExhausted { failed: self.failed.len(), spares: 0 });
        }
        self.pipeline.begin_op();
        match self.with_cache(|v, cache| v.write_cached(cache, start, len, data)) {
            Some(cached) => cached?,
            None => {
                let es = self.element_size;
                let mut rest = data;
                for seg in self.addressing.split(start, len) {
                    let (bytes, tail) = rest.split_at(seg.len * es);
                    rest = tail;
                    let dirty = Dirty::Caller { start: seg.start, bytes, element_size: es };
                    self.with_recovery(|v| v.store_stripe(seg.stripe, dirty))?;
                }
            }
        }
        Ok(self.pipeline.end_op())
    }

    /// Runs `f` with the stripe cache moved out of the volume and lent to
    /// it, and moves it back when `f` returns; `None` without a cache. The
    /// one way the cache is borrowed beside the volume: while `f` runs,
    /// `self.cache` is empty, and nothing a cached write or flush reaches —
    /// the store, the recovery policy, the rebuild kickoff — consults it.
    fn with_cache<T>(&mut self, f: impl FnOnce(&mut Self, &mut StripeCache) -> T) -> Option<T> {
        let mut cache = self.cache.take()?;
        let out = f(self, &mut cache);
        self.cache = Some(cache);
        Some(out)
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
                        self.health.note_op_ok();
                    }
                    return other;
                }
            }
        }
    }

    /// Stores the `dirty` elements of one stripe — the one store path
    /// behind both [`RaidVolume::write`] and the cache flush. On a healthy
    /// array it is a single journal-atomic op: the cheaper of
    /// read-modify-write and reconstruct-write, or a read-free full-stripe
    /// write, over a double-height scratch (old values below, new above);
    /// old values `dirty` holds clean are its fills (cache hits) instead
    /// of reads.
    ///
    /// The scratch holds only the cells the op computes — the parities it
    /// rewrites. The new bytes of the dirty ordinals and the clean old
    /// values (the caller's buffer, the cache entry's slots) are lent to
    /// the op where they are, and the backend lends the reads; the op
    /// only reads them: the lowering never lands a read in, or targets a
    /// plan step at, a dirty or fill cell.
    ///
    /// Otherwise: decode the stripe from its survivors onto a dense
    /// scratch, patch, re-encode, rewrite the surviving columns in one op.
    fn store_stripe(&mut self, stripe: usize, dirty: Dirty<'_>) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let addr = self.addr_fn(stripe);
        let ordinals = dirty.ordinals();

        if self.failed.is_empty() {
            let lower::StripeWrite { op, fills } =
                lower::stripe_write_op(layout, &ordinals, |ord| dirty.is_clean(ord), &addr);
            let written =
                ordinals.iter().zip(&op.data_writes).map(|(&ord, &(cell, _))| (ord, cell));
            let lent: Vec<(Cell, &[u8])> = written
                .chain(fills.iter().copied())
                .map(|(ord, cell)| (cell, dirty.element(ord)))
                .collect();
            let (rows, cols) = (2 * layout.rows(), layout.cols());
            let mut scratch = Stripe::sparse(rows, cols, self.element_size, op.computed());
            self.pipeline.execute_lent(&op, &mut scratch, &lent)?;
            self.pipeline.note(|ledger| ledger.note_cache_hits(fills.len() as u64));
            return Ok(());
        }

        // Any failed disk sends every stripe down this path, also the
        // ones a rebuild in progress has already passed (their
        // `failed_cols` is empty: read all, decode nothing, re-encode).
        let failed_cols = self.failed_cols(stripe);
        let fetch = lower::decode_op(layout, &failed_cols, &[], &[], &addr)
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        let mut scratch = Stripe::for_layout(layout, self.element_size);
        self.pipeline.execute(&fetch, &mut scratch)?;
        let cells: Vec<Cell> = ordinals.iter().map(|&ord| layout.data_cells()[ord]).collect();
        for (&cell, &ord) in cells.iter().zip(&ordinals) {
            scratch.set_element(cell, dirty.element(ord));
        }
        let store = lower::encode_store_op(layout, &failed_cols, &cells, &addr);
        self.pipeline.execute(&store, &mut scratch)?;
        Ok(())
    }

    /// Absorbs a write into the stripe cache (no disk I/O), then enforces
    /// the flush policy: flush LRU dirty stripes down to the high-water
    /// mark, then evict down to the memory budget.
    fn write_cached(
        &mut self,
        cache: &mut StripeCache,
        start: usize,
        len: usize,
        data: &[u8],
    ) -> Result<(), VolumeError> {
        let es = self.element_size;
        let mut rest = data;
        for seg in self.addressing.split(start, len) {
            let (bytes, tail) = rest.split_at(seg.len * es);
            rest = tail;
            let entry = cache.ensure(seg.stripe);
            for (ord, element) in (seg.start..).zip(bytes.chunks_exact(es)) {
                entry.write(ord, element);
            }
        }

        let high_water = cache.config().dirty_high_water;
        while cache.dirty_count() > high_water {
            let Some(stripe) = cache.oldest_dirty() else { break };
            self.flush_stripe(cache, stripe)?;
        }
        self.enforce_cache_budget(cache)?;
        self.health.note_op_ok();
        Ok(())
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// memory budget, preferring clean entries (free) and flushing dirty
    /// ones first when nothing clean is left.
    fn enforce_cache_budget(&mut self, cache: &mut StripeCache) -> Result<(), VolumeError> {
        let max_stripes = cache.config().max_stripes;
        while cache.len() > max_stripes {
            let Some(victim) = cache.oldest_clean().or_else(|| cache.oldest()) else { break };
            if cache.get(victim).is_some_and(StripeEntry::is_dirty) {
                self.flush_stripe(cache, victim)?;
            }
            cache.remove(victim);
            self.pipeline.note(IoLedger::note_cache_eviction);
        }
        Ok(())
    }

    /// Flushes every dirty stripe as one coalesced op each — the explicit
    /// write barrier (also run on drop). A no-op without a cache or dirty
    /// data. Flushed entries stay resident as clean read cache.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if a flush cannot be served; the affected
    /// stripe's dirty data stays in the cache for a later retry.
    pub fn flush(&mut self) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        self.with_cache(|v, cache| {
            cache.dirty_stripes().into_iter().try_for_each(|stripe| v.flush_stripe(cache, stripe))
        })
        .unwrap_or(Ok(()))?;
        Ok(self.pipeline.end_op())
    }

    /// Flushes one stripe's dirty elements through `store_stripe`
    /// — every dirty element of the stripe in one coalesced store, so
    /// co-located elements share parity I/O, running on the entry's own
    /// slots — with the volume's standard retry/recovery policy. On
    /// success the entry is marked clean and stays resident; on error the
    /// dirty data is preserved in the cache.
    fn flush_stripe(&mut self, cache: &mut StripeCache, stripe: usize) -> Result<(), VolumeError> {
        let Some(mut entry) = cache.take(stripe) else { return Ok(()) };
        let mut result = Ok(());
        if entry.is_dirty() {
            result = self.with_recovery(|v| v.store_stripe(stripe, Dirty::Cache(&entry)));
            if result.is_ok() {
                entry.mark_clean();
                self.pipeline.note(IoLedger::note_cache_flush);
            }
        }
        cache.put_back(stripe, entry);
        result
    }

    /// Reads `len` data elements starting at `start`, serving through
    /// reconstruction when requested elements live on failed disks (the
    /// degraded read of the paper's Section V-B).
    ///
    /// With the stripe cache on, resident elements (dirty or clean) are
    /// served from memory as hits — dirty ones must be: the disks hold
    /// their pre-flush values — and each run of missing elements goes to
    /// the disks and populates the cache read-through as clean copies.
    /// Cache off is the same loop with nothing resident and nothing
    /// populated: every stripe segment is one missing run.
    ///
    /// Returns the bytes and the operation's receipt, repairs of latent
    /// sectors it met included; `receipt.total_reads()` is the paper's
    /// `L'`.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on bad ranges or unsurvivable failures.
    pub fn read(&mut self, start: usize, len: usize) -> Result<(Vec<u8>, IoLedger), VolumeError> {
        self.check_range(start, len)?;
        let es = self.element_size;
        // Sized once; hits, plain fetches and reconstructed runs each fill
        // their own window of it, so a retried run overwrites, never appends.
        let mut out = vec![0u8; len * es];
        let mut rest = &mut out[..];
        self.pipeline.begin_op();
        let (mut hits, mut misses) = (0u64, 0u64);
        for seg in self.addressing.split(start, len) {
            if let Some(cache) = &mut self.cache {
                cache.promote(seg.stripe);
            }
            let mut ord = seg.start;
            let end = seg.start + seg.len;
            while ord < end {
                if let Some(entry) = self.resident(seg.stripe, ord) {
                    let (window, tail) = rest.split_at_mut(es);
                    window.copy_from_slice(entry.element(ord));
                    rest = tail;
                    hits += 1;
                    ord += 1;
                    continue;
                }
                let run_start = ord;
                while ord < end && self.resident(seg.stripe, ord).is_none() {
                    ord += 1;
                }
                let (window, tail) = rest.split_at_mut((ord - run_start) * es);
                rest = tail;
                self.with_recovery(|v| v.read_run(seg.stripe, run_start..ord, window))?;
                if let Some(cache) = &mut self.cache {
                    misses += (ord - run_start) as u64;
                    let entry = cache.ensure(seg.stripe);
                    for (ord, bytes) in (run_start..ord).zip(window.chunks_exact(es)) {
                        entry.fill(ord, bytes);
                    }
                }
            }
        }
        if self.cache.is_some() {
            self.pipeline.note(|ledger| {
                ledger.note_cache_hits(hits);
                ledger.note_cache_misses(misses);
            });
            self.with_cache(Self::enforce_cache_budget).unwrap_or(Ok(()))?;
        }
        Ok((out, self.pipeline.end_op()))
    }

    /// The cache entry holding data ordinal `ord` of `stripe`, if resident.
    fn resident(&self, stripe: usize, ord: usize) -> Option<&StripeEntry> {
        self.cache.as_ref()?.get(stripe).filter(|e| e.is_present(ord))
    }

    /// One attempt at fetching data ordinals `run` of `stripe` from the
    /// disks as one (possibly degraded) read op into `out`, the run's
    /// window of the caller's buffer. A run that misses every failed
    /// column is a plain fetch and lands there directly; one that needs
    /// reconstruction runs on a scratch holding the cells it rebuilds, not
    /// the stripe, and each requested element is copied out once on
    /// success, from the scratch or from where the backend lent it. A
    /// failed attempt may leave some of the window written; the retry
    /// fills the same window again.
    fn read_run(
        &mut self,
        stripe: usize,
        run: Range<usize>,
        out: &mut [u8],
    ) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let requested = &layout.data_cells()[run];
        let failed_cols = self.failed_cols(stripe);
        let op = lower::read_op(layout, &failed_cols, requested, &self.addr_fn(stripe))
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        if op.plan.is_none() {
            self.pipeline.fetch(&op, out)?;
            return Ok(());
        }
        let mut scratch =
            Stripe::sparse(layout.rows(), layout.cols(), self.element_size, op.computed());
        self.pipeline.execute_into(&op, &mut scratch, requested, out)?;
        Ok(())
    }

    /// Rebuilds every failed disk onto a spare (single-disk hybrid
    /// recovery or generic double-disk decode) and marks the array
    /// healthy. An in-flight background rebuild is driven to completion
    /// first; progress is checkpointed per stripe, so a crash mid-rebuild
    /// resumes where it stopped on reopen. It is one operation: its
    /// receipt and disk time cover every task it ran.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if more than two disks are
    /// failed (cannot happen through this API).
    pub fn rebuild(&mut self) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        loop {
            if self.rebuild_task.is_none() {
                let failed: Vec<usize> = self.failed.iter().copied().collect();
                if failed.is_empty() {
                    return Ok(self.pipeline.end_op());
                }
                if failed.len() > 2 {
                    return Err(VolumeError::TooManyFailures { failed: failed.len() });
                }
                self.start_rebuild(failed)?;
            }
            self.rebuild_stripes(usize::MAX)?;
        }
    }

    /// Drives the background healer: starts a spare-consuming rebuild if
    /// one is warranted and none is active, then rebuilds up to `budget`
    /// stripes of the active task, one retried step per stripe; a task
    /// that finishes within the budget does not start the next. Call
    /// repeatedly (e.g. between foreground operations) to amortize rebuild
    /// I/O. Returns the step's receipt — empty when there is nothing to do.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on backend errors or unsurvivable failures.
    pub fn maintain(&mut self, budget: usize) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        if self.rebuild_task.is_none() && !self.failed.is_empty() && self.spares > 0 {
            self.start_spare_rebuild()?;
        }
        self.rebuild_stripes(budget)?;
        Ok(self.pipeline.end_op())
    }

    /// Starts a background rebuild for as many failed disks as the spare
    /// pool covers, consuming the spares. No-op if the pool is empty or
    /// nothing is failed.
    fn start_spare_rebuild(&mut self) -> Result<(), VolumeError> {
        let failed: Vec<usize> = self.failed.iter().copied().collect();
        let take = self.spares.min(failed.len());
        if take == 0 || self.rebuild_task.is_some() {
            return Ok(());
        }
        let chosen = failed[..take].to_vec();
        self.spares -= take;
        if let Err(e) = self.start_rebuild(chosen) {
            self.spares += take;
            return Err(e);
        }
        Ok(())
    }

    /// Registers a rebuild task for `disks`: the checkpoint is persisted
    /// *before* the spares are swapped in, so a crash between the two
    /// steps is detected on reopen (the checkpointed disk is still
    /// backend-failed) and the swap replayed. Either way the checkpoint
    /// says stripe 0, so nothing on a spare is trusted before the rebuild
    /// has rewritten it.
    fn start_rebuild(&mut self, disks: Vec<usize>) -> Result<(), VolumeError> {
        let cp = RebuildCheckpoint { disks, next_stripe: 0 };
        self.pipeline.backend_mut().save_checkpoint(Some(&cp))?;
        self.swap_in_spares(&cp.disks)?;
        for &d in &cp.disks {
            self.health.note_replaced(d);
        }
        self.rebuild_task = Some(cp);
        Ok(())
    }

    /// Rebuilds up to `budget` stripes of the active task, if any, one
    /// [`Self::rebuild_next_stripe`] step each.
    fn rebuild_stripes(&mut self, budget: usize) -> Result<(), VolumeError> {
        for _ in 0..budget {
            if self.rebuild_task.is_none() {
                break;
            }
            self.with_recovery(Self::rebuild_next_stripe)?;
        }
        Ok(())
    }

    /// Rebuilds the active task's next stripe, persists the advanced
    /// checkpoint, and finishes the task (failed set, checkpoint, health)
    /// when that was its last stripe. The task is read afresh on every
    /// attempt: recovering from a failed one can reset it — a spare that
    /// died restarts at stripe 0 — and advancing from a stale frontier
    /// would mark stripes rebuilt that never were.
    fn rebuild_next_stripe(&mut self) -> Result<(), VolumeError> {
        let Some(task) = &self.rebuild_task else { return Ok(()) };
        let idx = task.next_stripe;
        if idx < self.stripes {
            let disks = task.disks.clone();
            self.rebuild_one_stripe(idx, &disks)?;
            let task = self.rebuild_task.insert(RebuildCheckpoint { disks, next_stripe: idx + 1 });
            self.pipeline.backend_mut().save_checkpoint(Some(task))?;
        }
        if idx + 1 >= self.stripes {
            self.finish_rebuild()?;
        }
        Ok(())
    }

    /// The active task's disks hold valid data now: drop them from the
    /// failed set, clear the persisted checkpoint, update health.
    fn finish_rebuild(&mut self) -> Result<(), VolumeError> {
        let Some(task) = self.rebuild_task.take() else { return Ok(()) };
        for d in &task.disks {
            self.failed.remove(d);
        }
        self.pipeline.backend_mut().save_checkpoint(None)?;
        self.note_health();
        Ok(())
    }

    /// Rebuilds one stripe's worth of the task disks: decode over *all*
    /// failed columns (a second dead disk that is not being rebuilt still
    /// shapes the decode), write back only the task disks' columns. A
    /// single failed column uses the paper's hybrid minimum-read recovery
    /// plan; two use the generic decoder — both the layout's cached
    /// program, so a stripe plans nothing. The op stores only cells it
    /// reconstructs, so it runs in place: each lost cell is computed in
    /// the spare that stores it, and the survivors it reads stay where the
    /// backend lends them.
    fn rebuild_one_stripe(&mut self, idx: usize, task_disks: &[usize]) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let write_cols: BTreeSet<usize> =
            task_disks.iter().map(|&d| self.addressing.logical_col(idx, d)).collect();
        let write_back: Vec<Cell> =
            write_cols.iter().flat_map(|&col| layout.cells_in_col(col)).collect();
        let failed_cols = self.failed_cols(idx);
        let addr = self.addr_fn(idx);
        let op = if let [col] = failed_cols[..] {
            lower::recover_column_op(layout, col, &write_back, &addr)
        } else {
            lower::decode_op(layout, &failed_cols, &[], &write_back, &addr)
                .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?
        };
        self.pipeline.execute_in_place(&op)?;
        Ok(())
    }

    /// Swaps spares in for the given disks (backend `replace`) so the
    /// rebuild can stream writes to them. What a spare holds is
    /// unspecified: every stripe at or past the rebuild frontier treats
    /// its disk as failed, so nothing reads it before the rebuild has
    /// written it.
    fn swap_in_spares(&mut self, disks: &[usize]) -> Result<(), VolumeError> {
        for &d in disks {
            self.pipeline.backend_mut().replace(d)?;
        }
        Ok(())
    }

    /// Verifies every stripe's parity consistency through unaccounted
    /// maintenance reads. A degraded array never verifies.
    pub fn verify_all(&mut self) -> bool {
        if !self.failed.is_empty() {
            return false;
        }
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        for idx in 0..self.stripes {
            match self.load_stripe_unaccounted(idx) {
                Ok(s) => {
                    if s.verify(layout).is_some() {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads one whole stripe directly from the backend without touching
    /// the ledger or the op's disk time (maintenance traffic).
    fn load_stripe_unaccounted(&mut self, idx: usize) -> Result<Stripe, DiskError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let mut s = Stripe::for_layout(layout, self.element_size);
        for row in 0..layout.rows() {
            for col in 0..layout.cols() {
                let cell = Cell::new(row, col);
                let a = self.addr_of(idx, cell);
                self.pipeline.backend_mut().read(a.disk, a.index, s.element_mut(cell))?;
            }
        }
        Ok(s)
    }

    /// Scrubs every stripe through the pipeline: all elements are fetched
    /// (accounted reads), silently corrupted elements are localized from
    /// the pattern of violated parity chains (see [`raid_core::scrub`]),
    /// and repairs are written back. Requires a healthy array — scrubbing
    /// a degraded volume cannot distinguish corruption from loss.
    ///
    /// Returns one report per stripe that was *not* clean. Each stripe is
    /// one step of the volume's retry loop: a fault retries that stripe
    /// alone, so what the stripes before it found and repaired stays on
    /// the report.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if any disk is failed.
    pub fn scrub(&mut self) -> Result<Vec<(usize, ScrubReport)>, VolumeError> {
        self.pipeline.begin_op();
        let mut findings = Vec::new();
        for idx in 0..self.stripes {
            let report = self.with_recovery(|v| v.scrub_stripe(idx))?;
            if report != ScrubReport::Clean {
                findings.push((idx, report));
            }
        }
        self.pipeline.end_op();
        Ok(findings)
    }

    /// Scrubs one stripe: fetches every element, localizes a corrupted
    /// one and writes the repair back.
    fn scrub_stripe(&mut self, idx: usize) -> Result<ScrubReport, VolumeError> {
        // Checked per attempt: recovery may have degraded the array, and
        // scrubbing a degraded volume cannot tell corruption from loss.
        if !self.failed.is_empty() {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() });
        }
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let addr = self.addr_fn(idx);
        let mut scratch = Stripe::for_layout(layout, self.element_size);
        self.pipeline.execute(&lower::whole_stripe_read_op(layout, &addr), &mut scratch)?;
        let report = raid_core::scrub::scrub(&mut scratch, layout);
        if let ScrubReport::Repaired { cell } = report {
            self.pipeline.execute(&lower::cell_write_op(layout, cell, &addr), &mut scratch)?;
        }
        Ok(report)
    }

    /// Corrupts one byte of an element — test/chaos-engineering hook used
    /// by the scrub example and the failure-injection tests. Bypasses the
    /// pipeline (corruption is not I/O the controller issued).
    ///
    /// # Errors
    ///
    /// [`VolumeError::NoSuchCell`] if the stripe index or cell is out of
    /// range, [`VolumeError::Backend`] if the target disk cannot serve the
    /// tampering; the element is unchanged in either case.
    pub fn inject_corruption(
        &mut self,
        stripe: usize,
        cell: Cell,
        byte: usize,
    ) -> Result<(), VolumeError> {
        let layout = self.code.layout();
        if stripe >= self.stripes || cell.row >= layout.rows() || cell.col >= layout.cols() {
            return Err(VolumeError::NoSuchCell { stripe, cell });
        }
        // Tampering changes the disks behind the cache's back: a clean
        // cached copy of the cell no longer matches and must be dropped
        // (a dirty copy still supersedes the disks and stays).
        if let Some(cache) = &mut self.cache {
            let ord = self.code.layout().data_cells().iter().position(|&c| c == cell);
            if let (Some(ord), Some(entry)) = (ord, cache.take(stripe)) {
                let mut entry = entry;
                entry.invalidate_clean(ord);
                cache.put_back(stripe, entry);
            }
        }
        let a = self.addr_of(stripe, cell);
        let mut buf = vec![0u8; self.element_size];
        self.pipeline.backend_mut().read(a.disk, a.index, &mut buf)?;
        let at = byte % buf.len();
        buf[at] ^= 0x80;
        self.pipeline.backend_mut().write(a.disk, a.index, &buf)?;
        Ok(())
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
mod tests {
    use super::*;
    use hv_code::HvCode;
    use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};

    fn volume(rotate: bool) -> RaidVolume {
        RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 4, 16, rotate)
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn write_read_round_trip() {
        let mut v = volume(false);
        let buf = pattern(5 * 16, 3);
        let receipt = v.write(7, &buf).unwrap();
        assert_eq!(receipt.data_writes(), 5);
        assert!(receipt.parity_writes() > 0);
        assert!(v.verify_all(), "incremental parity update must match re-encode");
        let (out, _) = v.read(7, 5).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn writes_crossing_stripes_stay_consistent() {
        let mut v = volume(false);
        let per_stripe = v.addressing.data_per_stripe();
        let buf = pattern(6 * 16, 9);
        v.write(per_stripe - 3, &buf).unwrap();
        assert!(v.verify_all());
        let (out, _) = v.read(per_stripe - 3, 6).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn degraded_read_returns_true_bytes() {
        let mut v = volume(false);
        let buf = pattern(10 * 16, 5);
        v.write(0, &buf).unwrap();
        for disk in 0..v.disks() {
            let mut broken = volume(false);
            broken.write(0, &buf).unwrap();
            broken.fail_disk(disk).unwrap();
            let (out, receipt) = broken.read(0, 10).unwrap();
            assert_eq!(out, buf, "disk {disk}");
            assert!(receipt.total_reads() >= 10, "disk {disk}");
        }
    }

    #[test]
    fn double_failure_rebuild_restores_everything() {
        let mut v = volume(false);
        let buf = pattern(v.data_elements() * 16, 7);
        v.write(0, &buf).unwrap();
        v.fail_disk(1).unwrap();
        v.fail_disk(4).unwrap();
        let receipt = v.rebuild().unwrap();
        assert!(receipt.total_writes() > 0);
        assert!(v.verify_all());
        let (out, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn single_failure_rebuild_uses_hybrid_plan() {
        let mut v = volume(false);
        let buf = pattern(v.data_elements() * 16, 11);
        v.write(0, &buf).unwrap();
        v.fail_disk(3).unwrap();
        let receipt = v.rebuild().unwrap();
        assert!(v.verify_all());
        let (out, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(out, buf);
        // Hybrid recovery reads fewer elements than fetching everything.
        let all = (v.disks() - 1) * v.code.layout().rows() * 4;
        assert!((receipt.total_reads() as usize) < all);
    }

    #[test]
    fn rotation_preserves_correctness() {
        let mut v = volume(true);
        let buf = pattern(v.data_elements() * 16, 13);
        v.write(0, &buf).unwrap();
        v.fail_disk(2).unwrap();
        let (out, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(out, buf);
        v.rebuild().unwrap();
        assert!(v.verify_all());
    }

    #[test]
    fn works_across_codes() {
        let codes: Vec<Arc<dyn ArrayCode>> = vec![
            Arc::new(HvCode::new(7).unwrap()),
            Arc::new(RdpCode::new(7).unwrap()),
            Arc::new(XCode::new(7).unwrap()),
            Arc::new(HCode::new(7).unwrap()),
        ];
        for code in codes {
            let name = code.name().to_string();
            let mut v = RaidVolume::in_memory(code, 3, 8);
            let buf = pattern(v.data_elements() * 8, 17);
            v.write(0, &buf).unwrap();
            assert!(v.verify_all(), "{name}");
            v.fail_disk(0).unwrap();
            v.fail_disk(2).unwrap();
            v.rebuild().unwrap();
            let (out, _) = v.read(0, v.data_elements()).unwrap();
            assert_eq!(out, buf, "{name}");
        }
    }

    #[test]
    fn error_paths() {
        let mut v = volume(false);
        assert!(matches!(
            v.read(v.data_elements(), 1),
            Err(VolumeError::OutOfRange { .. })
        ));
        assert!(matches!(
            v.write(0, &[1, 2, 3]),
            Err(VolumeError::BadBufferLength { .. })
        ));
        // `start + len` must not overflow its way past the bound — nor
        // panic when the error is printed.
        let overflows = [v.read(usize::MAX, 2).map(drop), v.write(usize::MAX, &[0; 2 * 16]).map(drop)];
        for result in overflows {
            let err = result.unwrap_err();
            assert!(matches!(err, VolumeError::OutOfRange { start: usize::MAX, len: 2, .. }));
            assert!(err.to_string().contains(&format!("[{0}, {0})", usize::MAX)), "{err}");
        }
        assert!(matches!(v.fail_disk(99), Err(VolumeError::NoSuchDisk { disk: 99 })));
        v.fail_disk(0).unwrap();
        v.fail_disk(1).unwrap();
        assert!(matches!(v.fail_disk(2), Err(VolumeError::TooManyFailures { .. })));
    }

    #[test]
    fn degraded_writes_survive_rebuild() {
        for failures in [vec![3usize], vec![0, 4]] {
            let mut v = volume(false);
            let initial = pattern(v.data_elements() * 16, 21);
            v.write(0, &initial).unwrap();
            for &d in &failures {
                v.fail_disk(d).unwrap();
            }

            // Overwrite a window while degraded.
            let patch = pattern(9 * 16, 99);
            let receipt = v.write(5, &patch).unwrap();
            assert!(receipt.total_reads() > 0 && receipt.total_writes() > 0);

            // Degraded read sees the new bytes immediately.
            let (now, _) = v.read(5, 9).unwrap();
            assert_eq!(now, patch, "degraded read after degraded write");

            // Rebuild materializes the failed disks consistently.
            v.rebuild().unwrap();
            assert!(v.verify_all(), "failures {failures:?}");
            let (bytes, _) = v.read(0, v.data_elements()).unwrap();
            let mut expect = initial.clone();
            expect[5 * 16..14 * 16].copy_from_slice(&patch);
            assert_eq!(bytes, expect, "failures {failures:?}");
        }
    }

    #[test]
    fn double_degraded_small_reads_fetch_a_slice_not_everything() {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 41);
        v.write(0, &data).unwrap();
        v.fail_disk(0).unwrap();
        v.fail_disk(3).unwrap();
        v.reset_ledger();
        // Read one element that lives on a failed disk.
        let lost_ordinal = v
            .code()
            .layout()
            .data_cells()
            .iter()
            .position(|c| c.col == 0)
            .unwrap();
        let (bytes, receipt) = v.read(lost_ordinal, 1).unwrap();
        assert_eq!(bytes, data[lost_ordinal * 16..(lost_ordinal + 1) * 16]);
        // Full scan would read (disks − 2) × rows = 4 × 6 = 24 elements;
        // the targeted slice must be strictly cheaper.
        let full_scan = (v.disks() - 2) * v.code().layout().rows();
        assert!(
            (receipt.total_reads() as usize) < full_scan,
            "targeted read used {} reads, full scan is {full_scan}",
            receipt.total_reads()
        );
    }

    #[test]
    fn scrub_finds_and_fixes_injected_corruption() {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 31);
        v.write(0, &data).unwrap();
        assert!(v.scrub().unwrap().is_empty(), "clean volume must scrub clean");

        v.inject_corruption(1, Cell::new(2, 3), 7).unwrap();
        v.inject_corruption(3, Cell::new(0, 0), 0).unwrap();
        assert!(!v.verify_all());
        let findings = v.scrub().unwrap();
        assert_eq!(findings.len(), 2);
        for (stripe, report) in &findings {
            assert!(
                matches!(report, raid_core::scrub::ScrubReport::Repaired { .. }),
                "stripe {stripe}: {report:?}"
            );
        }
        assert!(v.verify_all());
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
    }

    #[test]
    fn scrub_requires_healthy_array() {
        let mut v = volume(false);
        v.fail_disk(0).unwrap();
        assert!(matches!(v.scrub(), Err(VolumeError::TooManyFailures { .. })));
    }

    #[test]
    fn ledger_accumulates_and_resets() {
        let mut v = volume(false);
        v.write(0, &pattern(3 * 16, 1)).unwrap();
        assert!(v.ledger().total_writes() > 0);
        assert!(v.ledger().total_reads() > 0);
        v.reset_ledger();
        assert_eq!(v.ledger().total(), 0);
    }

    #[test]
    fn flush_while_rebuild_parked_leaves_its_frontier() {
        let mut v = RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 8, 16, false);
        v.enable_cache(CacheConfig { max_stripes: 16, dirty_high_water: 16 });
        let per = v.addressing.data_per_stripe();
        let seed = pattern(v.data_elements() * 16, 41);
        v.write(0, &seed).unwrap();
        v.flush().unwrap();

        // Park a background rebuild after its first stripe.
        v.set_spares(1);
        v.fail_disk(3).unwrap();
        v.maintain(1).unwrap();
        let parked = v.rebuild_progress().expect("rebuild task active");
        assert_eq!(parked.next_stripe, 1);

        // Dirty the frontier stripe and one far past it, then drain both.
        v.write(per, &pattern(16, 50)).unwrap();
        v.write(6 * per, &pattern(16, 51)).unwrap();
        assert_eq!(v.cache_dirty_stripes(), 2);
        let receipt = v.flush().unwrap();
        assert!(receipt.total_writes() > 0, "both stripes must flush");
        assert_eq!(v.cache_dirty_stripes(), 0);
        assert_eq!(
            v.rebuild_progress().expect("task still active").next_stripe,
            parked.next_stripe,
            "a flush must not advance the rebuild frontier"
        );

        // The parked rebuild still completes, and nothing was lost.
        v.maintain(v.stripes).unwrap();
        assert!(v.rebuild_progress().is_none());
        assert!(v.verify_all());
        let mut expect = seed;
        expect[per * 16..(per + 1) * 16].copy_from_slice(&pattern(16, 50));
        expect[6 * per * 16..(6 * per + 1) * 16].copy_from_slice(&pattern(16, 51));
        assert_eq!(v.read(0, v.data_elements()).unwrap().0, expect);
    }

    /// Every code at `p`, as `raid-verify`'s registry lists them.
    fn registry(p: usize) -> Vec<Arc<dyn ArrayCode>> {
        vec![
            Arc::new(HvCode::new(p).unwrap()),
            Arc::new(RdpCode::new(p).unwrap()),
            Arc::new(EvenOddCode::new(p).unwrap()),
            Arc::new(XCode::new(p).unwrap()),
            Arc::new(HCode::new(p).unwrap()),
            Arc::new(HdpCode::new(p).unwrap()),
            Arc::new(PCode::new(p).unwrap()),
            Arc::new(LiberationCode::new(p).unwrap()),
        ]
    }

    /// A swapped-in spare's contents are unspecified until the rebuild
    /// writes them. Each replaced disk is filled with `0xA5` ahead of the
    /// frontier, through the backend, and the rebuild is interleaved with
    /// degraded reads, a degraded write, a cached flush and — where the
    /// backend injects them — a latent-sector repair: every read returns
    /// the shadow's bytes, and the finished volume verifies. Elements are
    /// one XOR tile plus a ragged tail; both backend paths run, memory
    /// lending its storage and the default staging (a fault injector over
    /// memory).
    #[test]
    fn a_spare_is_read_only_behind_the_rebuild_frontier() {
        use crate::backend::{Fault, FaultyBackend};
        let es = raid_math::xor::L1_TILE_BYTES + 37;
        const STRIPES: usize = 4;
        for code in [5, 7].into_iter().flat_map(registry) {
            let (rows, cols) = (code.layout().rows(), code.layout().cols());
            for (rotate, lost, faulty) in (0..8).map(|k| (k & 1 == 1, 1 + (k >> 1 & 1), k >= 4)) {
                let what = format!("{} rotate={rotate} lost={lost} faulty={faulty}", code.name());
                let mem = MemBackend::new(cols, STRIPES * rows, es);
                let backend: Box<dyn DiskBackend> = if faulty {
                    Box::new(FaultyBackend::new(Box::new(mem), Vec::new()))
                } else {
                    Box::new(mem)
                };
                let code = Arc::clone(&code);
                let mut v = RaidVolume::with_backend(code, STRIPES, es, rotate, backend).unwrap();
                let per = v.addressing.data_per_stripe();
                let mut shadow = pattern(v.data_elements() * es, 7);
                v.write(0, &shadow).unwrap();
                let disks = [1, cols - 1];
                for &d in &disks[..lost] {
                    v.fail_disk(d).unwrap();
                }
                v.set_spares(lost);
                v.start_spare_rebuild().unwrap();
                for &d in &disks[..lost] {
                    for index in 0..STRIPES * rows {
                        v.pipeline.backend_mut().write(d, index, &vec![0xA5; es]).unwrap();
                    }
                }
                let check = |v: &mut RaidVolume, shadow: &[u8], step: &str| {
                    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
                    assert!(bytes == shadow, "{what}: {step} read other bytes");
                };

                v.maintain(1).unwrap();
                check(&mut v, &shadow, "degraded read");
                // A degraded write across the stripe past the frontier.
                let (at, len) = (2 * per - 3, 6);
                let fresh = pattern(len * es, 91);
                v.write(at, &fresh).unwrap();
                shadow[at * es..(at + len) * es].copy_from_slice(&fresh);
                check(&mut v, &shadow, "degraded write");
                v.maintain(1).unwrap();
                // A cached flush of a stripe ahead of the frontier.
                v.enable_cache(CacheConfig { max_stripes: 4, dirty_high_water: 4 });
                let at = 3 * per + 1;
                let fresh = pattern(3 * es, 92);
                v.write(at, &fresh).unwrap();
                v.flush().unwrap();
                v.disable_cache().unwrap();
                shadow[at * es..(at + 3) * es].copy_from_slice(&fresh);
                check(&mut v, &shadow, "cached flush");
                if faulty {
                    // A bad sector on a live disk: ahead of the frontier
                    // beside one lost column, behind it beside two (with
                    // both lost as well it is past the code's reach).
                    let failed = v.failed_disks();
                    let stripe = if lost == 1 { 3 } else { 1 };
                    let (disk, index) = (stripe * per..(stripe + 1) * per)
                        .map(|e| v.locate_data_element(e).unwrap())
                        .find(|(disk, _)| !failed.contains(disk))
                        .unwrap();
                    let latent = Fault::LatentSector { disk, index };
                    v.backend_faulty_mut().unwrap().inject(latent);
                    check(&mut v, &shadow, "latent repair");
                    assert_eq!(v.health().latent_repairs_total(), 1, "{what}");
                }
                v.maintain(STRIPES).unwrap();
                assert!(v.rebuild_progress().is_none(), "{what}");
                assert!(v.verify_all(), "{what}: parity broken");
                check(&mut v, &shadow, "rebuilt");
            }
        }
    }

    #[test]
    fn close_returns_the_error_of_the_final_flush() {
        use crate::backend::{Fault, FaultyBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let open = |code: &Arc<dyn ArrayCode>| {
            let (cols, rows) = (code.layout().cols(), code.layout().rows());
            let inner = MemBackend::new(cols, 2 * rows, 16);
            let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
            let mut v = RaidVolume::new(Arc::clone(code), 2, 16, Box::new(faulty)).unwrap();
            v.enable_cache(CacheConfig::default());
            v.write(1, &[7; 16]).unwrap();
            v
        };
        open(&code).close().unwrap();
        // The process dies before the flush's first backend operation.
        let mut v = open(&code);
        let faulty = v.backend_faulty_mut().unwrap();
        let next = faulty.ops() + 1;
        faulty.inject(Fault::CrashAtOp { at_op: next });
        assert_eq!(v.close(), Err(VolumeError::Backend(DiskError::Crashed)));
    }

    #[test]
    fn transient_errors_retry_without_degrading() {
        use crate::backend::{Fault, FaultyBackend, MemBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let data = pattern(5 * 16, 23);
        v.write(0, &data).unwrap();
        v.backend_faulty_mut()
            .unwrap()
            .inject(Fault::Transient { disk: 1, ops: 2 });
        let (bytes, _) = v.read(0, 5).unwrap();
        assert_eq!(bytes, data, "retries must serve the read");
        assert!(v.failed_disks().is_empty(), "transients must not degrade");
        assert_eq!(v.health().retries_total(), 2);
        assert_eq!(v.health_state(), crate::health::HealthState::Healthy);
    }

    #[test]
    fn latent_sector_reconstructed_and_rewritten_in_place() {
        use crate::backend::{Fault, FaultyBackend, MemBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let data = pattern(v.data_elements() * 16, 29);
        v.write(0, &data).unwrap();
        let (disk, index) = v.locate_data_element(3).unwrap();
        v.backend_faulty_mut()
            .unwrap()
            .inject(Fault::LatentSector { disk, index });
        // The read hits the bad sector; the policy reconstructs the
        // element from its chains and rewrites it, healing the sector.
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert!(v.failed_disks().is_empty());
        assert_eq!(v.health().latent_repairs_total(), 1);
        // The rewrite remapped the sector: reading again is clean.
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(v.health().latent_repairs_total(), 1);
        assert!(v.verify_all());
    }

    #[test]
    fn too_many_latent_repairs_fail_the_disk() {
        use crate::backend::{Fault, FaultyBackend, MemBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let data = pattern(v.data_elements() * 16, 31);
        v.write(0, &data).unwrap();
        let budget = crate::health::MAX_LATENT_REPAIRS;
        let (disk, _) = v.locate_data_element(0).unwrap();
        // Keep growing defects on one disk: each full read heals them,
        // until the policy declares the disk dying and fails it.
        for round in 0..=budget {
            for index in 0..v.code().layout().rows() {
                v.backend_faulty_mut()
                    .unwrap()
                    .inject(Fault::LatentSector { disk, index });
            }
            let (bytes, _) = v.read(0, v.data_elements()).unwrap();
            assert_eq!(bytes, data, "round {round}");
            if !v.failed_disks().is_empty() {
                break;
            }
        }
        assert_eq!(v.failed_disks(), vec![disk], "escalation must fail the disk");
        assert_eq!(v.health_state(), crate::health::HealthState::Degraded);
        v.rebuild().unwrap();
        assert!(v.verify_all());
    }

    #[test]
    fn hot_spare_auto_rebuild_in_background_steps() {
        use crate::backend::{Fault, FaultyBackend, MemBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        v.set_spares(1);
        let data = pattern(v.data_elements() * 16, 37);
        v.write(0, &data).unwrap();
        // The disk dies silently; the next op discovers it and — with a
        // spare stocked — kicks off the background rebuild.
        v.backend_faulty_mut().unwrap().inject(Fault::Dead { disk: 2 });
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(v.failed_disks(), vec![2]);
        assert_eq!(v.spares(), 0, "auto-heal consumed the spare");
        let task = v.rebuild_progress().expect("background task started");
        assert_eq!(task.disks, vec![2]);
        // Pump one stripe at a time; progress must advance monotonically.
        let mut last = task.next_stripe;
        while let Some(cp) = v.rebuild_progress() {
            assert!(cp.next_stripe >= last);
            last = cp.next_stripe;
            v.maintain(1).unwrap();
        }
        assert!(v.failed_disks().is_empty(), "rebuild completed");
        assert_eq!(v.health_state(), crate::health::HealthState::Healthy);
        assert!(v.verify_all());
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        // The healing story is on the record.
        assert!(!v.health().transitions().is_empty());
    }

    #[test]
    fn spare_dying_mid_rebuild_restarts_it_from_stripe_zero() {
        use crate::backend::{Fault, FaultyBackend, FileBackend};
        let dir = std::env::temp_dir().join(format!("hvraid-spare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let be = FileBackend::create(&dir, code.layout().cols(), 4 * code.layout().rows(), 16)
            .unwrap();
        let faulty = FaultyBackend::new(Box::new(be), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        v.set_spares(1);
        let data = pattern(v.data_elements() * 16, 59);
        v.write(0, &data).unwrap();
        v.fail_disk(2).unwrap();
        v.maintain(2).unwrap();
        assert_eq!(v.rebuild_progress().map(|cp| cp.next_stripe), Some(2));

        // The spare dies; a read of the already-rebuilt stripes finds it.
        // A fresh spare goes in without drawing on the empty pool,
        // and the task restarts from stripe 0, in memory and on disk.
        v.backend_faulty_mut().unwrap().inject(Fault::Dead { disk: 2 });
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        let restarted = RebuildCheckpoint { disks: vec![2], next_stripe: 0 };
        assert_eq!(v.rebuild_progress(), Some(restarted.clone()));
        assert_eq!(v.pipeline.backend().load_checkpoint(), Some(restarted));
        assert_eq!(v.failed_disks(), vec![2]);
        assert_eq!(v.spares(), 0);

        v.rebuild().unwrap();
        assert!(v.failed_disks().is_empty());
        assert!(v.rebuild_progress().is_none());
        assert_eq!(v.pipeline.backend().load_checkpoint(), None);
        assert!(v.verify_all());
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        drop(v);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spare_exhaustion_is_typed_and_fences_critical_writes() {
        let mut v = volume(false);
        v.set_write_fence(true);
        let data = pattern(v.data_elements() * 16, 53);
        v.write(0, &data).unwrap();

        // One spare, three failures over time: the pool runs dry.
        v.set_spares(1);
        v.fail_disk(0).unwrap();
        // Auto-heal consumed the spare for disk 0's rebuild.
        assert_eq!(v.spares(), 0);
        assert!(v.rebuild_progress().is_some());
        v.fail_disk(1).unwrap();
        assert_eq!(v.health_state(), HealthState::Critical);

        // Disk 1 is uncovered and the pool is empty: typed error, not an
        // implicit no-op.
        assert_eq!(v.request_heal(), Err(VolumeError::SpareExhausted { failed: 1, spares: 0 }));
        // But the fence stays open while disk 0's rebuild is in flight.
        assert!(!v.write_fenced());
        v.write(0, &data[..16]).unwrap();

        // Finish disk 0's rebuild; disk 2 then dies with nothing left in
        // the pool: the volume parks Critical with writes fenced.
        while v.rebuild_progress().is_some() {
            v.maintain(2).unwrap();
        }
        v.fail_disk(2).unwrap();
        assert_eq!(v.health_state(), HealthState::Critical);
        assert_eq!(v.request_heal(), Err(VolumeError::SpareExhausted { failed: 2, spares: 0 }));
        assert!(v.write_fenced());
        assert_eq!(
            v.write(0, &data[..16]),
            Err(VolumeError::SpareExhausted { failed: 2, spares: 0 })
        );
        // maintain() stays a quiet no-op (chaos campaigns rely on it) and
        // degraded reads still serve.
        assert!(v.maintain(4).unwrap().total_reads() == 0);
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);

        // A spare arrives: heal starts, the fence lifts, writes flow.
        v.set_spares(2);
        v.request_heal().unwrap();
        assert!(!v.write_fenced());
        v.write(0, &data[..16]).unwrap();
        while v.rebuild_progress().is_some() {
            v.maintain(2).unwrap();
        }
        assert!(v.failed_disks().is_empty());
        assert!(v.verify_all());
    }

    #[test]
    fn crash_interrupted_rebuild_resumes_from_checkpoint() {
        use crate::backend::{Fault, FaultyBackend, FileBackend};
        let dir = std::env::temp_dir().join(format!("hvraid-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let rows = code.layout().rows();
        let data;
        {
            let be = FileBackend::create(&dir, code.layout().cols(), 4 * rows, 16).unwrap();
            let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
            data = pattern(v.data_elements() * 16, 41);
            v.write(0, &data).unwrap();
            v.fail_disk(3).unwrap();
        }
        // Rebuild under a crash that fires deep enough for at least one
        // stripe's checkpoint to have landed.
        {
            let be = FileBackend::open(&dir).unwrap();
            let faulty = FaultyBackend::new(Box::new(be), Vec::new())
                .with_faults([Fault::CrashAtOp { at_op: 120 }]);
            let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(faulty)).unwrap();
            assert!(matches!(
                v.rebuild(),
                Err(VolumeError::Backend(DiskError::Crashed))
            ));
        }
        // Reopen: the checkpoint resumes the task past stripe 0 — not
        // from scratch — and the rebuild completes.
        let be = FileBackend::open(&dir).unwrap();
        let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
        let cp = v.rebuild_progress().expect("checkpoint resumed a task");
        assert_eq!(cp.disks, vec![3]);
        assert!(cp.next_stripe > 0, "must resume mid-volume, not at stripe 0");
        v.rebuild().unwrap();
        assert!(v.failed_disks().is_empty());
        assert!(v.verify_all());
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert!(v.rebuild_progress().is_none(), "checkpoint cleared on completion");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_writes_coalesce_parity_io() {
        // N separate writes into one stripe: uncached pays N parity
        // updates, the cache pays one coalesced flush.
        let mut plain = volume(false);
        let mut cached = volume(false);
        cached.enable_cache(CacheConfig::default());
        let per = plain.addressing.data_per_stripe();
        let n = per.min(6);
        for k in 0..n {
            let buf = pattern(16, k as u8);
            plain.write(k, &buf).unwrap();
            cached.write(k, &buf).unwrap();
        }
        assert_eq!(cached.ledger().total(), 0, "writes absorbed, no I/O yet");
        assert_eq!(cached.cache_dirty_stripes(), 1);
        cached.flush().unwrap();
        assert_eq!(cached.cache_dirty_stripes(), 0);
        assert_eq!(cached.ledger().cache_flushes(), 1);
        assert!(
            cached.ledger().total() < plain.ledger().total(),
            "coalesced flush ({}) must beat {} per-element RMWs ({})",
            cached.ledger().total(),
            n,
            plain.ledger().total()
        );
        assert!(cached.verify_all(), "flush must leave parity consistent");
        let (a, _) = plain.read(0, n).unwrap();
        let (b, _) = cached.read(0, n).unwrap();
        assert_eq!(a, b);

        // One lowering behind both entry points: a single write costs the
        // same I/O whether it goes straight to disk or through a cold
        // cache and its flush, and leaves the same bytes on every disk.
        let image = |v: &mut RaidVolume| -> Vec<u8> {
            let mut bytes = Vec::new();
            for d in (0..v.disks()).filter(|d| !v.failed.contains(d)) {
                for i in 0..v.pipeline.backend().elements_per_disk() {
                    let mut buf = [0u8; 4];
                    v.pipeline.backend_mut().read(d, i, &mut buf).unwrap();
                    bytes.extend_from_slice(&buf);
                }
            }
            bytes
        };
        // Every contiguous (start, len) at p = 5 and 7; at p = 13 (~10k
        // ranges per code and state, minutes in a debug build) a lattice
        // with strides coprime to every code's row length.
        for (p, start_step, len_step) in [(5usize, 1, 1), (7, 1, 1), (13, 11, 17)] {
            let codes: Vec<Arc<dyn ArrayCode>> = vec![
                Arc::new(HvCode::new(p).unwrap()),
                Arc::new(RdpCode::new(p).unwrap()),
                Arc::new(EvenOddCode::new(p).unwrap()),
                Arc::new(XCode::new(p).unwrap()),
                Arc::new(HCode::new(p).unwrap()),
                Arc::new(HdpCode::new(p).unwrap()),
                Arc::new(PCode::new(p).unwrap()),
                Arc::new(LiberationCode::new(p).unwrap()),
            ];
            for code in codes {
                for failures in [&[][..], &[1], &[0, 2]] {
                    let mut plain = RaidVolume::in_memory(Arc::clone(&code), 1, 4);
                    let mut cached = RaidVolume::in_memory(Arc::clone(&code), 1, 4);
                    for v in [&mut plain, &mut cached] {
                        v.write(0, &pattern(v.data_elements() * 4, 7)).unwrap();
                        failures.iter().for_each(|&d| v.fail_disk(d).unwrap());
                    }
                    let per = plain.data_elements();
                    for start in (0..per).step_by(start_step) {
                        for len in (1..=per - start).step_by(len_step) {
                            let what =
                                format!("{} p={p} {failures:?} [{start}, +{len})", code.name());
                            let buf = pattern(len * 4, (start * 31 + len) as u8);
                            let direct = plain.write(start, &buf).unwrap();
                            cached.enable_cache(CacheConfig::default());
                            assert_eq!(cached.write(start, &buf).unwrap().total(), 0, "{what}");
                            let flushed = cached.disable_cache().unwrap();
                            assert_eq!(direct.reads(), flushed.reads(), "{what}");
                            assert_eq!(direct.data_writes(), flushed.data_writes(), "{what}");
                            assert_eq!(direct.parity_writes(), flushed.parity_writes(), "{what}");
                            assert_eq!(direct.writes(), flushed.writes(), "{what}");
                        }
                    }
                    assert_eq!(image(&mut plain), image(&mut cached), "{} p={p}", code.name());
                }
            }
        }
    }

    #[test]
    fn cached_reads_hit_after_population() {
        let mut v = volume(false);
        let data = pattern(8 * 16, 3);
        v.write(0, &data).unwrap();
        v.enable_cache(CacheConfig::default());
        let (bytes, r1) = v.read(0, 8).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(r1.cache_misses(), 8);
        let before = v.ledger().total_reads();
        let (bytes, r2) = v.read(0, 8).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(r2.cache_hits(), 8);
        assert_eq!(r2.cache_misses(), 0);
        assert_eq!(v.ledger().total_reads(), before, "hits issue no disk reads");
        // Dirty data is served from the cache before any flush.
        let patch = pattern(16, 77);
        v.write(2, &patch).unwrap();
        let (bytes, _) = v.read(2, 1).unwrap();
        assert_eq!(bytes, patch);
    }

    #[test]
    fn high_water_and_budget_policies_flush_and_evict() {
        let mut v = volume(false);
        v.enable_cache(CacheConfig { max_stripes: 2, dirty_high_water: 1 });
        let per = v.addressing.data_per_stripe();
        let mut expect = vec![0u8; v.data_elements() * 16];
        for s in 0..4 {
            let buf = pattern(16, 100 + s as u8);
            v.write(s * per, &buf).unwrap();
            expect[s * per * 16..s * per * 16 + 16].copy_from_slice(&buf);
            assert!(v.cache_dirty_stripes() <= 1, "high-water mark enforced");
            assert!(v.cache_resident_stripes() <= 2, "memory budget enforced");
        }
        v.flush().unwrap();
        assert!(v.ledger().cache_flushes() >= 3);
        assert!(v.ledger().cache_evictions() >= 2);
        assert!(v.verify_all());
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, expect);
    }

    #[test]
    fn degraded_cached_flush_and_read_serve_true_bytes() {
        for failures in [vec![3usize], vec![0, 4]] {
            let mut v = volume(false);
            let initial = pattern(v.data_elements() * 16, 51);
            v.write(0, &initial).unwrap();
            for &d in &failures {
                v.fail_disk(d).unwrap();
            }
            v.enable_cache(CacheConfig::default());
            let patch = pattern(9 * 16, 201);
            v.write(5, &patch).unwrap();
            // Unflushed dirty data is already visible through the cache.
            let (now, _) = v.read(5, 9).unwrap();
            assert_eq!(now, patch, "failures {failures:?}");
            v.flush().unwrap();
            v.rebuild().unwrap();
            assert!(v.verify_all(), "failures {failures:?}");
            let (bytes, _) = v.read(0, v.data_elements()).unwrap();
            let mut expect = initial.clone();
            expect[5 * 16..14 * 16].copy_from_slice(&patch);
            assert_eq!(bytes, expect, "failures {failures:?}");
        }
    }

    #[test]
    fn drop_flushes_dirty_cache_to_file_backend() {
        use crate::backend::FileBackend;
        let dir = std::env::temp_dir().join(format!("hvraid-cachedrop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let rows = code.layout().rows();
        let data = pattern(10 * 16, 91);
        {
            let be = FileBackend::create(&dir, code.layout().cols(), 4 * rows, 16).unwrap();
            let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
            v.enable_cache(CacheConfig::default());
            v.write(3, &data).unwrap();
            assert!(v.cache_dirty_stripes() > 0, "write-back defers the flush");
            // No explicit flush: the drop barrier must write it out.
        }
        let be = FileBackend::open(&dir).unwrap();
        let mut v = RaidVolume::new(code, 4, 16, Box::new(be)).unwrap();
        assert!(v.verify_all());
        let (bytes, _) = v.read(3, 10).unwrap();
        assert_eq!(bytes, data, "dropped volume must have flushed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_off_the_volume_or_on_a_dead_disk_is_an_error() {
        let mut v = volume(false);
        let (rows, cols) = (v.code().layout().rows(), v.disks());
        let stripes = v.stripes;
        let off = [(stripes, Cell::new(0, 0)), (0, Cell::new(rows, 0)), (0, Cell::new(0, cols))];
        for (stripe, cell) in off {
            let got = v.inject_corruption(stripe, cell, 0);
            assert_eq!(got, Err(VolumeError::NoSuchCell { stripe, cell }));
        }
        v.fail_disk(2).unwrap();
        let got = v.inject_corruption(0, Cell::new(0, 2), 0);
        assert!(matches!(got, Err(VolumeError::Backend(_))), "{got:?}");
    }

    #[test]
    fn corruption_invalidates_clean_cached_copies() {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 63);
        v.write(0, &data).unwrap();
        v.enable_cache(CacheConfig::default());
        let (_, _) = v.read(0, v.data_elements()).unwrap(); // populate
        let cell = v.code().layout().data_cells()[0];
        v.inject_corruption(0, cell, 5).unwrap();
        // Scrub heals the disks; the invalidated cache entry must re-read
        // the healed value instead of serving a stale clean copy.
        let findings = v.scrub().unwrap();
        assert_eq!(findings.len(), 1);
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert!(v.verify_all());
    }

    #[test]
    fn faulty_backend_mid_write_failure_replans_degraded() {
        use crate::backend::{FaultPoint, FaultyBackend, MemBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let layout_rows = code.layout().rows();
        let inner = MemBackend::new(code.layout().cols(), 4 * layout_rows, 16);
        // Fail disk 2 deep into the first write's request stream.
        let faulty = FaultyBackend::new(
            Box::new(inner),
            vec![FaultPoint { at_op: 9, disk: 2 }],
        );
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let data = pattern(6 * 16, 19);
        let receipt = v.write(0, &data).unwrap();
        assert!(receipt.total_writes() > 0);
        assert_eq!(v.failed_disks(), vec![2], "fault must be adopted");
        let (bytes, _) = v.read(0, 6).unwrap();
        assert_eq!(bytes, data, "degraded replan must serve the write");
        v.rebuild().unwrap();
        assert!(v.verify_all());
    }

    /// Runs `op` and checks that its receipt is exactly what the
    /// cumulative ledger grew by.
    fn receipted(
        v: &mut RaidVolume,
        what: &str,
        op: impl FnOnce(&mut RaidVolume) -> Result<IoLedger, VolumeError>,
    ) -> IoLedger {
        let before = v.ledger().clone();
        let receipt = op(v).unwrap_or_else(|e| panic!("{what}: {e}"));
        let grew = v.ledger().delta_since(&before);
        let totals = (receipt.total(), grew.total());
        assert_eq!(receipt, grew, "{what}: receipt vs ledger growth, {totals:?} I/Os");
        receipt
    }

    /// A write that retries, a read that repairs and a flush that replans
    /// degraded each return everything they caused: the receipt is the
    /// ledger's growth, field for field, under every fault.
    #[test]
    fn a_receipt_is_what_the_ledger_grew_by_under_faults() {
        use crate::backend::{Fault, FaultPoint, FaultyBackend};
        const STRIPES: usize = 4;
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let (rows, cols) = (code.layout().rows(), code.layout().cols());
        let volume = |schedule: Vec<FaultPoint>| {
            let inner = MemBackend::new(cols, STRIPES * rows, 16);
            let faulty = FaultyBackend::new(Box::new(inner), schedule);
            RaidVolume::new(Arc::clone(&code), STRIPES, 16, Box::new(faulty)).unwrap()
        };
        let ops = |v: &mut RaidVolume| v.backend_faulty_mut().unwrap().ops();
        let per = code.layout().num_data_cells();
        let mut shadow = pattern(STRIPES * per * 16, 41);
        // Three elements at the end of stripe 0 and three at the start of
        // stripe 1.
        let (at, fresh) = (per - 3, pattern(6 * 16, 43));
        let probe = &mut volume(Vec::new());
        probe.write(0, &shadow).unwrap();
        let prefilled = ops(probe);
        probe.write(at, &fresh).unwrap();
        let write_ops = ops(probe) - prefilled;
        shadow[at * 16..(at + 6) * 16].copy_from_slice(&fresh);
        let doomed = probe.locate_data_element(per).unwrap().0;

        // A disk dying at every point of a two-stripe write.
        for k in 1..=write_ops {
            let v = &mut volume(vec![FaultPoint { at_op: prefilled + k, disk: doomed }]);
            v.write(0, &shadow[..]).unwrap();
            let what = format!("write, disk {doomed} dying at its op {k}");
            receipted(v, &what, |v| v.write(at, &fresh));
            assert_eq!(v.read(0, STRIPES * per).unwrap().0, shadow, "op {k}");
        }

        // A latent sector under a read, then a transient on each disk
        // under the two-stripe write.
        let v = &mut volume(Vec::new());
        v.write(0, &shadow).unwrap();
        let (disk, index) = v.locate_data_element(5).unwrap();
        v.backend_faulty_mut().unwrap().inject(Fault::LatentSector { disk, index });
        let read = receipted(v, "read over a latent sector", |v| v.read(4, 4).map(|(_, r)| r));
        assert!(read.total_reads() > 4, "the repair's reads are on the receipt");
        assert_eq!(v.health().latent_repairs_total(), 1);
        for disk in 0..cols {
            v.backend_faulty_mut().unwrap().inject(Fault::Transient { disk, ops: 1 });
            receipted(v, &format!("write, disk {disk} transient"), |v| v.write(at, &fresh));
        }
        assert!(v.health().retries_total() > 0);
        assert_eq!(v.read(0, STRIPES * per).unwrap().0, shadow);

        // A cached write whose high-water flush stores degraded, with a
        // second disk dying at every point of that store; then the flush,
        // the background and the whole rebuild.
        let survivor = (doomed + 1) % cols;
        let cached = |v: &mut RaidVolume| {
            v.write(0, &shadow).unwrap();
            v.fail_disk(survivor).unwrap();
            v.enable_cache(CacheConfig { max_stripes: STRIPES, dirty_high_water: 1 });
            v.write(1, &fresh[..16]).unwrap();
        };
        let probe = &mut volume(Vec::new());
        cached(probe);
        let before_flush = ops(probe);
        probe.write(per + 1, &fresh[16..32]).unwrap();
        let flush_ops = ops(probe) - before_flush;
        assert!(flush_ops > 0, "the second dirty stripe flushes the first");
        let mut expected = shadow.clone();
        expected[16..32].copy_from_slice(&fresh[..16]);
        expected[(per + 1) * 16..(per + 2) * 16].copy_from_slice(&fresh[16..32]);
        for k in 1..=flush_ops {
            let v = &mut volume(vec![FaultPoint { at_op: before_flush + k, disk: doomed }]);
            cached(v);
            let what = format!("cached write, disk {doomed} dying at its flush's op {k}");
            let flushed = receipted(v, &what, |v| v.write(per + 1, &fresh[16..32]));
            assert_eq!(flushed.cache_flushes(), 1, "{what}");
            receipted(v, "disable_cache", RaidVolume::disable_cache);
            v.set_spares(2);
            receipted(v, "maintain", |v| v.maintain(1));
            receipted(v, "maintain with a task active", |v| v.maintain(1));
            receipted(v, "rebuild", RaidVolume::rebuild);
            assert!(v.failed_disks().is_empty() && v.verify_all(), "{what}");
            assert_eq!(v.read(0, STRIPES * per).unwrap().0, expected, "{what}");
        }
    }

    /// A disk dying partway through a two-stripe write retries the stripe
    /// being stored, not the write: the receipt is one store of each
    /// stripe. Stripe 0 committed before the death, so it is stored
    /// healthy; stripe 1 is stored degraded, or healthy where the death
    /// came after its last request to the dying disk and went unseen.
    #[test]
    fn a_retried_write_stores_each_committed_stripe_once() {
        use crate::backend::{FaultPoint, FaultyBackend};
        const STRIPES: usize = 4;
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let (rows, cols) = (code.layout().rows(), code.layout().cols());
        let volume = |schedule: Vec<FaultPoint>| {
            let inner = MemBackend::new(cols, STRIPES * rows, 16);
            let faulty = FaultyBackend::new(Box::new(inner), schedule);
            RaidVolume::new(Arc::clone(&code), STRIPES, 16, Box::new(faulty)).unwrap()
        };
        let ops = |v: &mut RaidVolume| v.backend_faulty_mut().unwrap().ops();
        let per = code.layout().num_data_cells();
        let shadow = pattern(STRIPES * per * 16, 41);
        // Three elements at the end of stripe 0 and three at the start of
        // stripe 1.
        let (at, fresh) = (per - 3, pattern(6 * 16, 43));
        let doomed = volume(Vec::new()).locate_data_element(per).unwrap().0;
        // A fault-free write of `bytes` at `start` after the prefill, with
        // `failed` failed first: its receipt and backend operations.
        let unfaulted = |start: usize, bytes: &[u8], failed: Option<usize>| {
            let v = &mut volume(Vec::new());
            v.write(0, &shadow).unwrap();
            if let Some(d) = failed {
                v.fail_disk(d).unwrap();
            }
            let prefilled = ops(v);
            let receipt = v.write(start, bytes).unwrap();
            (receipt, prefilled, ops(v) - prefilled)
        };
        let (_, prefilled, write_ops) = unfaulted(at, &fresh, None);
        let (stripe0, _, stripe0_ops) = unfaulted(at, &fresh[..3 * 16], None);
        let (healthy1, _, _) = unfaulted(per, &fresh[3 * 16..], None);
        let (degraded1, _, _) = unfaulted(per, &fresh[3 * 16..], Some(doomed));
        let mut expected = shadow.clone();
        expected[at * 16..(at + 6) * 16].copy_from_slice(&fresh);

        let mut retried = 0;
        for k in stripe0_ops + 1..=write_ops {
            let v = &mut volume(vec![FaultPoint { at_op: prefilled + k, disk: doomed }]);
            v.write(0, &shadow).unwrap();
            let what = format!("disk {doomed} dying at the write's op {k}");
            let receipt = receipted(v, &what, |v| v.write(at, &fresh));
            let adopted = v.failed_disks() == [doomed];
            let mut once = stripe0.clone();
            once.merge(if adopted { &degraded1 } else { &healthy1 });
            let totals = (receipt.total(), once.total());
            assert_eq!(receipt, once, "{what}: {totals:?} I/Os, receipt vs one store each");
            assert_eq!(v.read(0, STRIPES * per).unwrap().0, expected, "{what}");
            retried += usize::from(adopted);
        }
        assert!(retried > 0, "some death must make stripe 1 retry");
    }

    /// A scrub that meets a fault retries the stripe it was on, not the
    /// volume: the repair it made before the fault stays on its report.
    #[test]
    fn a_retried_scrub_keeps_the_repairs_of_the_stripes_before_it() {
        use crate::backend::{Fault, FaultyBackend};
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let (rows, cols) = (code.layout().rows(), code.layout().cols());
        let inner = MemBackend::new(cols, 4 * rows, 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let data = pattern(v.data_elements() * 16, 67);
        v.write(0, &data).unwrap();
        v.inject_corruption(0, Cell::new(0, 0), 3).unwrap();
        let per = v.addressing.data_per_stripe();
        let (disk, index) = v.locate_data_element(2 * per + 1).unwrap();
        v.backend_faulty_mut().unwrap().inject(Fault::LatentSector { disk, index });
        let findings = v.scrub().unwrap();
        assert_eq!(findings, vec![(0, ScrubReport::Repaired { cell: Cell::new(0, 0) })]);
        assert_eq!(v.health().latent_repairs_total(), 1, "stripe 2's bad sector");
        assert!(v.verify_all());
        assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
    }

    /// A rebuild that runs two tasks — the spare's disk, then the one it
    /// did not cover — is one operation: its disk time is both tasks'.
    #[test]
    fn a_rebuild_s_disk_time_covers_every_task_it_runs() {
        let two_failed = || {
            let mut v = volume(false);
            let data = pattern(v.data_elements() * 16, 47);
            v.write(0, &data).unwrap();
            v.set_spares(1);
            v.fail_disk(1).unwrap();
            v.fail_disk(4).unwrap();
            assert_eq!(v.rebuild_progress().unwrap().disks, vec![1], "the spare covers one");
            (v, data)
        };
        let (mut twin, _) = two_failed();
        twin.maintain(usize::MAX).unwrap();
        let first = twin.last_op_busiest_elements();
        assert_eq!(twin.failed_disks(), vec![4]);
        twin.rebuild().unwrap();
        let second = twin.last_op_busiest_elements();
        assert!(first > 0 && second > 0);

        let (mut v, data) = two_failed();
        receipted(&mut v, "rebuild", RaidVolume::rebuild);
        assert_eq!(v.last_op_busiest_elements(), first + second);
        assert!(v.failed_disks().is_empty() && v.verify_all());
        assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
    }
}
