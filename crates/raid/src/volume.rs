//! The RAID-6 volume: striped storage with partial writes, degraded reads
//! and reconstruction over any array code, executed through the unified
//! I/O pipeline.
//!
//! Every operation is **lowered** per touched stripe by [`crate::lower`]
//! into a [`crate::pipeline::LoweredOp`] — element reads, a compiled
//! [`raid_core::XorPlan`], element writes — and executed by the
//! [`IoPipeline`] against a pluggable
//! [`DiskBackend`]. The pipeline hands the identical per-disk
//! [`raid_core::io::RequestSet`] to the timing simulator (when attached)
//! and to the cumulative [`IoLedger`], so data movement, simulated time,
//! and the paper's request accounting always agree.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use disk_sim::{DiskArray, DiskError};
use raid_core::bitset::BitSet;
use raid_core::io::{IoLedger, LedgerShard, RequestSet};
use raid_core::{ArrayCode, Cell, Stripe};

use crate::addr::Addressing;
use crate::backend::{DiskBackend, FaultyBackend, MemBackend, RebuildCheckpoint};
use crate::cache::{CacheConfig, StripeCache, StripeEntry};
use crate::health::{HealthMonitor, HealthState, RecoveryAction};
use crate::lower;
use crate::partition::PartitionMap;
use crate::pipeline::{DiskAddr, IoPipeline};

/// Hard cap on recovery attempts per operation — a backstop against a
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
    /// The backend (or the attached simulator) rejected a request.
    Backend(DiskError),
    /// The backend's (or simulator's) shape does not fit the volume.
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
    /// Start a background rebuild automatically when a disk dies and a
    /// spare is available.
    auto_heal: bool,
    /// The in-flight (checkpointed) background rebuild, if any.
    rebuild_task: Option<RebuildTask>,
    /// When armed, refuse new writes while the array is parked at the
    /// correction limit with no rebuild underway and no spares left.
    write_fence: bool,
    /// The write-back stripe cache, when enabled.
    cache: Option<StripeCache>,
    /// Explicit stripe-partition count for batched execution; `None`
    /// derives one from the host's available parallelism.
    partitions: Option<usize>,
}

/// In-memory mirror of the persisted [`RebuildCheckpoint`].
#[derive(Debug, Clone)]
struct RebuildTask {
    /// Disks being rebuilt onto spares (they stay in `failed` — their
    /// content is invalid — even though the backend already serves the
    /// blank replacements).
    disks: Vec<usize>,
    /// First stripe not yet rebuilt.
    next_stripe: usize,
}

/// The scratch one [`RaidVolume::rebuild_step`] runs its stripes on: the
/// footprint of the rebuild op for these failed and written logical
/// columns — what the footprint is a function of — so consecutive stripes
/// that lose the same columns share one allocation.
struct RebuildScratch {
    failed_cols: Vec<usize>,
    write_cols: BTreeSet<usize>,
    cells: Stripe,
}

/// What a stripe store writes — the new bytes of its dirty ordinals —
/// and, from a cache entry, the clean old values it may use in place of
/// disk reads. [`RaidVolume::store_stripe`] moves each into its scratch
/// cell ([`Dirty::lend`]): the entry's own slot, or a copy of the
/// caller's bytes made only once the op is lowered and the scratch cut —
/// made before the lowering's small allocations, the copies fragmented
/// the heap (+7 MiB peak RSS rewriting 64 KiB-element stripes).
enum Dirty<'a> {
    /// An uncached write: the stripe's elements from ordinal `start` on.
    Caller { start: usize, bytes: &'a [u8], element_size: usize },
    /// A flush: the cache entry's dirty slots, its clean ones offered.
    Cache(&'a mut StripeEntry),
}

impl Dirty<'_> {
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
    fn element(&self, ord: usize) -> &[u8] {
        match self {
            Dirty::Caller { start, bytes, element_size } => {
                &bytes[(ord - start) * element_size..][..*element_size]
            }
            Dirty::Cache(entry) => entry.element(ord),
        }
    }

    /// The bytes of `ord` as a buffer of their own, for a scratch cell.
    fn lend(&mut self, ord: usize) -> Vec<u8> {
        match self {
            Dirty::Caller { .. } => self.element(ord).to_vec(),
            Dirty::Cache(entry) => entry.lend(ord),
        }
    }

    /// Takes back what [`Dirty::lend`] gave: a slot returns to its entry.
    fn give_back(&mut self, ord: usize, buf: Vec<u8>) {
        if let Dirty::Cache(entry) = self {
            entry.give_back(ord, buf);
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
        if backend.elements_per_disk() != stripes * layout.rows() {
            return Err(VolumeError::BackendMismatch {
                what: "elements per disk",
                expected: stripes * layout.rows(),
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
            auto_heal: true,
            rebuild_task: None,
            write_fence: false,
            cache: None,
            partitions: None,
        };
        volume.resume_rebuild_checkpoint()?;
        volume.note_health();
        Ok(volume)
    }

    /// Adopts a persisted rebuild checkpoint: the previous process died
    /// mid-rebuild, and the checkpointed disks hold invalid data up from
    /// `next_stripe`. Resuming means continuing from there — *not*
    /// re-zeroing the spares (that would destroy the stripes already
    /// rebuilt) and *not* restarting at stripe 0. The one exception: a
    /// disk the checkpoint names that the backend still reports failed
    /// (crash fell between checkpoint-write and spare-swap, which implies
    /// `next_stripe == 0`) gets its blank spare now.
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
        self.rebuild_task =
            Some(RebuildTask { disks: cp.disks, next_stripe: cp.next_stripe });
        Ok(())
    }

    /// Opens an existing backend as a volume, deriving the stripe count
    /// from the backend's geometry — the `hvraid fsck` entry point.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::BackendMismatch`] if the backend's element
    /// count is not a whole number of stripes for this code.
    pub fn open(
        code: Arc<dyn ArrayCode>,
        backend: Box<dyn DiskBackend>,
        rotate: bool,
    ) -> Result<Self, VolumeError> {
        let rows = code.layout().rows();
        let epd = backend.elements_per_disk();
        if epd == 0 || !epd.is_multiple_of(rows) {
            return Err(VolumeError::BackendMismatch {
                what: "elements per disk",
                expected: rows,
                got: epd,
            });
        }
        let stripes = epd / rows;
        let element_size = backend.element_size();
        Self::with_backend(code, stripes, element_size, rotate, backend)
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

    /// The linear-address-to-stripe map (the service scheduler buckets
    /// incoming ops with it before dispatching per partition).
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

    /// Attaches a timing simulator: every subsequent request set the
    /// pipeline commits is also run through `sim`, and
    /// [`RaidVolume::last_op_latency_ms`] reports per-operation makespans.
    /// The simulator's failure state is synced to the volume's.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::BackendMismatch`] if the simulator's disk
    /// count differs.
    pub fn attach_sim(&mut self, mut sim: DiskArray) -> Result<(), VolumeError> {
        if sim.disks() != self.disks() {
            return Err(VolumeError::BackendMismatch {
                what: "simulator disk count",
                expected: self.disks(),
                got: sim.disks(),
            });
        }
        for &d in &self.failed {
            let _ = sim.fail_disk(d);
        }
        self.pipeline.attach_sim(sim);
        Ok(())
    }

    /// Detaches and returns the timing simulator, if one was attached.
    pub fn detach_sim(&mut self) -> Option<DiskArray> {
        self.pipeline.detach_sim()
    }

    /// The attached timing simulator, if any.
    pub fn sim(&self) -> Option<&DiskArray> {
        self.pipeline.sim()
    }

    /// Simulated latency of the most recent operation (sum of its request
    /// batches' makespans; 0 without an attached simulator).
    pub fn last_op_latency_ms(&self) -> f64 {
        self.pipeline.op_latency_ms()
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
        if let Some(sim) = self.pipeline.sim_mut() {
            let _ = sim.fail_disk(disk);
        }
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

    /// Enables/disables automatic background-rebuild kickoff on disk
    /// death (on by default; inert while the spare pool is empty).
    pub fn set_auto_heal(&mut self, on: bool) {
        self.auto_heal = on;
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
    /// [`VolumeError::SpareExhausted`] so a fleet controller can queue
    /// the volume for a spare instead of inferring exhaustion from
    /// "maintain did nothing".
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

    /// Pins the stripe-partition count used by batched execution
    /// ([`RaidVolume::encode_all`], [`RaidVolume::rebuild_all`],
    /// partition-grouped [`RaidVolume::flush`]). `None` (the default)
    /// derives one from the host's available parallelism.
    pub fn set_partitions(&mut self, partitions: Option<usize>) {
        self.partitions = partitions.map(|p| p.max(1));
    }

    /// The volume's current stripe-partition map: contiguous stripe
    /// ranges, each owned by one worker/ledger shard.
    pub fn partition_map(&self) -> PartitionMap {
        match self.partitions {
            Some(p) => PartitionMap::build(self.stripes, p),
            None => PartitionMap::auto(self.stripes),
        }
    }

    /// The partition map batched ops actually execute under: the pinned
    /// count when set, otherwise one partition per requested thread.
    fn map_for(&self, threads: usize) -> PartitionMap {
        match self.partitions {
            Some(p) => PartitionMap::build(self.stripes, p),
            None => PartitionMap::build(self.stripes, threads.max(1)),
        }
    }

    /// The in-flight background rebuild, as its persisted checkpoint
    /// form, if one is active.
    pub fn rebuild_progress(&self) -> Option<RebuildCheckpoint> {
        self.rebuild_task
            .as_ref()
            .map(|t| RebuildCheckpoint { disks: t.disks.clone(), next_stripe: t.next_stripe })
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

    /// Flushes and removes the stripe cache, returning the flush I/O.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the final flush cannot be served; the
    /// cache stays enabled with its dirty data intact.
    pub fn disable_cache(&mut self) -> Result<IoLedger, VolumeError> {
        let receipt = self.flush()?;
        self.cache = None;
        Ok(receipt)
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

    /// Re-derives the health state from the failed-disk count, recording
    /// the transition in the monitor and the cumulative ledger.
    fn note_health(&mut self) {
        if let Some((from, to)) = self.health.observe_failed_count(self.failed.len()) {
            self.pipeline.ledger_mut().note_transition(format!("{from}->{to}"));
        }
    }

    /// Post-failure bookkeeping: health transition, then — when auto-heal
    /// is on and spares are stocked — kick off the background rebuild.
    fn after_failure(&mut self) {
        self.note_health();
        if self.auto_heal && self.rebuild_task.is_none() && self.spares > 0 {
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
            RecoveryAction::Retry { .. } => {
                self.pipeline.ledger_mut().note_retry();
                Ok(())
            }
            RecoveryAction::RepairLatent { disk, index } => self.repair_latent(disk, index),
            RecoveryAction::FailDisk { disk } => self.adopt_failure(disk, e),
            RecoveryAction::Fatal => Err(VolumeError::Backend(e)),
            // Rebuild pacing is not an error response; the monitor never
            // emits it here. Treat a stray one as "nothing to recover".
            RecoveryAction::Throttle { .. } => Ok(()),
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
            // restart its rebuild from stripe 0 (the replacement is
            // blank).
            let rebuilding =
                self.rebuild_task.as_ref().is_some_and(|t| t.disks.contains(&disk));
            if rebuilding && self.pipeline.backend().is_failed(disk) {
                self.pipeline.backend_mut().replace(disk)?;
                if let Some(sim) = self.pipeline.sim_mut() {
                    let _ = sim.restore_disk(disk);
                }
                let task = self.rebuild_task.as_mut().expect("rebuilding implies a task");
                task.next_stripe = 0;
                let cp =
                    RebuildCheckpoint { disks: task.disks.clone(), next_stripe: 0 };
                self.pipeline.backend_mut().save_checkpoint(Some(&cp))?;
                return Ok(());
            }
            return Err(VolumeError::Backend(source));
        }
        if self.failed.len() >= 2 {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() + 1 });
        }
        self.failed.insert(disk);
        let _ = self.pipeline.backend_mut().fail(disk);
        if let Some(sim) = self.pipeline.sim_mut() {
            let _ = sim.fail_disk(disk);
        }
        self.after_failure();
        Ok(())
    }

    /// Reconstructs the one element a latent-sector error named from its
    /// parity chains and rewrites it in place — the write remaps the bad
    /// sector. Runs through the pipeline, so the repair I/O is accounted.
    /// Additional bad sectors discovered while reading the reconstruction
    /// sources are folded into the same decode.
    fn repair_latent(&mut self, disk: usize, index: usize) -> Result<(), VolumeError> {
        self.pipeline.ledger_mut().note_latent_repair();
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
                        _ => {
                            self.pipeline.ledger_mut().note_latent_repair();
                            sectors.push((d, i));
                        }
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
        let mut scratch = Stripe::for_layout(layout, self.element_size);
        self.pipeline.execute(&op, &mut scratch)?;
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
    /// Each touched stripe goes through [`Self::store_stripe`], straight
    /// from `data` (or, with the cache on, is absorbed and stored at flush
    /// time by the same lowering). A disk failing mid-write is rolled back
    /// by the pipeline and the operation replans degraded automatically.
    ///
    /// Returns the operation's I/O ledger (the old "receipt").
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
        if let Some(receipt) = self.with_cache(|v, cache| v.write_cached(cache, start, len, data)) {
            return receipt;
        }
        self.with_recovery(|v| v.try_write(start, len, data))
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

    /// Runs `attempt` under the health policy: a backend error goes
    /// through [`Self::recover`] (retry, latent repair, adopt the dead
    /// disk) and the attempt is replanned against the new state, up to
    /// [`MAX_OP_ATTEMPTS`] times.
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

    /// One uncached write attempt: each touched stripe stores its segment
    /// from the caller's buffer.
    fn try_write(
        &mut self,
        start: usize,
        len: usize,
        data: &[u8],
    ) -> Result<IoLedger, VolumeError> {
        let es = self.element_size;
        let mut receipt = IoLedger::new(self.disks());
        let mut rest = data;
        for seg in self.addressing.split(start, len) {
            let (bytes, tail) = rest.split_at(seg.len * es);
            rest = tail;
            let dirty = Dirty::Caller { start: seg.start, bytes, element_size: es };
            self.store_stripe(seg.stripe, dirty, &mut receipt)?;
        }
        Ok(receipt)
    }

    /// Stores the `dirty` elements of one stripe — the one store path
    /// behind both [`RaidVolume::write`] and the cache flush. On a healthy
    /// array it is a single journal-atomic op: the cheaper of
    /// read-modify-write and reconstruct-write, or a read-free full-stripe
    /// write, over a double-height scratch (old values below, new above);
    /// old values `dirty` holds clean are its fills (cache hits) instead
    /// of reads.
    ///
    /// The scratch is the op's footprint — 6 cells for a single-element
    /// update, the upper half for a full-stripe write — and of it only the
    /// cells the op reads or computes are allocated. The dirty cells and
    /// the fills are moved in whole ([`Dirty::lend`]) and the lent slots
    /// of a cache entry given back on every path, `Err` included, so a
    /// retry re-plans over an intact entry. The op only reads them: the
    /// lowering never lands a read in, or targets a plan step at, a dirty
    /// or fill cell.
    ///
    /// Otherwise: decode the stripe from its survivors onto a dense
    /// scratch, patch, re-encode, rewrite the surviving columns in one op.
    fn store_stripe(
        &mut self,
        stripe: usize,
        mut dirty: Dirty<'_>,
        receipt: &mut IoLedger,
    ) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let addr = self.addr_fn(stripe);
        let ordinals = dirty.ordinals();

        if self.failed.is_empty() {
            let lower::StripeWrite { op, fills } =
                lower::stripe_write_op(layout, &ordinals, |ord| dirty.is_clean(ord), &addr);
            let written =
                ordinals.iter().zip(&op.data_writes).map(|(&ord, &(cell, _))| (ord, cell));
            let lent: Vec<(usize, Cell)> = written.chain(fills.iter().copied()).collect();
            let (rows, cols) = (2 * layout.rows(), layout.cols());
            let is_lent: BitSet = lent.iter().map(|&(_, cell)| cell.index(cols)).collect();
            let computed = op.footprint().filter(|cell| !is_lent.contains(cell.index(cols)));
            let mut scratch = Stripe::sparse(rows, cols, self.element_size, computed);
            for &(ord, cell) in &lent {
                scratch.put_element(cell, dirty.lend(ord));
            }
            let stored = self.pipeline.execute(&op, &mut scratch);
            for &(ord, cell) in &lent {
                dirty.give_back(ord, scratch.take_element(cell));
            }
            receipt.absorb(&stored?);
            self.pipeline.ledger_mut().note_cache_hits(fills.len() as u64);
            receipt.note_cache_hits(fills.len() as u64);
            return Ok(());
        }

        // Any failed disk sends every stripe down this path, also the
        // ones a rebuild in progress has already passed (their
        // `failed_cols` is empty: read all, decode nothing, re-encode).
        let failed_cols = self.failed_cols(stripe);
        let fetch = lower::decode_op(layout, &failed_cols, &[], &[], &addr)
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        let mut scratch = Stripe::for_layout(layout, self.element_size);
        receipt.absorb(&self.pipeline.execute(&fetch, &mut scratch)?);
        let cells: Vec<Cell> = ordinals.iter().map(|&ord| layout.data_cells()[ord]).collect();
        for (&cell, &ord) in cells.iter().zip(&ordinals) {
            scratch.set_element(cell, dirty.element(ord));
        }
        let store = lower::encode_store_op(layout, &failed_cols, &cells, &addr);
        receipt.absorb(&self.pipeline.execute(&store, &mut scratch)?);
        Ok(())
    }

    /// Absorbs a write into the stripe cache (no disk I/O), then enforces
    /// the flush policy: flush LRU dirty stripes down to the high-water
    /// mark, then evict down to the memory budget. The returned ledger
    /// holds only the I/O the policy actually issued.
    fn write_cached(
        &mut self,
        cache: &mut StripeCache,
        start: usize,
        len: usize,
        data: &[u8],
    ) -> Result<IoLedger, VolumeError> {
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

        let mut receipt = IoLedger::new(self.disks());
        let high_water = cache.config().dirty_high_water;
        while cache.dirty_count() > high_water {
            let Some(stripe) = cache.oldest_dirty() else { break };
            receipt.merge(&self.flush_stripe(cache, stripe)?);
        }
        receipt.merge(&self.enforce_cache_budget(cache)?);
        self.health.note_op_ok();
        Ok(receipt)
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// memory budget, preferring clean entries (free) and flushing dirty
    /// ones first when nothing clean is left.
    fn enforce_cache_budget(&mut self, cache: &mut StripeCache) -> Result<IoLedger, VolumeError> {
        let mut receipt = IoLedger::new(self.disks());
        let max_stripes = cache.config().max_stripes;
        while cache.len() > max_stripes {
            let Some(victim) = cache.oldest_clean().or_else(|| cache.oldest()) else { break };
            if cache.get(victim).is_some_and(StripeEntry::is_dirty) {
                receipt.merge(&self.flush_stripe(cache, victim)?);
            }
            cache.remove(victim);
            self.pipeline.ledger_mut().note_cache_eviction();
            receipt.note_cache_eviction();
        }
        Ok(receipt)
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
        let disks = self.disks();
        self.with_cache(|v, cache| {
            v.pipeline.begin_op();
            let map = v.partition_map();
            let mut shards = Vec::with_capacity(map.len());
            for part in 0..map.len() {
                shards.push(v.flush_partition_shard(cache, &map, part)?);
            }
            Ok(IoLedger::merge_shards(disks, shards))
        })
        .unwrap_or_else(|| Ok(IoLedger::new(disks)))
    }

    /// Flushes only the dirty stripes owned by one partition of the
    /// current [`RaidVolume::partition_map`] — the targeted write barrier
    /// a caller uses to drain range B while a rebuild is parked in range
    /// A. A no-op for partitions with no dirty stripes.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if a flush cannot be served; the affected
    /// stripe's dirty data stays in the cache for a later retry.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range for the current map.
    pub fn flush_partition(&mut self, partition: usize) -> Result<IoLedger, VolumeError> {
        let disks = self.disks();
        self.with_cache(|v, cache| {
            let map = v.partition_map();
            assert!(partition < map.len(), "partition {partition} outside partition map");
            v.pipeline.begin_op();
            Ok(v.flush_partition_shard(cache, &map, partition)?.into_ledger())
        })
        .unwrap_or_else(|| Ok(IoLedger::new(disks)))
    }

    /// Flushes the dirty stripes one partition owns, accounting the I/O
    /// into that partition's ledger shard. Each stripe still commits as
    /// its own journal-atomic coalesced op, so splitting a flush at
    /// partition boundaries never splits a stripe's crash-atomic unit.
    fn flush_partition_shard(
        &mut self,
        cache: &mut StripeCache,
        map: &PartitionMap,
        partition: usize,
    ) -> Result<LedgerShard, VolumeError> {
        let mut shard = LedgerShard::new(partition, self.disks());
        for stripe in cache.dirty_stripes() {
            if map.owner_of(stripe) != partition {
                continue;
            }
            shard.merge(&self.flush_stripe(cache, stripe)?);
        }
        Ok(shard)
    }

    /// Flushes one stripe's dirty elements through [`Self::store_stripe`]
    /// — every dirty element of the stripe in one coalesced store, so
    /// co-located elements share parity I/O, running on the entry's own
    /// slots — with the volume's standard retry/recovery policy. On
    /// success the entry is marked clean and stays resident; on error the
    /// dirty data is preserved in the cache.
    fn flush_stripe(
        &mut self,
        cache: &mut StripeCache,
        stripe: usize,
    ) -> Result<IoLedger, VolumeError> {
        let mut result = Ok(IoLedger::new(self.disks()));
        let Some(mut entry) = cache.take(stripe) else { return result };
        if entry.is_dirty() {
            result = self.with_recovery(|v| {
                let mut receipt = IoLedger::new(v.disks());
                v.store_stripe(stripe, Dirty::Cache(&mut entry), &mut receipt)?;
                Ok(receipt)
            });
            if let Ok(receipt) = &mut result {
                entry.mark_clean();
                self.pipeline.ledger_mut().note_cache_flush();
                receipt.note_cache_flush();
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
    /// Returns the bytes and the operation's I/O ledger;
    /// `ledger.total_reads()` is the paper's `L'`.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on bad ranges or unsurvivable failures.
    pub fn read(&mut self, start: usize, len: usize) -> Result<(Vec<u8>, IoLedger), VolumeError> {
        self.check_range(start, len)?;
        self.pipeline.begin_op();
        let es = self.element_size;
        // Sized once; hits, plain fetches and reconstructed runs each fill
        // their own window of it, so a retried run overwrites, never appends.
        let mut out = vec![0u8; len * es];
        let mut rest = &mut out[..];
        let mut receipt = IoLedger::new(self.disks());
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
                let rs = self.with_recovery(|v| v.read_run(seg.stripe, run_start..ord, window))?;
                receipt.absorb(&rs);
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
            self.pipeline.ledger_mut().note_cache_hits(hits);
            self.pipeline.ledger_mut().note_cache_misses(misses);
            receipt.note_cache_hits(hits);
            receipt.note_cache_misses(misses);
            if let Some(evicted) = self.with_cache(Self::enforce_cache_budget) {
                receipt.merge(&evicted?);
            }
        }
        Ok((out, receipt))
    }

    /// The cache entry holding data ordinal `ord` of `stripe`, if resident.
    fn resident(&self, stripe: usize, ord: usize) -> Option<&StripeEntry> {
        self.cache.as_ref()?.get(stripe).filter(|e| e.is_present(ord))
    }

    /// One attempt at fetching data ordinals `run` of `stripe` from the
    /// disks as one (possibly degraded) read op into `out`, the run's
    /// window of the caller's buffer. A run that misses every failed
    /// column is a plain fetch and lands there directly; one that needs
    /// reconstruction runs on a scratch holding the op's footprint — the
    /// cells it fetches and rebuilds, not the stripe — and is copied out
    /// on success. A failed attempt may leave some of the window written;
    /// the retry fills the same window again.
    fn read_run(
        &mut self,
        stripe: usize,
        run: Range<usize>,
        out: &mut [u8],
    ) -> Result<RequestSet, VolumeError> {
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let requested = &layout.data_cells()[run];
        let failed_cols = self.failed_cols(stripe);
        let op = lower::read_op(layout, &failed_cols, requested, &self.addr_fn(stripe))
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        if op.plan.is_none() {
            return Ok(self.pipeline.fetch(&op, out)?);
        }
        let mut scratch =
            Stripe::sparse(layout.rows(), layout.cols(), self.element_size, op.footprint());
        let rs = self.pipeline.execute(&op, &mut scratch)?;
        for (&cell, element) in requested.iter().zip(out.chunks_exact_mut(self.element_size)) {
            element.copy_from_slice(scratch.element(cell));
        }
        Ok(rs)
    }

    /// Rebuilds every failed disk onto a blank spare (single-disk hybrid
    /// recovery or generic double-disk decode) and marks the array
    /// healthy. An in-flight background rebuild is driven to completion
    /// first; progress is checkpointed per stripe, so a crash mid-rebuild
    /// resumes where it stopped on reopen.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if more than two disks are
    /// failed (cannot happen through this API).
    pub fn rebuild(&mut self) -> Result<IoLedger, VolumeError> {
        let mut receipt = IoLedger::new(self.disks());
        loop {
            if self.rebuild_task.is_none() {
                let failed: Vec<usize> = self.failed.iter().copied().collect();
                if failed.is_empty() {
                    return Ok(receipt);
                }
                if failed.len() > 2 {
                    return Err(VolumeError::TooManyFailures { failed: failed.len() });
                }
                self.start_rebuild(failed)?;
            }
            let rs = self.rebuild_step(usize::MAX)?;
            receipt.merge(&rs);
        }
    }

    /// Drives the background healer: starts a spare-consuming rebuild if
    /// one is warranted and none is active, then rebuilds up to `budget`
    /// stripes. Call repeatedly (e.g. between foreground operations) to
    /// amortize rebuild I/O. Returns the step's I/O ledger — empty when
    /// there is nothing to do.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on backend errors or unsurvivable failures.
    pub fn maintain(&mut self, budget: usize) -> Result<IoLedger, VolumeError> {
        if self.rebuild_task.is_none() {
            if self.auto_heal && !self.failed.is_empty() && self.spares > 0 {
                self.start_spare_rebuild()?;
            }
            if self.rebuild_task.is_none() {
                return Ok(IoLedger::new(self.disks()));
            }
        }
        self.rebuild_step(budget)
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
    /// *before* the blank spares are swapped in, so a crash between the
    /// two steps is detected on reopen (the checkpointed disk is still
    /// backend-failed) and the swap replayed rather than the half-zeroed
    /// spare trusted.
    fn start_rebuild(&mut self, disks: Vec<usize>) -> Result<(), VolumeError> {
        let cp = RebuildCheckpoint { disks: disks.clone(), next_stripe: 0 };
        self.pipeline.backend_mut().save_checkpoint(Some(&cp))?;
        self.swap_in_spares(&disks)?;
        for &d in &disks {
            self.health.note_replaced(d);
        }
        self.rebuild_task = Some(RebuildTask { disks, next_stripe: 0 });
        Ok(())
    }

    /// Rebuilds up to `budget` stripes of the active task, persisting the
    /// checkpoint after each stripe and finishing the task (failed set,
    /// checkpoint, health) when the last stripe lands. Errors during a
    /// stripe go through the recovery policy — a fault can reset or
    /// extend the task mid-step, which is why the task state is re-read
    /// every iteration. The step owns the one scratch its stripes run on
    /// ([`RebuildScratch`]) and frees it on return.
    pub fn rebuild_step(&mut self, budget: usize) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        let mut receipt = IoLedger::new(self.disks());
        let mut scratch: Option<RebuildScratch> = None;
        let mut done = 0usize;
        let mut attempts = 0usize;
        while done < budget {
            let Some(task) = self.rebuild_task.as_ref() else { break };
            if task.next_stripe >= self.stripes {
                self.finish_rebuild()?;
                break;
            }
            let idx = task.next_stripe;
            let disks = task.disks.clone();
            attempts += 1;
            match self.rebuild_one_stripe(idx, &disks, &mut scratch) {
                Ok(rs) => {
                    receipt.merge(&rs);
                    self.health.note_op_ok();
                    attempts = 0;
                    done += 1;
                    let task = self.rebuild_task.as_mut().expect("task active");
                    task.next_stripe = idx + 1;
                    let cp = RebuildCheckpoint {
                        disks: task.disks.clone(),
                        next_stripe: idx + 1,
                    };
                    self.pipeline.backend_mut().save_checkpoint(Some(&cp))?;
                    if idx + 1 >= self.stripes {
                        self.finish_rebuild()?;
                        break;
                    }
                }
                Err(VolumeError::Backend(e)) => {
                    if attempts >= MAX_OP_ATTEMPTS {
                        return Err(VolumeError::Backend(e));
                    }
                    self.recover(e)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(receipt)
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
    /// plan; two use the generic decoder. Runs on the step's `scratch`,
    /// cut to the op's footprint and re-cut only when this stripe's
    /// failed or written columns differ from the previous stripe's; stale
    /// bytes are harmless, since every cell the op touches is fetched or
    /// rebuilt before it is read.
    fn rebuild_one_stripe(
        &mut self,
        idx: usize,
        task_disks: &[usize],
        scratch: &mut Option<RebuildScratch>,
    ) -> Result<IoLedger, VolumeError> {
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
        let fits = |s: &RebuildScratch| s.failed_cols == failed_cols && s.write_cols == write_cols;
        if !scratch.as_ref().is_some_and(fits) {
            let (rows, cols) = (layout.rows(), layout.cols());
            let cells = Stripe::sparse(rows, cols, self.element_size, op.footprint());
            *scratch = Some(RebuildScratch { failed_cols, write_cols, cells });
        }
        let scratch = &mut scratch.as_mut().expect("cut above").cells;
        let mut receipt = IoLedger::new(self.disks());
        receipt.absorb(&self.pipeline.execute(&op, scratch)?);
        Ok(receipt)
    }

    /// Swaps blank spares in for the given disks (backend `replace` +
    /// simulator restore) so the rebuild can stream writes to them.
    fn swap_in_spares(&mut self, disks: &[usize]) -> Result<(), VolumeError> {
        for &d in disks {
            self.pipeline.backend_mut().replace(d)?;
            if let Some(sim) = self.pipeline.sim_mut() {
                let _ = sim.restore_disk(d);
            }
        }
        Ok(())
    }

    /// Recomputes every parity of every stripe through the pipeline, with
    /// the XOR kernels running on up to `threads` workers (the batch
    /// executor). Requires a healthy array.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if any disk is failed, or
    /// a backend error.
    pub fn encode_all(&mut self, threads: usize) -> Result<IoLedger, VolumeError> {
        if !self.failed.is_empty() {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() });
        }
        self.pipeline.begin_op();
        let code = Arc::clone(&self.code);
        let layout = code.layout();

        let ops = lower::encode_batch(layout, &self.addressing, self.stripes);
        let mut scratches = vec![Stripe::for_layout(layout, self.element_size); self.stripes];
        let map = self.map_for(threads);
        let (_, shards) = self.pipeline.execute_batch(&ops, &mut scratches, &map, threads)?;
        Ok(IoLedger::merge_shards(self.disks(), shards))
    }

    /// Rebuilds every failed disk like [`RaidVolume::rebuild`], but runs
    /// the decode kernels on up to `threads` workers: surviving elements
    /// are fetched per stripe, decoded in parallel, and the lost columns
    /// streamed back — all through the same pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] beyond tolerance, or a
    /// backend error.
    pub fn rebuild_all(&mut self, threads: usize) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        let failed: Vec<usize> = self.failed.iter().copied().collect();
        let mut receipt = IoLedger::new(self.disks());
        if failed.is_empty() {
            return Ok(receipt);
        }
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let ops = lower::rebuild_batch(layout, &self.addressing, self.stripes, &failed)
            .ok_or(VolumeError::TooManyFailures { failed: failed.len() })?;
        self.swap_in_spares(&failed)?;
        let mut scratches = vec![Stripe::for_layout(layout, self.element_size); self.stripes];
        let map = self.map_for(threads);
        let (_, shards) = self.pipeline.execute_batch(&ops, &mut scratches, &map, threads)?;
        receipt.merge(&IoLedger::merge_shards(self.disks(), shards));
        self.failed.clear();
        // The batch rebuild covered everything, superseding any
        // checkpointed background task.
        self.rebuild_task = None;
        self.pipeline.backend_mut().save_checkpoint(None)?;
        self.note_health();
        Ok(receipt)
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
    /// the ledger or simulator (maintenance traffic).
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
    /// Returns one report per stripe that was *not* clean.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if any disk is failed.
    pub fn scrub(&mut self) -> Result<Vec<(usize, raid_core::scrub::ScrubReport)>, VolumeError> {
        self.pipeline.begin_op();
        self.with_recovery(Self::try_scrub)
    }

    /// One scrub attempt over every stripe (retried by [`RaidVolume::scrub`]).
    fn try_scrub(&mut self) -> Result<Vec<(usize, raid_core::scrub::ScrubReport)>, VolumeError> {
        use raid_core::scrub::ScrubReport;
        // Checked per attempt: recovery may have degraded the array, and
        // scrubbing a degraded volume cannot tell corruption from loss.
        if !self.failed.is_empty() {
            return Err(VolumeError::TooManyFailures { failed: self.failed.len() });
        }
        let code = Arc::clone(&self.code);
        let layout = code.layout();
        let mut findings = Vec::new();
        for idx in 0..self.stripes {
            let addr = self.addr_fn(idx);
            let mut scratch = Stripe::for_layout(layout, self.element_size);
            self.pipeline.execute(&lower::whole_stripe_read_op(layout, &addr), &mut scratch)?;
            let report = raid_core::scrub::scrub(&mut scratch, layout);
            if let ScrubReport::Repaired { cell } = report {
                self.pipeline.execute(&lower::cell_write_op(layout, cell, &addr), &mut scratch)?;
            }
            if report != ScrubReport::Clean {
                findings.push((idx, report));
            }
        }
        Ok(findings)
    }

    /// Migrates every data element onto a fresh in-memory volume built on
    /// a different (or identical) code — the restriping path used when an
    /// operator changes coding schemes. The source may be degraded (data
    /// is recovered on the fly through degraded reads); the target is
    /// sized with exactly enough stripes.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the source is beyond its failure
    /// tolerance.
    pub fn migrate_to(&mut self, code: Arc<dyn ArrayCode>) -> Result<RaidVolume, VolumeError> {
        let elements = self.data_elements();
        let per_stripe = code.layout().num_data_cells();
        let stripes = elements.div_ceil(per_stripe);
        let mut target = RaidVolume::with_rotation(
            code,
            stripes,
            self.element_size,
            self.addressing.rotates(),
        );
        // Stream stripe-sized extents; degraded sources reconstruct as
        // they go.
        let chunk = per_stripe.max(1);
        let mut at = 0usize;
        while at < elements {
            let n = chunk.min(elements - at);
            let (bytes, _) = self.read(at, n)?;
            target.write(at, &bytes)?;
            at += n;
        }
        Ok(target)
    }

    /// Corrupts one byte of an element — test/chaos-engineering hook used
    /// by the scrub example and the failure-injection tests. Bypasses the
    /// pipeline (corruption is not I/O the controller issued).
    ///
    /// # Panics
    ///
    /// Panics if the stripe index or cell is out of range, or the target
    /// disk cannot serve the tampering.
    pub fn inject_corruption(&mut self, stripe: usize, cell: Cell, byte: usize) {
        assert!(stripe < self.stripes, "stripe out of range");
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
        self.pipeline
            .backend_mut()
            .read(a.disk, a.index, &mut buf)
            .expect("corruption target must be readable");
        let at = byte % buf.len();
        buf[at] ^= 0x80;
        self.pipeline
            .backend_mut()
            .write(a.disk, a.index, &buf)
            .expect("corruption target must be writable");
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
    /// guarantees no *partial* flush is visible after reopen.
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

        v.inject_corruption(1, Cell::new(2, 3), 7);
        v.inject_corruption(3, Cell::new(0, 0), 0);
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
    fn migration_between_codes_preserves_data() {
        let mut src = volume(false); // HV p=7
        let data = pattern(src.data_elements() * 16, 61);
        src.write(0, &data).unwrap();

        // Migrate to RDP — even while the source is degraded.
        src.fail_disk(2).unwrap();
        let mut dst = src
            .migrate_to(Arc::new(RdpCode::new(5).unwrap()))
            .unwrap();
        assert!(dst.verify_all());
        assert!(dst.data_elements() >= src.data_elements());
        let (bytes, _) = dst.read(0, src.data_elements()).unwrap();
        assert_eq!(bytes, data);

        // And back to HV.
        let mut back = dst.migrate_to(Arc::new(HvCode::new(7).unwrap())).unwrap();
        let (bytes, _) = back.read(0, src.data_elements()).unwrap();
        assert_eq!(&bytes[..data.len()], &data[..]);
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
    fn encode_all_keeps_consistency_and_accounts_io() {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 77);
        v.write(0, &data).unwrap();
        // Tamper with a parity (HV spreads them — look one up), then batch
        // re-encode across threads.
        let parity = (0..v.disks())
            .flat_map(|col| v.code().layout().parities_in_col(col))
            .next()
            .unwrap();
        v.inject_corruption(2, parity, 1);
        let receipt = v.encode_all(4).unwrap();
        assert!(v.verify_all());
        assert!(receipt.total_reads() > 0);
        assert_eq!(receipt.data_writes(), 0, "encode writes parities only");
        assert!(receipt.parity_writes() > 0);
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
    }

    #[test]
    fn rebuild_all_matches_serial_rebuild() {
        for rotate in [false, true] {
            let mut v = RaidVolume::with_rotation(
                Arc::new(HvCode::new(7).unwrap()),
                6,
                16,
                rotate,
            );
            let data = pattern(v.data_elements() * 16, 55);
            v.write(0, &data).unwrap();
            v.fail_disk(1).unwrap();
            v.fail_disk(5).unwrap();
            let receipt = v.rebuild_all(4).unwrap();
            assert!(receipt.total_writes() > 0);
            assert!(v.verify_all(), "rotate={rotate}");
            let (bytes, _) = v.read(0, v.data_elements()).unwrap();
            assert_eq!(bytes, data, "rotate={rotate}");
        }
    }

    #[test]
    fn flush_partition_drains_only_owned_range_while_rebuild_parked() {
        let mut v = RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 8, 16, false);
        v.set_partitions(Some(2));
        v.enable_cache(CacheConfig { max_stripes: 16, dirty_high_water: 16 });
        let per = v.addressing.data_per_stripe();
        let seed = pattern(v.data_elements() * 16, 41);
        v.write(0, &seed).unwrap();
        v.flush().unwrap();

        // Park a background rebuild with its frontier inside partition 0
        // (stripes 0..4 of the 2-partition map over 8 stripes).
        v.set_spares(1);
        v.fail_disk(3).unwrap();
        v.maintain(1).unwrap();
        let parked = v.rebuild_progress().expect("rebuild task active");
        assert_eq!(parked.next_stripe, 1);
        assert_eq!(v.partition_map().owner_of(parked.next_stripe), 0);

        // Dirty one stripe in each partition, then drain only partition 1.
        v.write(per, &pattern(16, 50)).unwrap();
        v.write(6 * per, &pattern(16, 51)).unwrap();
        assert_eq!(v.cache_dirty_stripes(), 2);
        let receipt = v.flush_partition(1).unwrap();
        assert!(receipt.total_writes() > 0, "partition 1's stripe must flush");
        assert_eq!(v.cache_dirty_stripes(), 1, "partition 0's stripe stays dirty");
        assert_eq!(
            v.rebuild_progress().expect("task still active").next_stripe,
            parked.next_stripe,
            "flushing range B must not advance the rebuild frontier in range A"
        );

        // The parked rebuild still completes, and nothing was lost.
        v.maintain(v.stripes).unwrap();
        assert!(v.rebuild_progress().is_none());
        v.flush().unwrap();
        assert!(v.verify_all());
    }

    #[test]
    fn partitioned_flush_accounts_like_single_partition() {
        let run = |partitions: Option<usize>| {
            let mut v =
                RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 6, 16, false);
            v.set_partitions(partitions);
            v.enable_cache(CacheConfig { max_stripes: 16, dirty_high_water: 16 });
            let per = v.addressing.data_per_stripe();
            for s in 0..6 {
                v.write(s * per, &pattern(32, s as u8)).unwrap();
            }
            let receipt = v.flush().unwrap();
            assert!(v.verify_all());
            let mut image = Vec::new();
            for d in 0..v.disks() {
                for i in 0..v.pipeline.backend().elements_per_disk() {
                    let mut buf = vec![0u8; 16];
                    v.pipeline.backend_mut().read(d, i, &mut buf).unwrap();
                    image.push(buf);
                }
            }
            (receipt, image)
        };
        let (serial, serial_img) = run(Some(1));
        let (parted, parted_img) = run(Some(3));
        assert_eq!(serial.per_disk_totals(), parted.per_disk_totals());
        assert_eq!(serial.total(), parted.total());
        assert_eq!(serial_img, parted_img, "flush order must not change bytes");
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
        assert_eq!(v.ledger().retries(), 2);
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
        assert_eq!(v.ledger().latent_repairs(), 1);
        assert_eq!(v.health().latent_repairs_total(), 1);
        // The rewrite remapped the sector: reading again is clean.
        v.reset_ledger();
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(v.ledger().latent_repairs(), 0);
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
        let budget = v.health().policy().max_latent_repairs;
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
        assert!(!v.ledger().transitions().is_empty());
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
            let mut v = RaidVolume::open(Arc::clone(&code), Box::new(faulty), false).unwrap();
            assert!(matches!(
                v.rebuild(),
                Err(VolumeError::Backend(DiskError::Crashed))
            ));
        }
        // Reopen: the checkpoint resumes the task past stripe 0 — not
        // from scratch — and the rebuild completes.
        let be = FileBackend::open(&dir).unwrap();
        let mut v = RaidVolume::open(Arc::clone(&code), Box::new(be), false).unwrap();
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
        let mut v = RaidVolume::open(code, Box::new(be), false).unwrap();
        assert!(v.verify_all());
        let (bytes, _) = v.read(3, 10).unwrap();
        assert_eq!(bytes, data, "dropped volume must have flushed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_invalidates_clean_cached_copies() {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 63);
        v.write(0, &data).unwrap();
        v.enable_cache(CacheConfig::default());
        let (_, _) = v.read(0, v.data_elements()).unwrap(); // populate
        let cell = v.code().layout().data_cells()[0];
        v.inject_corruption(0, cell, 5);
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
}
