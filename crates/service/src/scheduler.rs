//! The request scheduler: admission control in front of one volume lock,
//! under which every client runs its own op.
//!
//! # Architecture
//!
//! Client threads call [`ServiceHandle::read`] / [`ServiceHandle::write`]
//! / [`ServiceHandle::flush`], and each call runs to completion on the
//! calling thread in four steps:
//!
//! 1. **validate** the range and the payload;
//! 2. **admit** under the `shared` lock: the service is open, the
//!    handle's session is current, fewer than
//!    [`ServiceConfig::queue_depth`] ops are in flight
//!    ([`ServiceError::Busy`] otherwise), and the session's token bucket,
//!    refilled by wall clock, covers the op's element cost
//!    ([`ServiceError::Throttled`] otherwise);
//! 3. **lock the volume** and run the op;
//! 4. **record** its latency and counters under `shared`.
//!
//! A client's thread only ever runs its own op: it waits for the volume
//! lock, never for other clients' work to drain, so no dispatcher thread,
//! queue or hand-off exists and the in-process handle has zero idle cost.
//! The volume lock is the only ordering rule: one volume sees one
//! sequence, so every op observes all writes that completed before it
//! started, across tenants. Merging co-located writes is the stripe
//! cache's job ([`Service::new`] always attaches it): a write is absorbed
//! in memory and the elements that land in one stripe share their parity
//! updates when the stripe flushes. An op the volume fails (a degraded
//! array at its correction limit, say) completes with that volume error,
//! never silently.
//!
//! Sessions are retired with [`ServiceHandle::close`] (the socket server
//! closes them when a connection ends): the slot is recycled for the
//! next session and its counters fold into a per-`(tenant, class)`
//! aggregate, so stats stay monotonic and one tenant never emits
//! duplicate metric series no matter how many connections carried it.
//!
//! Latency is recorded per op from admission to completion into a
//! per-session [`Histogram`] ([`raid_core::stats`]), whose percentile
//! uses the workspace's one nearest-rank rule.
//!
//! A panic under the volume lock (a volume bug, a
//! [`Service::with_volume`] callback) **closes** the service: the
//! panicking op gives its admission back, later submissions are refused
//! with [`ServiceError::Closed`], and an op admitted before the panic
//! reads the poisoned lock as `Closed` instead of running on a volume
//! abandoned mid-op.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use raid_array::{CacheConfig, HealthState, RaidVolume, VolumeError};
use raid_core::io::IoLedger;
use raid_core::stats::Histogram;

/// How a session's traffic is classified in latency reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Mostly reads.
    Reader,
    /// Mostly writes.
    Writer,
    /// Mixed traffic.
    Mixed,
}

impl TenantClass {
    /// Stable lower-case name (protocol + metrics label).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TenantClass::Reader => "reader",
            TenantClass::Writer => "writer",
            TenantClass::Mixed => "mixed",
        }
    }

    /// Parses the name produced by [`TenantClass::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<TenantClass> {
        match s {
            "reader" => Some(TenantClass::Reader),
            "writer" => Some(TenantClass::Writer),
            "mixed" => Some(TenantClass::Mixed),
            _ => None,
        }
    }
}

impl fmt::Display for TenantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for the service front-end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Global cap on ops in flight; admission beyond it returns
    /// [`ServiceError::Busy`].
    pub queue_depth: usize,
    /// Token-bucket capacity per session, in data elements. An op costing
    /// more than the capacity is never admissible.
    pub bucket_capacity: u64,
    /// Tokens refilled per session per elapsed
    /// [`ServiceConfig::refill_interval`].
    pub bucket_refill: u64,
    /// Wall-clock token refill period. A session's bucket is credited
    /// [`ServiceConfig::bucket_refill`] tokens per interval elapsed since
    /// its last refill, at admission — so a throttled client that backs
    /// off and retries is admitted once enough time has passed.
    pub refill_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 256,
            bucket_capacity: 65_536,
            bucket_refill: 16_384,
            refill_interval: Duration::from_millis(1),
        }
    }
}

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// [`ServiceConfig::queue_depth`] ops are already in flight — back
    /// off and retry.
    Busy {
        /// Ops in flight when the request was rejected.
        queued: usize,
    },
    /// The session's token bucket cannot cover the op right now.
    Throttled {
        /// Element cost of the rejected op.
        wanted: u64,
        /// Tokens the session currently holds.
        available: u64,
    },
    /// The volume rejected or failed the op.
    Volume(VolumeError),
    /// Malformed request (bad range, bad buffer length, unknown verb).
    BadRequest(String),
    /// The service has shut down.
    Closed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queued } => write!(f, "busy: {queued} ops queued"),
            ServiceError::Throttled { wanted, available } => {
                write!(f, "throttled: op costs {wanted} elements, bucket holds {available}")
            }
            ServiceError::Volume(e) => write!(f, "volume: {e}"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Closed => f.write_str("service closed"),
        }
    }
}

impl From<VolumeError> for ServiceError {
    fn from(e: VolumeError) -> Self {
        ServiceError::Volume(e)
    }
}

/// An op as validation and the counters see it; a write carries the
/// length of its payload in bytes.
#[derive(Clone, Copy)]
enum OpKind {
    Read { addr: usize, len: usize },
    Write { addr: usize, bytes: usize },
    Flush,
}

/// Locks `m`, reading through poison: a poisoned lock carries nothing
/// the crate acts on. Sections over `shared` and the server's connection
/// registry are plain bookkeeping that leaves its data valid at every
/// step, and the sections that can unwind — an op on the volume, a
/// `with_volume` callback — run beside a [`CloseOnPanic`], which has
/// closed the service before the volume lock is seen poisoned.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The volume and whether [`Service::shutdown`] has flushed it for the
/// last time: an op admitted before the shutdown that reaches the lock
/// after that flush must not land unflushed.
struct Volume {
    raid: RaidVolume,
    stopped: bool,
}

/// Held beside the volume lock: if its holder unwinds, the service
/// closes before the lock is released poisoned.
struct CloseOnPanic<'a>(&'a Service);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            locked(&self.0.shared).closed = true;
        }
    }
}

/// An admitted op's place in `queued` and in its session's in-flight
/// count. Dropping it gives both back — whether the op completed, was
/// refused at the volume lock, or unwound — and records the op's
/// latency and counters if the volume ran it.
struct InFlight<'a> {
    svc: &'a Service,
    session: usize,
    kind: OpKind,
    cost: u64,
    admitted: Instant,
    ran: bool,
}

impl InFlight<'_> {
    /// Runs the admitted op under the volume lock — or refuses it with
    /// [`ServiceError::Closed`] if a panic poisoned the lock or a shutdown
    /// flushed the volume for the last time since the op was admitted.
    /// Its counters are recorded as `self` drops on the way out.
    fn run<T>(
        mut self,
        op: impl FnOnce(&mut RaidVolume) -> Result<T, VolumeError>,
    ) -> Result<T, ServiceError> {
        let result = {
            let mut volume = self.svc.volume.lock().map_err(|_| ServiceError::Closed)?;
            if volume.stopped {
                return Err(ServiceError::Closed);
            }
            let _close = CloseOnPanic(self.svc);
            op(&mut volume.raid)
        };
        self.ran = true;
        result.map_err(ServiceError::from)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut sh = locked(&self.svc.shared);
        let Shared { sessions, queued, write_runs, .. } = &mut *sh;
        let state = &mut sessions[self.session];
        *queued -= 1;
        state.in_flight -= 1;
        if !self.ran {
            return;
        }
        state.hist.record(ns);
        state.ops += 1;
        match self.kind {
            OpKind::Read { .. } => state.read_elements += self.cost,
            OpKind::Write { .. } => {
                state.write_elements += self.cost;
                *write_runs += 1;
            }
            OpKind::Flush => {}
        }
    }
}

struct SessionState {
    tenant: String,
    class: TenantClass,
    /// False once the session is retired; the slot is then recycled by
    /// the next [`Service::session`] call.
    open: bool,
    /// Distinguishes the current occupant of a recycled slot from stale
    /// handles onto a previous one.
    epoch: u64,
    /// Ops admitted and not yet completed.
    in_flight: usize,
    tokens: u64,
    last_refill: Instant,
    hist: Histogram,
    ops: u64,
    busy_rejections: u64,
    read_elements: u64,
    write_elements: u64,
}

impl SessionState {
    fn has_activity(&self) -> bool {
        self.ops > 0
            || self.busy_rejections > 0
            || self.read_elements > 0
            || self.write_elements > 0
            || self.hist.count() > 0
    }
}

/// Counters folded per `(tenant, class)` — retired sessions accumulate
/// here so closing a connection never resets a Prometheus counter, and
/// [`Service::stats`] reports one entry per tenant label set no matter
/// how many sessions carried it.
#[derive(Clone)]
struct TenantAccum {
    tenant: String,
    class: TenantClass,
    ops: u64,
    busy_rejections: u64,
    read_elements: u64,
    write_elements: u64,
    hist: Histogram,
}

/// Folds `s`'s counters into the accumulator matching its
/// `(tenant, class)` label pair, creating one if absent.
fn fold_tenant(accums: &mut Vec<TenantAccum>, s: &SessionState) {
    let i = match accums.iter().position(|a| a.tenant == s.tenant && a.class == s.class) {
        Some(i) => i,
        None => {
            accums.push(TenantAccum {
                tenant: s.tenant.clone(),
                class: s.class,
                ops: 0,
                busy_rejections: 0,
                read_elements: 0,
                write_elements: 0,
                hist: Histogram::new(),
            });
            accums.len() - 1
        }
    };
    let acc = &mut accums[i];
    acc.ops += s.ops;
    acc.busy_rejections += s.busy_rejections;
    acc.read_elements += s.read_elements;
    acc.write_elements += s.write_elements;
    acc.hist.merge(&s.hist);
}

struct Shared {
    sessions: Vec<SessionState>,
    /// Retired slots available for reuse by the next `session()`.
    free: Vec<usize>,
    /// Per-`(tenant, class)` counters of retired sessions.
    retired: Vec<TenantAccum>,
    /// Ops admitted and not yet completed.
    queued: usize,
    write_runs: u64,
    next_epoch: u64,
    closed: bool,
}

/// Per-tenant latency/throughput counters, as last snapshotted.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant label given at session registration.
    pub tenant: String,
    /// Declared traffic class.
    pub class: TenantClass,
    /// Ops completed.
    pub ops: u64,
    /// Admission rejections (busy + throttled).
    pub busy_rejections: u64,
    /// Data elements read.
    pub read_elements: u64,
    /// Data elements written.
    pub write_elements: u64,
    /// Median admission→completion latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile admission→completion latency, microseconds.
    pub p99_us: f64,
    /// Mean admission→completion latency, microseconds.
    pub mean_us: f64,
}

/// A point-in-time view of the whole service, used by the `stats` verb,
/// the Prometheus renderer, and the benches.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Cumulative volume ledger (backend element I/O, cache counters).
    pub ledger: IoLedger,
    /// Array health.
    pub health: HealthState,
    /// Disks currently failed.
    pub failed_disks: Vec<usize>,
    /// Whether the write-back cache is attached.
    pub cache_enabled: bool,
    /// Stripes resident in the cache.
    pub cache_resident: usize,
    /// Elements the cache holds a copy of, over every resident stripe.
    pub cache_resident_elements: usize,
    /// Dirty stripes in the cache.
    pub cache_dirty: usize,
    /// Ops admitted and not yet completed.
    pub queued: usize,
    /// Ops the volume ran, i.e. [`ServiceStats::ops_total`]; leaves with
    /// the next `benchmark` PR, whose `sut.rs` still reads it.
    pub rounds: u64,
    /// Always 0 — the stripe cache does the merging; leaves with the next
    /// `benchmark` PR, whose `sut.rs` still reads it.
    pub merged_writes: u64,
    /// Write ops dispatched to the volume.
    pub write_runs: u64,
    /// Per-tenant latency and throughput, aggregated per
    /// `(tenant, class)` across all sessions ever opened under that
    /// label pair (closed sessions keep counting; sessions that never
    /// recorded an op are omitted).
    pub tenants: Vec<TenantStats>,
    /// Disks in the array.
    pub disks: usize,
    /// Volume capacity in data elements.
    pub data_elements: usize,
    /// Bytes per element.
    pub element_size: usize,
}

impl ServiceStats {
    /// Total ops completed across tenants.
    #[must_use]
    pub fn ops_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.ops).sum()
    }
}

/// The concurrent front-end over one [`RaidVolume`].
///
/// Shared by [`Arc`]; per-client [`ServiceHandle`]s are minted with
/// [`Service::session`]. Every client op is admitted and then run on the
/// client's own thread under the volume lock, as the module docs
/// describe.
pub struct Service {
    cfg: ServiceConfig,
    volume: Mutex<Volume>,
    shared: Mutex<Shared>,
    data_elements: usize,
    element_size: usize,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("data_elements", &self.data_elements)
            .field("element_size", &self.element_size)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Wraps `volume` in a service with the given scheduler config,
    /// attaching the write-back stripe cache (default geometry) unless
    /// the volume already carries one.
    #[must_use]
    pub fn new(mut volume: RaidVolume, cfg: ServiceConfig) -> Arc<Service> {
        let mut cfg = cfg;
        cfg.queue_depth = cfg.queue_depth.max(1);
        cfg.bucket_refill = cfg.bucket_refill.max(1);
        cfg.bucket_capacity = cfg.bucket_capacity.max(cfg.bucket_refill);
        cfg.refill_interval = cfg.refill_interval.max(Duration::from_micros(1));
        if !volume.cache_enabled() {
            volume.enable_cache(CacheConfig::default());
        }
        let data_elements = volume.data_elements();
        let element_size = volume.element_size();
        Arc::new(Service {
            cfg,
            volume: Mutex::new(Volume { raid: volume, stopped: false }),
            shared: Mutex::new(Shared {
                sessions: Vec::new(),
                free: Vec::new(),
                retired: Vec::new(),
                queued: 0,
                write_runs: 0,
                next_epoch: 0,
                closed: false,
            }),
            data_elements,
            element_size,
        })
    }

    /// Opens a session for `tenant` with a full token bucket, reusing a
    /// retired session's slot when one is free (so churning
    /// connections — e.g. repeated stats scrapes — don't grow the
    /// scheduler state).
    #[must_use]
    pub fn session(self: &Arc<Self>, tenant: &str, class: TenantClass) -> ServiceHandle {
        let mut sh = locked(&self.shared);
        sh.next_epoch += 1;
        let epoch = sh.next_epoch;
        let state = SessionState {
            tenant: tenant.to_string(),
            class,
            open: true,
            epoch,
            in_flight: 0,
            tokens: self.cfg.bucket_capacity,
            last_refill: Instant::now(),
            hist: Histogram::new(),
            ops: 0,
            busy_rejections: 0,
            read_elements: 0,
            write_elements: 0,
        };
        let session = match sh.free.pop() {
            Some(idx) => {
                sh.sessions[idx] = state;
                idx
            }
            None => {
                sh.sessions.push(state);
                sh.sessions.len() - 1
            }
        };
        ServiceHandle { svc: Arc::clone(self), session, epoch }
    }

    /// Retires a session: folds its counters into the per-tenant
    /// aggregate (stats keep counting monotonically) and recycles its
    /// slot. Idempotent; stale epochs and sessions with ops in flight
    /// are ignored.
    fn retire(&self, session: usize, epoch: u64) {
        let mut sh = locked(&self.shared);
        let Shared { sessions, free, retired, .. } = &mut *sh;
        let Some(state) = sessions.get_mut(session) else { return };
        if !state.open || state.epoch != epoch || state.in_flight > 0 {
            return;
        }
        state.open = false;
        if state.has_activity() {
            fold_tenant(retired, state);
        }
        free.push(session);
    }

    /// Volume capacity in data elements.
    #[must_use]
    pub fn data_elements(&self) -> usize {
        self.data_elements
    }

    /// Bytes per data element.
    #[must_use]
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// The most elements one op can carry and still be admitted: the
    /// volume holds no more, and a fuller token bucket never exists.
    pub(crate) fn max_op_elements(&self) -> usize {
        self.data_elements.min(usize::try_from(self.cfg.bucket_capacity).unwrap_or(usize::MAX))
    }

    /// Sessions opened and not yet retired.
    #[cfg(test)]
    pub(crate) fn open_sessions(&self) -> usize {
        locked(&self.shared).sessions.iter().filter(|s| s.open).count()
    }

    /// Snapshots service-wide and per-tenant counters (also of a service
    /// closed by a panic: the counters are what they were when it died).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        // Lock order: volume before shared, the order a panic under the
        // volume lock takes them in.
        let volume = locked(&self.volume);
        let sh = locked(&self.shared);
        // One entry per (tenant, class) label pair: retired sessions'
        // folded counters first (stable first-seen order), then every
        // live session merged in — so two connections HELLOing the same
        // tenant, or a close/reopen cycle, still yield a single
        // monotonic series per label set.
        let mut accums = sh.retired.clone();
        for s in sh.sessions.iter().filter(|s| s.open && s.has_activity()) {
            fold_tenant(&mut accums, s);
        }
        let tenants: Vec<TenantStats> = accums
            .into_iter()
            .map(|a| TenantStats {
                tenant: a.tenant,
                class: a.class,
                ops: a.ops,
                busy_rejections: a.busy_rejections,
                read_elements: a.read_elements,
                write_elements: a.write_elements,
                p50_us: a.hist.percentile(0.50) / 1_000.0,
                p99_us: a.hist.percentile(0.99) / 1_000.0,
                mean_us: a.hist.mean() / 1_000.0,
            })
            .collect();
        let vol = &volume.raid;
        ServiceStats {
            ledger: vol.ledger().clone(),
            health: vol.health_state(),
            failed_disks: vol.failed_disks(),
            cache_enabled: vol.cache_enabled(),
            cache_resident: vol.cache_resident_stripes(),
            cache_resident_elements: vol.cache_resident_elements(),
            cache_dirty: vol.cache_dirty_stripes(),
            queued: sh.queued,
            rounds: tenants.iter().map(|t| t.ops).sum(),
            merged_writes: 0,
            write_runs: sh.write_runs,
            tenants,
            disks: vol.disks(),
            data_elements: self.data_elements,
            element_size: self.element_size,
        }
    }

    /// Stops admitting ops and flushes the volume for the last time (the
    /// clean-shutdown contract: a file-backed volume is byte-complete on
    /// disk afterwards). An op admitted earlier either runs before that
    /// flush or fails with [`ServiceError::Closed`]; none lands after it.
    ///
    /// # Errors
    ///
    /// Returns the volume error if the final flush fails, and
    /// [`ServiceError::Closed`] if a panic under the volume lock already
    /// closed the service — the volume was abandoned mid-op, so no clean
    /// flush is claimed.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        locked(&self.shared).closed = true;
        let mut volume = self.volume.lock().map_err(|_| ServiceError::Closed)?;
        volume.stopped = true;
        volume.raid.flush()?;
        Ok(())
    }

    /// Runs maintenance on the underlying volume (rebuild budget ticks,
    /// scrubs) without going through admission. Test/CLI plumbing. If
    /// `f` panics the service closes, as for any panic under the volume
    /// lock.
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut RaidVolume) -> R) -> R {
        let mut volume = locked(&self.volume);
        let _close = CloseOnPanic(self);
        f(&mut volume.raid)
    }

    // ---- submission -------------------------------------------------

    /// Checks `kind` against the volume and returns its element cost.
    fn validate(&self, kind: OpKind) -> Result<u64, ServiceError> {
        let (addr, len) = match kind {
            OpKind::Read { addr, len } => (addr, len),
            OpKind::Write { addr, bytes } => {
                if bytes == 0 || bytes % self.element_size != 0 {
                    return Err(ServiceError::BadRequest(format!(
                        "write payload must be a positive multiple of the {}-byte element size, got {bytes} bytes",
                        self.element_size
                    )));
                }
                (addr, bytes / self.element_size)
            }
            OpKind::Flush => return Ok(1),
        };
        if len == 0 {
            return Err(ServiceError::BadRequest("zero-length op".to_string()));
        }
        if addr.checked_add(len).is_none_or(|end| end > self.data_elements) {
            return Err(ServiceError::BadRequest(format!(
                "range [{addr}, {addr}+{len}) exceeds {} data elements",
                self.data_elements
            )));
        }
        Ok(len as u64)
    }

    /// Admits an op of `cost` elements for `h`'s session, or says why
    /// not.
    fn admit(
        &self,
        h: &ServiceHandle,
        kind: OpKind,
        cost: u64,
    ) -> Result<InFlight<'_>, ServiceError> {
        let mut sh = locked(&self.shared);
        let (closed, queued) = (sh.closed, sh.queued);
        let state = &mut sh.sessions[h.session];
        if closed || !state.open || state.epoch != h.epoch {
            return Err(ServiceError::Closed);
        }
        if queued >= self.cfg.queue_depth {
            state.busy_rejections += 1;
            return Err(ServiceError::Busy { queued });
        }
        let periods = u64::try_from(
            state.last_refill.elapsed().as_nanos() / self.cfg.refill_interval.as_nanos(),
        )
        .unwrap_or(u64::MAX);
        if periods > 0 {
            state.tokens = state
                .tokens
                .saturating_add(periods.saturating_mul(self.cfg.bucket_refill))
                .min(self.cfg.bucket_capacity);
            state.last_refill = Instant::now();
        }
        if state.tokens < cost {
            state.busy_rejections += 1;
            return Err(ServiceError::Throttled { wanted: cost, available: state.tokens });
        }
        state.tokens -= cost;
        state.in_flight += 1;
        sh.queued += 1;
        Ok(InFlight {
            svc: self,
            session: h.session,
            kind,
            cost,
            admitted: Instant::now(),
            ran: false,
        })
    }

    /// Validates and admits `kind`, then runs it on the caller's thread
    /// under the volume lock.
    fn submit<T>(
        &self,
        h: &ServiceHandle,
        kind: OpKind,
        run: impl FnOnce(&mut RaidVolume) -> Result<T, VolumeError>,
    ) -> Result<T, ServiceError> {
        let cost = self.validate(kind)?;
        self.admit(h, kind, cost)?.run(run)
    }
}

/// A per-client (per-session) handle onto a shared [`Service`].
///
/// Cheap to clone-by-`session`; each handle owns one admission bucket in
/// the scheduler. Call [`ServiceHandle::close`] when the client is done
/// so the session's scheduler slot is recycled.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    svc: Arc<Service>,
    session: usize,
    epoch: u64,
}

impl ServiceHandle {
    /// Reads `len` data elements starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] / [`ServiceError::Throttled`] on admission
    /// rejection (retry later), [`ServiceError::Volume`] if the volume
    /// fails the op.
    pub fn read(&self, addr: usize, len: usize) -> Result<Vec<u8>, ServiceError> {
        self.svc.submit(self, OpKind::Read { addr, len }, |vol| {
            vol.read(addr, len).map(|(bytes, _)| bytes)
        })
    }

    /// Writes `data` (a multiple of the element size) at element `addr`,
    /// returning the element count written. The op runs on the caller's
    /// thread, so the volume writes from `data` itself: nothing is copied.
    ///
    /// # Errors
    ///
    /// Same admission/volume errors as [`ServiceHandle::read`].
    pub fn write(&self, addr: usize, data: &[u8]) -> Result<usize, ServiceError> {
        let elements = data.len() / self.svc.element_size;
        self.svc.submit(self, OpKind::Write { addr, bytes: data.len() }, |vol| {
            vol.write(addr, data).map(|_| elements)
        })
    }

    /// Flushes all dirty cached stripes to the backend.
    ///
    /// # Errors
    ///
    /// Same admission/volume errors as [`ServiceHandle::read`].
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.svc.submit(self, OpKind::Flush, |vol| vol.flush().map(|_| ()))
    }

    /// Closes the session: its counters fold into the per-tenant
    /// aggregate ([`Service::stats`] keeps reporting them) and its
    /// scheduler slot is recycled for the next [`Service::session`].
    ///
    /// Idempotent. Further ops through this handle (or a clone) fail
    /// with [`ServiceError::Closed`]; don't close while another clone
    /// has an op in flight.
    pub fn close(&self) {
        self.svc.retire(self.session, self.epoch);
    }

    /// Snapshots service-wide stats.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.svc.stats()
    }

    /// The shared service this handle feeds.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use disk_sim::DiskError;
    use hv_code::HvCode;
    use raid_array::{DiskBackend, MemBackend};
    use raid_core::ArrayCode;

    use super::*;
    use crate::proto;

    fn service(cfg: ServiceConfig) -> Arc<Service> {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        Service::new(RaidVolume::in_memory(code, 6, 8), cfg)
    }

    /// Waits until `cond` holds of the service's bookkeeping — for an op
    /// that is admitted and then blocks on the volume lock a test holds.
    fn until(svc: &Service, what: &str, cond: impl Fn(&Shared) -> bool) {
        let begun = Instant::now();
        while !cond(&locked(&svc.shared)) {
            assert!(begun.elapsed() < Duration::from_secs(10), "never happened: {what}");
            thread::sleep(Duration::from_micros(50));
        }
    }

    /// Regression for acking unwritten data: when the volume fails
    /// writes, *every* one of them must get the error — including the
    /// ones after the first failure.
    #[test]
    fn every_write_of_a_failing_batch_gets_the_volume_error() {
        let svc = service(ServiceConfig::default());
        let handles: Vec<_> =
            (0..3).map(|i| svc.session(&format!("t{i}"), TenantClass::Writer)).collect();
        // Park the volume at the correction limit with the fence armed:
        // every write now fails with SpareExhausted.
        svc.with_volume(|v| {
            v.fail_disk(0).unwrap();
            v.fail_disk(1).unwrap();
            v.set_write_fence(true);
            assert!(v.write_fenced());
        });
        // Three disjoint (non-adjacent) writes from three tenants.
        let es = svc.element_size();
        for (i, (h, addr)) in handles.iter().zip([0usize, 4, 8]).enumerate() {
            let res = h.write(addr, &vec![0xA5; 2 * es]);
            assert!(
                matches!(res, Err(ServiceError::Volume(_))),
                "op {i} was never written but got {res:?}"
            );
        }
    }

    /// Call order is the only ordering rule: reads of one address from
    /// another tenant see exactly the writes completed before them —
    /// overlapping ones included — and a flush changes nothing a reader
    /// sees.
    #[test]
    fn a_batch_dispatches_in_arrival_order_across_tenants() {
        let svc = service(ServiceConfig::default());
        let t: Vec<_> = (0..3).map(|i| svc.session(&format!("t{i}"), TenantClass::Mixed)).collect();
        let es = svc.element_size();
        let a = 5usize;
        let (x, y) = (vec![0x11u8; es], vec![0x22u8; es]);
        assert_eq!(t[0].write(a, &x), Ok(1));
        assert_eq!(t[1].read(a, 1), Ok(x));
        assert_eq!(t[2].write(a - 1, &y.repeat(3)), Ok(3));
        assert_eq!(t[1].read(a, 1), Ok(y.clone()));
        assert_eq!(t[0].flush(), Ok(()));
        assert_eq!(t[1].read(a, 1), Ok(y));
        assert_eq!(svc.stats().ops_total(), 6);
    }

    /// A memory backend whose every write panics: the volume bug an op
    /// can hit under the volume lock.
    struct PanickingWrites(MemBackend);

    impl DiskBackend for PanickingWrites {
        fn disks(&self) -> usize {
            self.0.disks()
        }
        fn element_size(&self) -> usize {
            self.0.element_size()
        }
        fn elements_per_disk(&self) -> usize {
            self.0.elements_per_disk()
        }
        fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
            self.0.read(disk, index, buf)
        }
        fn write(&mut self, _: usize, _: usize, _: &[u8]) -> Result<(), DiskError> {
            panic!("injected backend panic")
        }
        fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
            self.0.fail(disk)
        }
        fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
            self.0.replace(disk)
        }
        fn is_failed(&self, disk: usize) -> bool {
            self.0.is_failed(disk)
        }
        fn kind(&self) -> &'static str {
            "panicking"
        }
    }

    /// A panic under the volume lock closes the service: the panicking
    /// op's admission unwinds, later ops are refused, and
    /// `stats`/`shutdown` neither hang nor panic — whether the panic came
    /// from a `with_volume` callback or from inside a client's
    /// `RaidVolume::write`.
    #[test]
    fn a_panic_under_the_volume_lock_closes_the_service() {
        // A `with_volume` callback that dies holding `shared` too, so
        // that lock is poisoned as well.
        let svc = service(ServiceConfig::default());
        let h = svc.session("t", TenantClass::Writer);
        let es = svc.element_size();
        let panicker = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                svc.with_volume(|_| {
                    let _held = locked(&svc.shared);
                    panic!("injected callback panic");
                })
            })
        };
        assert!(panicker.join().is_err());
        assert!(locked(&svc.shared).closed, "refused at admission, not only at the lock");
        assert_eq!(h.write(0, &vec![2; es]), Err(ServiceError::Closed));
        assert_eq!(svc.stats().queued, 0);
        assert_eq!(svc.shutdown(), Err(ServiceError::Closed));

        // A client's own write panics inside the volume.
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let layout = code.layout();
        let backend = PanickingWrites(MemBackend::new(layout.cols(), 6 * layout.rows(), 8));
        let svc = Service::new(
            RaidVolume::new(code, 6, 8, Box::new(backend)).unwrap(),
            ServiceConfig::default(),
        );
        // With the cache detached every write reaches the backend.
        svc.with_volume(|v| v.disable_cache().map(|_| ())).unwrap();
        let (writer, later) =
            (svc.session("w", TenantClass::Writer), svc.session("r", TenantClass::Reader));
        let doomed = writer.clone();
        assert!(thread::spawn(move || doomed.write(0, &[1; 8])).join().is_err());
        assert_eq!(svc.stats().queued, 0);
        let sh = locked(&svc.shared);
        assert!(sh.closed && sh.sessions.iter().all(|s| s.in_flight == 0));
        drop(sh);
        assert_eq!(later.read(0, 1), Err(ServiceError::Closed));
        assert_eq!(writer.write(0, &[1; 8]), Err(ServiceError::Closed));
        assert_eq!(svc.shutdown(), Err(ServiceError::Closed));
    }

    /// An op admitted before `shutdown` either lands before the final
    /// flush or fails with `Closed` — never unflushed after it. First the
    /// late case, forced: admitted, then the shutdown, then the lock.
    /// Then the race itself: each round holds the volume until a write
    /// is admitted and the shutdown has closed the service, and lets the
    /// two contend for the lock.
    #[test]
    fn a_write_racing_shutdown_lands_flushed_or_fails_closed() {
        let svc = service(ServiceConfig::default());
        let h = svc.session("late", TenantClass::Writer);
        let data = vec![0xEE; 2 * svc.element_size()];
        let late = svc.admit(&h, OpKind::Write { addr: 3, bytes: data.len() }, 2).unwrap();
        assert_eq!(svc.shutdown(), Ok(()));
        assert_eq!(late.run(|v| v.write(3, &data)).map(|_| ()), Err(ServiceError::Closed));
        assert_eq!(svc.with_volume(|v| v.cache_dirty_stripes()), 0);
        assert_eq!(svc.stats().queued, 0);

        for round in 0..32u8 {
            let svc = service(ServiceConfig::default());
            let h = svc.session("w", TenantClass::Writer);
            let data = vec![round + 1; 2 * svc.element_size()];
            let outcome = thread::scope(|s| {
                let (write, shutdown) = svc.with_volume(|_| {
                    let write = s.spawn(|| h.write(3, &data));
                    until(&svc, "the write is admitted", |sh| sh.queued == 1);
                    let shutdown = s.spawn(|| svc.shutdown());
                    until(&svc, "the shutdown closes the service", |sh| sh.closed);
                    (write, shutdown)
                });
                assert_eq!(shutdown.join().unwrap(), Ok(()));
                write.join().unwrap()
            });
            let (bytes, dirty) =
                svc.with_volume(|v| (v.read(3, 2).unwrap().0, v.cache_dirty_stripes()));
            assert_eq!(dirty, 0, "round {round}: shutdown left dirty stripes");
            match outcome {
                Ok(2) => assert_eq!(bytes, data, "round {round}: acked write missing"),
                Err(ServiceError::Closed) => {
                    assert_eq!(bytes, vec![0; data.len()], "round {round}: refused write landed");
                }
                other => panic!("round {round}: a write racing shutdown ended {other:?}"),
            }
        }
    }

    /// With `queue_depth: 1`, an op submitted while another is in flight
    /// is refused with `Busy`, counted, and answered on the wire as
    /// `ERR busy: 1 ops queued`; once the first completes the next is
    /// admitted.
    #[test]
    fn an_op_past_the_queue_depth_is_busy() {
        let svc = service(ServiceConfig { queue_depth: 1, ..ServiceConfig::default() });
        let (first, second) =
            (svc.session("first", TenantClass::Writer), svc.session("second", TenantClass::Reader));
        let es = svc.element_size();
        thread::scope(|s| {
            let in_flight = svc.with_volume(|_| {
                let op = s.spawn(|| first.write(0, &vec![7; es]));
                until(&svc, "the first op is admitted", |sh| sh.queued == 1);
                let busy = second.read(0, 1).unwrap_err();
                assert_eq!(busy, ServiceError::Busy { queued: 1 });
                assert_eq!(proto::err_line(&busy), "ERR busy: 1 ops queued");
                op
            });
            assert_eq!(in_flight.join().unwrap(), Ok(1));
        });
        let st = svc.stats();
        assert_eq!(st.queued, 0);
        let refused = st.tenants.iter().find(|t| t.tenant == "second").expect("second's series");
        assert_eq!((refused.ops, refused.busy_rejections), (0, 1));
        assert_eq!(second.read(0, 1), Ok(vec![7; es]));
    }

    /// Regression for permanent throttling: the bucket refills by wall
    /// clock at admission, so a rejected op's retry succeeds once enough
    /// time has passed, with nothing else running.
    #[test]
    fn throttled_session_recovers_without_dispatch_rounds() {
        let svc = service(ServiceConfig {
            bucket_capacity: 8,
            bucket_refill: 1,
            refill_interval: Duration::from_millis(5),
            ..ServiceConfig::default()
        });
        let h = svc.session("t", TenantClass::Writer);
        let es = svc.element_size();
        h.write(0, &vec![1u8; 8 * es]).expect("first op drains the full bucket");
        let start = Instant::now();
        loop {
            match h.write(0, &vec![2u8; 8 * es]) {
                Ok(_) => break,
                Err(ServiceError::Throttled { .. }) => {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "throttled retry was never admitted: bucket never refills while idle"
                    );
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }

    #[test]
    fn sessions_recycle_and_tenant_stats_aggregate() {
        let svc = service(ServiceConfig::default());
        let es = svc.element_size();

        let h1 = svc.session("t", TenantClass::Writer);
        h1.write(0, &vec![1u8; es]).unwrap();
        h1.close();
        h1.close(); // idempotent
        assert!(
            matches!(h1.write(0, &vec![1u8; es]), Err(ServiceError::Closed)),
            "closed handle must not submit"
        );
        let st = svc.stats();
        assert_eq!(st.tenants.len(), 1);
        assert_eq!(st.tenants[0].ops, 1, "counters survive the close");

        // Reopen the same tenant: the retired slot is recycled and the
        // series stays one monotonic entry.
        let h2 = svc.session("t", TenantClass::Writer);
        h2.write(0, &vec![2u8; es]).unwrap();
        let st = svc.stats();
        assert_eq!(st.tenants.len(), 1);
        assert_eq!(st.tenants[0].ops, 2);

        // Two live sessions under one label pair merge into one entry.
        let ha = svc.session("dup", TenantClass::Mixed);
        let hb = svc.session("dup", TenantClass::Mixed);
        ha.write(0, &vec![3u8; es]).unwrap();
        hb.write(0, &vec![4u8; es]).unwrap();
        let dup: Vec<_> = svc.stats().tenants.into_iter().filter(|t| t.tenant == "dup").collect();
        assert_eq!(dup.len(), 1, "same tenant+class must not duplicate series");
        assert_eq!(dup[0].ops, 2);

        // A churn of zero-op scrape sessions leaves no series behind and
        // does not grow the scheduler state.
        for _ in 0..32 {
            let m = svc.session("metrics", TenantClass::Reader);
            let _ = m.stats();
            m.close();
        }
        let st = svc.stats();
        assert!(
            st.tenants.iter().all(|t| t.tenant != "metrics"),
            "zero-op sessions must not emit series"
        );
        let slots = locked(&svc.shared).sessions.len();
        assert!(slots <= 4, "retired slots must be reused, got {slots} session slots");
    }
}
