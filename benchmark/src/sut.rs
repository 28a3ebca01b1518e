//! The program under test, as the benchmark sees it. This is the only
//! file that names a type or calls a function of `crates/*`; every other
//! file times calls into the wrappers below. The public functions used
//! here are the benchmark's **pinned surface** (listed in the README): a
//! later change that renames or removes one must update this file and
//! nothing else.
//!
//! The wrappers add no behaviour: a call here is one call there, plus the
//! conversion of the call's own receipt into [`Counts`].

use std::io;
use std::path::Path;
use std::sync::Arc;

use raid_array::{
    DiskAddr, DiskBackend, FileBackend, IoPipeline, JournalEntry, LoweredOp, MemBackend, RaidVolume,
};
use raid_core::io::IoLedger;
use raid_core::plan::degraded::plan_degraded_read;
use raid_core::plan::write::{plan_batched_write, plan_partial_write};
use raid_core::{ArrayCode, Cell, Stripe};
use raid_service::{proto, serve, ServerConfig, Service, ServiceConfig, ServiceError};
use raid_service::{ServiceHandle, TenantClass};

/// What the program counted for one call or since the last reset:
/// backend element I/Os and stripe-cache events, from `IoLedger`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub data_writes: u64,
    pub parity_writes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_flushes: u64,
    pub cache_evictions: u64,
}

impl Counts {
    /// Backend element I/Os (`IoLedger::total`).
    pub fn io(&self) -> u64 {
        self.reads + self.data_writes + self.parity_writes
    }

    pub fn plus(&self, other: &Counts) -> Counts {
        Counts {
            reads: self.reads + other.reads,
            data_writes: self.data_writes + other.data_writes,
            parity_writes: self.parity_writes + other.parity_writes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_flushes: self.cache_flushes + other.cache_flushes,
            cache_evictions: self.cache_evictions + other.cache_evictions,
        }
    }

    fn of(ledger: &IoLedger) -> Counts {
        Counts {
            reads: ledger.total_reads(),
            data_writes: ledger.data_writes(),
            parity_writes: ledger.parity_writes(),
            cache_hits: ledger.cache_hits(),
            cache_misses: ledger.cache_misses(),
            cache_flushes: ledger.cache_flushes(),
            cache_evictions: ledger.cache_evictions(),
        }
    }
}

/// Name of the XOR kernel the program dispatches to on this host.
pub fn xor_backend_name() -> &'static str {
    raid_math::xor::active_backend().name()
}

/// `raid_math::xor::xor_gather_into`.
pub fn xor_gather(dst: &mut [u8], srcs: &[&[u8]]) {
    raid_math::xor::xor_gather_into(dst, srcs);
}

/// An array code by the short name `gen::FIVE_CODES` uses.
#[derive(Debug, Clone)]
pub struct Code(Arc<dyn ArrayCode>);

impl Code {
    pub fn new(name: &str, p: usize) -> Code {
        let code: Arc<dyn ArrayCode> = match name {
            "hv" => Arc::new(hv_code::HvCode::new(p).expect("prime p >= 5")),
            "rdp" => Arc::new(raid_baselines::RdpCode::new(p).expect("prime p")),
            "hdp" => Arc::new(raid_baselines::HdpCode::new(p).expect("prime p >= 5")),
            "xcode" => Arc::new(raid_baselines::XCode::new(p).expect("prime p")),
            "hcode" => Arc::new(raid_baselines::HCode::new(p).expect("prime p >= 5")),
            other => panic!("no such code {other:?}"),
        };
        Code(code)
    }

    pub fn disks(&self) -> usize {
        self.0.disks()
    }

    pub fn rows(&self) -> usize {
        self.0.rows()
    }

    pub fn data_per_stripe(&self) -> usize {
        self.0.layout().num_data_cells()
    }

    /// The column of every data ordinal of a stripe.
    pub fn data_columns(&self) -> Vec<usize> {
        self.0.layout().data_cells().iter().map(|c| c.col).collect()
    }

    /// `plan_partial_write`; returns the plan's element writes.
    pub fn plan_partial_write(&self, start: usize, len: usize) -> usize {
        plan_partial_write(self.0.layout(), start, len).total_writes()
    }

    /// `plan_batched_write`; returns the plan's element writes.
    pub fn plan_batched_write(&self, ordinals: &[usize]) -> usize {
        plan_batched_write(self.0.layout(), ordinals).total_writes()
    }

    /// `plan_degraded_read` of data ordinals `start..start + len` with
    /// column `failed_col` lost; returns the elements fetched.
    pub fn plan_degraded_read(&self, failed_col: usize, start: usize, len: usize) -> usize {
        let layout = self.0.layout();
        plan_degraded_read(layout, failed_col, &layout.data_cells()[start..start + len])
            .elements_fetched()
    }

    /// A fresh in-memory volume, cache off (`RaidVolume::in_memory`).
    pub fn volume(&self, stripes: usize, element_size: usize) -> Vol {
        Box::new(RaidVolume::in_memory(Arc::clone(&self.0), stripes, element_size))
    }

    /// One seeded stripe and the layout's compiled encode plan.
    pub fn encoder(&self, element_size: usize) -> Encoder {
        let mut stripe = Stripe::for_layout(self.0.layout(), element_size);
        stripe.fill_data_seeded(self.0.layout(), 7);
        Encoder { code: self.clone(), stripe }
    }

    /// A pipeline over a fresh in-memory backend of `stripes` stripes,
    /// with a 4-element read op and a full-stripe write op (encode plan +
    /// every cell stored) against stripe 0.
    pub fn pipe(&self, stripes: usize, element_size: usize) -> Pipe {
        let layout = self.0.layout();
        let (rows, cols) = (layout.rows(), layout.cols());
        let backend = MemBackend::new(cols, stripes * rows, element_size);
        let at = |cell: Cell| (cell, DiskAddr { disk: cell.col, index: cell.row });
        let read4 =
            LoweredOp::read_only(layout.data_cells().iter().take(4).map(|&c| at(c)).collect());
        let all = (0..rows).flat_map(|r| (0..cols).map(move |c| Cell::new(r, c)));
        let (data, parity): (Vec<Cell>, Vec<Cell>) = all.partition(|&c| layout.is_data(c));
        let full_stripe = LoweredOp {
            reads: Vec::new(),
            plan: Some(layout.encode_plan().clone()),
            data_writes: data.into_iter().map(at).collect(),
            parity_writes: parity.into_iter().map(at).collect(),
        };
        let mut scratch = Stripe::for_layout(layout, element_size);
        scratch.fill_data_seeded(layout, 11);
        Pipe { pipeline: IoPipeline::new(Box::new(backend)), scratch, read4, full_stripe }
    }
}

/// See [`Code::encoder`].
#[derive(Debug)]
pub struct Encoder {
    code: Code,
    stripe: Stripe,
}

impl Encoder {
    /// `Layout::encode_plan().execute`.
    pub fn encode(&mut self) {
        self.code.0.layout().encode_plan().execute(&mut self.stripe);
    }

    /// `(ops, source reads)` of the encode plan: the raw-XOR twin gathers
    /// as many sources into as many destinations.
    pub fn plan_shape(&self) -> (usize, usize) {
        let plan = self.code.0.layout().encode_plan();
        (plan.num_ops(), plan.num_source_reads())
    }
}

/// See [`Code::pipe`].
#[derive(Debug)]
pub struct Pipe {
    pipeline: IoPipeline,
    scratch: Stripe,
    read4: LoweredOp,
    full_stripe: LoweredOp,
}

impl Pipe {
    /// `IoPipeline::execute` on a `LoweredOp::read_only` of 4 elements.
    pub fn read4(&mut self) {
        self.pipeline.execute(&self.read4, &mut self.scratch).expect("mem backend read");
    }

    /// `IoPipeline::execute` on the full-stripe op.
    pub fn full_stripe(&mut self) {
        self.pipeline.execute(&self.full_stripe, &mut self.scratch).expect("mem backend write");
    }
}

/// `DiskBackend::{read, write, journal_begin, journal_commit}` on the
/// two backends a user can mount.
pub struct Disks {
    backend: Box<dyn DiskBackend>,
    journal: Vec<JournalEntry>,
}

impl Disks {
    pub fn in_memory(disks: usize, elements_per_disk: usize, element_size: usize) -> Disks {
        Disks::over(Box::new(MemBackend::new(disks, elements_per_disk, element_size)))
    }

    pub fn on_files(
        dir: &Path,
        disks: usize,
        elements_per_disk: usize,
        element_size: usize,
    ) -> io::Result<Disks> {
        Ok(Disks::over(Box::new(FileBackend::create(dir, disks, elements_per_disk, element_size)?)))
    }

    /// The journal holds the pre-images of one 4-element write, the
    /// smallest journaled op the pipeline issues.
    fn over(backend: Box<dyn DiskBackend>) -> Disks {
        let journal = (0..4)
            .map(|disk| JournalEntry { disk, index: 0, data: vec![0; backend.element_size()] })
            .collect();
        Disks { backend, journal }
    }

    pub fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) {
        self.backend.read(disk, index, buf).expect("backend read");
    }

    pub fn write(&mut self, disk: usize, index: usize, data: &[u8]) {
        self.backend.write(disk, index, data).expect("backend write");
    }

    pub fn journal_cycle(&mut self) {
        self.backend.journal_begin(&self.journal).expect("journal begin");
        self.backend.journal_commit().expect("journal commit");
    }
}

/// Why an op did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// `busy` / `throttled`: the service refused the op (no retries here).
    Refused,
    Failed(String),
}

impl From<ServiceError> for OpError {
    fn from(e: ServiceError) -> OpError {
        match e {
            ServiceError::Busy { .. } | ServiceError::Throttled { .. } => OpError::Refused,
            other => OpError::Failed(other.to_string()),
        }
    }
}

fn failed(e: impl std::fmt::Display) -> OpError {
    OpError::Failed(e.to_string())
}

/// `RaidVolume`, by its public calls.
pub trait Volume: Send {
    fn data_elements(&self) -> usize;
    fn read(&mut self, addr: usize, len: usize) -> Result<(Vec<u8>, Counts), OpError>;
    fn write(&mut self, addr: usize, data: &[u8]) -> Result<Counts, OpError>;
    fn flush(&mut self) -> Result<Counts, OpError>;
    /// `enable_cache(CacheConfig::default())`: 64 stripes, as a user gets it.
    fn enable_cache(&mut self);
    fn fail_disk(&mut self, disk: usize) -> Result<(), OpError>;
    fn rebuild(&mut self) -> Result<Counts, OpError>;
    fn verify_all(&mut self) -> bool;
    /// The cumulative ledger since the last reset.
    fn counts(&self) -> Counts;
    fn reset_counts(&mut self);
    /// `Service::new(volume, ServiceConfig::default())`.
    fn into_service(self: Box<Self>) -> Svc;
}

pub type Vol = Box<dyn Volume>;

impl Volume for RaidVolume {
    fn data_elements(&self) -> usize {
        RaidVolume::data_elements(self)
    }

    fn read(&mut self, addr: usize, len: usize) -> Result<(Vec<u8>, Counts), OpError> {
        let (bytes, receipt) = RaidVolume::read(self, addr, len).map_err(failed)?;
        Ok((bytes, Counts::of(&receipt)))
    }

    fn write(&mut self, addr: usize, data: &[u8]) -> Result<Counts, OpError> {
        RaidVolume::write(self, addr, data).map(|r| Counts::of(&r)).map_err(failed)
    }

    fn flush(&mut self) -> Result<Counts, OpError> {
        RaidVolume::flush(self).map(|r| Counts::of(&r)).map_err(failed)
    }

    fn enable_cache(&mut self) {
        RaidVolume::enable_cache(self, raid_array::CacheConfig::default());
    }

    fn fail_disk(&mut self, disk: usize) -> Result<(), OpError> {
        RaidVolume::fail_disk(self, disk).map_err(failed)
    }

    fn rebuild(&mut self) -> Result<Counts, OpError> {
        RaidVolume::rebuild(self).map(|r| Counts::of(&r)).map_err(failed)
    }

    fn verify_all(&mut self) -> bool {
        RaidVolume::verify_all(self)
    }

    fn counts(&self) -> Counts {
        Counts::of(self.ledger())
    }

    fn reset_counts(&mut self) {
        self.reset_ledger();
    }

    fn into_service(self: Box<Self>) -> Svc {
        Svc(Service::new(*self, ServiceConfig::default()))
    }
}

/// What `Service::stats` reports, reduced to what the metrics use.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcStats {
    pub counts: Counts,
    pub ops: u64,
    pub rejections: u64,
    pub rounds: u64,
    pub merged_writes: u64,
    pub write_runs: u64,
    /// Enqueue -> completion latency over all tenants (`TenantStats`),
    /// weighted by ops.
    pub queue_p50_us: f64,
    pub queue_p99_us: f64,
}

/// `Service`, shared by its sessions and the socket server.
#[derive(Debug, Clone)]
pub struct Svc(Arc<Service>);

impl Svc {
    pub fn session(&self, tenant: &str, read_write: bool) -> Session {
        let class = if read_write { TenantClass::Mixed } else { TenantClass::Writer };
        Session(self.0.session(tenant, class))
    }

    pub fn stats(&self) -> SvcStats {
        let s = self.0.stats();
        let ops = s.ops_total();
        let weighted = |f: fn(&raid_service::TenantStats) -> f64| {
            s.tenants.iter().map(|t| f(t) * t.ops as f64).sum::<f64>() / ops.max(1) as f64
        };
        SvcStats {
            counts: Counts::of(&s.ledger),
            ops,
            rejections: s.tenants.iter().map(|t| t.busy_rejections).sum(),
            rounds: s.rounds,
            merged_writes: s.merged_writes,
            write_runs: s.write_runs,
            queue_p50_us: weighted(|t| t.p50_us),
            queue_p99_us: weighted(|t| t.p99_us),
        }
    }

    /// `Service::with_volume`: the volume behind the scheduler, drained.
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut dyn Volume) -> R) -> R {
        self.0.with_volume(|v| f(v))
    }

    /// `serve(&svc, &ServerConfig::new(socket))`: blocks until a client
    /// sends `SHUTDOWN`, then reports whether the drain and final flush
    /// succeeded.
    pub fn serve(&self, socket: &Path) -> io::Result<()> {
        serve(&self.0, &ServerConfig::new(socket))
    }
}

/// `ServiceHandle`.
#[derive(Debug)]
pub struct Session(ServiceHandle);

impl Session {
    pub fn read(&self, addr: usize, len: usize) -> Result<Vec<u8>, OpError> {
        Ok(self.0.read(addr, len)?)
    }

    pub fn write(&self, addr: usize, data: &[u8]) -> Result<usize, OpError> {
        Ok(self.0.write(addr, data)?)
    }

    pub fn flush(&self) -> Result<(), OpError> {
        Ok(self.0.flush()?)
    }

    pub fn close(&self) {
        self.0.close();
    }
}

/// `proto::parse`; returns the payload bytes a `WRITE` carried.
pub fn proto_parse(line: &str) -> usize {
    match proto::parse(line).expect("bench sends well-formed requests") {
        proto::Request::Write { data, .. } => data.len(),
        _ => 0,
    }
}

/// `proto::to_hex`.
pub fn proto_to_hex(bytes: &[u8]) -> String {
    proto::to_hex(bytes)
}

/// `proto::from_hex`.
pub fn proto_from_hex(hex: &str) -> Vec<u8> {
    proto::from_hex(hex).expect("bench sends well-formed hex")
}
