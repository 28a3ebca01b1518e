//! The single I/O pipeline every volume operation lowers into.
//!
//! A [`LoweredOp`] is the normal form of one volume operation against one
//! stripe: element **reads** (backend → scratch cells), a compiled
//! [`XorPlan`] over the scratch, and element **writes** (scratch cells →
//! backend, split data/parity). [`IoPipeline::execute`] runs that form
//! against the [`DiskBackend`], hands the very same [`RequestSet`] to the
//! attached [`DiskArray`] simulator (if any) for timing, and absorbs it
//! into the [`IoLedger`] — so execution, timing, and accounting can never
//! disagree about what was issued. An op with nothing to compute or store
//! needs no scratch: [`IoPipeline::fetch`] lands its reads in the caller's
//! buffer and commits through the same tail.

use disk_sim::{DiskArray, DiskError};
use raid_core::io::{IoLedger, LedgerShard, RequestSet};
use raid_core::xplan::PlanCell;
use raid_core::{Cell, Stripe, XorPlan};

use crate::backend::{DiskBackend, JournalEntry};
use crate::partition::{run_partitioned, PartitionMap};

/// A flat element address on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskAddr {
    /// Physical disk.
    pub disk: usize,
    /// Element index on that disk (`stripe · rows + row`).
    pub index: usize,
}

/// One volume operation lowered to its pipeline normal form. Cells are
/// scratch-stripe coordinates (ops over a taller-than-layout scratch, e.g.
/// the RMW double-buffer, are fine — the plan is compiled for the scratch
/// shape).
#[derive(Debug, Clone, Default)]
pub struct LoweredOp {
    /// Elements fetched from the backend into scratch cells.
    pub reads: Vec<(Cell, DiskAddr)>,
    /// XOR program over the scratch after the reads land.
    pub plan: Option<XorPlan>,
    /// Data elements stored from scratch cells.
    pub data_writes: Vec<(Cell, DiskAddr)>,
    /// Parity elements stored from scratch cells.
    pub parity_writes: Vec<(Cell, DiskAddr)>,
}

impl LoweredOp {
    /// An op that only fetches the given cells.
    pub fn read_only(reads: Vec<(Cell, DiskAddr)>) -> Self {
        LoweredOp { reads, ..Default::default() }
    }

    /// True if the op issues no element requests at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.data_writes.is_empty() && self.parity_writes.is_empty()
    }

    /// Every scratch cell executing this op touches (a cell may repeat):
    /// the cells its reads land in, the cells its writes store from, and
    /// every grid cell its plan reads or writes (plan temps live outside
    /// the scratch). A [`Stripe::sparse`] over these cells is a sufficient
    /// scratch for [`IoPipeline::execute`].
    pub fn footprint(&self) -> impl Iterator<Item = Cell> + '_ {
        let io = self.reads.iter().chain(&self.data_writes).chain(&self.parity_writes);
        let in_plan = self.plan.iter().flat_map(|plan| {
            plan.step_views()
                .flat_map(|step| std::iter::once(step.dst).chain(step.srcs.iter().copied()))
                .filter_map(move |idx| match plan.plan_cell(idx) {
                    PlanCell::Grid(cell) => Some(cell),
                    PlanCell::Temp(_) => None,
                })
        });
        io.map(|&(cell, _)| cell).chain(in_plan)
    }
}

/// Executes [`LoweredOp`]s against a backend, mirrors each request set to
/// an optional timing simulator, and keeps the cumulative [`IoLedger`].
pub struct IoPipeline {
    backend: Box<dyn DiskBackend>,
    ledger: IoLedger,
    sim: Option<DiskArray>,
    /// Simulated latency accumulated by the current operation (reset via
    /// [`IoPipeline::begin_op`]).
    op_latency_ms: f64,
    /// Recycled pre-image buffers for the crash-journal write phase:
    /// steady-state allocation is capped at the largest single-op write
    /// set seen so far (a batch returns no more than that).
    pre_image_pool: Vec<Vec<u8>>,
}

impl std::fmt::Debug for IoPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPipeline")
            .field("backend", &self.backend.kind())
            .field("disks", &self.backend.disks())
            .field("sim", &self.sim.is_some())
            .finish()
    }
}

impl IoPipeline {
    /// Wraps a backend; the ledger starts at zero, no simulator attached.
    pub fn new(backend: Box<dyn DiskBackend>) -> Self {
        let disks = backend.disks();
        IoPipeline {
            backend,
            ledger: IoLedger::new(disks),
            sim: None,
            op_latency_ms: 0.0,
            pre_image_pool: Vec::new(),
        }
    }

    /// The backend (volume-internal maintenance access: unaccounted
    /// verification reads, corruption injection).
    pub fn backend_mut(&mut self) -> &mut dyn DiskBackend {
        self.backend.as_mut()
    }

    /// Immutable backend access.
    pub fn backend(&self) -> &dyn DiskBackend {
        self.backend.as_ref()
    }

    /// The cumulative ledger.
    pub fn ledger(&self) -> &IoLedger {
        &self.ledger
    }

    /// Mutable ledger access (health/retry accounting notes).
    pub fn ledger_mut(&mut self) -> &mut IoLedger {
        &mut self.ledger
    }

    /// Zeroes the ledger (between experiments).
    pub fn reset_ledger(&mut self) {
        self.ledger = IoLedger::new(self.backend.disks());
    }

    /// Attaches a timing simulator; subsequent request sets are timed.
    pub fn attach_sim(&mut self, sim: DiskArray) {
        self.sim = Some(sim);
    }

    /// Detaches and returns the simulator.
    pub fn detach_sim(&mut self) -> Option<DiskArray> {
        self.sim.take()
    }

    /// The attached simulator, if any.
    pub fn sim(&self) -> Option<&DiskArray> {
        self.sim.as_ref()
    }

    /// Mutable simulator access (failure-state sync).
    pub fn sim_mut(&mut self) -> Option<&mut DiskArray> {
        self.sim.as_mut()
    }

    /// Marks the start of a volume-level operation: the per-op latency
    /// accumulator is reset.
    pub fn begin_op(&mut self) {
        self.op_latency_ms = 0.0;
    }

    /// Simulated latency of the operation since [`IoPipeline::begin_op`]
    /// (sum of its request-set makespans; 0 without a simulator).
    pub fn op_latency_ms(&self) -> f64 {
        self.op_latency_ms
    }

    /// Executes one lowered op — the batch of one: fetch reads into
    /// `scratch`, run the XOR plan, store the writes, then commit the
    /// request set to the simulator and ledger. Returns the committed set.
    ///
    /// The write phase is atomic with respect to surviving disks: if a
    /// write fails mid-op, already-stored elements are restored from their
    /// pre-images before the error is returned, so the caller can re-plan
    /// (e.g. degraded) against a consistent array. The pre-images are
    /// journaled through the backend before the first write, so even a
    /// crash mid-phase is rolled back when the volume is reopened.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`DiskError`]; nothing is committed to the
    /// simulator or ledger in that case.
    pub fn execute(&mut self, op: &LoweredOp, scratch: &mut Stripe) -> Result<RequestSet, DiskError> {
        let batch = std::slice::from_mut(scratch);
        let mut sets = self.run(std::slice::from_ref(op), batch, |s| run_plan(op, &mut s[0]))?;
        Ok(sets.pop().expect("one request set per op"))
    }

    /// Executes one lowered op per stripe scratch under partitioned
    /// ownership: the XOR plans run on up to `threads` partitioned workers
    /// (work-stealing for skew), and the write phase commits under **one**
    /// undo journal covering the whole batch — all-or-nothing, strictly
    /// stronger than committing each op under its own journal. Each worker
    /// also absorbs its ops' request sets into a private [`LedgerShard`],
    /// returned alongside the per-op request sets so callers can audit the
    /// (order-independent) shard merge against the receipts.
    ///
    /// Byte-identical to looping [`IoPipeline::execute`] over the ops:
    /// phases touch the backend in op order, and stripes are independent
    /// (no op reads what another writes).
    ///
    /// # Errors
    ///
    /// Returns the first [`DiskError`] any phase produced. A read-phase
    /// error commits nothing; a write-phase error rolls every stored
    /// element of the batch back to its pre-image (journal recovery
    /// covers a crash mid-phase); nothing reaches the simulator or
    /// ledger on any error.
    ///
    /// # Panics
    ///
    /// Panics if `ops`, `scratches`, and `map` disagree on length.
    pub fn execute_batch(
        &mut self,
        ops: &[LoweredOp],
        scratches: &mut [Stripe],
        map: &PartitionMap,
        threads: usize,
    ) -> Result<(Vec<RequestSet>, Vec<LedgerShard>), DiskError> {
        assert_eq!(ops.len(), scratches.len(), "one scratch per op");
        assert_eq!(map.stripes(), ops.len(), "partition map does not fit the batch");
        let disks = self.backend.disks();
        let mut shards = Vec::new();
        let sets = self.run(ops, scratches, |scratches| {
            (_, shards) = run_partitioned(map, disks, scratches, threads, |shard, i, scratch| {
                run_plan(&ops[i], scratch);
                shard.absorb(&crate::audit::predicted_request_set(&ops[i], disks));
            });
        })?;
        debug_assert_eq!(
            shards.iter().map(|s| s.total()).sum::<u64>(),
            sets.iter().map(RequestSet::total).sum::<u64>(),
            "shard totals diverged from the per-op receipts"
        );
        Ok((sets, shards))
    }

    /// Executes a plain fetch — an op with no plan and no writes, which
    /// therefore needs no scratch: its `k`-th read lands in the `k`-th
    /// element of `out`, then the request set is committed exactly as
    /// [`IoPipeline::execute`] commits it.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`DiskError`]; nothing is committed to the
    /// simulator or ledger in that case, and `out` holds the elements
    /// read before it.
    ///
    /// # Panics
    ///
    /// Panics if `op` carries a plan or writes, or if `out` is not one
    /// element per read.
    pub fn fetch(&mut self, op: &LoweredOp, out: &mut [u8]) -> Result<RequestSet, DiskError> {
        assert!(
            op.plan.is_none() && op.data_writes.is_empty() && op.parity_writes.is_empty(),
            "only a plain fetch runs without a scratch"
        );
        let es = self.backend.element_size();
        assert_eq!(out.len(), op.reads.len() * es, "one output element per read");
        // The cells only name the reads here: the scratch the audit holds
        // them to is their bounding box.
        let (rows, cols) = op.reads.iter().fold((0, 0), |(rows, cols), &(cell, _)| {
            (rows.max(cell.row + 1), cols.max(cell.col + 1))
        });
        self.debug_audit(op, rows, cols);
        for (&(_, addr), element) in op.reads.iter().zip(out.chunks_exact_mut(es)) {
            self.backend.read(addr.disk, addr.index, element)?;
        }
        let mut sets = self.commit(std::slice::from_ref(op))?;
        Ok(sets.pop().expect("one request set per op"))
    }

    /// The one executor behind [`Self::execute`] and
    /// [`Self::execute_batch`]. Every op's reads land in its scratch,
    /// `compute` runs the plans, every op's writes are stored under one
    /// undo journal ([`Self::store`]), and only then are the request sets
    /// committed ([`Self::commit`]).
    fn run(
        &mut self,
        ops: &[LoweredOp],
        scratches: &mut [Stripe],
        compute: impl FnOnce(&mut [Stripe]),
    ) -> Result<Vec<RequestSet>, DiskError> {
        for (op, scratch) in ops.iter().zip(scratches.iter()) {
            self.debug_audit(op, scratch.rows(), scratch.cols());
        }
        for (op, scratch) in ops.iter().zip(scratches.iter_mut()) {
            for &(cell, addr) in &op.reads {
                self.backend.read(addr.disk, addr.index, scratch.element_mut(cell))?;
            }
        }
        compute(scratches);
        self.store(ops, scratches)?;
        self.commit(ops)
    }

    /// Debug builds statically audit every op before touching the
    /// backend: structural defects in the IR (out-of-scratch cells,
    /// duplicate reads/writes, plan/scratch shape skew) are lowering
    /// bugs, and executing them would silently corrupt elements.
    fn debug_audit(&self, op: &LoweredOp, rows: usize, cols: usize) {
        if cfg!(debug_assertions) {
            let disks = self.backend.disks();
            if let Err(e) = crate::audit::audit_lowered(op, rows, cols, disks, None) {
                panic!("lowered op failed static audit: {e}");
            }
        }
    }

    /// The tail every entry point ends in, reached only once all of the
    /// ops' backend I/O succeeded: the request sets — derived from the ops
    /// alone — are timed by the simulator, then absorbed into the ledger.
    fn commit(&mut self, ops: &[LoweredOp]) -> Result<Vec<RequestSet>, DiskError> {
        let disks = self.backend.disks();
        let sets: Vec<RequestSet> =
            ops.iter().map(|op| crate::audit::predicted_request_set(op, disks)).collect();
        if let Some(sim) = &mut self.sim {
            for rs in &sets {
                self.op_latency_ms += sim.run_requests(rs)?;
            }
        }
        for rs in &sets {
            self.ledger.absorb(rs);
        }
        Ok(sets)
    }

    /// The write phase, crash-consistently: gather every target's
    /// pre-image (unaccounted internal reads), journal them durably as one
    /// record, then apply the writes in target order. A mid-phase disk
    /// death is rolled back in place from the pre-images; a crash leaves
    /// the journal behind for reopen-time rollback, so the multi-element
    /// update is atomic even across process death.
    fn store(&mut self, ops: &[LoweredOp], scratches: &[Stripe]) -> Result<(), DiskError> {
        let targets: Vec<(DiskAddr, &[u8])> = ops
            .iter()
            .zip(scratches)
            .flat_map(|(op, scratch)| {
                let cells = op.data_writes.iter().chain(&op.parity_writes);
                cells.map(move |&(cell, addr)| (addr, scratch.element(cell)))
            })
            .collect();
        if targets.is_empty() {
            return Ok(());
        }
        let es = self.backend.element_size();
        let mut entries: Vec<JournalEntry> = Vec::with_capacity(targets.len());
        let result = (|| -> Result<(), DiskError> {
            for &(addr, _) in &targets {
                let mut pre = self.pre_image_pool.pop().unwrap_or_default();
                pre.resize(es, 0);
                match self.backend.read(addr.disk, addr.index, &mut pre) {
                    // A full-element read overwrites any recycled contents.
                    Ok(()) => {}
                    // An unreadable sector we are about to overwrite: the
                    // write remaps it, and zeros are as good an undo image
                    // as any for a sector that had no readable contents.
                    Err(DiskError::LatentSector { .. }) => pre.fill(0),
                    Err(e) => {
                        self.pre_image_pool.push(pre);
                        return Err(e);
                    }
                }
                entries.push(JournalEntry { disk: addr.disk, index: addr.index, data: pre });
            }
            self.backend.journal_begin(&entries)?;
            for (written, &(addr, bytes)) in targets.iter().enumerate() {
                let Err(e) = self.backend.write(addr.disk, addr.index, bytes) else { continue };
                // Roll the completed writes back in place. A rollback write
                // to the disk that just died is fine to skip (its content
                // is invalid until rebuilt); any other rollback failure —
                // above all a crash — means the in-place undo is
                // incomplete, so the journal must survive for reopen-time
                // recovery.
                let mut undo_ok = true;
                for entry in entries[..written].iter().rev() {
                    match self.backend.write(entry.disk, entry.index, &entry.data) {
                        Ok(()) | Err(DiskError::DiskFailed { .. }) => {}
                        Err(_) => undo_ok = false,
                    }
                }
                if undo_ok {
                    let _ = self.backend.journal_commit();
                }
                return Err(e);
            }
            // If the commit itself fails (crash between the last write and
            // here), the journal survives and reopen rolls everything back
            // — consistent with reporting the ops as failed.
            self.backend.journal_commit()
        })();
        // Return pre-image buffers to the pool whatever happened
        // (`journal_begin` made its own durable copy, and any in-place
        // undo already ran) — but no more than the largest single op
        // stored, so a batch does not pin a whole array's worth.
        let keep = ops.iter().map(|op| op.data_writes.len() + op.parity_writes.len()).max();
        self.pre_image_pool.extend(entries.into_iter().take(keep.unwrap_or(0)).map(|e| e.data));
        result
    }
}

/// Runs `op`'s XOR plan (if it has one) over its scratch.
fn run_plan(op: &LoweredOp, scratch: &mut Stripe) {
    if let Some(plan) = &op.plan {
        plan.execute(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        Fault, FaultPoint, FaultyBackend, FileBackend, JournalRecovery, MemBackend,
    };
    use disk_sim::DiskProfile;

    fn addr(disk: usize, index: usize) -> DiskAddr {
        DiskAddr { disk, index }
    }

    /// One op through a public entry point.
    type Entry = fn(&mut IoPipeline, &LoweredOp, &mut Stripe) -> Result<RequestSet, DiskError>;

    fn via_batch(
        pipe: &mut IoPipeline,
        op: &LoweredOp,
        scratch: &mut Stripe,
    ) -> Result<RequestSet, DiskError> {
        let map = PartitionMap::build(1, 1);
        let (ops, scratches) = (std::slice::from_ref(op), std::slice::from_mut(scratch));
        let (mut sets, _) = pipe.execute_batch(ops, scratches, &map, 1)?;
        Ok(sets.pop().unwrap())
    }

    /// Both entry points share one executor, so every failure-protocol
    /// test below runs through each.
    const ENTRIES: [(&str, Entry); 2] =
        [("execute", IoPipeline::execute), ("execute_batch", via_batch)];

    /// A 1×3 scratch holding `[1;4]`, `[2;4]`, `[3;4]`, and the read-free
    /// op storing its three cells to element 0 of disks 0, 1, 2.
    fn three_writes() -> (LoweredOp, Stripe) {
        let c = Cell::new;
        let mut scratch = Stripe::zeroed(1, 3, 4);
        for col in 0..3 {
            scratch.set_element(c(0, col), &[col as u8 + 1; 4]);
        }
        let op = LoweredOp {
            data_writes: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            parity_writes: vec![(c(0, 2), addr(2, 0))],
            ..Default::default()
        };
        (op, scratch)
    }

    /// A fresh 3-disk file backend under a per-test, per-entry directory,
    /// every element 0 preset to `[9;4]`.
    fn seeded_file_backend(test: &str, entry: &str) -> (std::path::PathBuf, FileBackend) {
        let dir = std::env::temp_dir()
            .join(format!("hvraid-pipe-{test}-{entry}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut be = FileBackend::create(&dir, 3, 2, 4).unwrap();
        for disk in 0..3 {
            be.write(disk, 0, &[9; 4]).unwrap();
        }
        (dir, be)
    }

    fn element(backend: &mut dyn DiskBackend, disk: usize, index: usize) -> [u8; 4] {
        let mut out = [0u8; 4];
        backend.read(disk, index, &mut out).unwrap();
        out
    }

    #[test]
    fn execute_reads_plans_and_writes() {
        // 1 row × 3 cols: c2 = c0 XOR c1.
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 4)));
        pipe.backend_mut().write(0, 0, &[1, 2, 3, 4]).unwrap();
        pipe.backend_mut().write(1, 0, &[4, 4, 4, 4]).unwrap();

        let c = Cell::new;
        let plan = XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())]);
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            plan: Some(plan),
            data_writes: vec![],
            parity_writes: vec![(c(0, 2), addr(2, 0))],
        };
        let mut scratch = Stripe::zeroed(1, 3, 4);
        let rs = pipe.execute(&op, &mut scratch).unwrap();
        assert_eq!(rs.total_reads(), 2);
        assert_eq!(rs.parity_writes(), 1);
        assert_eq!(element(pipe.backend_mut(), 2, 0), [5, 6, 7, 0]);
        assert_eq!(pipe.ledger().total(), 3);
    }

    #[test]
    fn sim_times_exactly_what_the_ledger_absorbs() {
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(2, 1, 4)));
        pipe.attach_sim(DiskArray::new(2, DiskProfile::savvio_10k()));
        let c = Cell::new;
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0))],
            plan: None,
            data_writes: vec![(c(0, 1), addr(1, 0))],
            parity_writes: vec![],
        };
        let mut scratch = Stripe::zeroed(1, 2, 4);
        pipe.begin_op();
        pipe.execute(&op, &mut scratch).unwrap();
        assert!(pipe.op_latency_ms() > 0.0);
        assert_eq!(pipe.sim().unwrap().served(), pipe.ledger().per_disk_totals());
    }

    /// Three disks whose element 0 holds `[disk + 1; 4]`, and the plain
    /// fetch of them in the order disk 2, 0, 1 — not cell order.
    fn three_reads() -> (MemBackend, LoweredOp) {
        let mut backend = MemBackend::new(3, 1, 4);
        for disk in 0..3 {
            backend.write(disk, 0, &[disk as u8 + 1; 4]).unwrap();
        }
        let reads = [2, 0, 1].map(|disk| (Cell::new(0, disk), addr(disk, 0)));
        (backend, LoweredOp::read_only(reads.to_vec()))
    }

    #[test]
    fn fetch_lands_reads_in_op_order_and_commits_what_execute_commits() {
        let (backend, op) = three_reads();
        let seeded = || {
            let mut pipe = IoPipeline::new(Box::new(backend.clone()));
            pipe.attach_sim(DiskArray::new(3, DiskProfile::savvio_10k()));
            pipe.begin_op();
            pipe
        };
        let (mut direct, mut dense) = (seeded(), seeded());
        let mut out = [0u8; 12];
        let landed = direct.fetch(&op, &mut out).unwrap();
        assert_eq!(out, [3, 3, 3, 3, 1, 1, 1, 1, 2, 2, 2, 2]);

        let mut scratch = Stripe::zeroed(1, 3, 4);
        assert_eq!(landed, dense.execute(&op, &mut scratch).unwrap());
        assert_eq!(direct.ledger(), dense.ledger());
        assert_eq!(direct.sim().unwrap().served(), direct.ledger().per_disk_totals());
        assert_eq!(direct.sim().unwrap().now_ms(), dense.sim().unwrap().now_ms());
        assert!(direct.op_latency_ms() > 0.0);
        assert_eq!(direct.op_latency_ms(), dense.op_latency_ms());
    }

    #[test]
    fn a_read_error_mid_fetch_commits_nothing() {
        // Disk 1 dies as the second read is issued; the third read, its
        // own, is the one that fails.
        let (backend, op) = three_reads();
        let faulty = FaultyBackend::new(Box::new(backend), vec![FaultPoint { at_op: 2, disk: 1 }]);
        let mut pipe = IoPipeline::new(Box::new(faulty));
        pipe.attach_sim(DiskArray::new(3, DiskProfile::savvio_10k()));
        pipe.begin_op();
        let mut out = [0u8; 12];
        assert_eq!(pipe.fetch(&op, &mut out), Err(DiskError::DiskFailed { disk: 1 }));
        assert_eq!(out, [3, 3, 3, 3, 1, 1, 1, 1, 0, 0, 0, 0], "the reads before the error landed");
        assert_eq!(pipe.ledger().total(), 0);
        assert_eq!(pipe.sim().unwrap().served(), vec![0; 3]);
        assert_eq!((pipe.sim().unwrap().now_ms(), pipe.op_latency_ms()), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "only a plain fetch runs without a scratch")]
    fn fetch_refuses_an_op_with_something_to_store() {
        let (op, _) = three_writes();
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 4)));
        let _ = pipe.fetch(&op, &mut []);
    }

    #[test]
    fn execute_batch_matches_serial_execute() {
        // Two independent 1×3 stripes (indices 0 and 1 per disk), each
        // computing c2 = c0 XOR c1.
        let c = Cell::new;
        let make_op = |index: usize| LoweredOp {
            reads: vec![(c(0, 0), addr(0, index)), (c(0, 1), addr(1, index))],
            plan: Some(XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())])),
            data_writes: vec![],
            parity_writes: vec![(c(0, 2), addr(2, index))],
        };
        let seeded = || {
            let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 2, 4)));
            pipe.backend_mut().write(0, 0, &[1, 2, 3, 4]).unwrap();
            pipe.backend_mut().write(1, 0, &[4, 4, 4, 4]).unwrap();
            pipe.backend_mut().write(0, 1, &[8, 8, 8, 8]).unwrap();
            pipe.backend_mut().write(1, 1, &[1, 0, 1, 0]).unwrap();
            pipe.attach_sim(DiskArray::new(3, DiskProfile::savvio_10k()));
            pipe
        };

        let mut serial = seeded();
        let mut serial_sets = Vec::new();
        for index in 0..2 {
            let mut scratch = Stripe::zeroed(1, 3, 4);
            serial_sets.push(serial.execute(&make_op(index), &mut scratch).unwrap());
        }

        let mut batched = seeded();
        let ops: Vec<LoweredOp> = (0..2).map(make_op).collect();
        let mut scratches = vec![Stripe::zeroed(1, 3, 4); 2];
        let map = PartitionMap::build(2, 2);
        let (sets, shards) = batched.execute_batch(&ops, &mut scratches, &map, 2).unwrap();

        assert_eq!(sets, serial_sets);
        assert_eq!(batched.ledger(), serial.ledger());
        let merged = IoLedger::merge_shards(3, shards);
        assert_eq!(merged.total(), batched.ledger().total());
        assert_eq!(batched.sim().unwrap().now_ms(), serial.sim().unwrap().now_ms());
        assert_eq!(batched.op_latency_ms(), serial.op_latency_ms());
        // The backends hold identical bytes.
        for index in 0..2 {
            assert_eq!(
                element(serial.backend_mut(), 2, index),
                element(batched.backend_mut(), 2, index)
            );
        }
    }

    #[test]
    fn execute_batch_failed_write_rolls_back_whole_batch() {
        // The batch performs 4 reads + 2 pre-image reads, then journals
        // and writes; the fault fires on the first write (backend op 8
        // after the 1 setup write) and kills the disk the second write
        // targets, so the first write must be rolled back to its pre-image
        // and nothing committed.
        let c = Cell::new;
        let inner = MemBackend::new(2, 2, 4);
        let mut faulty =
            FaultyBackend::new(Box::new(inner), vec![FaultPoint { at_op: 8, disk: 1 }]);
        faulty.write(0, 0, &[9, 9, 9, 9]).unwrap(); // op 1 — pre-existing value
        let mut pipe = IoPipeline::new(Box::new(faulty));
        let op_for = |index: usize, disk: usize| LoweredOp {
            reads: vec![(c(0, 0), addr(0, index)), (c(0, 1), addr(1, index))],
            plan: None,
            data_writes: vec![(c(0, disk), addr(disk, index))],
            parity_writes: vec![],
        };
        let ops = vec![op_for(0, 0), op_for(1, 1)];
        let mut scratches = vec![Stripe::zeroed(1, 2, 4); 2];
        scratches[0].set_element(c(0, 0), &[1, 1, 1, 1]);
        scratches[1].set_element(c(0, 1), &[2, 2, 2, 2]);
        let map = PartitionMap::build(2, 1);
        let err = pipe.execute_batch(&ops, &mut scratches, &map, 1).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // Disk 0's committed write was rolled back to its pre-image.
        assert_eq!(element(pipe.backend_mut(), 0, 0), [9, 9, 9, 9]);
        assert_eq!(pipe.ledger().total(), 0);
    }

    #[test]
    fn failed_write_rolls_back_previous_writes() {
        // Fault fires on the 4th backend op. The op below performs:
        // read (2, after the setup write) + pre-image read on disk 0 (3) +
        // pre-image read on disk 1 (4 → FAULT): the write phase aborts
        // while gathering pre-images, before anything is stored.
        let inner = MemBackend::new(2, 1, 4);
        let mut faulty = FaultyBackend::new(
            Box::new(inner),
            vec![FaultPoint { at_op: 4, disk: 1 }],
        );
        faulty.write(0, 0, &[9, 9, 9, 9]).unwrap(); // op 1 — pre-existing value
        let mut pipe = IoPipeline::new(Box::new(faulty));

        let c = Cell::new;
        let mut scratch = Stripe::zeroed(1, 2, 4);
        scratch.set_element(c(0, 0), &[1, 1, 1, 1]);
        scratch.set_element(c(0, 1), &[2, 2, 2, 2]);
        let op = LoweredOp {
            reads: vec![(c(0, 1), addr(1, 0))], // op 2
            plan: None,
            data_writes: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            parity_writes: vec![],
        };
        scratch.set_element(c(0, 0), &[1, 1, 1, 1]);
        let err = pipe.execute(&op, &mut scratch).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // Disk 0 still holds its pre-existing value.
        assert_eq!(element(pipe.backend_mut(), 0, 0), [9, 9, 9, 9]);
        // Nothing reached the ledger.
        assert_eq!(pipe.ledger().total(), 0);
    }

    #[test]
    fn mid_write_disk_failure_rolls_back_and_commits_the_journal() {
        for (name, run) in ENTRIES {
            let (dir, be) = seeded_file_backend("dead", name);
            // 3 pre-image reads, then writes: disk 1 dies as the second
            // write (op 5) is issued, after disk 0's element was stored.
            let faulty = FaultyBackend::new(Box::new(be), vec![FaultPoint { at_op: 5, disk: 1 }]);
            let mut pipe = IoPipeline::new(Box::new(faulty));
            let (op, mut scratch) = three_writes();
            let err = run(&mut pipe, &op, &mut scratch).unwrap_err();
            assert_eq!(err, DiskError::DiskFailed { disk: 1 }, "{name}");
            // The stored element is back at its pre-image, the element
            // after the failure was never touched, and the in-place undo
            // was complete, so the journal is gone.
            assert_eq!(element(pipe.backend_mut(), 0, 0), [9; 4], "{name}");
            assert_eq!(element(pipe.backend_mut(), 2, 0), [9; 4], "{name}");
            assert!(!dir.join("undo.journal").exists(), "{name}: journal left behind");
            assert_eq!(pipe.ledger().total(), 0, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn crash_mid_write_leaves_the_journal_for_reopen() {
        for (name, run) in ENTRIES {
            let (dir, be) = seeded_file_backend("crash", name);
            // 3 pre-image reads, one stored write, then the process dies
            // on the second write (op 5): no in-place undo is possible.
            let faulty = FaultyBackend::new(Box::new(be), Vec::new())
                .with_faults([Fault::CrashAtOp { at_op: 5 }]);
            let mut pipe = IoPipeline::new(Box::new(faulty));
            let (op, mut scratch) = three_writes();
            let err = run(&mut pipe, &op, &mut scratch).unwrap_err();
            assert_eq!(err, DiskError::Crashed, "{name}");
            assert_eq!(pipe.ledger().total(), 0, "{name}");
            drop(pipe);
            assert!(dir.join("undo.journal").exists(), "{name}: journal must survive a crash");
            let mut reopened = FileBackend::open(&dir).unwrap();
            assert_eq!(
                reopened.recovered_journal(),
                Some(JournalRecovery::RolledBack { elements: 3 }),
                "{name}"
            );
            for disk in 0..3 {
                assert_eq!(element(&mut reopened, disk, 0), [9; 4], "{name}: disk {disk}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unreadable_pre_image_is_zero_filled_and_the_write_heals_it() {
        let c = Cell::new;
        for (name, run) in ENTRIES {
            for disk_2_dies in [false, true] {
                let mut inner = MemBackend::new(3, 2, 4);
                for (disk, index) in [(0, 0), (1, 0), (2, 0), (2, 1)] {
                    inner.write(disk, index, &[9; 4]).unwrap();
                }
                // Backend ops: warm-up pre-image read + write (1-2), three
                // pre-image reads (3-5), then the writes (6-8) — disk 2
                // can die exactly at its own.
                let schedule =
                    if disk_2_dies { vec![FaultPoint { at_op: 8, disk: 2 }] } else { vec![] };
                let faulty = FaultyBackend::new(Box::new(inner), schedule)
                    .with_faults([Fault::LatentSector { disk: 0, index: 0 }]);
                let mut pipe = IoPipeline::new(Box::new(faulty));
                // Warm-up: leaves a `[9;4]` buffer in the pool for the
                // latent target's pre-image to recycle.
                let warm_up = LoweredOp {
                    data_writes: vec![(c(0, 0), addr(2, 1))],
                    ..Default::default()
                };
                run(&mut pipe, &warm_up, &mut Stripe::zeroed(1, 1, 4)).unwrap();

                let (op, mut scratch) = three_writes();
                let result = run(&mut pipe, &op, &mut scratch);
                let healed = element(pipe.backend_mut(), 0, 0);
                if disk_2_dies {
                    // Rolled back from the undo image: zeros, not the
                    // recycled buffer's stale bytes.
                    assert_eq!(result, Err(DiskError::DiskFailed { disk: 2 }), "{name}");
                    assert_eq!(healed, [0; 4], "{name}");
                    assert_eq!(element(pipe.backend_mut(), 1, 0), [9; 4], "{name}");
                } else {
                    assert!(result.is_ok(), "{name}: {result:?}");
                    assert_eq!(healed, [1; 4], "{name}");
                }
            }
        }
    }

    #[test]
    fn pre_image_pool_keeps_no_more_than_the_largest_single_op() {
        // Four ops of two writes each: the batch journals eight
        // pre-images but may keep only one op's worth for recycling.
        let c = Cell::new;
        let ops: Vec<LoweredOp> = (0..4)
            .map(|index| LoweredOp {
                data_writes: vec![(c(0, 0), addr(0, index))],
                parity_writes: vec![(c(0, 1), addr(1, index))],
                ..Default::default()
            })
            .collect();
        let mut scratches = vec![Stripe::zeroed(1, 2, 4); 4];
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(2, 4, 4)));
        let map = PartitionMap::build(4, 2);
        pipe.execute_batch(&ops, &mut scratches, &map, 2).unwrap();
        assert_eq!(pipe.pre_image_pool.len(), 2);
        // A single op recycles them and hands the same two back.
        pipe.execute(&ops[0], &mut scratches[0]).unwrap();
        assert_eq!(pipe.pre_image_pool.len(), 2);
    }
}
