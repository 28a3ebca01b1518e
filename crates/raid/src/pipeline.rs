//! The single I/O pipeline every volume operation lowers into.
//!
//! A [`LoweredOp`] is the normal form of one volume operation against one
//! stripe: element **reads** (backend → scratch cells), a compiled
//! [`XorPlan`] over the scratch, and element **writes** (scratch cells →
//! backend, split data/parity). [`IoPipeline::execute`] runs that form
//! against the [`DiskBackend`], merges the op's request set (an
//! [`IoLedger`] of its own) into the cumulative one and adds its busiest
//! disk's count to the volume operation's disk time
//! ([`IoPipeline::op_busiest_elements`]) — so
//! execution, timing, and accounting can never disagree about what was
//! issued. It is also where a volume operation is accounted: between
//! [`IoPipeline::begin_op`] and [`IoPipeline::end_op`] every request set
//! and cache event it records lands on the op's receipt as well as the
//! cumulative ledger, so the receipt is exactly what the ledger grew by,
//! retries and repairs included. An op with nothing to compute or store
//! needs no scratch: [`IoPipeline::fetch`] lands its reads in the caller's
//! buffer and commits through the same tail.
//!
//! A source is read where it already lives. The backend lends the op's
//! reads ([`DiskBackend::lend`]: slices of its own storage, or of a
//! staging buffer the pipeline reuses) and the caller may lend cells of
//! its own (`IoPipeline::execute_lent`); a read lands in the scratch
//! only where the scratch materialises its cell. So a scratch need hold
//! no more than the cells the op's plan computes
//! ([`LoweredOp::computed`]), and a dense one behaves as it always did.
//!
//! A rebuild's op needs less still: every cell it stores is one it
//! reconstructs ([`LoweredOp::reconstructs_its_writes`]), so
//! [`IoPipeline::execute_in_place`] computes each where it will be stored
//! ([`DiskBackend::lend_mut`]: a slice of the backend's own storage, or a
//! staging buffer the pipeline reuses and stores from).

use raid_core::io::IoLedger;
use raid_core::xplan::{Lent, LentMut, PlanCell};
use raid_core::{Cell, Stripe, XorPlan};

use crate::backend::DiskBackend;
use crate::disk::DiskError;

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

    /// The grid cells the op's plan computes — all a scratch must hold
    /// when every other cell the op uses is read or lent
    /// (`IoPipeline::execute_lent`). A cell may repeat.
    pub fn computed(&self) -> impl Iterator<Item = Cell> + '_ {
        self.plan.iter().flat_map(|plan| plan.targets())
    }

    /// True if the op stores something and every cell it stores is one
    /// its plan computes — a rebuild's or a latent repair's write-back.
    /// Such an op needs no cell of its own for what it stores: it runs
    /// through [`IoPipeline::execute_in_place`], as an op with no plan and
    /// no writes runs through [`IoPipeline::fetch`].
    pub fn reconstructs_its_writes(&self) -> bool {
        let Some(plan) = &self.plan else { return false };
        let mut writes = self.data_writes.iter().chain(&self.parity_writes).peekable();
        writes.peek().is_some() && writes.all(|&(cell, _)| plan.targets().any(|t| t == cell))
    }
}

/// Executes [`LoweredOp`]s against a backend, keeps the cumulative
/// [`IoLedger`], and accounts the current volume operation: its receipt
/// and its disk time.
pub struct IoPipeline {
    backend: Box<dyn DiskBackend>,
    ledger: IoLedger,
    /// The current operation's receipt, from [`IoPipeline::begin_op`]
    /// until [`IoPipeline::end_op`] hands it out; `None` outside one.
    op: Option<IoLedger>,
    /// The busiest disk's element count, summed over the request sets the
    /// current operation committed (reset via [`IoPipeline::begin_op`]).
    op_busiest: u64,
    /// The addresses of the op being executed, reused across ops.
    addrs: Vec<DiskAddr>,
    /// Where a backend with no storage to lend stages an op's reads, and
    /// then the cells it computes in place ([`DiskBackend::lend`]'s and
    /// [`DiskBackend::lend_mut`]'s defaults), reused across ops.
    staging: Vec<Vec<u8>>,
    /// The grid index of the cells an op's plan and writes read in
    /// place ([`Lent::in_table`]), reused across ops.
    lent_index: Vec<u16>,
}

impl std::fmt::Debug for IoPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPipeline")
            .field("backend", &self.backend.kind())
            .field("disks", &self.backend.disks())
            .finish()
    }
}

impl IoPipeline {
    /// Wraps a backend; the ledger starts at zero.
    pub fn new(backend: Box<dyn DiskBackend>) -> Self {
        let disks = backend.disks();
        IoPipeline {
            backend,
            ledger: IoLedger::new(disks),
            op: None,
            op_busiest: 0,
            addrs: Vec::new(),
            staging: Vec::new(),
            lent_index: Vec::new(),
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

    /// Zeroes the ledger (between experiments).
    pub fn reset_ledger(&mut self) {
        self.ledger = IoLedger::new(self.backend.disks());
    }

    /// Marks the start of a volume-level operation: it gets an empty
    /// receipt, and its disk-time count is reset. Whatever the previous
    /// operation recorded and did not hand out is dropped.
    pub fn begin_op(&mut self) {
        self.op = Some(IoLedger::new(self.backend.disks()));
        self.op_busiest = 0;
    }

    /// Ends the operation [`IoPipeline::begin_op`] started and hands out
    /// its receipt: every request set and event recorded since, which is
    /// what the cumulative ledger grew by. The disk-time count stays
    /// readable until the next operation begins.
    pub fn end_op(&mut self) -> IoLedger {
        self.op.take().unwrap_or_else(|| IoLedger::new(self.backend.disks()))
    }

    /// Records an event on the cumulative ledger and, inside an
    /// operation, on its receipt — the one way anything is counted.
    pub(crate) fn note(&mut self, event: impl Fn(&mut IoLedger)) {
        if let Some(op) = &mut self.op {
            event(op);
        }
        event(&mut self.ledger);
    }

    /// The operation's disk time since [`IoPipeline::begin_op`], in
    /// element service times: each committed request set's
    /// [`IoLedger::busiest_disk`], summed. The sets run one after
    /// another, and each finishes when its busiest disk does.
    pub fn op_busiest_elements(&self) -> u64 {
        self.op_busiest
    }

    /// Executes one lowered op: read its sources, run the XOR plan over
    /// `scratch`, store the writes, then commit the request set to the
    /// ledger and the op's disk time. Returns the committed set.
    ///
    /// The backend lends the reads ([`DiskBackend::lend`]); a read whose
    /// cell `scratch` materialises lands there, and the plan reads any
    /// other where the backend keeps it. The lent bytes are dropped before
    /// the write phase.
    ///
    /// The write phase is one [`DiskBackend::write_all`], all-or-nothing:
    /// if a write fails, the array holds what it held before the op, so
    /// the caller can re-plan (e.g. degraded) against a consistent array;
    /// on a journaling backend even a crash mid-phase is rolled back when
    /// the volume is reopened.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`DiskError`]; nothing is committed in that
    /// case, and no read has landed.
    ///
    /// # Panics
    ///
    /// Panics if the op touches a cell that is neither read nor held by
    /// `scratch`, or targets one that `scratch` does not hold.
    pub fn execute(&mut self, op: &LoweredOp, scratch: &mut Stripe) -> Result<IoLedger, DiskError> {
        self.run(op, scratch, &[], &[], &mut [])
    }

    /// [`Self::execute`] over cells the caller lends: each `(cell, bytes)`
    /// of `lent` is a scratch cell the op's plan and writes read in place,
    /// which `scratch` need not hold. Lent cells are read-only: the op
    /// must neither read into nor compute one.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`].
    ///
    /// # Panics
    ///
    /// As [`Self::execute`], and if a lent slice is not one element.
    pub(crate) fn execute_lent(
        &mut self,
        op: &LoweredOp,
        scratch: &mut Stripe,
        lent: &[(Cell, &[u8])],
    ) -> Result<IoLedger, DiskError> {
        self.run(op, scratch, lent, &[], &mut [])
    }

    /// [`Self::execute`], then copies each of `cells` into the matching
    /// element of `out` — from `scratch` if it holds the cell, else from
    /// the bytes the backend lent — once, before the lent bytes go.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`]; `out` is untouched then.
    ///
    /// # Panics
    ///
    /// As [`Self::execute`], and if `out` is not one element per cell or
    /// a cell is neither read nor held.
    pub(crate) fn execute_into(
        &mut self,
        op: &LoweredOp,
        scratch: &mut Stripe,
        cells: &[Cell],
        out: &mut [u8],
    ) -> Result<IoLedger, DiskError> {
        self.run(op, scratch, &[], cells, out)
    }

    /// The body of the three `execute` entry points.
    fn run(
        &mut self,
        op: &LoweredOp,
        scratch: &mut Stripe,
        lent: &[(Cell, &[u8])],
        copy_out: &[Cell],
        out: &mut [u8],
    ) -> Result<IoLedger, DiskError> {
        let (rows, cols, es) = (scratch.rows(), scratch.cols(), scratch.element_size());
        assert_eq!(out.len(), copy_out.len() * es, "one output element per copied cell");
        for &(cell, bytes) in lent {
            assert_eq!(bytes.len(), es, "lent {cell} is not one element");
        }
        self.debug_audit(op, rows, cols, (!lent.is_empty()).then_some(lent));
        self.addrs.clear();
        self.addrs.extend(op.reads.iter().map(|&(_, addr)| addr));
        let read = self.backend.lend(&self.addrs, &mut self.staging)?;
        for (&(cell, _), bytes) in op.reads.iter().zip(&read) {
            if scratch.holds(cell) {
                scratch.element_mut(cell).copy_from_slice(bytes);
            }
        }
        let reads = op.reads.iter().map(|&(cell, _)| cell).zip(read);
        let unlanded = reads.filter(|&(cell, _)| !scratch.holds(cell));
        let index = std::mem::take(&mut self.lent_index);
        let sources = Lent::in_table(index, rows, cols, unlanded.chain(lent.iter().copied()));
        if let Some(plan) = &op.plan {
            plan.execute_lent(scratch, &sources, &mut LentMut::default());
        }
        for (&cell, element) in copy_out.iter().zip(out.chunks_exact_mut(es)) {
            element.copy_from_slice(cell_bytes(scratch, &sources, cell));
        }
        self.lent_index = sources.into_table();
        self.store(op, scratch, lent)?;
        Ok(self.commit(op))
    }

    /// Executes an op that reconstructs every cell it stores
    /// ([`LoweredOp::reconstructs_its_writes`]) with no scratch for them:
    /// the backend lends the reads and the write targets together
    /// ([`DiskBackend::lend_mut`]), the plan computes each written cell in
    /// its target, and [`DiskBackend::store_lent`] stores them — on a
    /// backend that lends its own storage, the bytes are already there.
    /// A cell the plan computes but the op does not store (a second lost
    /// column, rebuilt onto no spare) is the one thing it allocates, in a
    /// sparse scratch. The request set is committed as
    /// [`IoPipeline::execute`] commits it.
    ///
    /// A target's bytes are stale until the plan computes them; the plan
    /// reads none before it has.
    ///
    /// # Errors
    ///
    /// As [`IoPipeline::execute`].
    ///
    /// # Panics
    ///
    /// Panics if the op does not reconstruct its writes.
    pub fn execute_in_place(&mut self, op: &LoweredOp) -> Result<IoLedger, DiskError> {
        assert!(
            op.reconstructs_its_writes(),
            "only an op that reconstructs its writes runs in place"
        );
        let plan = op.plan.as_ref().expect("an op that reconstructs its writes has a plan");
        let (rows, cols, es) = (plan.rows(), plan.cols(), self.backend.element_size());
        self.debug_audit(op, rows, cols, Some(&[]));
        let writes = || op.data_writes.iter().chain(&op.parity_writes);
        let stored = |cell: Cell| writes().any(|&(written, _)| written == cell);
        let mut scratch = Stripe::sparse(rows, cols, es, op.computed().filter(|&c| !stored(c)));
        self.addrs.clear();
        self.addrs.extend(op.reads.iter().chain(writes()).map(|&(_, addr)| addr));
        let (read_addrs, write_addrs) = self.addrs.split_at(op.reads.len());
        let (read, lent) = self.backend.lend_mut(read_addrs, write_addrs, &mut self.staging)?;
        let index = std::mem::take(&mut self.lent_index);
        let sources = Lent::in_table(index, rows, cols, op.reads.iter().map(|&(c, _)| c).zip(read));
        let targets = writes().map(|&(cell, _)| cell).zip(lent);
        let mut in_place = LentMut::of(rows, cols, targets);
        plan.execute_lent(&mut scratch, &sources, &mut in_place);
        self.lent_index = sources.into_table();
        self.backend.store_lent(read_addrs, write_addrs, &self.staging)?;
        Ok(self.commit(op))
    }

    /// Executes a plain fetch — an op with no plan and no writes, which
    /// therefore needs no scratch: its `k`-th read lands in the `k`-th
    /// element of `out`, then the request set is committed exactly as
    /// [`IoPipeline::execute`] commits it.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`DiskError`]; nothing is committed in that
    /// case, and `out` holds the elements read before it.
    ///
    /// # Panics
    ///
    /// Panics if `op` carries a plan or writes, or if `out` is not one
    /// element per read.
    pub fn fetch(&mut self, op: &LoweredOp, out: &mut [u8]) -> Result<IoLedger, DiskError> {
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
        self.debug_audit(op, rows, cols, None);
        for (&(_, addr), element) in op.reads.iter().zip(out.chunks_exact_mut(es)) {
            self.backend.read(addr.disk, addr.index, element)?;
        }
        Ok(self.commit(op))
    }

    /// Debug builds statically audit every op before touching the
    /// backend: structural defects in the IR (out-of-scratch cells,
    /// duplicate reads/writes, plan/scratch shape skew, a plan step
    /// targeting a read or lent cell) are lowering bugs, and executing
    /// them would silently corrupt elements. A caller that lends cells
    /// cut its scratch to the cells the op computes, and an op run in
    /// place computes its targets over stale bytes, so for them `preset`
    /// names every cell the op may consume unwritten — the lent ones, or
    /// none — and the audit also checks that every cell the op consumes
    /// is read, preset or computed first.
    fn debug_audit(
        &self,
        op: &LoweredOp,
        rows: usize,
        cols: usize,
        preset: Option<&[(Cell, &[u8])]>,
    ) {
        if cfg!(debug_assertions) {
            let disks = self.backend.disks();
            let preset: Option<Vec<Cell>> =
                preset.map(|lent| lent.iter().map(|&(cell, _)| cell).collect());
            if let Err(e) = crate::audit::audit_lowered(op, rows, cols, disks, preset.as_deref()) {
                panic!("lowered op failed static audit: {e}");
            }
        }
    }

    /// The tail every entry point ends in, reached only once the op's
    /// backend I/O succeeded: the request set — derived from the op alone
    /// — is noted on the ledger and its busiest disk's count added to the
    /// op's disk time.
    fn commit(&mut self, op: &LoweredOp) -> IoLedger {
        let rs = crate::audit::predicted_request_set(op, self.backend.disks());
        self.op_busiest += rs.busiest_disk();
        self.note(|ledger| ledger.merge(&rs));
        rs
    }

    /// The write phase: the op's writes, in target order, as one
    /// all-or-nothing [`DiskBackend::write_all`] — so the op either
    /// commits fully or leaves the array untouched, even across process
    /// death on a journaling backend. Each is stored from the scratch or
    /// from the caller's `lent` bytes.
    fn store(
        &mut self,
        op: &LoweredOp,
        scratch: &Stripe,
        lent: &[(Cell, &[u8])],
    ) -> Result<(), DiskError> {
        let index = std::mem::take(&mut self.lent_index);
        let lent = Lent::in_table(index, scratch.rows(), scratch.cols(), lent.iter().copied());
        let targets: Vec<(DiskAddr, &[u8])> = op
            .data_writes
            .iter()
            .chain(&op.parity_writes)
            .map(|&(cell, addr)| (addr, cell_bytes(scratch, &lent, cell)))
            .collect();
        let stored = self.backend.write_all(&targets);
        self.lent_index = lent.into_table();
        stored
    }
}

/// The bytes of `cell`: the scratch's own if it holds the cell, else the
/// lent ones; a cell neither holds panics, naming it.
fn cell_bytes<'a>(scratch: &'a Stripe, lent: &Lent<'a>, cell: Cell) -> &'a [u8] {
    match lent.get(cell) {
        Some(bytes) if !scratch.holds(cell) => bytes,
        _ => scratch.element(cell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        Fault, FaultPoint, FaultyBackend, FileBackend, JournalRecovery, MemBackend,
    };

    fn addr(disk: usize, index: usize) -> DiskAddr {
        DiskAddr { disk, index }
    }

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

    /// A fresh 3-disk file backend under a per-test directory, every
    /// element 0 preset to `[9;4]`.
    fn seeded_file_backend(test: &str) -> (std::path::PathBuf, FileBackend) {
        let dir = std::env::temp_dir().join(format!("hvraid-pipe-{test}-{}", std::process::id()));
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
    fn a_scratch_of_its_computed_cells_reads_every_other_cell_where_it_lives() {
        // c2 = c0 ^ c1: c0 read from the backend, c1 lent by the caller,
        // stored from there; only c2 has a buffer.
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 4)));
        pipe.backend_mut().write(0, 0, &[1, 2, 3, 4]).unwrap();
        let c = Cell::new;
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0))],
            plan: Some(XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())])),
            data_writes: vec![(c(0, 1), addr(1, 0))],
            parity_writes: vec![(c(0, 2), addr(2, 0))],
        };
        let mut scratch = Stripe::sparse(1, 3, 4, op.computed());
        pipe.execute_lent(&op, &mut scratch, &[(c(0, 1), &[4; 4])]).unwrap();
        assert_eq!(element(pipe.backend_mut(), 1, 0), [4; 4]);
        assert_eq!(element(pipe.backend_mut(), 2, 0), [5, 6, 7, 0]);
        // A read the scratch does not hold is copied out of the lent bytes.
        let fetch = LoweredOp::read_only(vec![(c(0, 0), addr(0, 0)), (c(0, 2), addr(2, 0))]);
        let mut out = [0u8; 8];
        let mut nothing = Stripe::sparse(1, 3, 4, []);
        pipe.execute_into(&fetch, &mut nothing, &[c(0, 2), c(0, 0)], &mut out).unwrap();
        assert_eq!(out, [5, 6, 7, 0, 1, 2, 3, 4]);
        assert_eq!(pipe.ledger().total(), 5);
    }

    #[test]
    fn op_disk_time_sums_each_commit_s_busiest_disk() {
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(2, 2, 4)));
        let c = Cell::new;
        // Two reads on disk 0, one write on disk 1: disk 0 is the busiest.
        let op = LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0)), (c(1, 0), addr(0, 1))],
            plan: None,
            data_writes: vec![(c(0, 1), addr(1, 0))],
            parity_writes: vec![],
        };
        let mut scratch = Stripe::zeroed(2, 2, 4);
        // A set executed outside an op reaches only the cumulative ledger.
        pipe.execute(&op, &mut scratch).unwrap();
        let before = pipe.ledger().clone();
        pipe.begin_op();
        assert_eq!(pipe.execute(&op, &mut scratch).unwrap().busiest_disk(), 2);
        pipe.execute(&op, &mut scratch).unwrap();
        pipe.note(|ledger| ledger.note_cache_hits(3));
        assert_eq!(pipe.op_busiest_elements(), 4, "the op's two sets run one after another");
        let receipt = pipe.end_op();
        assert_eq!(receipt.per_disk_totals(), vec![4, 2]);
        assert_eq!(receipt.cache_hits(), 3);
        assert_eq!(receipt, pipe.ledger().delta_since(&before), "the ledger's growth");
        assert_eq!(pipe.op_busiest_elements(), 4, "readable after the op ends");
        pipe.begin_op();
        assert_eq!(pipe.op_busiest_elements(), 0);
        assert_eq!(pipe.end_op().total(), 0);
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
        assert_eq!(direct.op_busiest_elements(), 1);
        assert_eq!(direct.op_busiest_elements(), dense.op_busiest_elements());
    }

    #[test]
    fn a_read_error_mid_fetch_commits_nothing() {
        // Disk 1 dies as the second read is issued; the third read, its
        // own, is the one that fails.
        let (backend, op) = three_reads();
        let faulty = FaultyBackend::new(Box::new(backend), vec![FaultPoint { at_op: 2, disk: 1 }]);
        let mut pipe = IoPipeline::new(Box::new(faulty));
        pipe.begin_op();
        let mut out = [0u8; 12];
        assert_eq!(pipe.fetch(&op, &mut out), Err(DiskError::DiskFailed { disk: 1 }));
        assert_eq!(out, [3, 3, 3, 3, 1, 1, 1, 1, 0, 0, 0, 0], "the reads before the error landed");
        assert_eq!((pipe.ledger().total(), pipe.op_busiest_elements()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "only a plain fetch runs without a scratch")]
    fn fetch_refuses_an_op_with_something_to_store() {
        let (op, _) = three_writes();
        let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 4)));
        let _ = pipe.fetch(&op, &mut []);
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
        let (dir, be) = seeded_file_backend("dead");
        // 3 pre-image reads, then writes: disk 1 dies as the second write
        // (op 5) is issued, after disk 0's element was stored.
        let faulty = FaultyBackend::new(Box::new(be), vec![FaultPoint { at_op: 5, disk: 1 }]);
        let mut pipe = IoPipeline::new(Box::new(faulty));
        let (op, mut scratch) = three_writes();
        let err = pipe.execute(&op, &mut scratch).unwrap_err();
        assert_eq!(err, DiskError::DiskFailed { disk: 1 });
        // The stored element is back at its pre-image, the element after
        // the failure was never touched, and the in-place undo was
        // complete, so the journal is gone.
        assert_eq!(element(pipe.backend_mut(), 0, 0), [9; 4]);
        assert_eq!(element(pipe.backend_mut(), 2, 0), [9; 4]);
        assert!(!dir.join("undo.journal").exists(), "journal left behind");
        assert_eq!(pipe.ledger().total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_write_leaves_the_journal_for_reopen() {
        let (dir, be) = seeded_file_backend("crash");
        // 3 pre-image reads, one stored write, then the process dies on
        // the second write (op 5): no in-place undo is possible.
        let faulty =
            FaultyBackend::new(Box::new(be), Vec::new()).with_faults([Fault::CrashAtOp { at_op: 5 }]);
        let mut pipe = IoPipeline::new(Box::new(faulty));
        let (op, mut scratch) = three_writes();
        let err = pipe.execute(&op, &mut scratch).unwrap_err();
        assert_eq!(err, DiskError::Crashed);
        assert_eq!(pipe.ledger().total(), 0);
        drop(pipe);
        assert!(dir.join("undo.journal").exists(), "journal must survive a crash");
        let mut reopened = FileBackend::open(&dir).unwrap();
        assert_eq!(reopened.recovered_journal(), Some(JournalRecovery::RolledBack { elements: 3 }));
        for disk in 0..3 {
            assert_eq!(element(&mut reopened, disk, 0), [9; 4], "disk {disk}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_pre_image_is_zero_filled_and_the_write_heals_it() {
        for disk_2_dies in [false, true] {
            let mut inner = MemBackend::new(3, 1, 4);
            for disk in 0..3 {
                inner.write(disk, 0, &[9; 4]).unwrap();
            }
            // Backend ops: three pre-image reads (1-3), then the writes
            // (4-6) — disk 2 can die exactly at its own.
            let schedule = if disk_2_dies { vec![FaultPoint { at_op: 6, disk: 2 }] } else { vec![] };
            let faulty = FaultyBackend::new(Box::new(inner), schedule)
                .with_faults([Fault::LatentSector { disk: 0, index: 0 }]);
            let mut pipe = IoPipeline::new(Box::new(faulty));
            let (op, mut scratch) = three_writes();
            let result = pipe.execute(&op, &mut scratch);
            let healed = element(pipe.backend_mut(), 0, 0);
            if disk_2_dies {
                // Rolled back from the undo image: zeros, not the
                // unreadable sector's old bytes.
                assert_eq!(result, Err(DiskError::DiskFailed { disk: 2 }));
                assert_eq!(healed, [0; 4]);
                assert_eq!(element(pipe.backend_mut(), 1, 0), [9; 4]);
            } else {
                assert!(result.is_ok(), "{result:?}");
                assert_eq!(healed, [1; 4]);
            }
        }
    }
}
