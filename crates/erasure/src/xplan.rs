//! Compiled XOR plans: geometry resolved once, executed per stripe.
//!
//! Encoding, erasure decoding and recovery-schedule execution all reduce to
//! the same primitive — `dst = XOR(srcs)` over element buffers — but the
//! seed implementation re-derived the geometry (chain walks, cell → buffer
//! lookups) and allocated a scratch `Vec` for **every element of every
//! stripe**. An [`XorPlan`] hoists all of that out of the hot path: cells
//! are resolved to flat buffer indices at compile time, the per-target
//! source lists live in one shared arena, and [`XorPlan::execute`]
//! interprets the plan against a [`Stripe`] with zero per-op allocation and
//! zero geometry math per stripe.
//!
//! # Buffer index space
//!
//! Ops address buffers by flat index. Indices `0..rows*cols` are the
//! stripe's grid cells; indices `rows*cols..rows*cols + num_temps` are
//! **scratch temps** — partial sums the optimizer ([`crate::xopt`])
//! extracts so a source set shared by several ops is computed once. Temps
//! live only for the duration of one [`XorPlan::execute`] call; they are
//! never part of the stripe.
//!
//! # Tiled execution
//!
//! `execute` walks **all** ops over one L1 tile
//! ([`raid_math::xor::L1_TILE_BYTES`]) of every element before advancing
//! to the next tile, so the working set (every element's current tile)
//! stays cache-resident across the whole plan instead of each element
//! being streamed through cache once per op; an element at or below one
//! tile is a single tile. This is valid because every op is a pure
//! byte-position-wise XOR: byte `k` of the output depends only on byte
//! `k` of the inputs.
//!
//! # Lent sources
//!
//! A source need not live in the stripe. [`XorPlan::execute_lent`] reads
//! a cell the stripe does not materialise from a [`Lent`] slice — bytes a
//! backend or a caller already holds — so a caller allocates only the
//! cells the plan computes. Nor need a target: a [`LentMut`] slice is a
//! cell the plan computes where it will be stored (a backend's own
//! storage), and a later step reads it there. Every path (tiled, untiled,
//! lent or not) is the same interpreter with the same source lookup.
//!
//! Plans come from five compilers:
//!
//! * [`XorPlan::compile_encode`] — every parity chain, in dependency
//!   (topological) order; the *cascaded* specification form;
//! * [`XorPlan::compile_encode_expanded`] — each parity as its data-only
//!   GF(2) expansion (cascades substituted and cancelled); the optimizer's
//!   preferred starting point, because it exposes cross-chain sharing that
//!   the cascaded form hard-codes;
//! * [`XorPlan::compile_decode`] — a [`DecodePlan`]'s reconstruction steps;
//! * [`XorPlan::compile_repairs`] — one chain per lost cell, as the
//!   degraded-read and single-disk recovery planners choose them;
//! * [`XorPlan::from_steps`] — any ordered `target = XOR(sources)`
//!   sequence, e.g. one of HV Code's Algorithm-1 recovery chains.
//!
//! [`XorPlan::optimized`] runs any plan through the `xopt` middle-end.

use crate::decoder::DecodePlan;
use crate::geometry::Cell;
use crate::layout::{ChainId, Layout};
use crate::stripe::{absent, encode_order, Stripe};
use raid_math::xor::{tiles, xor_gather_into};

/// One compiled step: overwrite `dst` with the XOR of a source range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct XorOp {
    /// Linear buffer index of the target (grid cell or scratch temp).
    dst: u32,
    /// Start of this op's slice of [`XorPlan::srcs`].
    src_start: u32,
    /// End (exclusive) of this op's slice of [`XorPlan::srcs`].
    src_end: u32,
}

/// A buffer a plan op addresses: a stripe grid cell or a scratch temp
/// from the plan's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlanCell {
    /// A cell of the `rows × cols` stripe grid.
    Grid(Cell),
    /// Scratch temp `t<i>`, alive only within one `execute` call.
    Temp(usize),
}

impl std::fmt::Display for PlanCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCell::Grid(c) => write!(f, "{c}"),
            PlanCell::Temp(t) => write!(f, "t{t}"),
        }
    }
}

/// Zero-copy view of one compiled op: the target's flat buffer index plus
/// the source indices borrowed straight from the plan's arena. Decode the
/// indices with [`XorPlan::plan_cell`]. This is the view `raid-verify`
/// interprets — unlike [`XorPlan::steps`] it allocates nothing and can
/// represent scratch temps.
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    /// Flat buffer index of the target.
    pub dst: u32,
    /// Flat buffer indices of the sources.
    pub srcs: &'a [u32],
}

/// A flat, ready-to-run sequence of `dst = XOR(srcs)` buffer operations.
///
/// The plan is tied to a grid shape (`rows × cols`), not to a particular
/// stripe: compile once, run against any number of stripes of that shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XorPlan {
    rows: usize,
    cols: usize,
    ops: Vec<XorOp>,
    /// Source buffer indices for all ops, back to back.
    srcs: Vec<u32>,
    /// Scratch slots beyond the grid (buffer indices
    /// `rows*cols .. rows*cols + temps`), element-sized at execution.
    temps: usize,
    /// Grid cells this plan promises to produce, sorted. `None` means
    /// "every grid cell the ops target" (the pre-optimizer default); an
    /// optimized plan records its original's target set so dead-op
    /// elimination and equivalence proofs know what must be preserved.
    outputs: Option<Vec<u32>>,
}

impl XorPlan {
    /// Compiles an ordered list of `target = XOR(sources)` steps.
    ///
    /// # Panics
    ///
    /// Panics if any cell lies outside `rows × cols` or a step lists its
    /// own target as a source (the XOR would then read the half-written
    /// destination).
    pub fn from_steps<'a, I>(rows: usize, cols: usize, steps: I) -> XorPlan
    where
        I: IntoIterator<Item = (Cell, &'a [Cell])>,
    {
        let steps = steps.into_iter();
        let mut plan = XorPlan::with_capacity(rows, cols, steps.size_hint().0, 0);
        for (target, sources) in steps {
            plan.push_step(target, sources.iter().copied());
        }
        plan
    }

    /// An empty `rows × cols` plan with room for `ops` steps reading
    /// `srcs` sources in all, to be filled by [`XorPlan::push_step`].
    pub fn with_capacity(rows: usize, cols: usize, ops: usize, srcs: usize) -> XorPlan {
        XorPlan {
            rows,
            cols,
            ops: Vec::with_capacity(ops),
            srcs: Vec::with_capacity(srcs),
            temps: 0,
            outputs: None,
        }
    }

    /// Appends the step `target = XOR(sources)`.
    ///
    /// # Panics
    ///
    /// As [`XorPlan::from_steps`].
    pub fn push_step(&mut self, target: Cell, sources: impl IntoIterator<Item = Cell>) {
        let (rows, cols) = (self.rows, self.cols);
        let in_bounds = |c: Cell| c.row < rows && c.col < cols;
        assert!(in_bounds(target), "plan target {target} out of bounds");
        let src_start = self.srcs.len() as u32;
        for s in sources {
            assert!(in_bounds(s), "plan source {s} out of bounds");
            assert_ne!(s, target, "plan step reads its own target {target}");
            self.srcs.push(s.index(cols) as u32);
        }
        let dst = target.index(cols) as u32;
        self.ops.push(XorOp { dst, src_start, src_end: self.srcs.len() as u32 });
    }

    /// Compiles from flat buffer indices, possibly addressing scratch
    /// temps — the optimizer's construction path.
    ///
    /// # Panics
    ///
    /// Panics if any index is outside `rows*cols + temps`, an op reads its
    /// own target, or an output index is outside the grid.
    pub(crate) fn from_indexed_ops(
        rows: usize,
        cols: usize,
        temps: usize,
        indexed: &[(u32, Vec<u32>)],
        outputs: Option<Vec<u32>>,
    ) -> XorPlan {
        let nbufs = (rows * cols + temps) as u32;
        let mut ops = Vec::with_capacity(indexed.len());
        let mut srcs: Vec<u32> = Vec::new();
        for (dst, sources) in indexed {
            assert!(*dst < nbufs, "plan target index {dst} out of bounds");
            let src_start = srcs.len() as u32;
            for &s in sources {
                assert!(s < nbufs, "plan source index {s} out of bounds");
                assert_ne!(s, *dst, "plan step reads its own target {dst}");
                srcs.push(s);
            }
            ops.push(XorOp { dst: *dst, src_start, src_end: srcs.len() as u32 });
        }
        if let Some(out) = &outputs {
            assert!(
                out.iter().all(|&o| (o as usize) < rows * cols),
                "plan output outside the grid"
            );
        }
        XorPlan { rows, cols, ops, srcs, temps, outputs }
    }

    /// Compiles `layout`'s full parity computation, chains ordered so that
    /// a parity appearing in another chain (RDP, HDP) is produced before it
    /// is consumed.
    ///
    /// Prefer [`Layout::encode_plan`], which compiles (and optimizes) once
    /// and caches.
    pub fn compile_encode(layout: &Layout) -> XorPlan {
        let chains = layout.chains();
        XorPlan::from_steps(
            layout.rows(),
            layout.cols(),
            encode_order(layout)
                .into_iter()
                .map(|id| (chains[id].parity, chains[id].members.as_slice())),
        )
    }

    /// Compiles `layout`'s parity computation in *expanded* form: each
    /// parity's sources are its full data-only GF(2) expansion, with
    /// cascade references substituted and double-counted cells cancelled.
    ///
    /// Semantically identical to [`XorPlan::compile_encode`] (both produce
    /// the layout's parity equations), but where the cascaded form
    /// hard-codes one particular sharing (reusing whole parity cells),
    /// the expanded form is a pure specification — it exposes *all*
    /// cross-chain overlap for [`crate::xopt`] to rediscover as shared
    /// partial sums, which on RDP/HDP recovers the cascade automatically
    /// and on EVENODD finds sharing the chain form never expressed.
    pub fn compile_encode_expanded(layout: &Layout) -> XorPlan {
        use std::collections::BTreeSet;
        let cols = layout.cols();
        let chains = layout.chains();
        let ncells = layout.rows() * cols;
        // expansion[i] = data-only cell set for parity cell i, once computed.
        let mut expansion: Vec<Option<BTreeSet<u32>>> = vec![None; ncells];
        fn toggle(set: &mut BTreeSet<u32>, i: u32) {
            if !set.remove(&i) {
                set.insert(i);
            }
        }
        let mut steps: Vec<(Cell, Vec<Cell>)> = Vec::with_capacity(chains.len());
        for id in encode_order(layout) {
            let ch = &chains[id];
            let mut set = BTreeSet::new();
            for &m in &ch.members {
                let mi = m.index(cols) as u32;
                match &expansion[mi as usize] {
                    // A cascaded parity member: substitute its expansion
                    // (already computed — encode_order is topological).
                    Some(exp) => exp.iter().for_each(|&e| toggle(&mut set, e)),
                    None => toggle(&mut set, mi),
                }
            }
            steps.push((
                ch.parity,
                set.iter().map(|&i| Cell::from_index(i as usize, cols)).collect(),
            ));
            expansion[ch.parity.index(cols)] = Some(set);
        }
        XorPlan::from_steps(
            layout.rows(),
            layout.cols(),
            steps.iter().map(|(t, s)| (*t, s.as_slice())),
        )
    }

    /// Compiles a decoder reconstruction plan for `layout`'s grid.
    pub fn compile_decode(layout: &Layout, plan: &DecodePlan) -> XorPlan {
        XorPlan::from_steps(
            layout.rows(),
            layout.cols(),
            plan.steps.iter().map(|s| (s.target, s.sources.as_slice())),
        )
    }

    /// Compiles `(lost cell, repair chain)` choices — the shape the
    /// degraded-read and single-disk recovery planners return: each cell
    /// is rebuilt as the XOR of the other cells of its chosen chain.
    pub fn compile_repairs(layout: &Layout, repairs: &[(Cell, ChainId)]) -> XorPlan {
        let sources: Vec<Vec<Cell>> = repairs
            .iter()
            .map(|(cell, chain)| layout.chain(*chain).cells().filter(|c| c != cell).collect())
            .collect();
        XorPlan::from_steps(
            layout.rows(),
            layout.cols(),
            repairs.iter().zip(&sources).map(|((cell, _), src)| (*cell, src.as_slice())),
        )
    }

    /// Runs this plan through the [`crate::xopt`] middle-end: shared
    /// partial sums become scratch temps, ops are reordered for source
    /// locality, dead ops are dropped. Never returns a plan with more
    /// source reads than `self`; falls back to a clone of `self` whenever
    /// optimization finds nothing (or bails on an unusual plan shape).
    pub fn optimized(&self) -> XorPlan {
        crate::xopt::optimize(self).0
    }

    /// Rows of the grid this plan addresses.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the grid this plan addresses.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of compiled `dst = XOR(srcs)` operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of scratch-temp slots this plan allocates per execution.
    pub fn num_temps(&self) -> usize {
        self.temps
    }

    /// Total source-buffer reads across all operations — the plan's XOR
    /// cost in element reads.
    pub fn num_source_reads(&self) -> usize {
        self.srcs.len()
    }

    /// Decodes a flat buffer index into grid cell or scratch temp.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside `rows*cols + num_temps`.
    pub fn plan_cell(&self, idx: u32) -> PlanCell {
        let ncells = self.rows * self.cols;
        let i = idx as usize;
        if i < ncells {
            PlanCell::Grid(Cell::from_index(i, self.cols))
        } else {
            assert!(i < ncells + self.temps, "buffer index {idx} out of bounds");
            PlanCell::Temp(i - ncells)
        }
    }

    /// Zero-copy view of op `i` (plan order). See [`StepView`].
    pub fn step_view(&self, i: usize) -> StepView<'_> {
        let op = &self.ops[i];
        StepView {
            dst: op.dst,
            srcs: &self.srcs[op.src_start as usize..op.src_end as usize],
        }
    }

    /// Zero-copy iteration over all ops in execution order — the hot-path
    /// replacement for [`XorPlan::steps`], and the only view that can
    /// represent scratch temps.
    pub fn step_views(&self) -> impl Iterator<Item = StepView<'_>> {
        (0..self.ops.len()).map(|i| self.step_view(i))
    }

    /// The grid cells this plan promises to produce, sorted ascending by
    /// flat index. For an unoptimized plan this is exactly its grid
    /// targets; an optimized plan carries its original's output set.
    pub fn output_indices(&self) -> Vec<u32> {
        match &self.outputs {
            Some(out) => out.clone(),
            None => {
                let ncells = (self.rows * self.cols) as u32;
                let mut out: Vec<u32> =
                    self.ops.iter().map(|op| op.dst).filter(|&d| d < ncells).collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// The grid target cells in execution order (scratch temps skipped).
    pub fn targets(&self) -> impl Iterator<Item = Cell> + '_ {
        let ncells = (self.rows * self.cols) as u32;
        self.ops
            .iter()
            .filter(move |op| op.dst < ncells)
            .map(|op| Cell::from_index(op.dst as usize, self.cols))
    }

    /// The compiled ops as `(target, sources)` cell lists, in execution
    /// order. Cold path: allocates one `Vec` per op — prefer
    /// [`XorPlan::step_views`].
    ///
    /// # Panics
    ///
    /// Panics if the plan carries scratch temps (a temp has no [`Cell`]
    /// representation); temp-bearing plans must be walked via
    /// [`XorPlan::step_views`].
    pub fn steps(&self) -> impl Iterator<Item = (Cell, Vec<Cell>)> + '_ {
        assert!(self.temps == 0, "steps() cannot render scratch temps; use step_views()");
        self.ops.iter().map(|op| {
            let srcs = self.srcs[op.src_start as usize..op.src_end as usize]
                .iter()
                .map(|&s| Cell::from_index(s as usize, self.cols))
                .collect();
            (Cell::from_index(op.dst as usize, self.cols), srcs)
        })
    }

    /// Runs the plan against a stripe: each op overwrites its target
    /// element with the XOR of its source elements, in plan order.
    ///
    /// The plan runs **tiled**: all ops are applied to one L1-sized chunk
    /// ([`raid_math::xor::L1_TILE_BYTES`]) of every element before
    /// advancing, so the stripe's working set stays cache-resident across
    /// the whole plan; an element at or below one tile is one chunk, one
    /// single-pass multi-source XOR kernel call per op. Temps are
    /// allocated per call and freed on return; a temp-free plan allocates
    /// nothing.
    ///
    /// (A source-major "streaming" execution — read each source once,
    /// scatter into its consumers — was tried and measured slower on
    /// cache-resident stripes: it multiplies target read/write traffic
    /// by the chain length, which costs more than the source re-reads
    /// it saves while the whole stripe sits in L2.)
    ///
    /// # Panics
    ///
    /// Panics if the stripe's shape differs from the plan's, or if an op
    /// touches a cell the stripe does not materialise.
    pub fn execute(&self, stripe: &mut Stripe) {
        self.execute_lent(stripe, &Lent::default(), &mut LentMut::default());
    }

    /// [`XorPlan::execute`] with lent cells: a source the stripe does not
    /// materialise is read where `lent` or `targets` says it lives, and a
    /// target the stripe does not materialise is computed in the
    /// `targets` slice lent for it — where a later step reads it too.
    /// `lent` cells are read-only.
    ///
    /// # Panics
    ///
    /// Panics if the stripe's shape differs from the plan's, if an op
    /// reads a cell neither the stripe nor a lender holds, or if it
    /// targets a cell neither the stripe nor `targets` holds (a `lent`
    /// cell included).
    pub fn execute_lent(&self, stripe: &mut Stripe, lent: &Lent<'_>, targets: &mut LentMut<'_>) {
        self.check_shape(stripe);
        let es = stripe.element_size();
        self.run(stripe, lent, targets, tiles(es));
    }

    /// Whole-element per-op execution, bypassing tiling — the reference
    /// the equivalence tests compare [`XorPlan::execute`]'s tiled path
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the stripe's shape differs from the plan's.
    pub fn execute_untiled(&self, stripe: &mut Stripe) {
        self.check_shape(stripe);
        let es = stripe.element_size();
        let whole = std::iter::once((0, es)).filter(|&(_, n)| n > 0);
        self.run(stripe, &Lent::default(), &mut LentMut::default(), whole);
    }

    fn check_shape(&self, stripe: &Stripe) {
        assert_eq!(stripe.rows(), self.rows, "plan/stripe row mismatch");
        assert_eq!(stripe.cols(), self.cols, "plan/stripe col mismatch");
    }

    /// The one interpreter: for each `(offset, len)` chunk, applies every
    /// op to that chunk of its buffers. A buffer is the stripe's cell if
    /// it holds one, else the `targets` slice, else (a source only) the
    /// `lent` slice, else a scratch temp. Temps are allocated
    /// element-sized (not tile-sized) so grid and temp buffers slice
    /// uniformly; they are still touched tile-by-tile in order, so their
    /// hot tile stays resident like everyone else's.
    fn run(
        &self,
        stripe: &mut Stripe,
        lent: &Lent<'_>,
        targets: &mut LentMut<'_>,
        chunks: impl Iterator<Item = (usize, usize)>,
    ) {
        const GATHER: usize = 64;
        let ncells = self.rows * self.cols;
        let es = stripe.element_size();
        let mut temp_bufs: Vec<Vec<u8>> = (0..self.temps).map(|_| vec![0u8; es]).collect();
        for (off, len) in chunks {
            for op in &self.ops {
                let dst = op.dst as usize;
                let srcs = &self.srcs[op.src_start as usize..op.src_end as usize];
                // Detach the target so the sources can be borrowed freely
                // (an op never reads its own target).
                let mut out = if dst >= ncells {
                    Detached::Owned(std::mem::take(&mut temp_bufs[dst - ncells]))
                } else if let Some(k) =
                    targets.0.slot(dst).filter(|_| stripe.get_buf(dst).is_none())
                {
                    Detached::Lent(k, std::mem::take(&mut targets.0.bytes[k]))
                } else {
                    Detached::Owned(stripe.take_buf(dst))
                };
                let source = |s: u32| -> &[u8] {
                    let i = s as usize;
                    let buf = if i >= ncells {
                        &temp_bufs[i - ncells]
                    } else if let Some(held) = stripe.get_buf(i) {
                        held
                    } else if let Some(k) = targets.0.slot(i) {
                        &*targets.0.bytes[k]
                    } else {
                        match lent.0.slot(i) {
                            Some(k) => lent.0.bytes[k],
                            None => absent(i, self.cols),
                        }
                    };
                    &buf[off..off + len]
                };
                let out_bytes = match &mut out {
                    Detached::Owned(buf) => &mut buf[off..off + len],
                    Detached::Lent(_, bytes) => &mut bytes[off..off + len],
                };
                if srcs.len() <= GATHER {
                    let mut stack: [&[u8]; GATHER] = [&[]; GATHER];
                    for (slot, &s) in stack.iter_mut().zip(srcs) {
                        *slot = source(s);
                    }
                    xor_gather_into(out_bytes, &stack[..srcs.len()]);
                } else {
                    let gathered: Vec<&[u8]> = srcs.iter().map(|&s| source(s)).collect();
                    xor_gather_into(out_bytes, &gathered);
                }
                match out {
                    Detached::Owned(buf) if dst < ncells => stripe.put_buf(dst, buf),
                    Detached::Owned(buf) => temp_bufs[dst - ncells] = buf,
                    Detached::Lent(k, bytes) => targets.0.bytes[k] = bytes,
                }
            }
        }
    }
}

/// An op's target, detached from where it lives while the op's sources
/// are borrowed.
enum Detached<'a> {
    /// A stripe cell's buffer or a scratch temp.
    Owned(Vec<u8>),
    /// The `k`-th slice a [`LentMut`] lends.
    Lent(usize, &'a mut [u8]),
}

/// Grid cells a plan reads in place instead of from its stripe: bytes
/// that already live elsewhere — a backend's storage, a caller's buffer,
/// a cache entry's slot. Lent bytes are read-only; [`XorPlan::execute_lent`]
/// never writes one.
#[derive(Debug, Clone, Default)]
pub struct Lent<'a>(Slots<&'a [u8]>);

impl<'a> Lent<'a> {
    /// Each `(cell, bytes)` of `cells` lent, over a `rows × cols` grid; a
    /// later repeat of a cell replaces the earlier. Allocates nothing if
    /// `cells` is empty; otherwise the grid's slot table and room for the
    /// slices `cells` may yield.
    ///
    /// # Panics
    ///
    /// Panics if a cell lies outside the grid, or if the grid has more
    /// cells than a `u16` counts.
    pub fn of(rows: usize, cols: usize, cells: impl IntoIterator<Item = (Cell, &'a [u8])>) -> Self {
        Lent::in_table(Vec::new(), rows, cols, cells)
    }

    /// [`Lent::of`] with its slot table in `table`, which an earlier
    /// `Lent` gave back ([`Lent::into_table`]) or is empty: a caller
    /// lending cells op after op allocates the table once, not per op.
    ///
    /// # Panics
    ///
    /// As [`Lent::of`].
    pub fn in_table(
        table: Vec<u16>,
        rows: usize,
        cols: usize,
        cells: impl IntoIterator<Item = (Cell, &'a [u8])>,
    ) -> Self {
        Lent(Slots::in_table(table, rows, cols, cells))
    }

    /// The slot table, all zero again, for the next [`Lent::in_table`].
    pub fn into_table(self) -> Vec<u16> {
        self.0.into_table()
    }

    /// The bytes lent as `cell`, if any.
    pub fn get(&self, cell: Cell) -> Option<&'a [u8]> {
        self.0.slot_of(cell).map(|k| self.0.bytes[k])
    }
}

/// Grid cells a plan computes in place instead of in its stripe: `Lent`'s
/// twin for targets. Each is a slice of where the cell will be stored — a
/// backend's storage, a staging buffer — that [`XorPlan::execute_lent`]
/// overwrites with the cell's value, and that a later step reads as a
/// source.
#[derive(Debug, Default)]
pub struct LentMut<'a>(Slots<&'a mut [u8]>);

impl<'a> LentMut<'a> {
    /// Each `(cell, bytes)` of `cells` lent to be computed in place, over
    /// a `rows × cols` grid; a later repeat of a cell replaces the
    /// earlier.
    ///
    /// # Panics
    ///
    /// As [`Lent::of`].
    pub fn of(
        rows: usize,
        cols: usize,
        cells: impl IntoIterator<Item = (Cell, &'a mut [u8])>,
    ) -> Self {
        LentMut(Slots::in_table(Vec::new(), rows, cols, cells))
    }
}

/// The cell → slice map behind [`Lent`] and [`LentMut`].
#[derive(Debug, Clone, Default)]
struct Slots<B> {
    rows: usize,
    cols: usize,
    /// Row-major over the grid, filled by the first insert: `k + 1` for a
    /// cell lent as `bytes[k]`, 0 for one nobody lends.
    slot: Vec<u16>,
    bytes: Vec<B>,
}

impl<B> Slots<B> {
    fn in_table(
        table: Vec<u16>,
        rows: usize,
        cols: usize,
        cells: impl IntoIterator<Item = (Cell, B)>,
    ) -> Self {
        let mut cells = cells.into_iter().peekable();
        let mut slots = Slots { rows, cols, slot: table, bytes: Vec::new() };
        if cells.peek().is_some() {
            let (least, most) = cells.size_hint();
            slots.bytes.reserve_exact(most.unwrap_or(least));
        }
        for (cell, bytes) in cells {
            slots.insert(cell, bytes);
        }
        slots
    }

    fn into_table(mut self) -> Vec<u16> {
        self.slot.fill(0);
        self.slot
    }

    /// Lends `bytes` as `cell`, in place of anything lent as it before.
    ///
    /// # Panics
    ///
    /// Panics if `cell` lies outside the grid, or if the grid has more
    /// cells than a `u16` counts.
    fn insert(&mut self, cell: Cell, bytes: B) {
        assert!(cell.row < self.rows && cell.col < self.cols, "{cell} out of bounds");
        let cells = self.rows * self.cols;
        if self.bytes.is_empty() && self.slot.len() != cells {
            assert!(cells < usize::from(u16::MAX), "grid too large to lend");
            self.slot.clear();
            self.slot.resize(cells, 0);
        }
        match &mut self.slot[cell.index(self.cols)] {
            0 => {
                self.bytes.push(bytes);
                self.slot[cell.index(self.cols)] = self.bytes.len() as u16;
            }
            &mut k => self.bytes[usize::from(k) - 1] = bytes,
        }
    }

    /// Where `cell`'s bytes are in `bytes`, if it is lent.
    fn slot_of(&self, cell: Cell) -> Option<usize> {
        (cell.row < self.rows && cell.col < self.cols).then(|| self.slot(cell.index(self.cols)))?
    }

    /// Where the bytes of flat grid index `idx` are in `bytes`, if lent.
    fn slot(&self, idx: usize) -> Option<usize> {
        match self.slot.get(idx) {
            Some(&k) if k > 0 => Some(usize::from(k) - 1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};
    use raid_math::xor::L1_TILE_BYTES;

    fn cascaded_layout() -> Layout {
        // q = d0 ^ p with p = d0 ^ d1, listed q-first to exercise ordering.
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Parity(ParityClass::Diagonal),
        ];
        let chains = vec![
            Chain {
                class: ParityClass::Diagonal,
                parity: Cell::new(0, 3),
                members: vec![Cell::new(0, 0), Cell::new(0, 2)],
            },
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(0, 2),
                members: vec![Cell::new(0, 0), Cell::new(0, 1)],
            },
        ];
        Layout::new(1, 4, kinds, chains).unwrap()
    }

    #[test]
    fn encode_plan_orders_dependencies_and_matches_reference() {
        let layout = cascaded_layout();
        let plan = XorPlan::compile_encode(&layout);
        assert_eq!(plan.num_ops(), 2);
        // The horizontal parity (0,2) must be produced before the diagonal
        // parity (0,3) consumes it.
        let order: Vec<Cell> = plan.targets().collect();
        assert_eq!(order, vec![Cell::new(0, 2), Cell::new(0, 3)]);

        let mut planned = Stripe::for_layout(&layout, 64);
        planned.fill_data_seeded(&layout, 11);
        let mut reference = planned.clone();
        plan.execute(&mut planned);
        reference.encode_reference(&layout);
        assert_eq!(planned, reference);
        assert_eq!(planned.verify(&layout), None);
    }

    #[test]
    fn expanded_encode_cancels_cascades_over_gf2() {
        let layout = cascaded_layout();
        let expanded = XorPlan::compile_encode_expanded(&layout);
        assert_eq!(expanded.num_ops(), 2);
        // q = d0 ^ p = d0 ^ (d0 ^ d1) collapses to just d1.
        let steps: Vec<(Cell, Vec<Cell>)> = expanded.steps().collect();
        let q = steps.iter().find(|(t, _)| *t == Cell::new(0, 3)).unwrap();
        assert_eq!(q.1, vec![Cell::new(0, 1)]);
        // Byte-identical to the cascaded plan.
        let mut a = Stripe::for_layout(&layout, 64);
        a.fill_data_seeded(&layout, 5);
        let mut b = a.clone();
        expanded.execute(&mut a);
        XorPlan::compile_encode(&layout).execute(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn cached_encode_plan_is_used_by_stripe_encode() {
        let layout = cascaded_layout();
        let cached = layout.encode_plan();
        assert_eq!(cached.num_ops(), 2);
        assert!(std::ptr::eq(cached, layout.encode_plan()), "plan must be compiled once");

        let mut s = Stripe::for_layout(&layout, 32);
        s.fill_data_seeded(&layout, 3);
        s.encode(&layout);
        assert_eq!(s.verify(&layout), None);
    }

    #[test]
    fn decode_plan_compiles_and_round_trips() {
        let layout = cascaded_layout();
        let mut pristine = Stripe::for_layout(&layout, 16);
        pristine.fill_data_seeded(&layout, 9);
        pristine.encode(&layout);

        let lost = vec![Cell::new(0, 0), Cell::new(0, 1)];
        let decode_plan = crate::decoder::plan_decode(&layout, &lost).unwrap();
        let compiled = XorPlan::compile_decode(&layout, &decode_plan);
        assert_eq!(compiled.num_ops(), decode_plan.steps.len());

        let mut s = pristine.clone();
        s.erase(lost[0]);
        s.erase(lost[1]);
        compiled.execute(&mut s);
        assert_eq!(s, pristine);
    }

    #[test]
    fn temp_bearing_plan_executes_tiled_and_untiled() {
        // t0 = a ^ b; p = t0 ^ c; q = t0 ^ d — over a 1×6 grid.
        let rows = 1;
        let cols = 6;
        let t0 = (rows * cols) as u32;
        let ops = vec![
            (t0, vec![0u32, 1]),
            (4u32, vec![t0, 2]),
            (5u32, vec![t0, 3]),
        ];
        let plan = XorPlan::from_indexed_ops(rows, cols, 1, &ops, Some(vec![4, 5]));
        assert_eq!(plan.num_temps(), 1);
        assert_eq!(plan.plan_cell(t0), PlanCell::Temp(0));
        assert_eq!(plan.output_indices(), vec![4, 5]);

        // Element size straddling a tile boundary exercises the ragged tail.
        let es = L1_TILE_BYTES + 37;
        let mut s = Stripe::zeroed(rows, cols, es);
        for i in 0..4 {
            let cell = Cell::new(0, i);
            for (k, byte) in s.element_mut(cell).iter_mut().enumerate() {
                *byte = (i as u8).wrapping_mul(31).wrapping_add(k as u8);
            }
        }
        let mut tiled = s.clone();
        let mut untiled = s.clone();
        plan.execute(&mut tiled);
        plan.execute_untiled(&mut untiled);
        assert_eq!(tiled, untiled);
        for k in 0..es {
            let a = s.element(Cell::new(0, 0))[k];
            let b = s.element(Cell::new(0, 1))[k];
            let c = s.element(Cell::new(0, 2))[k];
            let d = s.element(Cell::new(0, 3))[k];
            assert_eq!(tiled.element(Cell::new(0, 4))[k], a ^ b ^ c);
            assert_eq!(tiled.element(Cell::new(0, 5))[k], a ^ b ^ d);
        }
    }

    #[test]
    fn lent_sources_compute_what_a_dense_stripe_computes() {
        // t0 = a ^ b; p = t0 ^ c — a, b and c lent, only p held.
        let (rows, cols) = (1, 4);
        let ops = [(4, vec![0, 1]), (3, vec![4, 2])];
        let plan = XorPlan::from_indexed_ops(rows, cols, 1, &ops, None);
        for es in [64, L1_TILE_BYTES + 37] {
            let mut dense = Stripe::zeroed(rows, cols, es);
            for col in 0..3 {
                let cell = Cell::new(0, col);
                for (k, byte) in dense.element_mut(cell).iter_mut().enumerate() {
                    *byte = (k * 7 + col) as u8;
                }
            }
            let held = (0..3).map(|col| (Cell::new(0, col), dense.element(Cell::new(0, col))));
            let lent = Lent::of(rows, cols, held);
            let mut sparse = Stripe::sparse(rows, cols, es, [Cell::new(0, 3)]);
            plan.execute_lent(&mut sparse, &lent, &mut LentMut::default());
            let mut reference = dense.clone();
            plan.execute(&mut reference);
            assert_eq!(sparse.element(Cell::new(0, 3)), reference.element(Cell::new(0, 3)), "{es}");
            assert_eq!(lent.get(Cell::new(0, 3)), None);
        }
    }

    #[test]
    fn targets_computed_in_place_match_a_dense_stripe_and_feed_later_steps() {
        // t0 = a ^ b; p = t0 ^ c; q = p ^ d — p and q lent as targets, a
        // to d lent as sources, nothing held: q reads p where it was
        // computed. The targets start stale.
        let (rows, cols) = (1, 6);
        let ops = [(6, vec![0, 1]), (4, vec![6, 2]), (5, vec![4, 3])];
        let plan = XorPlan::from_indexed_ops(rows, cols, 1, &ops, None);
        for es in [64, L1_TILE_BYTES + 37] {
            let mut dense = Stripe::zeroed(rows, cols, es);
            for col in 0..4 {
                let cell = Cell::new(0, col);
                for (k, byte) in dense.element_mut(cell).iter_mut().enumerate() {
                    *byte = (k * 5 + col * 3) as u8;
                }
            }
            let held = (0..4).map(|col| (Cell::new(0, col), dense.element(Cell::new(0, col))));
            let lent = Lent::of(rows, cols, held);
            let (mut p, mut q) = (vec![0xA5; es], vec![0x5A; es]);
            let in_place = [(Cell::new(0, 4), &mut p[..]), (Cell::new(0, 5), &mut q[..])];
            let mut targets = LentMut::of(rows, cols, in_place);
            plan.execute_lent(&mut Stripe::sparse(rows, cols, es, []), &lent, &mut targets);
            drop(targets);
            let mut reference = dense.clone();
            plan.execute(&mut reference);
            assert_eq!(p, reference.element(Cell::new(0, 4)), "{es}");
            assert_eq!(q, reference.element(Cell::new(0, 5)), "{es}");
        }
    }

    #[test]
    #[should_panic(expected = "E[0,0] is not materialised")]
    fn a_step_targeting_a_lent_cell_panics() {
        let plan = XorPlan::from_steps(1, 2, [(Cell::new(0, 0), [Cell::new(0, 1)].as_slice())]);
        let lent = Lent::of(1, 2, [(Cell::new(0, 0), &[0; 8][..]), (Cell::new(0, 1), &[1; 8][..])]);
        plan.execute_lent(&mut Stripe::sparse(1, 2, 8, []), &lent, &mut LentMut::default());
    }

    #[test]
    fn step_views_match_steps_for_temp_free_plans() {
        let layout = cascaded_layout();
        let plan = XorPlan::compile_encode(&layout);
        let cols = layout.cols();
        for (view, (target, sources)) in plan.step_views().zip(plan.steps()) {
            assert_eq!(plan.plan_cell(view.dst), PlanCell::Grid(target));
            let viewed: Vec<Cell> =
                view.srcs.iter().map(|&s| Cell::from_index(s as usize, cols)).collect();
            assert_eq!(viewed, sources);
        }
    }

    #[test]
    #[should_panic(expected = "cannot render scratch temps")]
    fn steps_rejects_temp_bearing_plans() {
        let plan = XorPlan::from_indexed_ops(1, 2, 1, &[(2, vec![0, 1])], Some(vec![]));
        let _ = plan.steps().count();
    }

    #[test]
    #[should_panic(expected = "reads its own target")]
    fn self_referential_step_rejected() {
        let c = Cell::new(0, 0);
        XorPlan::from_steps(1, 2, [(c, &[c][..])]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_step_rejected() {
        XorPlan::from_steps(1, 2, [(Cell::new(0, 5), &[][..])]);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn execute_checks_shape() {
        let plan = XorPlan::from_steps(2, 2, []);
        let mut s = Stripe::zeroed(1, 2, 8);
        plan.execute(&mut s);
    }
}
