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
//! For elements larger than one L1 tile ([`raid_math::xor::L1_TILE_BYTES`])
//! — or whenever a plan carries temps — `execute` walks **all** ops over
//! one tile of every element before advancing to the next tile, so the
//! working set (every element's current tile) stays cache-resident across
//! the whole plan instead of each element being streamed through cache
//! once per op. This is valid because every op is a pure byte-position-wise
//! XOR: byte `k` of the output depends only on byte `k` of the inputs.
//!
//! Plans come from four compilers:
//!
//! * [`XorPlan::compile_encode`] — every parity chain, in dependency
//!   (topological) order; the *cascaded* specification form;
//! * [`XorPlan::compile_encode_expanded`] — each parity as its data-only
//!   GF(2) expansion (cascades substituted and cancelled); the optimizer's
//!   preferred starting point, because it exposes cross-chain sharing that
//!   the cascaded form hard-codes;
//! * [`XorPlan::compile_decode`] — a [`DecodePlan`]'s reconstruction steps;
//! * [`XorPlan::from_steps`] — any ordered `target = XOR(sources)`
//!   sequence, e.g. one of HV Code's Algorithm-1 recovery chains.
//!
//! [`XorPlan::optimized`] runs any plan through the `xopt` middle-end.

use crate::decoder::DecodePlan;
use crate::geometry::Cell;
use crate::layout::Layout;
use crate::stripe::{encode_order, Stripe};
use raid_math::xor::{tiles, xor_gather_into, L1_TILE_BYTES};

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
        let in_bounds = |c: Cell| c.row < rows && c.col < cols;
        let mut ops = Vec::new();
        let mut srcs: Vec<u32> = Vec::new();
        for (target, sources) in steps {
            assert!(in_bounds(target), "plan target {target} out of bounds");
            let src_start = srcs.len() as u32;
            for &s in sources {
                assert!(in_bounds(s), "plan source {s} out of bounds");
                assert_ne!(s, target, "plan step reads its own target {target}");
                srcs.push(s.index(cols) as u32);
            }
            ops.push(XorOp {
                dst: target.index(cols) as u32,
                src_start,
                src_end: srcs.len() as u32,
            });
        }
        XorPlan { rows, cols, ops, srcs, temps: 0, outputs: None }
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
    /// Elements at or below one L1 tile (and no temps) take the flat
    /// per-op path: one single-pass multi-source XOR kernel call per op,
    /// no allocation. Larger elements — or any plan with scratch temps —
    /// run **tiled**: all ops are applied to one L1-sized chunk of every
    /// element before advancing, so the stripe's working set stays
    /// cache-resident across the whole plan. Temps are allocated per call
    /// and freed on return.
    ///
    /// (A source-major "streaming" execution — read each source once,
    /// scatter into its consumers — was tried and measured slower on
    /// cache-resident stripes: it multiplies target read/write traffic
    /// by the chain length, which costs more than the source re-reads
    /// it saves while the whole stripe sits in L2.)
    ///
    /// # Panics
    ///
    /// Panics if the stripe's shape differs from the plan's.
    pub fn execute(&self, stripe: &mut Stripe) {
        assert_eq!(stripe.rows(), self.rows, "plan/stripe row mismatch");
        assert_eq!(stripe.cols(), self.cols, "plan/stripe col mismatch");
        let es = stripe.element_size();
        if self.temps == 0 && es <= L1_TILE_BYTES {
            for op in &self.ops {
                let srcs = &self.srcs[op.src_start as usize..op.src_end as usize];
                stripe.apply_indexed_xor(op.dst as usize, srcs);
            }
            return;
        }
        self.execute_chunked(stripe, tiles(es));
    }

    /// Whole-element per-op execution, bypassing tiling — the reference
    /// the equivalence tests compare [`XorPlan::execute`]'s tiled path
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the stripe's shape differs from the plan's.
    pub fn execute_untiled(&self, stripe: &mut Stripe) {
        assert_eq!(stripe.rows(), self.rows, "plan/stripe row mismatch");
        assert_eq!(stripe.cols(), self.cols, "plan/stripe col mismatch");
        if self.temps == 0 {
            for op in &self.ops {
                let srcs = &self.srcs[op.src_start as usize..op.src_end as usize];
                stripe.apply_indexed_xor(op.dst as usize, srcs);
            }
            return;
        }
        let es = stripe.element_size();
        self.execute_chunked(stripe, std::iter::once((0, es)).filter(|&(_, n)| n > 0));
    }

    /// The tiled interpreter: for each `(offset, len)` chunk, applies
    /// every op to that chunk of its buffers. Scratch temps are allocated
    /// element-sized (not tile-sized) so grid and temp buffers slice
    /// uniformly; they are still touched tile-by-tile in order, so their
    /// hot tile stays resident like everyone else's.
    fn execute_chunked(&self, stripe: &mut Stripe, chunks: impl Iterator<Item = (usize, usize)>) {
        const GATHER: usize = 64;
        let ncells = self.rows * self.cols;
        let es = stripe.element_size();
        let mut temp_bufs: Vec<Vec<u8>> = vec![vec![0u8; es]; self.temps];
        for (off, len) in chunks {
            for op in &self.ops {
                let dst = op.dst as usize;
                let srcs = &self.srcs[op.src_start as usize..op.src_end as usize];
                // Detach the target so the sources can be borrowed freely
                // (an op never reads its own target).
                let mut out = if dst < ncells {
                    stripe.take_buf(dst)
                } else {
                    std::mem::take(&mut temp_bufs[dst - ncells])
                };
                if srcs.len() <= GATHER {
                    let mut stack: [&[u8]; GATHER] = [&[]; GATHER];
                    for (slot, &s) in stack.iter_mut().zip(srcs) {
                        let i = s as usize;
                        *slot = if i < ncells {
                            &stripe.buf(i)[off..off + len]
                        } else {
                            &temp_bufs[i - ncells][off..off + len]
                        };
                    }
                    xor_gather_into(&mut out[off..off + len], &stack[..srcs.len()]);
                } else {
                    let gathered: Vec<&[u8]> = srcs
                        .iter()
                        .map(|&s| {
                            let i = s as usize;
                            if i < ncells {
                                &stripe.buf(i)[off..off + len]
                            } else {
                                &temp_bufs[i - ncells][off..off + len]
                            }
                        })
                        .collect();
                    xor_gather_into(&mut out[off..off + len], &gathered);
                }
                if dst < ncells {
                    stripe.put_buf(dst, out);
                } else {
                    temp_bufs[dst - ncells] = out;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

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
