//! The one lowering: every [`LoweredOp`] the volume issues is built here.
//!
//! Each builder is a pure function of the code's [`Layout`], the stripe's
//! failed logical columns, and an address function `Cell → DiskAddr` for
//! the stripe at hand (the batch builders take the [`Addressing`]
//! itself) — nothing of the volume's state. The volume calls them with
//! its own addressing; `raid-verify` calls the same builders under
//! rotation-free addressing, so its hazard, journal and coalesce proofs
//! cover the ops that run.
//!
//! Healthy is the zero-failed-columns case: [`read_op`] degenerates to a
//! plain fetch, and a stripe write is [`stripe_write_op`] on a healthy
//! array, otherwise [`decode_op`] → patch → [`encode_store_op`]. The same
//! two shapes serve the uncached write and the cache flush; they differ
//! only in whose buffers the dirty cells are — one copy of the caller's
//! bytes, or the cache entry's own slots, lent to the scratch together
//! with its clean-resident fills. A stripe write only reads those cells,
//! which is what makes lending them safe. Its lowering is linear in the
//! dirty set and the chains it touches: every membership test is a bitmap.
//!
//! Per-op write plans are deliberately **not** run through
//! [`XorPlan::optimized`]: measured on `hvbench`, the optimiser costs
//! ~40 µs per 4 KiB stripe write — more than the XORs it saves.

use std::collections::BTreeMap;

use raid_core::bitset::BitSet;
use raid_core::decoder;
use raid_core::layout::Layout;
use raid_core::plan::degraded::{plan_degraded_read, plan_degraded_read_multi};
use raid_core::plan::single::{plan_single_disk_recovery, SearchStrategy};
use raid_core::plan::write::{plan_batched_write, write_cost, WriteMode, WritePlan};
use raid_core::{Cell, ChainId, XorPlan};

use crate::addr::Addressing;
use crate::pipeline::{DiskAddr, LoweredOp};

/// The backend address of `cell` in stripe `stripe`: rotation permutes
/// the disk, the index packs stripes `rows` elements apart.
pub fn cell_addr(addressing: &Addressing, rows: usize, stripe: usize, cell: Cell) -> DiskAddr {
    DiskAddr { disk: addressing.physical_disk(stripe, cell.col), index: stripe * rows + cell.row }
}

fn addressed(cells: &[Cell], addr: &impl Fn(Cell) -> DiskAddr) -> Vec<(Cell, DiskAddr)> {
    cells.iter().map(|&c| (c, addr(c))).collect()
}

/// Every cell of every column not in `failed_cols`, minus `except`.
fn survivors(layout: &Layout, failed_cols: &[usize], except: &[Cell]) -> Vec<Cell> {
    (0..layout.cols())
        .filter(|col| !failed_cols.contains(col))
        .flat_map(|col| layout.cells_in_col(col))
        .filter(|cell| !except.contains(cell))
        .collect()
}

/// Every parity of every column not in `failed_cols`.
fn surviving_parities(layout: &Layout, failed_cols: &[usize]) -> Vec<Cell> {
    (0..layout.cols())
        .filter(|col| !failed_cols.contains(col))
        .flat_map(|col| layout.parities_in_col(col))
        .collect()
}

/// Lowers `(lost cell, repair chain)` choices — the shape shared by the
/// degraded-read and single-disk recovery planners — into a compiled
/// [`XorPlan`]: each cell is rebuilt as the XOR of the other cells of its
/// chosen chain.
fn compile_chain_repairs(layout: &Layout, repairs: &[(Cell, ChainId)]) -> XorPlan {
    let sources: Vec<Vec<Cell>> = repairs
        .iter()
        .map(|(cell, chain)| layout.chain(*chain).cells().filter(|c| c != cell).collect())
        .collect();
    XorPlan::from_steps(
        layout.rows(),
        layout.cols(),
        repairs.iter().zip(&sources).map(|((cell, _), src)| (*cell, src.as_slice())),
    )
    .optimized()
}

/// An op with `cells` as its write-back set, split data/parity.
fn with_write_back(
    layout: &Layout,
    reads: Vec<(Cell, DiskAddr)>,
    plan: XorPlan,
    cells: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> LoweredOp {
    let (data, parity): (Vec<Cell>, Vec<Cell>) =
        cells.iter().copied().partition(|&c| layout.is_data(c));
    LoweredOp {
        reads,
        plan: Some(plan),
        data_writes: addressed(&data, addr),
        parity_writes: addressed(&parity, addr),
    }
}

/// A read of `requested` data cells: a plain fetch when none of them sits
/// on a failed column, the paper's minimum-fetch degraded read (§V-B) for
/// one failed column, the targeted dependency slice for two. `None` when
/// more columns are failed than the code repairs.
pub fn read_op(
    layout: &Layout,
    failed_cols: &[usize],
    requested: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> Option<LoweredOp> {
    if !requested.iter().any(|c| failed_cols.contains(&c.col)) {
        return Some(LoweredOp::read_only(addressed(requested, addr)));
    }
    let (fetched, plan) = match failed_cols {
        [col] => {
            let plan = plan_degraded_read(layout, *col, requested);
            let repairs = compile_chain_repairs(layout, &plan.repairs);
            (plan.fetched, repairs)
        }
        [_, _] => {
            let plan = plan_degraded_read_multi(layout, failed_cols, requested).ok()?;
            let steps = XorPlan::from_steps(
                layout.rows(),
                layout.cols(),
                plan.steps.iter().map(|s| (s.target, s.sources.as_slice())),
            )
            .optimized();
            (plan.fetched, steps)
        }
        _ => return None,
    };
    Some(LoweredOp { reads: addressed(&fetched, addr), plan: Some(plan), ..Default::default() })
}

/// Scrub's fetch of every cell of the stripe, row by row.
pub fn whole_stripe_read_op(layout: &Layout, addr: &impl Fn(Cell) -> DiskAddr) -> LoweredOp {
    let cells = (0..layout.rows()).flat_map(|r| (0..layout.cols()).map(move |c| Cell::new(r, c)));
    LoweredOp::read_only(cells.map(|c| (c, addr(c))).collect())
}

/// Scrub's repair: store one already-corrected scratch cell.
pub fn cell_write_op(layout: &Layout, cell: Cell, addr: &impl Fn(Cell) -> DiskAddr) -> LoweredOp {
    let target = vec![(cell, addr(cell))];
    if layout.is_data(cell) {
        LoweredOp { data_writes: target, ..Default::default() }
    } else {
        LoweredOp { parity_writes: target, ..Default::default() }
    }
}

/// Orders parity cells so that no parity is emitted before a pending
/// parity that appears among its chain members (parity-into-parity
/// cascades, e.g. RDP): each round emits, in order, every parity none of
/// whose chain members was pending when the round began. Pending is one
/// bitmap, so a round is linear in the chains it walks.
fn ordered_parities(layout: &Layout, parities: &[Cell]) -> Vec<Cell> {
    let cols = layout.cols();
    let mut is_pending = BitSet::new(layout.num_cells());
    for p in parities {
        is_pending.insert(p.index(cols));
    }
    let mut pending: Vec<Cell> = parities.to_vec();
    let mut ordered = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let emitted = ordered.len();
        pending.retain(|&p| {
            let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
            let waits = chain.members.iter().any(|m| *m != p && is_pending.contains(m.index(cols)));
            if !waits {
                ordered.push(p);
            }
            waits
        });
        assert!(ordered.len() > emitted, "cyclic parity dependency during write");
        for p in &ordered[emitted..] {
            is_pending.remove(p.index(cols));
        }
    }
    ordered
}

/// Compiles the XOR steps that renew a [`WritePlan`]'s parities over a
/// double-height scratch: old values in the lower `rows` rows, new values
/// in the upper.
///
/// * [`WriteMode::Rmw`] — new parity = old parity ⊕ (old ⊕ new) of every
///   touched member;
/// * [`WriteMode::Reconstruct`] / [`WriteMode::FullStripe`] — new parity
///   = XOR of members' new values, untouched members contributing their
///   (read or cache-filled) old value.
fn batched_write_plan(layout: &Layout, plan: &WritePlan, mode: WriteMode) -> XorPlan {
    let rows = layout.rows();
    let up = |c: Cell| Cell::new(c.row + rows, c.col);
    // One bitmap per call: a `contains` scan of both write lists per chain
    // member made the lowering quadratic in the dirty set.
    let cols = layout.cols();
    let mut written = BitSet::new(rows * cols);
    for c in plan.data_writes.iter().chain(&plan.parity_writes) {
        written.insert(c.index(cols));
    }
    let touched = |m: &Cell| written.contains(m.index(cols));
    // Every step's sources in one buffer; step `k`'s end at `ends[k]`.
    let parities = ordered_parities(layout, &plan.parity_writes);
    let mut srcs: Vec<Cell> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(parities.len());
    for &p in &parities {
        let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
        match mode {
            WriteMode::Rmw => {
                srcs.push(p);
                for m in chain.members.iter().filter(|m| touched(m)) {
                    srcs.extend([*m, up(*m)]);
                }
            }
            WriteMode::Reconstruct | WriteMode::FullStripe => {
                srcs.extend(chain.members.iter().map(|m| if touched(m) { up(*m) } else { *m }));
            }
        }
        ends.push(srcs.len());
    }
    let starts = std::iter::once(0).chain(ends.iter().copied());
    let steps = parities.iter().zip(starts.zip(&ends)).map(|(&p, (a, &b))| (up(p), &srcs[a..b]));
    XorPlan::from_steps(2 * rows, cols, steps)
}

/// A healthy stripe write, lowered by [`stripe_write_op`].
#[derive(Debug, Clone)]
pub struct StripeWrite {
    /// The op, over a double-height scratch: old values in the lower
    /// `rows` rows, new values above. `op.data_writes[k].0` is the scratch
    /// cell the caller fills with the `k`-th dirty ordinal's new bytes.
    pub op: LoweredOp,
    /// `(ordinal, scratch cell)` old values the caller fills from its
    /// clean resident copies instead of the op reading them from disk.
    ///
    /// The op never writes a dirty or fill cell — no read lands in one,
    /// no plan step targets one — so the caller may lend it the buffers
    /// it already holds.
    pub fills: Vec<(usize, Cell)>,
}

/// A write of the `dirty` data ordinals (ascending, non-empty) of a stripe
/// on a healthy array, as one journal-atomic op: the cheaper of
/// read-modify-write and reconstruct-write, or a read-free full-stripe
/// write. `is_clean(ordinal)` says which untouched old values the caller
/// already holds; they are not read, which can flip the RMW/reconstruct
/// choice in reconstruct's favour.
pub fn stripe_write_op(
    layout: &Layout,
    dirty: &[usize],
    is_clean: impl Fn(usize) -> bool,
    addr: &impl Fn(Cell) -> DiskAddr,
) -> StripeWrite {
    let rows = layout.rows();
    let plan = plan_batched_write(layout, dirty);
    let cost = write_cost(layout, &plan);

    let mut fills: Vec<(usize, Cell)> = Vec::new();
    let mut reconstruct_reads: Vec<Cell> = Vec::with_capacity(cost.reconstruct_reads.len());
    for &c in &cost.reconstruct_reads {
        match layout.data_ordinal(c) {
            Some(ord) if is_clean(ord) => fills.push((ord, c)),
            _ => reconstruct_reads.push(c),
        }
    }
    let mode = if cost.reconstruct_reads.is_empty() {
        WriteMode::FullStripe
    } else if reconstruct_reads.len() < cost.rmw_reads.len() {
        WriteMode::Reconstruct
    } else {
        WriteMode::Rmw
    };
    let reads = if mode == WriteMode::Rmw {
        fills.clear();
        &cost.rmw_reads
    } else {
        &reconstruct_reads
    };

    let up = |c: Cell| (Cell::new(c.row + rows, c.col), addr(c));
    let op = LoweredOp {
        reads: addressed(reads, addr),
        plan: Some(batched_write_plan(layout, &plan, mode)),
        data_writes: plan.data_writes.iter().map(|&c| up(c)).collect(),
        parity_writes: plan.parity_writes.iter().map(|&c| up(c)).collect(),
    };
    StripeWrite { op, fills }
}

/// The optimised plan rebuilding every cell of `failed_cols` plus the
/// individually lost `bad` cells from the rest of the stripe. `None` when
/// the loss exceeds the code's erasure capability.
fn decode_plan(layout: &Layout, failed_cols: &[usize], bad: &[Cell]) -> Option<XorPlan> {
    let mut lost: Vec<Cell> = failed_cols.iter().flat_map(|&c| layout.cells_in_col(c)).collect();
    lost.extend_from_slice(bad);
    let plan = decoder::plan_decode(layout, &lost).ok()?;
    Some(XorPlan::compile_decode(layout, &plan).optimized())
}

/// Fetch every surviving element, rebuild every cell of `failed_cols`
/// plus the individually lost `bad` cells, store the `write_back` cells.
/// With nothing to write back this is the degraded write's fetch; with
/// the bad sectors, the in-place latent repair; with whole columns, a
/// rebuild. `None` when the loss exceeds the code's erasure capability.
pub fn decode_op(
    layout: &Layout,
    failed_cols: &[usize],
    bad: &[Cell],
    write_back: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> Option<LoweredOp> {
    let plan = decode_plan(layout, failed_cols, bad)?;
    let reads = addressed(&survivors(layout, failed_cols, bad), addr);
    Some(with_write_back(layout, reads, plan, write_back, addr))
}

/// `rebuild_all`'s batch, one op per stripe: decode the columns the
/// `failed` disks land on in that stripe from every survivor and write
/// them back. Decode plans are compiled once per lost-column pattern
/// (rotation puts the failed disks on different logical columns per
/// stripe). `None` when the loss exceeds the code's erasure capability.
pub fn rebuild_batch(
    layout: &Layout,
    addressing: &Addressing,
    stripes: usize,
    failed: &[usize],
) -> Option<Vec<LoweredOp>> {
    let mut plans: BTreeMap<Vec<usize>, XorPlan> = BTreeMap::new();
    (0..stripes)
        .map(|stripe| {
            let mut lost_cols: Vec<usize> =
                failed.iter().map(|&d| addressing.logical_col(stripe, d)).collect();
            lost_cols.sort_unstable();
            if !plans.contains_key(&lost_cols) {
                plans.insert(lost_cols.clone(), decode_plan(layout, &lost_cols, &[])?);
            }
            let lost: Vec<Cell> =
                lost_cols.iter().flat_map(|&col| layout.cells_in_col(col)).collect();
            let addr = |c| cell_addr(addressing, layout.rows(), stripe, c);
            let reads = addressed(&survivors(layout, &lost_cols, &[]), &addr);
            Some(with_write_back(layout, reads, plans[&lost_cols].clone(), &lost, &addr))
        })
        .collect()
}

/// Rebuild of the single failed column `col` by the paper's hybrid
/// minimum-read recovery (§V-C), storing the `write_back` cells.
pub fn recover_column_op(
    layout: &Layout,
    col: usize,
    write_back: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> LoweredOp {
    let plan = plan_single_disk_recovery(layout, col, SearchStrategy::Auto);
    let repairs = compile_chain_repairs(layout, &plan.choices);
    with_write_back(layout, addressed(&plan.reads, addr), repairs, write_back, addr)
}

/// The degraded write's store: re-encode the patched stripe image in the
/// scratch and write the `dirty` data cells plus every parity that lives
/// on a surviving column. Failed columns stay lost until the next rebuild.
pub fn encode_store_op(
    layout: &Layout,
    failed_cols: &[usize],
    dirty: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> LoweredOp {
    let live: Vec<Cell> = dirty.iter().copied().filter(|c| !failed_cols.contains(&c.col)).collect();
    LoweredOp {
        reads: Vec::new(),
        plan: Some(layout.encode_plan().clone()),
        data_writes: addressed(&live, addr),
        parity_writes: addressed(&surviving_parities(layout, failed_cols), addr),
    }
}

/// `encode_all`'s batch, one op per stripe: read the data, run the cached
/// encode plan, write every parity.
pub fn encode_batch(layout: &Layout, addressing: &Addressing, stripes: usize) -> Vec<LoweredOp> {
    let parities = surviving_parities(layout, &[]);
    (0..stripes)
        .map(|stripe| {
            let addr = |c| cell_addr(addressing, layout.rows(), stripe, c);
            LoweredOp {
                reads: addressed(layout.data_cells(), &addr),
                plan: Some(layout.encode_plan().clone()),
                parity_writes: addressed(&parities, &addr),
                ..Default::default()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hv_code::HvCode;
    use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};
    use raid_core::{ArrayCode, Stripe};

    use super::*;
    use crate::backend::{DiskBackend, MemBackend};
    use crate::pipeline::IoPipeline;

    const ES: usize = 4;
    /// The ops under test address the last of these stripes, so rotation
    /// and the stripe offset are both in play.
    const STRIPES: usize = 3;

    /// The `raid-verify` registry, which this crate cannot depend on.
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

    fn all_cells(layout: &Layout) -> impl Iterator<Item = Cell> {
        let cols = layout.cols();
        (0..layout.num_cells()).map(move |i| Cell::from_index(i, cols))
    }

    fn pattern(seed: usize) -> [u8; ES] {
        std::array::from_fn(|k| (seed * 31 + k * 7 + 1) as u8)
    }

    /// Two pipelines over identical backends: every op runs on a dense
    /// zeroed scratch against one and on a sparse scratch over the op's
    /// own footprint against the other, and the two must never differ.
    struct Twin {
        dense: IoPipeline,
        sparse: IoPipeline,
    }

    impl Twin {
        /// Backends holding `model` (a consistent stripe) in every stripe.
        fn holding(layout: &Layout, addressing: &Addressing, model: &Stripe) -> Twin {
            let mut backend = MemBackend::new(layout.cols(), STRIPES * layout.rows(), ES);
            for stripe in 0..STRIPES {
                for cell in all_cells(layout) {
                    let at = cell_addr(addressing, layout.rows(), stripe, cell);
                    backend.write(at.disk, at.index, model.element(cell)).unwrap();
                }
            }
            Twin {
                dense: IoPipeline::new(Box::new(backend.clone())),
                sparse: IoPipeline::new(Box::new(backend)),
            }
        }

        fn image(pipe: &mut IoPipeline) -> Vec<u8> {
            let (disks, per_disk) = (pipe.backend().disks(), pipe.backend().elements_per_disk());
            let mut bytes = vec![0u8; disks * per_disk * ES];
            for (i, buf) in bytes.chunks_exact_mut(ES).enumerate() {
                pipe.backend_mut().read(i / per_disk, i % per_disk, buf).unwrap();
            }
            bytes
        }

        /// Executes `op` both ways over `rows × cols` scratches preset
        /// with `preset`; returns the sparse scratch. A footprint that
        /// misses a cell the pipeline touches panics naming the cell, and
        /// a preset cell — what the volume lends the scratch from its own
        /// buffers — must come out as it went in.
        fn execute(
            &mut self,
            op: &LoweredOp,
            (rows, cols): (usize, usize),
            preset: &[(Cell, &[u8])],
            what: &str,
        ) -> Stripe {
            let mut dense = Stripe::zeroed(rows, cols, ES);
            let mut sparse = Stripe::sparse(rows, cols, ES, op.footprint());
            for &(cell, bytes) in preset {
                dense.set_element(cell, bytes);
                sparse.set_element(cell, bytes);
            }
            let on_dense = self.dense.execute(op, &mut dense).unwrap();
            let on_sparse = self.sparse.execute(op, &mut sparse).unwrap();
            assert_eq!(on_sparse, on_dense, "{what}: request sets differ");
            for cell in op.footprint() {
                assert_eq!(sparse.element(cell), dense.element(cell), "{what}: scratch {cell}");
            }
            for &(cell, bytes) in preset {
                assert_eq!(sparse.element(cell), bytes, "{what}: preset {cell} was written");
            }
            assert_eq!(
                Twin::image(&mut self.sparse),
                Twin::image(&mut self.dense),
                "{what}: backend images differ"
            );
            sparse
        }

        /// Executes `op` once more, sparse side only, on a footprint
        /// scratch whose every cell holds stale bytes — a rebuild step's
        /// scratch after the previous stripe — and checks it ends as
        /// `fresh`, the scratch [`Twin::execute`] returned for the op.
        fn execute_on_stale(&mut self, op: &LoweredOp, fresh: &Stripe, what: &str) {
            let mut stale = Stripe::sparse(fresh.rows(), fresh.cols(), ES, op.footprint());
            for cell in op.footprint() {
                stale.element_mut(cell).fill(0xA5);
            }
            self.sparse.execute(op, &mut stale).unwrap();
            assert_eq!(&stale, fresh, "{what}: stale scratch bytes survived");
        }

        /// Zeroes the cells of columns `cols`, addressed by `addr`, on both
        /// backends — what a swapped-in blank disk holds.
        fn blank(&mut self, layout: &Layout, addr: &impl Fn(Cell) -> DiskAddr, cols: &[usize]) {
            for cell in cols.iter().flat_map(|&col| layout.cells_in_col(col)) {
                let at = addr(cell);
                for pipe in [&mut self.dense, &mut self.sparse] {
                    pipe.backend_mut().write(at.disk, at.index, &[0; ES]).unwrap();
                }
            }
        }
    }

    /// A seeded, encoded stripe of `layout`.
    fn seeded(layout: &Layout, seed: u64) -> Stripe {
        let mut model = Stripe::for_layout(layout, ES);
        model.fill_data_seeded(layout, seed);
        model.encode(layout);
        model
    }

    /// Dirty-set lattice over `n` data ordinals: contiguous runs (every
    /// `(start, len)` for small stripes, coprime strides for large ones),
    /// strided scatters, and everything-but-one.
    fn dirty_sets(n: usize) -> Vec<Vec<usize>> {
        let (start_step, len_step) = if n <= 40 { (1, 1) } else { (11, 17) };
        let mut sets = Vec::new();
        for start in (0..n).step_by(start_step) {
            for len in (1..=n - start).step_by(len_step) {
                sets.push((start..start + len).collect());
            }
        }
        for stride in [2, 3, 5, 7] {
            for first in 0..2 {
                sets.push((first..n).step_by(stride).collect());
            }
        }
        sets.push((0..n).collect());
        sets.extend([0, n / 2, n - 1].map(|hole| (0..n).filter(|&o| o != hole).collect()));
        sets
    }

    #[test]
    fn stripe_write_on_its_footprint_matches_a_dense_scratch() {
        for p in [5usize, 7, 13] {
            for code in registry(p) {
                let layout = code.layout();
                let (rows, cols) = (layout.rows(), layout.cols());
                let addressing = Addressing::new(layout.num_data_cells(), cols, true);
                let addr = |c| cell_addr(&addressing, rows, STRIPES - 1, c);
                let mut model = seeded(layout, p as u64);
                let mut twin = Twin::holding(layout, &addressing, &model);
                for (k, dirty) in dirty_sets(layout.num_data_cells()).into_iter().enumerate() {
                    for rest_clean in [false, true] {
                        let what = format!("{} p={p} clean={rest_clean} {dirty:?}", code.name());
                        let is_clean = |ord| rest_clean && dirty.binary_search(&ord).is_err();
                        let StripeWrite { op, fills } =
                            stripe_write_op(layout, &dirty, is_clean, &addr);
                        let fresh: Vec<[u8; ES]> =
                            dirty.iter().map(|&ord| pattern(k + ord)).collect();
                        let mut preset: Vec<(Cell, &[u8])> = op
                            .data_writes
                            .iter()
                            .zip(&fresh)
                            .map(|(&(cell, _), bytes)| (cell, &bytes[..]))
                            .collect();
                        for &(ord, cell) in &fills {
                            preset.push((cell, model.element(layout.data_cells()[ord])));
                        }
                        twin.execute(&op, (2 * rows, cols), &preset, &what);

                        // Whatever the mode, the stripe on disk stays a
                        // code word holding the new bytes.
                        let fetch = whole_stripe_read_op(layout, &addr);
                        let after = twin.execute(&fetch, (rows, cols), &[], &what);
                        assert_eq!(after.verify(layout), None, "{what}: parity broken");
                        for (&ord, bytes) in dirty.iter().zip(&fresh) {
                            assert_eq!(after.element(layout.data_cells()[ord]), bytes, "{what}");
                        }
                        model = after;
                    }
                }
            }
        }
    }

    /// `ordered_parities` before its bitmap: every chain member checked
    /// against the pending list. Kept as the reference for emission order.
    fn scanning_ordered_parities(layout: &Layout, parities: &[Cell]) -> Vec<Cell> {
        let mut pending: Vec<Cell> = parities.to_vec();
        let mut ordered = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let mut progressed = false;
            let mut next = Vec::new();
            for &p in &pending {
                let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
                if chain.members.iter().any(|m| pending.contains(m) && *m != p) {
                    next.push(p);
                } else {
                    ordered.push(p);
                    progressed = true;
                }
            }
            assert!(progressed, "cyclic parity dependency during write");
            pending = next;
        }
        ordered
    }

    /// `stripe_write_op` before its lowering turned linear: the scanning
    /// parity order and one `Vec` of sources per parity. The write plan
    /// and its cost come from `raid-core`, which `planner_invariants`
    /// holds to its own scanning references.
    fn scanning_stripe_write_op(
        layout: &Layout,
        dirty: &[usize],
        is_clean: impl Fn(usize) -> bool,
        addr: &impl Fn(Cell) -> DiskAddr,
    ) -> StripeWrite {
        let rows = layout.rows();
        let up = |c: Cell| Cell::new(c.row + rows, c.col);
        let plan = plan_batched_write(layout, dirty);
        let cost = write_cost(layout, &plan);
        let mut fills: Vec<(usize, Cell)> = Vec::new();
        let mut reconstruct_reads: Vec<Cell> = Vec::new();
        for &c in &cost.reconstruct_reads {
            match layout.data_ordinal(c) {
                Some(ord) if is_clean(ord) => fills.push((ord, c)),
                _ => reconstruct_reads.push(c),
            }
        }
        let mode = if cost.reconstruct_reads.is_empty() {
            WriteMode::FullStripe
        } else if reconstruct_reads.len() < cost.rmw_reads.len() {
            WriteMode::Reconstruct
        } else {
            WriteMode::Rmw
        };
        let reads = if mode == WriteMode::Rmw {
            fills.clear();
            &cost.rmw_reads
        } else {
            &reconstruct_reads
        };
        let touched = |m: &Cell| plan.data_writes.contains(m) || plan.parity_writes.contains(m);
        let steps: Vec<(Cell, Vec<Cell>)> = scanning_ordered_parities(layout, &plan.parity_writes)
            .into_iter()
            .map(|p| {
                let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns chain"));
                let mut srcs = Vec::new();
                match mode {
                    WriteMode::Rmw => {
                        srcs.push(p);
                        for m in &chain.members {
                            if touched(m) {
                                srcs.push(*m);
                                srcs.push(up(*m));
                            }
                        }
                    }
                    WriteMode::Reconstruct | WriteMode::FullStripe => {
                        for m in &chain.members {
                            srcs.push(if touched(m) { up(*m) } else { *m });
                        }
                    }
                }
                (up(p), srcs)
            })
            .collect();
        let at = |c: Cell| (up(c), addr(c));
        let op = LoweredOp {
            reads: addressed(reads, addr),
            plan: Some(XorPlan::from_steps(
                2 * rows,
                layout.cols(),
                steps.iter().map(|(t, s)| (*t, s.as_slice())),
            )),
            data_writes: plan.data_writes.iter().map(|&c| at(c)).collect(),
            parity_writes: plan.parity_writes.iter().map(|&c| at(c)).collect(),
        };
        StripeWrite { op, fills }
    }

    #[test]
    fn stripe_write_op_is_the_scanning_lowering_element_for_element() {
        for p in [5usize, 7, 13] {
            for code in registry(p) {
                let layout = code.layout();
                let addressing = Addressing::new(layout.num_data_cells(), layout.cols(), true);
                let addr = |c| cell_addr(&addressing, layout.rows(), STRIPES - 1, c);
                for dirty in dirty_sets(layout.num_data_cells()) {
                    for rest_clean in [false, true] {
                        let what = format!("{} p={p} clean={rest_clean} {dirty:?}", code.name());
                        let is_clean = |ord| rest_clean && dirty.binary_search(&ord).is_err();
                        let got = stripe_write_op(layout, &dirty, is_clean, &addr);
                        let want = scanning_stripe_write_op(layout, &dirty, is_clean, &addr);
                        assert_eq!(got.fills, want.fills, "{what}");
                        assert_eq!(got.op.reads, want.op.reads, "{what}");
                        assert_eq!(got.op.data_writes, want.op.data_writes, "{what}");
                        assert_eq!(got.op.parity_writes, want.op.parity_writes, "{what}");
                        let steps = |w: &StripeWrite| {
                            w.op.plan.as_ref().map(|plan| plan.steps().collect::<Vec<_>>())
                        };
                        assert_eq!(steps(&got), steps(&want), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn hv_write_footprints_are_six_cells_and_the_upper_half() {
        use std::collections::BTreeSet;
        let code = HvCode::new(13).unwrap();
        let layout = code.layout();
        let rows = layout.rows();
        let addr = |c: Cell| DiskAddr { disk: c.col, index: c.row };
        // §V-A: an update touches the element and its two parities — old
        // and new value of each.
        for ord in 0..layout.num_data_cells() {
            let op = stripe_write_op(layout, &[ord], |_| false, &addr).op;
            assert_eq!(op.footprint().collect::<BTreeSet<Cell>>().len(), 6, "ordinal {ord}");
        }
        // A full-stripe write reads nothing, so holds no old value.
        let all: Vec<usize> = (0..layout.num_data_cells()).collect();
        let cells: BTreeSet<Cell> =
            stripe_write_op(layout, &all, |_| false, &addr).op.footprint().collect();
        assert_eq!(cells.len(), layout.num_cells());
        assert!(cells.iter().all(|c| c.row >= rows), "lower half materialised");
    }

    /// The invariant `IoPipeline::fetch` lands bytes by: a read that
    /// misses every failed column is a plain fetch whose `k`-th read is
    /// its `k`-th requested cell — and a read that does not miss them
    /// carries a plan, so never takes that path.
    #[test]
    fn a_read_off_the_failed_columns_is_a_plain_fetch_of_the_request_in_order() {
        for p in [5usize, 7, 13] {
            for code in registry(p) {
                let layout = code.layout();
                let addressing = Addressing::new(layout.num_data_cells(), layout.cols(), true);
                let addr = |c| cell_addr(&addressing, layout.rows(), STRIPES - 1, c);
                let data = layout.data_cells();
                // Healthy, then each single failed column.
                for failed in std::iter::once(None).chain((0..layout.cols()).map(Some)) {
                    let failed_cols: Vec<usize> = failed.into_iter().collect();
                    for len in [1, 2, 5, data.len()] {
                        for requested in data.windows(len) {
                            let what = format!("{} p={p} {failed_cols:?} {requested:?}", code.name());
                            let op = read_op(layout, &failed_cols, requested, &addr).expect(&what);
                            if requested.iter().any(|c| failed == Some(c.col)) {
                                assert!(op.plan.is_some(), "{what}: a lost cell needs a plan");
                                continue;
                            }
                            assert!(op.plan.is_none() && op.data_writes.is_empty(), "{what}");
                            assert!(op.parity_writes.is_empty(), "{what}");
                            let expected: Vec<_> = requested.iter().map(|&c| (c, addr(c))).collect();
                            assert_eq!(op.reads, expected, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_lowered_op_runs_on_its_footprint() {
        for p in [5usize, 7, 13] {
            for code in registry(p) {
                let layout = code.layout();
                let shape = (layout.rows(), layout.cols());
                let addressing = Addressing::new(layout.num_data_cells(), shape.1, true);
                let target = STRIPES - 1;
                let addr = |c| cell_addr(&addressing, shape.0, target, c);
                let model = seeded(layout, 3 * p as u64);
                let mut twin = Twin::holding(layout, &addressing, &model);
                let whole: Vec<(Cell, &[u8])> =
                    all_cells(layout).map(|c| (c, model.element(c))).collect();
                let data = layout.data_cells();
                let name = code.name();

                // Reads: healthy, one and two failed columns, whole stripe.
                let requested = &data[data.len() / 3..][..4];
                for failed in [&[][..], &[requested[0].col], &[requested[0].col, shape.1 - 1]] {
                    let what = format!("{name} p={p} read_op {failed:?}");
                    let op = read_op(layout, failed, requested, &addr).expect(&what);
                    let got = twin.execute(&op, shape, &[], &what);
                    for &cell in requested {
                        assert_eq!(got.element(cell), model.element(cell), "{what}: {cell}");
                    }
                }
                let fetch = whole_stripe_read_op(layout, &addr);
                assert_eq!(twin.execute(&fetch, shape, &[], "whole_stripe_read_op"), model);

                // Stores of preset cells: scrub's repair, the degraded store.
                for cell in [data[0], layout.chains()[0].parity] {
                    let what = format!("{name} p={p} cell_write_op {cell}");
                    let op = cell_write_op(layout, cell, &addr);
                    twin.execute(&op, shape, &[(cell, model.element(cell))], &what);
                }
                for failed in [&[][..], &[0], &[1, shape.1 - 1]] {
                    let what = format!("{name} p={p} encode_store_op {failed:?}");
                    let op = encode_store_op(layout, failed, &data[..2], &addr);
                    twin.execute(&op, shape, &whole, &what);
                }

                // Rebuilds onto blanked columns restore the stripe.
                for lost in [&[0usize][..], &[1, shape.1 - 1]] {
                    let what = format!("{name} p={p} decode_op {lost:?}");
                    let cells: Vec<Cell> =
                        lost.iter().flat_map(|&col| layout.cells_in_col(col)).collect();
                    twin.blank(layout, &addr, lost);
                    let op = decode_op(layout, lost, &[], &cells, &addr).expect(&what);
                    let fresh = twin.execute(&op, shape, &[], &what);
                    twin.execute_on_stale(&op, &fresh, &what);
                    assert_eq!(twin.execute(&fetch, shape, &[], &what), model, "{what}");
                }
                let col = shape.1 / 2;
                let what = format!("{name} p={p} recover_column_op {col}");
                twin.blank(layout, &addr, &[col]);
                let op = recover_column_op(layout, col, &layout.cells_in_col(col), &addr);
                let fresh = twin.execute(&op, shape, &[], &what);
                twin.execute_on_stale(&op, &fresh, &what);
                assert_eq!(twin.execute(&fetch, shape, &[], &what), model, "{what}");

                // The batch builders, one op per stripe.
                let what = format!("{name} p={p} batch");
                let rebuild = rebuild_batch(layout, &addressing, STRIPES, &[0, 2]).expect(&what);
                for op in rebuild.iter().chain(&encode_batch(layout, &addressing, STRIPES)) {
                    twin.execute(op, shape, &[], &what);
                }
                assert_eq!(twin.execute(&fetch, shape, &[], &what), model, "{what}");
            }
        }
    }
}
