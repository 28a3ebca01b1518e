//! The one lowering: every [`LoweredOp`] the volume issues is built here.
//!
//! Each builder is a pure function of the code's [`Layout`], the stripe's
//! failed logical columns, and an address function `Cell → DiskAddr` for
//! the stripe at hand — nothing of the volume's state. The volume calls
//! them with its own [`Addressing`]; `raid-verify` calls the same builders
//! under rotation-free addressing, so its journal and coalesce proofs
//! cover the ops that run.
//!
//! Healthy is the zero-failed-columns case: [`read_op`] degenerates to a
//! plain fetch, and a stripe write is [`stripe_write_op`] on a healthy
//! array, otherwise [`decode_op`] → patch → [`encode_store_op`]. The same
//! two shapes serve the uncached write and the cache flush; they differ
//! only in whose buffers the dirty cells are — one copy of the caller's
//! bytes, or the cache entry's own slots, lent to the scratch together
//! with its clean-resident fills. A stripe write only reads those cells,
//! which is what makes lending them safe.
//!
//! A stripe write is lowered from its layout's write table
//! ([`Layout::write_table`]), built once per layout and shared by every
//! volume of the code: the parities each data ordinal's write renews,
//! cascades included, and each parity's chain members and dependency
//! level. The renewed parities are the union of the dirty ordinals'
//! lists, reconstruct-write reads the unwritten members of their chains,
//! and the plan renews them level by level — linear in the dirty set and
//! the chains it touches, allocating the op's own vectors and one bitmap.
//! At p = 13 a single-element update lowers in 0.24–0.61 µs across RDP,
//! HDP, X-Code, H-Code and HV, a third of what planning it per request
//! took.
//!
//! A plan built for one request is **not** run through
//! [`XorPlan::optimized`]: the optimiser costs more than the XORs it
//! saves — ~40 µs per 4 KiB stripe write, 24–29 µs per two-column degraded
//! read for not one source read saved. Stripe writes, two-column reads
//! and latent repairs follow that rule. Plans that are facts of the
//! layout — the encode plan, whole-column decode programs, §V-C column
//! recovery — are optimised once and cached ([`Layout::column_program`]).
//! The one exception is the single-column degraded read, which still
//! plans and optimises per request until the benchmark's own op log is
//! bounded: dropping it lifts `volume_degraded_read`'s RSS over its bound.

use std::borrow::Cow;

use raid_core::bitset::BitSet;
use raid_core::decoder;
use raid_core::layout::Layout;
use raid_core::plan::degraded::{plan_degraded_read, plan_degraded_read_multi};
use raid_core::plan::write::WriteMode;
use raid_core::{Cell, XorPlan};

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
/// one failed column, the targeted dependency slice of the layout's cached
/// decode plan for two. `None` when more columns are failed than the code
/// repairs.
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
            let repairs = XorPlan::compile_repairs(layout, &plan.repairs).optimized();
            (plan.fetched, repairs)
        }
        [_, _] => {
            let plan = plan_degraded_read_multi(layout, failed_cols, requested).ok()?;
            let steps = XorPlan::from_steps(
                layout.rows(),
                layout.cols(),
                plan.steps.iter().map(|s| (s.target, s.sources.as_slice())),
            );
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
///
/// The op is [`plan_batched_write`] and [`write_cost`]'s, read off the
/// layout's [`WriteTable`]: the renewed parities are the union of the
/// dirty ordinals' lists, reconstruct-write reads the unwritten members of
/// their chains, and the plan renews them level by level. The work is
/// linear in the dirty set and the chains it touches, and allocates the
/// op's own vectors and one bitmap.
///
/// [`plan_batched_write`]: raid_core::plan::write::plan_batched_write
/// [`write_cost`]: raid_core::plan::write::write_cost
/// [`WriteTable`]: raid_core::plan::write::WriteTable
///
/// # Panics
///
/// Panics if `dirty` is empty, not strictly ascending or out of range.
pub fn stripe_write_op(
    layout: &Layout,
    dirty: &[usize],
    is_clean: impl Fn(usize) -> bool,
    addr: &impl Fn(Cell) -> DiskAddr,
) -> StripeWrite {
    let (table, data) = (layout.write_table(), layout.data_cells());
    let (rows, cols, cells) = (layout.rows(), layout.cols(), layout.num_cells());
    assert!(
        dirty.last().is_some_and(|&last| last < data.len())
            && dirty.windows(2).all(|pair| pair[0] < pair[1]),
        "a stripe write needs ascending ordinals below {}: {dirty:?}",
        data.len()
    );
    let up = |c: Cell| Cell::new(c.row + rows, c.col);
    let down = |c: Cell| Cell::new(c.row - rows, c.col);

    // Three thirds of one bitmap: the cells the write renews (dirty data
    // and renewed parities), then the reconstruct reads each of the two
    // member walks below has met.
    let mut marks = BitSet::new(3 * cells);
    let data_writes: Vec<(Cell, DiskAddr)> = dirty
        .iter()
        .map(|&ord| {
            let cell = data[ord];
            marks.insert(cell.index(cols));
            (up(cell), addr(cell))
        })
        .collect();
    let renewals: usize = dirty.iter().map(|&ord| table.renews(ord).len()).sum();
    let mut parity_writes = Vec::with_capacity(renewals.min(table.parities()));
    for &ord in dirty {
        for &parity in table.renews(ord) {
            if marks.insert(parity.index(cols)) {
                parity_writes.push((up(parity), addr(parity)));
            }
        }
    }
    let renewed = || parity_writes.iter().map(|&(cell, _)| down(cell));
    let written = |marks: &BitSet, m: Cell| marks.contains(m.index(cols));
    let clean = |m: Cell| layout.data_ordinal(m).is_some_and(&is_clean);

    // Count reconstruct-write's reads, clean ones apart, until RMW is sure
    // to read no more.
    let rmw = data_writes.len() + parity_writes.len();
    let (mut fills_len, mut reads_len) = (0, 0);
    for_unwritten_members(layout, renewed(), &mut marks, cells, |m| {
        if clean(m) {
            fills_len += 1;
        } else {
            reads_len += 1;
        }
        reads_len < rmw
    });
    let mode = if fills_len + reads_len == 0 {
        WriteMode::FullStripe
    } else if reads_len < rmw {
        WriteMode::Reconstruct
    } else {
        WriteMode::Rmw
    };
    let mut fills: Vec<(usize, Cell)> = Vec::new();
    let reads: Vec<(Cell, DiskAddr)> = match mode {
        WriteMode::Rmw => {
            data_writes.iter().chain(&parity_writes).map(|&(cell, at)| (down(cell), at)).collect()
        }
        WriteMode::FullStripe => Vec::new(),
        WriteMode::Reconstruct => {
            let mut reads = Vec::with_capacity(reads_len);
            fills.reserve_exact(fills_len);
            for_unwritten_members(layout, renewed(), &mut marks, 2 * cells, |m| {
                match layout.data_ordinal(m) {
                    Some(ord) if is_clean(ord) => fills.push((ord, m)),
                    _ => reads.push((m, addr(m))),
                }
                true
            });
            reads
        }
    };

    // One step per renewed parity, level by level, first-touch order
    // within a level:
    // * RMW — new parity = old parity ⊕ (old ⊕ new) of every written
    //   member;
    // * reconstruct / full stripe — new parity = XOR of the members' new
    //   values, unwritten members contributing their read or filled old
    //   value.
    let marks = &marks;
    let chain_of = |p: Cell| layout.chain_of_parity(p).expect("parity owns chain");
    let sources: usize = renewed().map(|p| table.members(chain_of(p)).len()).sum();
    let sources = if mode == WriteMode::Rmw { 2 * sources + rmw } else { sources };
    let mut plan = XorPlan::with_capacity(2 * rows, cols, parity_writes.len(), sources);
    for level in 0..=table.depth() {
        for p in renewed().filter(|&p| level_among(layout, marks, p) == level) {
            let members = table.members(chain_of(p)).iter().copied();
            match mode {
                WriteMode::Rmw => {
                    let deltas = members.filter(|&m| written(marks, m)).flat_map(|m| [m, up(m)]);
                    plan.push_step(up(p), std::iter::once(p).chain(deltas));
                }
                WriteMode::Reconstruct | WriteMode::FullStripe => {
                    let values = members.map(|m| if written(marks, m) { up(m) } else { m });
                    plan.push_step(up(p), values);
                }
            }
        }
    }
    let op = LoweredOp { reads, plan: Some(plan), data_writes, parity_writes };
    StripeWrite { op, fills }
}

/// Calls `visit` on each member of the `renewed` parities' chains, in
/// order, the first time it meets one that the write does not renew —
/// [`write_cost`]'s reconstruct reads — until `visit` returns false.
/// `marks` holds the renewed cells at `0..cells`; the walk marks what it
/// met at `walk..walk + cells`.
///
/// [`write_cost`]: raid_core::plan::write::write_cost
fn for_unwritten_members(
    layout: &Layout,
    renewed: impl Iterator<Item = Cell>,
    marks: &mut BitSet,
    walk: usize,
    mut visit: impl FnMut(Cell) -> bool,
) {
    let (table, cols) = (layout.write_table(), layout.cols());
    for p in renewed {
        let chain = layout.chain_of_parity(p).expect("parity owns chain");
        for &m in table.members(chain) {
            let i = m.index(cols);
            if !marks.contains(i) && marks.insert(walk + i) && !visit(m) {
                return;
            }
        }
    }
}

/// The level of the renewed parity `p` among the renewed parities (set in
/// `marks`): 0 when no member of its chain is a renewed parity, else one
/// more than theirs. Never above its [`WriteTable::level`], so a level-0
/// parity — every parity of a layout without cascades — is answered by
/// the table alone.
///
/// [`WriteTable::level`]: raid_core::plan::write::WriteTable::level
fn level_among(layout: &Layout, marks: &BitSet, p: Cell) -> usize {
    let (table, cols) = (layout.write_table(), layout.cols());
    let chain = layout.chain_of_parity(p).expect("parity owns chain");
    if table.level(chain) == 0 {
        return 0;
    }
    let renewed = |m: &&Cell| !layout.is_data(**m) && marks.contains(m.index(cols));
    let below = table.members(chain).iter().filter(renewed);
    below.map(|&q| level_among(layout, marks, q) + 1).max().unwrap_or(0)
}

/// The plan rebuilding every cell of `failed_cols` plus the individually
/// lost `bad` cells from the rest of the stripe: whole columns alone are
/// the layout's cached program, a loss with bad cells is planned per call
/// (and, like every per-request plan, not optimised). `None` when the loss
/// exceeds the code's erasure capability.
fn decode_plan(layout: &Layout, failed_cols: &[usize], bad: &[Cell]) -> Option<XorPlan> {
    if bad.is_empty() {
        return layout.column_program(failed_cols).ok().map(Cow::into_owned);
    }
    let mut lost: Vec<Cell> = failed_cols.iter().flat_map(|&c| layout.cells_in_col(c)).collect();
    lost.extend_from_slice(bad);
    let plan = decoder::plan_decode(layout, &lost).ok()?;
    Some(XorPlan::compile_decode(layout, &plan))
}

/// Fetch every surviving element, rebuild every cell of `failed_cols`
/// plus the individually lost `bad` cells, store the `write_back` cells.
/// With nothing to write back this is the degraded write's fetch; with
/// the bad sectors, the in-place latent repair; with whole columns, a
/// rebuild. Without bad cells the plan is a clone of the layout's cached
/// program. `None` when the loss exceeds the code's erasure capability.
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

/// Rebuild of the single failed column `col` by the paper's hybrid
/// minimum-read recovery (§V-C), storing the `write_back` cells: the
/// layout's cached recovery, its program cloned.
pub fn recover_column_op(
    layout: &Layout,
    col: usize,
    write_back: &[Cell],
    addr: &impl Fn(Cell) -> DiskAddr,
) -> LoweredOp {
    let recovery = layout.column_recovery(col);
    let reads = addressed(&recovery.reads, addr);
    with_write_back(layout, reads, recovery.plan.clone(), write_back, addr)
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use hv_code::HvCode;
    use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};
    use raid_core::{ArrayCode, Stripe};

    use super::*;
    use crate::backend::{DiskBackend, MemBackend};
    use raid_core::plan::write::{plan_batched_write, write_cost};
    use crate::pipeline::IoPipeline;
    use raid_core::io::IoLedger;

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

    /// Four pipelines over identical backends: every op runs on a dense
    /// zeroed scratch against one, on a sparse scratch over the op's own
    /// footprint against another, and on a scratch of only the cells it
    /// computes, every other cell lent, against the third — and they must
    /// never differ. The fourth runs an op that reconstructs its writes in
    /// place, each written cell computed in the backend's storage (what a
    /// rebuild does), and every other op as the first does.
    struct Twin {
        dense: IoPipeline,
        sparse: IoPipeline,
        lent: IoPipeline,
        in_place: IoPipeline,
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
                sparse: IoPipeline::new(Box::new(backend.clone())),
                lent: IoPipeline::new(Box::new(backend.clone())),
                in_place: IoPipeline::new(Box::new(backend)),
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
            self.execute_lent(op, (rows, cols), preset, (&dense, &on_dense), what);
            self.execute_in_place(op, (rows, cols), preset, &on_dense, what);
            sparse
        }

        /// Executes `op` on the fourth pipeline: in place if it
        /// reconstructs its writes, else on a dense scratch preset as the
        /// first pipeline's was. The request set and the backend image
        /// must be the dense run's.
        fn execute_in_place(
            &mut self,
            op: &LoweredOp,
            (rows, cols): (usize, usize),
            preset: &[(Cell, &[u8])],
            on_dense: &IoLedger,
            what: &str,
        ) {
            let on_in_place = if op.reconstructs_its_writes() {
                self.in_place.execute_in_place(op).unwrap()
            } else {
                let mut dense = Stripe::zeroed(rows, cols, ES);
                for &(cell, bytes) in preset {
                    dense.set_element(cell, bytes);
                }
                self.in_place.execute(op, &mut dense).unwrap()
            };
            assert_eq!(&on_in_place, on_dense, "{what}: request sets differ in place");
            assert_eq!(
                Twin::image(&mut self.in_place),
                Twin::image(&mut self.dense),
                "{what}: backend image differs in place"
            );
        }

        /// Executes `op` as the volume's borrowing callers do, on a scratch
        /// of the cells it computes: the preset cells it does not compute
        /// are lent (`IoPipeline::execute_lent`); with none, every other
        /// cell of its footprint is copied out of the bytes the backend
        /// lent (`IoPipeline::execute_into`). The request set, every cell
        /// and the backend image must be the dense run's.
        fn execute_lent(
            &mut self,
            op: &LoweredOp,
            (rows, cols): (usize, usize),
            preset: &[(Cell, &[u8])],
            (dense, on_dense): (&Stripe, &IoLedger),
            what: &str,
        ) {
            let computed: BTreeSet<Cell> = op.computed().collect();
            let mut scratch = Stripe::sparse(rows, cols, ES, computed.iter().copied());
            let lent: Vec<(Cell, &[u8])> =
                preset.iter().copied().filter(|(cell, _)| !computed.contains(cell)).collect();
            let copied: Vec<Cell> = if lent.is_empty() {
                let footprint: BTreeSet<Cell> = op.footprint().collect();
                footprint.difference(&computed).copied().collect()
            } else {
                Vec::new()
            };
            let mut out = vec![0u8; copied.len() * ES];
            let on_lent = if lent.is_empty() {
                self.lent.execute_into(op, &mut scratch, &copied, &mut out).unwrap()
            } else {
                self.lent.execute_lent(op, &mut scratch, &lent).unwrap()
            };
            assert_eq!(&on_lent, on_dense, "{what}: request sets differ");
            for &cell in &computed {
                assert_eq!(scratch.element(cell), dense.element(cell), "{what}: computed {cell}");
            }
            for (&cell, bytes) in copied.iter().zip(out.chunks_exact(ES)) {
                assert_eq!(bytes, dense.element(cell), "{what}: copied out {cell}");
            }
            assert_eq!(
                Twin::image(&mut self.lent),
                Twin::image(&mut self.dense),
                "{what}: lent backend image differs"
            );
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

        /// Spoils the cells of columns `cols`, addressed by `addr`, on
        /// every backend, as a swapped-in spare may hold anything: zeros,
        /// except `0xA5` on the in-place side, whose rebuild computes each
        /// cell over those stale bytes.
        fn blank(&mut self, layout: &Layout, addr: &impl Fn(Cell) -> DiskAddr, cols: &[usize]) {
            for cell in cols.iter().flat_map(|&col| layout.cells_in_col(col)) {
                let at = addr(cell);
                for pipe in [&mut self.dense, &mut self.sparse, &mut self.lent] {
                    pipe.backend_mut().write(at.disk, at.index, &[0; ES]).unwrap();
                }
                self.in_place.backend_mut().write(at.disk, at.index, &[0xA5; ES]).unwrap();
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

    /// The parity order before the write table: emission rounds, every
    /// chain member checked against the pending list. Kept as the
    /// reference for the order the table's levels give.
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

    /// `dirty_sets` steps over starts at p = 13; every single ordinal and
    /// every adjacent pair, clean rest or not, lowers as the scanning
    /// reference does too.
    #[test]
    fn every_single_ordinal_and_adjacent_pair_is_the_scanning_lowering() {
        for p in [5usize, 7, 13] {
            for code in registry(p) {
                let layout = code.layout();
                let addressing = Addressing::new(layout.num_data_cells(), layout.cols(), true);
                let addr = |c| cell_addr(&addressing, layout.rows(), STRIPES - 1, c);
                let n = layout.num_data_cells();
                let singles = (0..n).map(|ord| vec![ord]);
                for dirty in singles.chain((1..n).map(|ord| vec![ord - 1, ord])) {
                    for rest_clean in [false, true] {
                        let what = format!("{} p={p} clean={rest_clean} {dirty:?}", code.name());
                        let is_clean = |ord| rest_clean && dirty.binary_search(&ord).is_err();
                        let got = stripe_write_op(layout, &dirty, is_clean, &addr);
                        let want = scanning_stripe_write_op(layout, &dirty, is_clean, &addr);
                        assert_eq!(got.fills, want.fills, "{what}");
                        assert_eq!(got.op.reads, want.op.reads, "{what}");
                        assert_eq!(got.op.data_writes, want.op.data_writes, "{what}");
                        assert_eq!(got.op.parity_writes, want.op.parity_writes, "{what}");
                        assert_eq!(got.op.plan, want.op.plan, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn hv_write_footprints_are_six_cells_and_the_upper_half() {
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
                    // A store writes data it does not compute: never in place.
                    assert!(!op.reconstructs_its_writes(), "{what}");
                    twin.execute(&op, shape, &whole, &what);
                }

                // Rebuilds onto spoiled columns restore the stripe: both,
                // or one of two lost (a second failure with one spare),
                // its partner computed and dropped.
                for (lost, rebuilt) in [(&[0usize][..], 1), (&[1, shape.1 - 1], 2), (&[1, 2], 1)] {
                    let what = format!("{name} p={p} decode_op {lost:?} onto {rebuilt}");
                    let cells: Vec<Cell> =
                        lost[..rebuilt].iter().flat_map(|&col| layout.cells_in_col(col)).collect();
                    twin.blank(layout, &addr, &lost[..rebuilt]);
                    let op = decode_op(layout, lost, &[], &cells, &addr).expect(&what);
                    assert!(op.reconstructs_its_writes(), "{what}");
                    let fresh = twin.execute(&op, shape, &[], &what);
                    twin.execute_on_stale(&op, &fresh, &what);
                    assert_eq!(twin.execute(&fetch, shape, &[], &what), model, "{what}");
                }
                let col = shape.1 / 2;
                let what = format!("{name} p={p} recover_column_op {col}");
                twin.blank(layout, &addr, &[col]);
                let op = recover_column_op(layout, col, &layout.cells_in_col(col), &addr);
                assert!(op.reconstructs_its_writes(), "{what}");
                let fresh = twin.execute(&op, shape, &[], &what);
                twin.execute_on_stale(&op, &fresh, &what);
                assert_eq!(twin.execute(&fetch, shape, &[], &what), model, "{what}");
            }
        }
    }
}
