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
//! only in where the dirty bytes come from.
//!
//! Per-op write plans are deliberately **not** run through
//! [`XorPlan::optimized`]: measured on `hvbench`, the optimiser costs
//! ~40 µs per 4 KiB stripe write — more than the XORs it saves.

use std::collections::BTreeMap;

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
/// cascades, e.g. RDP).
fn ordered_parities(layout: &Layout, parities: &[Cell]) -> Vec<Cell> {
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

/// Builds the XOR steps that renew a [`WritePlan`]'s parities over a
/// double-height scratch: old values in the lower `rows` rows, new values
/// in the upper.
///
/// * [`WriteMode::Rmw`] — new parity = old parity ⊕ (old ⊕ new) of every
///   touched member;
/// * [`WriteMode::Reconstruct`] / [`WriteMode::FullStripe`] — new parity
///   = XOR of members' new values, untouched members contributing their
///   (read or cache-filled) old value.
fn batched_write_steps(
    layout: &Layout,
    plan: &WritePlan,
    mode: WriteMode,
) -> Vec<(Cell, Vec<Cell>)> {
    let rows = layout.rows();
    let up = |c: Cell| Cell::new(c.row + rows, c.col);
    let touched = |m: &Cell| plan.data_writes.contains(m) || plan.parity_writes.contains(m);
    ordered_parities(layout, &plan.parity_writes)
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
        .collect()
}

/// A healthy stripe write, lowered by [`stripe_write_op`].
#[derive(Debug, Clone)]
pub struct StripeWrite {
    /// The op, over a double-height scratch: old values in the lower
    /// `rows` rows, new values above. `op.data_writes[k].0` is the scratch
    /// cell the caller presets with the `k`-th dirty ordinal's new bytes.
    pub op: LoweredOp,
    /// `(ordinal, scratch cell)` old values the caller presets from its
    /// clean resident copies instead of the op reading them from disk.
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

    let steps = batched_write_steps(layout, &plan, mode);
    let up = |c: Cell| (Cell::new(c.row + rows, c.col), addr(c));
    let op = LoweredOp {
        reads: addressed(reads, addr),
        plan: Some(XorPlan::from_steps(
            2 * rows,
            layout.cols(),
            steps.iter().map(|(t, s)| (*t, s.as_slice())),
        )),
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
