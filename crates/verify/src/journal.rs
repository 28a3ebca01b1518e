//! Symbolic crash-consistency proof for the pipeline's undo journal.
//!
//! [`IoPipeline::execute`] stores one op's write targets as one
//! `DiskBackend::write_all`, whose default — the protocol every
//! journaling backend runs — gathers their pre-images, journals them as
//! one record, stores, commits. Each op is therefore its own *journal
//! unit*, and its reads see the state the earlier ops left. The chaos
//! harness samples crash points at random; this module replaces sampling
//! with a proof: over the same GF(2) symbolic domain as
//! [`crate::symbolic`] — but with **backend addresses** as the basis
//! instead of stripe cells — it replays the journal from *every* crash
//! prefix of every op's write sequence and proves the result is exactly
//! the state with the earlier ops applied and this op absent, per stripe
//! (all-old-or-all-new), for all possible disk contents simultaneously.
//!
//! The op lists proven ([`volume_op_lists`]) are the ones the volume
//! executes, built by the same `raid_array::lower` builders under
//! rotation-free addressing, one op per stripe: the full-stripe write,
//! the §V-C single-column recovery `rebuild()` runs for one lost disk,
//! and the two-column decode it runs for two.
//!
//! The journal itself is modeled faithfully, not assumed correct: the
//! entries are the addresses the protocol actually gathers, with
//! pre-image *expressions* read at gather time (at op start, before any
//! of the op's writes). [`JournalCoverage::DropEntry`] lets tests knock
//! one undo record out and watch the proof reject the exact crash
//! prefixes that depend on it, naming the orphaned address — the
//! machine-checkable version of "the journal covers every write".
//!
//! [`IoPipeline::execute`]: raid_array::pipeline::IoPipeline::execute

use std::collections::BTreeMap;
use std::fmt;

use raid_array::lower;
use raid_array::pipeline::{DiskAddr, LoweredOp};
use raid_core::{Cell, Layout};

use crate::symbolic::SymExpr;
use crate::unrotated;

/// Journal contents relative to the protocol's full coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalCoverage {
    /// The journal the protocol actually writes: every target covered.
    Full,
    /// The journal with write-sequence entry `i` dropped — a deliberately
    /// corrupted journal for negative testing.
    DropEntry(usize),
}

/// A failed crash-consistency proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A plan could not be executed symbolically (shape mismatch).
    Exec {
        /// The op whose plan failed.
        op: usize,
        /// The underlying failure.
        detail: String,
    },
    /// Replaying the journal from a crash prefix leaves an address
    /// holding neither its pre- nor its post-state value — an undo
    /// record is missing or wrong.
    MissingUndo {
        /// Crash position: writes completed before the crash.
        crash_index: usize,
        /// The address the journal fails to restore.
        addr: DiskAddr,
        /// The symbolic equation (got vs required).
        detail: String,
    },
    /// After replay a stripe is torn: some of its addresses are old and
    /// some new.
    TornStripe {
        /// Crash position: writes completed before the crash.
        crash_index: usize,
        /// The op (stripe index) left torn.
        op: usize,
        /// An address on the new side of the tear.
        addr: DiskAddr,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Exec { op, detail } => {
                write!(f, "op {op}: symbolic execution failed: {detail}")
            }
            JournalError::MissingUndo { crash_index, addr, detail } => write!(
                f,
                "journal replay from crash index {crash_index} does not restore \
                 disk {} index {}: {detail}",
                addr.disk, addr.index
            ),
            JournalError::TornStripe { crash_index, op, addr } => write!(
                f,
                "journal replay from crash index {crash_index} leaves stripe \
                 {op} torn at disk {} index {}",
                addr.disk, addr.index
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A completed crash-consistency proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalProof {
    /// Crash prefixes proven (0 writes … all writes, per journal unit).
    pub crash_points: usize,
    /// Distinct backend addresses in the ops' footprint.
    pub addresses: usize,
    /// Ops proven.
    pub ops: usize,
}

/// The symbolic backend: one [`SymExpr`] per touched address, over a
/// basis where vector `b` is "whatever bytes address `b` held before the
/// first op".
#[derive(Clone, PartialEq, Eq)]
struct SymBackend {
    basis: BTreeMap<(usize, usize), usize>,
    cells: Vec<SymExpr>,
}

impl SymBackend {
    /// The identity pre-state over every address `ops` touches.
    fn pre_state<'a>(ops: impl Iterator<Item = &'a LoweredOp>) -> Self {
        let mut basis = BTreeMap::new();
        for op in ops {
            for (_, a) in
                op.reads.iter().chain(&op.data_writes).chain(&op.parity_writes)
            {
                let next = basis.len();
                basis.entry((a.disk, a.index)).or_insert(next);
            }
        }
        let n = basis.len();
        let cells = (0..n).map(|b| SymExpr::basis(n, b)).collect();
        SymBackend { basis, cells }
    }

    fn nbasis(&self) -> usize {
        self.basis.len()
    }

    fn slot(&self, a: DiskAddr) -> usize {
        self.basis[&(a.disk, a.index)]
    }

    fn get(&self, a: DiskAddr) -> &SymExpr {
        &self.cells[self.slot(a)]
    }

    fn set(&mut self, a: DiskAddr, e: SymExpr) {
        let slot = self.slot(a);
        self.cells[slot] = e;
    }
}

/// Renders an address-basis expression using `a<slot>` symbols (the cell
/// renderer would mislabel address slots as grid cells).
fn render_addr_expr(e: &SymExpr) -> String {
    if e.is_empty() {
        return "0".to_string();
    }
    let parts: Vec<String> = e.iter().map(|b| format!("a{b}")).collect();
    parts.join(" ⊕ ")
}

/// Computes the values `op` writes, as expressions over `reads_from`:
/// scratch cells start zeroed, the op's reads land, the plan runs, and
/// each write target's cell expression is the stored value — exactly
/// `IoPipeline`'s scratch-stripe semantics. A cell the caller presets (a
/// write's new data) stays zero here: the proof is about what the journal
/// restores, and a stored zero differs from every pre-state basis vector.
fn op_write_values(
    op_index: usize,
    op: &LoweredOp,
    reads_from: &SymBackend,
) -> Result<Vec<(DiskAddr, SymExpr)>, JournalError> {
    let nbasis = reads_from.nbasis();
    // Scratch grid shape: the plan's, or just enough for the cells named.
    let (rows, cols) = match &op.plan {
        Some(plan) => (plan.rows(), plan.cols()),
        None => {
            let cells = op.reads.iter().chain(&op.data_writes).chain(&op.parity_writes);
            let (mut r, mut c) = (0, 0);
            for (cell, _) in cells {
                r = r.max(cell.row + 1);
                c = c.max(cell.col + 1);
            }
            (r, c)
        }
    };
    let ncells = rows * cols;
    let ntemps = op.plan.as_ref().map_or(0, |p| p.num_temps());
    let mut scratch = vec![SymExpr::zero(nbasis); ncells + ntemps];
    for (cell, a) in &op.reads {
        scratch[cell.index(cols)] = reads_from.get(*a).clone();
    }
    if let Some(plan) = &op.plan {
        if plan.rows() != rows || plan.cols() != cols {
            return Err(JournalError::Exec {
                op: op_index,
                detail: format!(
                    "plan shape {}×{} vs scratch {rows}×{cols}",
                    plan.rows(),
                    plan.cols()
                ),
            });
        }
        for view in plan.step_views() {
            let mut acc = SymExpr::zero(nbasis);
            for &s in view.srcs {
                acc.xor_assign(&scratch[s as usize]);
            }
            scratch[view.dst as usize] = acc;
        }
    }
    Ok(op
        .data_writes
        .iter()
        .chain(&op.parity_writes)
        .map(|(cell, a)| (*a, scratch[cell.index(cols)].clone()))
        .collect())
}

/// One modeled undo record: restore `addr` to `pre`.
struct UndoRecord {
    addr: DiskAddr,
    pre: SymExpr,
    /// Position in the write sequence (for [`JournalCoverage::DropEntry`]).
    write_index: usize,
}

/// Applies a crash prefix and replays the journal, then checks the
/// result equals `base` — the state the op started from — at every
/// address. `crash_index` counts the op's writes completed.
fn check_crash_prefix(
    base: &SymBackend,
    writes: &[(DiskAddr, SymExpr)],
    journal: &[UndoRecord],
    crash_index: usize,
    global_offset: usize,
) -> Result<(), JournalError> {
    let mut state = base.clone();
    for (a, v) in &writes[..crash_index] {
        state.set(*a, v.clone());
    }
    // Rollback replays the stored pre-images in reverse write order,
    // exactly like the default `write_all`'s in-flight rollback and the
    // `FileBackend` reopen recovery.
    for rec in journal.iter().rev() {
        state.set(rec.addr, rec.pre.clone());
    }
    if state == *base {
        return Ok(());
    }
    let (&(disk, index), _) = base
        .basis
        .iter()
        .find(|&(_, &slot)| state.cells[slot] != base.cells[slot])
        .expect("states differ at some address");
    let addr = DiskAddr { disk, index };
    Err(JournalError::MissingUndo {
        crash_index: global_offset + crash_index,
        addr,
        detail: format!(
            "replay leaves {} but rollback requires {}",
            render_addr_expr(state.get(addr)),
            render_addr_expr(base.get(addr)),
        ),
    })
}

/// Proves all-crash-prefix atomicity of `ops` executed in order, each
/// stored under its own journal, with the journal contents given by
/// `coverage`.
///
/// Every crash prefix of every op's write sequence must replay to the
/// state with all earlier ops applied and this op absent, and that state
/// must be all-old-or-all-new per stripe, never torn.
///
/// # Errors
///
/// The first [`JournalError`], naming the crash index (counted over the
/// whole write sequence) and the address the journal fails to cover.
pub fn prove_op_atomicity(
    ops: &[LoweredOp],
    coverage: JournalCoverage,
) -> Result<JournalProof, JournalError> {
    let pre = SymBackend::pre_state(ops.iter());

    // Each op's write sequence. Phase separation: an op gathers every
    // pre-image and performs every read before its first write, so all
    // its values are expressions over the state the earlier ops left.
    let mut post = pre.clone();
    let mut op_writes: Vec<Vec<(DiskAddr, SymExpr)>> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let writes = op_write_values(i, op, &post)?;
        for (a, v) in &writes {
            post.set(*a, v.clone());
        }
        op_writes.push(writes);
    }

    let mut state = pre.clone();
    let mut crash_points = 0;
    let mut global_offset = 0;
    for (u, writes) in op_writes.iter().enumerate() {
        let journal: Vec<UndoRecord> = writes
            .iter()
            .enumerate()
            .map(|(j, (a, _))| UndoRecord {
                addr: *a,
                pre: state.get(*a).clone(),
                write_index: global_offset + j,
            })
            .filter(|rec| coverage != JournalCoverage::DropEntry(rec.write_index))
            .collect();
        for k in 0..=writes.len() {
            check_crash_prefix(&state, writes, &journal, k, global_offset)?;
            crash_points += 1;
        }
        // The state every rollback restores is all-old-or-all-new per
        // stripe: every earlier op's targets hold post values, this and
        // every later op's hold pre values. (Past an op's commit point its
        // journal is discarded and its targets are all-new by
        // construction.)
        for (op, other) in op_writes.iter().enumerate() {
            let uniform = if op < u { &post } else { &pre };
            for (a, _) in other {
                if state.get(*a) != uniform.get(*a) {
                    let crash_index = global_offset;
                    return Err(JournalError::TornStripe { crash_index, op, addr: *a });
                }
            }
        }
        for (a, v) in writes {
            state.set(*a, v.clone());
        }
        global_offset += writes.len();
    }

    Ok(JournalProof { crash_points, addresses: pre.nbasis(), ops: ops.len() })
}

/// Summary of one layout's journal proofs across [`volume_op_lists`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalSummary {
    /// Op lists proven.
    pub op_lists: usize,
    /// Total crash prefixes proven across all op lists.
    pub crash_points: usize,
}

/// Stripes per op list: small, but enough that crash windows of
/// consecutive ops interleave several stripes.
const MODEL_STRIPES: usize = 3;

/// The ops the volume executes, one per stripe over `stripes` stripes,
/// as five lists: the full-stripe write ([`lower::stripe_write_op`]),
/// the §V-C recovery of the first and of the last column
/// ([`lower::recover_column_op`]), and the two-column decodes of
/// `[0, last]` and `[0, 1]` ([`lower::decode_op`]).
pub fn volume_op_lists(layout: &Layout, stripes: usize) -> Vec<Vec<LoweredOp>> {
    let (rows, last) = (layout.rows(), layout.cols() - 1);
    let id = unrotated(layout);
    let every_ordinal: Vec<usize> = (0..layout.num_data_cells()).collect();
    let cells_of = |cols: &[usize]| -> Vec<Cell> {
        cols.iter().flat_map(|&col| layout.cells_in_col(col)).collect()
    };
    let mut lists: Vec<Vec<LoweredOp>> = vec![Vec::new(); 5];
    for stripe in 0..stripes {
        let addr = |c| lower::cell_addr(&id, rows, stripe, c);
        let decode = |cols: &[usize]| {
            lower::decode_op(layout, cols, &[], &cells_of(cols), &addr)
                .expect("two lost columns are within an MDS code's tolerance")
        };
        let ops = [
            lower::stripe_write_op(layout, &every_ordinal, |_| false, &addr).op,
            lower::recover_column_op(layout, 0, &cells_of(&[0]), &addr),
            lower::recover_column_op(layout, last, &cells_of(&[last]), &addr),
            decode(&[0, last]),
            decode(&[0, 1]),
        ];
        for (list, op) in lists.iter_mut().zip(ops) {
            list.push(op);
        }
    }
    lists
}

/// Proves all-crash-prefix atomicity for every op list of
/// [`volume_op_lists`] over `MODEL_STRIPES` stripes, one journal unit
/// per op.
///
/// # Errors
///
/// The first [`JournalError`] across any op list.
pub fn prove_layout_journal(layout: &Layout) -> Result<JournalSummary, JournalError> {
    let mut summary = JournalSummary { op_lists: 0, crash_points: 0 };
    for ops in volume_op_lists(layout, MODEL_STRIPES) {
        let proof = prove_op_atomicity(&ops, JournalCoverage::Full)?;
        summary.op_lists += 1;
        summary.crash_points += proof.crash_points;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    /// The write targets of `op`, in the order it stores them.
    fn targets(op: &LoweredOp) -> impl Iterator<Item = DiskAddr> + '_ {
        op.data_writes.iter().chain(&op.parity_writes).map(|&(_, a)| a)
    }

    #[test]
    fn every_code_proves_atomicity_at_small_primes() {
        for name in crate::CODE_NAMES {
            for p in [5usize, 7] {
                let code = build(name, p).unwrap_or_else(|e| panic!("{e}"));
                let s = prove_layout_journal(code.layout())
                    .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
                assert_eq!(s.op_lists, 5);
                assert!(s.crash_points > 0);
            }
        }
    }

    #[test]
    fn dropped_undo_record_names_the_crash_and_address() {
        let code = build("hv", 5).unwrap();
        let ops = volume_op_lists(code.layout(), MODEL_STRIPES).swap_remove(0);
        // Drop the undo record of write 3 of the first full-stripe write:
        // every crash prefix that has already stored write 3 (crash index
        // >= 4) replays to a state still holding the new value there.
        let err = prove_op_atomicity(&ops, JournalCoverage::DropEntry(3)).unwrap_err();
        let victim = targets(&ops[0]).nth(3).unwrap();
        match &err {
            JournalError::MissingUndo { crash_index, addr, .. } => {
                assert_eq!(*crash_index, 4, "first prefix containing write 3");
                assert_eq!(*addr, victim);
            }
            other => panic!("expected MissingUndo, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("crash index 4"), "{msg}");
        assert!(msg.contains(&format!("disk {}", victim.disk)), "{msg}");
    }

    #[test]
    fn dropped_undo_record_is_caught_per_op_too() {
        // A record dropped from the second op's journal: crash indices
        // count on from the first op's writes.
        let code = build("hv", 5).unwrap();
        let ops = volume_op_lists(code.layout(), MODEL_STRIPES).swap_remove(1);
        let first = targets(&ops[0]).count();
        let err = prove_op_atomicity(&ops, JournalCoverage::DropEntry(first)).unwrap_err();
        match &err {
            JournalError::MissingUndo { crash_index, addr, .. } => {
                assert_eq!(*crash_index, first + 1, "{err}");
                assert_eq!(Some(*addr), targets(&ops[1]).next(), "{err}");
            }
            other => panic!("expected MissingUndo, got {other}"),
        }
    }

    #[test]
    fn two_column_decodes_prove_op_by_op() {
        let code = build("rdp", 5).unwrap();
        for ops in &volume_op_lists(code.layout(), MODEL_STRIPES)[3..] {
            let proof = prove_op_atomicity(ops, JournalCoverage::Full).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(proof.ops, MODEL_STRIPES);
        }
    }

    #[test]
    fn crash_points_cover_every_write_prefix() {
        let code = build("hv", 5).unwrap();
        for ops in volume_op_lists(code.layout(), 2) {
            let writes: usize = ops.iter().map(|o| targets(o).count()).sum();
            let proof = prove_op_atomicity(&ops, JournalCoverage::Full).unwrap();
            assert_eq!(proof.crash_points, writes + ops.len());
        }
    }
}
