//! Symbolic crash-consistency proof for the pipeline's undo journal.
//!
//! `IoPipeline` protects every multi-element write with one protocol:
//! gather the pre-images of **all** the write targets of the ops it was
//! handed, journal them as one record, store, commit. The ops stored
//! under one journal are a *journal unit*: [`IoPipeline::execute`] runs
//! units of one op, `execute_batch` runs the whole batch as one unit, and
//! a unit's reads see the state the earlier units left. The chaos harness
//! samples crash points at random; this module replaces sampling with a
//! proof: over the same GF(2) symbolic domain as [`crate::symbolic`] —
//! but with **backend addresses** as the basis instead of stripe cells —
//! it replays the journal from *every* crash prefix of every unit's write
//! sequence and proves the result is exactly the state with the earlier
//! units applied and this unit absent, per stripe (all-old-or-all-new),
//! for all possible disk contents simultaneously.
//!
//! The journal itself is modeled faithfully, not assumed correct: the
//! entries are the addresses the protocol actually gathers, with
//! pre-image *expressions* read at gather time (at unit start, before any
//! of the unit's writes). [`JournalCoverage::DropEntry`] lets tests knock
//! one undo record out and watch the proof reject the exact crash
//! prefixes that depend on it, naming the orphaned address — the
//! machine-checkable version of "the journal covers every write".
//!
//! [`IoPipeline::execute`]: raid_array::pipeline::IoPipeline::execute

use std::collections::BTreeMap;
use std::fmt;

use raid_array::pipeline::{DiskAddr, LoweredOp};
use raid_core::Layout;

use crate::hazard::{lowered_encode_batch, lowered_rebuild_batch};
use crate::symbolic::SymExpr;

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
    /// Distinct backend addresses in the batch's footprint.
    pub addresses: usize,
    /// Ops in the batch.
    pub ops: usize,
}

/// The symbolic backend: one [`SymExpr`] per touched address, over a
/// basis where vector `b` is "whatever bytes address `b` held before the
/// batch".
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
/// `IoPipeline`'s scratch-stripe semantics.
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
/// result equals `want` at every address. `crash_index` counts writes
/// completed; `base` is the state the unit started from.
fn check_crash_prefix(
    base: &SymBackend,
    writes: &[(DiskAddr, SymExpr)],
    journal: &[UndoRecord],
    crash_index: usize,
    global_offset: usize,
    want: &SymBackend,
) -> Result<(), JournalError> {
    let mut state = base.clone();
    for (a, v) in &writes[..crash_index] {
        state.set(*a, v.clone());
    }
    // Rollback replays the stored pre-images in reverse write order,
    // exactly like `IoPipeline`'s in-flight rollback and the
    // `FileBackend` reopen recovery.
    for rec in journal.iter().rev() {
        state.set(rec.addr, rec.pre.clone());
    }
    if state == *want {
        return Ok(());
    }
    let (&(disk, index), _) = want
        .basis
        .iter()
        .find(|&(_, &slot)| state.cells[slot] != want.cells[slot])
        .expect("states differ at some address");
    let addr = DiskAddr { disk, index };
    Err(JournalError::MissingUndo {
        crash_index: global_offset + crash_index,
        addr,
        detail: format!(
            "replay leaves {} but rollback requires {}",
            render_addr_expr(state.get(addr)),
            render_addr_expr(want.get(addr)),
        ),
    })
}

/// Proves all-crash-prefix atomicity of `units` — consecutive slices of
/// one op sequence, each stored under its own journal — with the journal
/// contents given by `coverage`.
///
/// Every crash prefix of every unit's write sequence must replay to the
/// state with all earlier units applied and this unit absent, and that
/// state must be all-old-or-all-new per stripe, never torn. One unit
/// holding the whole batch is `execute_batch`; units of one op are a loop
/// of `execute`.
///
/// # Errors
///
/// The first [`JournalError`], naming the crash index and the address
/// the journal fails to cover.
pub fn prove_batch_atomicity(
    units: &[&[LoweredOp]],
    coverage: JournalCoverage,
) -> Result<JournalProof, JournalError> {
    let pre = SymBackend::pre_state(units.iter().flat_map(|unit| unit.iter()));

    // Each unit's write sequence (`writers` holds the op index of every
    // write). Phase separation: a unit gathers every pre-image and
    // performs every read before its first write, so all its values are
    // expressions over the state the earlier units left — even when two
    // of its ops write the same address.
    let mut post = pre.clone();
    let mut unit_writes: Vec<Vec<(DiskAddr, SymExpr)>> = Vec::new();
    let mut writers: Vec<Vec<usize>> = Vec::new();
    let mut first_op = 0;
    for unit in units {
        let (mut writes, mut ops) = (Vec::new(), Vec::new());
        for (i, op) in unit.iter().enumerate() {
            let values = op_write_values(first_op + i, op, &post)?;
            ops.extend(std::iter::repeat_n(first_op + i, values.len()));
            writes.extend(values);
        }
        for (a, v) in &writes {
            post.set(*a, v.clone());
        }
        first_op += unit.len();
        unit_writes.push(writes);
        writers.push(ops);
    }

    let mut state = pre.clone();
    let mut crash_points = 0;
    let mut global_offset = 0;
    for (u, writes) in unit_writes.iter().enumerate() {
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
            check_crash_prefix(&state, writes, &journal, k, global_offset, &state)?;
            crash_points += 1;
        }
        // The state every rollback restores is all-old-or-all-new per
        // stripe: every earlier unit's targets hold post values, this and
        // every later unit's hold pre values. (Past a unit's commit point
        // its journal is discarded and its targets are all-new by
        // construction.)
        for (v, (other, ops)) in unit_writes.iter().zip(&writers).enumerate() {
            let uniform = if v < u { &post } else { &pre };
            for ((a, _), &op) in other.iter().zip(ops) {
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

    Ok(JournalProof { crash_points, addresses: pre.nbasis(), ops: first_op })
}

/// `ops` as units of one: the journal sequence of looping `execute`.
pub fn units_of_one(ops: &[LoweredOp]) -> Vec<&[LoweredOp]> {
    ops.chunks(1).collect()
}

/// Summary of one layout's journal proofs across modeled batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalSummary {
    /// Proofs run ((encode + rebuilds) × {one unit, units of one}).
    pub batches: usize,
    /// Total crash prefixes proven across all batches.
    pub crash_points: usize,
}

/// Stripes per modeled batch: small, but enough that one-op and
/// whole-batch crash windows interleave multiple stripes.
const MODEL_STRIPES: usize = 3;

/// Proves all-crash-prefix atomicity for every batched path the volume
/// lowers — `encode_all` and `rebuild_all` under one- and two-column
/// loss — stored as one journal unit and as units of one op.
///
/// # Errors
///
/// The first [`JournalError`] across any modeled batch.
pub fn prove_layout_journal(layout: &Layout) -> Result<JournalSummary, JournalError> {
    let last = layout.cols() - 1;
    let batches = [
        lowered_encode_batch(layout, MODEL_STRIPES),
        lowered_rebuild_batch(layout, MODEL_STRIPES, &[0]),
        lowered_rebuild_batch(layout, MODEL_STRIPES, &[0, last]),
    ];
    let mut summary = JournalSummary { batches: 0, crash_points: 0 };
    for ops in &batches {
        for units in [vec![ops.as_slice()], units_of_one(ops)] {
            let proof = prove_batch_atomicity(&units, JournalCoverage::Full)?;
            summary.batches += 1;
            summary.crash_points += proof.crash_points;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn every_code_proves_atomicity_at_small_primes() {
        for name in crate::CODE_NAMES {
            for p in [5usize, 7] {
                let code = build(name, p).unwrap_or_else(|e| panic!("{e}"));
                let s = prove_layout_journal(code.layout())
                    .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
                assert_eq!(s.batches, 6);
                assert!(s.crash_points > 0);
            }
        }
    }

    #[test]
    fn dropped_undo_record_names_the_crash_and_address() {
        let code = build("hv", 5).unwrap();
        let ops = lowered_encode_batch(code.layout(), MODEL_STRIPES);
        // Drop the undo record of write 3: every crash prefix that has
        // already stored write 3 (crash index >= 4) replays to a state
        // still holding the new value at its address.
        let err = prove_batch_atomicity(&[&ops], JournalCoverage::DropEntry(3)).unwrap_err();
        let victim = ops[0].parity_writes[3].1; // writes 0..: op 0's parities first
        match &err {
            JournalError::MissingUndo { crash_index, addr, .. } => {
                assert_eq!(*crash_index, 4, "first prefix containing write 3");
                assert_eq!((addr.disk, addr.index), (victim.disk, victim.index));
            }
            other => panic!("expected MissingUndo, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("crash index 4"), "{msg}");
        assert!(msg.contains(&format!("disk {}", victim.disk)), "{msg}");
    }

    #[test]
    fn dropped_undo_record_is_caught_per_op_too() {
        let code = build("hv", 5).unwrap();
        let ops = lowered_encode_batch(code.layout(), MODEL_STRIPES);
        let err =
            prove_batch_atomicity(&units_of_one(&ops), JournalCoverage::DropEntry(0)).unwrap_err();
        assert!(
            matches!(err, JournalError::MissingUndo { crash_index: 1, .. }),
            "got {err}"
        );
    }

    #[test]
    fn rebuild_batches_prove_in_both_modes() {
        let code = build("rdp", 5).unwrap();
        let layout = code.layout();
        let ops = lowered_rebuild_batch(layout, MODEL_STRIPES, &[0, 1]);
        for units in [vec![ops.as_slice()], units_of_one(&ops)] {
            let proof = prove_batch_atomicity(&units, JournalCoverage::Full)
                .unwrap_or_else(|e| panic!("{} unit(s): {e}", units.len()));
            assert_eq!(proof.ops, MODEL_STRIPES);
        }
    }

    #[test]
    fn crash_points_cover_every_write_prefix() {
        let code = build("hv", 5).unwrap();
        let ops = lowered_encode_batch(code.layout(), 2);
        let writes: usize =
            ops.iter().map(|o| o.data_writes.len() + o.parity_writes.len()).sum();
        let whole = prove_batch_atomicity(&[&ops], JournalCoverage::Full).unwrap();
        assert_eq!(whole.crash_points, writes + 1);
        let singly = prove_batch_atomicity(&units_of_one(&ops), JournalCoverage::Full).unwrap();
        assert_eq!(singly.crash_points, writes + ops.len());
    }
}
