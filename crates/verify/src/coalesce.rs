//! Symbolic proof that the volume's stripe-write lowering is correct.
//!
//! Every healthy stripe write — an uncached `write` and a coalesced cache
//! flush alike — is the one `LoweredOp` [`lower::stripe_write_op`]
//! returns, whose XOR program runs over a **double-height** grid: rows
//! `0..R` hold the stripe's *old* element values, and the upper half
//! holds the *new* values — `up(m)` for each dirty data cell `m` is
//! preset by the caller, and each touched parity `p` is computed into
//! `up(p)`. This module takes exactly that op, under rotation-free
//! addressing, and proves in the same GF(2) symbolic domain as
//! [`crate::plan_check`] that for every touched parity its program
//! computes exactly the right linear combination:
//!
//! * **RMW**: `up(p) = p ⊕ Σ_dirty (m ⊕ up(m))` — the incremental
//!   parity-delta identity, with cascaded parities (a chain whose member
//!   is itself an updated parity) folded in recursively;
//! * **Reconstruct / full-stripe**: `up(p) = Σ_members (dirty ? up(m) : m)`
//!   — direct re-encode from the post-write stripe.
//!
//! Which of the two the lowering chose is read off the op itself (only
//! RMW reads the cells it overwrites). Equality against the
//! independently-derived expectation also proves the program never reads
//! an *uninitialized* upper-half scratch cell: any such read would leak a
//! basis vector the expectation cannot contain. The volume runs the plan
//! as lowered — no `xopt` pass — so that is the one form proven.

use std::collections::BTreeMap;
use std::fmt;

use raid_array::lower;
use raid_array::pipeline::LoweredOp;
use raid_core::plan::write::{WriteMode, WritePlan};
use raid_core::{Cell, Layout};

use crate::hazard::unrotated;
use crate::symbolic::{SymExpr, SymState};

/// A failed coalesced-flush proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceError {
    /// Write mode under which the flush program was compiled.
    pub mode: WriteMode,
    /// Dirty data ordinals of the failing flush.
    pub ordinals: Vec<usize>,
    /// Parity cell whose computed value deviates.
    pub parity: Cell,
    /// The symbolic equation, rendered.
    pub detail: String,
}

impl fmt::Display for CoalesceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coalesced flush ({:?}, dirty {:?}) computes the wrong \
             value for parity {}: {}",
            self.mode, self.ordinals, self.parity, self.detail
        )
    }
}

impl std::error::Error for CoalesceError {}

/// The independently-derived expected expression for every touched
/// parity's `up(p)` slot, in cascade (dependency) order.
///
/// Seeded with `up(m)` for each dirty data cell, then each parity whose
/// touched members are all resolved is folded in — the same dependency
/// order the step builder must discover, but derived here from the chain
/// declarations alone.
fn expected_exprs(layout: &Layout, plan: &WritePlan, mode: WriteMode) -> Vec<(Cell, SymExpr)> {
    let (rows, cols) = (layout.rows(), layout.cols());
    let nbasis = 2 * rows * cols;
    let var = |c: Cell| SymExpr::basis(nbasis, c.index(cols));
    let up = |c: Cell| Cell::new(c.row + rows, c.col);

    // New values known so far: dirty data first, parities as they resolve.
    let mut new: BTreeMap<Cell, SymExpr> = plan
        .data_writes
        .iter()
        .map(|&m| (m, var(up(m))))
        .collect();
    let mut pending = plan.parity_writes.clone();
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let ready = pending
            .iter()
            .position(|&p| {
                let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns a chain"));
                chain
                    .members
                    .iter()
                    .all(|m| !plan.parity_writes.contains(m) || new.contains_key(m))
            })
            .expect("parity update dependencies form a cycle");
        let p = pending.remove(ready);
        let chain = layout.chain(layout.chain_of_parity(p).expect("parity owns a chain"));
        let mut acc = SymExpr::zero(nbasis);
        match mode {
            WriteMode::Rmw => {
                acc.xor_assign(&var(p));
                for m in &chain.members {
                    if let Some(newer) = new.get(m) {
                        acc.xor_assign(&var(*m));
                        acc.xor_assign(newer);
                    }
                }
            }
            WriteMode::Reconstruct | WriteMode::FullStripe => {
                for m in &chain.members {
                    match new.get(m) {
                        Some(newer) => acc.xor_assign(newer),
                        None => acc.xor_assign(&var(*m)),
                    }
                }
            }
        }
        new.insert(p, acc.clone());
        out.push((p, acc));
    }
    out
}

/// The op [`lower::stripe_write_op`] returns for `ordinals`, with every
/// other element clean-resident or none, and the write it implements.
fn lowered(
    layout: &Layout,
    ordinals: &[usize],
    resident: bool,
) -> (LoweredOp, WritePlan, WriteMode) {
    let rows = layout.rows();
    let id = unrotated(layout);
    let addr = |c| lower::cell_addr(&id, rows, 0, c);
    let op = lower::stripe_write_op(layout, ordinals, |_| resident, &addr).op;
    let down = |&(c, _): &(Cell, _)| Cell::new(c.row - rows, c.col);
    let plan = WritePlan {
        data_writes: op.data_writes.iter().map(down).collect(),
        parity_writes: op.parity_writes.iter().map(down).collect(),
    };
    // Only RMW reads the old values of the cells it overwrites.
    let rmw = op.reads.iter().any(|(c, _)| plan.data_writes.contains(c));
    let mode = if rmw { WriteMode::Rmw } else { WriteMode::Reconstruct };
    (op, plan, mode)
}

/// Checks that `op`'s program computes every touched parity's expected
/// expression under `mode` over the double-height grid.
fn check(
    layout: &Layout,
    op: &LoweredOp,
    plan: &WritePlan,
    mode: WriteMode,
) -> Result<(), CoalesceError> {
    let (rows, cols) = (layout.rows(), layout.cols());
    let mut state = SymState::identity(2 * rows, cols);
    let program = op.plan.as_ref().expect("a stripe write carries a plan");
    state.execute(program).expect("shape fixed by construction");
    for (p, want) in &expected_exprs(layout, plan, mode) {
        let got = state.expr(Cell::new(p.row + rows, p.col));
        if got != want {
            let n = 2 * rows * cols;
            return Err(CoalesceError {
                mode,
                ordinals: plan
                    .data_writes
                    .iter()
                    .filter_map(|&c| layout.data_ordinal(c))
                    .collect(),
                parity: *p,
                detail: format!(
                    "computed {} but the write algebra requires {}",
                    got.render(cols, n),
                    want.render(cols, n)
                ),
            });
        }
    }
    Ok(())
}

/// Proves one stripe write: the op the volume would issue for the dirty
/// `ordinals` — with every other element clean-resident in the cache
/// (`resident`) or none — computes every touched parity's expected
/// expression. Returns the mode the lowering chose.
///
/// # Errors
///
/// Returns the first deviating parity with its symbolic equation.
///
/// # Panics
///
/// Panics if `ordinals` is empty or out of range for the layout (caller
/// bug, mirroring `plan_batched_write`).
pub fn prove_stripe_write(
    layout: &Layout,
    ordinals: &[usize],
    resident: bool,
) -> Result<WriteMode, CoalesceError> {
    let (op, plan, mode) = lowered(layout, ordinals, resident);
    check(layout, &op, &plan, mode).map(|()| mode)
}

/// Dirty-ordinal subsets worth proving for a layout: the boundary
/// singletons, a gapped pair (parity sharing across a hole), alternating
/// elements, a half-stripe run, and the full stripe.
fn probe_subsets(layout: &Layout) -> Vec<Vec<usize>> {
    let n = layout.num_data_cells();
    let mut subsets = vec![vec![0], vec![n - 1], (0..n).collect::<Vec<_>>()];
    if n >= 3 {
        subsets.push(vec![0, n - 1]);
        subsets.push((0..n).step_by(2).collect());
        subsets.push((0..n / 2).collect());
    }
    subsets
}

/// Proves every probe subset both cold (nothing resident: the uncached
/// write and the first flush) and warm (everything else clean-resident,
/// which steers the lowering to reconstruct). Returns the number of
/// proofs that ran.
///
/// # Errors
///
/// Returns the first failing proof.
pub fn prove_layout_flushes(layout: &Layout) -> Result<usize, CoalesceError> {
    let mut proofs = 0;
    for subset in probe_subsets(layout) {
        for resident in [false, true] {
            prove_stripe_write(layout, &subset, resident)?;
            proofs += 1;
        }
    }
    Ok(proofs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn every_code_proves_coalesced_flushes_at_small_primes() {
        for name in crate::CODE_NAMES {
            for p in [5usize, 7] {
                let code = build(name, p).unwrap_or_else(|e| panic!("{e}"));
                let proofs = prove_layout_flushes(code.layout())
                    .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
                assert!(proofs >= 6, "{name} p={p} ran only {proofs} proofs");
            }
        }
    }

    #[test]
    fn both_write_modes_are_reached_and_proven() {
        let code = build("hv", 7).unwrap();
        let layout = code.layout();
        // A lone dirty element with a cold cache is the classic
        // read-modify-write; with the rest of the stripe resident the
        // lowering reconstructs instead.
        assert_eq!(prove_stripe_write(layout, &[3], false).unwrap(), WriteMode::Rmw);
        assert_eq!(prove_stripe_write(layout, &[3], true).unwrap(), WriteMode::Reconstruct);
    }

    #[test]
    fn a_sabotaged_expectation_is_rejected() {
        // Guard the prover itself: checking the lowered program against
        // the other mode's algebra must be caught (RMW and reconstruct
        // programs are different linear maps whenever some member is
        // untouched).
        let code = build("rdp", 5).unwrap();
        let layout = code.layout();
        let (op, plan, mode) = lowered(layout, &[0], true);
        assert_eq!(mode, WriteMode::Reconstruct);
        let err = check(layout, &op, &plan, WriteMode::Rmw).unwrap_err();
        assert_eq!(err.ordinals, vec![0]);
    }
}
