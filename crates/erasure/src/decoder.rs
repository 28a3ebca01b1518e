//! Generic erasure decoding over a [`Layout`]: peeling with a GF(2)
//! Gaussian-elimination fallback.
//!
//! Peeling repeatedly finds a chain equation with exactly one erased cell
//! and solves it — this is how every RAID-6 array code is decoded in
//! practice, and the order in which cells peel *is* the paper's
//! recovery-chain structure. Codes with adjuster terms (EVENODD's `S`)
//! occasionally stall the peel; the Gaussian fallback then solves the
//! residual system exactly, so [`plan_decode`] succeeds iff the erasure
//! pattern is information-theoretically decodable. That property is what
//! the exhaustive MDS tests of every code crate assert.

use std::collections::VecDeque;
use std::fmt;

use crate::bitset::BitSet;
use crate::geometry::Cell;
use crate::layout::{ChainId, Layout};
use crate::stripe::Stripe;

/// One reconstruction step: `target = XOR(sources)`.
///
/// For a peeled step, `via` names the chain used and `sources` are the other
/// cells of that chain (some of which may themselves be targets of earlier
/// steps). For a Gaussian step, `via` is `None` and `sources` are
/// originally-surviving cells only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeStep {
    /// The cell being reconstructed.
    pub target: Cell,
    /// Cells whose XOR reproduces `target`.
    pub sources: Vec<Cell>,
    /// The chain used, when the step came from peeling.
    pub via: Option<ChainId>,
}

/// An ordered reconstruction plan for a set of erased cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodePlan {
    /// Steps in execution order.
    pub steps: Vec<DecodeStep>,
    /// Number of steps solved by the Gaussian fallback (0 for a pure peel).
    pub gauss_steps: usize,
}

impl DecodePlan {
    /// True if peeling alone decoded everything.
    pub fn is_pure_peel(&self) -> bool {
        self.gauss_steps == 0
    }
}

/// Error returned when an erasure pattern is not decodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotDecodableError {
    /// Cells that could not be reconstructed.
    pub unresolved: Vec<Cell>,
}

impl fmt::Display for NotDecodableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} erased cells are not decodable", self.unresolved.len())
    }
}

impl std::error::Error for NotDecodableError {}

/// Builds a reconstruction plan for `lost` cells.
///
/// # Errors
///
/// Returns [`NotDecodableError`] if the pattern exceeds the code's erasure
/// correction capability.
pub fn plan_decode(layout: &Layout, lost: &[Cell]) -> Result<DecodePlan, NotDecodableError> {
    let cols = layout.cols();
    let ncells = layout.num_cells();
    let mut lost_set = BitSet::new(ncells);
    for &c in lost {
        lost_set.insert(c.index(cols));
    }

    // Per-chain count of erased cells in its equation.
    let mut erased_in_chain: Vec<usize> = layout
        .chains()
        .iter()
        .map(|ch| ch.cells().filter(|c| lost_set.contains(c.index(cols))).count())
        .collect();

    let mut queue: VecDeque<usize> = erased_in_chain
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n == 1)
        .map(|(i, _)| i)
        .collect();

    let mut steps = Vec::with_capacity(lost.len());
    let mut remaining = lost_set.len();

    while let Some(ci) = queue.pop_front() {
        if erased_in_chain[ci] != 1 {
            continue; // stale queue entry
        }
        let chain = layout.chain(ChainId(ci));
        let target = chain
            .cells()
            .find(|c| lost_set.contains(c.index(cols)))
            .expect("chain with one erased cell");
        let sources: Vec<Cell> = chain.cells().filter(|&c| c != target).collect();
        steps.push(DecodeStep { target, sources, via: Some(ChainId(ci)) });
        lost_set.remove(target.index(cols));
        remaining -= 1;
        for eq in layout.equations_of(target) {
            erased_in_chain[eq.0] -= 1;
            if erased_in_chain[eq.0] == 1 {
                queue.push_back(eq.0);
            }
        }
    }

    if remaining == 0 {
        return Ok(DecodePlan { steps, gauss_steps: 0 });
    }

    // Gaussian fallback on the residual unknowns.
    let residual: Vec<Cell> = lost_set.iter().map(|i| Cell::from_index(i, cols)).collect();
    let gauss = gauss_solve(layout, &lost_set, &residual)?;
    let gauss_steps = gauss.len();
    steps.extend(gauss);
    Ok(DecodePlan { steps, gauss_steps })
}

/// Solves the residual system by GF(2) elimination.
///
/// Unknowns are the still-erased cells; each chain equation contributes a
/// row `XOR(unknowns in eq) = XOR(known cells in eq)`. Known right-hand
/// sides are tracked as symbolic XOR lists of surviving cells.
fn gauss_solve(
    layout: &Layout,
    lost_set: &BitSet,
    unknowns: &[Cell],
) -> Result<Vec<DecodeStep>, NotDecodableError> {
    let cols = layout.cols();
    let ncells = layout.num_cells();
    let nu = unknowns.len();
    let unknown_idx = |c: Cell| unknowns.iter().position(|&u| u == c);

    // Build rows: (coefficient bitset over unknowns, rhs cell multiset as bitset).
    struct Row {
        coef: BitSet,
        rhs: BitSet,
    }
    let mut rows: Vec<Row> = Vec::new();
    for chain in layout.chains() {
        let mut coef = BitSet::new(nu);
        let mut rhs = BitSet::new(ncells);
        let mut touches = false;
        for c in chain.cells() {
            if lost_set.contains(c.index(cols)) {
                let ui = unknown_idx(c).expect("lost cell must be an unknown");
                // XOR semantics: toggling twice cancels.
                if !coef.insert(ui) {
                    coef.remove(ui);
                }
                touches = true;
            } else if !rhs.insert(c.index(cols)) {
                rhs.remove(c.index(cols));
            }
        }
        if touches && !coef.is_empty() {
            rows.push(Row { coef, rhs });
        }
    }

    // Forward elimination with back-substitution (Gauss-Jordan).
    let mut pivot_of: Vec<Option<usize>> = vec![None; nu]; // unknown -> row index
    let mut used = vec![false; rows.len()];
    for (u, pivot) in pivot_of.iter_mut().enumerate() {
        let Some(r) = (0..rows.len()).find(|&r| !used[r] && rows[r].coef.contains(u)) else {
            continue;
        };
        used[r] = true;
        *pivot = Some(r);
        // Split borrow: clone the pivot row content (tiny bitsets).
        let pivot_coef = rows[r].coef.clone();
        let pivot_rhs = rows[r].rhs.clone();
        for (ri, row) in rows.iter_mut().enumerate() {
            if ri != r && row.coef.contains(u) {
                xor_bits(&mut row.coef, &pivot_coef);
                xor_bits(&mut row.rhs, &pivot_rhs);
            }
        }
    }

    let unresolved: Vec<Cell> = (0..nu)
        .filter(|&u| pivot_of[u].is_none())
        .map(|u| unknowns[u])
        .collect();
    if !unresolved.is_empty() {
        return Err(NotDecodableError { unresolved });
    }

    let mut steps = Vec::with_capacity(nu);
    for u in 0..nu {
        let r = pivot_of[u].expect("checked above");
        debug_assert_eq!(rows[r].coef.len(), 1, "row not fully reduced");
        let sources: Vec<Cell> = rows[r].rhs.iter().map(|i| Cell::from_index(i, cols)).collect();
        steps.push(DecodeStep { target: unknowns[u], sources, via: None });
    }
    Ok(steps)
}

/// `a ^= b` over equal-capacity bitsets (symmetric difference).
fn xor_bits(a: &mut BitSet, b: &BitSet) {
    for v in b.iter() {
        if !a.insert(v) {
            a.remove(v);
        }
    }
}

/// Builds a plan that reconstructs only the `wanted` cells (plus whatever
/// they transitively depend on) out of a larger erasure — the backward
/// slice of [`plan_decode`]'s step DAG.
///
/// This is what makes *double-degraded reads* affordable: a read of a few
/// elements while two disks are down only fetches the ancestors of those
/// elements' recovery steps instead of decoding both columns outright.
///
/// # Errors
///
/// Returns [`NotDecodableError`] if the full pattern is undecodable (the
/// slice cannot be valid if the system itself is not).
pub fn plan_targeted_decode(
    layout: &Layout,
    lost: &[Cell],
    wanted: &[Cell],
) -> Result<DecodePlan, NotDecodableError> {
    let full = plan_decode(layout, lost)?;
    let mut lost_set = BitSet::new(layout.num_cells());
    for &c in lost {
        lost_set.insert(c.index(layout.cols()));
    }
    Ok(backward_slice(layout, &full, &lost_set, wanted))
}

/// The steps of `full` — a plan for the cells in `lost` — that the `wanted`
/// cells transitively depend on, in `full`'s order: walking it backwards,
/// a step is kept when its target is needed, and then its lost sources
/// are needed too.
pub fn backward_slice(
    layout: &Layout,
    full: &DecodePlan,
    lost: &BitSet,
    wanted: &[Cell],
) -> DecodePlan {
    let cols = layout.cols();
    let mut needed = BitSet::new(layout.num_cells());
    for c in wanted.iter().map(|c| c.index(cols)).filter(|&i| lost.contains(i)) {
        needed.insert(c);
    }
    let mut keep = BitSet::new(full.steps.len());
    for (i, step) in full.steps.iter().enumerate().rev() {
        if needed.contains(step.target.index(cols)) {
            keep.insert(i);
            for src in step.sources.iter().map(|s| s.index(cols)).filter(|&s| lost.contains(s)) {
                needed.insert(src);
            }
        }
    }
    let steps: Vec<DecodeStep> = keep.iter().map(|i| full.steps[i].clone()).collect();
    let gauss_steps = steps.iter().filter(|s| s.via.is_none()).count();
    DecodePlan { steps, gauss_steps }
}

/// Executes a plan against a stripe whose lost cells are zeroed or stale.
///
/// The steps are lowered to a compiled [`crate::xplan::XorPlan`] (cells →
/// buffer indices, one arena) and interpreted, so execution allocates once
/// for the compiled plan instead of one scratch buffer per step.
pub fn apply_plan(stripe: &mut Stripe, plan: &DecodePlan) {
    crate::xplan::XorPlan::from_steps(
        stripe.rows(),
        stripe.cols(),
        plan.steps.iter().map(|s| (s.target, s.sources.as_slice())),
    )
    .execute(stripe);
}

/// Convenience: plan and apply in one call.
///
/// # Errors
///
/// Returns [`NotDecodableError`] if the pattern is not decodable; the stripe
/// is left untouched in that case.
pub fn decode(
    stripe: &mut Stripe,
    layout: &Layout,
    lost: &[Cell],
) -> Result<DecodePlan, NotDecodableError> {
    let plan = plan_decode(layout, lost)?;
    apply_plan(stripe, &plan);
    Ok(plan)
}

/// True if the erasure pattern can be reconstructed.
pub fn is_decodable(layout: &Layout, lost: &[Cell]) -> bool {
    plan_decode(layout, lost).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

    /// 1×5: d0 d1 d2 | p q with p = d0^d1^d2, q = d0 ^ 2-step structure:
    /// q = d1 ^ d2 (a second independent equation).
    fn two_parity_layout() -> Layout {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Parity(ParityClass::Diagonal),
        ];
        let chains = vec![
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(0, 3),
                members: vec![Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)],
            },
            Chain {
                class: ParityClass::Diagonal,
                parity: Cell::new(0, 4),
                members: vec![Cell::new(0, 1), Cell::new(0, 2)],
            },
        ];
        Layout::new(1, 5, kinds, chains).unwrap()
    }

    fn encoded_stripe(layout: &Layout, seed: u64) -> Stripe {
        let mut s = Stripe::for_layout(layout, 16);
        s.fill_data_seeded(layout, seed);
        s.encode(layout);
        s
    }

    #[test]
    fn single_erasure_peels() {
        let layout = two_parity_layout();
        let pristine = encoded_stripe(&layout, 3);
        for col in 0..5 {
            let lost = vec![Cell::new(0, col)];
            let mut s = pristine.clone();
            s.erase(lost[0]);
            let plan = decode(&mut s, &layout, &lost).unwrap();
            assert!(plan.is_pure_peel());
            assert_eq!(s, pristine, "column {col}");
        }
    }

    /// X-Code with p = 3: a genuine 2-erasure-tolerant 3×3 array code.
    /// Row 0 holds data, row 1 diagonal parity `E[1,i] = E[0,(i+2)%3]`,
    /// row 2 anti-diagonal parity `E[2,i] = E[0,(i+1)%3]`.
    fn xcode3() -> Layout {
        let c = Cell::new;
        let mut kinds = vec![ElementKind::Data; 3];
        kinds.extend(vec![ElementKind::Parity(ParityClass::Diagonal); 3]);
        kinds.extend(vec![ElementKind::Parity(ParityClass::AntiDiagonal); 3]);
        let mut chains = Vec::new();
        for i in 0..3usize {
            chains.push(Chain {
                class: ParityClass::Diagonal,
                parity: c(1, i),
                members: vec![c(0, (i + 2) % 3)],
            });
            chains.push(Chain {
                class: ParityClass::AntiDiagonal,
                parity: c(2, i),
                members: vec![c(0, (i + 1) % 3)],
            });
        }
        Layout::new(3, 3, kinds, chains).unwrap()
    }

    #[test]
    fn double_column_erasure_decodes_on_mds_layout() {
        let layout = xcode3();
        let pristine = encoded_stripe(&layout, 9);
        for a in 0..3 {
            for b in (a + 1)..3 {
                let mut lost = Vec::new();
                for r in 0..3 {
                    lost.push(Cell::new(r, a));
                    lost.push(Cell::new(r, b));
                }
                let mut s = pristine.clone();
                for &c in &lost {
                    s.erase(c);
                }
                decode(&mut s, &layout, &lost).unwrap_or_else(|e| panic!("({a},{b}): {e}"));
                assert_eq!(s, pristine, "cols ({a},{b})");
            }
        }
    }

    #[test]
    fn double_erasure_decodes() {
        // In the flat two-parity layout only patterns whose unknowns are
        // separable are decodable; enumerate and verify both outcomes.
        let layout = two_parity_layout();
        let pristine = encoded_stripe(&layout, 9);
        for a in 0..5 {
            for b in (a + 1)..5 {
                let lost = vec![Cell::new(0, a), Cell::new(0, b)];
                let mut s = pristine.clone();
                s.erase(lost[0]);
                s.erase(lost[1]);
                match decode(&mut s, &layout, &lost) {
                    Ok(_) => assert_eq!(s, pristine, "cols ({a},{b})"),
                    Err(_) => {
                        // Two patterns are genuinely undecodable here:
                        // {d0, p} (d0 appears only in the p chain) and
                        // {d1, d2} (both equations see them identically).
                        assert!(
                            (a, b) == (0, 3) || (a, b) == (1, 2),
                            "unexpected undecodable pair ({a},{b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn triple_erasure_rejected_and_stripe_untouched() {
        let layout = two_parity_layout();
        let pristine = encoded_stripe(&layout, 1);
        let lost = vec![Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)];
        let mut s = pristine;
        for &c in &lost {
            s.erase(c);
        }
        let snapshot = s.clone();
        let err = decode(&mut s, &layout, &lost).unwrap_err();
        assert!(!err.unresolved.is_empty());
        assert!(err.to_string().contains("not decodable"));
        assert_eq!(s, snapshot);
    }

    #[test]
    fn gauss_fallback_solves_coupled_system() {
        // A system where no chain has a single erasure at the start:
        // p1 = d0 ^ d1, p2 = d0 ^ d1 ^ d2, and d2 also in p1'... construct:
        // chains: A: pA = d0^d1 ; B: pB = d0^d1^d2? losing d0,d1 stalls peel
        // only if every chain containing them has 2 losses. Use:
        //   pA = d0 ^ d1
        //   pB = d0 ^ d1 ^ d2   (d2 known) -> both chains have 2 unknowns.
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Parity(ParityClass::Diagonal),
        ];
        let chains = vec![
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(0, 3),
                members: vec![Cell::new(0, 0), Cell::new(0, 1)],
            },
            Chain {
                class: ParityClass::Diagonal,
                parity: Cell::new(0, 4),
                members: vec![Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)],
            },
        ];
        let layout = Layout::new(1, 5, kinds, chains).unwrap();
        let pristine = encoded_stripe(&layout, 77);
        let lost = vec![Cell::new(0, 0), Cell::new(0, 1)];
        let mut s = pristine.clone();
        s.erase(lost[0]);
        s.erase(lost[1]);
        // Peeling alone cannot start here... actually chain A has 2 unknowns,
        // chain B has 2 unknowns; XOR of the two equations isolates d2's
        // relation: only Gauss finds it. The pattern {d0, d1} is actually NOT
        // decodable (both equations share d0^d1). Expect an error.
        assert!(!is_decodable(&layout, &lost));
        // But {d0} alone, or {d0, d2}, decode fine — d0,d2: chain A has 1
        // unknown (d0), peel it, then chain B peels d2.
        let lost2 = vec![Cell::new(0, 0), Cell::new(0, 2)];
        let mut s2 = pristine.clone();
        s2.erase(lost2[0]);
        s2.erase(lost2[1]);
        let plan = decode(&mut s2, &layout, &lost2).unwrap();
        assert_eq!(s2, pristine);
        assert!(plan.is_pure_peel());
        drop(s);
    }

    #[test]
    fn gauss_path_actually_used_when_peel_stalls() {
        // Build equations that stall peeling but remain solvable:
        //   pA = d0 ^ d1
        //   pB = d1 ^ d2
        //   pC = d0 ^ d2
        // Lose d0, d1, d2: every chain has exactly 2 unknowns -> peel stalls.
        // The system has rank 2 < 3, so it's NOT solvable; add
        //   pD = d0
        // to make it solvable and still stalled? pD has 1 unknown, it peels.
        // Instead lose d0,d1,d2 with chains pA,pB,pC plus pD = d0^d1^d2:
        // every chain 2 or 3 unknowns; rank(A) = 3 -> Gauss required.
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Parity(ParityClass::Diagonal),
            ElementKind::Parity(ParityClass::AntiDiagonal),
            ElementKind::Parity(ParityClass::Vertical),
        ];
        let d = |c| Cell::new(0, c);
        let chains = vec![
            Chain { class: ParityClass::Horizontal, parity: d(3), members: vec![d(0), d(1)] },
            Chain { class: ParityClass::Diagonal, parity: d(4), members: vec![d(1), d(2)] },
            Chain { class: ParityClass::AntiDiagonal, parity: d(5), members: vec![d(0), d(2)] },
            Chain { class: ParityClass::Vertical, parity: d(6), members: vec![d(0), d(1), d(2)] },
        ];
        let layout = Layout::new(1, 7, kinds, chains).unwrap();
        let pristine = encoded_stripe(&layout, 123);
        let lost = vec![d(0), d(1), d(2)];
        let mut s = pristine.clone();
        for &c in &lost {
            s.erase(c);
        }
        let plan = decode(&mut s, &layout, &lost).unwrap();
        assert!(plan.gauss_steps > 0, "expected Gaussian fallback");
        assert_eq!(s, pristine);
    }

    #[test]
    fn losing_nothing_is_trivially_ok() {
        let layout = two_parity_layout();
        let plan = plan_decode(&layout, &[]).unwrap();
        assert!(plan.steps.is_empty());
    }

    #[test]
    fn targeted_plan_is_a_slice_of_the_full_plan() {
        let layout = xcode3();
        let pristine = encoded_stripe(&layout, 5);
        let mut lost = layout.cells_in_col(0);
        lost.extend(layout.cells_in_col(1));

        // Want just the data cell of column 0.
        let wanted = [Cell::new(0, 0)];
        let targeted = plan_targeted_decode(&layout, &lost, &wanted).unwrap();
        let full = plan_decode(&layout, &lost).unwrap();
        assert!(targeted.steps.len() < full.steps.len());
        assert!(targeted.steps.iter().any(|s| s.target == wanted[0]));

        // Applying the slice restores the wanted cell byte-exactly.
        let mut s = pristine.clone();
        s.erase_col(0);
        s.erase_col(1);
        apply_plan(&mut s, &targeted);
        assert_eq!(s.element(wanted[0]), pristine.element(wanted[0]));
    }

    #[test]
    fn targeted_plan_for_survivor_is_empty() {
        let layout = xcode3();
        let lost = layout.cells_in_col(0);
        // Wanted cell is on a healthy column: nothing to reconstruct.
        let plan =
            plan_targeted_decode(&layout, &lost, &[Cell::new(0, 2)]).unwrap();
        assert!(plan.steps.is_empty());
    }

    #[test]
    fn targeted_plan_still_rejects_undecodable() {
        let layout = two_parity_layout();
        let lost = vec![Cell::new(0, 0), Cell::new(0, 3)]; // known-undecodable
        assert!(plan_targeted_decode(&layout, &lost, &[Cell::new(0, 0)]).is_err());
    }
}
