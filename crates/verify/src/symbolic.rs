//! The symbolic GF(2) domain the static analyzer interprets plans over.
//!
//! Every element buffer of a stripe is abstracted to a **GF(2) linear
//! combination of basis vectors**: basis vector `i` stands for "whatever
//! bytes cell `i` held before the plan ran" (plus, for erasure analysis,
//! extra *garbage* vectors standing for the unknown content of lost
//! cells). A `dst = XOR(srcs)` plan op then becomes a row-XOR of symbol
//! sets — exact, byte-width-independent semantics, because XOR on byte
//! buffers is XOR on each bit position independently.
//!
//! Running a whole [`XorPlan`] over a [`SymState`] therefore computes, for
//! every cell, *which initial cell contents its final value is the XOR
//! of* — for **all possible data simultaneously**. Equality of two
//! [`SymExpr`]s is equality of the plan's effect on every input, which is
//! what lets [`crate::plan_check`] *prove* (not test) encode and decode
//! plans correct.

use std::fmt;

use raid_core::bitset::BitSet;
use raid_core::{Cell, XorPlan};

/// A GF(2) linear combination of basis vectors, stored as the set of basis
/// indices with coefficient 1 (XOR-ing a vector in twice cancels it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymExpr {
    bits: BitSet,
}

impl SymExpr {
    /// The zero expression over a basis of `nbasis` vectors.
    pub fn zero(nbasis: usize) -> Self {
        SymExpr { bits: BitSet::new(nbasis) }
    }

    /// The single basis vector `i` over a basis of `nbasis` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nbasis`.
    pub fn basis(nbasis: usize, i: usize) -> Self {
        let mut bits = BitSet::new(nbasis);
        bits.insert(i);
        SymExpr { bits }
    }

    /// `self ^= other` — GF(2) addition (symmetric difference of the
    /// index sets).
    ///
    /// # Panics
    ///
    /// Panics if the two expressions are over different basis sizes.
    pub fn xor_assign(&mut self, other: &SymExpr) {
        self.bits.xor_with(&other.bits);
    }

    /// True if basis vector `i` appears with coefficient 1.
    pub fn contains(&self, i: usize) -> bool {
        self.bits.contains(i)
    }

    /// Basis indices with coefficient 1, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter()
    }

    /// Number of basis vectors in the combination.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for the zero expression.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// True if any index at or above `first_garbage` appears — i.e. the
    /// expression depends on the unknown content of an erased cell.
    pub fn has_garbage(&self, first_garbage: usize) -> bool {
        self.bits.iter().any(|i| i >= first_garbage)
    }

    /// Renders the combination in the paper's cell notation, e.g.
    /// `E[0,1] ⊕ E[2,3]`. Indices below `ncells` are cells of a
    /// `cols`-wide grid; indices at or above it print as `⊥k` — the
    /// garbage vector of erased cell `k`. The zero expression prints `0`.
    pub fn render(&self, cols: usize, ncells: usize) -> String {
        if self.is_empty() {
            return "0".to_string();
        }
        let mut parts = Vec::with_capacity(self.len());
        for i in self.bits.iter() {
            if i < ncells {
                parts.push(Cell::from_index(i, cols).to_string());
            } else {
                parts.push(format!("⊥{}", i - ncells));
            }
        }
        parts.join(" ⊕ ")
    }
}

/// Errors from symbolic plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymExecError {
    /// The plan's grid shape differs from the state's.
    ShapeMismatch {
        /// Plan shape `(rows, cols)`.
        plan: (usize, usize),
        /// State shape `(rows, cols)`.
        state: (usize, usize),
    },
}

impl fmt::Display for SymExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExecError::ShapeMismatch { plan, state } => write!(
                f,
                "plan addresses a {}×{} grid but the symbolic state is {}×{}",
                plan.0, plan.1, state.0, state.1
            ),
        }
    }
}

impl std::error::Error for SymExecError {}

/// A symbolic stripe: one [`SymExpr`] per cell of a `rows × cols` grid,
/// plus — while executing an optimized plan — one slot per scratch temp
/// in the plan's arena (indices `rows·cols ..` of `cells`, zeroed at the
/// start of every execution, mirroring the interpreter's per-call temp
/// buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymState {
    rows: usize,
    cols: usize,
    nbasis: usize,
    cells: Vec<SymExpr>,
}

impl SymState {
    /// The identity state: cell `i` holds exactly basis vector `i`. This
    /// models "the stripe as handed to the plan", with no assumptions
    /// about its content.
    pub fn identity(rows: usize, cols: usize) -> Self {
        Self::identity_with_extra(rows, cols, 0)
    }

    /// [`SymState::identity`] over a basis extended by `extra` garbage
    /// vectors (indices `rows·cols ..`), for erasure modelling.
    pub fn identity_with_extra(rows: usize, cols: usize, extra: usize) -> Self {
        let n = rows * cols;
        let nbasis = n + extra;
        let cells = (0..n).map(|i| SymExpr::basis(nbasis, i)).collect();
        SymState { rows, cols, nbasis, cells }
    }

    /// Rows of the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the grid.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total basis size (cells + garbage vectors).
    pub fn nbasis(&self) -> usize {
        self.nbasis
    }

    /// The symbolic value of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn expr(&self, cell: Cell) -> &SymExpr {
        &self.cells[cell.index(self.cols)]
    }

    /// Overwrites the symbolic value of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or the expression's basis size
    /// differs from the state's.
    pub fn set_expr(&mut self, cell: Cell, expr: SymExpr) {
        assert_eq!(expr.bits.capacity(), self.nbasis, "symbolic basis size mismatch");
        self.cells[cell.index(self.cols)] = expr;
    }

    /// Applies one `target = XOR(sources)` op with the interpreter's
    /// overwrite semantics: the target's previous value does **not**
    /// contribute (mirror of `XorPlan::execute`).
    ///
    /// # Panics
    ///
    /// Panics if any cell is out of bounds.
    pub fn apply(&mut self, target: Cell, sources: &[Cell]) {
        let mut acc = SymExpr::zero(self.nbasis);
        for &s in sources {
            acc.xor_assign(&self.cells[s.index(self.cols)]);
        }
        self.cells[target.index(self.cols)] = acc;
    }

    /// Runs a whole compiled plan symbolically, op by op, via the plan's
    /// zero-copy [`raid_core::xplan::StepView`]s. Scratch temps in the
    /// plan's arena get state slots beyond the grid, zeroed on entry
    /// (the interpreter allocates fresh temp buffers per call).
    ///
    /// # Errors
    ///
    /// Returns [`SymExecError::ShapeMismatch`] if the plan was compiled
    /// for a different grid shape.
    pub fn execute(&mut self, plan: &XorPlan) -> Result<(), SymExecError> {
        if plan.rows() != self.rows || plan.cols() != self.cols {
            return Err(SymExecError::ShapeMismatch {
                plan: (plan.rows(), plan.cols()),
                state: (self.rows, self.cols),
            });
        }
        let ncells = self.rows * self.cols;
        let nslots = ncells + plan.num_temps();
        if self.cells.len() < nslots {
            self.cells.resize(nslots, SymExpr::zero(self.nbasis));
        }
        for t in ncells..nslots {
            self.cells[t] = SymExpr::zero(self.nbasis);
        }
        for view in plan.step_views() {
            let mut acc = SymExpr::zero(self.nbasis);
            for &s in view.srcs {
                acc.xor_assign(&self.cells[s as usize]);
            }
            self.cells[view.dst as usize] = acc;
        }
        Ok(())
    }

    /// Predicts the concrete bytes of `cell` after the plan this state was
    /// built from runs over `initial`: the XOR of the initial elements of
    /// every basis cell in `cell`'s expression. Garbage vectors (erased
    /// content) contribute nothing — callers model erased cells as zeroed,
    /// exactly as `Stripe::erase` does.
    ///
    /// This is the bridge the property tests use to pin the symbolic
    /// semantics against the real interpreter byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `cell` is out of bounds.
    pub fn predict_bytes(&self, cell: Cell, initial: &raid_core::Stripe) -> Vec<u8> {
        assert_eq!(initial.rows(), self.rows, "symbolic/stripe row mismatch");
        assert_eq!(initial.cols(), self.cols, "symbolic/stripe col mismatch");
        let cells = self.expr(cell).iter().filter(|&i| i < self.rows * self.cols);
        initial.xor_of(cells.map(|i| Cell::from_index(i, self.cols)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_assign_cancels_pairs() {
        let mut a = SymExpr::basis(4, 0);
        let b = SymExpr::basis(4, 0);
        a.xor_assign(&b);
        assert!(a.is_empty());
        assert_eq!(a.render(2, 4), "0");
    }

    #[test]
    fn apply_overwrites_target() {
        // 1×3 grid: target (0,2) = (0,0) ^ (0,1); its old value vanishes.
        let mut s = SymState::identity(1, 3);
        s.apply(Cell::new(0, 2), &[Cell::new(0, 0), Cell::new(0, 1)]);
        let e = s.expr(Cell::new(0, 2));
        assert_eq!(e.len(), 2);
        assert!(e.contains(0) && e.contains(1) && !e.contains(2));
        assert_eq!(e.render(3, 3), "E[0,0] ⊕ E[0,1]");
    }

    #[test]
    fn execute_matches_plan_semantics() {
        // q = d0 ^ p with p = d0 ^ d1 collapses to q = d1.
        let c = Cell::new;
        let plan = XorPlan::from_steps(
            1,
            4,
            [
                (c(0, 2), [c(0, 0), c(0, 1)].as_slice()),
                (c(0, 3), [c(0, 0), c(0, 2)].as_slice()),
            ],
        );
        let mut s = SymState::identity(1, 4);
        s.execute(&plan).unwrap();
        assert_eq!(*s.expr(c(0, 3)), SymExpr::basis(4, 1));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let plan = XorPlan::from_steps(2, 2, []);
        let mut s = SymState::identity(1, 2);
        assert!(matches!(s.execute(&plan), Err(SymExecError::ShapeMismatch { .. })));
    }

    #[test]
    fn garbage_vectors_render_and_detect() {
        let mut s = SymState::identity_with_extra(1, 2, 1);
        s.set_expr(Cell::new(0, 0), SymExpr::basis(3, 2));
        assert!(s.expr(Cell::new(0, 0)).has_garbage(2));
        assert_eq!(s.expr(Cell::new(0, 0)).render(2, 2), "⊥0");
        assert!(!s.expr(Cell::new(0, 1)).has_garbage(2));
    }

    #[test]
    fn predict_bytes_xors_initial_elements() {
        let c = Cell::new;
        let plan = XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())]);
        let mut sym = SymState::identity(1, 3);
        sym.execute(&plan).unwrap();

        let mut initial = raid_core::Stripe::zeroed(1, 3, 4);
        initial.set_element(c(0, 0), &[1, 2, 3, 4]);
        initial.set_element(c(0, 1), &[4, 4, 4, 4]);
        let mut actual = initial.clone();
        plan.execute(&mut actual);
        for col in 0..3 {
            assert_eq!(sym.predict_bytes(c(0, col), &initial), actual.element(c(0, col)));
        }
    }
}
