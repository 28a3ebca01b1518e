//! Double-disk failure recovery — Algorithm 1 of the paper.
//!
//! For failed disks `f1 < f2`, four *start elements* are recoverable
//! immediately because one of their chains misses the other failed column
//! (Theorem 1). Each start seeds a recovery chain that alternates between
//! the two failed columns — horizontal chain, vertical chain, horizontal …
//! — until it terminates at a parity element. The four chains partition the
//! `2(p−1)` lost elements and are mutually independent, so they execute in
//! parallel; this is the property behind the paper's Fig. 9(b) result.

use std::fmt;

use raid_core::layout::{ElementKind, ParityClass};
use raid_core::{ArrayCode, Cell, ChainId, Stripe, XorPlan};
use raid_math::modp::{div_mod, half_mod, mul_mod};

use crate::construction::HvCode;

/// One reconstruction action: repair `cell` using `chain` (XOR of every
/// other element of that chain's equation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStep {
    /// The lost element being rebuilt.
    pub cell: Cell,
    /// The chain whose equation rebuilds it.
    pub chain: ChainId,
}

/// The full Algorithm-1 plan for a pair of failed disks.
#[derive(Debug, Clone)]
pub struct DoubleRecovery {
    f1: usize,
    f2: usize,
    chains: Vec<Vec<RecoveryStep>>,
}

impl DoubleRecovery {
    /// First failed disk (0-based, the smaller index).
    pub fn f1(&self) -> usize {
        self.f1
    }

    /// Second failed disk (0-based).
    pub fn f2(&self) -> usize {
        self.f2
    }

    /// The recovery chains, each an ordered serial sequence; distinct
    /// chains are independent and may run in parallel.
    pub fn chains(&self) -> &[Vec<RecoveryStep>] {
        &self.chains
    }

    /// Number of independent chains (the paper's headline: 4).
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Length of the longest chain, `Lc` — recovery time is `Lc · Re`.
    pub fn longest_chain(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total elements recovered.
    pub fn total_elements(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// All steps in a valid serial execution order (chain by chain).
    pub fn steps(&self) -> impl Iterator<Item = &RecoveryStep> {
        self.chains.iter().flatten()
    }
}

/// Error from [`HvCode::double_recovery_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoubleRecoveryError {
    /// The two disks must be distinct.
    SameDisk {
        /// The repeated disk index.
        disk: usize,
    },
    /// A disk index is out of range.
    OutOfRange {
        /// The offending disk index.
        disk: usize,
        /// Number of disks in the array.
        disks: usize,
    },
}

impl fmt::Display for DoubleRecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DoubleRecoveryError::SameDisk { disk } => {
                write!(f, "both failed disks are #{disk}")
            }
            DoubleRecoveryError::OutOfRange { disk, disks } => {
                write!(f, "disk #{disk} out of range (array has {disks})")
            }
        }
    }
}

impl std::error::Error for DoubleRecoveryError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainKind {
    Horizontal,
    Vertical,
}

impl HvCode {
    /// Computes the Algorithm-1 recovery plan for failed disks `a` and `b`
    /// (any order, 0-based).
    ///
    /// ```
    /// use hv_code::HvCode;
    ///
    /// let code = HvCode::new(7)?;
    /// let plan = code.double_recovery_plan(0, 2)?;
    /// assert_eq!(plan.num_chains(), 4);           // four parallel chains
    /// assert_eq!(plan.total_elements(), 2 * 6);   // both columns covered
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DoubleRecoveryError`] if the disks are equal or out of
    /// range.
    pub fn double_recovery_plan(
        &self,
        a: usize,
        b: usize,
    ) -> Result<DoubleRecovery, DoubleRecoveryError> {
        let disks = self.num_disks();
        for d in [a, b] {
            if d >= disks {
                return Err(DoubleRecoveryError::OutOfRange { disk: d, disks });
            }
        }
        if a == b {
            return Err(DoubleRecoveryError::SameDisk { disk: a });
        }
        let (f1, f2) = if a < b { (a, b) } else { (b, a) };
        let p = self.prime();

        // 1-based column ids as in the paper.
        let (g1, g2) = (f1 as i64 + 1, f2 as i64 + 1);

        // Step 2 of Algorithm 1 — the four start elements (1-based rows):
        //   horizontal starts: (⟨f1/4⟩, f2) and (⟨f2/4⟩, f1);
        //   vertical starts:   (⟨(f1 − f2/2)/2⟩, f1) and (⟨(f2 − f1/2)/2⟩, f2).
        let sh_in_f2 = (div_mod(g1, 4, p), f2, ChainKind::Horizontal);
        let sh_in_f1 = (div_mod(g2, 4, p), f1, ChainKind::Horizontal);
        let sv_in_f1 = (
            half_mod(g1 - div_mod(g2, 2, p) as i64, p),
            f1,
            ChainKind::Vertical,
        );
        let sv_in_f2 = (
            half_mod(g2 - div_mod(g1, 2, p) as i64, p),
            f2,
            ChainKind::Vertical,
        );

        let mut recovered = vec![false; self.layout().num_cells()];
        let mut chains = Vec::with_capacity(4);
        for (row_1b, col, kind) in [sh_in_f1, sh_in_f2, sv_in_f1, sv_in_f2] {
            // Theorem 1 maps the tuple (0, fj) to the vertical parity
            // element E_{⟨fj/4⟩, fj}: a degenerate start whose chain is the
            // parity element alone, repaired through its own chain.
            let row_1b = if row_1b == 0 {
                div_mod(col as i64 + 1, 4, p)
            } else {
                row_1b
            };
            let start = Cell::new(row_1b - 1, col);
            if recovered[start.index(disks)] {
                continue; // degenerate overlap; Theorem 1 says this cannot
                          // happen, and tests assert we always emit 4 chains
            }
            chains.push(self.walk(start, kind, f1, f2, &mut recovered));
        }
        Ok(DoubleRecovery { f1, f2, chains })
    }

    /// Repairs two failed disks in place by executing the Algorithm-1 plan,
    /// its steps compiled in serial order by [`XorPlan::compile_repairs`].
    ///
    /// The caller is expected to have zeroed (or otherwise invalidated) the
    /// two columns; every element of both columns is recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`DoubleRecoveryError`] on invalid disk indices.
    pub fn repair_double_disk(
        &self,
        stripe: &mut Stripe,
        a: usize,
        b: usize,
    ) -> Result<DoubleRecovery, DoubleRecoveryError> {
        let plan = self.double_recovery_plan(a, b)?;
        let repairs: Vec<(Cell, ChainId)> = plan.steps().map(|s| (s.cell, s.chain)).collect();
        XorPlan::compile_repairs(self.layout(), &repairs).execute(stripe);
        Ok(plan)
    }

    /// Walks one recovery chain from `start`, alternating chain kinds, until
    /// it terminates at a parity element (Theorem 1's recovery rule).
    fn walk(
        &self,
        start: Cell,
        start_kind: ChainKind,
        f1: usize,
        f2: usize,
        recovered: &mut [bool],
    ) -> Vec<RecoveryStep> {
        let p = self.prime();
        let disks = self.num_disks();
        let layout = self.layout();
        let mut steps = Vec::new();
        let mut cur = start;
        let mut kind = start_kind;

        loop {
            // Resolve the chain that rebuilds `cur`.
            let chain = match (kind, layout.kind(cur)) {
                (ChainKind::Horizontal, ElementKind::Data)
                | (ChainKind::Horizontal, ElementKind::Parity(ParityClass::Horizontal)) => {
                    self.horizontal_chain_id(cur.row)
                }
                (ChainKind::Vertical, ElementKind::Data) => self.vertical_chain_of(cur),
                (ChainKind::Vertical, ElementKind::Parity(ParityClass::Vertical)) => layout
                    .chain_of_parity(cur)
                    .expect("vertical parity owns its chain"),
                (k, other) => unreachable!(
                    "Algorithm 1 tried to repair {cur} ({other:?}) via {k:?} chain"
                ),
            };
            debug_assert!(
                layout.chain(chain).cells().any(|c| c == cur),
                "{cur} not in its recovery chain"
            );
            steps.push(RecoveryStep { cell: cur, chain });
            recovered[cur.index(disks)] = true;

            // A parity element terminates the chain.
            if !layout.is_data(cur) {
                break;
            }

            // Successor: flip the chain kind; the flipped chain containing
            // `cur` has exactly one more lost element — its cell in the
            // other failed column.
            let other_col = if cur.col == f1 { f2 } else { f1 };
            match kind {
                ChainKind::Horizontal => {
                    // Next is repaired via the vertical chain containing cur.
                    let vid = self.vertical_chain_of(cur);
                    let s_1b = vid.0 - disks + 1; // anchor row, 1-based
                    let skip = mul_mod(8, s_1b as i64, p); // column the chain misses
                    let vcol = mul_mod(4, s_1b as i64, p); // the parity's column
                    let oc_1b = other_col + 1;
                    if oc_1b == skip {
                        break; // chain misses the other failed column
                    }
                    let next = if oc_1b == vcol {
                        Cell::new(s_1b - 1, other_col) // the vertical parity itself
                    } else {
                        let k = half_mod(oc_1b as i64 - 4 * s_1b as i64, p);
                        Cell::new(k - 1, other_col)
                    };
                    if recovered[next.index(disks)] {
                        break;
                    }
                    cur = next;
                    kind = ChainKind::Vertical;
                }
                ChainKind::Vertical => {
                    // Next is repaired via cur's row (horizontal) chain.
                    let row = cur.row;
                    if self.vertical_parity_col(row) == other_col {
                        break; // row chain misses the other failed column
                    }
                    let next = Cell::new(row, other_col);
                    if recovered[next.index(disks)] {
                        break;
                    }
                    cur = next;
                    kind = ChainKind::Horizontal;
                }
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raid_core::schedule::double_failure_schedule;
    use raid_core::ArrayCode;

    fn code(p: usize) -> HvCode {
        HvCode::new(p).unwrap()
    }

    #[test]
    fn argument_validation() {
        let c = code(7);
        assert!(matches!(
            c.double_recovery_plan(2, 2),
            Err(DoubleRecoveryError::SameDisk { disk: 2 })
        ));
        assert!(matches!(
            c.double_recovery_plan(0, 6),
            Err(DoubleRecoveryError::OutOfRange { disk: 6, disks: 6 })
        ));
        // Order-insensitive.
        let plan = c.double_recovery_plan(4, 1).unwrap();
        assert_eq!((plan.f1(), plan.f2()), (1, 4));
    }

    #[test]
    fn figure_five_example() {
        // Paper Fig. 5: p = 7, disks #1 and #3 (1-based) fail. Expected
        // recovery chains include {E5,1, E5,3} and
        // {E3,3, E3,1, E4,3, E4,1}; Section II adds
        // {E2,3, E1,1, E1,3, E2,1}.
        let c = code(7);
        let plan = c.double_recovery_plan(0, 2).unwrap();
        assert_eq!(plan.num_chains(), 4);
        let as_1b: Vec<Vec<(usize, usize)>> = plan
            .chains()
            .iter()
            .map(|ch| ch.iter().map(|s| (s.cell.row + 1, s.cell.col + 1)).collect())
            .collect();
        assert!(
            as_1b.contains(&vec![(5, 1), (5, 3)]),
            "missing chain {{E5,1 E5,3}}: {as_1b:?}"
        );
        assert!(
            as_1b.contains(&vec![(3, 3), (3, 1), (4, 3), (4, 1)]),
            "missing chain {{E3,3 E3,1 E4,3 E4,1}}: {as_1b:?}"
        );
        assert!(
            as_1b.contains(&vec![(2, 3), (1, 1), (1, 3), (2, 1)]),
            "missing chain {{E2,3 E1,1 E1,3 E2,1}}: {as_1b:?}"
        );
    }

    #[test]
    fn four_chains_partition_all_lost_elements() {
        for p in [5usize, 7, 11, 13, 17] {
            let c = code(p);
            let n = p - 1;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let plan = c.double_recovery_plan(f1, f2).unwrap();
                    assert_eq!(plan.num_chains(), 4, "p={p} ({f1},{f2})");
                    assert_eq!(
                        plan.total_elements(),
                        2 * n,
                        "p={p} ({f1},{f2}): chains must cover both columns"
                    );
                    // Disjoint and confined to the failed columns.
                    let mut seen = std::collections::HashSet::new();
                    for step in plan.steps() {
                        assert!(
                            step.cell.col == f1 || step.cell.col == f2,
                            "p={p}: {0} outside failed columns",
                            step.cell
                        );
                        assert!(seen.insert(step.cell), "p={p}: {0} repeated", step.cell);
                    }
                    // Every chain ends at a parity element, and only there.
                    for ch in plan.chains() {
                        let last = ch.last().unwrap();
                        assert!(
                            !c.layout().is_data(last.cell),
                            "p={p}: chain ends at data {0}",
                            last.cell
                        );
                        for step in &ch[..ch.len() - 1] {
                            assert!(c.layout().is_data(step.cell));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn steps_only_depend_on_survivors_and_earlier_steps_of_same_chain() {
        for p in [5usize, 7, 11, 13] {
            let c = code(p);
            let n = p - 1;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let plan = c.double_recovery_plan(f1, f2).unwrap();
                    for ch in plan.chains() {
                        let mut solved: std::collections::HashSet<Cell> =
                            std::collections::HashSet::new();
                        for step in ch {
                            for src in c.layout().chain(step.chain).cells() {
                                if src == step.cell {
                                    continue;
                                }
                                let lost = src.col == f1 || src.col == f2;
                                assert!(
                                    !lost || solved.contains(&src),
                                    "p={p} ({f1},{f2}): step {0} reads unsolved {src}",
                                    step.cell
                                );
                            }
                            solved.insert(step.cell);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chains_alternate_between_parity_kinds() {
        // The Theorem-1 recovery rule: consecutive steps of a chain use
        // chains of alternating class (horizontal, vertical, horizontal…).
        use raid_core::layout::ParityClass;
        for p in [7usize, 11, 13] {
            let c = code(p);
            for f1 in 0..c.num_disks() {
                for f2 in (f1 + 1)..c.num_disks() {
                    let plan = c.double_recovery_plan(f1, f2).unwrap();
                    for chain in plan.chains() {
                        for w in chain.windows(2) {
                            let a = c.layout().chain(w[0].chain).class;
                            let b = c.layout().chain(w[1].chain).class;
                            assert_ne!(a, b, "p={p} ({f1},{f2}): no alternation");
                            assert!(matches!(
                                a,
                                ParityClass::Horizontal | ParityClass::Vertical
                            ));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn repair_restores_bytes_for_every_pair() {
        for p in [5usize, 7, 11, 13] {
            let c = code(p);
            let mut s = raid_core::Stripe::for_layout(c.layout(), 24);
            s.fill_data_seeded(c.layout(), 0xBEEF + p as u64);
            c.encode(&mut s);
            let pristine = s.clone();
            let n = p - 1;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let mut broken = pristine.clone();
                    broken.erase_col(f1);
                    broken.erase_col(f2);
                    c.repair_double_disk(&mut broken, f1, f2).unwrap();
                    assert_eq!(broken, pristine, "p={p} ({f1},{f2})");
                }
            }
        }
    }

    #[test]
    fn compiled_plan_covers_every_lost_element_once() {
        let c = code(11);
        let plan = c.double_recovery_plan(1, 6).unwrap();
        let repairs: Vec<(Cell, ChainId)> = plan.steps().map(|s| (s.cell, s.chain)).collect();
        let compiled = XorPlan::compile_repairs(c.layout(), &repairs);
        assert_eq!(compiled.num_ops(), plan.total_elements());
        let targets: std::collections::HashSet<Cell> = compiled.targets().collect();
        assert_eq!(targets.len(), plan.total_elements());
    }

    #[test]
    fn agrees_with_generic_scheduler() {
        // The generic peeling scheduler must see the same parallel
        // structure: 4 independent chains, same longest length.
        for p in [5usize, 7, 11, 13] {
            let c = code(p);
            let n = p - 1;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let plan = c.double_recovery_plan(f1, f2).unwrap();
                    let sched = double_failure_schedule(c.layout(), f1, f2).unwrap();
                    assert_eq!(sched.num_chains, 4, "p={p} ({f1},{f2})");
                    assert_eq!(
                        sched.longest_chain,
                        plan.longest_chain(),
                        "p={p} ({f1},{f2})"
                    );
                }
            }
        }
    }

    #[test]
    fn longest_chain_shorter_than_serial() {
        // With 4 parallel chains over 2(p−1) elements, the critical path is
        // near (p−1)/2 — the source of the paper's ~50% Fig. 9(b) savings.
        for p in [7usize, 13, 23] {
            let c = code(p);
            let n = p - 1;
            let mut worst = 0;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    worst = worst.max(c.double_recovery_plan(f1, f2).unwrap().longest_chain());
                }
            }
            assert!(
                worst <= n,
                "p={p}: longest chain {worst} exceeds one column's height"
            );
        }
    }
}
