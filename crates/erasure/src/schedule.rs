//! Recovery scheduling for disk failures: the *recovery chain* structure of
//! the paper's Section II ("Recovery Chain") and the parallelism analysis
//! behind Fig. 9(b) and Table III.
//!
//! When two disks fail, reconstruction proceeds by peeling: some lost
//! elements are immediately solvable (their chain lost only one element) —
//! the paper's *start elements* — and each solved element may unlock the
//! next one in the other failed column. The resulting dependency structure
//! is a forest; each tree path is a recovery chain that must execute
//! serially, while distinct chains run in parallel. The double-failure
//! recovery time is then `Lc · Re` where `Lc` is the longest chain (Section
//! V-D of the paper).

use std::collections::HashMap;

use crate::decoder::{plan_decode, NotDecodableError};
use crate::geometry::Cell;
use crate::layout::Layout;

/// The dependency structure of a reconstruction.
#[derive(Debug, Clone)]
pub struct RecoverySchedule {
    /// Reconstruction steps in solve order: `(cell, parents)` where parents
    /// are previously-reconstructed cells the step reads.
    pub steps: Vec<(Cell, Vec<Cell>)>,
    /// Cells grouped by parallel round: round `k` cells depend only on
    /// rounds `< k` (round 0 = the paper's start elements).
    pub rounds: Vec<Vec<Cell>>,
    /// Number of independent recovery chains (roots of the forest) — the
    /// paper's "recovery chains executed in parallel".
    pub num_chains: usize,
    /// Length (in elements) of the longest recovery chain, `Lc`.
    pub longest_chain: usize,
}

impl RecoverySchedule {
    /// Reconstructs the explicit chains when the dependency graph is a
    /// union of simple paths (true for all two-column failures of the codes
    /// in this workspace). Returns `None` if any cell has more than one
    /// parent or unlocks more than one successor.
    pub fn chains(&self) -> Option<Vec<Vec<Cell>>> {
        let mut child_count: HashMap<Cell, usize> = HashMap::new();
        let mut parent: HashMap<Cell, Cell> = HashMap::new();
        for (cell, parents) in &self.steps {
            if parents.len() > 1 {
                return None;
            }
            if let Some(&p) = parents.first() {
                parent.insert(*cell, p);
                *child_count.entry(p).or_insert(0) += 1;
            }
        }
        if child_count.values().any(|&c| c > 1) {
            return None;
        }
        // Build forward links and walk from the roots.
        let mut next: HashMap<Cell, Cell> = HashMap::new();
        for (c, p) in &parent {
            next.insert(*p, *c);
        }
        let mut chains = Vec::new();
        for (cell, parents) in &self.steps {
            if parents.is_empty() {
                let mut chain = vec![*cell];
                let mut cur = *cell;
                while let Some(&n) = next.get(&cur) {
                    chain.push(n);
                    cur = n;
                }
                chains.push(chain);
            }
        }
        Some(chains)
    }
}

impl RecoverySchedule {
    /// Renders the dependency structure as Graphviz DOT: one node per lost
    /// element, one edge per reconstruction dependency, chains clustered
    /// left-to-right by round. Paste into `dot -Tsvg` to see the paper's
    /// Fig. 5 for any code and failure pair.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str("digraph recovery {\n");
        out.push_str(&format!("  label=\"{title}\";\n  rankdir=LR;\n"));
        for (cell, parents) in &self.steps {
            let id = format!("\"E{}_{}\"", cell.row + 1, cell.col + 1);
            let label = format!("E[{},{}]", cell.row + 1, cell.col + 1);
            let shape = if parents.is_empty() { "doublecircle" } else { "circle" };
            out.push_str(&format!("  {id} [label=\"{label}\", shape={shape}];\n"));
            for p in parents {
                out.push_str(&format!(
                    "  \"E{}_{}\" -> {id};\n",
                    p.row + 1,
                    p.col + 1
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Builds the recovery schedule for an arbitrary set of lost cells.
///
/// # Errors
///
/// Returns [`NotDecodableError`] if the erasure pattern is undecodable.
pub fn schedule_for(layout: &Layout, lost: &[Cell]) -> Result<RecoverySchedule, NotDecodableError> {
    let plan = plan_decode(layout, lost)?;
    let mut solved_at: HashMap<Cell, usize> = HashMap::new();
    let mut steps: Vec<(Cell, Vec<Cell>)> = Vec::with_capacity(plan.steps.len());
    let lost_set: std::collections::HashSet<Cell> = lost.iter().copied().collect();
    for step in &plan.steps {
        let parents: Vec<Cell> = step
            .sources
            .iter()
            .copied()
            .filter(|s| lost_set.contains(s) && solved_at.contains_key(s))
            .collect();
        solved_at.insert(step.target, steps.len());
        steps.push((step.target, parents));
    }

    // Depth per step = 1 + max depth of parents.
    let mut depth: HashMap<Cell, usize> = HashMap::new();
    let mut rounds: Vec<Vec<Cell>> = Vec::new();
    let mut num_chains = 0;
    for (cell, parents) in &steps {
        let d = parents.iter().map(|p| depth[p] + 1).max().unwrap_or(0);
        if parents.is_empty() {
            num_chains += 1;
        }
        depth.insert(*cell, d);
        if rounds.len() <= d {
            rounds.resize_with(d + 1, Vec::new);
        }
        rounds[d].push(*cell);
    }
    let longest_chain = rounds.len();
    Ok(RecoverySchedule { steps, rounds, num_chains, longest_chain })
}

/// Recovery schedule for the simultaneous failure of two whole disks.
///
/// ```
/// use raid_core::layout::{Chain, ElementKind, ParityClass, Layout};
/// use raid_core::{schedule, Cell};
///
/// // A 3-disk mirror-style layout: two parity rows replicate the data row.
/// let mut kinds = vec![ElementKind::Data; 3];
/// kinds.extend(vec![ElementKind::Parity(ParityClass::Diagonal); 3]);
/// kinds.extend(vec![ElementKind::Parity(ParityClass::AntiDiagonal); 3]);
/// let mut chains = Vec::new();
/// for i in 0..3usize {
///     chains.push(Chain {
///         class: ParityClass::Diagonal,
///         parity: Cell::new(1, i),
///         members: vec![Cell::new(0, (i + 2) % 3)],
///     });
///     chains.push(Chain {
///         class: ParityClass::AntiDiagonal,
///         parity: Cell::new(2, i),
///         members: vec![Cell::new(0, (i + 1) % 3)],
///     });
/// }
/// let layout = Layout::new(3, 3, kinds, chains)?;
/// let sched = schedule::double_failure_schedule(&layout, 0, 1)?;
/// assert!(sched.num_chains >= 1);
/// assert_eq!(sched.rounds.iter().map(Vec::len).sum::<usize>(), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`NotDecodableError`] if the code cannot repair this pair, i.e.
/// the layout is not MDS for these columns.
///
/// # Panics
///
/// Panics if `f1 == f2` or either column is out of range.
pub fn double_failure_schedule(
    layout: &Layout,
    f1: usize,
    f2: usize,
) -> Result<RecoverySchedule, NotDecodableError> {
    assert!(f1 != f2, "the two failed disks must differ");
    assert!(f1 < layout.cols() && f2 < layout.cols(), "failed disk out of range");
    let mut lost = layout.cells_in_col(f1);
    lost.extend(layout.cells_in_col(f2));
    schedule_for(layout, &lost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

    /// 2×4 toy code: row parity in col 2, "diagonal" parity in col 3
    /// (d(r,0) pairs with row r+1's column-1 cell), designed so losing
    /// cols 0 and 1 forms nontrivial chains.
    fn toy() -> Layout {
        let k = ElementKind::Data;
        let p = |c| ElementKind::Parity(c);
        let kinds = vec![
            k,
            k,
            p(ParityClass::Horizontal),
            p(ParityClass::Diagonal),
            k,
            k,
            p(ParityClass::Horizontal),
            p(ParityClass::Diagonal),
        ];
        let c = Cell::new;
        let chains = vec![
            Chain { class: ParityClass::Horizontal, parity: c(0, 2), members: vec![c(0, 0), c(0, 1)] },
            Chain { class: ParityClass::Horizontal, parity: c(1, 2), members: vec![c(1, 0), c(1, 1)] },
            Chain { class: ParityClass::Diagonal, parity: c(0, 3), members: vec![c(0, 0), c(1, 1)] },
            Chain { class: ParityClass::Diagonal, parity: c(1, 3), members: vec![c(1, 0)] },
        ];
        Layout::new(2, 4, kinds, chains).unwrap()
    }

    #[test]
    fn schedule_for_two_columns() {
        let layout = toy();
        let sched = double_failure_schedule(&layout, 0, 1).unwrap();
        assert_eq!(sched.steps.len(), 4);
        // (1,0) peels instantly from chain 3; (0,0)/(1,1) structure follows.
        assert!(sched.num_chains >= 1);
        assert_eq!(
            sched.rounds.iter().map(|r| r.len()).sum::<usize>(),
            4,
            "every lost cell appears in exactly one round"
        );
        assert_eq!(sched.longest_chain, sched.rounds.len());
        // Dependency sanity: every parent was scheduled in an earlier step.
        let mut seen = std::collections::HashSet::new();
        for (cell, parents) in &sched.steps {
            for p in parents {
                assert!(seen.contains(p), "{p} used before solved");
            }
            seen.insert(*cell);
        }
    }

    #[test]
    fn chains_reconstructs_paths() {
        let layout = toy();
        let sched = double_failure_schedule(&layout, 0, 1).unwrap();
        if let Some(chains) = sched.chains() {
            assert_eq!(chains.len(), sched.num_chains);
            let total: usize = chains.iter().map(|c| c.len()).sum();
            assert_eq!(total, 4);
            let longest = chains.iter().map(|c| c.len()).max().unwrap();
            assert_eq!(longest, sched.longest_chain);
        }
    }

    #[test]
    fn single_column_failure_is_all_roots() {
        let layout = toy();
        let lost = layout.cells_in_col(2);
        let sched = schedule_for(&layout, &lost).unwrap();
        // Parities of col 2 are each recomputable directly: all roots.
        assert_eq!(sched.num_chains, 2);
        assert_eq!(sched.longest_chain, 1);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_disks_rejected() {
        double_failure_schedule(&toy(), 1, 1).ok();
    }

    #[test]
    fn dot_output_is_wellformed() {
        let layout = toy();
        let sched = double_failure_schedule(&layout, 0, 1).unwrap();
        let dot = sched.to_dot("toy (0,1)");
        assert!(dot.starts_with("digraph recovery {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("label=\"toy (0,1)\""));
        // One node per lost element.
        assert_eq!(dot.matches("shape=").count(), 4);
        // Roots are double circles.
        assert_eq!(dot.matches("doublecircle").count(), sched.num_chains);
    }

    #[test]
    fn toy_repairs_its_first_column_pair() {
        // Not all pairs decodable in the toy code; check one that is.
        let layout = toy();
        let ok = double_failure_schedule(&layout, 0, 1);
        assert!(ok.is_ok());
    }
}
