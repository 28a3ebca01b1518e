//! Analytical structures from the paper's proofs and property analysis:
//! the Lemma-1 tuple sequence, the Theorem-1 start elements, and the
//! Section IV XOR complexity.

use raid_core::{ArrayCode, Cell};
use raid_math::modp::{div_mod, half_mod, reduce};

use crate::construction::HvCode;
use crate::recovery::DoubleRecoveryError;

/// Which parity family repairs a start element (Theorem 1's labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// "SH" — recovered through a horizontal parity chain.
    Horizontal,
    /// "SV" — recovered through a vertical parity chain.
    Vertical,
}

/// One of the four start elements of a double-disk repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartElement {
    /// The cell (0-based) recovered first.
    pub cell: Cell,
    /// The chain family that recovers it.
    pub kind: StartKind,
}

impl HvCode {
    /// The four start elements of Theorem 1 / Algorithm 1 for failed disks
    /// `a` and `b` (0-based, any order):
    /// `(⟨f1/4⟩, f2)` and `(⟨f2/4⟩, f1)` via horizontal chains,
    /// `(⟨(f1 − f2/2)/2⟩, f1)` and `(⟨(f2 − f1/2)/2⟩, f2)` via vertical
    /// chains (1-based formulas; a zero row maps to the vertical parity
    /// element `E_{⟨fj/4⟩, fj}` per the Theorem-1 footnote).
    ///
    /// # Errors
    ///
    /// Returns [`DoubleRecoveryError`] on invalid disk indices.
    pub fn start_elements(
        &self,
        a: usize,
        b: usize,
    ) -> Result<[StartElement; 4], DoubleRecoveryError> {
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
        let (g1, g2) = (f1 as i64 + 1, f2 as i64 + 1);
        let fixup = |row_1b: usize, col_1b: i64| -> usize {
            if row_1b == 0 {
                div_mod(col_1b, 4, p)
            } else {
                row_1b
            }
        };
        let sh_f1 = StartElement {
            cell: Cell::new(div_mod(g2, 4, p) - 1, f1),
            kind: StartKind::Horizontal,
        };
        let sh_f2 = StartElement {
            cell: Cell::new(div_mod(g1, 4, p) - 1, f2),
            kind: StartKind::Horizontal,
        };
        let sv_f1 = StartElement {
            cell: Cell::new(fixup(half_mod(g1 - div_mod(g2, 2, p) as i64, p), g1) - 1, f1),
            kind: StartKind::Vertical,
        };
        let sv_f2 = StartElement {
            cell: Cell::new(fixup(half_mod(g2 - div_mod(g1, 2, p) as i64, p), g2) - 1, f2),
            kind: StartKind::Vertical,
        };
        Ok([sh_f1, sh_f2, sv_f1, sv_f2])
    }
}

/// XOR-operation counts from the paper's Section IV property analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XorComplexity {
    /// XOR operations per data element during construction; the optimum for
    /// an `m×n` stripe with `x` data elements is `(3x − m·n)/x`, which for
    /// HV Code evaluates to `2(p−4)/(p−3)`.
    pub encode_per_data_element: f64,
    /// XOR operations per lost element during reconstruction; the optimum
    /// is `(3x − m·n)/(m·n − x)`, i.e. `p − 4` for HV Code.
    pub decode_per_lost_element: f64,
}

impl HvCode {
    /// Counts the actual XOR work of the construction and of a double-disk
    /// reconstruction, per element — Section IV-2 claims both meet the
    /// optimum derived by the P-Code paper, and the tests verify the counts
    /// against the closed forms.
    pub fn xor_complexity(&self) -> XorComplexity {
        let layout = self.layout();
        // Encoding: each chain XORs its members pairwise onto the parity:
        // (members − 1) XOR ops per chain.
        let encode_ops: usize =
            layout.chains().iter().map(|ch| ch.members.len() - 1).sum();
        // Reconstruction: each lost element is rebuilt from its chain's
        // other p − 3 elements: p − 4 XOR ops. Measure via Algorithm 1 on a
        // representative pair.
        let plan = self
            .double_recovery_plan(0, self.num_disks() / 2)
            .expect("valid pair");
        let decode_ops: usize = plan
            .steps()
            .map(|s| layout.chain(s.chain).len() - 2)
            .sum();
        XorComplexity {
            encode_per_data_element: encode_ops as f64 / layout.num_data_cells() as f64,
            decode_per_lost_element: decode_ops as f64 / plan.total_elements() as f64,
        }
    }
}

/// The two-integer tuple sequence of Lemma 1 for failed columns `f1 < f2`
/// (1-based), normalized to start at `(0, f2)`.
///
/// The lemma's claim — proved in the paper and asserted by this module's
/// tests — is that the `2p` tuples `(T_k, T'_k)` visit every pair in
/// `{0..p−1} × {f1, f2}` exactly once: even positions walk column `f2` and
/// odd positions column `f1`, each stepping by `⟨(f1 − f2)/2⟩_p` per visit.
/// This is the combinatorial skeleton of the double-failure recovery walk.
///
/// # Panics
///
/// Panics if `f1 == f2` or either column is outside `1..p`.
pub fn lemma1_sequence(p: raid_math::Prime, f1: usize, f2: usize) -> Vec<(usize, usize)> {
    let pv = p.get();
    assert!(f1 != f2 && (1..pv).contains(&f1) && (1..pv).contains(&f2), "bad columns");
    let delta = half_mod(f1 as i64 - f2 as i64, p);
    let mut seq = Vec::with_capacity(2 * pv);
    for k in 0..2 * pv {
        let t = (k / 2) as i64;
        if k % 2 == 0 {
            seq.push((reduce(t * delta as i64, p), f2));
        } else {
            seq.push((reduce(t * delta as i64 + delta as i64, p), f1));
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use raid_math::Prime;

    #[test]
    fn lemma1_enumerates_every_tuple_once() {
        for p in [5usize, 7, 11, 13, 17] {
            let prime = Prime::new(p).unwrap();
            for f1 in 1..p {
                for f2 in (f1 + 1)..p {
                    let seq = lemma1_sequence(prime, f1, f2);
                    assert_eq!(seq.len(), 2 * p);
                    let set: std::collections::HashSet<_> = seq.iter().collect();
                    assert_eq!(set.len(), 2 * p, "p={p} ({f1},{f2}): duplicates");
                    for r in 0..p {
                        assert!(set.contains(&(r, f1)), "missing ({r},{f1})");
                        assert!(set.contains(&(r, f2)), "missing ({r},{f2})");
                    }
                    // Alternation between the two columns.
                    for (k, &(_, col)) in seq.iter().enumerate() {
                        assert_eq!(col, if k % 2 == 0 { f2 } else { f1 });
                    }
                }
            }
        }
    }

    #[test]
    fn start_elements_match_algorithm_one() {
        for p in [5usize, 7, 11, 13] {
            let code = HvCode::new(p).unwrap();
            let n = code.num_disks();
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let starts = code.start_elements(f1, f2).unwrap();
                    let plan = code.double_recovery_plan(f1, f2).unwrap();
                    let plan_starts: Vec<Cell> =
                        plan.chains().iter().map(|ch| ch[0].cell).collect();
                    for s in starts {
                        assert!(
                            plan_starts.contains(&s.cell),
                            "p={p} ({f1},{f2}): {0} not a chain head",
                            s.cell
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn start_elements_validate_arguments() {
        let code = HvCode::new(7).unwrap();
        assert!(code.start_elements(1, 1).is_err());
        assert!(code.start_elements(0, 6).is_err());
    }

    #[test]
    fn xor_complexity_matches_section_four_optima() {
        for p in [5usize, 7, 11, 13, 17, 19, 23] {
            let code = HvCode::new(p).unwrap();
            let c = code.xor_complexity();
            let pf = p as f64;
            // Optimal construction: 2(p−4)/(p−3) XORs per data element.
            assert!(
                (c.encode_per_data_element - 2.0 * (pf - 4.0) / (pf - 3.0)).abs() < 1e-9,
                "p={p}: encode {c:?}"
            );
            // Optimal reconstruction: p−4 XORs per lost element.
            assert!(
                (c.decode_per_lost_element - (pf - 4.0)).abs() < 1e-9,
                "p={p}: decode {c:?}"
            );
        }
    }

    #[test]
    fn figure_eight_example() {
        // Fig. 8: repairing disk #1 of the p = 7 array retrieves 18
        // elements — 3 per lost element.
        let code = HvCode::new(7).unwrap();
        let plan = raid_core::plan::single::plan_single_disk_recovery(code.layout(), 0);
        assert_eq!(plan.total_reads(), 18);
        assert!((plan.reads_per_element() - 3.0).abs() < 1e-12);
        // And mixing chains is essential: an all-one-kind repair reads
        // (p − 3) distinct elements per lost element — 24 in total here,
        // since chains of different rows never overlap.
        assert!(plan.total_reads() < (7 - 3) * (7 - 1));
    }
}
