//! EVENODD (Blaum, Brady, Bruck & Menon, IEEE Trans. Computers 1995).
//!
//! The first XOR-only horizontal RAID-6 code: `p + 2` disks, `p − 1` rows.
//! Disks `0..p−1` hold data, disk `p` row parity and disk `p+1` diagonal
//! parity. The diagonal parity of diagonal `d` is
//! `S ⊕ (⊕ of the cells with (r+c) mod p = d)`, where the adjuster
//! `S = ⊕` of the cells on the special diagonal `(r+c) mod p = p−1`.
//!
//! In chain form, each diagonal chain's members are its own diagonal's
//! cells *plus* the S-diagonal's cells (the two sets are disjoint for
//! `d ≠ p−1`), which is why EVENODD's effective chains are long and its
//! update complexity high — the paper cites it as a horizontally-balanced
//! but update-expensive ancestor and excludes it from the headline figures;
//! we implement it for the background comparison.

use raid_core::layout::{Chain, ElementKind, ParityClass};
use raid_core::{ArrayCode, Cell, Layout};
use raid_math::Prime;

use crate::CodeError;

/// The EVENODD code over `p + 2` disks.
///
/// ```
/// use raid_baselines::EvenOddCode;
/// use raid_core::ArrayCode;
///
/// let code = EvenOddCode::new(5)?;
/// assert_eq!(code.disks(), 7);
/// # Ok::<(), raid_baselines::CodeError>(())
/// ```
#[derive(Debug)]
pub struct EvenOddCode {
    p: Prime,
    layout: Layout,
}

impl EvenOddCode {
    /// Builds EVENODD for prime `p ≥ 3`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if `p` is not prime.
    pub fn new(p: usize) -> Result<Self, CodeError> {
        let prime = Prime::new(p)?;
        Ok(EvenOddCode { p: prime, layout: build_layout(prime) })
    }
}

impl ArrayCode for EvenOddCode {
    fn name(&self) -> &str {
        "EVENODD"
    }

    fn prime(&self) -> Prime {
        self.p
    }

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

fn build_layout(p: Prime) -> Layout {
    let pv = p.get();
    let rows = pv - 1;
    let cols = pv + 2;
    let (rp_col, dp_col) = (pv, pv + 1);

    let mut kinds = vec![ElementKind::Data; rows * cols];
    for r in 0..rows {
        kinds[Cell::new(r, rp_col).index(cols)] = ElementKind::Parity(ParityClass::Horizontal);
        kinds[Cell::new(r, dp_col).index(cols)] = ElementKind::Parity(ParityClass::Diagonal);
    }

    // Cells of diagonal `d`: (r + c) mod p = d over the data columns.
    let diag_cells = |d: usize| -> Vec<Cell> {
        (0..pv)
            .filter_map(|c| {
                let r = (d + pv - c) % pv;
                (r < rows).then_some(Cell::new(r, c))
            })
            .collect()
    };
    let s_cells = diag_cells(pv - 1);

    let mut chains = Vec::with_capacity(2 * rows);
    for r in 0..rows {
        chains.push(Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(r, rp_col),
            members: (0..pv).map(|c| Cell::new(r, c)).collect(),
        });
    }
    for d in 0..rows {
        let mut members = diag_cells(d);
        members.extend(s_cells.iter().copied());
        chains.push(Chain {
            class: ParityClass::Diagonal,
            parity: Cell::new(d, dp_col),
            members,
        });
    }

    Layout::new(rows, cols, kinds, chains).expect("EVENODD construction yields a valid layout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_raid6_code;
    use raid_core::invariants;
    use raid_core::Stripe;
    use raid_math::xor::xor_gather_into;

    #[test]
    fn geometry() {
        let code = EvenOddCode::new(5).unwrap();
        assert_eq!(code.disks(), 7);
        assert_eq!(code.rows(), 4);
        let pc = invariants::parities_per_column(code.layout());
        assert_eq!(pc, vec![0, 0, 0, 0, 0, 4, 4]);
    }

    #[test]
    fn diagonal_parity_matches_classic_formula() {
        // Cross-check the chain encoding against the textbook
        // S ⊕ diagonal definition, computed independently.
        let p = 5usize;
        let code = EvenOddCode::new(p).unwrap();
        let l = code.layout();
        let mut s = Stripe::for_layout(l, 8);
        s.fill_data_seeded(l, 7);
        code.encode(&mut s);

        // S = XOR of cells with (r+c) mod p = p−1.
        let s_cells: Vec<&[u8]> = (0..p)
            .filter_map(|c| {
                let r = (p - 1 + p - c) % p;
                (r < p - 1).then(|| s.element(Cell::new(r, c)))
            })
            .collect();
        let mut adjuster = vec![0u8; s.element_size()];
        xor_gather_into(&mut adjuster, &s_cells);

        for d in 0..p - 1 {
            let mut diag: Vec<&[u8]> = (0..p)
                .filter_map(|c| {
                    let r = (d + p - c) % p;
                    (r < p - 1).then(|| s.element(Cell::new(r, c)))
                })
                .collect();
            diag.push(&adjuster);
            let mut expect = vec![0u8; s.element_size()];
            xor_gather_into(&mut expect, &diag);
            assert_eq!(s.element(Cell::new(d, p + 1)), &expect[..], "diagonal {d}");
        }
    }

    #[test]
    fn raid6_battery() {
        for p in [3usize, 5, 7, 11] {
            assert_raid6_code(&EvenOddCode::new(p).unwrap());
        }
    }
}
