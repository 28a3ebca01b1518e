//! RDP — Row-Diagonal Parity (Corbett et al., FAST'04).
//!
//! `p + 1` disks, `p − 1` rows. Disks `0..p−1` hold data, disk `p − 1` the
//! row parity and disk `p` the diagonal parity. Diagonal `d` collects the
//! cells with `(row + col) mod p = d` over the data **and row-parity**
//! columns; diagonals `0..p−2` get a parity element, diagonal `p − 1` is
//! the *missing diagonal* left unprotected (its information is implied).
//!
//! Because diagonal chains include row-parity elements, a single data write
//! can cascade into up to three parity updates (row parity + own diagonal +
//! the diagonal of the row parity) — the "more than 2 extra updates" of the
//! paper's Table III.

use raid_core::layout::{Chain, ElementKind, ParityClass};
use raid_core::{ArrayCode, Cell, Layout};
use raid_math::Prime;

use crate::CodeError;

/// The RDP code over `p + 1` disks.
///
/// ```
/// use raid_baselines::RdpCode;
/// use raid_core::{ArrayCode, Stripe};
///
/// let code = RdpCode::new(5)?;          // 6 disks, as in the paper's Fig. 1
/// let mut s = Stripe::for_layout(code.layout(), 32);
/// s.fill_data_seeded(code.layout(), 1);
/// code.encode(&mut s);
/// let pristine = s.clone();
/// s.erase_col(0);
/// s.erase_col(4);                        // a data disk and the row-parity disk
/// let mut lost = code.layout().cells_in_col(0);
/// lost.extend(code.layout().cells_in_col(4));
/// code.decode(&mut s, &lost)?;
/// assert_eq!(s, pristine);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RdpCode {
    p: Prime,
    layout: Layout,
}

impl RdpCode {
    /// Builds RDP for prime `p ≥ 3`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if `p` is not prime (3 already yields a valid,
    /// if tiny, 4-disk array).
    pub fn new(p: usize) -> Result<Self, CodeError> {
        Self::with_data_disks(p, p - 1)
    }

    /// Builds a **shortened** RDP array: `data_disks ≤ p − 1` data disks
    /// plus the two parity disks. Shortening imagines the missing data
    /// columns as all-zero (they simply drop out of every chain), which is
    /// how RDP deployments support arbitrary array widths; the MDS property
    /// is inherited from the full-width code and re-verified by tests.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if `p` is not prime or `data_disks` is zero or
    /// exceeds `p − 1`.
    pub fn with_data_disks(p: usize, data_disks: usize) -> Result<Self, CodeError> {
        let prime = Prime::new(p)?;
        if data_disks == 0 || data_disks > p - 1 {
            return Err(CodeError::TooSmall { p, min: 3 });
        }
        Ok(RdpCode { p: prime, layout: build_layout(prime, data_disks) })
    }

    /// Number of data disks (equals `p − 1` unless shortened).
    pub fn data_disks(&self) -> usize {
        self.layout.cols() - 2
    }

    /// Column of the dedicated row-parity disk.
    pub fn row_parity_col(&self) -> usize {
        self.data_disks()
    }

    /// Column of the dedicated diagonal-parity disk.
    pub fn diag_parity_col(&self) -> usize {
        self.data_disks() + 1
    }
}

impl ArrayCode for RdpCode {
    fn name(&self) -> &str {
        "RDP"
    }

    fn prime(&self) -> Prime {
        self.p
    }

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

fn build_layout(p: Prime, data_disks: usize) -> Layout {
    let pv = p.get();
    let rows = pv - 1;
    let cols = data_disks + 2;
    let (rp_col, dp_col) = (data_disks, data_disks + 1);

    let mut kinds = vec![ElementKind::Data; rows * cols];
    for r in 0..rows {
        kinds[Cell::new(r, rp_col).index(cols)] = ElementKind::Parity(ParityClass::Horizontal);
        kinds[Cell::new(r, dp_col).index(cols)] = ElementKind::Parity(ParityClass::Diagonal);
    }

    // Physical column of full-width virtual column `v` (virtual data
    // columns `data_disks..p−1` are all-zero and dropped; the row-parity
    // column keeps its virtual index p−1 for the diagonal geometry).
    let physical = |v: usize| -> Option<usize> {
        if v < data_disks {
            Some(v)
        } else if v == pv - 1 {
            Some(rp_col)
        } else {
            None
        }
    };

    let mut chains = Vec::with_capacity(2 * rows);
    // Row parity: XOR of the (present) data cells of row r.
    for r in 0..rows {
        chains.push(Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(r, rp_col),
            members: (0..data_disks).map(|c| Cell::new(r, c)).collect(),
        });
    }
    // Diagonal parity: cells with (r + v) mod p = d over virtual columns
    // 0..p−1 (including the row-parity column at virtual p−1).
    for d in 0..rows {
        let members: Vec<Cell> = (0..pv)
            .filter_map(|v| {
                let r = (d + pv - v) % pv;
                if r >= rows {
                    return None;
                }
                physical(v).map(|c| Cell::new(r, c))
            })
            .collect();
        chains.push(Chain {
            class: ParityClass::Diagonal,
            parity: Cell::new(d, dp_col),
            members,
        });
    }

    Layout::new(rows, cols, kinds, chains).expect("RDP construction yields a valid layout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_raid6_code;
    use raid_core::invariants;
    use raid_core::plan::update::{update_complexity, worst_case_updates};

    #[test]
    fn rejects_composites() {
        assert!(RdpCode::new(8).is_err());
        assert!(RdpCode::new(5).is_ok());
    }

    #[test]
    fn geometry_matches_figure_one() {
        // Fig. 1 of the HV paper: p = 5, six disks, rows 1..4; D5 and D6
        // are the parity disks (0-based cols 4 and 5).
        let code = RdpCode::new(5).unwrap();
        assert_eq!(code.disks(), 6);
        assert_eq!(code.rows(), 4);
        assert_eq!(code.row_parity_col(), 4);
        assert_eq!(code.diag_parity_col(), 5);
        assert_eq!(invariants::parities_per_column(code.layout()), vec![0, 0, 0, 0, 4, 4]);
        // Paper example: the diagonal chain of E1,6 (1-based) is
        // {E1,1, E4,3, E3,4, E2,5} — 0-based {E[0][0], E[3][2], E[2][3], E[1][4]}.
        let l = code.layout();
        let diag0 = l.chain_of_parity(Cell::new(0, 5)).unwrap();
        let mut members = l.chain(diag0).members.clone();
        members.sort();
        let mut expect =
            vec![Cell::new(0, 0), Cell::new(3, 2), Cell::new(2, 3), Cell::new(1, 4)];
        expect.sort();
        assert_eq!(members, expect);
    }

    #[test]
    fn chain_lengths_are_p() {
        // Table III: RDP parity chain length is p.
        for p in [5usize, 7, 11, 13] {
            let code = RdpCode::new(p).unwrap();
            assert_eq!(
                code.layout().chain_length_histogram(),
                vec![(p, 2 * (p - 1))],
                "p={p}"
            );
        }
    }

    #[test]
    fn update_complexity_exceeds_two() {
        // Table III: "more than 2 extra updates".
        for p in [5usize, 7, 11, 13] {
            let code = RdpCode::new(p).unwrap();
            let avg = update_complexity(code.layout());
            assert!(avg > 2.0, "p={p}: avg {avg}");
            assert_eq!(worst_case_updates(code.layout()), 3, "p={p}");
        }
    }

    #[test]
    fn raid6_battery() {
        for p in [3usize, 5, 7, 11, 13] {
            assert_raid6_code(&RdpCode::new(p).unwrap());
        }
    }

    #[test]
    fn shortened_arrays_stay_mds() {
        // Every shortened width of the p = 7 and p = 11 arrays.
        for p in [7usize, 11] {
            for d in 1..p {
                let code = RdpCode::with_data_disks(p, d).unwrap();
                assert_eq!(code.disks(), d + 2, "p={p} d={d}");
                assert_eq!(code.data_disks(), d);
                assert_raid6_code(&code);
            }
        }
    }

    #[test]
    fn shortening_validates_width() {
        assert!(RdpCode::with_data_disks(7, 0).is_err());
        assert!(RdpCode::with_data_disks(7, 7).is_err());
        assert!(RdpCode::with_data_disks(7, 6).is_ok());
    }
}
