//! A Liberation-style minimum-density bit-matrix RAID-6 code (Plank,
//! FAST'08 — cited in the paper's list of MDS RAID-6 codes).
//!
//! Bit-matrix codes split every disk's stripe unit into `w = p` *packets*
//! and describe the second parity disk by one `w × w` binary matrix `X_i`
//! per data disk: Q's packet `r` is the XOR of the data packets selected by
//! row `r` of every `X_i`. The P disk uses identity matrices (plain row
//! XOR). The code is MDS iff every `X_i` and every pairwise sum
//! `X_i ⊕ X_j` is nonsingular over GF(2).
//!
//! Liberation codes choose `X_i = σ^i ⊕ E_i` — a cyclic shift plus a
//! *single extra one* — hitting the minimum possible density (`w + 1` ones
//! per matrix) so updates touch as few Q packets as possible. The extra
//! one for disk `i` goes at row `r_i ≡ (1 − i)·2⁻¹ (mod w)` and column
//! `c_i = r_i + i − 1 (mod w)`: one diagonal to the left of the shift
//! diagonal, rows stepping by the half of `1 − i`. Placing two extras in
//! the same row is always fatal — `(X_i ⊕ X_j)·𝟙 = e_{r_i} ⊕ e_{r_j}`
//! because the circulant part annihilates the all-ones vector — so the
//! rows `r_i` must form a system of distinct representatives, which the
//! halving walk provides. The positions are **verified**, not trusted:
//! construction re-checks every matrix and pairwise sum by Gaussian
//! elimination (the MDS battery below and `raid-verify` are further
//! proof; see DESIGN.md §2), and falls back to a first-fit backtracking
//! search over all `w²` positions per disk if the battery ever fails
//! (it holds for every prime `w ≤ 31`). A matrix row is one `u32`, so
//! `w ≤ 31` is also the supported range: a larger prime is refused as
//! [`CodeError::TooLarge`].
//!
//! Because a packet is just a row of the layout grid, the whole
//! construction maps onto [`Layout`] — `w` rows, `k + 2` columns — and
//! inherits every generic planner.

use raid_core::layout::{Chain, ElementKind, ParityClass};
use raid_core::{ArrayCode, Cell, Layout};
use raid_math::Prime;

use crate::CodeError;

/// A `w × w` binary matrix stored as one `u32` bitmask per row.
type BitMat = Vec<u32>;

/// The largest prime `w = p` whose matrix rows fit one `u32` bitmask each.
pub const MAX_P: usize = 31;

fn identity(w: usize) -> BitMat {
    (0..w).map(|r| 1u32 << r).collect()
}

/// Cyclic shift: row `r` has its one at column `(r + s) mod w`.
fn shift(w: usize, s: usize) -> BitMat {
    (0..w).map(|r| 1u32 << ((r + s) % w)).collect()
}

fn xor_mat(a: &BitMat, b: &BitMat) -> BitMat {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

/// Nonsingularity over GF(2) by elimination on row bitmasks.
fn invertible(m: &BitMat) -> bool {
    let w = m.len();
    let mut rows = m.clone();
    let mut rank = 0;
    for col in 0..w {
        let Some(pivot) = (rank..w).find(|&r| rows[r] >> col & 1 == 1) else {
            continue;
        };
        rows.swap(rank, pivot);
        for r in 0..w {
            if r != rank && rows[r] >> col & 1 == 1 {
                rows[r] ^= rows[rank];
            }
        }
        rank += 1;
    }
    rank == w
}

/// True if every matrix and every pairwise sum is nonsingular — the MDS
/// condition for a bit-matrix RAID-6 code.
fn mds_battery(mats: &[BitMat]) -> bool {
    mats.iter().all(invertible)
        && (0..mats.len()).all(|a| {
            (a + 1..mats.len()).all(|b| invertible(&xor_mat(&mats[a], &mats[b])))
        })
}

/// The closed-form coding matrices: `X_0 = I`, and for `i ≥ 1` the extra
/// one at `(r_i, c_i)` with `r_i ≡ (1 − i)·2⁻¹ (mod w)` and
/// `c_i = r_i + i − 1 (mod w)` (see the module doc). Runs the full
/// nonsingularity battery before returning; `None` means the formula does
/// not hold at this `w` and the caller should fall back to the search.
fn closed_form_matrices(w: usize, k: usize) -> Option<Vec<BitMat>> {
    if w.is_multiple_of(2) || k > w {
        return None;
    }
    let inv2 = w.div_ceil(2); // 2·(w+1)/2 = w + 1 ≡ 1 (mod w) for odd w
    let mut mats = vec![identity(w)];
    for i in 1..k {
        let r = ((1 + (w - 1) * i) * inv2) % w; // (1 − i)·2⁻¹ mod w
        let c = (r + i + w - 1) % w; // never the shift diagonal r + i
        let mut m = shift(w, i);
        m[r] ^= 1u32 << c;
        mats.push(m);
    }
    mds_battery(&mats).then_some(mats)
}

/// Fallback: searches the extra-one positions by backtracking first-fit
/// over the `w²` candidates per disk, verifying nonsingularity as it
/// goes. Exponential in the worst case — only reached if
/// [`closed_form_matrices`] declines.
fn search_matrices(w: usize, k: usize) -> Option<Vec<BitMat>> {
    fn go(w: usize, k: usize, acc: &mut Vec<BitMat>) -> bool {
        if acc.len() == k {
            return true;
        }
        let i = acc.len();
        let base = shift(w, i);
        for r in 0..w {
            for c in 0..w {
                let mut cand = base.clone();
                cand[r] ^= 1u32 << c;
                if cand[r] == 0 {
                    continue; // the extra one cancelled the shift's one
                }
                if !invertible(&cand) {
                    continue;
                }
                if acc.iter().all(|x| invertible(&xor_mat(x, &cand))) {
                    acc.push(cand);
                    if go(w, k, acc) {
                        return true;
                    }
                    acc.pop();
                }
            }
        }
        false
    }

    let mut acc = vec![identity(w)];
    // X_0 = I already satisfies invertibility; pairs are checked as the
    // others are placed.
    go(w, k, &mut acc).then_some(acc)
}

/// The Liberation-style code over `k + 2` disks with `w = p` packets.
///
/// ```
/// use raid_baselines::liberation::LiberationCode;
/// use raid_core::ArrayCode;
///
/// let code = LiberationCode::new(5)?; // w = 5 packets, 7 disks
/// assert_eq!(code.disks(), 7);
/// assert_eq!(code.rows(), 5);
/// # Ok::<(), raid_baselines::CodeError>(())
/// ```
#[derive(Debug)]
pub struct LiberationCode {
    p: Prime,
    layout: Layout,
    /// Ones per Q coding matrix, for density reporting.
    matrix_ones: Vec<usize>,
}

impl LiberationCode {
    /// Builds the code with `k = p` data disks (the full-width shape).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if `p` is not prime, exceeds [`MAX_P`], or
    /// neither the closed form nor the fallback search yields valid
    /// matrices (both succeed for every prime the tests sweep).
    pub fn new(p: usize) -> Result<Self, CodeError> {
        let prime = Prime::new(p)?;
        if p > MAX_P {
            return Err(CodeError::TooLarge { p, max: MAX_P });
        }
        let w = p;
        let k = p;
        let mats = closed_form_matrices(w, k)
            .or_else(|| search_matrices(w, k))
            .ok_or(CodeError::TooSmall { p, min: 5 })?;
        let matrix_ones = mats
            .iter()
            .map(|m| m.iter().map(|r| r.count_ones() as usize).sum())
            .collect();
        Ok(LiberationCode { p: prime, layout: build_layout(w, k, &mats), matrix_ones })
    }

    /// Ones per coding matrix — `w` for `X_0` (identity) and `w + 1` for
    /// the rest, the minimum-density signature.
    pub fn matrix_ones(&self) -> &[usize] {
        &self.matrix_ones
    }
}

impl ArrayCode for LiberationCode {
    fn name(&self) -> &str {
        "Liberation"
    }

    fn prime(&self) -> Prime {
        self.p
    }

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

fn build_layout(w: usize, k: usize, mats: &[BitMat]) -> Layout {
    let cols = k + 2;
    let (p_col, q_col) = (k, k + 1);

    let mut kinds = vec![ElementKind::Data; w * cols];
    for r in 0..w {
        kinds[Cell::new(r, p_col).index(cols)] = ElementKind::Parity(ParityClass::Horizontal);
        kinds[Cell::new(r, q_col).index(cols)] = ElementKind::Parity(ParityClass::Diagonal);
    }

    let mut chains = Vec::with_capacity(2 * w);
    // P: plain row parity over the data disks.
    for r in 0..w {
        chains.push(Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(r, p_col),
            members: (0..k).map(|i| Cell::new(r, i)).collect(),
        });
    }
    // Q: packet r gathers data packet c of disk i wherever X_i[r][c] = 1.
    for r in 0..w {
        let mut members = Vec::new();
        for (i, x) in mats.iter().enumerate() {
            for c in 0..w {
                if x[r] >> c & 1 == 1 {
                    members.push(Cell::new(c, i));
                }
            }
        }
        chains.push(Chain {
            class: ParityClass::Diagonal,
            parity: Cell::new(r, q_col),
            members,
        });
    }

    Layout::new(w, cols, kinds, chains).expect("Liberation construction yields a valid layout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_raid6_code;
    use raid_core::plan::update::update_complexity;

    #[test]
    fn closed_form_passes_the_full_battery() {
        // The formula-placed matrices survive the exact Gaussian battery
        // at every supported prime — instant, unlike the old search,
        // which took minutes at p = 17 in debug builds.
        for p in [5usize, 7, 11, 13, 17, 19, 23, 29, 31] {
            let mats = closed_form_matrices(p, p).unwrap_or_else(|| panic!("w={p}"));
            assert!(mds_battery(&mats), "w={p}");
        }
    }

    #[test]
    fn construction_succeeds_and_is_minimum_density() {
        for p in [5usize, 7, 11, 13, 17, 19] {
            let code = LiberationCode::new(p).unwrap();
            let ones = code.matrix_ones();
            assert_eq!(ones[0], p, "X_0 is the identity");
            assert!(
                ones[1..].iter().all(|&o| o == p + 1),
                "p={p}: non-minimal density {ones:?}"
            );
        }
    }

    #[test]
    fn q_chains_have_minimal_total_size() {
        // Total Q-chain membership = total ones = p + (p−1)(p+1) = p² + p − 1...
        // wait: k = p matrices: identity (p ones) + (p−1) matrices of p+1.
        for p in [5usize, 7, 11] {
            let code = LiberationCode::new(p).unwrap();
            let q_members: usize = code
                .layout()
                .chains()
                .iter()
                .filter(|ch| matches!(ch.class, ParityClass::Diagonal))
                .map(|ch| ch.members.len())
                .sum();
            assert_eq!(q_members, p + (p - 1) * (p + 1), "p={p}");
        }
    }

    #[test]
    fn update_complexity_near_optimal() {
        // Each data packet is in exactly one P chain and on average just
        // over one Q chain — the minimum-density promise.
        for p in [5usize, 7, 11] {
            let code = LiberationCode::new(p).unwrap();
            let avg = update_complexity(code.layout());
            let expected = 1.0 + (p as f64 * p as f64 + p as f64 - 1.0) / (p as f64 * p as f64);
            assert!((avg - expected).abs() < 1e-9, "p={p}: {avg} vs {expected}");
        }
    }

    /// A row is a `u32` mask, so p = 37 is refused by the limit it
    /// exceeds — not reported as a prime too small for the code (release)
    /// nor panicking on the shift (debug) — and p = 31 still builds.
    #[test]
    fn a_prime_past_the_row_width_is_refused_by_its_limit() {
        let err = LiberationCode::new(37).unwrap_err();
        assert_eq!(err, CodeError::TooLarge { p: 37, max: 31 });
        assert_eq!(err.to_string(), "prime 37 too large for this code (maximum 31)");
        assert_eq!(LiberationCode::new(31).unwrap().disks(), 33);
    }

    #[test]
    fn raid6_battery() {
        for p in [5usize, 7, 11] {
            assert_raid6_code(&LiberationCode::new(p).unwrap());
        }
    }
}
