//! Scrubbing: detecting and repairing silently corrupted elements.
//!
//! The paper's Section III-D starts from "the failure of an element" as the
//! basic repair case. Disk-level failures announce themselves; *silent*
//! corruption (bit rot, torn writes) does not — a scrubber periodically
//! re-evaluates every parity chain and localizes the damage from the
//! pattern of violated equations: a single corrupted element invalidates
//! exactly the chains whose equations contain it, and in a RAID-6 layout
//! that signature identifies the element uniquely.

use std::collections::BTreeSet;

use crate::decoder;
use crate::geometry::Cell;
use crate::layout::Layout;
use crate::stripe::Stripe;

/// Outcome of a scrub pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubReport {
    /// Every chain checks out.
    Clean,
    /// One element was corrupted, identified and repaired in place.
    Repaired {
        /// The element that was rewritten.
        cell: Cell,
    },
    /// The violation pattern does not match any single element; the damage
    /// spans multiple elements and element-level scrubbing cannot localize
    /// it (treat the disk as failed instead).
    Unlocalizable {
        /// Parity cells of the violated chains.
        violated: Vec<Cell>,
    },
}

/// Checks every chain and, if exactly one element's corruption explains the
/// violations, repairs it in place.
///
/// A corrupted *data* element violates every chain containing it (two for
/// an optimal-update code); a corrupted *parity* element violates only its
/// own chain. Both signatures are matched; ambiguity (several candidate
/// cells with the same signature) is reported as unlocalizable rather than
/// guessed at. A candidate repair is additionally *verified*: if rewriting
/// the candidate does not make every chain consistent — e.g. two corrupted
/// parities whose violation signature happens to coincide with a data
/// cell's — the repair is rolled back and the stripe reported
/// unlocalizable, so multi-element damage is never mis-repaired as a
/// single element.
pub fn scrub(stripe: &mut Stripe, layout: &Layout) -> ScrubReport {
    let violated = violated_chains(stripe, layout);
    if violated.is_empty() {
        return ScrubReport::Clean;
    }

    // A single corrupted cell would violate exactly `equations_of(cell)`.
    let mut candidates: Vec<Cell> = Vec::new();
    for idx in 0..layout.num_cells() {
        let cell = Cell::from_index(idx, layout.cols());
        let eqs: BTreeSet<usize> =
            layout.equations_of(cell).into_iter().map(|id| id.0).collect();
        if !eqs.is_empty() && eqs == violated {
            candidates.push(cell);
        }
    }

    let unlocalizable = |violated: BTreeSet<usize>| ScrubReport::Unlocalizable {
        violated: violated.into_iter().map(|i| layout.chains()[i].parity).collect(),
    };

    match candidates.as_slice() {
        [cell] => {
            let cell = *cell;
            let snapshot = stripe.element(cell).to_vec();
            let plan = decoder::plan_decode(layout, &[cell])
                .expect("single erasure always decodable in RAID-6");
            decoder::apply_plan(stripe, &plan);
            // Verify the repair actually restored consistency; damage
            // spanning several elements can forge a single-cell signature.
            if violated_chains(stripe, layout).is_empty() {
                ScrubReport::Repaired { cell }
            } else {
                stripe.set_element(cell, &snapshot);
                unlocalizable(violated)
            }
        }
        _ => unlocalizable(violated),
    }
}

/// Indices of the layout's chains whose parity equation does not hold.
fn violated_chains(stripe: &Stripe, layout: &Layout) -> BTreeSet<usize> {
    let mut violated = BTreeSet::new();
    for (idx, chain) in layout.chains().iter().enumerate() {
        if !raid_math::xor::is_zero(&stripe.xor_of(chain.cells())) {
            violated.insert(idx);
        }
    }
    violated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

    /// X-Code p=3 — every cell is in some chain, data cells in two.
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

    fn encoded() -> (Layout, Stripe) {
        let layout = xcode3();
        let mut s = Stripe::for_layout(&layout, 16);
        s.fill_data_seeded(&layout, 5);
        s.encode(&layout);
        (layout, s)
    }

    #[test]
    fn clean_stripe_reports_clean() {
        let (layout, mut s) = encoded();
        assert_eq!(scrub(&mut s, &layout), ScrubReport::Clean);
    }

    #[test]
    fn corrupted_data_element_repaired() {
        let (layout, pristine) = encoded();
        for col in 0..3 {
            let cell = Cell::new(0, col);
            let mut s = pristine.clone();
            s.element_mut(cell)[3] ^= 0x40; // flip one bit
            let report = scrub(&mut s, &layout);
            assert_eq!(report, ScrubReport::Repaired { cell });
            assert_eq!(s, pristine);
        }
    }

    #[test]
    fn corrupted_parity_element_repaired() {
        let (layout, pristine) = encoded();
        for row in 1..3 {
            for col in 0..3 {
                let cell = Cell::new(row, col);
                let mut s = pristine.clone();
                s.element_mut(cell)[0] = !s.element(cell)[0];
                let report = scrub(&mut s, &layout);
                assert_eq!(report, ScrubReport::Repaired { cell }, "{cell}");
                assert_eq!(s, pristine);
            }
        }
    }

    #[test]
    fn multi_element_corruption_not_guessed() {
        let (layout, pristine) = encoded();
        let mut s = pristine;
        // Corrupt two data cells: the union signature matches no single
        // cell, so the scrubber must refuse.
        s.element_mut(Cell::new(0, 0))[0] ^= 1;
        s.element_mut(Cell::new(0, 1))[0] ^= 1;
        match scrub(&mut s, &layout) {
            ScrubReport::Unlocalizable { violated } => {
                assert!(violated.len() >= 3);
            }
            other => panic!("expected unlocalizable, got {other:?}"),
        }
    }

    #[test]
    fn zeroed_element_is_also_caught() {
        // Corruption that happens to zero a buffer looks exactly like an
        // erasure and must be repaired the same way.
        let (layout, pristine) = encoded();
        let mut s = pristine.clone();
        s.erase(Cell::new(0, 2));
        assert_eq!(
            scrub(&mut s, &layout),
            ScrubReport::Repaired { cell: Cell::new(0, 2) }
        );
        assert_eq!(s, pristine);
    }
}
