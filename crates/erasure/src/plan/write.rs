//! Partial-stripe-write planning (the paper's Section V-A, Fig. 6).
//!
//! A write of `L` continuous data elements (in the row-major data order of
//! [`Layout::data_cells`]) induces `L` data-element writes plus one write
//! for every *distinct* parity element associated with any written data
//! element — the paper's "total induced writes". The per-disk distribution
//! of those writes feeds the load-balancing rate λ (Fig. 6b).
//!
//! Every planner here, and the volume's write lowering, reads one
//! [`WriteTable`] per layout ([`Layout::write_table`]): which parities a
//! write of each data ordinal renews, and each parity's chain and place in
//! the parity-into-parity dependency order. Those are facts of the layout,
//! so a write plan is table lookups, never a walk of the chains.

use crate::bitset::BitSet;
use crate::geometry::Cell;
use crate::io::IoLedger;
use crate::layout::{ChainId, Layout};
use crate::plan::update::parity_updates;

/// A layout's write facts, built once per layout ([`Layout::write_table`])
/// and shared by every volume of the code.
///
/// * For each data ordinal: the parities a write of it renews, cascades
///   included, in [`parity_updates`] order.
/// * For each parity, indexed by the [`ChainId`] of the chain it owns: the
///   chain's members, and its *level* — 0 when no member is a parity,
///   otherwise one more than the highest level among its member parities.
///   Renewing parities in ascending level (ties in any order) never reads
///   a parity before it is renewed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTable {
    /// Ordinal `k` renews `renews[renews_at[k]..renews_at[k + 1]]`.
    renews: Vec<Cell>,
    renews_at: Vec<u32>,
    /// Chain `c`'s members are `members[members_at[c]..members_at[c + 1]]`.
    members: Vec<Cell>,
    members_at: Vec<u32>,
    level: Vec<u32>,
    /// The highest level.
    depth: u32,
}

impl WriteTable {
    /// The table of `layout`: each data cell's [`parity_updates`], each
    /// chain's members, and the levels settled in rounds, longest path
    /// through the member parities.
    ///
    /// # Panics
    ///
    /// Panics if the parities depend on each other in a cycle: no write
    /// order renews such a layout's parities.
    pub fn build(layout: &Layout) -> WriteTable {
        let renews = layout.data_cells().iter().map(|&cell| parity_updates(layout, cell));
        let members = layout.chains().iter().map(|chain| chain.members.clone());
        let mut level: Vec<Option<u32>> = vec![None; layout.chains().len()];
        let mut settled = 0;
        while settled < level.len() {
            let before = settled;
            for (id, chain) in layout.chains().iter().enumerate() {
                if level[id].is_some() {
                    continue;
                }
                let below = chain.members.iter().filter_map(|&m| layout.chain_of_parity(m));
                let levels: Option<Vec<u32>> = below.map(|c| level[c.0]).collect();
                if let Some(levels) = levels {
                    level[id] = Some(levels.iter().map(|l| l + 1).max().unwrap_or(0));
                    settled += 1;
                }
            }
            assert!(settled > before, "cyclic parity dependency during write");
        }
        WriteTable::from_parts(renews, members, level.into_iter().map(|l| l.unwrap_or(0) as usize))
    }

    /// A table from its parts: each data ordinal's renewed parities, each
    /// chain's members and each chain's level. [`WriteTable::build`]
    /// derives them from a layout; a checker may assemble any table.
    pub fn from_parts(
        renews: impl IntoIterator<Item = Vec<Cell>>,
        members: impl IntoIterator<Item = Vec<Cell>>,
        levels: impl IntoIterator<Item = usize>,
    ) -> WriteTable {
        fn flatten(lists: impl IntoIterator<Item = Vec<Cell>>) -> (Vec<Cell>, Vec<u32>) {
            let (mut flat, mut at) = (Vec::new(), vec![0]);
            for list in lists {
                flat.extend(list);
                at.push(flat.len() as u32);
            }
            (flat, at)
        }
        let (renews, renews_at) = flatten(renews);
        let (members, members_at) = flatten(members);
        let level: Vec<u32> = levels.into_iter().map(|l| l as u32).collect();
        let depth = level.iter().copied().max().unwrap_or(0);
        WriteTable { renews, renews_at, members, members_at, level, depth }
    }

    /// Number of data ordinals the table covers.
    pub fn ordinals(&self) -> usize {
        self.renews_at.len() - 1
    }

    /// Number of parities (chains) the table covers.
    pub fn parities(&self) -> usize {
        self.level.len()
    }

    /// The parities a write of data ordinal `ordinal` renews, cascades
    /// included, in [`parity_updates`] order.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of range.
    pub fn renews(&self, ordinal: usize) -> &[Cell] {
        &self.renews[self.renews_at[ordinal] as usize..self.renews_at[ordinal + 1] as usize]
    }

    /// The members of `chain`, in chain order.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn members(&self, chain: ChainId) -> &[Cell] {
        &self.members[self.members_at[chain.0] as usize..self.members_at[chain.0 + 1] as usize]
    }

    /// The level of `chain`'s parity in the dependency order.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn level(&self, chain: ChainId) -> usize {
        self.level[chain.0] as usize
    }

    /// The highest level: 0 when no parity is a member of another's chain.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }
}

/// The I/O footprint of one partial stripe write within a single stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// Data cells written, in address order.
    pub data_writes: Vec<Cell>,
    /// Distinct parity cells renewed, in first-touch order.
    pub parity_writes: Vec<Cell>,
}

impl WritePlan {
    /// Total element-write requests (Fig. 6a's unit).
    pub fn total_writes(&self) -> usize {
        self.data_writes.len() + self.parity_writes.len()
    }

    /// Adds this plan's writes to a per-disk ledger, keeping the
    /// data/parity split.
    pub fn record(&self, ledger: &mut IoLedger) {
        for c in &self.data_writes {
            ledger.add_data_writes(c.col, 1);
        }
        for c in &self.parity_writes {
            ledger.add_parity_writes(c.col, 1);
        }
    }
}

/// Plans a write of `len` continuous data elements starting at data ordinal
/// `start` within one stripe.
///
/// # Panics
///
/// Panics if `start + len` exceeds the stripe's data-element count; callers
/// that let writes spill into the next stripe (the RAID controller) must
/// split the request first.
pub fn plan_partial_write(layout: &Layout, start: usize, len: usize) -> WritePlan {
    let data = layout.data_cells();
    assert!(
        start + len <= data.len(),
        "write [{start}, {}) exceeds {} data elements in stripe",
        start + len,
        data.len()
    );
    let data_writes: Vec<Cell> = data[start..start + len].to_vec();
    let parity_writes = distinct_parity_updates(layout, start..start + len);
    WritePlan { data_writes, parity_writes }
}

/// The distinct parities renewed by writing the data `ordinals`, in
/// first-touch order: each ordinal's [`WriteTable::renews`], less what
/// earlier ordinals already renewed. Membership is one bitmap per call:
/// scanning the list built so far made the planner quadratic in the dirty
/// set.
///
/// Skipping a parity an earlier ordinal renewed drops nothing else: that
/// ordinal's list already holds everything the parity cascades into, so
/// the union keeps the rest in [`parity_updates`]' order.
fn distinct_parity_updates(
    layout: &Layout,
    ordinals: impl IntoIterator<Item = usize>,
) -> Vec<Cell> {
    let (table, cols) = (layout.write_table(), layout.cols());
    let mut seen = BitSet::new(layout.num_cells());
    let mut parity_writes: Vec<Cell> = Vec::new();
    for ordinal in ordinals {
        for &parity in table.renews(ordinal) {
            if seen.insert(parity.index(cols)) {
                parity_writes.push(parity);
            }
        }
    }
    parity_writes
}

/// Plans a write of an arbitrary set of data ordinals within one stripe —
/// the write-back cache's coalesced flush. Unlike [`plan_partial_write`]
/// the dirty set need not be contiguous: a stripe cache batches every
/// dirty element it holds for a stripe into one plan, so co-located dirty
/// elements share their parity writes (the HV shared-parity win).
///
/// Ordinals index [`Layout::data_cells`]; duplicates are collapsed and the
/// plan lists data writes in ascending ordinal order with parities in
/// first-touch order, exactly like the contiguous planner.
///
/// # Panics
///
/// Panics if `ordinals` is empty or any ordinal is out of range.
pub fn plan_batched_write(layout: &Layout, ordinals: &[usize]) -> WritePlan {
    assert!(!ordinals.is_empty(), "batched write needs at least one dirty element");
    let data = layout.data_cells();
    let mut sorted: Vec<usize> = ordinals.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert!(
        *sorted.last().unwrap() < data.len(),
        "ordinal {} exceeds {} data elements in stripe",
        sorted.last().unwrap(),
        data.len()
    );
    let data_writes: Vec<Cell> = sorted.iter().map(|&o| data[o]).collect();
    let parity_writes = distinct_parity_updates(layout, sorted);
    WritePlan { data_writes, parity_writes }
}

/// How a partial stripe write should source its parity updates.
///
/// * **Rmw** (read-modify-write): read old data + old parities, XOR deltas
///   in. Reads `L + |parities|` elements — cheapest for small writes.
/// * **Reconstruct**: read the *untouched* data of every affected chain and
///   recompute the parities from scratch — cheaper once a write covers
///   most of the chains it touches.
/// * **FullStripe**: the write covers every data element of the stripe; no
///   reads at all, parities are computed from the new data alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Read-modify-write.
    Rmw,
    /// Reconstruct-write.
    Reconstruct,
    /// Full-stripe write (no reads).
    FullStripe,
}

/// The read set a [`WritePlan`] needs under each strategy, and the cheaper
/// choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCost {
    /// Elements read by read-modify-write (old data + old parities).
    pub rmw_reads: Vec<Cell>,
    /// Elements read by reconstruct-write (untouched members of every
    /// affected chain).
    pub reconstruct_reads: Vec<Cell>,
    /// The mode with the fewest reads (`FullStripe` when zero).
    pub cheaper: WriteMode,
}

/// Computes both read strategies for a plan and picks the cheaper.
///
/// Ties go to RMW (it touches fewer chains' worth of buffer cache in a
/// real controller).
pub fn write_cost(layout: &Layout, plan: &WritePlan) -> WriteCost {
    // RMW: old values of everything we overwrite.
    let rmw_reads: Vec<Cell> =
        plan.data_writes.iter().chain(&plan.parity_writes).copied().collect();

    // Reconstruct: for every affected chain, the members we do NOT
    // overwrite (their current contents feed the recomputation). Members
    // that are parities being rewritten are themselves recomputed, so they
    // are not read either. One bitmap holds both "overwritten" and
    // "already listed": a member is read the first time it is in neither.
    let (table, cols) = (layout.write_table(), layout.cols());
    let mut settled = BitSet::new(layout.num_cells());
    for c in plan.data_writes.iter().chain(&plan.parity_writes) {
        settled.insert(c.index(cols));
    }
    let mut reconstruct_reads: Vec<Cell> = Vec::new();
    for &parity in &plan.parity_writes {
        let chain_id = layout.chain_of_parity(parity).expect("parity owns chain");
        for m in table.members(chain_id) {
            if settled.insert(m.index(cols)) {
                reconstruct_reads.push(*m);
            }
        }
    }

    let cheaper = if reconstruct_reads.is_empty() {
        WriteMode::FullStripe
    } else if reconstruct_reads.len() < rmw_reads.len() {
        WriteMode::Reconstruct
    } else {
        WriteMode::Rmw
    };
    WriteCost { rmw_reads, reconstruct_reads, cheaper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

    /// Two rows of: d d p(h). Plus a vertical parity column pairing the last
    /// data of row 0 with the first data of row 1 (HV-style adjacency).
    fn hv_like() -> Layout {
        let c = Cell::new;
        let d = ElementKind::Data;
        let h = ElementKind::Parity(ParityClass::Horizontal);
        let v = ElementKind::Parity(ParityClass::Vertical);
        let kinds = vec![d, d, h, v, d, d, h, v];
        let chains = vec![
            Chain { class: ParityClass::Horizontal, parity: c(0, 2), members: vec![c(0, 0), c(0, 1)] },
            Chain { class: ParityClass::Horizontal, parity: c(1, 2), members: vec![c(1, 0), c(1, 1)] },
            // vertical chain joining E[0,1] and E[1,0]
            Chain { class: ParityClass::Vertical, parity: c(0, 3), members: vec![c(0, 1), c(1, 0)] },
            Chain { class: ParityClass::Vertical, parity: c(1, 3), members: vec![c(0, 0), c(1, 1)] },
        ];
        Layout::new(2, 4, kinds, chains).unwrap()
    }

    #[test]
    fn single_element_write() {
        let l = hv_like();
        let plan = plan_partial_write(&l, 0, 1);
        assert_eq!(plan.data_writes, vec![Cell::new(0, 0)]);
        // d(0,0) is in horizontal chain row 0 and vertical chain 3.
        assert_eq!(plan.parity_writes.len(), 2);
        assert_eq!(plan.total_writes(), 3);
    }

    #[test]
    fn row_crossing_write_shares_vertical_parity() {
        let l = hv_like();
        // Data order: (0,0) (0,1) (1,0) (1,1). Write ordinals 1..3 — the
        // last element of row 0 and the first of row 1.
        let plan = plan_partial_write(&l, 1, 2);
        assert_eq!(plan.data_writes, vec![Cell::new(0, 1), Cell::new(1, 0)]);
        // Two horizontal parities + ONE shared vertical parity.
        assert_eq!(plan.parity_writes.len(), 3, "vertical parity must be shared");
        assert_eq!(plan.total_writes(), 5);
    }

    #[test]
    fn same_row_write_shares_horizontal_parity() {
        let l = hv_like();
        let plan = plan_partial_write(&l, 0, 2);
        // One shared horizontal parity + two distinct vertical parities.
        assert_eq!(plan.parity_writes.len(), 3);
    }

    #[test]
    fn ledger_and_trace() {
        let l = hv_like();
        let mut ledger = IoLedger::new(l.cols());
        let mut total = 0;
        for (start, len) in [(0, 2), (2, 2)] {
            let plan = plan_partial_write(&l, start, len);
            total += plan.total_writes();
            plan.record(&mut ledger);
        }
        assert_eq!(total, 10);
        assert_eq!(ledger.total_writes(), 10);
        assert_eq!(ledger.data_writes(), 4);
        assert_eq!(ledger.parity_writes(), 6);
        // All four disks touched.
        assert!(ledger.writes().iter().all(|&w| w > 0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflow_rejected() {
        plan_partial_write(&hv_like(), 3, 2);
    }

    #[test]
    fn batched_write_matches_contiguous_planner() {
        let l = hv_like();
        for start in 0..l.num_data_cells() {
            for len in 1..=l.num_data_cells() - start {
                let ordinals: Vec<usize> = (start..start + len).collect();
                assert_eq!(
                    plan_batched_write(&l, &ordinals),
                    plan_partial_write(&l, start, len)
                );
            }
        }
    }

    #[test]
    fn batched_write_shares_parities_across_gaps() {
        let l = hv_like();
        // Ordinals 0 and 3 are (0,0) and (1,1): different rows, different
        // horizontal parities, but the SAME vertical chain — one shared
        // vertical parity write instead of two.
        let plan = plan_batched_write(&l, &[3, 0, 0]);
        assert_eq!(plan.data_writes, vec![Cell::new(0, 0), Cell::new(1, 1)]);
        assert_eq!(plan.parity_writes.len(), 3, "vertical parity must be shared");
        // Coalesced cost strictly beats two separate single-element writes.
        let separate: usize = [0usize, 3]
            .iter()
            .map(|&o| plan_partial_write(&l, o, 1).total_writes())
            .sum();
        assert!(plan.total_writes() < separate);
    }

    #[test]
    fn batched_write_cost_composes_with_write_cost() {
        let l = long_chains();
        let plan = plan_batched_write(&l, &[0, 2, 4]);
        let cost = write_cost(&l, &plan);
        // RMW reads the 3 data + 2 parities; reconstruct reads the 2
        // untouched data cells.
        assert_eq!(cost.rmw_reads.len(), 5);
        assert_eq!(cost.reconstruct_reads.len(), 2);
        assert_eq!(cost.cheaper, WriteMode::Reconstruct);
    }

    #[test]
    #[should_panic(expected = "at least one dirty element")]
    fn batched_write_rejects_empty_set() {
        plan_batched_write(&hv_like(), &[]);
    }

    /// 1×7 layout with long chains: d0..d4, p = XOR(all), q = XOR(all).
    fn long_chains() -> Layout {
        let c = Cell::new;
        let mut kinds = vec![ElementKind::Data; 5];
        kinds.push(ElementKind::Parity(ParityClass::Horizontal));
        kinds.push(ElementKind::Parity(ParityClass::Diagonal));
        let members: Vec<Cell> = (0..5).map(|j| c(0, j)).collect();
        let chains = vec![
            Chain { class: ParityClass::Horizontal, parity: c(0, 5), members: members.clone() },
            Chain { class: ParityClass::Diagonal, parity: c(0, 6), members },
        ];
        Layout::new(1, 7, kinds, chains).unwrap()
    }

    #[test]
    fn small_write_on_long_chains_prefers_rmw() {
        let l = long_chains();
        let plan = plan_partial_write(&l, 0, 1);
        let cost = write_cost(&l, &plan);
        // RMW: the data cell + 2 parities = 3 reads; reconstruct: the 4
        // untouched data cells.
        assert_eq!(cost.rmw_reads.len(), 3);
        assert_eq!(cost.reconstruct_reads.len(), 4);
        assert_eq!(cost.cheaper, WriteMode::Rmw);
    }

    #[test]
    fn tiny_stripes_make_reconstruction_cheap() {
        // In the 2×4 fixture a single-element write touches chains with
        // only one untouched member each, so reconstruction reads less.
        let l = hv_like();
        let plan = plan_partial_write(&l, 0, 1);
        let cost = write_cost(&l, &plan);
        assert_eq!(cost.rmw_reads.len(), 3);
        assert_eq!(cost.reconstruct_reads.len(), 2);
        assert_eq!(cost.cheaper, WriteMode::Reconstruct);
    }

    #[test]
    fn full_stripe_write_needs_no_reads() {
        let l = hv_like();
        let plan = plan_partial_write(&l, 0, l.num_data_cells());
        let cost = write_cost(&l, &plan);
        assert_eq!(cost.cheaper, WriteMode::FullStripe);
        assert!(cost.reconstruct_reads.is_empty());
        assert_eq!(plan.parity_writes.len(), 4, "all parities rewritten");
    }

    #[test]
    fn reconstruct_wins_for_nearly_full_writes() {
        let l = hv_like();
        // 3 of 4 data elements: reconstruct reads just the 4th data cell;
        // RMW reads 3 data + 4 parities.
        let plan = plan_partial_write(&l, 0, 3);
        let cost = write_cost(&l, &plan);
        assert_eq!(cost.cheaper, WriteMode::Reconstruct);
        assert_eq!(cost.reconstruct_reads.len(), 1);
        assert_eq!(cost.rmw_reads.len(), 3 + plan.parity_writes.len());
    }
}
