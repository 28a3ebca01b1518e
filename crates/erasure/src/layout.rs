//! Stripe layouts: cell kinds and parity chains.
//!
//! A [`Layout`] is the complete combinatorial description of an array code's
//! stripe. Each parity cell is defined as the XOR of its chain's *members*;
//! members are usually data cells, but some codes chain parities into
//! parities (RDP's diagonal parity covers the row-parity column; HDP's
//! horizontal-diagonal parity covers the anti-diagonal parity in its row),
//! and the engine handles that uniformly.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

use crate::decoder::{plan_decode, DecodePlan, NotDecodableError};
use crate::geometry::Cell;
use crate::plan::single::{plan_single_disk_recovery, SearchStrategy};
use crate::plan::write::WriteTable;
use crate::xplan::XorPlan;

/// The family a parity chain belongs to.
///
/// The engine never interprets the class; it exists so planners and reports
/// can speak the paper's language ("recover via the horizontal chain").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParityClass {
    /// Row parity (RDP, EVENODD, H-Code) — the paper's "horizontal parity".
    Horizontal,
    /// HV Code / P-Code vertical parity.
    Vertical,
    /// Diagonal parity (RDP, EVENODD, X-Code).
    Diagonal,
    /// Anti-diagonal parity (X-Code, H-Code, HDP).
    AntiDiagonal,
    /// HDP's combined horizontal-diagonal parity.
    HorizontalDiagonal,
}

impl fmt::Display for ParityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParityClass::Horizontal => "horizontal",
            ParityClass::Vertical => "vertical",
            ParityClass::Diagonal => "diagonal",
            ParityClass::AntiDiagonal => "anti-diagonal",
            ParityClass::HorizontalDiagonal => "horizontal-diagonal",
        };
        f.write_str(s)
    }
}

/// What a cell stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Original user data.
    Data,
    /// Redundancy of the given class.
    Parity(ParityClass),
}

impl ElementKind {
    /// True for data cells.
    pub fn is_data(self) -> bool {
        matches!(self, ElementKind::Data)
    }
}

/// Identifier of a chain within its [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainId(pub usize);

/// A parity chain: `parity = XOR(members)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Chain family.
    pub class: ParityClass,
    /// The cell storing the XOR of `members`.
    pub parity: Cell,
    /// The cells XOR-ed together to form `parity`.
    pub members: Vec<Cell>,
}

impl Chain {
    /// Number of elements in the chain including the parity cell — the
    /// paper's "length of a parity chain".
    pub fn len(&self) -> usize {
        self.members.len() + 1
    }

    /// A chain always contains at least its parity element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over every cell of the chain equation (members + parity).
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.members.iter().copied().chain(std::iter::once(self.parity))
    }
}

/// Errors produced by [`Layout::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// `kinds` length does not match `rows × cols`.
    KindsShape {
        /// Expected number of cells.
        expected: usize,
        /// Provided number of kinds.
        got: usize,
    },
    /// A chain references a cell outside the grid.
    OutOfBounds(Cell),
    /// A chain's parity cell is not marked `Parity` in `kinds`.
    ParityKindMismatch(Cell),
    /// Two chains claim the same parity cell.
    DuplicateParity(Cell),
    /// A chain lists the same member twice, or its own parity as a member.
    MalformedChain(Cell),
    /// A parity cell owns no chain.
    OrphanParity(Cell),
    /// A data cell is not covered by any chain.
    UncoveredData(Cell),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::KindsShape { expected, got } => {
                write!(f, "kinds vector has {got} entries, expected {expected}")
            }
            LayoutError::OutOfBounds(c) => write!(f, "cell {c} is outside the stripe"),
            LayoutError::ParityKindMismatch(c) => {
                write!(f, "chain parity {c} is not marked as a parity cell")
            }
            LayoutError::DuplicateParity(c) => write!(f, "cell {c} owns more than one chain"),
            LayoutError::MalformedChain(c) => write!(f, "chain of {c} has duplicate members"),
            LayoutError::OrphanParity(c) => write!(f, "parity cell {c} owns no chain"),
            LayoutError::UncoveredData(c) => write!(f, "data cell {c} is in no chain"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// One lost column's §V-C minimum-read recovery, compiled (see
/// [`Layout::column_recovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRecovery {
    /// Every surviving cell the recovery reads, ascending.
    pub reads: Vec<Cell>,
    /// The optimized program rebuilding each lost cell from its chosen
    /// chain.
    pub plan: XorPlan,
}

/// The plans of one set of lost columns, each filled on first use.
#[derive(Debug, Clone, Default)]
struct ColumnPlans {
    decode: OnceLock<Result<DecodePlan, NotDecodableError>>,
    program: OnceLock<Result<XorPlan, NotDecodableError>>,
    recovery: OnceLock<ColumnRecovery>,
}

/// A cached plan lent out, or its cached error cloned.
fn cached<T: Clone>(
    entry: &Result<T, NotDecodableError>,
) -> Result<Cow<'_, T>, NotDecodableError> {
    entry.as_ref().map(Cow::Borrowed).map_err(Clone::clone)
}

/// The full combinatorial description of a stripe.
#[derive(Debug, Clone)]
pub struct Layout {
    rows: usize,
    cols: usize,
    kinds: Vec<ElementKind>,
    chains: Vec<Chain>,
    /// For each cell (linear index): chains in which it appears as a member.
    membership: Vec<Vec<ChainId>>,
    /// For each cell: the chain it is the parity of, if any.
    owner: Vec<Option<ChainId>>,
    /// Data cells in row-major order; the paper's "continuous data elements"
    /// order used for partial stripe writes.
    data_order: Vec<Cell>,
    /// Inverse of `data_order` (linear cell index → ordinal).
    data_ordinal: Vec<Option<usize>>,
    /// Lazily compiled full-parity plan (see [`Layout::encode_plan`]).
    encode_plan_cache: OnceLock<XorPlan>,
    /// Lazily filled plans per set of one or two lost columns, a
    /// triangular table (see [`Layout::column_decode`]).
    column_plans: OnceLock<Box<[ColumnPlans]>>,
    /// Lazily built write facts (see [`Layout::write_table`]).
    write_table: OnceLock<WriteTable>,
}

impl Layout {
    /// Validates and builds a layout.
    ///
    /// # Errors
    ///
    /// See [`LayoutError`]; every structural defect a code constructor could
    /// produce is rejected here, so downstream planners can assume a
    /// well-formed layout.
    pub fn new(
        rows: usize,
        cols: usize,
        kinds: Vec<ElementKind>,
        chains: Vec<Chain>,
    ) -> Result<Self, LayoutError> {
        let n = rows * cols;
        if kinds.len() != n {
            return Err(LayoutError::KindsShape { expected: n, got: kinds.len() });
        }
        let in_bounds = |c: Cell| c.row < rows && c.col < cols;

        let mut owner: Vec<Option<ChainId>> = vec![None; n];
        let mut membership: Vec<Vec<ChainId>> = vec![Vec::new(); n];

        for (i, chain) in chains.iter().enumerate() {
            let id = ChainId(i);
            if !in_bounds(chain.parity) {
                return Err(LayoutError::OutOfBounds(chain.parity));
            }
            if !matches!(kinds[chain.parity.index(cols)], ElementKind::Parity(_)) {
                return Err(LayoutError::ParityKindMismatch(chain.parity));
            }
            let slot = &mut owner[chain.parity.index(cols)];
            if slot.is_some() {
                return Err(LayoutError::DuplicateParity(chain.parity));
            }
            *slot = Some(id);

            let mut seen = HashSet::with_capacity(chain.members.len());
            for &m in &chain.members {
                if !in_bounds(m) {
                    return Err(LayoutError::OutOfBounds(m));
                }
                if m == chain.parity || !seen.insert(m) {
                    return Err(LayoutError::MalformedChain(chain.parity));
                }
                membership[m.index(cols)].push(id);
            }
        }

        let mut data_order = Vec::new();
        let mut data_ordinal = vec![None; n];
        for idx in 0..n {
            let cell = Cell::from_index(idx, cols);
            match kinds[idx] {
                ElementKind::Data => {
                    if membership[idx].is_empty() {
                        return Err(LayoutError::UncoveredData(cell));
                    }
                    data_ordinal[idx] = Some(data_order.len());
                    data_order.push(cell);
                }
                ElementKind::Parity(_) => {
                    if owner[idx].is_none() {
                        return Err(LayoutError::OrphanParity(cell));
                    }
                }
            }
        }

        Ok(Layout {
            rows,
            cols,
            kinds,
            chains,
            membership,
            owner,
            data_order,
            data_ordinal,
            encode_plan_cache: OnceLock::new(),
            column_plans: OnceLock::new(),
            write_table: OnceLock::new(),
        })
    }

    /// The compiled full-parity [`XorPlan`] for this layout, built on first
    /// use and cached — every stripe encoded through this layout shares one
    /// plan and performs no per-stripe geometry work.
    ///
    /// The cached plan is the cheaper (by source reads, then ops) of the
    /// optimized *expanded* specification — each parity as its data-only
    /// GF(2) expansion, with `xopt` rediscovering cascades and cross-chain
    /// sharing as shared partial sums — and the optimized *cascaded* chain
    /// form, so no layout can end up worse than its chain walk.
    pub fn encode_plan(&self) -> &XorPlan {
        self.encode_plan_cache.get_or_init(|| {
            let cascaded = XorPlan::compile_encode(self).optimized();
            let expanded = XorPlan::compile_encode_expanded(self).optimized();
            let cost = |p: &XorPlan| (p.num_source_reads(), p.num_ops());
            if cost(&expanded) < cost(&cascaded) {
                expanded
            } else {
                cascaded
            }
        })
    }

    /// The layout's [`WriteTable`] — the parities each data ordinal's write
    /// renews, each parity's chain members and dependency level — built on
    /// first use and cached like [`Layout::encode_plan`]. Every write
    /// planner and the volume's write lowering read it, so planning a
    /// stripe write is lookups, not a walk of the chains.
    ///
    /// # Panics
    ///
    /// Panics if the parities depend on each other in a cycle.
    pub fn write_table(&self) -> &WriteTable {
        self.write_table.get_or_init(|| WriteTable::build(self))
    }

    /// The plan rebuilding every cell of the lost columns `cols` —
    /// [`plan_decode`] over those cells.
    ///
    /// Whole-column plans are facts of the layout, cached like
    /// [`Layout::encode_plan`]: for one or two columns, in either order,
    /// the plan is built on first use and every later call — from any
    /// volume of this code — borrows it. The table behind it is allocated
    /// on the first such call and holds plans only for the column sets
    /// asked for. Keying by the *sorted* set is sound because
    /// `plan_decode` depends only on the set of lost cells, never on the
    /// order they are listed in. Any other number of columns is planned
    /// per call.
    ///
    /// # Errors
    ///
    /// [`NotDecodableError`] if the loss exceeds the code's capability.
    pub fn column_decode(
        &self,
        cols: &[usize],
    ) -> Result<Cow<'_, DecodePlan>, NotDecodableError> {
        let plan = || {
            let lost: Vec<Cell> = cols.iter().flat_map(|&col| self.cells_in_col(col)).collect();
            plan_decode(self, &lost)
        };
        match self.column_slot(cols) {
            Some(slot) => cached(slot.decode.get_or_init(plan)),
            None => plan().map(Cow::Owned),
        }
    }

    /// [`Layout::column_decode`] compiled and run through
    /// [`XorPlan::optimized`] — the program a rebuild or a degraded
    /// write's fetch executes — cached the same way.
    ///
    /// # Errors
    ///
    /// [`NotDecodableError`] if the loss exceeds the code's capability.
    pub fn column_program(&self, cols: &[usize]) -> Result<Cow<'_, XorPlan>, NotDecodableError> {
        let program = || {
            let plan = self.column_decode(cols)?;
            Ok(XorPlan::compile_decode(self, &plan).optimized())
        };
        match self.column_slot(cols) {
            Some(slot) => cached(slot.program.get_or_init(program)),
            None => program().map(Cow::Owned),
        }
    }

    /// The paper's hybrid minimum-read recovery of the single lost column
    /// `col` (§V-C): [`plan_single_disk_recovery`]'s reads and its chain
    /// choices compiled by [`XorPlan::compile_repairs`] and optimized,
    /// built on first use and cached like [`Layout::column_decode`].
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column_recovery(&self, col: usize) -> &ColumnRecovery {
        let Some(slot) = self.column_slot(&[col]) else {
            panic!("failed disk {col} out of range");
        };
        slot.recovery.get_or_init(|| {
            let plan = plan_single_disk_recovery(self, col, SearchStrategy::Auto);
            let program = XorPlan::compile_repairs(self, &plan.choices).optimized();
            ColumnRecovery { reads: plan.reads, plan: program }
        })
    }

    /// The cache slot of the column set `cols`: `{a}` and `{a, b}` with
    /// `a < b` live at `b(b + 1)/2 + a` of a triangular table over the
    /// columns; `None` for any other count or an out-of-range column.
    fn column_slot(&self, cols: &[usize]) -> Option<&ColumnPlans> {
        let (a, b) = match *cols {
            [a] => (a, a),
            [x, y] => (x.min(y), x.max(y)),
            _ => return None,
        };
        if b >= self.cols {
            return None;
        }
        let table = self.column_plans.get_or_init(|| {
            (0..self.cols * (self.cols + 1) / 2).map(|_| ColumnPlans::default()).collect()
        });
        Some(&table[b * (b + 1) / 2 + a])
    }

    /// Number of rows (elements per disk per stripe).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (disks).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// The kind stored at `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn kind(&self, cell: Cell) -> ElementKind {
        self.kinds[cell.index(self.cols)]
    }

    /// True if `cell` holds data.
    pub fn is_data(&self, cell: Cell) -> bool {
        self.kind(cell).is_data()
    }

    /// All chains.
    pub fn chains(&self) -> &[Chain] {
        &self.chains
    }

    /// The chain with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale (not from this layout).
    pub fn chain(&self, id: ChainId) -> &Chain {
        &self.chains[id.0]
    }

    /// Chains in which `cell` appears as a member (excludes the chain it may
    /// own as parity).
    pub fn chains_containing(&self, cell: Cell) -> &[ChainId] {
        &self.membership[cell.index(self.cols)]
    }

    /// The chain `cell` is the parity of, if any.
    pub fn chain_of_parity(&self, cell: Cell) -> Option<ChainId> {
        self.owner[cell.index(self.cols)]
    }

    /// Every chain whose equation involves `cell`, whether as member or
    /// parity. This is the set of equations invalidated when `cell` is lost.
    pub fn equations_of(&self, cell: Cell) -> Vec<ChainId> {
        let mut v = self.membership[cell.index(self.cols)].clone();
        if let Some(own) = self.owner[cell.index(self.cols)] {
            v.push(own);
        }
        v
    }

    /// Data cells in row-major order — the "continuous data elements" order
    /// of the paper's partial-stripe-write analysis.
    pub fn data_cells(&self) -> &[Cell] {
        &self.data_order
    }

    /// Number of data cells.
    pub fn num_data_cells(&self) -> usize {
        self.data_order.len()
    }

    /// The ordinal of a data cell in [`Layout::data_cells`] order, or `None`
    /// for parity cells.
    pub fn data_ordinal(&self, cell: Cell) -> Option<usize> {
        self.data_ordinal[cell.index(self.cols)]
    }

    /// All cells of a column, top to bottom.
    pub fn cells_in_col(&self, col: usize) -> Vec<Cell> {
        (0..self.rows).map(|r| Cell::new(r, col)).collect()
    }

    /// Parity cells of a column.
    pub fn parities_in_col(&self, col: usize) -> Vec<Cell> {
        self.cells_in_col(col)
            .into_iter()
            .filter(|&c| !self.is_data(c))
            .collect()
    }

    /// Renders the stripe as an ASCII grid, one row per line: `.` for data,
    /// `H`/`V`/`D`/`A`/`X` for horizontal / vertical / diagonal /
    /// anti-diagonal / horizontal-diagonal parity. Used by the examples and
    /// by each code's golden-layout tests, which pin the constructions
    /// against accidental change.
    ///
    /// ```
    /// # use raid_core::layout::{Layout, Chain, ElementKind, ParityClass};
    /// # use raid_core::Cell;
    /// let kinds = vec![
    ///     ElementKind::Data,
    ///     ElementKind::Parity(ParityClass::Horizontal),
    /// ];
    /// let chains = vec![Chain {
    ///     class: ParityClass::Horizontal,
    ///     parity: Cell::new(0, 1),
    ///     members: vec![Cell::new(0, 0)],
    /// }];
    /// let layout = Layout::new(1, 2, kinds, chains)?;
    /// assert_eq!(layout.render_ascii(), ".H\n");
    /// # Ok::<(), raid_core::layout::LayoutError>(())
    /// ```
    pub fn render_ascii(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let ch = match self.kind(Cell::new(r, c)) {
                    ElementKind::Data => '.',
                    ElementKind::Parity(ParityClass::Horizontal) => 'H',
                    ElementKind::Parity(ParityClass::Vertical) => 'V',
                    ElementKind::Parity(ParityClass::Diagonal) => 'D',
                    ElementKind::Parity(ParityClass::AntiDiagonal) => 'A',
                    ElementKind::Parity(ParityClass::HorizontalDiagonal) => 'X',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }

    /// Histogram of chain lengths, `(length, count)` sorted by length —
    /// the "parity chain length" column of the paper's Table III.
    pub fn chain_length_histogram(&self) -> Vec<(usize, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for ch in &self.chains {
            *map.entry(ch.len()).or_insert(0usize) += 1;
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 2×3 layout: one row-parity per row in the last column.
    fn toy() -> Layout {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
        ];
        let chains = vec![
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(0, 2),
                members: vec![Cell::new(0, 0), Cell::new(0, 1)],
            },
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(1, 2),
                members: vec![Cell::new(1, 0), Cell::new(1, 1)],
            },
        ];
        Layout::new(2, 3, kinds, chains).unwrap()
    }

    #[test]
    fn toy_layout_queries() {
        let l = toy();
        assert_eq!(l.rows(), 2);
        assert_eq!(l.cols(), 3);
        assert_eq!(l.num_data_cells(), 4);
        assert!(l.is_data(Cell::new(0, 0)));
        assert!(!l.is_data(Cell::new(0, 2)));
        assert_eq!(l.chains_containing(Cell::new(0, 0)), &[ChainId(0)]);
        assert_eq!(l.chain_of_parity(Cell::new(1, 2)), Some(ChainId(1)));
        assert_eq!(l.data_ordinal(Cell::new(1, 0)), Some(2));
        assert_eq!(l.data_cells()[3], Cell::new(1, 1));
        assert_eq!(l.chain_length_histogram(), vec![(3, 2)]);
        assert_eq!(l.parities_in_col(2).len(), 2);
        assert_eq!(l.equations_of(Cell::new(0, 2)), vec![ChainId(0)]);
    }

    #[test]
    fn column_plans_are_built_once_per_column_set() {
        let l = toy();
        let (Ok(Cow::Borrowed(first)), Ok(Cow::Borrowed(again))) =
            (l.column_decode(&[0]), l.column_decode(&[0]))
        else {
            panic!("a single column's decode is not cached");
        };
        assert!(std::ptr::eq(first, again));
        assert!(std::ptr::eq(l.column_recovery(1), l.column_recovery(1)));
        assert!(matches!(l.column_program(&[2]), Ok(Cow::Borrowed(_))));
        // Two lost cells of one row are beyond a row parity: the error is
        // cached too, whichever order the columns come in.
        assert!(l.column_decode(&[0, 1]).is_err() && l.column_program(&[1, 0]).is_err());
        // Other counts are planned per call.
        assert!(matches!(l.column_decode(&[]), Ok(Cow::Owned(p)) if p.steps.is_empty()));
        assert!(l.column_program(&[0, 1, 2]).is_err());
    }

    #[test]
    fn write_table_is_built_once_per_layout() {
        let l = toy();
        assert!(std::ptr::eq(l.write_table(), l.write_table()));
        let table = l.write_table();
        assert_eq!((table.ordinals(), table.parities(), table.depth()), (4, 2, 0));
        assert_eq!(table.renews(2), &[Cell::new(1, 2)]);
        assert_eq!(table.members(ChainId(0)), &[Cell::new(0, 0), Cell::new(0, 1)]);
        // A clone carries the built table with it.
        let copy = l.clone();
        assert_eq!(copy.write_table(), table);
    }

    #[test]
    fn rejects_wrong_kind_count() {
        let err = Layout::new(2, 2, vec![ElementKind::Data; 3], vec![]).unwrap_err();
        assert!(matches!(err, LayoutError::KindsShape { expected: 4, got: 3 }));
    }

    #[test]
    fn rejects_parity_kind_mismatch() {
        let kinds = vec![ElementKind::Data; 4];
        let chains = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(0, 0)],
        }];
        let err = Layout::new(2, 2, kinds, chains).unwrap_err();
        assert!(matches!(err, LayoutError::ParityKindMismatch(_)));
    }

    #[test]
    fn rejects_uncovered_data() {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Data,
            ElementKind::Data,
        ];
        let chains = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(0, 0)],
        }];
        let err = Layout::new(2, 2, kinds, chains).unwrap_err();
        assert!(matches!(err, LayoutError::UncoveredData(_)));
    }

    #[test]
    fn rejects_orphan_parity() {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
        ];
        let chains = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(0, 0), Cell::new(1, 0)],
        }];
        let err = Layout::new(2, 2, kinds, chains).unwrap_err();
        assert!(matches!(err, LayoutError::OrphanParity(_)));
    }

    #[test]
    fn rejects_duplicate_member_and_self_member() {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
        ];
        let dup = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(0, 0), Cell::new(0, 0)],
        }];
        assert!(matches!(
            Layout::new(1, 2, kinds.clone(), dup).unwrap_err(),
            LayoutError::MalformedChain(_)
        ));
        let selfm = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(0, 1)],
        }];
        assert!(matches!(
            Layout::new(1, 2, kinds, selfm).unwrap_err(),
            LayoutError::MalformedChain(_)
        ));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
        ];
        let chains = vec![Chain {
            class: ParityClass::Horizontal,
            parity: Cell::new(0, 1),
            members: vec![Cell::new(5, 0)],
        }];
        assert!(matches!(
            Layout::new(1, 2, kinds, chains).unwrap_err(),
            LayoutError::OutOfBounds(_)
        ));
    }
}
