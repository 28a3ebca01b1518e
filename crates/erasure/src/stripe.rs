//! Stripe buffers and chain-driven encoding.

use raid_math::xor::{is_zero, xor_gather_into};

use crate::geometry::Cell;
use crate::layout::Layout;

/// The element buffers of one stripe: a `rows × cols` grid of equally sized
/// byte buffers.
///
/// A `Stripe` knows nothing about which cells are data or parity — that is
/// the [`Layout`]'s business — it is pure storage plus XOR plumbing.
///
/// A stripe is *dense* ([`Stripe::zeroed`]: every cell has a buffer) or
/// *sparse* ([`Stripe::sparse`]: same indexing, only the named cells have
/// one). Every access to a cell a sparse stripe does not hold panics naming
/// the cell, in every build: an op that strays outside its declared
/// footprint must not compute on a silent empty slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stripe {
    rows: usize,
    cols: usize,
    element_size: usize,
    /// Row-major; `None` is a cell a sparse stripe does not materialise,
    /// and a sparse stripe of no cells has no table at all.
    bufs: Vec<Option<Vec<u8>>>,
}

impl Stripe {
    /// Creates a zero-filled stripe.
    pub fn zeroed(rows: usize, cols: usize, element_size: usize) -> Self {
        Stripe { rows, cols, element_size, bufs: vec![Some(vec![0; element_size]); rows * cols] }
    }

    /// Creates a `rows × cols` stripe that materialises only `cells`
    /// (zero-filled; repeats are harmless). What an op that names its cells
    /// up front allocates instead of the whole grid — and with no cells,
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of bounds.
    pub fn sparse(
        rows: usize,
        cols: usize,
        element_size: usize,
        cells: impl IntoIterator<Item = Cell>,
    ) -> Self {
        let mut bufs = Vec::new();
        for cell in cells {
            if bufs.is_empty() {
                bufs.resize(rows * cols, None);
            }
            assert!(cell.row < rows && cell.col < cols, "{cell} out of bounds");
            bufs[cell.index(cols)].get_or_insert_with(|| vec![0; element_size]);
        }
        Stripe { rows, cols, element_size, bufs }
    }

    /// Creates a stripe shaped for `layout`.
    pub fn for_layout(layout: &Layout, element_size: usize) -> Self {
        Stripe::zeroed(layout.rows(), layout.cols(), element_size)
    }

    /// Rows per disk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of disks.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Size of each element in bytes.
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// Read access to an element.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or not materialised.
    pub fn element(&self, cell: Cell) -> &[u8] {
        assert!(cell.row < self.rows && cell.col < self.cols, "{cell} out of bounds");
        self.buf(cell.index(self.cols))
    }

    /// Write access to an element.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or not materialised.
    pub fn element_mut(&mut self, cell: Cell) -> &mut [u8] {
        assert!(cell.row < self.rows && cell.col < self.cols, "{cell} out of bounds");
        let idx = cell.index(self.cols);
        match self.bufs.get_mut(idx) {
            Some(Some(buf)) => buf,
            _ => absent(idx, self.cols),
        }
    }

    /// Overwrites an element.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `element_size` bytes or `cell` is out
    /// of bounds or not materialised.
    pub fn set_element(&mut self, cell: Cell, data: &[u8]) {
        assert_eq!(data.len(), self.element_size, "element size mismatch at {cell}");
        self.element_mut(cell).copy_from_slice(data);
    }

    /// True if the stripe materialises `cell` (every in-bounds cell of a
    /// dense stripe; the named cells of a sparse one).
    pub fn holds(&self, cell: Cell) -> bool {
        let in_grid = cell.row < self.rows && cell.col < self.cols;
        in_grid && self.get_buf(cell.index(self.cols)).is_some()
    }

    /// Zeroes an element — how tests model an erased cell.
    pub fn erase(&mut self, cell: Cell) {
        self.element_mut(cell).fill(0);
    }

    /// Zeroes every element in a column — a failed disk.
    pub fn erase_col(&mut self, col: usize) {
        for row in 0..self.rows {
            self.erase(Cell::new(row, col));
        }
    }

    /// Fills every **data** cell of `layout` from a deterministic
    /// pseudo-random stream (parity cells left untouched).
    pub fn fill_data_seeded(&mut self, layout: &Layout, seed: u64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for &cell in layout.data_cells() {
            let buf = self.element_mut(cell);
            for chunk in buf.chunks_mut(8) {
                let word = next().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&word[..n]);
            }
        }
    }

    /// Recomputes every parity element from its chain: `parity = XOR(members)`.
    ///
    /// Chains are evaluated in dependency order: a chain whose members
    /// include another chain's parity (RDP, HDP) is computed after it.
    ///
    /// Runs the layout's cached [`crate::xplan::XorPlan`] — geometry is
    /// resolved once per layout, and the per-stripe work is pure plan
    /// interpretation with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the dependency graph between parities is cyclic (no valid
    /// RAID code produces this) or if the layout does not match the stripe
    /// shape.
    pub fn encode(&mut self, layout: &Layout) {
        assert_eq!(layout.rows(), self.rows, "layout/stripe row mismatch");
        assert_eq!(layout.cols(), self.cols, "layout/stripe col mismatch");
        layout.encode_plan().execute(self);
    }

    /// The seed implementation of [`Stripe::encode`]: walks chains and
    /// allocates a scratch buffer per parity element. Kept as the reference
    /// the compiled path is property-tested against.
    ///
    /// # Panics
    ///
    /// As for [`Stripe::encode`].
    pub fn encode_reference(&mut self, layout: &Layout) {
        assert_eq!(layout.rows(), self.rows, "layout/stripe row mismatch");
        assert_eq!(layout.cols(), self.cols, "layout/stripe col mismatch");
        let order = encode_order(layout);
        for id in order {
            let chain = &layout.chains()[id];
            let acc = self.xor_of(chain.members.iter().copied());
            self.set_element(chain.parity, &acc);
        }
    }

    /// Verifies every chain equation; returns the first violated chain's
    /// parity cell, or `None` if all parities are consistent. A chain holds
    /// when the XOR of its parity and members is zero.
    pub fn verify(&self, layout: &Layout) -> Option<Cell> {
        layout
            .chains()
            .iter()
            .find(|chain| !is_zero(&self.xor_of(chain.cells())))
            .map(|chain| chain.parity)
    }

    /// XOR of an arbitrary set of elements (zero for no cells), returned
    /// as a fresh buffer — the decoder's workhorse, and the one "XOR of a
    /// cell set" helper: one `xor_gather_into` over the cells' slices.
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of bounds.
    pub fn xor_of(&self, cells: impl IntoIterator<Item = Cell>) -> Vec<u8> {
        let mut acc = vec![0u8; self.element_size];
        let srcs: Vec<&[u8]> = cells.into_iter().map(|c| self.element(c)).collect();
        xor_gather_into(&mut acc, &srcs);
        acc
    }

    /// Detaches the buffer at linear index `idx` so tiled plan execution
    /// can borrow other buffers as sources while writing into it; pair
    /// with [`Stripe::put_buf`]. Panics if the cell is not materialised.
    pub(crate) fn take_buf(&mut self, idx: usize) -> Vec<u8> {
        self.bufs.get_mut(idx).and_then(Option::take).unwrap_or_else(|| absent(idx, self.cols))
    }

    /// Re-attaches a buffer detached by [`Stripe::take_buf`].
    pub(crate) fn put_buf(&mut self, idx: usize, buf: Vec<u8>) {
        self.bufs[idx] = Some(buf);
    }

    /// Borrows the buffer at linear index `idx`, if materialised (plan
    /// execution's source view; `element` requires a [`Cell`]).
    pub(crate) fn get_buf(&self, idx: usize) -> Option<&[u8]> {
        self.bufs.get(idx)?.as_deref()
    }

    /// Borrows the buffer at linear index `idx`. Panics if the cell is not
    /// materialised.
    fn buf(&self, idx: usize) -> &[u8] {
        self.get_buf(idx).unwrap_or_else(|| absent(idx, self.cols))
    }
}

/// The one panic every access to an unmaterialised cell ends in.
#[cold]
pub(crate) fn absent(idx: usize, cols: usize) -> ! {
    panic!("{} is not materialised in this sparse stripe", Cell::from_index(idx, cols))
}

/// Topologically orders chains so that any chain whose members include
/// another chain's parity cell is evaluated after that chain.
pub(crate) fn encode_order(layout: &Layout) -> Vec<usize> {
    let n = layout.chains().len();
    // dep[i] = chains that must run before chain i.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, chain) in layout.chains().iter().enumerate() {
        for m in &chain.members {
            if let Some(owner) = layout.chain_of_parity(*m) {
                deps[i].push(owner.0);
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = visiting, 2 = done
    // Iterative DFS for topological order.
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(&mut (node, ref mut di)) = stack.last_mut() {
            if *di < deps[node].len() {
                let dep = deps[node][*di];
                *di += 1;
                match state[dep] {
                    0 => {
                        state[dep] = 1;
                        stack.push((dep, 0));
                    }
                    1 => panic!("cyclic parity dependency involving chain {dep}"),
                    _ => {}
                }
            } else {
                state[node] = 2;
                order.push(node);
                stack.pop();
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Chain, ElementKind, ParityClass};

    fn row_parity_layout() -> Layout {
        // 2×3, parity in last column.
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

    /// A layout with a parity-of-parity dependency (like RDP's diagonal):
    /// q = d0 ^ p where p = d0 ^ d1.
    fn cascaded_layout() -> Layout {
        let kinds = vec![
            ElementKind::Data,
            ElementKind::Data,
            ElementKind::Parity(ParityClass::Horizontal),
            ElementKind::Parity(ParityClass::Diagonal),
        ];
        let chains = vec![
            // Deliberately listed q first to exercise the topo sort.
            Chain {
                class: ParityClass::Diagonal,
                parity: Cell::new(0, 3),
                members: vec![Cell::new(0, 0), Cell::new(0, 2)],
            },
            Chain {
                class: ParityClass::Horizontal,
                parity: Cell::new(0, 2),
                members: vec![Cell::new(0, 0), Cell::new(0, 1)],
            },
        ];
        Layout::new(1, 4, kinds, chains).unwrap()
    }

    #[test]
    fn encode_and_verify_row_parity() {
        let layout = row_parity_layout();
        let mut s = Stripe::for_layout(&layout, 16);
        s.fill_data_seeded(&layout, 42);
        assert!(s.verify(&layout).is_some(), "unencoded stripe must fail verify");
        s.encode(&layout);
        assert_eq!(s.verify(&layout), None);
        // P = D0 ^ D1 element-wise.
        let expect = s.xor_of([Cell::new(0, 0), Cell::new(0, 1)]);
        assert_eq!(s.element(Cell::new(0, 2)), &expect[..]);
    }

    #[test]
    fn encode_respects_parity_dependencies() {
        let layout = cascaded_layout();
        let mut s = Stripe::for_layout(&layout, 8);
        s.fill_data_seeded(&layout, 7);
        s.encode(&layout);
        assert_eq!(s.verify(&layout), None);
        // q must equal d0 ^ (d0 ^ d1) = d1.
        assert_eq!(s.element(Cell::new(0, 3)), s.element(Cell::new(0, 1)));
    }

    #[test]
    fn erase_and_erase_col() {
        let layout = row_parity_layout();
        let mut s = Stripe::for_layout(&layout, 4);
        s.fill_data_seeded(&layout, 1);
        s.encode(&layout);
        s.erase_col(0);
        assert!(raid_math::xor::is_zero(s.element(Cell::new(0, 0))));
        assert!(raid_math::xor::is_zero(s.element(Cell::new(1, 0))));
        assert!(s.verify(&layout).is_some());
    }

    #[test]
    fn fill_is_deterministic_per_seed() {
        let layout = row_parity_layout();
        let mut a = Stripe::for_layout(&layout, 32);
        let mut b = Stripe::for_layout(&layout, 32);
        a.fill_data_seeded(&layout, 5);
        b.fill_data_seeded(&layout, 5);
        assert_eq!(a, b);
        let mut c = Stripe::for_layout(&layout, 32);
        c.fill_data_seeded(&layout, 6);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "element size mismatch")]
    fn set_element_size_checked() {
        let layout = row_parity_layout();
        let mut s = Stripe::for_layout(&layout, 4);
        s.set_element(Cell::new(0, 0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn element_bounds_checked() {
        let s = Stripe::zeroed(2, 2, 4);
        s.element(Cell::new(2, 0));
    }

    /// A 2×3 stripe holding only row 0.
    fn row_zero_only(element_size: usize) -> Stripe {
        Stripe::sparse(2, 3, element_size, (0..3).map(|col| Cell::new(0, col)))
    }

    #[test]
    fn sparse_holds_exactly_the_named_cells() {
        let c = Cell::new;
        let mut s = Stripe::sparse(2, 3, 4, [c(0, 1), c(1, 2), c(0, 1)]);
        assert_eq!((s.rows(), s.cols(), s.element_size()), (2, 3, 4));
        s.set_element(c(1, 2), &[7; 4]);
        assert_eq!(s.element(c(1, 2)), &[7; 4]);
        assert_eq!(s.element(c(0, 1)), &[0; 4], "materialised cells start zeroed");
        assert!(s.holds(c(0, 1)) && !s.holds(c(0, 0)) && !s.holds(c(2, 0)));
        // With every cell named it is the dense stripe.
        let every = (0..6).map(|i| Cell::from_index(i, 3));
        assert_eq!(Stripe::sparse(2, 3, 4, every), Stripe::zeroed(2, 3, 4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sparse_bounds_checked() {
        Stripe::sparse(2, 3, 4, [Cell::new(0, 3)]);
    }

    #[test]
    #[should_panic(expected = "E[1,0] is not materialised")]
    fn element_of_an_absent_cell_panics() {
        row_zero_only(4).element(Cell::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "E[1,1] is not materialised")]
    fn element_mut_of_an_absent_cell_panics() {
        row_zero_only(4).element_mut(Cell::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "E[1,2] is not materialised")]
    fn set_element_of_an_absent_cell_panics() {
        row_zero_only(4).set_element(Cell::new(1, 2), &[0; 4]);
    }

    /// `XorPlan::execute` of `target = XOR(sources)` on [`row_zero_only`],
    /// through the flat and the tiled interpreter.
    fn execute_on_row_zero(target: Cell, sources: &[Cell]) {
        use raid_math::xor::L1_TILE_BYTES;
        let plan = crate::xplan::XorPlan::from_steps(2, 3, [(target, sources)]);
        for element_size in [4, L1_TILE_BYTES + 4] {
            let run = || plan.execute(&mut row_zero_only(element_size));
            let panic = std::panic::catch_unwind(run).expect_err("absent cell went unnoticed");
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains("E[1,1] is not materialised"), "{message}");
        }
    }

    #[test]
    fn plan_reading_an_absent_cell_panics() {
        execute_on_row_zero(Cell::new(0, 2), &[Cell::new(0, 0), Cell::new(1, 1)]);
    }

    #[test]
    fn plan_writing_an_absent_cell_panics() {
        execute_on_row_zero(Cell::new(1, 1), &[Cell::new(0, 0), Cell::new(0, 1)]);
    }
}
