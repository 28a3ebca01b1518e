//! Stripe buffers and chain-driven encoding.

use raid_math::xor::{is_zero, xor_gather_into, xor_into, xor_many_into};

use crate::geometry::Cell;
use crate::layout::Layout;

/// Source-slice batches at or below this size are gathered on the stack;
/// longer ones (EVENODD-style long chains at large `p`) fall back to a heap
/// gather. Covers every chain of every code in this workspace up to p ≈ 29.
const STACK_GATHER: usize = 32;

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
    /// Row-major; `None` is a cell a sparse stripe does not materialise.
    bufs: Vec<Option<Vec<u8>>>,
}

impl Stripe {
    /// Creates a zero-filled stripe.
    pub fn zeroed(rows: usize, cols: usize, element_size: usize) -> Self {
        Stripe { rows, cols, element_size, bufs: vec![Some(vec![0; element_size]); rows * cols] }
    }

    /// Creates a `rows × cols` stripe that materialises only `cells`
    /// (zero-filled; repeats are harmless). What an op that names its cells
    /// up front allocates instead of the whole grid.
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
        let mut bufs = vec![None; rows * cols];
        for cell in cells {
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
        match &mut self.bufs[idx] {
            Some(buf) => buf,
            None => absent(idx, self.cols),
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

    /// Moves `buf` in as the element at `cell`, with no copy: how a caller
    /// lends a scratch bytes it already owns instead of staging them in a
    /// zero-filled cell. [`Stripe::take_element`] moves it back out.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or already materialised, or if
    /// `buf` is not exactly `element_size` bytes.
    pub fn put_element(&mut self, cell: Cell, buf: Vec<u8>) {
        assert!(cell.row < self.rows && cell.col < self.cols, "{cell} out of bounds");
        assert_eq!(buf.len(), self.element_size, "element size mismatch at {cell}");
        let slot = &mut self.bufs[cell.index(self.cols)];
        assert!(slot.is_none(), "{cell} is already materialised");
        *slot = Some(buf);
    }

    /// Moves the element at `cell` out, with no copy, leaving the cell
    /// unmaterialised.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or not materialised.
    pub fn take_element(&mut self, cell: Cell) -> Vec<u8> {
        assert!(cell.row < self.rows && cell.col < self.cols, "{cell} out of bounds");
        self.take_buf(cell.index(self.cols))
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
            // Compute into a scratch buffer to keep the borrow checker happy.
            let mut acc = vec![0u8; self.element_size];
            for m in &chain.members {
                xor_into(&mut acc, self.element(*m));
            }
            self.set_element(chain.parity, &acc);
        }
    }

    /// Verifies every chain equation; returns the first violated chain's
    /// parity cell, or `None` if all parities are consistent.
    pub fn verify(&self, layout: &Layout) -> Option<Cell> {
        for chain in layout.chains() {
            let mut acc = self.element(chain.parity).to_vec();
            for m in &chain.members {
                xor_into(&mut acc, self.element(*m));
            }
            if !is_zero(&acc) {
                return Some(chain.parity);
            }
        }
        None
    }

    /// XOR of an arbitrary set of elements, returned as a fresh buffer —
    /// the decoder's workhorse.
    pub fn xor_of(&self, cells: impl IntoIterator<Item = Cell>) -> Vec<u8> {
        let mut acc = vec![0u8; self.element_size];
        for c in cells {
            xor_into(&mut acc, self.element(c));
        }
        acc
    }

    /// Allocation-free [`Stripe::xor_of`]: overwrites `out` with the XOR of
    /// `cells`, letting hot loops reuse one scratch buffer across elements.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `element_size` bytes or a cell is out of
    /// bounds.
    pub fn xor_of_into(&self, cells: impl IntoIterator<Item = Cell>, out: &mut [u8]) {
        assert_eq!(out.len(), self.element_size, "xor_of_into: scratch size mismatch");
        out.fill(0);
        let mut stack: [&[u8]; STACK_GATHER] = [&[]; STACK_GATHER];
        let mut n = 0;
        for c in cells {
            if n == STACK_GATHER {
                // Flush a full batch and keep gathering; order is
                // irrelevant for XOR.
                xor_many_into(out, &stack);
                n = 0;
            }
            stack[n] = self.element(c);
            n += 1;
        }
        xor_many_into(out, &stack[..n]);
    }

    /// Overwrites the buffer at linear index `dst` with the XOR of the
    /// buffers at `srcs` — the [`crate::xplan::XorPlan`] interpreter's one
    /// primitive. Single pass over every buffer including the target
    /// (which is written without being read); no allocation for plans
    /// whose steps stay at or below [`STACK_GATHER`] sources.
    pub(crate) fn apply_indexed_xor(&mut self, dst: usize, srcs: &[u32]) {
        debug_assert!(!srcs.iter().any(|&s| s as usize == dst), "op reads its own target");
        // Detach the target so the sources can be borrowed from `bufs`.
        let mut out = self.take_buf(dst);
        if srcs.len() <= STACK_GATHER {
            let mut stack: [&[u8]; STACK_GATHER] = [&[]; STACK_GATHER];
            for (slot, &s) in stack.iter_mut().zip(srcs) {
                *slot = self.buf(s as usize);
            }
            xor_gather_into(&mut out, &stack[..srcs.len()]);
        } else {
            let gathered: Vec<&[u8]> = srcs.iter().map(|&s| self.buf(s as usize)).collect();
            xor_gather_into(&mut out, &gathered);
        }
        self.put_buf(dst, out);
    }

    /// Detaches the buffer at linear index `idx` so tiled plan execution
    /// can borrow other buffers as sources while writing into it; pair
    /// with [`Stripe::put_buf`]. Panics if the cell is not materialised.
    pub(crate) fn take_buf(&mut self, idx: usize) -> Vec<u8> {
        self.bufs[idx].take().unwrap_or_else(|| absent(idx, self.cols))
    }

    /// Re-attaches a buffer detached by [`Stripe::take_buf`].
    pub(crate) fn put_buf(&mut self, idx: usize, buf: Vec<u8>) {
        self.bufs[idx] = Some(buf);
    }

    /// Borrows the buffer at linear index `idx` (tiled execution's source
    /// view; `element` requires a [`Cell`]). Panics if the cell is not
    /// materialised.
    pub(crate) fn buf(&self, idx: usize) -> &[u8] {
        match &self.bufs[idx] {
            Some(buf) => buf,
            None => absent(idx, self.cols),
        }
    }
}

/// The one panic every access to an unmaterialised cell ends in.
#[cold]
fn absent(idx: usize, cols: usize) -> ! {
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
        // With every cell named it is the dense stripe.
        let every = (0..6).map(|i| Cell::from_index(i, 3));
        assert_eq!(Stripe::sparse(2, 3, 4, every), Stripe::zeroed(2, 3, 4));
    }

    #[test]
    fn a_buffer_moved_in_and_out_keeps_its_allocation() {
        let c = Cell::new;
        let mut s = row_zero_only(4);
        let buf = vec![7u8; 4];
        let at = buf.as_ptr();
        s.put_element(c(1, 1), buf);
        assert_eq!(s.element(c(1, 1)), &[7; 4]);
        let back = s.take_element(c(1, 1));
        assert_eq!((back.as_ptr(), back), (at, vec![7; 4]));
        assert_eq!(s, row_zero_only(4), "the cell is unmaterialised again");
    }

    #[test]
    #[should_panic(expected = "E[0,1] is already materialised")]
    fn put_element_over_a_materialised_cell_panics() {
        row_zero_only(4).put_element(Cell::new(0, 1), vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "E[1,0] is not materialised")]
    fn take_element_of_an_absent_cell_panics() {
        row_zero_only(4).take_element(Cell::new(1, 0));
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
