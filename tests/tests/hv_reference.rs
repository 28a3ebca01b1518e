//! Cross-validation of HV Code's specialized paths against the generic
//! reference machinery — the "fast path must equal slow path" contract.

use std::collections::{BTreeSet, HashMap};

use hv_code::HvCode;
use integration::all_codes;
use raid_core::layout::ParityClass;
use raid_core::xplan::PlanCell;
use raid_core::{decoder, schedule, ArrayCode, Cell, Layout, Stripe, XorPlan};
use raid_math::prime::odd_primes_in;

#[test]
fn algorithm1_equals_generic_decoder_bytes() {
    for p in [5usize, 7, 11, 13, 17] {
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        let mut pristine = Stripe::for_layout(layout, 32);
        pristine.fill_data_seeded(layout, p as u64 * 7 + 1);
        code.encode(&mut pristine);
        let n = layout.cols();
        for f1 in 0..n {
            for f2 in (f1 + 1)..n {
                let mut via_alg1 = pristine.clone();
                via_alg1.erase_col(f1);
                via_alg1.erase_col(f2);
                code.repair_double_disk(&mut via_alg1, f1, f2).unwrap();

                let mut via_generic = pristine.clone();
                via_generic.erase_col(f1);
                via_generic.erase_col(f2);
                let mut lost = layout.cells_in_col(f1);
                lost.extend(layout.cells_in_col(f2));
                decoder::decode(&mut via_generic, layout, &lost).unwrap();

                assert_eq!(via_alg1, via_generic, "p={p} ({f1},{f2})");
                assert_eq!(via_alg1, pristine, "p={p} ({f1},{f2})");
            }
        }
    }
}

#[test]
fn algorithm1_parallelism_matches_scheduler() {
    for p in [5usize, 7, 11, 13] {
        let code = HvCode::new(p).unwrap();
        let n = code.layout().cols();
        for f1 in 0..n {
            for f2 in (f1 + 1)..n {
                let plan = code.double_recovery_plan(f1, f2).unwrap();
                let sched =
                    schedule::double_failure_schedule(code.layout(), f1, f2).unwrap();
                assert_eq!(plan.num_chains(), 4, "p={p} ({f1},{f2})");
                assert_eq!(sched.num_chains, 4, "p={p} ({f1},{f2})");
                assert_eq!(plan.longest_chain(), sched.longest_chain, "p={p} ({f1},{f2})");
                assert_eq!(plan.total_elements(), 2 * n, "p={p} ({f1},{f2})");
                // Algorithm 1's chains are the generic peel's, cell for
                // cell and in order; only the order of the four chains
                // differs (start elements vs peel discovery), so both
                // sides are sorted by their start cell.
                let mut alg1: Vec<Vec<Cell>> = plan
                    .chains()
                    .iter()
                    .map(|chain| chain.iter().map(|step| step.cell).collect())
                    .collect();
                let mut peel = sched.chains().expect("two-column peels are simple paths");
                alg1.sort();
                peel.sort();
                assert_eq!(alg1, peel, "p={p} ({f1},{f2})");
            }
        }
    }
}

/// The op dependency graph of `program`: an op depends on the op that
/// last wrote a buffer it reads. Returns its connected components, each
/// as the grid cells its ops produce in execution order, and its longest
/// path counted in grid cells (a scratch temp is a step inside a chain,
/// not an element of it).
fn op_components(program: &XorPlan) -> (Vec<Vec<Cell>>, usize) {
    let n = program.num_ops();
    let mut root: Vec<usize> = (0..n).collect();
    fn find(root: &mut [usize], mut i: usize) -> usize {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    }
    let (mut writer, mut depth) = (HashMap::new(), HashMap::new());
    let mut longest = 0;
    for (i, step) in program.step_views().enumerate() {
        let mut d = 0;
        for s in step.srcs {
            if let Some(&w) = writer.get(s) {
                let (a, b) = (find(&mut root, i), find(&mut root, w));
                root[a] = b;
                d = d.max(depth[s]);
            }
        }
        if let PlanCell::Grid(_) = program.plan_cell(step.dst) {
            d += 1;
            longest = longest.max(d);
        }
        writer.insert(step.dst, i);
        depth.insert(step.dst, d);
    }
    let mut components: Vec<Vec<Cell>> = Vec::new();
    let mut slot = HashMap::new();
    for (i, step) in program.step_views().enumerate() {
        let r = find(&mut root, i);
        let k = *slot.entry(r).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        if let PlanCell::Grid(cell) = program.plan_cell(step.dst) {
            components[k].push(cell);
        }
    }
    (components, longest)
}

/// The program a double rebuild runs, `Layout::column_program`, has Fig.
/// 9(b)'s structure: its longest path is the peel's `Lc` for every code,
/// and for every code but EVENODD its components are the peel's chains.
/// EVENODD is outside Fig. 9(b): its program shares its adjuster's XOR
/// subexpressions between cells the peel solves independently, and its
/// peel is not a union of paths, so components undercount its chains. For HV the
/// components are Algorithm 1's four chains, cell for cell.
#[test]
fn the_executed_double_rebuild_has_fig9b_chains() {
    for p in [5usize, 7, 13] {
        let hv = HvCode::new(p).unwrap();
        for code in all_codes(p) {
            let layout = code.layout();
            let n = layout.cols();
            let shares_subexpressions = code.name() == "EVENODD";
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let ctx = format!("{} p={p} ({f1},{f2})", code.name());
                    let program = layout.column_program(&[f1, f2]).unwrap();
                    let (mut components, longest) = op_components(&program);
                    let sched = schedule::double_failure_schedule(layout, f1, f2).unwrap();
                    assert_eq!(longest, sched.longest_chain, "{ctx}");
                    if !shares_subexpressions {
                        assert_eq!(components.len(), sched.num_chains, "{ctx}");
                    }
                    if code.name() != hv.name() {
                        continue;
                    }
                    // Both sides sorted by start cell, as above.
                    let mut alg1: Vec<Vec<Cell>> = hv
                        .double_recovery_plan(f1, f2)
                        .unwrap()
                        .chains()
                        .iter()
                        .map(|chain| chain.iter().map(|step| step.cell).collect())
                        .collect();
                    alg1.sort();
                    components.sort();
                    assert_eq!(components, alg1, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn eq5_eq6_agree_with_generic_single_cell_decode() {
    let code = HvCode::new(11).unwrap();
    let layout = code.layout();
    let mut stripe = Stripe::for_layout(layout, 16);
    stripe.fill_data_seeded(layout, 3);
    code.encode(&mut stripe);

    for &cell in layout.data_cells() {
        // Erase just this cell; both equations and the generic decoder must
        // reproduce it.
        let truth = stripe.element(cell).to_vec();

        let via_h = stripe.xor_of(code.repair_sources_horizontal(cell));
        let via_v = stripe.xor_of(code.repair_sources_vertical(cell));
        assert_eq!(via_h, truth, "Eq.5 at {cell}");
        assert_eq!(via_v, truth, "Eq.6 at {cell}");

        let mut broken = stripe.clone();
        broken.erase(cell);
        decoder::decode(&mut broken, layout, &[cell]).unwrap();
        assert_eq!(broken.element(cell), &truth[..], "generic at {cell}");
    }
}

#[test]
fn hv_is_mds_at_large_primes() {
    // Exhaustive two-column decodability beyond the paper's sweep — the
    // peeling check is cheap, so push to 30+-disk arrays.
    for p in [29usize, 37] {
        let code = HvCode::new(p).unwrap();
        assert_eq!(
            raid_core::invariants::find_undecodable_pair(code.layout()),
            None,
            "HV p={p} must be MDS"
        );
    }
}

#[test]
fn hv_supports_large_primes() {
    // A quick smoke test at the upper end of the paper's sweep and beyond.
    for p in [23usize, 29, 31] {
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        assert_eq!(layout.cols(), p - 1);
        let mut stripe = Stripe::for_layout(layout, 8);
        stripe.fill_data_seeded(layout, 1);
        code.encode(&mut stripe);
        let pristine = stripe.clone();
        stripe.erase_col(0);
        stripe.erase_col(p / 2);
        code.repair_double_disk(&mut stripe, 0, p / 2).unwrap();
        assert_eq!(stripe, pristine, "p={p}");
    }
}

/// A layout's chains as a set: each chain's class, parity and sorted
/// members.
fn chain_set(layout: &Layout) -> BTreeSet<(ParityClass, Cell, Vec<Cell>)> {
    layout
        .chains()
        .iter()
        .map(|ch| {
            let mut members = ch.members.clone();
            members.sort_unstable();
            (ch.class, ch.parity, members)
        })
        .collect()
}

/// Whether `map` — a cell map that yields `None` off the grid — is an
/// automorphism of `layout`: it keeps every cell on the grid and its
/// kind, and it sends the chain set onto itself.
fn is_automorphism(layout: &Layout, map: &dyn Fn(Cell) -> Option<Cell>) -> bool {
    let (rows, cols) = (layout.rows(), layout.cols());
    let on_grid = |c: Cell| map(c).filter(|m| m.row < rows && m.col < cols);
    let mut cells = (0..layout.num_cells()).map(|i| Cell::from_index(i, cols));
    if !cells.all(|c| on_grid(c).is_some_and(|m| layout.kind(m) == layout.kind(c))) {
        return false;
    }
    let image: Option<BTreeSet<_>> = chain_set(layout)
        .into_iter()
        .map(|(class, parity, members)| {
            let mut members: Vec<Cell> = members.into_iter().map(on_grid).collect::<Option<_>>()?;
            members.sort_unstable();
            Some((class, on_grid(parity)?, members))
        })
        .collect();
    image == Some(chain_set(layout))
}

/// (r, c) ↦ (u·r, u·c) mod p on 1-based indices: the action of u ∈ Z_p^*
/// behind HV's ⟨2i⟩ / ⟨4i⟩ parity placement.
fn scale(p: usize, u: usize) -> impl Fn(Cell) -> Option<Cell> {
    move |c: Cell| {
        let (r, c) = (u * (c.row + 1) % p, u * (c.col + 1) % p);
        (r > 0 && c > 0).then(|| Cell::new(r - 1, c - 1))
    }
}

/// The cyclic shift of every column by `s` on a `cols`-wide grid.
fn shift(cols: usize, s: usize) -> impl Fn(Cell) -> Option<Cell> {
    move |c: Cell| Some(Cell::new(c.row, (c.col + s) % cols))
}

/// The smallest generator of Z_p^*.
fn primitive_root(p: usize) -> usize {
    let mut factors = Vec::new();
    let (mut n, mut q) = (p - 1, 2);
    while n > 1 {
        if n % q == 0 {
            factors.push(q);
            while n % q == 0 {
                n /= q;
            }
        }
        q += 1;
    }
    let pow = |g: usize, mut e: usize| {
        let (mut acc, mut base) = (1, g % p);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base % p;
            }
            base = base * base % p;
            e >>= 1;
        }
        acc
    };
    (2..p).find(|&g| factors.iter().all(|&q| pow(g, (p - 1) / q) != 1)).expect("p is prime")
}

/// ROADMAP 10(a): balance as a theorem for every buildable p. For every
/// prime 5 ≤ p ≤ `MAX_P`, HV's and HDP's layouts are invariant under
/// Z_p^*'s generator acting on (row, column), and X-Code's under the
/// column shift by 1. Both groups are cyclic and act transitively on the
/// columns, so every column holds the same parities and costs the same to
/// rebuild — Table III's load balancing, for every p a volume can build.
/// RDP, EVENODD, H-Code and P-Code have no such map at p ∈ {5, 7, 11, 13}:
/// their balance claims are facts per p, not theorems.
#[test]
fn hv_hdp_and_xcode_are_symmetric_at_every_buildable_p() {
    for p in odd_primes_in(5, raid_verify::MAX_P).iter().map(|p| p.get()) {
        let u = primitive_root(p);
        for name in ["hv", "hdp"] {
            let code = raid_verify::build(name, p).unwrap();
            assert!(is_automorphism(code.layout(), &scale(p, u)), "{name} p={p} u={u}");
        }
        let xcode = raid_verify::build("xcode", p).unwrap();
        assert!(is_automorphism(xcode.layout(), &shift(p, 1)), "xcode p={p}");
    }
    for p in [5usize, 7, 11, 13] {
        let symmetric: Vec<String> = raid_verify::CODE_NAMES
            .iter()
            .filter_map(|&name| {
                let code = raid_verify::build(name, p).unwrap();
                let layout = code.layout();
                let scaled = (2..p).any(|u| is_automorphism(layout, &scale(p, u)));
                let cols = layout.cols();
                let shifted = (1..cols).any(|s| is_automorphism(layout, &shift(cols, s)));
                match (scaled, shifted) {
                    (false, false) => None,
                    _ => Some(format!("{name}: scale {scaled}, shift {shifted}")),
                }
            })
            .collect();
        assert_eq!(
            symmetric,
            [
                "hv: scale true, shift false",
                "xcode: scale false, shift true",
                "hdp: scale true, shift false",
            ],
            "p={p}"
        );
    }
}
