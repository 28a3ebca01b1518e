//! Cross-validation of HV Code's specialized paths against the generic
//! reference machinery — the "fast path must equal slow path" contract.

use hv_code::HvCode;
use raid_core::{decoder, schedule, ArrayCode, Cell, Stripe};

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
