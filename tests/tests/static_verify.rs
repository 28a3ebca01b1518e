//! Tier-1 gate for the static analyzer: every registered code must carry a
//! symbolic proof at every default prime, deliberately corrupted plans must
//! be rejected with the offending equation, the symbolic semantics must
//! agree with the runtime interpreter byte-for-byte, and the `LoweredOp`
//! audit must agree with the pipeline's actual accounting.

use proptest::prelude::*;

use integration::all_codes;
use raid_array::audit::{audit_lowered, predicted_request_set, AuditError};
use raid_array::{LoweredOp, MemBackend};
use raid_core::{decoder, ArrayCode, Cell, Stripe, XorPlan};
use raid_verify::plan_check::{prove_mds, verify_decode, verify_encode, PlanError};
use raid_verify::symbolic::SymState;

/// The headline acceptance check: every registered code × p ∈ {5, 7, 11,
/// 13, 17} verifies — encode plans proven, MDS proven exhaustively, paper
/// tables matched where on file.
#[test]
fn check_all_registered_codes_at_default_primes() {
    let reports = raid_verify::check_all()
        .unwrap_or_else(|(code, p, e)| panic!("{code} at p={p} failed static verify: {e}"));
    assert_eq!(
        reports.len(),
        raid_verify::CODE_NAMES.len() * raid_verify::DEFAULT_PRIMES.len()
    );
    for r in &reports {
        // Every code proved every single- and double-disk pattern.
        assert_eq!(r.mds_singles, r.metrics.disks, "{} p={}", r.code, r.p);
        assert_eq!(
            r.mds_pairs,
            r.metrics.disks * (r.metrics.disks - 1) / 2,
            "{} p={}",
            r.code,
            r.p
        );
    }
}

/// Acceptance criterion: a deliberately corrupted plan — one op's source
/// list mutated — is rejected, and the failure prints the offending
/// symbolic equation (not just a boolean).
#[test]
fn corrupted_encode_plan_is_rejected_with_the_equation() {
    let code = hv_code::HvCode::new(7).unwrap();
    let layout = code.layout();

    // Rebuild the real encode plan with the first op's source list
    // truncated by one cell.
    let mut steps: Vec<(Cell, Vec<Cell>)> = layout.encode_plan().steps().collect();
    steps[0].1.pop();
    let corrupted = XorPlan::from_steps(
        layout.rows(),
        layout.cols(),
        steps.iter().map(|(t, s)| (*t, s.as_slice())),
    );

    let err = verify_encode(layout, &corrupted).unwrap_err();
    assert!(matches!(err, PlanError::WrongEquation { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("E["), "no symbolic equation in: {msg}");
    assert!(msg.contains('⊕'), "no XOR chain in: {msg}");
    assert!(msg.contains("requires"), "no expected side in: {msg}");

    // The pristine plan still proves out.
    verify_encode(layout, layout.encode_plan()).unwrap();
}

/// Same for decode: swapping one source in a real reconstruction plan must
/// surface as a wrong (or garbage-contaminated) equation on a lost cell.
#[test]
fn corrupted_decode_plan_is_rejected() {
    let code = hv_code::HvCode::new(7).unwrap();
    let layout = code.layout();
    let lost: Vec<Cell> = layout
        .cells_in_col(0)
        .into_iter()
        .chain(layout.cells_in_col(1))
        .collect();
    let plan = decoder::plan_decode(layout, &lost).unwrap();
    let good = XorPlan::compile_decode(layout, &plan);
    verify_decode(layout, &lost, &good).unwrap();

    let mut steps: Vec<(Cell, Vec<Cell>)> = good.steps().collect();
    // Replace the first step's first source with a different surviving
    // cell (one not already in the list, and not the target).
    let target = steps[0].0;
    let replacement = (0..layout.num_cells())
        .map(|i| Cell::from_index(i, layout.cols()))
        .find(|c| *c != target && !lost.contains(c) && !steps[0].1.contains(c))
        .expect("some unused survivor");
    steps[0].1[0] = replacement;
    let corrupted = XorPlan::from_steps(
        layout.rows(),
        layout.cols(),
        steps.iter().map(|(t, s)| (*t, s.as_slice())),
    );

    let err = verify_decode(layout, &lost, &corrupted).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, PlanError::WrongEquation { .. } | PlanError::GarbageResidue { .. }),
        "{msg}"
    );
    assert!(msg.contains("E["), "no symbolic equation in: {msg}");
}

/// `prove_mds` must reject a layout that genuinely is not MDS (single
/// parity cannot survive double erasure), exercising the negative path of
/// the exhaustive sweep on a real `Layout`.
#[test]
fn prove_mds_rejects_a_raid5_layout() {
    use raid_core::layout::{Chain, ElementKind, Layout, ParityClass};
    let c = Cell::new;
    let kinds = vec![
        ElementKind::Data,
        ElementKind::Data,
        ElementKind::Data,
        ElementKind::Parity(ParityClass::Horizontal),
    ];
    let chains = vec![Chain {
        class: ParityClass::Horizontal,
        parity: c(0, 3),
        members: vec![c(0, 0), c(0, 1), c(0, 2)],
    }];
    let layout = Layout::new(1, 4, kinds, chains).unwrap();
    let err = prove_mds(&layout).unwrap_err();
    assert!(matches!(err, PlanError::NotDecodable { .. }), "{err}");
}

/// The `LoweredOp` auditor and the pipeline must agree: the request set the
/// pipeline commits equals the statically predicted one, and a structurally
/// broken op is refused (panic) before it can touch the backend.
#[test]
fn pipeline_agrees_with_static_audit() {
    use raid_array::IoPipeline;

    let mut pipe = IoPipeline::new(Box::new(MemBackend::new(3, 1, 8)));
    pipe.backend_mut().write(0, 0, &[7u8; 8]).unwrap();
    pipe.backend_mut().write(1, 0, &[9u8; 8]).unwrap();

    let c = Cell::new;
    let a = |disk, index| raid_array::DiskAddr { disk, index };
    let op = LoweredOp {
        reads: vec![(c(0, 0), a(0, 0)), (c(0, 1), a(1, 0))],
        plan: Some(XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())])),
        data_writes: vec![],
        parity_writes: vec![(c(0, 2), a(2, 0))],
    };
    audit_lowered(&op, 1, 3, 3, Some(&[])).unwrap();

    let mut scratch = Stripe::zeroed(1, 3, 8);
    let committed = pipe.execute(&op, &mut scratch).unwrap();
    assert_eq!(committed, predicted_request_set(&op, 3));

    // A read landing outside the scratch is caught by the audit...
    let broken = LoweredOp::read_only(vec![(c(4, 0), a(0, 0))]);
    assert!(matches!(
        audit_lowered(&broken, 1, 3, 3, None),
        Err(AuditError::CellOutOfScratch { .. })
    ));
    // ...and (in debug builds) the pipeline refuses to execute it.
    #[cfg(debug_assertions)]
    {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = Stripe::zeroed(1, 3, 8);
            let _ = pipe.execute(&broken, &mut scratch);
        }));
        assert!(result.is_err(), "pipeline executed an op that failed its audit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pins the symbolic semantics to the runtime interpreter: for every
    /// code, executing the real encode plan over a random stripe must
    /// land every cell exactly on the bytes the symbolic state predicts.
    #[test]
    fn symbolic_prediction_matches_encode_execution(
        p in prop::sample::select(vec![5usize, 7, 11]),
        code_idx in 0usize..7,
        seed in any::<u64>(),
    ) {
        let code = &all_codes(p)[code_idx];
        let layout = code.layout();
        let plan = layout.encode_plan();

        let mut sym = SymState::identity(layout.rows(), layout.cols());
        sym.execute(plan).unwrap();

        let mut initial = Stripe::for_layout(layout, 16);
        initial.fill_data_seeded(layout, seed);
        let mut actual = initial.clone();
        plan.execute(&mut actual);

        for i in 0..layout.num_cells() {
            let cell = Cell::from_index(i, layout.cols());
            prop_assert_eq!(
                sym.predict_bytes(cell, &initial),
                actual.element(cell).to_vec(),
                "{} p={p}: {} diverged", code.name(), cell
            );
        }
    }

    /// Same pin for decode plans: erase two random columns, run the real
    /// compiled reconstruction, and compare against the symbolic
    /// prediction over the erased (zeroed) stripe.
    #[test]
    fn symbolic_prediction_matches_decode_execution(
        p in prop::sample::select(vec![5usize, 7]),
        code_idx in 0usize..7,
        seed in any::<u64>(),
        cols in (0usize..64, 0usize..64),
    ) {
        let code = &all_codes(p)[code_idx];
        let layout = code.layout();
        let n = layout.cols();
        let f1 = cols.0 % n;
        let f2 = cols.1 % n;

        let mut lost: Vec<Cell> = layout.cells_in_col(f1);
        if f2 != f1 {
            lost.extend(layout.cells_in_col(f2));
        }
        let plan = decoder::plan_decode(layout, &lost).unwrap();
        let compiled = XorPlan::compile_decode(layout, &plan);
        verify_decode(layout, &lost, &compiled).unwrap();

        let mut pristine = Stripe::for_layout(layout, 16);
        pristine.fill_data_seeded(layout, seed);
        code.encode(&mut pristine);
        let mut erased = pristine.clone();
        for &c in &lost {
            erased.erase(c);
        }

        // Symbolic state over the erased stripe: `predict_bytes` treats
        // garbage vectors as zero, matching `Stripe::erase`.
        let mut sym = SymState::identity(layout.rows(), layout.cols());
        sym.execute(&compiled).unwrap();

        let mut actual = erased.clone();
        compiled.execute(&mut actual);
        prop_assert_eq!(&actual, &pristine, "{} p={p} decode wrong", code.name());

        for i in 0..layout.num_cells() {
            let cell = Cell::from_index(i, layout.cols());
            prop_assert_eq!(
                sym.predict_bytes(cell, &erased),
                actual.element(cell).to_vec(),
                "{} p={p}: {} diverged", code.name(), cell
            );
        }
    }
}
