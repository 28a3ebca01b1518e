//! The optimizer's end-to-end contract, on bytes: for every registered
//! code, an optimized plan — encode or double-erasure decode — produces
//! exactly the stripe the unoptimized plan produces, the optimizer never
//! increases a plan's source reads, and the independent symbolic prover
//! in raid-verify certifies every pair this suite executes.

use proptest::prelude::*;

use std::sync::Arc;

use hv_code::HvCode;
use integration::all_codes;
use raid_array::{lower, DiskAddr};
use raid_baselines::{HCode, HdpCode, PCode, RdpCode, XCode};
use raid_core::plan::degraded::{plan_degraded_read, plan_degraded_read_multi};
use raid_core::plan::single::plan_single_disk_recovery;
use raid_core::{decoder, ArrayCode, Cell, Stripe, XorPlan};
use raid_math::xor::L1_TILE_BYTES;
use raid_verify::plan_check::prove_equivalent;

fn verify_prime() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![5usize, 7, 13, 17])
}

/// Erase `cols` entirely and rebuild through the compiled, optimized
/// decode plan; returns false if the pattern is not decodable (never the
/// case for the column pairs this suite drives).
fn rebuild_through_optimized(
    stripe: &mut Stripe,
    layout: &raid_core::Layout,
    cols: &[usize],
) -> (XorPlan, XorPlan) {
    let lost: Vec<Cell> = cols
        .iter()
        .flat_map(|&c| (0..layout.rows()).map(move |r| Cell::new(r, c)))
        .collect();
    for &cell in &lost {
        stripe.erase(cell);
    }
    let plan = decoder::plan_decode(layout, &lost).expect("<= 2 lost columns is decodable");
    let compiled = XorPlan::compile_decode(layout, &plan);
    let optimized = compiled.optimized();
    optimized.execute(stripe);
    (compiled, optimized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Optimized encode == reference encode, byte for byte, for every
    /// code at every verification prime — both plan forms the layout
    /// cache chooses between, plus the cached winner itself.
    #[test]
    fn optimized_encode_matches_reference_bytes(
        p in verify_prime(),
        seed in any::<u64>(),
        element in prop::sample::select(vec![1usize, 16, 64, 129]),
    ) {
        for code in all_codes(p) {
            let layout = code.layout();
            let mut reference = Stripe::for_layout(layout, element);
            reference.fill_data_seeded(layout, seed);
            let dirty = reference.clone();
            reference.encode_reference(layout);

            for plan in [
                XorPlan::compile_encode(layout).optimized(),
                XorPlan::compile_encode_expanded(layout).optimized(),
                layout.encode_plan().clone(),
            ] {
                let mut got = dirty.clone();
                plan.execute(&mut got);
                prop_assert_eq!(&got, &reference, "{} at p = {}", code.name(), p);
            }
        }
    }

    /// Every single- and double-column erasure rebuilt through the
    /// optimized compiled decode plan restores the original stripe, and
    /// the symbolic prover certifies the optimized plan against the
    /// unoptimized compile it came from.
    #[test]
    fn optimized_decode_recovers_erased_columns(
        p in verify_prime(),
        seed in any::<u64>(),
        lost in prop::sample::select(vec![(0usize, 1usize), (0, 2), (1, 3), (2, 4)]),
    ) {
        for code in all_codes(p) {
            let layout = code.layout();
            let disks = layout.cols();
            let (a, b) = (lost.0 % disks, lost.1 % disks);
            let cols: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };

            let mut original = Stripe::for_layout(layout, 24);
            original.fill_data_seeded(layout, seed);
            original.encode(layout);

            let mut wounded = original.clone();
            let (compiled, optimized) =
                rebuild_through_optimized(&mut wounded, layout, &cols);
            prop_assert_eq!(
                &wounded, &original,
                "{} at p = {} lost cols {:?}", code.name(), p, &cols
            );

            let proof = prove_equivalent(&compiled, &optimized)
                .map_err(|e| TestCaseError::fail(
                    format!("{} at p = {} lost {:?}: {e}", code.name(), p, &cols),
                ))?;
            prop_assert!(
                proof.reads_after <= proof.reads_before,
                "{} at p = {}: optimizer raised decode reads {} -> {}",
                code.name(), p, proof.reads_before, proof.reads_after
            );
        }
    }
}

/// The optimizer never increases `num_source_reads`, for either encode
/// form of every code at every verification prime — the monotonicity the
/// `layout.encode_plan()` best-of cache and the lint gate both rely on.
#[test]
fn optimizer_never_increases_source_reads() {
    for p in [5usize, 7, 13, 17] {
        for code in all_codes(p) {
            let layout = code.layout();
            for (form, plan) in [
                ("cascaded", XorPlan::compile_encode(layout)),
                ("expanded", XorPlan::compile_encode_expanded(layout)),
            ] {
                let optimized = plan.optimized();
                assert!(
                    optimized.num_source_reads() <= plan.num_source_reads(),
                    "{} at p = {p}: {form} encode reads {} -> {}",
                    code.name(),
                    plan.num_source_reads(),
                    optimized.num_source_reads()
                );
                prove_equivalent(&plan, &optimized).unwrap_or_else(|e| {
                    panic!("{} at p = {p}: {form} optimize unproven: {e}", code.name())
                });
            }
        }
    }
}

/// A finding, pinned as a count: over HV p = 13, failed column 3 and
/// failed columns {3, 7}, L ∈ {1, 5, 10, 15}, every in-stripe start, the
/// optimiser removes not one XOR source read from a degraded-read plan:
/// each lost element is rebuilt from one chain, and chains share no
/// partial sum worth a temp. So `lower::read_op` compiles a two-column
/// read's slice and runs it as it is. The single-column branch is the one
/// place the per-request pass still runs — 17 µs for nothing — and stays
/// until the benchmark's op log is bounded (DESIGN §8 "Still open"); its
/// plan must still equal `optimized()`. A rewrite that does start saving
/// reads here fails this test and gets to delete it.
#[test]
fn optimizer_saves_nothing_on_hv_degraded_read_plans() {
    let code = all_codes(13).remove(0);
    let layout = code.layout();
    let (rows, cols) = (layout.rows(), layout.cols());
    let addr = |c: Cell| DiskAddr { disk: c.col, index: c.row };
    let (mut plans, mut before, mut after) = (0usize, 0usize, 0usize);
    for failed in [&[3usize][..], &[3, 7]] {
        for len in [1usize, 5, 10, 15] {
            for requested in layout.data_cells().windows(len) {
                if !requested.iter().any(|c| failed.contains(&c.col)) {
                    continue; // a plain fetch: no plan to optimise
                }
                let sources: Vec<(Cell, Vec<Cell>)> = match failed {
                    [col] => plan_degraded_read(layout, *col, requested)
                        .repairs
                        .iter()
                        .map(|&(cell, id)| (cell, layout.chain(id).cells().filter(|&c| c != cell).collect()))
                        .collect(),
                    _ => plan_degraded_read_multi(layout, failed, requested)
                        .expect("two columns are decodable")
                        .steps
                        .into_iter()
                        .map(|s| (s.target, s.sources))
                        .collect(),
                };
                let plan = XorPlan::from_steps(rows, cols, sources.iter().map(|(t, s)| (*t, s.as_slice())));
                let optimized = plan.optimized();
                // The plan the volume runs: the raw slice for two columns,
                // still the optimised plan for one.
                let lowered = lower::read_op(layout, failed, requested, &addr).expect("decodable");
                let lowered = lowered.plan.expect("degraded");
                match failed {
                    [_] => assert_eq!(lowered, optimized),
                    _ => assert_eq!(lowered, plan),
                }
                plans += 1;
                before += plan.num_source_reads();
                after += optimized.num_source_reads();
            }
        }
    }
    assert_eq!((plans, before, after), (557, 27_240, 27_240));
}

/// ROADMAP's optimizer table, pinned as a count: for the paper's six
/// codes at p ∈ {5, 7, 13}, the optimizer removes not one XOR source read
/// from the compiled cascaded encode, from any single-column recovery
/// (the hybrid plan, §V-C), from any column pair's decode, or from Fig. 7's
/// per-request single-column read (L ∈ {1, 5, 10, 15}, every failed column
/// and every in-stripe start). Any plan whose optimized form reads fewer
/// sources fails by name; the totals pin the sweep itself.
#[test]
fn optimizer_saves_nothing_on_the_paper_s_six_codes() {
    let mut saved: Vec<String> = Vec::new();
    let (mut plans, mut reads) = (0usize, 0usize);
    let mut check = |what: &dyn Fn() -> String, plan: XorPlan| {
        let optimized = plan.optimized();
        if optimized.num_source_reads() != plan.num_source_reads() {
            saved.push(format!(
                "{}: {} -> {}",
                what(),
                plan.num_source_reads(),
                optimized.num_source_reads()
            ));
        }
        plans += 1;
        reads += plan.num_source_reads();
    };
    for p in [5usize, 7, 13] {
        let codes: [Arc<dyn ArrayCode>; 6] = [
            Arc::new(HvCode::new(p).unwrap()),
            Arc::new(RdpCode::new(p).unwrap()),
            Arc::new(XCode::new(p).unwrap()),
            Arc::new(HCode::new(p).unwrap()),
            Arc::new(HdpCode::new(p).unwrap()),
            Arc::new(PCode::new(p).unwrap()),
        ];
        for code in codes {
            let (name, layout) = (code.name(), code.layout());
            check(&|| format!("{name} p={p} encode"), XorPlan::compile_encode(layout));
            for col in 0..layout.cols() {
                let recovery = plan_single_disk_recovery(layout, col);
                let plan = XorPlan::compile_repairs(layout, &recovery.choices);
                check(&|| format!("{name} p={p} recovery of {col}"), plan);
                for other in col + 1..layout.cols() {
                    let decode = layout.column_decode(&[col, other]).expect("two columns decode");
                    let plan = XorPlan::compile_decode(layout, &decode);
                    check(&|| format!("{name} p={p} decode of {col}+{other}"), plan);
                }
                for len in [1usize, 5, 10, 15] {
                    for (start, requested) in layout.data_cells().windows(len).enumerate() {
                        if !requested.iter().any(|c| c.col == col) {
                            continue; // a plain fetch: no plan
                        }
                        let read = plan_degraded_read(layout, col, requested);
                        let plan = XorPlan::compile_repairs(layout, &read.repairs);
                        check(&|| format!("{name} p={p} read [{start}, +{len}) off {col}"), plan);
                    }
                }
            }
        }
    }
    assert!(saved.is_empty(), "{} plans the optimizer shrinks: {saved:#?}", saved.len());
    assert_eq!((plans, reads), (22_293, 394_712));
}

/// Elements larger than the L1 tile force the chunked execution path;
/// the tiled walk must still be byte-identical to the reference encoder
/// and to whole-op execution of the same plan.
#[test]
fn tiled_execution_matches_untiled_past_l1_tile() {
    let element = 2 * L1_TILE_BYTES + 512;
    for code in all_codes(7) {
        let layout = code.layout();
        let mut reference = Stripe::for_layout(layout, element);
        reference.fill_data_seeded(layout, 77);
        let dirty = reference.clone();
        reference.encode_reference(layout);

        let plan = layout.encode_plan();
        let mut tiled = dirty.clone();
        plan.execute(&mut tiled);
        let mut untiled = dirty;
        plan.execute_untiled(&mut untiled);

        assert_eq!(tiled, reference, "{} tiled vs reference", code.name());
        assert_eq!(untiled, reference, "{} untiled vs reference", code.name());
    }
}

/// Double-erasure decode at the headline prime, deterministically and
/// exhaustively over all column pairs: the optimized rebuild restores
/// every byte, including through temp-heavy plans (EVENODD's adjuster
/// chains produce dozens of scratch temps here).
#[test]
fn optimized_double_erasure_exhaustive_at_p13() {
    for code in all_codes(13) {
        let layout = code.layout();
        let disks = layout.cols();
        let mut original = Stripe::for_layout(layout, 16);
        original.fill_data_seeded(layout, 1313);
        original.encode(layout);

        for a in 0..disks {
            for b in (a + 1)..disks {
                let mut wounded = original.clone();
                rebuild_through_optimized(&mut wounded, layout, &[a, b]);
                assert_eq!(
                    wounded,
                    original,
                    "{} lost cols ({a}, {b})",
                    code.name()
                );
            }
        }
    }
}
