//! Planner invariants that must hold for every code: the generic machinery
//! can make no code-specific assumptions.

use std::collections::BTreeSet;

use integration::{all_codes, payload};
use raid_array::lower::{stripe_write_op, StripeWrite};
use raid_array::DiskAddr;
use raid_core::plan::degraded::plan_degraded_read;
use raid_core::plan::single::{plan_single_disk_recovery, SearchStrategy};
use raid_core::layout::Layout;
use raid_core::plan::update::parity_updates;
use raid_core::plan::write::{
    plan_batched_write, plan_partial_write, write_cost, WriteCost, WriteMode, WritePlan,
};
use raid_core::{invariants, Cell, Stripe};

#[test]
fn update_closure_equals_reencode_for_every_code() {
    // Writing one data element and updating exactly the planner's parity
    // set must equal a full re-encode.
    for code in all_codes(7) {
        let name = code.name().to_string();
        let layout = code.layout();
        for &cell in layout.data_cells() {
            let mut stripe = Stripe::for_layout(layout, 8);
            stripe.fill_data_seeded(layout, 5);
            code.encode(&mut stripe);

            // Flip the element, then recompute only the planned parities
            // (from full chain membership, in dependency order).
            let mut patched = stripe.clone();
            let newval = vec![0xEEu8; 8];
            patched.set_element(cell, &newval);
            let mut pending = parity_updates(layout, cell);
            while !pending.is_empty() {
                let mut rest = Vec::new();
                let before = pending.len();
                for &parity in &pending {
                    let chain_id = layout.chain_of_parity(parity).unwrap();
                    let chain = layout.chain(chain_id);
                    if chain.members.iter().any(|m| pending.contains(m)) {
                        rest.push(parity);
                        continue;
                    }
                    let val = patched.xor_of(chain.members.iter().copied());
                    patched.set_element(parity, &val);
                }
                assert!(rest.len() < before, "{name}: no progress at {cell}");
                pending = rest;
            }

            let mut reencoded = stripe.clone();
            reencoded.set_element(cell, &newval);
            code.encode(&mut reencoded);
            assert_eq!(patched, reencoded, "{name}: cell {cell}");
        }
    }
}

#[test]
fn degraded_read_plans_are_sound() {
    for code in all_codes(7) {
        let name = code.name().to_string();
        let layout = code.layout();
        let data = layout.data_cells();
        for failed in 0..layout.cols() {
            // A sliding window of requests.
            for win in [1usize, 3, 7] {
                for start in (0..data.len().saturating_sub(win)).step_by(5) {
                    let req = &data[start..start + win];
                    let plan = plan_degraded_read(layout, failed, req);
                    // Never fetches from the failed disk.
                    assert!(
                        plan.fetched.iter().all(|c| c.col != failed),
                        "{name}: fetched from failed disk"
                    );
                    // Surviving requested cells are always fetched.
                    for &r in req {
                        if r.col != failed {
                            assert!(
                                plan.fetched.contains(&r),
                                "{name}: requested {r} not fetched"
                            );
                        }
                    }
                    // Efficiency is at least 1 and bounded by chain length.
                    let eff = plan.efficiency();
                    assert!(eff >= 1.0 - 1e-9, "{name}: eff {eff}");
                    let max_len = layout
                        .chain_length_histogram()
                        .iter()
                        .map(|&(l, _)| l)
                        .max()
                        .unwrap() as f64;
                    assert!(
                        eff <= max_len + 1.0,
                        "{name}: eff {eff} exceeds chain bound"
                    );
                }
            }
        }
    }
}

#[test]
fn single_disk_plans_repair_correctly() {
    for code in all_codes(7) {
        let name = code.name().to_string();
        let layout = code.layout();
        let mut pristine = Stripe::for_layout(layout, 16);
        pristine.fill_data_seeded(layout, 9);
        code.encode(&mut pristine);

        for failed in 0..layout.cols() {
            for strategy in [
                SearchStrategy::Greedy,
                SearchStrategy::Exhaustive,
                SearchStrategy::Auto,
            ] {
                let plan = plan_single_disk_recovery(layout, failed, strategy);
                assert_eq!(plan.choices.len(), layout.rows(), "{name}");
                // Reads never touch the failed disk.
                assert!(plan.reads.iter().all(|c| c.col != failed), "{name}");

                // Execute the plan and compare bytes.
                let mut broken = pristine.clone();
                broken.erase_col(failed);
                for (cell, chain_id) in &plan.choices {
                    let sources: Vec<_> = layout
                        .chain(*chain_id)
                        .cells()
                        .filter(|c| c != cell)
                        .collect();
                    let val = broken.xor_of(sources);
                    broken.set_element(*cell, &val);
                }
                assert_eq!(broken, pristine, "{name}: disk {failed} ({strategy:?})");
            }
        }
    }
}

#[test]
fn shipped_table2_trace_matches_the_paper() {
    // The trace file shipped in traces/ must parse to exactly the Table II
    // constants the workloads crate hard-codes.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../traces/table2.trace");
    let text = std::fs::read_to_string(path).expect("traces/table2.trace exists");
    let parsed = raid_workloads::textio::parse_trace(&text).unwrap();
    let reference = raid_workloads::table2_trace();
    assert_eq!(parsed.patterns, reference.patterns);
    assert_eq!(parsed.name, reference.name);
}

#[test]
fn structural_invariants_hold_for_all_codes() {
    for p in [5usize, 7, 11] {
        for code in all_codes(p) {
            let name = code.name().to_string();
            let layout = code.layout();
            assert!(
                invariants::all_single_failures_decodable(layout),
                "{name} p={p}"
            );
            assert_eq!(
                invariants::find_undecodable_pair(layout),
                None,
                "{name} p={p} must be MDS"
            );
            // EVENODD's S-adjusted diagonals and Liberation's extra-one
            // coding matrices legitimately take two packets from one disk.
            assert!(
                invariants::chains_hit_columns_once(layout)
                    || name == "EVENODD"
                    || name == "Liberation",
                "{name} p={p}: chains revisit columns"
            );
        }
    }
}

/// `plan_batched_write` as it was before its membership tests became a
/// bitmap: every parity checked against the list built so far. Kept as
/// the reference for first-touch order.
fn scanning_batched_write(layout: &Layout, ordinals: &[usize]) -> WritePlan {
    let mut sorted = ordinals.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let data_writes: Vec<Cell> = sorted.iter().map(|&o| layout.data_cells()[o]).collect();
    let mut parity_writes: Vec<Cell> = Vec::new();
    for &cell in &data_writes {
        for p in parity_updates(layout, cell) {
            if !parity_writes.contains(&p) {
                parity_writes.push(p);
            }
        }
    }
    WritePlan { data_writes, parity_writes }
}

/// `write_cost` before the bitmap, three list scans per chain member.
fn scanning_write_cost(layout: &Layout, plan: &WritePlan) -> WriteCost {
    let rmw_reads: Vec<Cell> =
        plan.data_writes.iter().chain(&plan.parity_writes).copied().collect();
    let mut reconstruct_reads: Vec<Cell> = Vec::new();
    for &parity in &plan.parity_writes {
        let chain_id = layout.chain_of_parity(parity).expect("parity owns chain");
        for m in &layout.chain(chain_id).members {
            if !plan.data_writes.contains(m)
                && !plan.parity_writes.contains(m)
                && !reconstruct_reads.contains(m)
            {
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

#[test]
fn bitmap_write_planners_equal_the_scanning_ones_element_for_element() {
    for p in [5usize, 7, 13] {
        for code in all_codes(p) {
            let layout = code.layout();
            let n = layout.num_data_cells();
            let check = |dirty: &[usize]| {
                let name = code.name();
                let plan = plan_batched_write(layout, dirty);
                assert_eq!(plan, scanning_batched_write(layout, dirty), "{name} p={p} {dirty:?}");
                let cost = write_cost(layout, &plan);
                assert_eq!(cost, scanning_write_cost(layout, &plan), "{name} p={p} {dirty:?}");
                plan
            };
            for start in 0..n {
                for len in 1..=n - start {
                    let window: Vec<usize> = (start..start + len).collect();
                    assert_eq!(plan_partial_write(layout, start, len), check(&window));
                }
            }
            // Scattered sets, duplicates and disorder included: 1 to 2n
            // ordinals drawn from seeded bytes (n ≤ 169 < 256).
            for round in 0..300 {
                let bytes = payload(1 + round * 2 * n / 300, (p * 1_000 + round) as u64);
                let dirty: Vec<usize> = bytes.iter().map(|&b| b as usize % n).collect();
                check(&dirty);
            }
        }
    }
}

/// A cache flush lends its dirty slots and clean-resident fills to the
/// store's scratch as the op's `data_writes` and `fills` cells, so the op
/// may only read them: no read lands in one and no plan step targets one.
/// Every code at p ∈ {5, 7, 13}: every contiguous window (a coprime
/// lattice of them when the stripe holds more than 40 elements) and
/// seeded scattered sets, with the rest of the stripe clean-resident or
/// not.
#[test]
fn a_stripe_write_only_reads_the_cells_its_caller_lends_it() {
    let addr = |c: Cell| DiskAddr { disk: c.col, index: c.row };
    for p in [5usize, 7, 13] {
        for code in all_codes(p) {
            let layout = code.layout();
            let n = layout.num_data_cells();
            let (start_step, len_step) = if n <= 40 { (1, 1) } else { (11, 17) };
            let mut sets: Vec<Vec<usize>> = (0..n)
                .step_by(start_step)
                .flat_map(|start| {
                    (1..=n - start).step_by(len_step).map(move |len| (start..start + len).collect())
                })
                .collect();
            for round in 0..50 {
                let bytes = payload(1 + round * n / 50, (p * 7_000 + round) as u64);
                let set: BTreeSet<usize> = bytes.iter().map(|&b| b as usize % n).collect();
                sets.push(set.into_iter().collect());
            }
            for dirty in sets {
                for rest_clean in [false, true] {
                    let what = format!("{} p={p} clean={rest_clean} {dirty:?}", code.name());
                    let is_clean = |ord| rest_clean && dirty.binary_search(&ord).is_err();
                    let StripeWrite { op, fills } =
                        stripe_write_op(layout, &dirty, is_clean, &addr);
                    let written = op.data_writes.iter().map(|&(cell, _)| cell);
                    let lent: BTreeSet<Cell> =
                        written.chain(fills.iter().map(|&(_, c)| c)).collect();
                    assert_eq!(lent.len(), dirty.len() + fills.len(), "{what}: a cell lent twice");
                    for &(cell, _) in &op.reads {
                        assert!(!lent.contains(&cell), "{what}: a read lands in lent {cell}");
                    }
                    for cell in op.plan.as_ref().expect("a write computes parities").targets() {
                        assert!(!lent.contains(&cell), "{what}: a step targets lent {cell}");
                    }
                }
            }
        }
    }
}
