//! Tier-1 gate for the concurrency & crash-consistency auditors: every
//! registered code must prove partition-hazard freedom and all-crash-prefix
//! journal atomicity, deliberately corrupted plans/journals must be rejected
//! naming the offending address range or crash index, and the executor's
//! concurrent protocols must pass exhaustive schedule exploration.

use raid_array::partition::PartitionMap;
use raid_verify::hazard::{
    audit_partition_hazards, lowered_encode_batch, prove_layout_hazard_free, HazardError,
};
use raid_verify::journal::{
    prove_batch_atomicity, prove_layout_journal, units_of_one, JournalCoverage, JournalError,
};
use raid_verify::schedules::check_all_models;

/// The headline acceptance check: all 8 codes × p ∈ {5, 7} prove both
/// cross-partition footprint disjointness (every modeled batched path)
/// and all-old-or-all-new crash atomicity (every crash prefix, stored as
/// one journal unit and as units of one op). The full default-prime sweep runs in `make lint`
/// via `hvraid lint --all --hazards --journal`.
#[test]
fn every_code_proves_hazard_freedom_and_crash_atomicity() {
    for name in raid_verify::CODE_NAMES {
        for p in [5usize, 7] {
            let code = raid_verify::build(name, p).unwrap_or_else(|e| panic!("{e}"));
            let layout = code.layout();
            let h = prove_layout_hazard_free(layout)
                .unwrap_or_else(|e| panic!("{name} p={p} hazard: {e}"));
            assert_eq!(h.batches, 5, "{name} p={p}");
            assert!(h.partitions >= 2, "{name} p={p}");
            // The machine-readable report must carry every partition's
            // footprint and a zero hazard count.
            let json = h.encode_report.to_json();
            assert!(json.contains("\"hazards\":0"), "{name} p={p}: {json}");
            assert!(json.contains("\"partition\":0"), "{name} p={p}: {json}");

            let j = prove_layout_journal(layout)
                .unwrap_or_else(|e| panic!("{name} p={p} journal: {e}"));
            assert_eq!(j.batches, 6, "{name} p={p}");
            assert!(j.crash_points > 0, "{name} p={p}");
        }
    }
}

/// Acceptance criterion: a deliberately corrupted plan — one stripe's op
/// made to write an address owned by another partition — is rejected, and
/// the failure names the offending disk and `[start, end)` address range.
#[test]
fn overlapping_partition_write_is_rejected_naming_the_address_range() {
    let code = raid_verify::build("hv", 5).unwrap();
    let layout = code.layout();
    let map = PartitionMap::build(5, 3); // ranges [0,2) [2,4) [4,5)
    let mut ops = lowered_encode_batch(layout, 5);

    // Make the last stripe's op (partition 2) also write the first
    // stripe's first parity address (partition 0).
    let (cell, addr) = ops[0].parity_writes[0];
    ops[4].parity_writes.push((cell, addr));

    let err = audit_partition_hazards(&map, &ops, layout.cols()).unwrap_err();
    match &err {
        HazardError::WriteWrite { a, b, disk, range } => {
            assert_eq!((*a, *b), (0, 2), "{err}");
            assert_eq!(*disk, addr.disk, "{err}");
            assert!(range.contains(&addr.index), "{err}");
        }
        other => panic!("expected WriteWrite, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains(&format!("disk {}", addr.disk)), "{msg}");
    assert!(msg.contains(&format!("[{}, {})", addr.index, addr.index + 1)), "{msg}");
}

/// A read hoisted across another op's write — the stale-read shape that
/// batched phase separation would mis-serve — is likewise rejected with
/// both ops, both partitions, and the address range named.
#[test]
fn stale_cross_op_read_is_rejected_naming_both_ops() {
    let code = raid_verify::build("hv", 5).unwrap();
    let layout = code.layout();
    let map = PartitionMap::build(5, 3);
    let mut ops = lowered_encode_batch(layout, 5);

    // Op 3 now reads an address op 0 writes.
    let (cell, addr) = ops[0].parity_writes[0];
    ops[3].reads.push((cell, addr));

    let err = audit_partition_hazards(&map, &ops, layout.cols()).unwrap_err();
    match &err {
        HazardError::ReadWrite { reader_op, writer_op, disk, range, .. } => {
            assert_eq!((*reader_op, *writer_op), (3, 0), "{err}");
            assert_eq!(*disk, addr.disk, "{err}");
            assert!(range.contains(&addr.index), "{err}");
        }
        other => panic!("expected ReadWrite, got {other}"),
    }
    assert!(err.to_string().contains("op 3"), "{err}");
}

/// Acceptance criterion: a deliberately corrupted journal — one undo
/// record dropped — fails the crash-prefix sweep, and the rejection names
/// the crash index and the unrestorable address, under either unit shape.
#[test]
fn dropped_undo_record_is_rejected_naming_the_crash_index() {
    let code = raid_verify::build("hv", 5).unwrap();
    let layout = code.layout();
    let ops = lowered_encode_batch(layout, 3);
    let (_, dropped_addr) = ops[0].parity_writes[0];

    for units in [vec![ops.as_slice()], units_of_one(&ops)] {
        let err = prove_batch_atomicity(&units, JournalCoverage::DropEntry(0))
            .expect_err("a journal missing an undo record must not prove");
        match &err {
            JournalError::MissingUndo { crash_index, addr, .. } => {
                // The first crash prefix that completed the unjournaled
                // write (write 0) cannot be rolled back.
                assert_eq!(*crash_index, 1, "{err}");
                assert_eq!(*addr, dropped_addr, "{err}");
            }
            other => panic!("{} unit(s): expected MissingUndo, got {other}", units.len()),
        }
        let msg = err.to_string();
        assert!(msg.contains("crash index 1"), "{msg}");
        assert!(msg.contains(&format!("disk {}", dropped_addr.disk)), "{msg}");
    }
}

/// The executor's two concurrent protocols — the work-stealing cursor and
/// the ledger-shard merge — pass exhaustive interleaving exploration.
#[test]
fn executor_protocols_pass_exhaustive_schedule_exploration() {
    let results = check_all_models().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<&str> = results.iter().map(|r| r.model).collect();
    assert_eq!(names, ["cursor", "merge"]);
    for r in &results {
        assert!(r.configs > 0, "{}: no configurations", r.model);
        assert!(r.schedules > 1, "{}: exploration did not branch", r.model);
        assert!(r.max_depth > 0, "{}", r.model);
    }
}
