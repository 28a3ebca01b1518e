//! Tier-1 gate for the crash-consistency auditor: every registered code
//! must prove all-crash-prefix journal atomicity of the ops the volume
//! executes, and a deliberately corrupted journal must be rejected naming
//! the offending crash index and address.

use raid_verify::journal::{
    prove_layout_journal, prove_op_atomicity, volume_op_lists, JournalCoverage, JournalError,
};

/// The headline acceptance check: every registered code × p ∈ {5, 7}
/// proves all-old-or-all-new crash atomicity (every crash prefix, one
/// journal unit per op) of the full-stripe write, the single-column
/// recovery and the two-column decode. The full default-prime sweep runs in
/// `make lint` via `hvraid lint --all --journal`.
#[test]
fn every_code_proves_crash_atomicity_of_the_ops_it_executes() {
    for name in raid_verify::CODE_NAMES {
        for p in [5usize, 7] {
            let code = raid_verify::build(name, p).unwrap_or_else(|e| panic!("{e}"));
            let j = prove_layout_journal(code.layout())
                .unwrap_or_else(|e| panic!("{name} p={p} journal: {e}"));
            assert_eq!(j.op_lists, 5, "{name} p={p}");
            assert!(j.crash_points > 0, "{name} p={p}");
        }
    }
}

/// Acceptance criterion: a deliberately corrupted journal — one undo
/// record dropped — fails the crash-prefix sweep, and the rejection names
/// the crash index and the unrestorable address, on every op list.
#[test]
fn dropped_undo_record_is_rejected_naming_the_crash_index() {
    let code = raid_verify::build("hv", 5).unwrap();
    for ops in volume_op_lists(code.layout(), 3) {
        let first = &ops[0];
        let (_, dropped_addr) = first.data_writes.iter().chain(&first.parity_writes).next().unwrap();
        let err = prove_op_atomicity(&ops, JournalCoverage::DropEntry(0))
            .expect_err("a journal missing an undo record must not prove");
        match &err {
            JournalError::MissingUndo { crash_index, addr, .. } => {
                // The first crash prefix that completed the unjournaled
                // write (write 0) cannot be rolled back.
                assert_eq!(*crash_index, 1, "{err}");
                assert_eq!(addr, dropped_addr, "{err}");
            }
            other => panic!("expected MissingUndo, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("crash index 1"), "{msg}");
        assert!(msg.contains(&format!("disk {}", dropped_addr.disk)), "{msg}");
    }
}
