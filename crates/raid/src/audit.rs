//! Static audit of [`LoweredOp`]s — the pipeline IR — before execution.
//!
//! A lowering bug (a read landing in the wrong scratch cell, a write
//! sourcing a cell nothing produced, a plan compiled for the wrong scratch
//! shape) executes without any error: the backend happily stores garbage.
//! [`audit_lowered`] catches those classes statically, by walking the op's
//! reads → plan → writes in order and tracking which scratch cells are
//! *defined* at each point. [`predicted_request_set`] derives the
//! [`RequestSet`] an op must commit, so the pipeline can assert that
//! accounting agrees with execution ([`crate::pipeline::IoPipeline`] does
//! both under `debug_assertions`).

use std::fmt;

use raid_core::io::RequestSet;
use raid_core::Cell;

use crate::pipeline::LoweredOp;

/// A statically-detected defect in a [`LoweredOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A read or write names a scratch cell outside the scratch grid.
    CellOutOfScratch {
        /// The offending scratch cell.
        cell: Cell,
        /// Scratch shape `(rows, cols)`.
        scratch: (usize, usize),
    },
    /// A read or write addresses a disk the backend does not have.
    DiskOutOfRange {
        /// The offending address.
        addr: (usize, usize),
        /// Number of disks.
        disks: usize,
    },
    /// Two reads land in the same scratch cell — the second silently
    /// clobbers the first.
    DuplicateReadDest {
        /// The doubly-filled cell.
        cell: Cell,
    },
    /// Two writes in one op target the same disk element — the op's effect
    /// depends on write order.
    DuplicateWriteAddr {
        /// The doubly-written address.
        addr: (usize, usize),
    },
    /// The op's plan was compiled for a different grid than the scratch.
    PlanShapeMismatch {
        /// Plan shape `(rows, cols)`.
        plan: (usize, usize),
        /// Scratch shape `(rows, cols)`.
        scratch: (usize, usize),
    },
    /// A plan op reads a scratch cell that no read, preset cell, or
    /// earlier plan op defined — the XOR consumes stale scratch.
    UnsourcedXor {
        /// The plan op's target.
        target: Cell,
        /// The undefined source.
        source: Cell,
    },
    /// A plan op involving an optimizer scratch temp reads a slot nothing
    /// defined (temps live past the grid, so the offender cannot be named
    /// as a [`Cell`]).
    UnsourcedTemp {
        /// Human-readable description naming the op target and the slot.
        detail: String,
    },
    /// A write stores a scratch cell that nothing defined.
    UnsourcedWrite {
        /// The undefined cell being stored.
        cell: Cell,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::CellOutOfScratch { cell, scratch } => {
                write!(f, "{cell} lies outside the {}×{} scratch", scratch.0, scratch.1)
            }
            AuditError::DiskOutOfRange { addr, disks } => write!(
                f,
                "address disk {} element {} exceeds the {disks}-disk backend",
                addr.0, addr.1
            ),
            AuditError::DuplicateReadDest { cell } => {
                write!(f, "two reads land in scratch cell {cell}")
            }
            AuditError::DuplicateWriteAddr { addr } => {
                write!(f, "two writes target disk {} element {}", addr.0, addr.1)
            }
            AuditError::PlanShapeMismatch { plan, scratch } => write!(
                f,
                "plan addresses a {}×{} grid but the scratch is {}×{}",
                plan.0, plan.1, scratch.0, scratch.1
            ),
            AuditError::UnsourcedXor { target, source } => write!(
                f,
                "plan op for {target} reads {source}, which no read or earlier op defines"
            ),
            AuditError::UnsourcedTemp { detail } => write!(f, "{detail}"),
            AuditError::UnsourcedWrite { cell } => {
                write!(f, "write stores {cell}, which no read or plan op defines")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Statically audits one [`LoweredOp`] against a `scratch_rows ×
/// scratch_cols` scratch and a `disks`-wide backend.
///
/// `preset` lists scratch cells the caller filled *before* execution (the
/// RMW double-buffer's fresh data, a degraded write's payload). With
/// `Some(_)`, read-set sufficiency is checked: every cell a plan op or a
/// write consumes must come from a read, a preset cell, or an earlier plan
/// op. With `None`, the caller makes no claim about pre-filled scratch and
/// only the structural checks run.
///
/// # Errors
///
/// Returns the first [`AuditError`] found, in read → plan → write order.
pub fn audit_lowered(
    op: &LoweredOp,
    scratch_rows: usize,
    scratch_cols: usize,
    disks: usize,
    preset: Option<&[Cell]>,
) -> Result<(), AuditError> {
    let scratch = (scratch_rows, scratch_cols);
    let in_scratch = |c: Cell| c.row < scratch_rows && c.col < scratch_cols;
    let ncells = scratch_rows * scratch_cols;

    let mut defined = vec![false; ncells];
    if let Some(preset) = preset {
        for &c in preset {
            if !in_scratch(c) {
                return Err(AuditError::CellOutOfScratch { cell: c, scratch });
            }
            defined[c.index(scratch_cols)] = true;
        }
    }

    let mut read_dest = vec![false; ncells];
    for &(cell, addr) in &op.reads {
        if !in_scratch(cell) {
            return Err(AuditError::CellOutOfScratch { cell, scratch });
        }
        if addr.disk >= disks {
            return Err(AuditError::DiskOutOfRange { addr: (addr.disk, addr.index), disks });
        }
        let i = cell.index(scratch_cols);
        if read_dest[i] {
            return Err(AuditError::DuplicateReadDest { cell });
        }
        read_dest[i] = true;
        defined[i] = true;
    }

    if let Some(plan) = &op.plan {
        if plan.rows() != scratch_rows || plan.cols() != scratch_cols {
            return Err(AuditError::PlanShapeMismatch {
                plan: (plan.rows(), plan.cols()),
                scratch,
            });
        }
        // Optimized plans may carry scratch temps past the grid; extend
        // the defined-tracking to cover them (plan flat indices match
        // `Cell::index(scratch_cols)` for grid slots, shape checked above).
        defined.resize(ncells + plan.num_temps(), false);
        for view in plan.step_views() {
            if preset.is_some() {
                for &s in view.srcs {
                    if !defined[s as usize] {
                        use raid_core::xplan::PlanCell;
                        return Err(match (plan.plan_cell(view.dst), plan.plan_cell(s)) {
                            (PlanCell::Grid(target), PlanCell::Grid(source)) => {
                                AuditError::UnsourcedXor { target, source }
                            }
                            (d, src) => AuditError::UnsourcedTemp {
                                detail: format!(
                                    "plan op for {d} reads {src}, which no read or earlier op defines"
                                ),
                            },
                        });
                    }
                }
            }
            defined[view.dst as usize] = true;
        }
    }

    let mut written = std::collections::HashSet::new();
    for &(cell, addr) in op.data_writes.iter().chain(&op.parity_writes) {
        if !in_scratch(cell) {
            return Err(AuditError::CellOutOfScratch { cell, scratch });
        }
        if addr.disk >= disks {
            return Err(AuditError::DiskOutOfRange { addr: (addr.disk, addr.index), disks });
        }
        if !written.insert((addr.disk, addr.index)) {
            return Err(AuditError::DuplicateWriteAddr { addr: (addr.disk, addr.index) });
        }
        if preset.is_some() && !defined[cell.index(scratch_cols)] {
            return Err(AuditError::UnsourcedWrite { cell });
        }
    }
    Ok(())
}

/// The [`RequestSet`] executing `op` commits — derived from the op alone,
/// without touching any backend. The pipeline times and absorbs exactly
/// this set once the op's I/O succeeded, pinning ledger accounting to the
/// IR rather than to execution side effects.
pub fn predicted_request_set(op: &LoweredOp, disks: usize) -> RequestSet {
    let mut rs = RequestSet::new(disks);
    for &(_, addr) in &op.reads {
        rs.add_read(addr.disk);
    }
    for &(_, addr) in &op.data_writes {
        rs.add_data_write(addr.disk);
    }
    for &(_, addr) in &op.parity_writes {
        rs.add_parity_write(addr.disk);
    }
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiskAddr;
    use raid_core::XorPlan;

    fn addr(disk: usize, index: usize) -> DiskAddr {
        DiskAddr { disk, index }
    }

    fn parity_op() -> LoweredOp {
        let c = Cell::new;
        LoweredOp {
            reads: vec![(c(0, 0), addr(0, 0)), (c(0, 1), addr(1, 0))],
            plan: Some(XorPlan::from_steps(1, 3, [(c(0, 2), [c(0, 0), c(0, 1)].as_slice())])),
            data_writes: vec![],
            parity_writes: vec![(c(0, 2), addr(2, 0))],
        }
    }

    #[test]
    fn well_formed_op_passes_with_and_without_preset() {
        let op = parity_op();
        audit_lowered(&op, 1, 3, 3, None).unwrap();
        audit_lowered(&op, 1, 3, 3, Some(&[])).unwrap();
    }

    #[test]
    fn unsourced_xor_caught_only_with_preset_claim() {
        let mut op = parity_op();
        op.reads.pop(); // (0,1) now undefined
        audit_lowered(&op, 1, 3, 3, None).unwrap();
        let err = audit_lowered(&op, 1, 3, 3, Some(&[])).unwrap_err();
        assert!(matches!(err, AuditError::UnsourcedXor { .. }), "{err}");
        // Declaring the cell preset makes the same op legal.
        audit_lowered(&op, 1, 3, 3, Some(&[Cell::new(0, 1)])).unwrap();
    }

    #[test]
    fn unsourced_write_caught() {
        let c = Cell::new;
        let op = LoweredOp {
            data_writes: vec![(c(0, 0), addr(0, 0))],
            ..Default::default()
        };
        assert!(matches!(
            audit_lowered(&op, 1, 1, 1, Some(&[])),
            Err(AuditError::UnsourcedWrite { .. })
        ));
    }

    #[test]
    fn structural_defects_caught() {
        let c = Cell::new;
        let out = LoweredOp::read_only(vec![(c(5, 0), addr(0, 0))]);
        assert!(matches!(
            audit_lowered(&out, 1, 3, 3, None),
            Err(AuditError::CellOutOfScratch { .. })
        ));
        let bad_disk = LoweredOp::read_only(vec![(c(0, 0), addr(9, 0))]);
        assert!(matches!(
            audit_lowered(&bad_disk, 1, 3, 3, None),
            Err(AuditError::DiskOutOfRange { .. })
        ));
        let dup_read =
            LoweredOp::read_only(vec![(c(0, 0), addr(0, 0)), (c(0, 0), addr(1, 0))]);
        assert!(matches!(
            audit_lowered(&dup_read, 1, 3, 3, None),
            Err(AuditError::DuplicateReadDest { .. })
        ));
        let mut dup_write = parity_op();
        dup_write.data_writes.push((c(0, 0), addr(2, 0)));
        assert!(matches!(
            audit_lowered(&dup_write, 1, 3, 3, None),
            Err(AuditError::DuplicateWriteAddr { .. })
        ));
        let mut bad_plan = parity_op();
        bad_plan.plan = Some(XorPlan::from_steps(2, 2, []));
        assert!(matches!(
            audit_lowered(&bad_plan, 1, 3, 3, None),
            Err(AuditError::PlanShapeMismatch { .. })
        ));
    }

    #[test]
    fn predicted_request_set_matches_shape() {
        let op = parity_op();
        let rs = predicted_request_set(&op, 3);
        assert_eq!(rs.total_reads(), 2);
        assert_eq!(rs.parity_writes(), 1);
        assert_eq!(rs.data_writes(), 0);
    }
}
