//! Volume health: failure state machine, retry policy and healing counts.
//!
//! The paper's reliability argument (Section V-D, Fig. 9) is about how
//! long an array spends exposed — degraded or critical — before repair
//! completes. This module gives the runtime the bookkeeping side of that
//! story: a [`HealthState`] machine
//! (`Healthy → Degraded(1) → Critical(2) → Failed`) driven by the failed
//! -disk count, and a [`HealthMonitor`] that classifies every
//! [`DiskError`] through the [`ErrorClass`] taxonomy into one
//! [`RecoveryAction`]:
//!
//! * **transient** errors are retried at once, escalating to disk-dead
//!   when a disk's consecutive-failure streak passes [`MAX_RETRIES`];
//! * **latent sectors** are repaired in place (reconstruct from the parity
//!   chains, rewrite), escalating to disk-dead once a disk accumulates
//!   more than [`MAX_LATENT_REPAIRS`] of them — the classic "reallocated
//!   sector count" SMART trip;
//! * **disk-dead** errors degrade the array immediately;
//! * **crashes** and programming errors are fatal to the operation.
//!
//! The monitor is pure bookkeeping — it never touches a backend — so the
//! policy is unit-testable without I/O; [`crate::volume::RaidVolume`]
//! executes the actions it returns. It is also the one place healing is
//! counted: the retries and latent repairs it grants and the transitions
//! it observes.

use std::collections::BTreeMap;

use crate::disk::{DiskError, ErrorClass};

/// Array-level health, a function of how many disks hold invalid data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All disks valid.
    Healthy,
    /// One disk invalid: every chain still decodable, no slack.
    Degraded,
    /// Two disks invalid: at the RAID-6 correction limit.
    Critical,
    /// More than two disks invalid: data loss.
    Failed,
}

impl HealthState {
    /// The state implied by `failed` invalid disks.
    pub fn from_failed_count(failed: usize) -> Self {
        match failed {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::Critical,
            _ => HealthState::Failed,
        }
    }

    /// Short lowercase label (`healthy`, `degraded`, …).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
            HealthState::Failed => "failed",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Consecutive transient failures tolerated per disk before the disk is
/// declared dead (each failure is followed by one retry).
pub const MAX_RETRIES: u32 = 3;

/// Latent-sector repairs tolerated per disk before the disk is declared
/// dying and failed proactively.
pub const MAX_LATENT_REPAIRS: u32 = 8;

/// What the volume should do about one classified error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Retry the stripe step that failed.
    Retry,
    /// Reconstruct element `(disk, index)` from its parity chains and
    /// rewrite it in place, then retry the stripe step.
    RepairLatent {
        /// Disk with the bad sector.
        disk: usize,
        /// The unreadable element.
        index: usize,
    },
    /// Declare `disk` dead and re-plan degraded.
    FailDisk {
        /// The disk to fail.
        disk: usize,
    },
    /// Not recoverable at this level: propagate the error.
    Fatal,
}

/// Per-volume health bookkeeping: classifies errors into
/// [`RecoveryAction`]s, tracks per-disk transient streaks and latent-repair
/// counts against [`MAX_RETRIES`] and [`MAX_LATENT_REPAIRS`], counts the
/// retries and repairs it grants, and logs every state transition.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    state: HealthState,
    /// Per-disk consecutive transient failures (cleared on success).
    transient_streak: BTreeMap<usize, u32>,
    /// Per-disk lifetime latent-sector repairs (cleared on replace).
    latent_repairs: BTreeMap<usize, u32>,
    retries_total: u64,
    latent_repairs_total: u64,
    transitions: Vec<(HealthState, HealthState)>,
}

impl HealthMonitor {
    /// Current array state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Classifies `e` into the action the volume should take.
    pub fn on_error(&mut self, e: &DiskError) -> RecoveryAction {
        match (e.class(), *e) {
            (ErrorClass::Transient, DiskError::Transient { disk }) => {
                let streak = self.transient_streak.entry(disk).or_insert(0);
                *streak += 1;
                if *streak > MAX_RETRIES {
                    // The "transient" condition is not clearing: treat the
                    // disk as dead rather than retrying forever.
                    RecoveryAction::FailDisk { disk }
                } else {
                    self.retries_total += 1;
                    RecoveryAction::Retry
                }
            }
            (ErrorClass::LatentSector, DiskError::LatentSector { disk, index }) => {
                let n = self.latent_repairs.entry(disk).or_insert(0);
                *n += 1;
                if *n > MAX_LATENT_REPAIRS {
                    // Too many grown defects: fail the disk proactively
                    // before it eats something unrecoverable.
                    RecoveryAction::FailDisk { disk }
                } else {
                    self.latent_repairs_total += 1;
                    RecoveryAction::RepairLatent { disk, index }
                }
            }
            (ErrorClass::DiskDead, DiskError::DiskFailed { disk }) => {
                RecoveryAction::FailDisk { disk }
            }
            _ => RecoveryAction::Fatal,
        }
    }

    /// A stripe step of a volume operation succeeded (a store, a read
    /// run, a scrubbed or rebuilt stripe), or the cache absorbed a write:
    /// every transient streak resets (the conditions evidently cleared).
    pub fn note_op_ok(&mut self) {
        self.transient_streak.clear();
    }

    /// `disk` was physically replaced: its slow-burn counters reset.
    pub fn note_replaced(&mut self, disk: usize) {
        self.transient_streak.remove(&disk);
        self.latent_repairs.remove(&disk);
    }

    /// Re-derives the state from the failed-disk count; returns the
    /// `(from, to)` transition if the state changed.
    pub fn observe_failed_count(&mut self, failed: usize) -> Option<(HealthState, HealthState)> {
        let next = HealthState::from_failed_count(failed);
        if next == self.state {
            return None;
        }
        let from = self.state;
        self.state = next;
        self.transitions.push((from, next));
        Some((from, next))
    }

    /// Every `(from, to)` transition observed so far, in order.
    pub fn transitions(&self) -> &[(HealthState, HealthState)] {
        &self.transitions
    }

    /// Total transient retries granted.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Total latent-sector repairs granted.
    pub fn latent_repairs_total(&self) -> u64 {
        self.latent_repairs_total
    }
}

impl Default for HealthMonitor {
    /// A healthy monitor that has seen no error.
    fn default() -> Self {
        HealthMonitor {
            state: HealthState::Healthy,
            transient_streak: BTreeMap::new(),
            latent_repairs: BTreeMap::new(),
            retries_total: 0,
            latent_repairs_total: 0,
            transitions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_follows_failed_count() {
        assert_eq!(HealthState::from_failed_count(0), HealthState::Healthy);
        assert_eq!(HealthState::from_failed_count(1), HealthState::Degraded);
        assert_eq!(HealthState::from_failed_count(2), HealthState::Critical);
        assert_eq!(HealthState::from_failed_count(3), HealthState::Failed);
        assert!(HealthState::Healthy < HealthState::Failed);
    }

    #[test]
    fn transient_retries_then_escalates() {
        let mut m = HealthMonitor::default();
        let e = DiskError::Transient { disk: 3 };
        for _ in 0..MAX_RETRIES {
            assert_eq!(m.on_error(&e), RecoveryAction::Retry);
        }
        assert_eq!(m.on_error(&e), RecoveryAction::FailDisk { disk: 3 });
        assert_eq!(m.retries_total(), u64::from(MAX_RETRIES));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut m = HealthMonitor::default();
        let e = DiskError::Transient { disk: 0 };
        for _ in 0..MAX_RETRIES {
            assert_eq!(m.on_error(&e), RecoveryAction::Retry);
        }
        m.note_op_ok();
        assert_eq!(m.on_error(&e), RecoveryAction::Retry, "a cleared streak retries again");
    }

    #[test]
    fn latent_repairs_then_escalates() {
        let mut m = HealthMonitor::default();
        for index in 0..MAX_LATENT_REPAIRS as usize {
            assert_eq!(
                m.on_error(&DiskError::LatentSector { disk: 1, index }),
                RecoveryAction::RepairLatent { disk: 1, index }
            );
        }
        assert_eq!(
            m.on_error(&DiskError::LatentSector { disk: 1, index: 99 }),
            RecoveryAction::FailDisk { disk: 1 }
        );
        assert_eq!(m.latent_repairs_total(), u64::from(MAX_LATENT_REPAIRS));
        // A different disk has its own budget.
        assert!(matches!(
            m.on_error(&DiskError::LatentSector { disk: 2, index: 0 }),
            RecoveryAction::RepairLatent { .. }
        ));
    }

    #[test]
    fn dead_and_fatal_classes() {
        let mut m = HealthMonitor::default();
        assert_eq!(
            m.on_error(&DiskError::DiskFailed { disk: 4 }),
            RecoveryAction::FailDisk { disk: 4 }
        );
        assert_eq!(m.on_error(&DiskError::Crashed), RecoveryAction::Fatal);
        assert_eq!(m.on_error(&DiskError::Io { disk: 0 }), RecoveryAction::Fatal);
        assert_eq!(m.on_error(&DiskError::NoSuchDisk { disk: 9 }), RecoveryAction::Fatal);
    }

    #[test]
    fn transitions_are_logged_once_per_change() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.observe_failed_count(0), None);
        assert_eq!(
            m.observe_failed_count(1),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        assert_eq!(m.observe_failed_count(1), None);
        assert_eq!(
            m.observe_failed_count(2),
            Some((HealthState::Degraded, HealthState::Critical))
        );
        assert_eq!(
            m.observe_failed_count(0),
            Some((HealthState::Critical, HealthState::Healthy))
        );
        assert_eq!(m.transitions().len(), 3);
    }
}
