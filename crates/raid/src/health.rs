//! Volume health: failure state machine and retry/backoff policy.
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
//! * **transient** errors are retried with exponential backoff (virtual —
//!   accumulated milliseconds, no sleeping), escalating to disk-dead when
//!   a disk's consecutive-failure streak exhausts the policy;
//! * **latent sectors** are repaired in place (reconstruct from the parity
//!   chains, rewrite), escalating to disk-dead once a disk accumulates too
//!   many of them — the classic "reallocated sector count" SMART trip;
//! * **disk-dead** errors degrade the array immediately;
//! * **crashes** and programming errors are fatal to the operation.
//!
//! The monitor is pure bookkeeping — it never touches a backend — so the
//! policy is unit-testable without I/O; [`crate::volume::RaidVolume`]
//! executes the actions it returns.

use std::collections::BTreeMap;

use disk_sim::{DiskError, ErrorClass};

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

/// Retry/backoff policy for transient errors and escalation thresholds
/// for the slow-burn failure modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive transient failures tolerated per disk before the disk
    /// is declared dead (each failure is followed by one retry).
    pub max_retries: u32,
    /// Backoff before the first retry, in (virtual) milliseconds.
    pub base_backoff_ms: f64,
    /// Multiplier applied per successive retry (exponential backoff).
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff, in milliseconds. Exponential growth
    /// saturates here instead of running to infinity (a caller holding a
    /// large attempt counter — the volume's op-retry loop allows 64 —
    /// must not charge an unbounded or non-finite wait).
    pub max_backoff_ms: f64,
    /// Latent-sector repairs tolerated per disk before the disk is
    /// declared dying and failed proactively.
    pub max_latent_repairs: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 1_000.0,
            max_latent_repairs: 8,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), in milliseconds,
    /// capped at [`RetryPolicy::max_backoff_ms`].
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        // Clamp the exponent before the i32 cast (u32::MAX would wrap
        // negative and yield a zero backoff); `powi` overflowing to +inf
        // for large attempts is collapsed by the `min` against the cap.
        let exp = attempt.saturating_sub(1).min(i32::MAX as u32) as i32;
        let raw = self.base_backoff_ms * self.backoff_multiplier.powi(exp);
        raw.min(self.max_backoff_ms)
    }
}

/// What the volume should do about one classified error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// Wait `backoff_ms` (virtually) and retry the same operation.
    Retry {
        /// Backoff charged to the operation, in milliseconds.
        backoff_ms: f64,
    },
    /// Reconstruct element `(disk, index)` from its parity chains and
    /// rewrite it in place, then retry the operation.
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
/// counts against the [`RetryPolicy`], and logs every state transition.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    state: HealthState,
    policy: RetryPolicy,
    /// Per-disk consecutive transient failures (cleared on success).
    transient_streak: BTreeMap<usize, u32>,
    /// Per-disk lifetime latent-sector repairs (cleared on replace).
    latent_repairs: BTreeMap<usize, u32>,
    retries_total: u64,
    latent_repairs_total: u64,
    backoff_ms_total: f64,
    transitions: Vec<(HealthState, HealthState)>,
}

impl HealthMonitor {
    /// A healthy monitor with the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        HealthMonitor {
            state: HealthState::Healthy,
            policy,
            transient_streak: BTreeMap::new(),
            latent_repairs: BTreeMap::new(),
            retries_total: 0,
            latent_repairs_total: 0,
            backoff_ms_total: 0.0,
            transitions: Vec::new(),
        }
    }

    /// Current array state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Classifies `e` into the action the volume should take.
    pub fn on_error(&mut self, e: &DiskError) -> RecoveryAction {
        match (e.class(), *e) {
            (ErrorClass::Transient, DiskError::Transient { disk }) => {
                let streak = self.transient_streak.entry(disk).or_insert(0);
                *streak += 1;
                if *streak > self.policy.max_retries {
                    // The "transient" condition is not clearing: treat the
                    // disk as dead rather than retrying forever.
                    RecoveryAction::FailDisk { disk }
                } else {
                    let backoff = self.policy.backoff_ms(*streak);
                    self.retries_total += 1;
                    self.backoff_ms_total += backoff;
                    RecoveryAction::Retry { backoff_ms: backoff }
                }
            }
            (ErrorClass::LatentSector, DiskError::LatentSector { disk, index }) => {
                let n = self.latent_repairs.entry(disk).or_insert(0);
                *n += 1;
                if *n > self.policy.max_latent_repairs {
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

    /// An operation on `disk` succeeded: its transient streak resets.
    pub fn note_disk_ok(&mut self, disk: usize) {
        self.transient_streak.remove(&disk);
    }

    /// A whole volume operation completed: every transient streak resets
    /// (the conditions evidently cleared).
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

    /// Total virtual backoff accumulated, in milliseconds.
    pub fn backoff_ms_total(&self) -> f64 {
        self.backoff_ms_total
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(RetryPolicy::default())
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
        let mut m = HealthMonitor::new(RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 1_000.0,
            max_latent_repairs: 8,
        });
        let e = DiskError::Transient { disk: 3 };
        assert_eq!(m.on_error(&e), RecoveryAction::Retry { backoff_ms: 1.0 });
        assert_eq!(m.on_error(&e), RecoveryAction::Retry { backoff_ms: 2.0 });
        assert_eq!(m.on_error(&e), RecoveryAction::FailDisk { disk: 3 });
        assert_eq!(m.retries_total(), 2);
        assert!((m.backoff_ms_total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn backoff_saturates_at_the_ceiling() {
        let p = RetryPolicy::default();
        // Regression: the volume's op-retry loop allows 64 attempts;
        // 2^63 ms used to come back as ~9.2e18 and larger attempts as
        // +inf. Every attempt must now yield a finite, capped wait.
        let b64 = p.backoff_ms(64);
        assert!(b64.is_finite());
        assert!((b64 - p.max_backoff_ms).abs() < 1e-12);
        assert_eq!(p.backoff_ms(u32::MAX), p.max_backoff_ms);
        // Below the cap the exponential schedule is untouched.
        assert!((p.backoff_ms(3) - 4.0).abs() < 1e-12);
        // Monotone non-decreasing across the knee.
        let mut prev = 0.0;
        for attempt in 1..=128 {
            let b = p.backoff_ms(attempt);
            assert!(b.is_finite() && b >= prev);
            prev = b;
        }
    }

    #[test]
    fn success_resets_the_streak() {
        let mut m = HealthMonitor::new(RetryPolicy { max_retries: 1, ..Default::default() });
        let e = DiskError::Transient { disk: 0 };
        assert!(matches!(m.on_error(&e), RecoveryAction::Retry { .. }));
        m.note_disk_ok(0);
        assert!(matches!(m.on_error(&e), RecoveryAction::Retry { .. }));
    }

    #[test]
    fn latent_repairs_then_escalates() {
        let mut m = HealthMonitor::new(RetryPolicy {
            max_latent_repairs: 2,
            ..Default::default()
        });
        for index in 0..2 {
            assert_eq!(
                m.on_error(&DiskError::LatentSector { disk: 1, index }),
                RecoveryAction::RepairLatent { disk: 1, index }
            );
        }
        assert_eq!(
            m.on_error(&DiskError::LatentSector { disk: 1, index: 9 }),
            RecoveryAction::FailDisk { disk: 1 }
        );
        assert_eq!(m.latent_repairs_total(), 2);
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
