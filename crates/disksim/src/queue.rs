//! Concurrent-issue queueing: per-operation latency when several
//! operations are in flight at the same instant.
//!
//! [`crate::array::DiskArray`] issues through these same queues but
//! serializes batches — it advances its clock to each batch's makespan
//! before the next one is issued, so two operations never contend and a
//! batch's makespan is its *isolated* latency. That is the right model for throughput questions ("how long
//! does this whole rebuild take?") but cannot express the fleet harness's
//! QoS question: *how much does a rebuild burst issued in the same
//! scheduling tick inflate a foreground write's latency?*
//!
//! [`DiskQueues`] answers that: every operation is issued at an explicit
//! timestamp, queues FIFO behind whatever each of its disks is already
//! serving, and its latency is `completion − issue` — so a foreground
//! element landing behind a 40-element rebuild burst on the same spindle
//! pays the wait. Time never advances implicitly; the caller owns the
//! clock (the fleet harness uses one tick per simulated hour, which also
//! means queues drain naturally between ticks).

use crate::profile::DiskProfile;

/// Per-disk FIFO queues under an explicit caller-owned clock.
#[derive(Debug, Clone)]
pub struct DiskQueues {
    busy_until_ms: Vec<f64>,
    service_ms: f64,
}

impl DiskQueues {
    /// Queues for `disks` disks with the profile's per-element service
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    pub fn new(disks: usize, profile: DiskProfile) -> Self {
        assert!(disks > 0, "need at least one disk");
        DiskQueues { busy_until_ms: vec![0.0; disks], service_ms: profile.element_service_ms() }
    }

    /// Number of disks modeled.
    pub fn disks(&self) -> usize {
        self.busy_until_ms.len()
    }

    /// Issues one operation at absolute time `at_ms`: `per_disk[d]`
    /// element requests enqueue FIFO on disk `d` behind whatever is still
    /// in its queue. Returns the operation's latency (completion of its
    /// slowest disk minus `at_ms`); an operation touching no disks has
    /// zero latency.
    ///
    /// Issue order *is* queue order for same-instant operations — the
    /// caller decides who goes first (the fleet harness issues the
    /// rebuild burst before the tick's foreground writes, the
    /// conservative choice for foreground latency).
    ///
    /// # Panics
    ///
    /// Panics if `per_disk` is longer than the disk count.
    pub fn issue(&mut self, at_ms: f64, per_disk: &[u64]) -> f64 {
        assert!(per_disk.len() <= self.busy_until_ms.len(), "more request lanes than disks");
        let mut done_ms = at_ms;
        for (d, &n) in per_disk.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let begin = self.busy_until_ms[d].max(at_ms);
            let end = begin + n as f64 * self.service_ms;
            self.busy_until_ms[d] = end;
            done_ms = done_ms.max(end);
        }
        done_ms - at_ms
    }

    /// The instant disk `d` drains, in absolute milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn busy_until_ms(&self, d: usize) -> f64 {
        self.busy_until_ms[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(disks: usize) -> DiskQueues {
        DiskQueues::new(disks, DiskProfile::savvio_10k())
    }

    #[test]
    fn isolated_op_pays_only_its_bottleneck() {
        let mut q = queues(4);
        let re = DiskProfile::savvio_10k().element_service_ms();
        let lat = q.issue(0.0, &[2, 1, 0, 3]);
        assert!((lat - 3.0 * re).abs() < 1e-9);
    }

    #[test]
    fn same_instant_ops_queue_fifo() {
        let mut q = queues(2);
        let re = DiskProfile::savvio_10k().element_service_ms();
        // A 5-element burst on disk 0, then a 1-element op on disk 0 at
        // the same instant: the second op waits for the first.
        assert!((q.issue(0.0, &[5, 0]) - 5.0 * re).abs() < 1e-9);
        assert!((q.issue(0.0, &[1, 0]) - 6.0 * re).abs() < 1e-9);
        // Disk 1 is idle: an op there is unaffected.
        assert!((q.issue(0.0, &[0, 1]) - re).abs() < 1e-9);
    }

    #[test]
    fn queues_drain_between_distant_issues() {
        let mut q = queues(2);
        let re = DiskProfile::savvio_10k().element_service_ms();
        q.issue(0.0, &[8, 8]);
        // Issued long after the burst drained: full-speed again.
        let lat = q.issue(1_000_000.0, &[1, 1]);
        assert!((lat - re).abs() < 1e-9);
    }

    #[test]
    fn empty_op_is_free() {
        let mut q = queues(3);
        assert_eq!(q.issue(10.0, &[0, 0, 0]), 0.0);
        assert_eq!(q.issue(10.0, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "more request lanes than disks")]
    fn too_many_lanes_rejected() {
        queues(2).issue(0.0, &[1, 1, 1]);
    }
}
