//! Trace replay: drive a [`RaidVolume`] with a workload trace and time
//! each pattern — the engine behind the paper's Fig. 6/7 experiments,
//! exposed as a library so applications can evaluate a code on their own
//! traces.
//!
//! A pattern's time is the volume's own count of it: the busiest disk's
//! element count of each request set the operation committed, summed
//! ([`RaidVolume::last_op_busiest_elements`]), times the profile's
//! element service time `Re`. Operations run one after another, so no
//! disk carries work from one pattern into the next.

use disk_sim::DiskProfile;
use raid_core::io::IoLedger;
use raid_workloads::{ReadPattern, WriteTrace};

use crate::volume::{RaidVolume, VolumeError};

/// Outcome of replaying a write trace.
#[derive(Debug, Clone)]
pub struct WriteReplay {
    /// Patterns executed (repetitions included).
    pub patterns: u64,
    /// Per-pattern modeled latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The volume's I/O ledger delta for this replay.
    pub ledger: IoLedger,
}

impl WriteReplay {
    /// Total element-write requests — Fig. 6a's metric.
    pub fn total_write_requests(&self) -> u64 {
        self.ledger.total_writes()
    }

    /// Load balancing rate λ over writes — Fig. 6b's metric.
    pub fn lambda(&self) -> f64 {
        self.ledger.write_balance_rate()
    }

    /// Mean modeled latency per pattern — Fig. 6c's metric.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }
}

/// Replays a write trace pattern by pattern. Each pattern is one volume
/// write; its latency is its disk time
/// ([`RaidVolume::last_op_busiest_elements`]) × `profile`'s element
/// service time. Pattern starts are clipped to the volume's capacity.
///
/// # Errors
///
/// Returns [`VolumeError`] if the volume rejects an operation (e.g. too
/// many failed disks).
pub fn replay_write_trace(
    volume: &mut RaidVolume,
    profile: DiskProfile,
    trace: &WriteTrace,
) -> Result<WriteReplay, VolumeError> {
    let re = profile.element_service_ms();
    let element = volume.element_size();
    let baseline = volume.ledger().clone();
    let mut latencies = Vec::new();
    let mut buf = vec![0u8; 64 * element];
    let mut patterns = 0u64;

    for (start, len) in trace.expanded() {
        let start = start.min(volume.data_elements() - 1);
        let len = len.min(volume.data_elements() - start);
        if buf.len() < len * element {
            buf.resize(len * element, 0);
        }
        buf[0] = buf[0].wrapping_add(1);
        volume.write(start, &buf[..len * element])?;
        latencies.push(volume.last_op_busiest_elements() as f64 * re);
        patterns += 1;
    }
    // A write-back cache may still hold absorbed writes: flush before
    // taking the delta so the replay's ledger includes the coalesced
    // flush I/O this trace caused.
    volume.flush()?;

    let ledger = volume.ledger().delta_since(&baseline);
    Ok(WriteReplay { patterns, latencies_ms: latencies, ledger })
}

/// Outcome of replaying degraded-read patterns.
#[derive(Debug, Clone)]
pub struct ReadReplay {
    /// Per-pattern modeled latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per-pattern I/O efficiencies `L′/L` — Fig. 7b's metric.
    pub efficiencies: Vec<f64>,
    /// The volume's I/O ledger delta for this replay.
    pub ledger: IoLedger,
}

impl ReadReplay {
    /// Mean modeled latency per pattern — Fig. 7a's metric.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }

    /// Mean `L′/L`.
    pub fn mean_efficiency(&self) -> f64 {
        if self.efficiencies.is_empty() {
            0.0
        } else {
            self.efficiencies.iter().sum::<f64>() / self.efficiencies.len() as f64
        }
    }
}

/// Replays read patterns against a (possibly degraded) volume, timing
/// each as [`replay_write_trace`] does.
///
/// # Errors
///
/// Returns [`VolumeError`] if the volume rejects an operation.
pub fn replay_read_patterns(
    volume: &mut RaidVolume,
    profile: DiskProfile,
    patterns: &[ReadPattern],
) -> Result<ReadReplay, VolumeError> {
    let re = profile.element_service_ms();
    let baseline = volume.ledger().clone();
    let mut latencies = Vec::with_capacity(patterns.len());
    let mut efficiencies = Vec::with_capacity(patterns.len());
    for pat in patterns {
        let start = pat.start.min(volume.data_elements().saturating_sub(pat.len));
        let (_, receipt) = volume.read(start, pat.len)?;
        latencies.push(volume.last_op_busiest_elements() as f64 * re);
        efficiencies.push(receipt.total_reads() as f64 / pat.len as f64);
    }
    let ledger = volume.ledger().delta_since(&baseline);
    Ok(ReadReplay { latencies_ms: latencies, efficiencies, ledger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_code::HvCode;
    use raid_workloads::{degraded_read_patterns, uniform_write_trace, WritePattern};
    use std::sync::Arc;

    fn setup() -> RaidVolume {
        RaidVolume::in_memory(Arc::new(HvCode::new(7).unwrap()), 5, 8)
    }

    #[test]
    fn write_replay_accumulates() {
        let mut v = setup();
        let trace = uniform_write_trace(5, 40, v.data_elements() - 5, 3);
        let out = replay_write_trace(&mut v, DiskProfile::savvio_10k(), &trace).unwrap();
        assert_eq!(out.patterns, 40);
        assert_eq!(out.latencies_ms.len(), 40);
        assert!(out.total_write_requests() >= 40 * 5);
        assert!(out.lambda() >= 1.0);
        assert!(out.mean_latency_ms() > 0.0);
    }

    #[test]
    fn a_pattern_costs_its_request_sets_busiest_disks_times_re() {
        // HV p = 7 holds 24 data elements per stripe. A one-element
        // update reads and writes the element and its two parities, each
        // on its own disk: 2 elements on the busiest disk. Elements 23
        // and 24 straddle a stripe boundary: two such request sets, one
        // after the other.
        let mut v = setup();
        assert_eq!(v.data_elements() / 5, 24);
        let trace = WriteTrace {
            name: "hand-built".into(),
            patterns: vec![
                WritePattern { start: 0, len: 1, freq: 2 },
                WritePattern { start: 23, len: 2, freq: 1 },
            ],
        };
        let re = DiskProfile::savvio_10k().element_service_ms();
        assert_eq!(re, 105.0);
        let out = replay_write_trace(&mut v, DiskProfile::savvio_10k(), &trace).unwrap();
        assert_eq!(out.latencies_ms, [2.0 * re, 2.0 * re, (2.0 + 2.0) * re]);
        assert_eq!(out.mean_latency_ms(), 280.0);
    }

    #[test]
    fn read_replay_reports_efficiency() {
        let mut v = setup();
        v.fail_disk(2).unwrap();
        let pats = degraded_read_patterns(5, 30, v.data_elements() - 5, 9);
        let out = replay_read_patterns(&mut v, DiskProfile::savvio_10k(), &pats).unwrap();
        assert_eq!(out.efficiencies.len(), 30);
        assert!(out.mean_efficiency() >= 1.0);
        assert!(out.mean_latency_ms() > 0.0);
    }

    #[test]
    fn cached_replay_flushes_and_coalesces() {
        let trace = uniform_write_trace(3, 60, 30, 11);
        let profile = DiskProfile::savvio_10k();
        let uncached = replay_write_trace(&mut setup(), profile, &trace).unwrap();

        let mut v = setup();
        v.enable_cache(crate::cache::CacheConfig::default());
        let cached = replay_write_trace(&mut v, profile, &trace).unwrap();

        assert_eq!(cached.patterns, uncached.patterns);
        assert!(cached.ledger.cache_flushes() > 0, "the replay must flush the cache");
        assert_eq!(v.cache_dirty_stripes(), 0, "no dirty stripe may outlive the replay");
        assert!(
            cached.ledger.total() < uncached.ledger.total(),
            "coalescing must cut total element I/O ({} vs {})",
            cached.ledger.total(),
            uncached.ledger.total()
        );
    }

    #[test]
    fn replay_ledger_is_a_delta() {
        let mut v = setup();
        // Pre-existing traffic must not leak into the replay's ledger.
        v.write(0, &[1u8; 8 * 4]).unwrap();
        let before = v.ledger().total();
        assert!(before > 0);
        let trace = uniform_write_trace(2, 5, 20, 1);
        let out = replay_write_trace(&mut v, DiskProfile::savvio_10k(), &trace).unwrap();
        assert_eq!(out.ledger.total() + before, v.ledger().total());
    }
}
