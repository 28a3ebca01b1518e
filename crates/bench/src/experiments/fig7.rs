//! Fig. 7 — degraded-read efficiency (`p = 13`, `L ∈ {1,5,10,15}`,
//! 100 patterns, expectation over the failed disk).
//!
//! * **7a** average modeled time per degraded read pattern (each request
//!   set costs its busiest disk's element count × `Re`);
//! * **7b** I/O efficiency `L′/L` — elements actually fetched per element
//!   requested.

use std::sync::Arc;

use disk_sim::DiskProfile;
use raid_core::ArrayCode;
use raid_workloads::degraded_read_patterns;

use crate::codes::evaluated;
use crate::experiments::{volume_for, DATA_SPACE};
use crate::report::{f2, f3, Table};

/// One (code, L) measurement, averaged over patterns and failed disks.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Code name.
    pub code: String,
    /// Requested read length `L`.
    pub len: usize,
    /// Average modeled milliseconds per degraded read pattern (Fig. 7a).
    pub avg_pattern_ms: f64,
    /// Average `L′/L` (Fig. 7b, 1.0 is ideal).
    pub efficiency: f64,
}

/// Runs the full Fig. 7 experiment.
pub fn run(p: usize, seed: u64) -> Vec<Fig7Row> {
    let profile = DiskProfile::savvio_10k();
    let mut rows = Vec::new();
    for code in evaluated(p) {
        for &len in &[1usize, 5, 10, 15] {
            rows.push(run_one(&code, len, 100, seed, profile));
        }
    }
    rows
}

/// Measures one (code, L) cell of the figure.
pub fn run_one(
    code: &Arc<dyn ArrayCode>,
    len: usize,
    patterns: usize,
    seed: u64,
    profile: DiskProfile,
) -> Fig7Row {
    let pats = degraded_read_patterns(len, patterns, DATA_SPACE - len, seed);
    let disks = code.layout().cols();
    let mut total_ms = 0.0;
    let mut total_eff = 0.0;
    let mut count = 0u64;

    for failed in 0..disks {
        let mut volume = volume_for(code);
        volume.fail_disk(failed).expect("valid disk");
        let out = raid_array::replay_read_patterns(&mut volume, profile, &pats)
            .expect("degraded replay");
        total_ms += out.latencies_ms.iter().sum::<f64>();
        total_eff += out.efficiencies.iter().sum::<f64>();
        count += out.efficiencies.len() as u64;
    }

    Fig7Row {
        code: code.name().to_string(),
        len,
        avg_pattern_ms: total_ms / count as f64,
        efficiency: total_eff / count as f64,
    }
}

/// Renders the two Fig. 7 panels.
pub fn tables(rows: &[Fig7Row]) -> Vec<Table> {
    let mut a = Table::new(
        "Fig. 7(a) — avg simulated time per degraded read pattern (ms)",
        &["code", "L", "avg ms"],
    );
    let mut b = Table::new(
        "Fig. 7(b) — degraded read I/O efficiency L'/L (1.0 = ideal)",
        &["code", "L", "L'/L"],
    );
    for r in rows {
        a.push(vec![r.code.clone(), r.len.to_string(), f2(r.avg_pattern_ms)]);
        b.push(vec![r.code.clone(), r.len.to_string(), f3(r.efficiency)]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv_more_efficient_than_xcode() {
        // Fig. 7b's headline: X-Code pays the most extra reads, HV the
        // least (short chains + horizontal parity).
        let profile = DiskProfile::savvio_10k();
        let codes = evaluated(7);
        let eff = |n: &str| {
            let code = codes.iter().find(|c| c.name() == n).unwrap();
            run_one(code, 10, 20, 5, profile).efficiency
        };
        let hv = eff("HV Code");
        let x = eff("X-Code");
        assert!(hv < x, "HV L'/L ({hv:.3}) must beat X-Code ({x:.3})");
        assert!(hv >= 1.0, "efficiency can never drop below 1");
    }

    #[test]
    fn healthy_length_scaling() {
        let profile = DiskProfile::savvio_10k();
        let code = &evaluated(5)[4];
        let short = run_one(code, 1, 10, 2, profile);
        let long = run_one(code, 15, 10, 2, profile);
        assert!(long.avg_pattern_ms > short.avg_pattern_ms);
        // Longer reads amortize reconstruction better.
        assert!(long.efficiency <= short.efficiency + 1.5);
        let ts = tables(&[short, long]);
        assert_eq!(ts.len(), 2);
    }
}
