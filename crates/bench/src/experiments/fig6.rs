//! Fig. 6 — partial-stripe-write efficiency (`p = 13` in the paper).
//!
//! Three traces (`uniform_w_10`, `uniform_w_30`, the Table II random trace)
//! are replayed against a volume per code; we record
//!
//! * **6a** the total induced element-write requests,
//! * **6b** the load-balancing rate λ (Eq. 7) over per-disk writes,
//! * **6c** the average modeled time to complete one write pattern: each
//!   of its request sets (RMW reads + writes) costs its busiest disk's
//!   element count × `Re`.

use std::sync::Arc;

use disk_sim::DiskProfile;
use raid_core::ArrayCode;
use raid_workloads::{table2_trace, uniform_write_trace, WriteTrace};

use crate::codes::evaluated;
use crate::experiments::{volume_for, DATA_SPACE};
use crate::report::{f2, Table};

/// One (code, trace) measurement.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Code name.
    pub code: String,
    /// Trace name.
    pub trace: String,
    /// Total element-write requests induced by the trace (Fig. 6a).
    pub total_writes: u64,
    /// Load balancing rate λ over writes (Fig. 6b).
    pub lambda: f64,
    /// Average modeled milliseconds per write pattern (Fig. 6c).
    pub avg_pattern_ms: f64,
}

/// The traces of Section V-A, deterministic across codes.
pub fn traces(seed: u64) -> Vec<WriteTrace> {
    vec![
        uniform_write_trace(10, 1000, DATA_SPACE - 10, seed),
        uniform_write_trace(30, 1000, DATA_SPACE - 30, seed + 1),
        table2_trace(),
    ]
}

/// Runs the full Fig. 6 experiment.
pub fn run(p: usize, seed: u64) -> Vec<Fig6Row> {
    let profile = DiskProfile::savvio_10k();
    let mut rows = Vec::new();
    for code in evaluated(p) {
        for trace in traces(seed) {
            rows.push(run_one(&code, &trace, profile));
        }
    }
    rows
}

/// Replays one trace against one code through the library replay engine.
pub fn run_one(code: &Arc<dyn ArrayCode>, trace: &WriteTrace, profile: DiskProfile) -> Fig6Row {
    let mut volume = volume_for(code);
    let out = raid_array::replay_write_trace(&mut volume, profile, trace)
        .expect("healthy replay");
    Fig6Row {
        code: code.name().to_string(),
        trace: trace.name.clone(),
        total_writes: out.total_write_requests(),
        lambda: out.lambda(),
        avg_pattern_ms: out.mean_latency_ms(),
    }
}

/// Renders a descriptive table of the traces themselves (printed before
/// Fig. 6 so the workload behind each number is part of the record).
pub fn trace_profile_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Workload profile — the traces behind Fig. 6",
        &["trace", "ops", "elements", "footprint", "mean L", "reuse"],
    );
    for trace in traces(seed) {
        let s = raid_workloads::stats::trace_stats(&trace);
        t.push(vec![
            trace.name.clone(),
            s.operations.to_string(),
            s.elements_written.to_string(),
            s.footprint.to_string(),
            f2(s.mean_len),
            f2(s.reuse_factor),
        ]);
    }
    t
}

/// Renders the three Fig. 6 panels.
pub fn tables(rows: &[Fig6Row]) -> Vec<Table> {
    let mut a = Table::new(
        "Fig. 6(a) — total induced write requests per trace (p as given)",
        &["code", "trace", "total writes"],
    );
    let mut b = Table::new(
        "Fig. 6(b) — load balancing rate λ (Eq. 7, lower is better)",
        &["code", "trace", "lambda"],
    );
    let mut c = Table::new(
        "Fig. 6(c) — avg simulated time per write pattern (ms)",
        &["code", "trace", "avg ms"],
    );
    for r in rows {
        a.push(vec![r.code.clone(), r.trace.clone(), r.total_writes.to_string()]);
        let lam = if r.lambda.is_finite() { f2(r.lambda) } else { "inf".to_string() };
        b.push(vec![r.code.clone(), r.trace.clone(), lam]);
        c.push(vec![r.code.clone(), r.trace.clone(), f2(r.avg_pattern_ms)]);
    }
    vec![a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;
    use raid_workloads::WritePattern;

    fn tiny_trace() -> WriteTrace {
        WriteTrace {
            name: "tiny".into(),
            patterns: vec![
                WritePattern { start: 0, len: 10, freq: 2 },
                WritePattern { start: 50, len: 3, freq: 1 },
            ],
        }
    }

    #[test]
    fn hv_beats_xcode_and_hdp_on_writes() {
        // The core Fig. 6a claim at small scale.
        let profile = DiskProfile::savvio_10k();
        let codes = evaluated(7);
        let trace = tiny_trace();
        let by_name = |n: &str| {
            let code = codes.iter().find(|c| c.name() == n).unwrap();
            run_one(code, &trace, profile).total_writes
        };
        let hv = by_name("HV Code");
        assert!(hv < by_name("X-Code"), "HV must induce fewer writes than X-Code");
        assert!(hv < by_name("HDP"), "HV must induce fewer writes than HDP");
    }

    #[test]
    fn hv_beats_rdp_at_paper_scale() {
        // The RDP gap emerges at the paper's operating point (p = 13,
        // length-10 uniform writes); at tiny p the longer RDP rows can
        // locally compensate.
        let profile = DiskProfile::savvio_10k();
        let trace = uniform_write_trace(10, 100, DATA_SPACE - 10, 9);
        let codes = evaluated(13);
        let by_name = |n: &str| {
            let code = codes.iter().find(|c| c.name() == n).unwrap();
            run_one(code, &trace, profile).total_writes
        };
        let hv = by_name("HV Code");
        assert!(hv < by_name("RDP"), "HV must induce fewer writes than RDP at p=13");
        // H-Code is the one competitor allowed to (marginally) tie or win.
        let h = by_name("H-Code");
        assert!((hv as f64) < h as f64 * 1.1, "HV must stay within 10% of H-Code");
    }

    #[test]
    fn balanced_codes_have_low_lambda() {
        let profile = DiskProfile::savvio_10k();
        let trace = uniform_write_trace(10, 200, 200, 3);
        let codes = evaluated(7);
        let lam = |n: &str| {
            let code = codes.iter().find(|c| c.name() == n).unwrap();
            run_one(code, &trace, profile).lambda
        };
        let rdp = lam("RDP");
        let hv = lam("HV Code");
        let x = lam("X-Code");
        assert!(hv < rdp, "HV λ ({hv}) must beat RDP λ ({rdp})");
        assert!(hv < 2.0, "HV should be near-perfectly balanced, got {hv}");
        assert!(x < 2.0, "X-Code should be near-perfectly balanced, got {x}");
    }

    #[test]
    fn rows_and_tables_align() {
        let profile = DiskProfile::savvio_10k();
        let code = &evaluated(5)[4];
        let row = run_one(code, &tiny_trace(), profile);
        let ts = tables(std::slice::from_ref(&row));
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].len(), 1);
        assert!(row.avg_pattern_ms > 0.0);
    }
}
