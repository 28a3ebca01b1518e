//! Ablation beyond the paper's figures: stripe rotation vs parity
//! spreading. Rotation fixes a *uniform* workload's imbalance for
//! dedicated-parity codes, but a skewed (hot-spot) workload defeats it,
//! exactly the paper's Section II argument for spreading parities inside
//! the stripe.

use std::sync::Arc;

use raid_array::RaidVolume;
use raid_workloads::{uniform_write_trace, WritePattern, WriteTrace};

use crate::codes::evaluated;
use crate::experiments::{DATA_SPACE, ELEMENT_BYTES};
use crate::report::{f2, Table};

/// One (code, rotation, trace) λ measurement.
#[derive(Debug, Clone)]
pub struct RotationRow {
    /// Code name.
    pub code: String,
    /// Whether stripe rotation was enabled.
    pub rotated: bool,
    /// Trace label ("uniform" / "hot-spot").
    pub trace: String,
    /// Load balancing rate λ.
    pub lambda: f64,
}

/// A hot-spot trace: every write lands in the first stripe's elements —
/// the skewed access the paper argues rotation cannot fix.
fn hot_spot_trace(len: usize, count: usize) -> WriteTrace {
    WriteTrace {
        name: "hot_spot".into(),
        patterns: (0..count)
            .map(|i| WritePattern { start: (i * 3) % 20, len, freq: 1 })
            .collect(),
    }
}

/// Runs the rotation ablation at one prime.
pub fn rotation(p: usize, seed: u64) -> Vec<RotationRow> {
    let uniform = uniform_write_trace(10, 400, DATA_SPACE - 10, seed);
    let hot = hot_spot_trace(10, 400);
    let mut rows = Vec::new();
    for code in evaluated(p) {
        for rotated in [false, true] {
            for trace in [&uniform, &hot] {
                let per_stripe = code.layout().num_data_cells();
                let stripes = DATA_SPACE.div_ceil(per_stripe);
                let mut volume = RaidVolume::with_rotation(
                    Arc::clone(&code),
                    stripes,
                    ELEMENT_BYTES,
                    rotated,
                );
                let mut buf = vec![0u8; 64 * ELEMENT_BYTES];
                for (start, len) in trace.expanded() {
                    let len = len.min(volume.data_elements() - start);
                    if buf.len() < len * ELEMENT_BYTES {
                        buf.resize(len * ELEMENT_BYTES, 0);
                    }
                    volume.write(start, &buf[..len * ELEMENT_BYTES]).expect("in range");
                }
                rows.push(RotationRow {
                    code: code.name().to_string(),
                    rotated,
                    trace: trace.name.clone(),
                    lambda: volume.ledger().write_balance_rate(),
                });
            }
        }
    }
    rows
}

/// Renders the rotation ablation.
pub fn rotation_table(rows: &[RotationRow]) -> Table {
    let mut t = Table::new(
        "Ablation — stripe rotation vs parity spreading (λ, lower is better)",
        &["code", "rotation", "trace", "lambda"],
    );
    for r in rows {
        let lam = if r.lambda.is_finite() { f2(r.lambda) } else { "inf".into() };
        t.push(vec![
            r.code.clone(),
            if r.rotated { "on" } else { "off" }.into(),
            r.trace.clone(),
            lam,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_helps_uniform_but_not_hot_spot_for_rdp() {
        let rows = rotation(5, 3);
        let lam = |rot: bool, trace: &str| {
            rows.iter()
                .find(|r| r.code == "RDP" && r.rotated == rot && r.trace.contains(trace))
                .unwrap()
                .lambda
        };
        // Uniform: rotation flattens RDP's parity-disk hot spot.
        assert!(lam(true, "uniform") < lam(false, "uniform"));
        // Hot-spot: rotation cannot rescue RDP; HV stays balanced without it.
        let hv_hot = rows
            .iter()
            .find(|r| r.code == "HV Code" && !r.rotated && r.trace == "hot_spot")
            .unwrap()
            .lambda;
        assert!(
            lam(true, "hot_spot") > hv_hot,
            "rotated RDP must stay worse than unrotated HV on a hot spot"
        );
    }
}
