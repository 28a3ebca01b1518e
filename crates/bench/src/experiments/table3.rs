//! Table III — the structural comparison between HV Code and the other
//! MDS array codes, computed from the layouts rather than transcribed.

use raid_array::DiskProfile;
use raid_core::plan::update::update_complexity;
use raid_core::schedule::double_failure_schedule;
use raid_workloads::uniform_write_trace;

use crate::codes::evaluated;
use crate::experiments::DATA_SPACE;
use crate::report::{f2, Table};

/// One code's computed Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Code name.
    pub code: String,
    /// Disks used at this `p`.
    pub disks: usize,
    /// λ under `uniform_w_10` (the paper's "balanced" / "unbalanced").
    pub lambda: f64,
    /// Average parity updates per data write ("update complexity").
    pub update_complexity: f64,
    /// Average induced writes for a 2-continuous-element partial write
    /// ("partial stripe writes" cost).
    pub two_element_write_cost: f64,
    /// Minimum parallel recovery chains over all double failures.
    pub recovery_chains: usize,
    /// Parity chain lengths as `len×count` pairs.
    pub chain_lengths: String,
}

/// Computes Table III at the given prime.
pub fn run(p: usize, seed: u64) -> Vec<Table3Row> {
    let profile = DiskProfile::savvio_10k();
    let trace = uniform_write_trace(10, 500, DATA_SPACE - 10, seed);
    evaluated(p)
        .into_iter()
        .map(|code| {
            let layout = code.layout();
            let lambda = crate::experiments::fig6::run_one(&code, &trace, profile).lambda;

            // Average cost of every 2-element aligned partial write.
            let data = layout.num_data_cells();
            let mut write_cost = 0.0;
            for start in 0..data - 1 {
                let plan = raid_core::plan::write::plan_partial_write(layout, start, 2);
                write_cost += plan.total_writes() as f64;
            }
            write_cost /= (data - 1) as f64;

            let n = layout.cols();
            let mut min_chains = usize::MAX;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let sched =
                        double_failure_schedule(layout, f1, f2).expect("MDS pair");
                    min_chains = min_chains.min(sched.num_chains);
                }
            }

            let lengths = layout
                .chain_length_histogram()
                .into_iter()
                .map(|(len, count)| format!("{len}x{count}"))
                .collect::<Vec<_>>()
                .join(" ");

            Table3Row {
                code: code.name().to_string(),
                disks: n,
                lambda,
                update_complexity: update_complexity(layout),
                two_element_write_cost: write_cost,
                recovery_chains: min_chains,
                chain_lengths: lengths,
            }
        })
        .collect()
}

/// Renders the computed Table III.
pub fn table(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(
        "Table III — computed structural comparison",
        &[
            "code",
            "disks",
            "λ(uniform_w_10)",
            "update complexity",
            "2-elem write cost",
            "recovery chains",
            "chain lengths",
        ],
    );
    for r in rows {
        let lam = if r.lambda.is_finite() { f2(r.lambda) } else { "inf".into() };
        t.push(vec![
            r.code.clone(),
            r.disks.to_string(),
            lam,
            f2(r.update_complexity),
            f2(r.two_element_write_cost),
            r.recovery_chains.to_string(),
            r.chain_lengths.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table_three() {
        let rows = run(7, 11);
        let get = |n: &str| rows.iter().find(|r| r.code == n).unwrap();

        // Update complexity column.
        assert!(get("RDP").update_complexity > 2.0);
        assert!((get("HDP").update_complexity - 3.0).abs() < 0.4);
        assert!((get("X-Code").update_complexity - 2.0).abs() < 1e-9);
        assert!((get("H-Code").update_complexity - 2.0).abs() < 1e-9);
        assert!((get("HV Code").update_complexity - 2.0).abs() < 1e-9);

        // Recovery chain column: 4 for X-Code and HV, 2 for the rest.
        assert_eq!(get("X-Code").recovery_chains, 4);
        assert_eq!(get("HV Code").recovery_chains, 4);
        assert!(get("RDP").recovery_chains <= 2);
        assert!(get("H-Code").recovery_chains <= 2);

        // Chain lengths: p for RDP/H-Code, p−1 for X-Code, p−2 for HV.
        assert!(get("RDP").chain_lengths.starts_with("7x"));
        assert!(get("H-Code").chain_lengths.starts_with("7x"));
        assert!(get("X-Code").chain_lengths.starts_with("6x"));
        assert!(get("HV Code").chain_lengths.starts_with("5x"));

        // Balance: HV/HDP/X-Code balanced, RDP unbalanced.
        assert!(get("HV Code").lambda < 2.0);
        assert!(get("RDP").lambda > get("HV Code").lambda);

        // Partial stripe writes: HV and H-Code cheapest.
        assert!(get("HV Code").two_element_write_cost <= get("X-Code").two_element_write_cost);
        assert!(get("HV Code").two_element_write_cost <= get("HDP").two_element_write_cost);
    }

    #[test]
    fn renders() {
        let rows = run(5, 1);
        assert_eq!(table(&rows).len(), 5);
    }
}
