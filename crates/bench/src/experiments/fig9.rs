//! Fig. 9 — disk-failure recovery.
//!
//! * **9a** minimum average elements read per repaired element under a
//!   single disk failure (hybrid-chain recovery, expectation over the
//!   failed disk), swept over `p`;
//! * **9b** expected double-failure reconstruction time, modeled as the
//!   paper does (`Lc · Re`, Section V-D) with `Lc` the longest recovery
//!   chain of the generic peeling scheduler, expectation over all failed
//!   pairs.

use raid_array::DiskProfile;
use raid_core::plan::single::plan_single_disk_recovery;
use raid_core::schedule::double_failure_schedule;

use crate::codes::evaluated;
use crate::report::{f2, f3, Table};

/// One (code, p) cell of Fig. 9a.
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Code name.
    pub code: String,
    /// The prime swept on the x-axis.
    pub p: usize,
    /// Average elements read per repaired element.
    pub reads_per_element: f64,
}

/// One (code, p) cell of Fig. 9b.
#[derive(Debug, Clone)]
pub struct Fig9bRow {
    /// Code name.
    pub code: String,
    /// The prime swept on the x-axis.
    pub p: usize,
    /// Expected longest recovery chain `Lc` over all failure pairs.
    pub expected_lc: f64,
    /// Average number of parallel recovery chains.
    pub avg_chains: f64,
    /// Modeled reconstruction time `E[Lc] · Re` in ms.
    pub time_ms: f64,
}

/// Runs Fig. 9a for the given primes.
pub fn run_9a(primes: &[usize]) -> Vec<Fig9aRow> {
    let mut rows = Vec::new();
    for &p in primes {
        for code in evaluated(p) {
            let layout = code.layout();
            let mut total = 0.0;
            for failed in 0..layout.cols() {
                let plan = plan_single_disk_recovery(layout, failed);
                total += plan.reads_per_element();
            }
            rows.push(Fig9aRow {
                code: code.name().to_string(),
                p,
                reads_per_element: total / layout.cols() as f64,
            });
        }
    }
    rows
}

/// Runs Fig. 9b for the given primes.
pub fn run_9b(primes: &[usize]) -> Vec<Fig9bRow> {
    let re = DiskProfile::savvio_10k().element_service_ms();
    let mut rows = Vec::new();
    for &p in primes {
        for code in evaluated(p) {
            let layout = code.layout();
            let n = layout.cols();
            let mut lc_sum = 0usize;
            let mut chain_sum = 0usize;
            let mut pairs = 0usize;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let sched = double_failure_schedule(layout, f1, f2)
                        .expect("MDS code repairs any pair");
                    lc_sum += sched.longest_chain;
                    chain_sum += sched.num_chains;
                    pairs += 1;
                }
            }
            let expected_lc = lc_sum as f64 / pairs as f64;
            rows.push(Fig9bRow {
                code: code.name().to_string(),
                p,
                expected_lc,
                avg_chains: chain_sum as f64 / pairs as f64,
                time_ms: re * expected_lc,
            });
        }
    }
    rows
}

/// Renders Fig. 9a.
pub fn table_9a(rows: &[Fig9aRow]) -> Table {
    let mut t = Table::new(
        "Fig. 9(a) — recovery I/O per lost element, single disk failure",
        &["code", "p", "reads/element"],
    );
    for r in rows {
        t.push(vec![r.code.clone(), r.p.to_string(), f3(r.reads_per_element)]);
    }
    t
}

/// Renders Fig. 9b.
pub fn table_9b(rows: &[Fig9bRow]) -> Table {
    let mut t = Table::new(
        "Fig. 9(b) — double failure recovery (E[Lc], parallel chains, Lc·Re time)",
        &["code", "p", "E[Lc]", "chains", "time ms"],
    );
    for r in rows {
        t.push(vec![
            r.code.clone(),
            r.p.to_string(),
            f2(r.expected_lc),
            f2(r.avg_chains),
            f2(r.time_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value<'a>(rows: &'a [Fig9aRow], name: &str) -> &'a Fig9aRow {
        rows.iter().find(|r| r.code == name).unwrap()
    }

    #[test]
    fn hv_needs_fewest_reads_per_element() {
        // The Fig. 9a headline, at p = 7 where the paper quotes its largest
        // savings (5.4%–39.8%).
        let rows = run_9a(&[7]);
        let hv = value(&rows, "HV Code").reads_per_element;
        for other in ["RDP", "HDP", "X-Code", "H-Code"] {
            assert!(
                hv <= value(&rows, other).reads_per_element + 1e-9,
                "HV ({hv}) must not exceed {other}"
            );
        }
        assert!(hv < value(&rows, "H-Code").reads_per_element, "strict win vs H-Code");
    }

    #[test]
    fn hv_and_xcode_have_four_chains_and_beat_rdp() {
        let rows = run_9b(&[7]);
        let get = |n: &str| rows.iter().find(|r| r.code == n).unwrap();
        assert!((get("HV Code").avg_chains - 4.0).abs() < 1e-9);
        assert!((get("X-Code").avg_chains - 4.0).abs() < 1e-9);
        assert!(get("HV Code").expected_lc < get("RDP").expected_lc);
        assert!(get("X-Code").expected_lc < get("H-Code").expected_lc);
    }

    #[test]
    fn tables_render() {
        let a = run_9a(&[5]);
        let b = run_9b(&[5]);
        assert_eq!(table_9a(&a).len(), 5);
        assert_eq!(table_9b(&b).len(), 5);
    }
}
