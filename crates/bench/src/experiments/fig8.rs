//! Fig. 8 — the worked single-disk recovery example: which chain repairs
//! each lost element of a failed HV disk and what gets read.
//!
//! The paper's figure (p = 7, disk #1) retrieves 18 elements — 3 per lost
//! element — by mixing horizontal and vertical chains to maximize overlap.

use hv_code::HvCode;
use raid_core::layout::ParityClass;
use raid_core::plan::single::plan_single_disk_recovery;
use raid_core::ArrayCode;

use crate::report::Table;

/// One repaired element's row in the Fig. 8 table.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// The lost element (1-based, paper notation).
    pub element: String,
    /// Chain family used.
    pub via: String,
    /// Elements read for this repair (1-based).
    pub sources: String,
}

/// Computes the Fig. 8 plan for `failed_disk` of the HV code at prime `p`.
///
/// # Panics
///
/// Panics if `p` is not a valid HV prime or the disk is out of range.
pub fn run(p: usize, failed_disk: usize) -> (Vec<Fig8Row>, usize) {
    let code = HvCode::new(p).expect("prime p >= 5");
    let layout = code.layout();
    let plan = plan_single_disk_recovery(layout, failed_disk);
    let rows = plan
        .choices
        .iter()
        .map(|(cell, chain_id)| {
            let chain = layout.chain(*chain_id);
            let via = match chain.class {
                ParityClass::Horizontal => "horizontal",
                ParityClass::Vertical => "vertical",
                other => unreachable!("HV has no {other} chains"),
            };
            let sources: Vec<String> = chain
                .cells()
                .filter(|c| c != cell)
                .map(|c| format!("E[{},{}]", c.row + 1, c.col + 1))
                .collect();
            Fig8Row {
                element: format!("E[{},{}]", cell.row + 1, cell.col + 1),
                via: via.to_string(),
                sources: sources.join(" "),
            }
        })
        .collect();
    (rows, plan.total_reads())
}

/// Renders the Fig. 8 table.
pub fn table(p: usize, failed_disk: usize, rows: &[Fig8Row], total: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 8 — single-disk recovery plan, HV Code p={p}, disk #{} ({} distinct reads)",
            failed_disk + 1,
            total
        ),
        &["lost element", "via", "reads"],
    );
    for r in rows {
        t.push(vec![r.element.clone(), r.via.clone(), r.sources.clone()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_reads_eighteen() {
        let (rows, total) = run(7, 0);
        assert_eq!(rows.len(), 6);
        assert_eq!(total, 18, "Fig. 8: 18 elements, 3 per lost element");
        // The optimum requires mixing both chain families.
        assert!(rows.iter().any(|r| r.via == "horizontal"));
        assert!(rows.iter().any(|r| r.via == "vertical"));
    }

    #[test]
    fn renders() {
        let (rows, total) = run(7, 0);
        let t = table(7, 0, &rows, total);
        assert_eq!(t.len(), 6);
        assert!(t.title().contains("18"));
    }
}
