//! Section IV-2 — construction / reconstruction / update computational
//! complexity, counted from the layouts.
//!
//! The paper derives the optima (via the P-Code paper): encoding costs
//! `(3x − mn)/x` XORs per data element and double-failure reconstruction
//! `(3x − mn)/(mn − x)` XORs per lost element, for an `m × n` stripe with
//! `x` data elements; HV Code meets both. This target counts the actual
//! XOR operations each code performs and prints them next to its own
//! optimum, so the "optimal complexity" claim is checkable at a glance.

use raid_core::plan::update::update_complexity;
use raid_core::schedule::double_failure_schedule;

use crate::codes::extended;
use crate::report::{f3, Table};

/// One code's complexity row.
#[derive(Debug, Clone)]
pub struct ComplexityRow {
    /// Code name.
    pub code: String,
    /// Measured encode XORs per data element.
    pub encode_per_data: f64,
    /// The `(3x − mn)/x` optimum for this code's stripe shape.
    pub encode_optimum: f64,
    /// Measured reconstruction XORs per lost element (expectation over all
    /// double failures).
    pub decode_per_lost: f64,
    /// The `(3x − mn)/(mn − x)` optimum.
    pub decode_optimum: f64,
    /// Average parity writes per data write.
    pub update: f64,
}

/// Computes the complexity table at prime `p`.
pub fn run(p: usize) -> Vec<ComplexityRow> {
    extended(p)
        .into_iter()
        .map(|code| {
            let layout = code.layout();
            let mn = layout.num_cells() as f64;
            let x = layout.num_data_cells() as f64;

            // Encoding: (members − 1) XORs per chain.
            let encode_ops: usize =
                layout.chains().iter().map(|ch| ch.members.len() - 1).sum();

            // Reconstruction: expectation over all pairs of the XOR count
            // of the generic schedule (each step XORs |sources| − 1 times).
            let n = layout.cols();
            let mut decode_ops = 0usize;
            let mut lost_elements = 0usize;
            for f1 in 0..n {
                for f2 in (f1 + 1)..n {
                    let sched = double_failure_schedule(layout, f1, f2)
                        .expect("MDS pair");
                    for (cell, _) in &sched.steps {
                        // The step's equation XORs (chain length − 2) times.
                        let eqs = layout.equations_of(*cell);
                        let len = eqs
                            .iter()
                            .map(|id| layout.chain(*id).len())
                            .min()
                            .unwrap_or(2);
                        decode_ops += len.saturating_sub(2);
                        lost_elements += 1;
                    }
                }
            }

            ComplexityRow {
                code: code.name().to_string(),
                encode_per_data: encode_ops as f64 / x,
                encode_optimum: (3.0 * x - mn) / x,
                decode_per_lost: decode_ops as f64 / lost_elements as f64,
                decode_optimum: (3.0 * x - mn) / (mn - x),
                update: update_complexity(layout),
            }
        })
        .collect()
}

/// Renders the complexity table.
pub fn table(p: usize, rows: &[ComplexityRow]) -> Table {
    let mut t = Table::new(
        format!("Section IV — computational complexity at p = {p} (XORs per element)"),
        &["code", "encode", "enc. optimum", "decode", "dec. optimum", "update"],
    );
    for r in rows {
        t.push(vec![
            r.code.clone(),
            f3(r.encode_per_data),
            f3(r.encode_optimum),
            f3(r.decode_per_lost),
            f3(r.decode_optimum),
            f3(r.update),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv_meets_both_optima() {
        for p in [7usize, 13] {
            let rows = run(p);
            let hv = rows.iter().find(|r| r.code == "HV Code").unwrap();
            assert!(
                (hv.encode_per_data - hv.encode_optimum).abs() < 1e-9,
                "p={p}: encode {hv:?}"
            );
            assert!(
                (hv.decode_per_lost - hv.decode_optimum).abs() < 1e-9,
                "p={p}: decode {hv:?}"
            );
        }
    }

    #[test]
    fn evenodd_pays_for_its_adjuster() {
        // EVENODD's S-diagonal makes its diagonal chains nearly twice as
        // long, so its encode cost per element sits well above its optimum.
        let rows = run(7);
        let eo = rows.iter().find(|r| r.code == "EVENODD").unwrap();
        assert!(eo.encode_per_data > eo.encode_optimum * 1.2, "{eo:?}");
    }

    #[test]
    fn renders() {
        let rows = run(5);
        assert_eq!(table(5, &rows).len(), 7);
    }
}
