//! Machine-readable verification reports: measured structural metrics per
//! code, checked against the closed-form values the HV Code paper (and the
//! papers of the baseline codes) predict.
//!
//! The expectations in [`paper_expectation`] are the paper-table values as
//! functions of the prime `p` — update complexity (paper §V.B, Table-style
//! comparison of HV vs RDP/X-Code/H-Code/HDP), parity-chain lengths, and
//! the per-disk parity distribution that drives the paper's load-balance
//! argument. A mismatch means the constructed layout deviates from the
//! published construction, even if it is still a valid MDS code.

use raid_core::plan::update::update_complexity;
use raid_core::Layout;

/// Structural metrics measured from a constructed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeMetrics {
    /// Disks (columns) in the stripe.
    pub disks: usize,
    /// Rows (elements per disk).
    pub rows: usize,
    /// Average parity updates per single-element data write.
    pub update_complexity: f64,
    /// `(chain_length, count)` pairs, ascending by length. Chain length
    /// counts the parity cell itself, matching the papers' convention.
    pub chain_lengths: Vec<(usize, usize)>,
    /// Parity cells per disk, by column.
    pub parities_per_disk: Vec<usize>,
}

impl CodeMetrics {
    /// Measures `layout`.
    pub fn measure(layout: &Layout) -> CodeMetrics {
        let mut per_disk = vec![0usize; layout.cols()];
        for chain in layout.chains() {
            per_disk[chain.parity.col] += 1;
        }
        CodeMetrics {
            disks: layout.cols(),
            rows: layout.rows(),
            update_complexity: update_complexity(layout),
            chain_lengths: layout.chain_length_histogram(),
            parities_per_disk: per_disk,
        }
    }
}

/// The paper-predicted values for a code at prime `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperExpectation {
    /// Expected disks.
    pub disks: usize,
    /// Expected rows.
    pub rows: usize,
    /// Expected update complexity.
    pub update_complexity: f64,
    /// Expected `(chain_length, count)` histogram, ascending by length.
    pub chain_lengths: Vec<(usize, usize)>,
    /// Expected parity cells per disk, sorted ascending (the distribution
    /// matters for load balance; the column order does not).
    pub parities_per_disk_sorted: Vec<usize>,
}

/// Closed-form paper-table expectation for `name` at prime `p`, or `None`
/// for codes whose published tables we have not transcribed.
pub fn paper_expectation(name: &str, p: usize) -> Option<PaperExpectation> {
    match name {
        // HV Code (the paper, §III): p−1 disks, p−1 rows, optimal update
        // complexity 2, all 2(p−1) chains of length p−2, and exactly one
        // horizontal + one vertical parity per disk — perfectly balanced.
        "hv" => Some(PaperExpectation {
            disks: p - 1,
            rows: p - 1,
            update_complexity: 2.0,
            chain_lengths: vec![(p - 2, 2 * (p - 1))],
            parities_per_disk_sorted: vec![2; p - 1],
        }),
        // RDP: two dedicated parity disks; diagonal chains include the row
        // parities, which is what lifts update complexity above 2.
        "rdp" => Some(PaperExpectation {
            disks: p + 1,
            rows: p - 1,
            update_complexity: {
                let f = (p - 2) as f64 / (p - 1) as f64;
                2.0 + f * f
            },
            chain_lengths: vec![(p, 2 * (p - 1))],
            parities_per_disk_sorted: {
                let mut v = vec![0; p - 1];
                v.extend([p - 1, p - 1]);
                v
            },
        }),
        // X-Code: vertical code over p disks, two parity rows, optimal
        // update complexity, all chains length p−1.
        "xcode" => Some(PaperExpectation {
            disks: p,
            rows: p,
            update_complexity: 2.0,
            chain_lengths: vec![(p - 1, 2 * p)],
            parities_per_disk_sorted: vec![2; p],
        }),
        // H-Code: horizontal parity disk + anti-diagonals stored inside the
        // data area; one column carries no parity at all.
        "hcode" => Some(PaperExpectation {
            disks: p + 1,
            rows: p - 1,
            update_complexity: 2.0,
            chain_lengths: vec![(p, 2 * (p - 1))],
            parities_per_disk_sorted: {
                let mut v = vec![0];
                v.extend(vec![1; p - 1]);
                v.push(p - 1);
                v
            },
        }),
        // HDP: horizontal-diagonal parities consume a full diagonal each,
        // giving balanced load but update complexity 3.
        "hdp" => Some(PaperExpectation {
            disks: p - 1,
            rows: p - 1,
            update_complexity: 3.0,
            chain_lengths: vec![(p - 2, p - 1), (p - 1, p - 1)],
            parities_per_disk_sorted: vec![2; p - 1],
        }),
        _ => None,
    }
}

/// Compares measured metrics against a paper expectation; returns the list
/// of human-readable mismatches (empty = match).
pub fn diff_expectation(m: &CodeMetrics, e: &PaperExpectation) -> Vec<String> {
    let mut diffs = Vec::new();
    if m.disks != e.disks {
        diffs.push(format!("disks: measured {}, paper says {}", m.disks, e.disks));
    }
    if m.rows != e.rows {
        diffs.push(format!("rows: measured {}, paper says {}", m.rows, e.rows));
    }
    if (m.update_complexity - e.update_complexity).abs() > 1e-9 {
        diffs.push(format!(
            "update complexity: measured {:.4}, paper says {:.4}",
            m.update_complexity, e.update_complexity
        ));
    }
    if m.chain_lengths != e.chain_lengths {
        diffs.push(format!(
            "chain-length histogram: measured {:?}, paper says {:?}",
            m.chain_lengths, e.chain_lengths
        ));
    }
    let mut sorted = m.parities_per_disk.clone();
    sorted.sort_unstable();
    if sorted != e.parities_per_disk_sorted {
        diffs.push(format!(
            "parities per disk: measured {:?} (sorted), paper says {:?}",
            sorted, e.parities_per_disk_sorted
        ));
    }
    diffs
}

/// The full verification record for one code at one prime.
#[derive(Debug, Clone)]
pub struct CodeReport {
    /// Registry name of the code.
    pub code: String,
    /// The prime parameter.
    pub p: usize,
    /// Measured structural metrics.
    pub metrics: CodeMetrics,
    /// Encode-plan op count and source reads (from the proof).
    pub encode_ops: usize,
    /// Total encode source reads of the cached (optimized) plan.
    pub encode_source_reads: usize,
    /// Source reads of the unoptimized *expanded* specification form
    /// (each parity as its data-only GF(2) expansion) — what a naive
    /// chain-oblivious executor would pay, and the baseline `xopt`'s
    /// savings are reported against.
    pub encode_reads_spec: usize,
    /// Source reads of the cascaded chain-walk compile — the
    /// pre-optimizer plan shape. The cached plan never reads more than
    /// this (asserted by `check_code`).
    pub encode_reads_cascaded: usize,
    /// Scratch temps in the cached (optimized) encode plan.
    pub encode_temps: usize,
    /// Single-disk erasure patterns proven.
    pub mds_singles: usize,
    /// Double-disk erasure patterns proven.
    pub mds_pairs: usize,
    /// Crash prefixes proven all-old-or-all-new by the journal proof.
    pub journal_crash_points: usize,
    /// Paper-expectation mismatches (empty when the paper table matches or
    /// no expectation is on file).
    pub paper_diffs: Vec<String>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl CodeReport {
    /// Renders the report as a single JSON object (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let chain_lengths: Vec<String> = self
            .metrics
            .chain_lengths
            .iter()
            .map(|(len, count)| format!("[{len},{count}]"))
            .collect();
        let per_disk: Vec<String> =
            self.metrics.parities_per_disk.iter().map(|n| n.to_string()).collect();
        let diffs: Vec<String> =
            self.paper_diffs.iter().map(|d| format!("\"{}\"", json_escape(d))).collect();
        format!(
            concat!(
                "{{\"code\":\"{}\",\"p\":{},\"disks\":{},\"rows\":{},",
                "\"update_complexity\":{:.6},\"chain_lengths\":[{}],",
                "\"parities_per_disk\":[{}],\"encode_ops\":{},",
                "\"encode_source_reads\":{},\"encode_reads_spec\":{},",
                "\"encode_reads_cascaded\":{},\"encode_temps\":{},",
                "\"mds_singles\":{},\"mds_pairs\":{},",
                "\"journal_crash_points\":{},",
                "\"paper_match\":{},\"paper_diffs\":[{}]}}"
            ),
            json_escape(&self.code),
            self.p,
            self.metrics.disks,
            self.metrics.rows,
            self.metrics.update_complexity,
            chain_lengths.join(","),
            per_disk.join(","),
            self.encode_ops,
            self.encode_source_reads,
            self.encode_reads_spec,
            self.encode_reads_cascaded,
            self.encode_temps,
            self.mds_singles,
            self.mds_pairs,
            self.journal_crash_points,
            self.paper_diffs.is_empty(),
            diffs.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv_expectation_matches_measurement() {
        for p in [5usize, 7, 11] {
            let code = hv_code::HvCode::new(p).unwrap();
            let m = CodeMetrics::measure(raid_core::ArrayCode::layout(&code));
            let e = paper_expectation("hv", p).unwrap();
            assert_eq!(diff_expectation(&m, &e), Vec::<String>::new());
        }
    }

    #[test]
    fn expectation_diff_reports_mismatch() {
        let code = hv_code::HvCode::new(5).unwrap();
        let m = CodeMetrics::measure(raid_core::ArrayCode::layout(&code));
        let mut e = paper_expectation("hv", 5).unwrap();
        e.update_complexity = 3.0;
        let diffs = diff_expectation(&m, &e);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("update complexity"), "{diffs:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let code = hv_code::HvCode::new(5).unwrap();
        let layout = raid_core::ArrayCode::layout(&code);
        let report = CodeReport {
            code: "hv".into(),
            p: 5,
            metrics: CodeMetrics::measure(layout),
            encode_ops: layout.chains().len(),
            encode_source_reads: 0,
            encode_reads_spec: 0,
            encode_reads_cascaded: 0,
            encode_temps: 0,
            mds_singles: 4,
            mds_pairs: 6,
            journal_crash_points: 0,
            paper_diffs: vec!["a \"quoted\" diff".into()],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"code\":\"hv\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"paper_match\":false"));
    }
}
