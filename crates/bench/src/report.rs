//! Plain-text table rendering and CSV emission for the repro harness.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple named table: one header row plus data rows of equal width.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(s, "{}", self.header.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        fs::write(path, s)
    }
}

/// One measured benchmark, as recorded by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark group ("encode_stripe", "kernels", …).
    pub group: String,
    /// Benchmark id within the group ("HV_Code/17", …).
    pub id: String,
    /// Measured nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Bytes processed per iteration, when the bench declared throughput.
    pub bytes_per_iter: Option<u64>,
}

impl BenchRecord {
    /// Throughput in MiB/s, when byte throughput was declared.
    pub fn mib_per_sec(&self) -> Option<f64> {
        let bytes = self.bytes_per_iter? as f64;
        (self.ns_per_iter > 0.0).then(|| bytes / (self.ns_per_iter * 1e-9) / (1 << 20) as f64)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Where a bench binary writes report `name` (e.g. `BENCH_encode.json`):
/// the repo root for a full `make bench` — the committed baselines — but
/// `target/bench-smoke/` under `RAID_BENCH_SMOKE=1`, whose single cold
/// iteration per benchmark must not overwrite them.
pub fn bench_report_path(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if std::env::var("RAID_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        root.join("target/bench-smoke").join(name)
    } else {
        root.join(name)
    }
}

/// Writes benchmark records as a machine-readable JSON report.
///
/// The format is stable and dependency-free: a top-level object with a
/// `notes` map (free-form context such as hardware limits) and a
/// `results` array of `{group, id, ns_per_iter, bytes_per_iter,
/// mib_per_sec}` objects.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(
    path: &Path,
    records: &[BenchRecord],
    notes: &[(&str, String)],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut s = String::from("{\n  \"notes\": {");
    for (i, (k, v)) in notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    s.push_str("\n  },\n  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let bytes = r
            .bytes_per_iter
            .map_or_else(|| "null".to_string(), |b| b.to_string());
        let mib = r
            .mib_per_sec()
            .map_or_else(|| "null".to_string(), |m| format!("{m:.1}"));
        let _ = write!(
            s,
            "{sep}\n    {{\"group\": \"{}\", \"id\": \"{}\", \"ns_per_iter\": {:.1}, \
             \"bytes_per_iter\": {bytes}, \"mib_per_sec\": {mib}}}",
            json_escape(&r.group),
            json_escape(&r.id),
            r.ns_per_iter,
        );
    }
    s.push_str("\n  ]\n}\n");
    fs::write(path, s)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["code", "value"]);
        t.push(vec!["HV".into(), "1.00".into()]);
        t.push(vec!["RDP".into(), "13.20".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("13.20"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only".into()]);
    }

    #[test]
    fn bench_json_round_trips_by_eye() {
        let dir = std::env::temp_dir().join("raid_bench_test_json");
        let path = dir.join("b.json");
        let recs = vec![
            BenchRecord {
                group: "encode_stripe".into(),
                id: "HV_Code/17".into(),
                ns_per_iter: 125_000.0,
                bytes_per_iter: Some(1 << 20),
            },
            BenchRecord {
                group: "plan".into(),
                id: "no\"bytes".into(),
                ns_per_iter: 10.0,
                bytes_per_iter: None,
            },
        ];
        write_bench_json(&path, &recs, &[("cores", "1".into())]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"HV_Code/17\""));
        assert!(s.contains("\"cores\": \"1\""));
        assert!(s.contains("\"bytes_per_iter\": null"));
        assert!(s.contains("no\\\"bytes"));
        // MiB/s: 2^20 bytes in 125 µs = 8.388608e9 B/s = 8000 MiB/s.
        assert!(s.contains("\"mib_per_sec\": 8000.0"), "{s}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_escapes() {
        let dir = std::env::temp_dir().join("raid_bench_test_csv");
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["with,comma".into(), "quo\"te".into()]);
        t.write_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"with,comma\""));
        assert!(s.contains("\"quo\"\"te\""));
        let _ = std::fs::remove_dir_all(dir);
    }
}
