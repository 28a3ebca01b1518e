//! `hvbench compare A B`: is B worse than A by more than the benchmark
//! allows? One row per workload and end-to-end metric, judged with the
//! bounds and directions `BENCHMARK.json` fixes.

use std::fs;
use std::path::{Path, PathBuf};

use crate::env::bench_dir;
use crate::json::{self, Value};
use crate::report::{median, quartiles};

/// Result files of one side: the file itself, or every `*.json` of a
/// directory.
fn result_files(path: &Path) -> Result<Vec<Value>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("untraced")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Interquartile range over the median: the driver's measure of spread.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(&mut values.to_vec());
    let mid = median(&mut values.to_vec());
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Prints the table; `Ok(true)` when no row is `regressed` or
/// `unresolved`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let spec_path = bench_dir().join("../BENCHMARK.json");
    let spec = fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|text| json::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display())))?;
    let (runs_a, runs_b) = (result_files(a)?, result_files(b)?);
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    let mut clean = true;
    for workload in spec.get("workloads").map(Value::items).unwrap_or_default() {
        let workload = workload.get("name").and_then(Value::as_str).unwrap_or_default();
        for metric in spec.get("end_to_end").map(Value::items).unwrap_or_default() {
            let name = metric.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower_is_better = metric.get("better").and_then(Value::as_str) == Some("lower");
            let (va, vb) = (values(&runs_a, workload, name), values(&runs_b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<22} {name:<16} missing on one side");
                clean = false;
                continue;
            }
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let worse = match (ma == 0.0, lower_is_better) {
                (true, _) => 0.0,
                (false, true) => (mb - ma) / ma,
                (false, false) => (ma - mb) / ma,
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let every_b_better =
                vb.iter().all(|&y| va.iter().all(|&x| if lower_is_better { y < x } else { y > x }));
            // Spread wider than the bound cannot show "no worse than the
            // bound" — unless every run of B beats every run of A.
            let verdict = if sa.max(sb) > bound && !every_b_better {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "ok"
            };
            clean &= verdict == "ok";
            println!(
                "{workload:<22} {name:<16} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>6.2}% {:>6.2}% {:>5.1}%  {verdict}",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
        }
    }
    println!("A: {} run(s), B: {} run(s)", runs_a.len(), runs_b.len());
    Ok(clean)
}
