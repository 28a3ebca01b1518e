//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p raid-bench --bin repro -- all
//! cargo run --release -p raid-bench --bin repro -- fig6a fig7b table3
//! cargo run --release -p raid-bench --bin repro -- --p 13 --seed 42 --csv results fig6a
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use raid_bench::experiments::{ablation, complexity, fig6, fig7, fig8, fig9, table3};
use raid_bench::report::Table;

struct Options {
    p: usize,
    seed: u64,
    csv_dir: Option<PathBuf>,
    targets: Vec<String>,
}

const USAGE: &str = "usage: repro [--p <prime>] [--seed <n>] [--csv <dir>] <target>...
targets: traces fig6a fig6b fig6c fig7a fig7b fig8 fig9a fig9b table3 complexity ablation-rotation all";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { p: 13, seed: 20140623, csv_dir: None, targets: Vec::new() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--p" => {
                let v = args.next().ok_or("--p needs a value")?;
                opts.p = v.parse().map_err(|_| format!("bad --p value: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            t if !t.starts_with('-') => opts.targets.push(t.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if opts.targets.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// Prints each table and, under `--csv`, writes it; a failed write ends
/// the run with a non-zero exit (`make repro-check` diffs these files).
fn emit(tables: &[Table], opts: &Options) {
    for t in tables {
        println!("{}", t.render());
        if let Some(dir) = &opts.csv_dir {
            let file = t
                .title()
                .chars()
                .take_while(|&c| c != '—')
                .collect::<String>()
                .trim()
                .to_lowercase()
                .replace(['.', '(', ')', ' '], "_");
            let path = dir.join(format!("{file}.csv"));
            if let Err(e) = t.write_csv(&path) {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("  [csv] {}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut targets: Vec<String> = opts.targets.clone();
    if targets.iter().any(|t| t == "all") {
        targets = [
            "traces",
            "fig6a",
            "fig6b",
            "fig6c",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9a",
            "fig9b",
            "table3",
            "complexity",
            "ablation-rotation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // Cache shared runs so `repro all` computes each experiment once.
    let mut fig6_rows: Option<Vec<fig6::Fig6Row>> = None;
    let mut fig7_rows: Option<Vec<fig7::Fig7Row>> = None;

    let fig9_primes: Vec<usize> = [5usize, 7, 11, 13, 17, 19, 23]
        .into_iter()
        .filter(|&q| q <= opts.p.max(23))
        .collect();

    for target in &targets {
        match target.as_str() {
            "traces" => {
                emit(&[fig6::trace_profile_table(opts.seed)], &opts);
            }
            "fig6a" | "fig6b" | "fig6c" => {
                let rows = fig6_rows
                    .get_or_insert_with(|| {
                        eprintln!("[run] Fig. 6 traces at p = {} ...", opts.p);
                        fig6::run(opts.p, opts.seed)
                    })
                    .clone();
                let all = fig6::tables(&rows);
                let idx = match target.as_str() {
                    "fig6a" => 0,
                    "fig6b" => 1,
                    _ => 2,
                };
                emit(&all[idx..=idx], &opts);
            }
            "fig7a" | "fig7b" => {
                let rows = fig7_rows
                    .get_or_insert_with(|| {
                        eprintln!("[run] Fig. 7 degraded reads at p = {} ...", opts.p);
                        fig7::run(opts.p, opts.seed)
                    })
                    .clone();
                let all = fig7::tables(&rows);
                let idx = if target == "fig7a" { 0 } else { 1 };
                emit(&all[idx..=idx], &opts);
            }
            "fig8" => {
                eprintln!("[run] Fig. 8 recovery plan (p = 7, disk #1) ...");
                let (rows, total) = fig8::run(7, 0);
                emit(&[fig8::table(7, 0, &rows, total)], &opts);
            }
            "fig9a" => {
                eprintln!("[run] Fig. 9a sweep over p = {fig9_primes:?} ...");
                let rows = fig9::run_9a(&fig9_primes);
                emit(&[fig9::table_9a(&rows)], &opts);
            }
            "fig9b" => {
                eprintln!("[run] Fig. 9b sweep over p = {fig9_primes:?} ...");
                let rows = fig9::run_9b(&fig9_primes);
                emit(&[fig9::table_9b(&rows)], &opts);
            }
            "table3" => {
                eprintln!("[run] Table III at p = {} ...", opts.p);
                let rows = table3::run(opts.p, opts.seed);
                emit(&[table3::table(&rows)], &opts);
            }
            "complexity" => {
                eprintln!("[run] Section IV complexity at p = {} ...", opts.p);
                let rows = complexity::run(opts.p);
                emit(&[complexity::table(opts.p, &rows)], &opts);
            }
            "ablation-rotation" => {
                eprintln!("[run] rotation ablation at p = {} ...", opts.p);
                let rows = ablation::rotation(opts.p, opts.seed);
                emit(&[ablation::rotation_table(&rows)], &opts);
            }
            other => {
                eprintln!("unknown target {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
