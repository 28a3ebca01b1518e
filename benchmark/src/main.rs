//! `hvbench`: the repo's one benchmark — five workloads timed end to end
//! and layer by layer, from the unix socket down to the XOR kernel. See
//! `benchmark/README.md` for the command, the metrics and how to read
//! them.

mod client;
mod compare;
mod e2e;
mod env;
mod gen;
mod json;
mod ladder;
mod probes;
mod report;
mod rig;
mod sut;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use gen::Workload;
use report::Settings;

const USAGE: &str = "usage:
  hvbench [--seed N] [--seconds S] [--smoke] [--repeat N] [--out DIR]
      every workload, untraced then traced, each in a fresh process;
      writes DIR/run-<k>.json and DIR/trace-<workload>.jsonl
      (default DIR: benchmark/out)
  hvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
      one run of one workload; the last line of stdout is its result
  hvbench compare A B
      A, B: result files or directories of them; judges B against A by
      the bounds in BENCHMARK.json";

struct Args {
    workload: Option<Workload>,
    settings: Settings,
    trace: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        settings: Settings { seed: 1, seconds: 10.0, smoke: false, out: env::default_out_dir() },
        trace: false,
        repeat: 1,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => parsed.settings.seed = number(flag, value()?)?,
            "--seconds" => {
                parsed.settings.seconds = number(flag, value()?)?;
                seconds_given = true;
            }
            "--trace" => parsed.trace = number::<u8>(flag, value()?)? != 0,
            "--repeat" => parsed.repeat = number(flag, value()?)?,
            "--out" => parsed.settings.out = env::relative(&PathBuf::from(value()?)),
            "--smoke" => parsed.settings.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if parsed.settings.smoke && !seconds_given {
        parsed.settings.seconds = 0.5;
    }
    if !(parsed.settings.seconds > 0.0 && parsed.settings.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    std::fs::create_dir_all(&parsed.settings.out)
        .map_err(|e| format!("{}: {e}", parsed.settings.out.display()))?;
    Ok(parsed)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: cannot read {text:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&parsed),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("hvbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn header(workload: Workload, parsed: &Args) -> String {
    format!(
        "hvbench {} trace={} seed={} window_s={} clients={} nproc={} xor={} rev={}{}",
        workload.name(),
        u8::from(parsed.trace),
        parsed.settings.seed,
        parsed.settings.seconds,
        workload.shape().clients,
        env::nproc(),
        sut::xor_backend_name(),
        env::git_rev(),
        if parsed.settings.smoke { " SMOKE (numbers mean nothing)" } else { "" },
    )
}

/// One run of one workload in this process; the result line comes last.
fn run_one(workload: Workload, parsed: &Args) -> Result<bool, String> {
    println!("{}", header(workload, parsed));
    println!(
        "workload_digest {:016x}  # {}",
        gen::workload_digest(workload, parsed.settings.seed),
        workload.why()
    );
    let outcome = if parsed.trace {
        ladder::run(workload, &parsed.settings)?
    } else {
        e2e::run(workload, &parsed.settings)?
    };
    outcome.print_table();
    println!("{}", outcome.to_json());
    Ok(outcome.correct)
}

/// Every workload, untraced then traced, each in a fresh process (so
/// `peak_rss_mib` and the caches are the workload's own), `repeat` times;
/// each repetition becomes one result file.
fn run_all(parsed: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = &parsed.settings.out;
    let mut all_correct = true;
    for k in 1..=parsed.repeat {
        let mut file = format!(
            "{{\"header\": {{\"nproc\": {}, \"xor_backend\": \"{}\", \"git_rev\": \"{}\", \"seed\": {}, \"window_s\": {}, \"smoke\": {}}}, \"workloads\": {{",
            env::nproc(),
            sut::xor_backend_name(),
            env::git_rev(),
            parsed.settings.seed,
            parsed.settings.seconds,
            parsed.settings.smoke
        );
        for (i, workload) in Workload::ALL.into_iter().enumerate() {
            let mut lines = Vec::new();
            for trace in ["0", "1"] {
                let mut child = Command::new(&exe);
                child.args(["--workload", workload.name(), "--trace", trace]);
                child.args(["--seed", &parsed.settings.seed.to_string()]);
                child.args(["--seconds", &parsed.settings.seconds.to_string()]);
                child.arg("--out").arg(out);
                if parsed.settings.smoke {
                    child.arg("--smoke");
                }
                let output = child.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or_default().to_string();
                if json::parse(&last).ok().and_then(|v| v.get("correct")?.as_bool()).is_none() {
                    return Err(format!("{} --trace {trace} printed no result", workload.name()));
                }
                all_correct &= output.status.success();
                lines.push(last);
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                file,
                "{sep}\"{}\": {{\"clients\": {}, \"digest\": \"{:016x}\", \"untraced\": {}, \"traced\": {}}}",
                workload.name(),
                workload.shape().clients,
                gen::workload_digest(workload, parsed.settings.seed),
                lines[0],
                lines[1]
            )
            .expect("write to String");
        }
        file.push_str("}}\n");
        let path = out.join(format!("run-{k}.json"));
        std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}
