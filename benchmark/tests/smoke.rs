//! Runs the whole command in `--smoke` size and checks what it prints
//! against `BENCHMARK.json`: the two must name the same workloads and the
//! same metrics with the same units, within the contract's caps.

#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

/// Removes the smoke run's output directory, also when an assert fails.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names_and_units(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every declared metric present with its unit and a finite value, and
/// nothing undeclared.
fn check_metrics(what: &str, result: &Value, declared: &[(String, String)]) {
    let metrics = result.get("metrics").expect("metrics").entries();
    assert_eq!(metrics.len(), declared.len(), "{what}: metric count");
    for (name, unit) in declared {
        assert!(name_ok(name), "{what}: bad metric name {name:?}");
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{what}: {name} missing from the output"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{what}: {name}");
        let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{what}: correct");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{what}: failed");
    assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0, "{what}");
}

#[test]
fn smoke_output_matches_benchmark_json() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(bench.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let end_to_end = names_and_units(&spec, "end_to_end");
    let per_layer = names_and_units(&spec, "per_layer");
    let workloads = names_and_units(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()), "2 to 8 workloads");
    assert!((1..=16).contains(&end_to_end.len()), "1 to 16 end-to-end metrics");
    assert!((1..=128).contains(&per_layer.len()), "1 to 128 per-layer metrics");
    assert!(end_to_end.contains(&("setup_s".into(), "s".into())), "setup_s is required");
    for m in spec.get("end_to_end").map(Value::items).unwrap_or_default() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }

    let out = bench.join(format!("out/smoke-test-{}", std::process::id()));
    let _cleanup = Cleanup(out.clone());
    let run = Command::new(env!("CARGO_BIN_EXE_hvbench"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("hvbench runs");
    assert!(
        run.status.success(),
        "hvbench --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let file = std::fs::read_to_string(out.join("run-1.json")).expect("result file");
    let file = json::parse(&file).expect("result file parses");
    let ran = file.get("workloads").expect("workloads").entries();
    let ran_names: Vec<&str> = ran.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(ran_names, declared_names, "workloads run vs BENCHMARK.json");
    for (name, result) in ran {
        assert!(name_ok(name));
        check_metrics(
            &format!("{name} untraced"),
            result.get("untraced").expect("untraced"),
            &end_to_end,
        );
        check_metrics(&format!("{name} traced"), result.get("traced").expect("traced"), &per_layer);
        let trace = out.join(format!("trace-{name}.jsonl"));
        assert!(trace.is_file(), "{} missing", trace.display());
    }

    // The layers separate as designed: the socket and the text protocol
    // cost something on the front-door workload and nothing elsewhere.
    let layer = |workload: &str, metric: &str| {
        file.get("workloads")
            .and_then(|w| w.get(workload)?.get("traced")?.get("metrics")?.get(metric)?.get("value"))
            .and_then(Value::as_f64)
            .expect("per-layer value")
    };
    assert!(layer("front_door_mixed", "proto.codec_us_per_op") > 0.0);
    assert!(layer("front_door_mixed", "ladder.front_door_mixed.socket.us_per_op") > 0.0);
    assert!(layer("front_door_mixed", "xor.gather_gib_per_s") > 0.0);
    for other in &declared_names[1..] {
        assert_eq!(layer(other, "proto.codec_us_per_op"), 0.0, "{other}");
        assert_eq!(layer(other, "server.self_us_per_op"), 0.0, "{other}");
    }

    // No socket, file-backend or scratch directory is left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch dirs left behind: {leftovers:?}");
}
