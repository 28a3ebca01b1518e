//! The metrics the benchmark reports — names and units are declared here
//! once and `BENCHMARK.json` must agree (the smoke test checks) — plus the
//! small statistics they are made of and the result line.

use std::fmt::Write as _;

use crate::gen::Workload;

/// What a user of the system sees; every workload reports all of them
/// with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("user_mib_per_s", "MiB/s"),
    ("p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("io_amp", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Single layers, with `--trace 1`. A metric whose layer the workload
/// does not reach reads 0 there (e.g. every `server.*` except on
/// `front_door_mixed`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xor.gather_gib_per_s", "GiB/s"),
    ("xor.gather_4k_ns", "ns"),
    ("xplan.encode_gib_per_s", "GiB/s"),
    ("xplan.encode_4k_us", "us"),
    ("xplan.encode_over_xor_ratio", "ratio"),
    ("plan.partial_write_us", "us"),
    ("plan.batched_write_us", "us"),
    ("plan.degraded_read_us", "us"),
    ("backend.mem_read_ns_per_element", "ns"),
    ("backend.mem_write_ns_per_element", "ns"),
    ("backend.file_write_us_per_element", "us"),
    ("backend.file_journal_commit_us", "us"),
    ("pipeline.read4_us", "us"),
    ("pipeline.full_stripe_us", "us"),
    ("pipeline.full_stripe_over_xplan_ratio", "ratio"),
    ("volume.degraded_read_us.L1", "us"),
    ("volume.degraded_read_us.L5", "us"),
    ("volume.degraded_read_us.L10", "us"),
    ("volume.degraded_read_us.L15", "us"),
    ("volume.degraded_fetch_ratio", "ratio"),
    ("volume.full_stripe_write_mib_per_s", "MiB/s"),
    ("volume.rebuild1_mib_per_s", "MiB/s"),
    ("volume.rebuild2_mib_per_s", "MiB/s"),
    ("volume.io_per_write_element", "ratio"),
    ("volume.parity_writes_per_write_element", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.flushes_per_kop", "count"),
    ("cache.evictions_per_kop", "count"),
    ("cache.io_saved_frac", "ratio"),
    ("scheduler.self_us_per_op", "us"),
    ("scheduler.merge_ratio", "ratio"),
    ("scheduler.rounds_per_op", "ratio"),
    ("scheduler.queue_to_done_p50_us", "us"),
    ("scheduler.queue_to_done_p99_us", "us"),
    ("scheduler.rejected_frac", "ratio"),
    ("scheduler.two_client_scaling", "ratio"),
    ("proto.parse_write4_us", "us"),
    ("proto.to_hex_gib_per_s", "GiB/s"),
    ("proto.from_hex_gib_per_s", "GiB/s"),
    ("proto.codec_us_per_op", "us"),
    ("server.self_us_per_op", "us"),
    ("server.wire_bytes_per_user_byte", "ratio"),
    ("server.connect_hello_us", "us"),
    ("codes.hv.update_us", "us"),
    ("codes.hv.degraded_read_us", "us"),
    ("codes.hv.rebuild2_mib_per_s", "MiB/s"),
    ("codes.rdp.update_us", "us"),
    ("codes.rdp.degraded_read_us", "us"),
    ("codes.rdp.rebuild2_mib_per_s", "MiB/s"),
    ("codes.hdp.update_us", "us"),
    ("codes.hdp.degraded_read_us", "us"),
    ("codes.hdp.rebuild2_mib_per_s", "MiB/s"),
    ("codes.xcode.update_us", "us"),
    ("codes.xcode.degraded_read_us", "us"),
    ("codes.xcode.rebuild2_mib_per_s", "MiB/s"),
    ("codes.hcode.update_us", "us"),
    ("codes.hcode.degraded_read_us", "us"),
    ("codes.hcode.rebuild2_mib_per_s", "MiB/s"),
    ("ladder.front_door_mixed.volume_nocache.us_per_op", "us"),
    ("ladder.front_door_mixed.volume_cache.us_per_op", "us"),
    ("ladder.front_door_mixed.handle.us_per_op", "us"),
    ("ladder.front_door_mixed.socket.us_per_op", "us"),
    ("ladder.handle_write_burst.volume_nocache.us_per_op", "us"),
    ("ladder.handle_write_burst.volume_cache.us_per_op", "us"),
    ("ladder.handle_write_burst.handle.us_per_op", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("client.p99_us", "us"),
    ("client.failed_frac", "ratio"),
];

/// How a run is sized. `--smoke` shrinks everything so the whole command
/// fits a test; its numbers mean nothing.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where the trace file and the scratch directory go.
    pub out: std::path::PathBuf,
}

impl Settings {
    /// Fewest and most set-ups timed per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> (usize, usize) {
        if self.smoke {
            (1, 1)
        } else {
            (9, 31)
        }
    }

    /// Repetitions behind each per-layer probe's median.
    pub fn probe_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            9
        }
    }

    /// Ops of the fixed-count pass.
    pub fn fixed_ops(&self, workload: Workload) -> usize {
        let ops = workload.shape().fixed_ops;
        if self.smoke {
            ops.min(500)
        } else {
            ops
        }
    }

    /// Ops of the traced pass's fixed prefix.
    pub fn trace_ops(&self, workload: Workload) -> usize {
        match (workload, self.smoke) {
            // 5 (smoke: 1) cycles of 8 stripe writes + 2 double rebuilds.
            (Workload::VolumeRebuild, false) => 50,
            (Workload::VolumeRebuild, true) => 10,
            (_, false) => crate::gen::PREFIX_OPS,
            (_, true) => 500,
        }
    }
}

/// Named values in declaration order, each with the number of samples
/// behind it.
#[derive(Debug, Clone)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(f64, usize)>,
}

impl Metrics {
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { declared, values: vec![(0.0, 0); declared.len()] }
    }

    /// # Panics
    ///
    /// Panics on a name that is not declared: a typo must not become a
    /// silently missing metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let at = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"));
        self.values[at] = (if value.is_finite() { value } else { 0.0 }, samples);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64, usize)> + '_ {
        self.declared.iter().zip(&self.values).map(|(&(n, u), &(v, s))| (n, u, v, s))
    }
}

/// One run's verdict and numbers: what the last line of stdout carries.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `failed == 0` and every end-of-run check passed.
    pub correct: bool,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: one JSON object, exactly the four keys.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value, _)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// The same numbers for a reader, one per line.
    pub fn print_table(&self) {
        for (name, unit, value, samples) in self.metrics.iter() {
            println!("  {name:<52} {value:>16.4} {unit:<6} (n={samples})");
        }
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile, by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so `compare` judges
/// spread the way the driver does.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        let mut v = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(quartiles(&mut v), (1.0, 4.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.25, 5);
        let line = Outcome { attempted: 3, failed: 0, correct: true, metrics }.to_json();
        let parsed = crate::json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(crate::json::Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(crate::json::Value::as_str), Some("s"));
    }
}
