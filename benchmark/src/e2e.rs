//! The untraced run (`--trace 0`): what a user of the system would see.
//!
//! Set-up (several times, median reported), a fixed-count pass that warms
//! caches and yields the exact counts, then the timed window at the
//! workload's top rung with its full client count, then the end-of-run
//! checks.

use std::time::{Duration, Instant};

use crate::client::{Rec, Until};
use crate::env::{cpu_seconds, peak_rss_mib, ScratchDir};
use crate::gen::Workload;
use crate::report::{median, percentile, ratio, Metrics, Outcome, Settings, END_TO_END};
use crate::rig::{noise_for, Rig, RungKind};

/// Slices per phase of the window. Every time-based metric is computed
/// per slice and the median slice reported, so a stall shorter than half
/// a phase moves none of them.
const SLICES: usize = 10;

pub fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let shape = workload.shape();
    let scratch = ScratchDir::new(&settings.out).map_err(|e| format!("scratch dir: {e}"))?;
    let noise = noise_for(workload, settings.seed);
    let top = RungKind::top(workload);

    // Set-up: build, prefill, bind, connect. The last rig built is the one
    // measured; the earlier ones are torn down again. Small set-ups take
    // tens of milliseconds and are mostly page faults, so they are repeated
    // more often: at least `setup_reps`, then until a second has gone by.
    let (least, most) = settings.setup_reps();
    let mut setups: Vec<f64> = Vec::new();
    let mut rig = None;
    while setups.len() < least || (setups.len() < most && setups.iter().sum::<f64>() < 1.0) {
        drop(rig.take());
        let begun = Instant::now();
        rig = Some(Rig::build(workload, top, shape.clients, settings.seed, &noise, &scratch)?);
        setups.push(begun.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let setup_samples = setups.len();
    let setup_s = median(&mut setups);

    // Fixed-count pass: same ops every run of a seed, so its counts are
    // exact; it doubles as the warm-up.
    let epoch = Instant::now();
    rig.run_lone(Until::Ops(settings.fixed_ops(workload)), epoch, None);
    let io = rig.flush_and_count_io()?;
    let fixed = rig.tally();
    let io_amp = ratio(io as f64, fixed.elements as f64);
    rig.heal()?;

    // The timed window. While the clients run, this thread reads the
    // process's CPU time at every slice boundary.
    let phases = if workload == Workload::VolumeDegradedRead { 2 } else { 1 };
    let slices = SLICES * phases;
    let mut logs: Vec<Vec<Rec>> = (0..shape.clients).map(|_| Vec::with_capacity(1 << 20)).collect();
    let window = Duration::from_secs_f64(settings.seconds);
    let mut cpu_at: Vec<f64> = vec![cpu_seconds()];
    let epoch = Instant::now();
    rig.run(shape.clients, Until::Deadline(epoch + window), epoch, Some(&mut logs), || {
        for k in 1..=slices as u32 {
            std::thread::sleep(
                (epoch + window * k / slices as u32).saturating_duration_since(Instant::now()),
            );
            cpu_at.push(cpu_seconds());
        }
    });

    let total = rig.tally();
    let first_error = rig.first_error();
    let verdict = rig.finish();

    let window_ns = window.as_nanos() as u64;
    let records: Vec<Rec> = logs.into_iter().flatten().filter(|r| r.end_ns <= window_ns).collect();
    // Per slice: ops, user MiB, the latencies, and the CPU seconds spent.
    let slice_s = settings.seconds / slices as f64;
    let mut ops = vec![0.0f64; slices];
    let mut mib = vec![0.0f64; slices];
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for r in &records {
        let slice =
            ((r.end_ns as u128 * slices as u128 / window_ns as u128) as usize).min(slices - 1);
        ops[slice] += 1.0;
        mib[slice] += f64::from(r.elements) * shape.element_size as f64 / (1 << 20) as f64;
        latencies[slice].push(r.end_ns - r.start_ns);
    }
    let ops_per_s: Vec<f64> = ops.iter().map(|n| n / slice_s).collect();
    let mib_per_s: Vec<f64> = mib.iter().map(|n| n / slice_s).collect();
    let p50_us: Vec<f64> = latencies
        .iter_mut()
        .map(|l| {
            l.sort_unstable();
            percentile(l, 0.50) as f64 / 1e3
        })
        .collect();
    let cpu_us_per_op: Vec<f64> =
        cpu_at.windows(2).zip(&ops).map(|(c, n)| ratio((c[1] - c[0]) * 1e6, *n)).collect();
    println!("slices of {slice_s} s:");
    println!("  ops_per_s     {ops_per_s:?}");
    println!("  p50_us        {p50_us:?}");
    println!("  cpu_us_per_op {cpu_us_per_op:?}");
    // `volume_degraded_read` runs half the window with one disk lost and
    // half with two: a phase's value is its median slice's, the window's
    // the mean of its phases' (equal time in each), never a slice that
    // straddles the switch.
    let by_phase = |values: &[f64]| {
        values.chunks(SLICES).map(|phase| median(&mut phase.to_vec())).sum::<f64>() / phases as f64
    };
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("ops_per_s", by_phase(&ops_per_s), slices);
    metrics.set("user_mib_per_s", by_phase(&mib_per_s), slices);
    metrics.set("p50_us", by_phase(&p50_us), records.len());
    metrics.set("cpu_us_per_op", by_phase(&cpu_us_per_op), records.len());
    metrics.set("io_amp", io_amp, fixed.attempted as usize);
    metrics.set("peak_rss_mib", peak_rss_mib(), 1);
    metrics.set("setup_s", setup_s, setup_samples);

    if let Some(msg) = &first_error {
        println!("first failed op: {msg}");
    }
    if let Err(msg) = &verdict {
        println!("end-of-run check failed: {msg}");
    }
    let mut whole_window: Vec<u64> = latencies.concat();
    whole_window.sort_unstable();
    println!(
        "ops: attempted {} refused {} errored {} mismatched {} | window records {}, p99 {:.1} us (informational: see client.p99_us)",
        total.attempted,
        total.refused,
        total.errored,
        total.mismatched,
        records.len(),
        percentile(&whole_window, 0.99) as f64 / 1e3
    );
    // A failed end-of-run check is a failure too, though no single op's.
    let failed = total.failed() + u64::from(verdict.is_err());
    Ok(Outcome { attempted: total.attempted, failed, correct: failed == 0, metrics })
}
