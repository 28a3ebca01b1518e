//! Fleet reliability under load: HV vs the RDP and EVENODD baselines
//! through the same seeded campaign (`raid-fleet`), plus the QoS A/B
//! (throttled vs flat-out rebuild). The timed quantity is one whole
//! fleet campaign; the numbers that matter — measured wall MTTR,
//! analytic-vs-measured MTTDL, foreground latency inflation — go into
//! the notes of `BENCH_reliability.json`, pinned to one seed so reruns
//! are comparable.

use criterion::{criterion_group, BenchmarkId, Criterion};
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_fleet::{rebuild_under_load, run as run_fleet, FleetConfig};
use raid_verify::build;

const SEED: u64 = 42;
const CODES: [&str; 3] = ["hv", "rdp", "evenodd"];
const P: usize = 5;

/// A small accelerated-life campaign: hot enough that every code sees
/// failures, rebuilds and spare-pool traffic inside the horizon.
fn campaign() -> FleetConfig {
    FleetConfig {
        volumes: 6,
        hours: 96.0,
        seed: SEED,
        stripes: 8,
        element_size: 16,
        fail_scale_h: 150.0,
        latent_mean_h: 40.0,
        spare_capacity: 3,
        spare_replenish_h: 12.0,
        scrub_interval_h: 48.0,
        ..FleetConfig::default()
    }
}

fn bench_fleet_campaigns(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_campaign");
    for name in CODES {
        let code = build(name, P).expect("registry code");
        group.bench_with_input(BenchmarkId::new(name, P), &P, |b, _| {
            b.iter(|| run_fleet(&code, &campaign()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_campaigns);

fn main() {
    benches();
    let records: Vec<BenchRecord> = criterion::take_collected()
        .into_iter()
        .map(|r| BenchRecord {
            group: r.group,
            id: r.id,
            ns_per_iter: r.ns_per_iter,
            bytes_per_iter: r.bytes_per_iter,
        })
        .collect();

    let cfg = campaign();
    let mut notes: Vec<(&str, String)> = vec![
        ("seed", SEED.to_string()),
        ("volumes", cfg.volumes.to_string()),
        ("hours", format!("{:.0}", cfg.hours)),
        ("p", P.to_string()),
        ("weibull_shape", format!("{:.1}", cfg.fail_shape)),
        ("weibull_scale_h", format!("{:.0}", cfg.fail_scale_h)),
    ];

    // MTTR-under-load and the measured-vs-analytic MTTDL story per code.
    let summaries: Vec<(String, String)> = CODES
        .iter()
        .map(|name| {
            let code = build(name, P).expect("registry code");
            let r = run_fleet(&code, &cfg);
            let mttr = r.models.measured_mttr_h.map_or("n/a".to_string(), |h| format!("{h:.1}"));
            let ratio = r
                .models
                .mttdl_measured_over_analytic
                .map_or("n/a".to_string(), |x| format!("{x:.3e}"));
            (
                format!("fleet_{name}"),
                format!(
                    "failures {} rebuilds {} loss {} mttr_h {} inflation {:.2} \
                     mttdl_measured/analytic {}",
                    r.disk_failures,
                    r.rebuilds_completed,
                    r.data_loss_events,
                    mttr,
                    r.foreground.inflation,
                    ratio
                ),
            )
        })
        .collect();
    notes.extend(summaries.iter().map(|(k, v)| (k.as_str(), v.clone())));

    // The QoS A/B on HV: what throttling buys and what it costs.
    let code = build("hv", P).expect("hv");
    let throttled = rebuild_under_load(&code, 64, 16, SEED, true);
    let flat = rebuild_under_load(&code, 64, 16, SEED, false);
    let qos_note = format!(
        "inflation {:.1}x over {} ticks (throttled) vs {:.1}x over {} ticks (flat-out)",
        throttled.inflation, throttled.rebuild_ticks, flat.inflation, flat.rebuild_ticks
    );
    notes.push(("qos_rebuild_hv", qos_note.clone()));

    let path = raid_bench::report::bench_report_path("BENCH_reliability.json");
    write_bench_json(&path, &records, &notes)
        .expect("write BENCH_reliability.json");
    eprintln!("wrote {} (qos_rebuild_hv: {qos_note})", path.display());
}
