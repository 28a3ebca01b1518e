//! Degraded-read throughput through the unified I/O pipeline: every read
//! lowers to the same `LoweredOp` stream a production volume would issue,
//! so this measures plan compilation + backend element I/O + XOR repair,
//! not just the decode kernel.

use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use raid_bench::codes::evaluated;
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_core::ArrayCode;
use raid_array::RaidVolume;

const ELEMENT: usize = 4096;
const STRIPES: usize = 4;

fn degraded_volume(code: &Arc<dyn ArrayCode>, failures: &[usize]) -> RaidVolume {
    let mut v = RaidVolume::in_memory(Arc::clone(code), STRIPES, ELEMENT);
    let data: Vec<u8> = (0..v.data_elements() * ELEMENT)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes()[0])
        .collect();
    v.write(0, &data).expect("initial fill");
    for &d in failures {
        v.fail_disk(d % v.disks()).expect("within tolerance");
    }
    v
}

fn bench_degraded_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("degraded_read");
    for p in [7usize, 13] {
        for code in evaluated(p) {
            let mut v = degraded_volume(&code, &[1]);
            let elements = v.data_elements();
            group.throughput(Throughput::Bytes((elements * ELEMENT) as u64));
            group.bench_with_input(
                BenchmarkId::new(code.name().replace(' ', "_"), p),
                &p,
                |b, _| {
                    b.iter(|| {
                        let (bytes, _) = v.read(0, elements).unwrap();
                        std::hint::black_box(bytes);
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_double_degraded_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_degraded_read");
    for code in evaluated(7) {
        let disks = code.layout().cols();
        let mut v = degraded_volume(&code, &[1, disks - 1]);
        let elements = v.data_elements();
        group.throughput(Throughput::Bytes((elements * ELEMENT) as u64));
        group.bench_with_input(
            BenchmarkId::new(code.name().replace(' ', "_"), 7usize),
            &7usize,
            |b, _| {
                b.iter(|| {
                    let (bytes, _) = v.read(0, elements).unwrap();
                    std::hint::black_box(bytes);
                })
            },
        );
    }
    group.finish();
}

fn bench_healthy_read_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("healthy_read");
    for code in evaluated(7) {
        let mut v = degraded_volume(&code, &[]);
        let elements = v.data_elements();
        group.throughput(Throughput::Bytes((elements * ELEMENT) as u64));
        group.bench_with_input(
            BenchmarkId::new(code.name().replace(' ', "_"), 7usize),
            &7usize,
            |b, _| {
                b.iter(|| {
                    let (bytes, _) = v.read(0, elements).unwrap();
                    std::hint::black_box(bytes);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_degraded_read,
    bench_double_degraded_read,
    bench_healthy_read_baseline
);

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
    let mb_s = |group: &str, id: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .and_then(|r| match (r.ns_per_iter, r.bytes_per_iter) {
                (ns, Some(bytes)) if ns > 0.0 => Some(bytes as f64 / ns * 1e9 / 1e6),
                _ => None,
            })
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}"))
    };
    let hv_single = mb_s("degraded_read", "HV_Code/13");
    let hv_double = mb_s("double_degraded_read", "HV_Code/7");
    let path = raid_bench::report::bench_report_path("BENCH_degraded.json");
    let notes = [
        ("element_bytes", ELEMENT.to_string()),
        ("stripes", STRIPES.to_string()),
        ("hv_degraded_read_MBps_p13", hv_single.clone()),
        ("hv_double_degraded_read_MBps_p7", hv_double),
        (
            "host_logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
        ("xor_backend", raid_math::xor::active_backend().name().to_string()),
    ];
    write_bench_json(&path, &records, &notes)
        .expect("write BENCH_degraded.json");
    eprintln!("wrote {} (HV degraded read at p=13: {hv_single} MB/s)", path.display());
}
