//! Recovery planning cost: the hybrid single-disk recovery search
//! strategies (exhaustive vs greedy vs anneal) and the double-failure
//! scheduler — plus the data-path recovery experiments: the parallel
//! stripe-batch rebuild executor and HV's intra-stripe parallel chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hv_code::HvCode;
use raid_bench::codes::evaluated;
use raid_core::plan::single::{plan_single_disk_recovery, SearchStrategy};
use raid_core::schedule::double_failure_schedule;
use raid_core::{ArrayCode, Cell, Stripe};

const ELEMENT: usize = 4096;

fn bench_single_disk_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_disk_plan");
    let p = 13;
    for code in evaluated(p) {
        let layout = code.layout();
        let name = code.name().replace(' ', "_");
        for (label, strategy) in [
            ("exhaustive", SearchStrategy::Exhaustive),
            ("greedy", SearchStrategy::Greedy),
            ("anneal", SearchStrategy::Anneal { iters: 20_000, seed: 1 }),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/{label}"), p),
                &p,
                |b, _| {
                    b.iter(|| {
                        std::hint::black_box(plan_single_disk_recovery(layout, 0, strategy))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_double_failure_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_failure_schedule");
    for p in [7usize, 13, 23] {
        for code in evaluated(p) {
            let layout = code.layout();
            let name = code.name().replace(' ', "_");
            group.bench_with_input(BenchmarkId::new(name, p), &p, |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        double_failure_schedule(layout, 0, layout.cols() / 2).unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// Double-disk rebuild of a whole stripe batch, serial vs the scoped
/// thread-pool executor. On a single-core host the threaded variants
/// only measure spawn overhead — the comparison is still recorded so
/// multi-core hosts get real numbers from the same harness.
fn bench_batch_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_rebuild");
    let p = 13;
    let stripes = 16;
    let code = HvCode::new(p).unwrap();
    let layout = code.layout();
    let pristine: Vec<Stripe> = (0..stripes)
        .map(|i| {
            let mut s = Stripe::for_layout(layout, ELEMENT);
            s.fill_data_seeded(layout, i as u64 + 1);
            code.encode(&mut s);
            s
        })
        .collect();
    let lost: Vec<Cell> =
        [0usize, layout.cols() / 2].iter().flat_map(|&c| layout.cells_in_col(c)).collect();
    group.throughput(Throughput::Bytes(
        (stripes * 2 * layout.rows() * ELEMENT) as u64,
    ));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("hv_double_rebuild_threads", threads),
            &threads,
            |b, &threads| {
                let map = raid_array::PartitionMap::build(stripes, threads);
                b.iter(|| {
                    let mut batch = pristine.clone();
                    raid_array::run_partitioned(&map, 0, &mut batch, threads, |_, _, s| {
                        for &cell in &lost {
                            s.erase(cell);
                        }
                        code.decode(s, &lost).map(drop).unwrap();
                    });
                    std::hint::black_box(&batch);
                })
            },
        );
    }
    group.finish();
}

/// HV Algorithm-1 double repair within one stripe: the compiled serial
/// plan vs running the four independent chains on scoped threads.
fn bench_hv_parallel_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("hv_chain_parallelism");
    for p in [13usize, 17] {
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        let mut pristine = Stripe::for_layout(layout, ELEMENT);
        pristine.fill_data_seeded(layout, 7);
        code.encode(&mut pristine);
        let (f1, f2) = (0, layout.cols() / 2);
        group.throughput(Throughput::Bytes((2 * layout.rows() * ELEMENT) as u64));
        group.bench_with_input(BenchmarkId::new("serial_plan", p), &p, |b, _| {
            b.iter(|| {
                let mut broken = pristine.clone();
                broken.erase_col(f1);
                broken.erase_col(f2);
                code.repair_double_disk(&mut broken, f1, f2).unwrap();
                std::hint::black_box(&broken);
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel_chains", p), &p, |b, _| {
            b.iter(|| {
                let mut broken = pristine.clone();
                broken.erase_col(f1);
                broken.erase_col(f2);
                code.repair_double_disk_parallel(&mut broken, f1, f2).unwrap();
                std::hint::black_box(&broken);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_disk_plan,
    bench_double_failure_schedule,
    bench_batch_rebuild,
    bench_hv_parallel_chains
);
criterion_main!(benches);
