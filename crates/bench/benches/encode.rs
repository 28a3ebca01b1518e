//! Full-stripe encoding throughput for every code (plus the Reed–Solomon
//! baselines), the "encode complexity" axis of the paper's Section IV.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use hv_code::HvCode;
use raid_bench::codes::extended;
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_core::{ArrayCode, Stripe};
use raid_rs::{CauchyRs, PqRaid6};

const ELEMENT: usize = 4096;
/// Element sizes of the encode sweep: one below the L1 tile, one at the
/// boundary where tiling starts to matter, one well past it.
const ELEMENT_SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 256 * 1024];

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_stripe");
    for p in [7usize, 13] {
        for code in extended(p) {
            let layout = code.layout();
            let mut stripe = Stripe::for_layout(layout, ELEMENT);
            stripe.fill_data_seeded(layout, 1);
            let bytes = (layout.num_data_cells() * ELEMENT) as u64;
            group.throughput(Throughput::Bytes(bytes));
            group.bench_with_input(
                BenchmarkId::new(code.name().replace(' ', "_"), p),
                &p,
                |b, _| {
                    b.iter(|| {
                        code.encode(&mut stripe);
                        std::hint::black_box(&stripe);
                    })
                },
            );
        }
    }
    group.finish();
}

/// Encode throughput across the element-size sweep at p = 13, and the
/// cache-tiling comparison: the cached (optimized) plan run through the
/// tiled executor against the same plan walked one whole op at a time.
/// Past the L1 tile, the untiled walk streams every element through the
/// cache once per op; the tiled walk keeps a chunk of every element
/// resident while the entire plan visits it.
fn bench_encode_tiling(c: &mut Criterion) {
    let p = 13usize;
    let mut group = c.benchmark_group("encode_element_sweep");
    for code in extended(p) {
        let layout = code.layout();
        for es in ELEMENT_SIZES {
            let mut stripe = Stripe::for_layout(layout, es);
            stripe.fill_data_seeded(layout, 2);
            let bytes = (layout.num_data_cells() * es) as u64;
            group.throughput(Throughput::Bytes(bytes));
            group.bench_with_input(
                BenchmarkId::new(code.name().replace(' ', "_"), es),
                &es,
                |b, _| {
                    b.iter(|| {
                        code.encode(&mut stripe);
                        std::hint::black_box(&stripe);
                    })
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("encode_tiling");
    for code in extended(p) {
        let layout = code.layout();
        let plan = layout.encode_plan();
        let name = code.name().replace(' ', "_");
        for es in ELEMENT_SIZES {
            let mut stripe = Stripe::for_layout(layout, es);
            stripe.fill_data_seeded(layout, 3);
            let bytes = (layout.num_data_cells() * es) as u64;
            group.throughput(Throughput::Bytes(bytes));
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_tiled"), es),
                &es,
                |b, _| {
                    b.iter(|| {
                        plan.execute(&mut stripe);
                        std::hint::black_box(&stripe);
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_untiled"), es),
                &es,
                |b, _| {
                    b.iter(|| {
                        plan.execute_untiled(&mut stripe);
                        std::hint::black_box(&stripe);
                    })
                },
            );
        }
    }
    group.finish();
}

/// Threads×codes scaling of the partitioned batch executor: a batch of
/// independent stripes encoded through `run_partitioned` (partition map,
/// per-worker ledger shards) at 1, 2 and 4 workers, for every code at
/// p = 13. On a 1-core host the curve is flat by construction — the
/// partitioned path collapses to the inline serial path — so the table
/// doubles as a regression gate on partitioning overhead.
fn bench_encode_batch_threads(c: &mut Criterion) {
    const BATCH: usize = 8;
    const BATCH_ELEMENT: usize = 16 * 1024;
    let p = 13usize;
    let mut group = c.benchmark_group("encode_batch_threads");
    for code in extended(p) {
        let layout = code.layout();
        let mut stripes: Vec<Stripe> = (0..BATCH)
            .map(|i| {
                let mut s = Stripe::for_layout(layout, BATCH_ELEMENT);
                s.fill_data_seeded(layout, 11 + i as u64);
                s
            })
            .collect();
        let bytes = (BATCH * layout.num_data_cells() * BATCH_ELEMENT) as u64;
        let name = code.name().replace(' ', "_");
        for threads in [1usize, 2, 4] {
            group.throughput(Throughput::Bytes(bytes));
            group.bench_with_input(
                BenchmarkId::new(&name, format!("t{threads}")),
                &threads,
                |b, &threads| {
                    let map = raid_array::PartitionMap::build(BATCH, threads);
                    b.iter(|| {
                        raid_array::run_partitioned(&map, 0, &mut stripes, threads, |_, _, s| {
                            code.encode(s)
                        });
                        std::hint::black_box(&stripes);
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_rs_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_rs");
    let k = 12;
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..ELEMENT).map(|b| (b * 31 + i) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    group.throughput(Throughput::Bytes((k * ELEMENT) as u64));

    let pq = PqRaid6::new(k).unwrap();
    group.bench_function("pq_raid6", |b| {
        b.iter(|| std::hint::black_box(pq.encode(&refs).unwrap()))
    });
    let cauchy = CauchyRs::raid6(k).unwrap();
    group.bench_function("cauchy_raid6", |b| {
        b.iter(|| std::hint::black_box(cauchy.encode(&refs).unwrap()))
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    use raid_math::{gf256, xor};
    let mut group = c.benchmark_group("kernels");
    let src = vec![0xA5u8; 64 * 1024];
    let mut dst = vec![0x5Au8; 64 * 1024];
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function("xor_64k", |b| {
        b.iter(|| {
            xor::xor_into(&mut dst, &src);
            std::hint::black_box(&dst);
        })
    });
    group.bench_function("gf256_mul_acc_64k", |b| {
        b.iter(|| {
            gf256::mul_acc_slice(0x1D, &src, &mut dst);
            std::hint::black_box(&dst);
        })
    });
    group.finish();
}

/// The seed's encode loop exactly as it shipped: walk every chain,
/// allocate a scratch element, fold members with the scalar XOR kernel.
/// Valid for HV because no HV parity chain contains another parity
/// (asserted below), so chain order is irrelevant.
fn encode_seed_scalar(stripe: &mut Stripe, layout: &raid_core::Layout) {
    use raid_math::xor::xor_into_scalar;
    for chain in layout.chains() {
        let mut acc = vec![0u8; stripe.element_size()];
        for m in &chain.members {
            xor_into_scalar(&mut acc, stripe.element(*m));
        }
        stripe.set_element(chain.parity, &acc);
    }
}

/// The tentpole comparison: the compiled-plan encode path (what
/// `Stripe::encode` now runs) against the seed's per-chain `xor_of`
/// interpreter — both as it shipped (`hv_seed_scalar`: scalar kernel,
/// per-chain allocation) and upgraded with the SIMD kernels
/// (`hv_reference`, kept as `Stripe::encode_reference`).
fn bench_plan_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_plan_vs_reference");
    for p in [7usize, 13, 17] {
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        assert!(
            layout
                .chains()
                .iter()
                .all(|ch| ch.members.iter().all(|m| layout.is_data(*m))),
            "HV chains must be parity-free for order-independent encoding"
        );
        let mut stripe = Stripe::for_layout(layout, ELEMENT);
        stripe.fill_data_seeded(layout, 5);
        let bytes = (layout.num_data_cells() * ELEMENT) as u64;
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(BenchmarkId::new("hv_plan", p), &p, |b, _| {
            b.iter(|| {
                stripe.encode(layout);
                std::hint::black_box(&stripe);
            })
        });
        group.bench_with_input(BenchmarkId::new("hv_reference", p), &p, |b, _| {
            b.iter(|| {
                stripe.encode_reference(layout);
                std::hint::black_box(&stripe);
            })
        });
        group.bench_with_input(BenchmarkId::new("hv_seed_scalar", p), &p, |b, _| {
            b.iter(|| {
                encode_seed_scalar(&mut stripe, layout);
                std::hint::black_box(&stripe);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_tiling,
    bench_encode_batch_threads,
    bench_rs_encode,
    bench_kernels,
    bench_plan_vs_reference
);

/// The plan-vs-baseline speedups for the notes, measured here with
/// explicit warmup and fixed iterations rather than read back from the
/// timing records: under `RAID_BENCH_SMOKE=1` the criterion shim
/// collapses to one cold iteration, which bills the one-time plan
/// compilation to `hv_plan` and once left a nonsense 0.23x "speedup" in
/// BENCH_encode.json (see EXPERIMENTS.md). Warming first makes the note
/// correct in both modes.
fn measured_plan_speedups() -> (String, String) {
    let code = HvCode::new(17).unwrap();
    let layout = code.layout();
    let mut stripe = Stripe::for_layout(layout, ELEMENT);
    stripe.fill_data_seeded(layout, 5);
    let mut time = |f: &mut dyn FnMut(&mut Stripe)| {
        for _ in 0..3 {
            f(&mut stripe);
        }
        let iters = 40u32;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            f(&mut stripe);
            std::hint::black_box(&stripe);
        }
        t0.elapsed().as_secs_f64() / f64::from(iters)
    };
    let plan = time(&mut |s| s.encode(layout));
    let reference = time(&mut |s| s.encode_reference(layout));
    let seed = time(&mut |s| encode_seed_scalar(s, layout));
    (format!("{:.2}", seed / plan), format!("{:.2}", reference / plan))
}

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
    let (vs_seed, vs_reference) = measured_plan_speedups();
    // Tiling speedup at 64 KiB elements: tiled vs whole-op execution of
    // the very same optimized plan, per code.
    let tiling = |code: &str| {
        let pick = |id: String| {
            records
                .iter()
                .find(|r| r.group == "encode_tiling" && r.id == id)
                .map(|r| r.ns_per_iter)
        };
        match (pick(format!("{code}_untiled/65536")), pick(format!("{code}_tiled/65536"))) {
            (Some(untiled), Some(tiled)) if tiled > 0.0 => format!("{:.2}", untiled / tiled),
            _ => "n/a".to_string(),
        }
    };
    // Optimized-vs-specification XOR reads per code at p = 13: what the
    // cached plan actually reads against the data-only expansion a
    // chain-oblivious executor would pay.
    let xor_reads: Vec<(String, String)> = extended(13)
        .iter()
        .map(|code| {
            let layout = code.layout();
            let spec = raid_core::XorPlan::compile_encode_expanded(layout).num_source_reads();
            let opt = layout.encode_plan().num_source_reads();
            let pct = if spec > 0 {
                100.0 * (spec.saturating_sub(opt)) as f64 / spec as f64
            } else {
                0.0
            };
            (
                format!("xor_reads_p13_{}", code.name().replace(' ', "_")),
                format!("spec {spec} -> optimized {opt} (-{pct:.1}%)"),
            )
        })
        .collect();
    // Batch-executor thread scaling at p = 13: t1/tN per code, from the
    // threads×codes sweep. Flat (≈1.00) on a 1-core host by design.
    let batch_scale = |code: &str, t: usize| {
        records
            .iter()
            .find(|r| r.group == "encode_batch_threads" && r.id == format!("{code}/t{t}"))
            .map(|r| r.ns_per_iter)
    };
    let thread_speedup = |code: &str, t: usize| match (batch_scale(code, 1), batch_scale(code, t))
    {
        (Some(t1), Some(tn)) if tn > 0.0 => format!("{:.2}", t1 / tn),
        _ => "n/a".to_string(),
    };
    let path = raid_bench::report::bench_report_path("BENCH_encode.json");
    let mut notes: Vec<(&str, String)> = vec![
        ("element_bytes", ELEMENT.to_string()),
        (
            "element_sweep_bytes",
            ELEMENT_SIZES.map(|es| es.to_string()).join(" "),
        ),
        ("l1_tile_bytes", raid_math::xor::L1_TILE_BYTES.to_string()),
        ("hv_plan_speedup_vs_seed_scalar_p17", vs_seed.clone()),
        ("hv_plan_speedup_vs_simd_reference_p17", vs_reference),
        ("tiling_speedup_64k_hv", tiling("HV_Code")),
        ("tiling_speedup_64k_rdp", tiling("RDP")),
        ("tiling_speedup_64k_evenodd", tiling("EVENODD")),
        ("batch_threads_sweep", "1 2 4".to_string()),
        ("batch_threads_speedup_t2_hv_p13", thread_speedup("HV_Code", 2)),
        ("batch_threads_speedup_t4_hv_p13", thread_speedup("HV_Code", 4)),
        ("batch_threads_speedup_t4_rdp_p13", thread_speedup("RDP", 4)),
        // The machine-readable core count lives here (not in DESIGN.md
        // prose) so every report carries the hardware it was measured on.
        (
            "host_logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
        (
            "hardware",
            format!(
                "{} logical core(s) available; xor backend {}",
                std::thread::available_parallelism().map_or(0, usize::from),
                raid_math::xor::active_backend().name(),
            ),
        ),
    ];
    notes.extend(xor_reads.iter().map(|(k, v)| (k.as_str(), v.clone())));
    write_bench_json(&path, &records, &notes).expect("write BENCH_encode.json");
    eprintln!(
        "wrote {} (hv plan speedup vs seed scalar path at p=17: {vs_seed}x)",
        path.display()
    );
}
