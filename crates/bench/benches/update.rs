//! Single-data-element update cost: the controller's read-modify-write
//! with incremental parity updates (the paper's "update complexity" axis),
//! and the Reed–Solomon P+Q small-write for contrast. Writes
//! `BENCH_update.json` with the measured throughputs plus the exact parity
//! I/O each code pays per small write (from the volume's request ledger),
//! so the paper's update-complexity ordering is checkable from the report.

use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use disk_sim::{DiskArray, DiskProfile};
use raid_array::{replay_write_trace, CacheConfig, RaidVolume};
use raid_bench::codes::evaluated;
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_rs::PqRaid6;

const ELEMENT: usize = 4096;

fn bench_volume_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_element_update");
    // Throughput = user data written per operation.
    group.throughput(Throughput::Bytes(ELEMENT as u64));
    let p = 13;
    for code in evaluated(p) {
        let name = code.name().replace(' ', "_");
        let mut volume = RaidVolume::in_memory(Arc::clone(&code), 2, ELEMENT);
        let buf = vec![0xA5u8; ELEMENT];
        let mut addr = 0usize;
        group.bench_with_input(BenchmarkId::new(name, p), &p, |b, _| {
            b.iter(|| {
                addr = (addr + 7) % volume.data_elements();
                std::hint::black_box(volume.write(addr, &buf).unwrap());
            })
        });
    }
    group.finish();
}

fn bench_rs_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_element_update_rs");
    group.throughput(Throughput::Bytes(ELEMENT as u64));
    let k = 12;
    let code = PqRaid6::new(k).unwrap();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..ELEMENT).map(|b| (b + i) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let (mut pbuf, mut qbuf) = code.encode(&refs).unwrap();
    let newv = vec![0x5Au8; ELEMENT];
    group.bench_function("pq_small_write", |b| {
        b.iter(|| {
            code.update(3, &data[3], &newv, &mut pbuf, &mut qbuf).unwrap();
            std::hint::black_box((&pbuf, &qbuf));
        })
    });
    group.finish();
}

/// Worst-case parity I/O one single-element RMW pays for `code`, measured
/// from the write receipt's request ledger (not predicted from the layout):
/// `(parity writes, total element I/Os)` maximized over every data cell of
/// one stripe. Parity writes per small write are the paper's
/// update-complexity axis made concrete.
fn measured_small_write_io(code: &Arc<dyn raid_core::ArrayCode>) -> (u64, u64) {
    let mut volume = RaidVolume::in_memory(Arc::clone(code), 1, 64);
    let buf = vec![0x3Cu8; 64];
    let mut worst = (0u64, 0u64);
    for addr in 0..volume.data_elements() {
        let receipt = volume.write(addr, &buf).expect("healthy small write");
        let sample = (receipt.parity_writes(), receipt.total());
        if sample > worst {
            worst = sample;
        }
    }
    worst
}

/// Total element I/O the Table-II trace costs an HV volume, from the
/// replay's ledger delta — uncached, or through the write-back stripe
/// cache (replay flushes before taking the delta, so coalesced flush I/O
/// is fully accounted).
fn table2_total_io(cached: bool) -> u64 {
    let code: Arc<dyn raid_core::ArrayCode> =
        Arc::new(hv_code::HvCode::new(13).expect("13 is prime"));
    let mut volume = RaidVolume::in_memory(code, 8, 64);
    if cached {
        volume.enable_cache(CacheConfig::default());
    }
    let sim = DiskArray::new(volume.disks(), DiskProfile::savvio_10k());
    let out = replay_write_trace(&mut volume, sim, &raid_workloads::table2_trace())
        .expect("healthy replay");
    out.ledger.total()
}

criterion_group!(benches, bench_volume_update, bench_rs_update);

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

    // Parity-I/O table: the paper's §V.B ordering (HV ties or beats every
    // evaluated competitor on parity updates per small write) should be
    // reproducible straight from this report's notes.
    let io: Vec<(String, (u64, u64))> = evaluated(13)
        .iter()
        .map(|code| {
            (code.name().replace(' ', "_"), measured_small_write_io(code))
        })
        .collect();
    let hv_parity = io
        .iter()
        .find(|(n, _)| n == "HV_Code")
        .map(|&(_, (pw, _))| pw)
        .expect("HV is in the evaluated roster");
    let hv_minimal = io.iter().all(|&(_, (pw, _))| hv_parity <= pw);

    // Table-II trace rerun, uncached vs write-back cached. The reduction
    // is the coalescing win the cache exists for; gating it here makes
    // `make bench-smoke` a regression fence.
    let uncached = table2_total_io(false);
    let cached = table2_total_io(true);
    let reduction_pct = 100.0 * (uncached.saturating_sub(cached)) as f64 / uncached as f64;
    assert!(
        reduction_pct >= 30.0,
        "write coalescing regressed: Table-II total element I/O only dropped \
         {reduction_pct:.1}% ({uncached} -> {cached}), expected >= 30%"
    );

    let mut notes: Vec<(&str, String)> = vec![
        ("element_bytes", ELEMENT.to_string()),
        ("p", "13".to_string()),
        (
            "host_logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
        ("table2_total_io_uncached", uncached.to_string()),
        ("table2_total_io_cached", cached.to_string()),
        ("table2_cache_reduction_pct", format!("{reduction_pct:.1}")),
        (
            "parity_io_semantics",
            "worst-case per single-element write, measured from the volume \
             request ledger: parity element writes / total element I/Os"
            .to_string(),
        ),
        ("hv_parity_io_minimal_among_evaluated", hv_minimal.to_string()),
    ];
    let rendered: Vec<(String, String)> = io
        .iter()
        .map(|(name, (pw, total))| {
            (format!("parity_io_{name}"), format!("{pw} parity writes, {total} total I/Os"))
        })
        .collect();
    notes.extend(rendered.iter().map(|(k, v)| (k.as_str(), v.clone())));

    let path = raid_bench::report::bench_report_path("BENCH_update.json");
    write_bench_json(&path, &records, &notes)
        .expect("write BENCH_update.json");
    eprintln!(
        "wrote {} (HV parity writes per small write: {hv_parity}; \
         minimal among evaluated codes: {hv_minimal}; Table-II total I/O \
         {uncached} uncached -> {cached} cached, -{reduction_pct:.1}%)",
        path.display()
    );
}
