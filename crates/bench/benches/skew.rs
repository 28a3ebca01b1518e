//! Write throughput under skewed workloads, with and without the
//! write-back stripe cache. Skew is where coalescing pays: a Zipf or
//! hot-spot trace keeps rewriting the same few stripes, so the cache
//! absorbs most element writes and the flush path shares one parity
//! update across everything that landed in a stripe. The sequential
//! trace is the control — full-stripe runs already amortize parity, so
//! the cache's win there is bounded. Writes `BENCH_skew.json` with the
//! measured throughputs plus the ledger-counted element I/O per trace,
//! cached vs uncached.

use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use raid_array::{CacheConfig, RaidVolume};
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_core::ArrayCode;
use raid_workloads::skew::{hot_spot_trace, sequential_trace, zipf_write_trace};
use raid_workloads::WriteTrace;

const ELEMENT: usize = 1024;
const STRIPES: usize = 16;
const WRITE_LEN: usize = 4;
const PATTERNS: usize = 200;
const ZIPF_THETA: f64 = 0.9;

fn volume(cached: bool) -> RaidVolume {
    let code: Arc<dyn ArrayCode> = Arc::new(hv_code::HvCode::new(13).expect("13 is prime"));
    let mut v = RaidVolume::in_memory(code, STRIPES, ELEMENT);
    if cached {
        v.enable_cache(CacheConfig::default());
    }
    v
}

fn traces(data_elements: usize) -> Vec<WriteTrace> {
    vec![
        zipf_write_trace(WRITE_LEN, PATTERNS, data_elements, ZIPF_THETA, 7),
        hot_spot_trace(WRITE_LEN, PATTERNS, (data_elements / 8).max(WRITE_LEN + 1), 11),
        sequential_trace(WRITE_LEN, PATTERNS, data_elements),
    ]
}

/// Runs the whole trace once; cached volumes end with an explicit flush
/// so every iteration leaves no dirty state behind (and the timing
/// includes the coalesced flush cost it caused).
fn run_trace(v: &mut RaidVolume, trace: &WriteTrace, buf: &[u8]) {
    for (start, len) in trace.expanded() {
        let start = start.min(v.data_elements() - 1);
        let len = len.min(v.data_elements() - start);
        v.write(start, &buf[..len * ELEMENT]).expect("healthy write");
    }
    v.flush().expect("healthy flush");
}

fn bench_skewed_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("skewed_write_throughput");
    let buf = vec![0xC3u8; WRITE_LEN * ELEMENT];
    for cached in [false, true] {
        let mut v = volume(cached);
        for trace in traces(v.data_elements()) {
            group.throughput(Throughput::Bytes((PATTERNS * WRITE_LEN * ELEMENT) as u64));
            let id = format!("{}/{}", trace.name, if cached { "cached" } else { "uncached" });
            group.bench_with_input(BenchmarkId::new(id, 13usize), &13usize, |b, _| {
                b.iter(|| run_trace(&mut v, &trace, &buf))
            });
        }
    }
    group.finish();
}

/// Ledger-counted element I/O for one full trace pass on a fresh volume.
fn trace_total_io(trace: &WriteTrace, cached: bool) -> u64 {
    let mut v = volume(cached);
    let buf = vec![0x3Au8; WRITE_LEN * ELEMENT];
    let baseline = v.ledger().clone();
    run_trace(&mut v, trace, &buf);
    v.ledger().delta_since(&baseline).total()
}

criterion_group!(benches, bench_skewed_writes);

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

    let mut notes: Vec<(&str, String)> = vec![
        ("element_bytes", ELEMENT.to_string()),
        ("stripes", STRIPES.to_string()),
        ("p", "13".to_string()),
        ("write_len_elements", WRITE_LEN.to_string()),
        ("patterns_per_trace", PATTERNS.to_string()),
        ("zipf_theta", ZIPF_THETA.to_string()),
        (
            "host_logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
    ];
    let io: Vec<(String, String)> = traces(volume(false).data_elements())
        .iter()
        .map(|trace| {
            let uncached = trace_total_io(trace, false);
            let cached = trace_total_io(trace, true);
            let pct = 100.0 * (uncached.saturating_sub(cached)) as f64 / uncached as f64;
            (
                format!("total_io_{}", trace.name),
                format!("uncached {uncached} -> cached {cached} (-{pct:.1}%)"),
            )
        })
        .collect();
    notes.extend(io.iter().map(|(k, v)| (k.as_str(), v.clone())));

    let path = raid_bench::report::bench_report_path("BENCH_skew.json");
    write_bench_json(&path, &records, &notes)
        .expect("write BENCH_skew.json");
    eprintln!("wrote {} ({})", path.display(), io.iter().map(|(k, v)| format!("{k}: {v}")).collect::<Vec<_>>().join("; "));
}
