//! The concurrent service front-end under mixed Zipf tenants: 1/2/4
//! client threads × coalescing on/off, driven through the in-process
//! [`raid_service::ServiceHandle`] (no socket on the bench path).
//!
//! Timing records measure wall time per whole workload pass; the A/B
//! that gates the PR is ledger-counted and interleaving-robust — backend
//! element I/Os per completed op with the stripe-aware coalescing
//! scheduler vs pass-through dispatch, plus per-tenant p50/p99
//! enqueue→completion latency. All of it lands in `BENCH_service.json`.

use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use raid_array::RaidVolume;
use raid_bench::report::{write_bench_json, BenchRecord};
use raid_core::ArrayCode;
use raid_service::{Service, ServiceConfig, ServiceHandle, ServiceStats, TenantClass};
use raid_workloads::skew::{hot_spot_trace, zipf_write_trace};

const P: usize = 13;
const ELEMENT: usize = 512;
const STRIPES: usize = 16;
const WRITE_LEN: usize = 2;
const OPS_PER_TENANT: usize = 200;
const ZIPF_THETA: f64 = 0.9;

fn service(coalesce: bool) -> Arc<Service> {
    let code: Arc<dyn ArrayCode> = Arc::new(hv_code::HvCode::new(P).expect("13 is prime"));
    let mut v = RaidVolume::in_memory(code, STRIPES, ELEMENT);
    // Prefill so reader tenants touch real data, then discard the fill
    // from the measured ledger.
    let fill: Vec<u8> =
        (0..v.data_elements() * ELEMENT).map(|k| (k as u8).wrapping_mul(31)).collect();
    v.write(0, &fill).expect("prefill");
    v.reset_ledger();
    Service::new(v, ServiceConfig { coalesce, ..ServiceConfig::default() })
}

/// One tenant's seeded Zipf op list: writers write, readers read, both
/// over the same skewed offset distribution.
fn tenant_ops(data_elements: usize, seed: u64) -> Vec<(usize, usize)> {
    zipf_write_trace(WRITE_LEN, OPS_PER_TENANT, data_elements, ZIPF_THETA, seed)
        .patterns
        .into_iter()
        .map(|p| (p.start.min(data_elements - p.len), p.len))
        .collect()
}

/// A client: its handle, tenant class, and scripted `(start, len)` ops.
type TenantScript = (ServiceHandle, TenantClass, Vec<(usize, usize)>);

fn run_tenant(handle: &ServiceHandle, class: TenantClass, ops: &[(usize, usize)], buf: &[u8]) {
    for &(start, len) in ops {
        match class {
            TenantClass::Writer | TenantClass::Mixed => {
                handle.write(start, &buf[..len * ELEMENT]).expect("service write");
            }
            TenantClass::Reader => {
                handle.read(start, len).expect("service read");
            }
        }
    }
}

/// Drives `threads` client threads (alternating writer/reader tenants)
/// through one full workload pass and returns the final stats.
fn run_workload(svc: &Arc<Service>, threads: usize) -> ServiceStats {
    let classes = [TenantClass::Writer, TenantClass::Reader];
    let sessions: Vec<TenantScript> = (0..threads)
        .map(|t| {
            let class = classes[t % classes.len()];
            let handle = svc.session(&format!("t{t}"), class);
            (handle, class, tenant_ops(svc.data_elements(), 7 + t as u64))
        })
        .collect();
    drive(svc, sessions)
}

/// All-writer hot-spot burst: no read barriers between writes, so
/// batches collected while the combiner runs actually merge in the
/// write stage (the mixed workload alternates reads in, which drain
/// the stage every round).
fn run_writer_burst(svc: &Arc<Service>, threads: usize) -> ServiceStats {
    let sessions: Vec<TenantScript> = (0..threads)
        .map(|t| {
            let handle = svc.session(&format!("burst{t}"), TenantClass::Writer);
            let ops = hot_spot_trace(WRITE_LEN, OPS_PER_TENANT, 16, 100 + t as u64)
                .patterns
                .into_iter()
                .map(|p| (p.start, p.len))
                .collect();
            (handle, TenantClass::Writer, ops)
        })
        .collect();
    drive(svc, sessions)
}

fn drive(svc: &Arc<Service>, sessions: Vec<TenantScript>) -> ServiceStats {
    let buf = vec![0xB6u8; WRITE_LEN * ELEMENT];
    std::thread::scope(|scope| {
        for (handle, class, ops) in &sessions {
            let buf = &buf;
            scope.spawn(move || run_tenant(handle, *class, ops, buf));
        }
    });
    sessions[0].0.flush().expect("final flush");
    svc.stats()
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_mixed_tenants");
    for coalesce in [false, true] {
        for threads in [1usize, 2, 4] {
            let bytes = (threads * OPS_PER_TENANT * WRITE_LEN * ELEMENT) as u64;
            group.throughput(Throughput::Bytes(bytes));
            let id = if coalesce { "coalesced" } else { "passthrough" };
            group.bench_with_input(BenchmarkId::new(id, threads), &threads, |b, &t| {
                b.iter(|| {
                    let svc = service(coalesce);
                    run_workload(&svc, t)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_service);

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
        ("p", P.to_string()),
        ("element_bytes", ELEMENT.to_string()),
        ("stripes", STRIPES.to_string()),
        ("write_len_elements", WRITE_LEN.to_string()),
        ("ops_per_tenant", OPS_PER_TENANT.to_string()),
        ("zipf_theta", ZIPF_THETA.to_string()),
        (
            "host_logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
    ];

    // The gating A/B: ledger-counted backend element I/O per op, 4
    // client threads, coalescing scheduler vs pass-through dispatch.
    let pass = run_workload(&service(false), 4);
    let coal = run_workload(&service(true), 4);
    let saving = 100.0 * (pass.io_per_op() - coal.io_per_op()) / pass.io_per_op();
    notes.push(("service_io_per_op_passthrough", format!("{:.2}", pass.io_per_op())));
    notes.push(("service_io_per_op_coalesced", format!("{:.2}", coal.io_per_op())));
    notes.push(("service_io_per_op_saving_pct", format!("{saving:.1}")));
    // Batch write-merging needs read-free batches (reads are stage
    // barriers), so demonstrate it on an all-writer hot-spot burst.
    let burst = run_writer_burst(&service(true), 4);
    notes.push((
        "service_burst_merged_writes",
        format!(
            "{} of {} staged writes merged into {} runs",
            burst.merged_writes,
            burst.merged_writes + burst.write_runs,
            burst.write_runs
        ),
    ));
    notes.push((
        "service_cache_hit_rate",
        {
            let h = coal.ledger.cache_hits();
            let m = coal.ledger.cache_misses();
            format!("{:.2}", h as f64 / (h + m).max(1) as f64)
        },
    ));
    let lat: Vec<(String, String)> = coal
        .tenants
        .iter()
        .filter(|t| t.ops > 0)
        .map(|t| {
            (
                format!("latency_us_{}_{}", t.tenant, t.class),
                format!("p50 {:.1} p99 {:.1} mean {:.1}", t.p50_us, t.p99_us, t.mean_us),
            )
        })
        .collect();
    notes.extend(lat.iter().map(|(k, v)| (k.as_str(), v.clone())));

    let path = raid_bench::report::bench_report_path("BENCH_service.json");
    write_bench_json(&path, &records, &notes)
        .expect("write BENCH_service.json");
    eprintln!(
        "wrote {} (io/op passthrough {:.2} -> coalesced {:.2}, -{saving:.1}%)",
        path.display(),
        pass.io_per_op(),
        coal.io_per_op()
    );
    assert!(
        saving >= 30.0,
        "coalescing must save >=30% backend element I/O per op, measured {saving:.1}%"
    );
}
