//! Prometheus text-format exposition of the service's counters.
//!
//! The first slice of the ROADMAP metrics endpoint: every number here
//! already existed in the [`raid_core::io::IoLedger`], the stripe cache,
//! or the health monitor — this module only renders a
//! [`ServiceStats`] snapshot in the
//! [text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! (`# HELP` / `# TYPE` headers, `metric{label="v"} value` samples).
//! Served by the protocol's `STATS` verb and `hvraid stats`.

use std::fmt::Write as _;

use raid_array::HealthState;

use crate::scheduler::ServiceStats;

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders `stats` in Prometheus text format.
///
/// Deterministic for a given snapshot: fixed metric order, disks and
/// tenants in index order, floats with limited precision — so tests and
/// the serve-smoke gate can assert on the output.
#[must_use]
pub fn prometheus_text(stats: &ServiceStats) -> String {
    let mut out = String::new();

    header(&mut out, "hvraid_disk_reads_total", "Element reads issued per disk.", "counter");
    for (d, n) in stats.ledger.reads().iter().enumerate() {
        let _ = writeln!(out, "hvraid_disk_reads_total{{disk=\"{d}\"}} {n}");
    }
    header(&mut out, "hvraid_disk_writes_total", "Element writes issued per disk (data + parity).", "counter");
    for (d, n) in stats.ledger.writes().iter().enumerate() {
        let _ = writeln!(out, "hvraid_disk_writes_total{{disk=\"{d}\"}} {n}");
    }

    header(&mut out, "hvraid_io_reads_total", "Total element reads.", "counter");
    let _ = writeln!(out, "hvraid_io_reads_total {}", stats.ledger.total_reads());
    header(&mut out, "hvraid_io_data_writes_total", "Total data-element writes.", "counter");
    let _ = writeln!(out, "hvraid_io_data_writes_total {}", stats.ledger.data_writes());
    header(&mut out, "hvraid_io_parity_writes_total", "Total parity-element writes.", "counter");
    let _ = writeln!(out, "hvraid_io_parity_writes_total {}", stats.ledger.parity_writes());
    header(&mut out, "hvraid_io_retries_total", "Op retries after backend faults.", "counter");
    let _ = writeln!(out, "hvraid_io_retries_total {}", stats.retries);
    header(&mut out, "hvraid_io_latent_repairs_total", "Latent sector repairs.", "counter");
    let _ = writeln!(out, "hvraid_io_latent_repairs_total {}", stats.latent_repairs);
    header(
        &mut out,
        "hvraid_write_balance_rate",
        "Load-balancing rate lambda of Eq. 7 (max/min per-disk writes; 1 is balanced).",
        "gauge",
    );
    let _ = writeln!(out, "hvraid_write_balance_rate {:.6}", stats.ledger.write_balance_rate());

    header(&mut out, "hvraid_cache_hits_total", "Cache element hits.", "counter");
    let _ = writeln!(out, "hvraid_cache_hits_total {}", stats.ledger.cache_hits());
    header(&mut out, "hvraid_cache_misses_total", "Cache element misses.", "counter");
    let _ = writeln!(out, "hvraid_cache_misses_total {}", stats.ledger.cache_misses());
    header(&mut out, "hvraid_cache_flushes_total", "Coalesced stripe flushes.", "counter");
    let _ = writeln!(out, "hvraid_cache_flushes_total {}", stats.ledger.cache_flushes());
    header(
        &mut out,
        "hvraid_cache_evictions_total",
        "Stripes evicted (dirty ones are flushed first).",
        "counter",
    );
    let _ = writeln!(out, "hvraid_cache_evictions_total {}", stats.ledger.cache_evictions());
    header(&mut out, "hvraid_cache_resident_stripes", "Stripes resident in the cache.", "gauge");
    let _ = writeln!(out, "hvraid_cache_resident_stripes {}", stats.cache_resident);
    header(&mut out, "hvraid_cache_resident_bytes", "Bytes of cached element copies.", "gauge");
    let resident_bytes = stats.cache_resident_elements * stats.element_size;
    let _ = writeln!(out, "hvraid_cache_resident_bytes {resident_bytes}");
    header(&mut out, "hvraid_cache_dirty_stripes", "Dirty stripes awaiting flush.", "gauge");
    let _ = writeln!(out, "hvraid_cache_dirty_stripes {}", stats.cache_dirty);

    header(
        &mut out,
        "hvraid_health_state",
        "Array health (1 on the current state's line).",
        "gauge",
    );
    for state in [HealthState::Healthy, HealthState::Degraded, HealthState::Critical, HealthState::Failed]
    {
        let _ = writeln!(
            out,
            "hvraid_health_state{{state=\"{}\"}} {}",
            format!("{state:?}").to_lowercase(),
            u8::from(stats.health == state)
        );
    }
    header(&mut out, "hvraid_failed_disks", "Disks currently failed.", "gauge");
    let _ = writeln!(out, "hvraid_failed_disks {}", stats.failed_disks.len());

    header(&mut out, "hvraid_service_queued_ops", "Ops admitted and not yet completed.", "gauge");
    let _ = writeln!(out, "hvraid_service_queued_ops {}", stats.queued);
    header(&mut out, "hvraid_service_write_runs_total", "Write ops dispatched to the volume.", "counter");
    let _ = writeln!(out, "hvraid_service_write_runs_total {}", stats.write_runs);

    header(&mut out, "hvraid_service_ops_total", "Ops completed per tenant.", "counter");
    for t in &stats.tenants {
        let _ = writeln!(
            out,
            "hvraid_service_ops_total{{tenant=\"{}\",class=\"{}\"}} {}",
            t.tenant, t.class, t.ops
        );
    }
    header(
        &mut out,
        "hvraid_service_busy_total",
        "Admission rejections (queue-full + throttle) per tenant.",
        "counter",
    );
    for t in &stats.tenants {
        let _ = writeln!(
            out,
            "hvraid_service_busy_total{{tenant=\"{}\",class=\"{}\"}} {}",
            t.tenant, t.class, t.busy_rejections
        );
    }
    header(
        &mut out,
        "hvraid_service_latency_us",
        "Enqueue-to-completion latency quantiles per tenant, microseconds.",
        "summary",
    );
    for t in &stats.tenants {
        for (q, v) in [("0.5", t.p50_us), ("0.99", t.p99_us)] {
            let _ = writeln!(
                out,
                "hvraid_service_latency_us{{tenant=\"{}\",class=\"{}\",quantile=\"{q}\"}} {v:.1}",
                t.tenant, t.class
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hv_code::HvCode;
    use raid_array::{Fault, FaultyBackend, MemBackend, RaidVolume};
    use raid_core::ArrayCode;

    use crate::scheduler::{Service, ServiceConfig, TenantClass};

    use super::*;

    #[test]
    fn renders_valid_exposition_format() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let volume = RaidVolume::in_memory(code, 4, 16);
        let svc = Service::new(volume, ServiceConfig::default());
        let h = svc.session("t0", TenantClass::Writer);
        h.write(0, &[7u8; 32]).unwrap();
        h.flush().unwrap();
        let text = prometheus_text(&h.stats());

        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(name.starts_with("hvraid_"), "bad metric name in {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
        // Each metric family declares HELP + TYPE exactly once, before
        // its samples.
        assert_eq!(text.matches("# TYPE hvraid_disk_reads_total").count(), 1);
        assert!(text.contains("hvraid_health_state{state=\"healthy\"} 1"));
        assert!(text.contains("hvraid_service_ops_total{tenant=\"t0\",class=\"writer\"} 2"));
        assert!(text.contains("hvraid_cache_flushes_total"));
        // Two 16-byte elements written, flushed, still resident (clean).
        assert!(text.contains("hvraid_cache_resident_stripes 1\n"));
        assert!(text.contains("hvraid_cache_resident_bytes 32\n"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("hvraid_service_queued_ops 0\n"));
        assert!(!text.contains("rounds"), "no dispatch rounds exist to count");
    }

    /// Repeated or concurrent sessions under one tenant label pair must
    /// not emit duplicate series (identical label sets are invalid
    /// exposition format), and zero-op scrape sessions emit nothing.
    #[test]
    fn duplicate_label_sets_never_rendered() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let volume = RaidVolume::in_memory(code, 4, 16);
        let svc = Service::new(volume, ServiceConfig::default());
        let a = svc.session("t0", TenantClass::Writer);
        let b = svc.session("t0", TenantClass::Writer);
        a.write(0, &[1u8; 16]).unwrap();
        b.write(1, &[2u8; 16]).unwrap();
        a.close();
        // Scrape-style churn: open, snapshot, close.
        for _ in 0..3 {
            let m = svc.session("metrics", TenantClass::Reader);
            let _ = prometheus_text(&m.stats());
            m.close();
        }
        let text = prometheus_text(&svc.stats());
        assert_eq!(
            text.matches("hvraid_service_ops_total{tenant=\"t0\",class=\"writer\"}").count(),
            1,
            "one series per label set"
        );
        assert!(text.contains("hvraid_service_ops_total{tenant=\"t0\",class=\"writer\"} 2"));
        assert!(!text.contains("tenant=\"metrics\""), "zero-op sessions emit no series");
    }

    /// The healing counters are read off the health monitor: one
    /// transient read fault and one latent sector scrape as one retry
    /// and one repair.
    #[test]
    fn healing_counters_are_the_health_monitor_s() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut volume = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
        let (glitchy, _) = volume.locate_data_element(0).unwrap();
        let (disk, index) = volume.locate_data_element(3).unwrap();
        let faults = volume.backend_faulty_mut().unwrap();
        faults.inject(Fault::Transient { disk: glitchy, ops: 1 });
        faults.inject(Fault::LatentSector { disk, index });
        let svc = Service::new(volume, ServiceConfig::default());
        let h = svc.session("t0", TenantClass::Reader);
        assert_eq!(h.read(0, 1).unwrap(), [0; 16]);
        assert_eq!(h.read(3, 1).unwrap(), [0; 16]);
        let healed =
            svc.with_volume(|v| (v.health().retries_total(), v.health().latent_repairs_total()));
        assert_eq!(healed, (1, 1));
        let text = prometheus_text(&h.stats());
        assert!(text.contains("\nhvraid_io_retries_total 1\n"), "{text}");
        assert!(text.contains("\nhvraid_io_latent_repairs_total 1\n"), "{text}");
    }
}
