//! Per-layer probes: each times one layer's public call from outside, as
//! the median of several repetitions. They do not depend on the workload
//! and run in every traced run.

use std::hint::black_box;
use std::time::Instant;

use crate::env::ScratchDir;
use crate::gen::{
    SplitMix64, DEGRADED_LENS, FIVE_CODES, FIVE_CODE_STRIPES, HV_DATA_PER_STRIPE, P, TABLE2,
};
use crate::report::{median, ratio, Metrics, Settings};
use crate::sut::{self, Code, Counts, Disks, Vol};

const KIB: usize = 1024;
const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// Median over `reps` repetitions of the mean nanoseconds of `inner`
/// back-to-back calls (one untimed call first).
fn time_ns(reps: usize, inner: usize, mut call: impl FnMut()) -> f64 {
    call();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let begun = Instant::now();
            for _ in 0..inner {
                call();
            }
            begun.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&mut samples)
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn prefilled(code: &Code, stripes: usize, element_size: usize) -> Vol {
    let mut vol = code.volume(stripes, element_size);
    let stripe = random_bytes(code.data_per_stripe() * element_size, 99);
    for s in 0..stripes {
        vol.write(s * code.data_per_stripe(), &stripe).expect("prefill");
    }
    vol.reset_counts();
    vol
}

pub fn run(settings: &Settings, scratch: &ScratchDir, m: &mut Metrics) -> Result<(), String> {
    let reps = settings.probe_reps();
    let hv = Code::new("hv", P);
    xor(reps, m);
    let encode_4k_us = xplan(reps, &hv, m);
    plan(reps, &hv, m);
    backend(reps, scratch, m)?;
    pipeline(reps, &hv, encode_4k_us, m);
    volume(reps, &hv, m);
    proto(reps, m);
    for (name, _) in FIVE_CODES {
        code_probe(reps, name, m);
    }
    Ok(())
}

/// `raid-math.xor`: the kernel alone, cache-resident.
fn xor(reps: usize, m: &mut Metrics) {
    for (es, inner) in [(64 * KIB, 100), (4 * KIB, 2_000)] {
        let sources: Vec<Vec<u8>> = (0..10).map(|k| random_bytes(es, k)).collect();
        let srcs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
        let mut dst = vec![0u8; es];
        let ns = time_ns(reps, inner, || {
            sut::xor_gather(black_box(&mut dst), black_box(&srcs));
        });
        if es == 4 * KIB {
            m.set("xor.gather_4k_ns", ns, reps);
        } else {
            m.set("xor.gather_gib_per_s", (10 * es) as f64 / GIB / (ns / 1e9), reps);
        }
    }
}

/// `raid-core.xplan`: one compiled full-stripe encode against the same
/// number of raw gathers over as many source elements.
fn xplan(reps: usize, hv: &Code, m: &mut Metrics) -> f64 {
    let es = 64 * KIB;
    let mut encoder = hv.encoder(es);
    let encode_ns = time_ns(reps, 10, || encoder.encode());
    let data_bytes = (hv.data_per_stripe() * es) as f64;
    m.set("xplan.encode_gib_per_s", data_bytes / GIB / (encode_ns / 1e9), reps);

    let (ops, source_reads) = encoder.plan_shape();
    let pool: Vec<Vec<u8>> =
        (0..hv.rows() * hv.disks()).map(|k| random_bytes(es, k as u64)).collect();
    let mut dsts: Vec<Vec<u8>> = vec![vec![0u8; es]; ops];
    let raw_ns = time_ns(reps, 10, || {
        let mut next = 0usize;
        for (k, dst) in dsts.iter_mut().enumerate() {
            let n = source_reads / ops + usize::from(k < source_reads % ops);
            let srcs: Vec<&[u8]> =
                (0..n).map(|j| pool[(next + j) % pool.len()].as_slice()).collect();
            next += n;
            sut::xor_gather(black_box(dst), black_box(&srcs));
        }
    });
    m.set("xplan.encode_over_xor_ratio", ratio(encode_ns, raw_ns), reps);

    let mut small = hv.encoder(4 * KIB);
    let us = time_ns(reps, 200, || small.encode()) / 1e3;
    m.set("xplan.encode_4k_us", us, reps);
    us
}

/// `raid-core.plan`: the planners on the workloads' own patterns.
fn plan(reps: usize, hv: &Code, m: &mut Metrics) {
    let per_call = TABLE2.len() as f64;
    let ns = time_ns(reps, 4, || {
        for &(s, l, _) in &TABLE2 {
            black_box(hv.plan_partial_write(s as usize, l as usize));
        }
    });
    m.set("plan.partial_write_us", ns / per_call / 1e3, reps);

    // A flush batches what several writes left dirty: two patterns each.
    let batches: Vec<Vec<usize>> = TABLE2
        .iter()
        .zip(TABLE2.iter().cycle().skip(1))
        .map(|(&(s, l, _), &(s2, l2, _))| {
            (s as usize..(s + l) as usize).chain(s2 as usize..(s2 + l2) as usize).collect()
        })
        .collect();
    let ns = time_ns(reps, 4, || {
        for ordinals in &batches {
            black_box(hv.plan_batched_write(ordinals));
        }
    });
    m.set("plan.batched_write_us", ns / per_call / 1e3, reps);

    let reads: Vec<(usize, usize)> = DEGRADED_LENS
        .iter()
        .flat_map(|&l| {
            (0..HV_DATA_PER_STRIPE - l as usize).step_by(7).map(move |s| (s, l as usize))
        })
        .collect();
    let ns = time_ns(reps, 4, || {
        for &(start, len) in &reads {
            black_box(hv.plan_degraded_read(3, start, len));
        }
    });
    m.set("plan.degraded_read_us", ns / reads.len() as f64 / 1e3, reps);
}

/// `raid-array.backend`: the floor under every op. The file figures are
/// this sandbox's (fsync cost varies with the host) and informational.
fn backend(reps: usize, scratch: &ScratchDir, m: &mut Metrics) -> Result<(), String> {
    let es = 4 * KIB;
    let (disks, per_disk) = (12, 12 * 64);
    let element = random_bytes(es, 5);
    let mut buf = vec![0u8; es];

    let mut mem = Disks::in_memory(disks, per_disk, es);
    let all = (disks * per_disk) as f64;
    let ns = time_ns(reps, 1, || {
        for index in 0..per_disk {
            for disk in 0..disks {
                mem.write(disk, index, black_box(&element));
            }
        }
    });
    m.set("backend.mem_write_ns_per_element", ns / all, reps);
    let ns = time_ns(reps, 1, || {
        for index in 0..per_disk {
            for disk in 0..disks {
                mem.read(disk, index, black_box(&mut buf));
            }
        }
    });
    m.set("backend.mem_read_ns_per_element", ns / all, reps);

    let per_disk = 12;
    let mut file = Disks::on_files(&scratch.path().join("disks"), disks, per_disk, es)
        .map_err(|e| format!("file backend: {e}"))?;
    let ns = time_ns(reps, 1, || {
        for index in 0..per_disk {
            for disk in 0..disks {
                file.write(disk, index, black_box(&element));
            }
        }
    });
    m.set("backend.file_write_us_per_element", ns / (disks * per_disk) as f64 / 1e3, reps);
    let ns = time_ns(reps, 3, || file.journal_cycle());
    m.set("backend.file_journal_commit_us", ns / 1e3, reps);
    Ok(())
}

/// `raid-array.pipeline`: lowered ops against the in-memory backend.
fn pipeline(reps: usize, hv: &Code, encode_4k_us: f64, m: &mut Metrics) {
    let mut pipe = hv.pipe(1, 4 * KIB);
    let read4 = time_ns(reps, 2_000, || pipe.read4()) / 1e3;
    m.set("pipeline.read4_us", read4, reps);
    let full = time_ns(reps, 100, || pipe.full_stripe()) / 1e3;
    m.set("pipeline.full_stripe_us", full, reps);
    m.set("pipeline.full_stripe_over_xplan_ratio", ratio(full, encode_4k_us), reps);
}

/// `raid-array.volume`, cache off.
fn volume(reps: usize, hv: &Code, m: &mut Metrics) {
    // Degraded reads with one disk lost, by length.
    let mut vol = prefilled(hv, 64, 4 * KIB);
    vol.fail_disk(3).expect("fail one disk");
    let mut rng = SplitMix64::new(17);
    let (mut fetched, mut asked) = (0u64, 0u64);
    for len in DEGRADED_LENS {
        let len = len as usize;
        let ns = time_ns(reps, 200, || {
            let start = rng.below((vol.data_elements() - len + 1) as u64) as usize;
            let (bytes, counts) = vol.read(start, len).expect("degraded read");
            black_box(bytes);
            fetched += counts.reads;
            asked += len as u64;
        });
        m.set(&format!("volume.degraded_read_us.L{len}"), ns / 1e3, reps);
    }
    m.set("volume.degraded_fetch_ratio", ratio(fetched as f64, asked as f64), asked as usize);

    // Table II on one stripe, each pattern weighted by its frequency.
    let mut vol = prefilled(hv, 1, 4 * KIB);
    let payload = random_bytes(HV_DATA_PER_STRIPE * 4 * KIB, 23);
    let (mut io, mut parity, mut elements) = (0u64, 0u64, 0u64);
    for &(s, l, f) in &TABLE2 {
        let c: Counts = vol.write(s as usize, &payload[..l as usize * 4 * KIB]).expect("write");
        io += c.io() * u64::from(f);
        parity += c.parity_writes * u64::from(f);
        elements += u64::from(l * f);
    }
    m.set("volume.io_per_write_element", ratio(io as f64, elements as f64), elements as usize);
    m.set(
        "volume.parity_writes_per_write_element",
        ratio(parity as f64, elements as f64),
        elements as usize,
    );

    // Large elements: the shape of `volume_rebuild`.
    let (stripes, es) = (8, 64 * KIB);
    let mut vol = prefilled(hv, stripes, es);
    let payload = random_bytes(HV_DATA_PER_STRIPE * es, 29);
    let ns = time_ns(reps, 1, || {
        for s in 0..stripes {
            vol.write(s * HV_DATA_PER_STRIPE, &payload).expect("full-stripe write");
        }
    });
    let written = (stripes * HV_DATA_PER_STRIPE * es) as f64;
    m.set("volume.full_stripe_write_mib_per_s", written / MIB / (ns / 1e9), reps);
    let disk_bytes = (hv.rows() * stripes * es) as f64;
    for (name, lost) in
        [("volume.rebuild1_mib_per_s", &[5usize][..]), ("volume.rebuild2_mib_per_s", &[5, 9])]
    {
        let ns = time_ns(reps, 1, || {
            for &disk in lost {
                vol.fail_disk(disk).expect("fail disk");
            }
            vol.rebuild().expect("rebuild");
        });
        m.set(name, lost.len() as f64 * disk_bytes / MIB / (ns / 1e9), reps);
    }
    assert!(vol.verify_all(), "probe volume inconsistent after rebuilds");
}

/// `raid-service.proto`: the text codec alone.
fn proto(reps: usize, m: &mut Metrics) {
    let bytes = random_bytes(16 * KIB, 31);
    let hex = sut::proto_to_hex(&bytes);
    let line = format!("WRITE 1234 {hex}");
    let ns = time_ns(reps, 50, || {
        black_box(sut::proto_parse(black_box(&line)));
    });
    m.set("proto.parse_write4_us", ns / 1e3, reps);
    let ns = time_ns(reps, 50, || {
        black_box(sut::proto_to_hex(black_box(&bytes)));
    });
    m.set("proto.to_hex_gib_per_s", bytes.len() as f64 / GIB / (ns / 1e9), reps);
    let ns = time_ns(reps, 50, || {
        black_box(sut::proto_from_hex(black_box(&hex)));
    });
    m.set("proto.from_hex_gib_per_s", bytes.len() as f64 / GIB / (ns / 1e9), reps);
}

/// `raid-baselines` + `hv-code`: the paper's Figs. 6, 7 and 9b in wall
/// time, one code at a time, on the `five_code_small_ops` volume shape.
fn code_probe(reps: usize, name: &str, m: &mut Metrics) {
    let code = Code::new(name, P);
    let es = 4 * KIB;
    let element = random_bytes(es, 37);
    let mut rng = SplitMix64::new(41);

    let mut healthy = prefilled(&code, FIVE_CODE_STRIPES, es);
    let capacity = healthy.data_elements();
    let ns = time_ns(reps, 100, || {
        let addr = rng.below(capacity as u64) as usize;
        healthy.write(addr, &element).expect("update");
    });
    m.set(&format!("codes.{name}.update_us"), ns / 1e3, reps);

    let mut degraded = prefilled(&code, FIVE_CODE_STRIPES, es);
    degraded.fail_disk(3).expect("fail one disk");
    let ns = time_ns(reps, 100, || {
        let len = DEGRADED_LENS[rng.below(4) as usize] as usize;
        let start = rng.below((capacity - len + 1) as u64) as usize;
        black_box(degraded.read(start, len).expect("degraded read"));
    });
    m.set(&format!("codes.{name}.degraded_read_us"), ns / 1e3, reps);

    let ns = time_ns(reps, 1, || {
        healthy.fail_disk(1).expect("fail disk");
        healthy.fail_disk(4).expect("fail disk");
        healthy.rebuild().expect("rebuild");
    });
    let rebuilt = (2 * code.rows() * FIVE_CODE_STRIPES * es) as f64;
    m.set(&format!("codes.{name}.rebuild2_mib_per_s"), rebuilt / MIB / (ns / 1e9), reps);
    assert!(healthy.verify_all(), "{name}: inconsistent after rebuild");
}
