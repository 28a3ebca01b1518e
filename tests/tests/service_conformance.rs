//! Concurrency conformance for the service front-end: N client threads
//! hammering one `Service` — through in-process handles, and again over
//! the real unix socket — must leave exactly the bytes a sequential
//! `RaidVolume` replay leaves, for every registry code; a crash in the
//! middle of a dispatch into the stripe cache must recover to a
//! parity-consistent, untorn array through the write journal; and the
//! cache the service attaches must save the backend I/O it exists for.

use std::sync::Arc;

use hv_code::HvCode;
use integration::{all_codes, payload, LineClient, ServedSocket};
use proptest::prelude::*;
use raid_array::{Fault, FaultyBackend, FileBackend, RaidVolume};
use raid_core::ArrayCode;
use raid_service::proto::{from_hex, to_hex};
use raid_service::{Service, ServiceConfig, ServiceHandle, TenantClass};
use raid_workloads::skew::zipf_write_trace;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const ELEMENT: usize = 16;
const STRIPES: usize = 2;

/// One client's scripted op: offset/len are relative to its private region.
#[derive(Debug, Clone)]
enum Op {
    Write { at: usize, len: usize, seed: u64 },
    Read { at: usize, len: usize },
    Flush,
}

/// Deterministic per-thread op mix from a splitmix-style stream. Regions
/// are disjoint, so any cross-thread interleaving yields the same final
/// bytes as a sequential replay.
fn ops_for(thread: usize, region: usize, seed: u64) -> Vec<Op> {
    let mut state = seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..OPS_PER_THREAD)
        .map(|i| {
            let len = 1 + (next() as usize) % region.min(4);
            let at = (next() as usize) % (region - len + 1);
            match next() % 5 {
                0 => Op::Read { at, len },
                1 if i == OPS_PER_THREAD / 2 => Op::Flush,
                _ => Op::Write { at, len, seed: next() },
            }
        })
        .collect()
}

/// Where the clients of a run enter the service.
#[derive(Debug, Clone, Copy)]
enum Via {
    Handles,
    Socket,
}

/// One client's way in.
enum Door {
    Handle(ServiceHandle),
    Socket(LineClient),
}

impl Door {
    fn write(&mut self, addr: usize, data: &[u8]) {
        let elements = data.len() / ELEMENT;
        match self {
            Door::Handle(h) => assert_eq!(h.write(addr, data).expect("service write"), elements),
            Door::Socket(c) => assert_eq!(
                c.exchange(&format!("WRITE {addr} {}", to_hex(data))),
                format!("OK wrote {elements}")
            ),
        }
    }

    fn read(&mut self, addr: usize, len: usize) -> Vec<u8> {
        match self {
            Door::Handle(h) => h.read(addr, len).expect("service read"),
            Door::Socket(c) => {
                let reply = c.exchange(&format!("READ {addr} {len}"));
                let hex = reply.strip_prefix("OK data ").unwrap_or_else(|| panic!("{reply}"));
                from_hex(hex).expect("reply is hex")
            }
        }
    }

    fn flush(&mut self) {
        match self {
            Door::Handle(h) => h.flush().expect("service flush"),
            Door::Socket(c) => assert_eq!(c.exchange("FLUSH"), "OK flushed"),
        }
    }
}

/// Drives the scripted mix through a service with `THREADS` concurrent
/// clients — through handles, or over a live `serve` — then returns the
/// final volume contents.
fn run_concurrent(code: Arc<dyn ArrayCode>, scripts: &[Vec<Op>], via: Via) -> Vec<u8> {
    let vol = RaidVolume::in_memory(code, STRIPES, ELEMENT);
    let total = vol.data_elements();
    let region = total / THREADS;
    let svc = Service::new(vol, ServiceConfig::default());
    let served = match via {
        Via::Handles => None,
        Via::Socket => Some(ServedSocket::start(&svc, "hvraid_svc_conformance")),
    };
    std::thread::scope(|scope| {
        for (t, script) in scripts.iter().enumerate() {
            let mut door = match &served {
                None => Door::Handle(svc.session(&format!("client{t}"), TenantClass::Mixed)),
                Some(served) => {
                    let mut client = served.client();
                    let hello = client.exchange(&format!("HELLO client{t} mixed"));
                    assert!(hello.starts_with("OK session"), "{hello}");
                    Door::Socket(client)
                }
            };
            let base = t * region;
            scope.spawn(move || {
                // Thread-local shadow of this client's region: reads
                // through the service must agree with program order.
                let mut shadow = vec![0u8; region * ELEMENT];
                for op in script {
                    match *op {
                        Op::Write { at, len, seed } => {
                            let data = payload(len * ELEMENT, seed);
                            shadow[at * ELEMENT..(at + len) * ELEMENT].copy_from_slice(&data);
                            door.write(base + at, &data);
                        }
                        Op::Read { at, len } => {
                            assert_eq!(
                                door.read(base + at, len),
                                &shadow[at * ELEMENT..(at + len) * ELEMENT],
                                "read through service diverged from program order"
                            );
                        }
                        Op::Flush => door.flush(),
                    }
                }
            });
        }
    });
    match served {
        Some(served) => served.shut_down(), // `serve` drains and flushes on its way out
        None => svc.shutdown().expect("shutdown flush"),
    }
    svc.with_volume(|v| {
        let (bytes, _) = v.read(0, total).expect("final read");
        assert!(v.verify_all(), "parity inconsistent after concurrent service run");
        bytes
    })
}

/// Replays the same scripts one op at a time on a bare volume.
fn run_sequential(code: Arc<dyn ArrayCode>, scripts: &[Vec<Op>]) -> Vec<u8> {
    let mut vol = RaidVolume::in_memory(code, STRIPES, ELEMENT);
    let total = vol.data_elements();
    let region = total / THREADS;
    for (t, script) in scripts.iter().enumerate() {
        let base = t * region;
        for op in script {
            match *op {
                Op::Write { at, len, seed } => {
                    vol.write(base + at, &payload(len * ELEMENT, seed)).expect("replay write");
                }
                Op::Read { .. } | Op::Flush => {}
            }
        }
    }
    let (bytes, _) = vol.read(0, total).expect("replay read");
    bytes
}

fn conformance(code: Arc<dyn ArrayCode>, seed: u64) {
    let name = code.name().to_string();
    let region = RaidVolume::in_memory(Arc::clone(&code), STRIPES, ELEMENT).data_elements()
        / THREADS;
    let scripts: Vec<Vec<Op>> = (0..THREADS).map(|t| ops_for(t, region, seed)).collect();
    let sequential = run_sequential(Arc::clone(&code), &scripts);
    for via in [Via::Handles, Via::Socket] {
        assert_eq!(
            run_concurrent(Arc::clone(&code), &scripts, via),
            sequential,
            "{name}: concurrent service bytes diverge from sequential replay \
             (seed {seed}, via {via:?})"
        );
    }
}

#[test]
fn every_registry_code_matches_sequential_replay() {
    for p in [5usize, 13] {
        for code in all_codes(p) {
            conformance(code, 0xC0DE + p as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized op mixes: the fixed-seed sweep above covers every code;
    /// here one representative code absorbs many seeds.
    #[test]
    fn random_op_mixes_match_sequential_replay(seed in any::<u64>()) {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        conformance(code, seed);
    }
}

/// The write-back cache `Service::new` attaches is the coalescer: one
/// client's Zipf(0.9) stream of 2-element writes over HV p = 13 must cost
/// at least 30 % less backend element I/O through the service than the
/// same script on a cache-off volume, and leave the same bytes. One
/// client has one interleaving, so the ledger counts are exact.
#[test]
fn service_cache_saves_thirty_percent_of_zipf_write_io() {
    let es = 512usize;
    let volume = || {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(13).unwrap());
        RaidVolume::in_memory(code, 16, es)
    };
    let mut bare = volume();
    let total = bare.data_elements();
    let script: Vec<(usize, Vec<u8>)> = zipf_write_trace(2, 200, total, 0.9, 7)
        .patterns
        .iter()
        .enumerate()
        .map(|(i, p)| (p.start.min(total - p.len), payload(p.len * es, i as u64)))
        .collect();

    for (at, data) in &script {
        bare.write(*at, data).expect("uncached write");
    }
    let uncached = bare.ledger().total();

    let svc = Service::new(volume(), ServiceConfig::default());
    let handle = svc.session("zipf", TenantClass::Writer);
    for (at, data) in &script {
        handle.write(*at, data).expect("service write");
    }
    handle.flush().expect("final flush");
    let served = handle.stats().ledger.total();

    svc.with_volume(|v| {
        assert!(v.verify_all(), "parity inconsistent after the served script");
        assert_eq!(v.read(0, total).unwrap().0, bare.read(0, total).unwrap().0);
    });
    assert!(
        served * 10 <= uncached * 7,
        "the service's stripe cache must save >= 30% element I/O: {served} served vs {uncached} uncached"
    );
}

/// Crash mid dispatch into the cache: clients race adjacent writes
/// through the scheduler over a file-backed volume whose backend dies at
/// op `k`. Reopening the directory runs journal recovery; the array must
/// be parity-consistent and every element either the baseline or a value
/// some client actually wrote — never torn garbage.
#[test]
fn crash_during_dispatch_into_the_cache_recovers_untorn() {
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
    let layout = code.layout();
    let dir = integration::TempDir::new("hvraid_svc_crash");
    let dir = dir.path();
    let epd = STRIPES * layout.rows();
    let writers = 3usize;

    for k in (1u64..).step_by(7).take(24) {
        // Fresh baseline volume on disk.
        let capacity = {
            let be = FileBackend::create(dir, layout.cols(), epd, ELEMENT).expect("create");
            let mut v = RaidVolume::new(Arc::clone(&code), STRIPES, ELEMENT, Box::new(be))
                .expect("baseline volume");
            let capacity = v.data_elements();
            let baseline = vec![0x11u8; capacity * ELEMENT];
            v.write(0, &baseline).expect("baseline");
            capacity
        };
        let region = capacity / writers;

        // Serve over a backend that crashes at op k, mid dispatch.
        {
            let be = FileBackend::open(dir).expect("reopen");
            let faulty = FaultyBackend::new(Box::new(be), Vec::new())
                .with_faults([Fault::CrashAtOp { at_op: k }]);
            let vol = RaidVolume::new(Arc::clone(&code), STRIPES, ELEMENT, Box::new(faulty))
                .expect("crash volume");
            let svc = Service::new(vol, ServiceConfig::default());
            std::thread::scope(|scope| {
                for t in 0..writers {
                    let handle = svc.session(&format!("w{t}"), TenantClass::Writer);
                    scope.spawn(move || {
                        let fill = vec![0xA0 + t as u8; 2 * ELEMENT];
                        for i in 0..region.saturating_sub(1) {
                            // Adjacent overlapping writes: dirty elements
                            // pile up per stripe in the cache.
                            let _ = handle.write(t * region + i, &fill);
                            if i == region / 2 {
                                let _ = handle.flush();
                            }
                        }
                    });
                }
            });
            let _ = svc.shutdown(); // flush may fail post-crash; that's the point
        }

        // Recover: journal replay/rollback, then parity + containment.
        let be = FileBackend::open(dir).expect("recover");
        let mut v = RaidVolume::open(Arc::clone(&code), Box::new(be), false).expect("open");
        assert!(v.verify_all(), "crash at op {k}: parity inconsistent after recovery");
        let (bytes, _) = v.read(0, capacity).expect("read after recovery");
        for at in 0..capacity {
            let elem = &bytes[at * ELEMENT..(at + 1) * ELEMENT];
            let owner = (at / region).min(writers - 1);
            let written = [0xA0 + owner as u8; ELEMENT];
            let base = [0x11u8; ELEMENT];
            assert!(
                elem == base || elem == written,
                "crash at op {k}: element {at} is torn (neither baseline nor written value)"
            );
        }
    }
}
