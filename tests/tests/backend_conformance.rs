//! Backend conformance: every [`raid_array::DiskBackend`] implementation
//! must be observationally identical under the volume's operation stream.
//! The suite runs the same lifecycle against the in-memory, file-per-disk,
//! and fault-injecting backends, and additionally proves that a
//! [`raid_array::FaultyBackend`] firing two mid-run failures still serves
//! every byte for every code at p ∈ {5, 7, 13}.

use std::sync::Arc;

use integration::{all_codes, payload};
use raid_array::{
    lower, CacheConfig, DiskAddr, DiskBackend, Fault, FaultPoint, FaultyBackend, FileBackend,
    MemBackend, RaidVolume, VolumeError,
};
use raid_core::ArrayCode;

const ELEMENT: usize = 16;
const STRIPES: usize = 2;

/// The three backend kinds under test. The faulty case here carries an
/// empty schedule — behavioural equivalence with its inner backend is part
/// of the conformance contract; injected faults get their own test below.
const BACKENDS: [&str; 3] = ["mem", "file", "faulty"];

fn make_backend(kind: &str, label: &str, disks: usize, epd: usize) -> Box<dyn DiskBackend> {
    match kind {
        "mem" => Box::new(MemBackend::new(disks, epd, ELEMENT)),
        "file" => {
            let dir = std::env::temp_dir().join(format!("hvraid_conformance_{label}"));
            let _ = std::fs::remove_dir_all(&dir);
            Box::new(FileBackend::create(dir, disks, epd, ELEMENT).expect("temp dir writable"))
        }
        "faulty" => Box::new(FaultyBackend::new(
            Box::new(MemBackend::new(disks, epd, ELEMENT)),
            Vec::new(),
        )),
        other => panic!("unknown backend kind {other}"),
    }
}

fn cleanup(kind: &str, label: &str) {
    if kind == "file" {
        let dir = std::env::temp_dir().join(format!("hvraid_conformance_{label}"));
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn volume_on(code: &Arc<dyn ArrayCode>, kind: &str, label: &str) -> RaidVolume {
    let layout = code.layout();
    let backend = make_backend(kind, label, layout.cols(), STRIPES * layout.rows());
    RaidVolume::new(Arc::clone(code), STRIPES, ELEMENT, backend).expect("shape matches")
}

/// Runs `body` on a fresh volume for every code at p = 7 × backend; `ctx`
/// names the combination in assertion messages.
fn on_every_volume(tag: &str, mut body: impl FnMut(&mut RaidVolume, &str)) {
    for code in all_codes(7) {
        for kind in BACKENDS {
            let ctx = format!("{}/{kind}", code.name());
            let label = format!("{tag}_{kind}_{}", code.name().replace(' ', "_"));
            let mut v = volume_on(&code, kind, &label);
            body(&mut v, &ctx);
            cleanup(kind, &label);
        }
    }
}

/// `DiskBackend::write_all` is all-or-nothing on every backend, wherever
/// its bad target sits: on a failed disk, past the last element or past
/// the last disk, first, in the middle or last. Memory checks its targets
/// and copies each once; the file and fault-injecting backends run the
/// journaled default. All three return the same error and leave every
/// element as it was, and a store with no bad target lands whole.
#[test]
fn write_all_is_all_or_nothing_on_every_backend() {
    use raid_array::DiskError;
    const DISKS: usize = 4;
    const PER_DISK: usize = 3;
    let at = |disk, index| DiskAddr { disk, index };
    let old = |a: DiskAddr| [(a.disk * PER_DISK + a.index) as u8 + 1; ELEMENT];
    let new = [0xEE; ELEMENT];
    let good = [at(0, 0), at(1, 1), at(3, 2)];
    let bad = [
        (at(2, 1), DiskError::DiskFailed { disk: 2 }),
        (at(1, PER_DISK), DiskError::Io { disk: 1 }),
        (at(DISKS, 0), DiskError::NoSuchDisk { disk: DISKS }),
    ];
    for kind in BACKENDS {
        let label = format!("write_all_{kind}");
        let mut b = make_backend(kind, &label, DISKS, PER_DISK);
        for a in (0..DISKS).flat_map(|disk| (0..PER_DISK).map(move |index| at(disk, index))) {
            b.write(a.disk, a.index, &old(a)).unwrap();
        }
        b.fail(2).unwrap();
        let holds = |b: &mut Box<dyn DiskBackend>, a: DiskAddr| {
            let mut buf = [0; ELEMENT];
            b.read(a.disk, a.index, &mut buf).unwrap();
            buf
        };
        for (wrong, err) in bad {
            for k in 0..=good.len() {
                let mut addrs = good.to_vec();
                addrs.insert(k, wrong);
                let targets: Vec<(DiskAddr, &[u8])> = addrs.iter().map(|&a| (a, &new[..])).collect();
                assert_eq!(b.write_all(&targets), Err(err), "{kind}: {wrong:?} at {k}");
                for a in good {
                    assert_eq!(holds(&mut b, a), old(a), "{kind}: {wrong:?} at {k} stored {a:?}");
                }
            }
        }
        let targets: Vec<(DiskAddr, &[u8])> = good.iter().map(|&a| (a, &new[..])).collect();
        b.write_all(&targets).unwrap();
        for a in good {
            assert_eq!(holds(&mut b, a), new, "{kind}: {a:?}");
        }
        assert_eq!(holds(&mut b, at(0, 1)), old(at(0, 1)), "{kind}: a bystander moved");
        cleanup(kind, &label);
    }
}

/// `DiskBackend::lend` is `read`, address by address, on every backend.
/// Memory checks the op's addresses and lends its own storage; the file
/// and fault-injecting backends read into the caller's staging buffer.
/// Each lends the bytes `read` returns. On a bad op each fails with the
/// first error the same reads, in op order, return: a failed disk, an
/// index past the end, a disk past the last, and — through a fault
/// injector over memory and over files — a latent sector, a transient
/// error, a disk dying mid-op on schedule and a crash mid-op. The
/// injector's op counter ends where those reads leave it.
#[test]
fn lending_an_op_reads_it_address_by_address_on_every_backend() {
    use raid_array::DiskError;
    const DISKS: usize = 4;
    const PER_DISK: usize = 3;
    let at = |disk, index| DiskAddr { disk, index };
    let old = |a: DiskAddr| [(a.disk * PER_DISK + a.index) as u8 + 1; ELEMENT];
    let every: Vec<DiskAddr> =
        (0..DISKS).flat_map(|disk| (0..PER_DISK).map(move |index| at(disk, index))).collect();
    // Two good addresses, the one a case's fault hits, two more.
    let around = |hit| vec![at(0, 0), at(1, 2), hit, at(3, 1), at(2, 0)];
    /// One op, the faults injected before it and the error it must meet.
    struct Case {
        name: &'static str,
        faults: Vec<Fault>,
        schedule: Vec<FaultPoint>,
        op: Vec<DiskAddr>,
        error: Option<DiskError>,
    }
    let case = |name, faults, op, error| Case { name, faults, schedule: vec![], op, error };
    let cases = [
        case("healthy", vec![], every.clone(), None),
        case(
            "failed disk",
            vec![Fault::Dead { disk: 2 }],
            around(at(2, 1)),
            Some(DiskError::DiskFailed { disk: 2 }),
        ),
        case("bad index", vec![], around(at(1, PER_DISK)), Some(DiskError::Io { disk: 1 })),
        case("bad disk", vec![], around(at(DISKS, 0)), Some(DiskError::NoSuchDisk { disk: DISKS })),
        case(
            "latent sector",
            vec![Fault::LatentSector { disk: 1, index: 1 }],
            around(at(1, 1)),
            Some(DiskError::LatentSector { disk: 1, index: 1 }),
        ),
        case(
            "transient",
            vec![Fault::Transient { disk: 3, ops: 1 }],
            around(at(3, 2)),
            Some(DiskError::Transient { disk: 3 }),
        ),
        Case {
            schedule: vec![FaultPoint { at_op: 2, disk: 3 }],
            ..case(
                "disk dies as the second read is served",
                vec![],
                around(at(3, 2)),
                Some(DiskError::DiskFailed { disk: 3 }),
            )
        },
        case(
            "crash at the third read",
            vec![Fault::CrashAtOp { at_op: 3 }],
            around(at(3, 2)),
            Some(DiskError::Crashed),
        ),
    ];
    let build = |kind: &str, label: &str, faults: &[Fault], schedule: &[FaultPoint]| {
        let inner = kind.strip_prefix("faulty-").unwrap_or(kind);
        let mut b = make_backend(inner, label, DISKS, PER_DISK);
        for &a in &every {
            b.write(a.disk, a.index, &old(a)).unwrap();
        }
        if inner == kind {
            for fault in faults {
                let &Fault::Dead { disk } = fault else { return None };
                b.fail(disk).unwrap();
            }
            return schedule.is_empty().then_some(b);
        }
        let faulty = FaultyBackend::new(b, schedule.to_vec()).with_faults(faults.iter().copied());
        Some(Box::new(faulty) as Box<dyn DiskBackend>)
    };
    let mut ran = 0;
    for kind in ["mem", "file", "faulty-mem", "faulty-file"] {
        let inner = kind.strip_prefix("faulty-").unwrap_or(kind);
        for Case { name, faults, schedule, op, error } in &cases {
            let what = format!("{kind}: {name}");
            let labels = [format!("lend_{kind}_lender"), format!("lend_{kind}_reader")];
            let Some(mut lender) = build(kind, &labels[0], faults, schedule) else { continue };
            let mut reader = build(kind, &labels[1], faults, schedule).unwrap();
            let mut staging = Vec::new();
            let lent = lender.lend(op, &mut staging).map(|slices| slices.concat());
            let read = op.iter().try_fold(Vec::new(), |mut bytes, a| {
                let mut buf = [0; ELEMENT];
                reader.read(a.disk, a.index, &mut buf)?;
                bytes.extend_from_slice(&buf);
                Ok(bytes)
            });
            assert_eq!(lent, read, "{what}");
            match error {
                Some(e) => assert_eq!(lent, Err(*e), "{what}"),
                None => assert_eq!(lent, Ok(op.iter().flat_map(|&a| old(a)).collect()), "{what}"),
            }
            if let Some(lender) = lender.as_faulty_mut() {
                let ops = reader.as_faulty_mut().unwrap().ops();
                assert_eq!(lender.ops(), ops, "{what}: op counter");
            }
            for label in &labels {
                cleanup(inner, label);
            }
            ran += 1;
        }
    }
    assert_eq!(ran, 2 * 4 + 2 * cases.len(), "every case ran on every backend it applies to");
}

#[test]
fn write_read_roundtrip_on_every_backend() {
    on_every_volume("rt", |v, ctx| {
        let data = payload(v.data_elements() * ELEMENT, 3);
        v.write(0, &data).unwrap();
        assert!(v.verify_all(), "{ctx}");
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data, "{ctx}: roundtrip");
        // Partial overwrite stays consistent too.
        let patch = payload(3 * ELEMENT, 17);
        v.write(2, &patch).unwrap();
        let (bytes, _) = v.read(2, 3).unwrap();
        assert_eq!(bytes, patch, "{ctx}: partial overwrite");
        assert!(v.verify_all(), "{ctx}: parity after overwrite");
    });
}

#[test]
fn degraded_read_equals_pre_failure_data_on_every_backend() {
    on_every_volume("dr", |v, ctx| {
        let data = payload(v.data_elements() * ELEMENT, 5);
        v.write(0, &data).unwrap();
        v.fail_disk(1).unwrap();
        v.fail_disk(v.disks() - 1).unwrap();
        let (bytes, io) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data, "{ctx}: double-degraded read");
        assert!(io.total_reads() > 0, "{ctx}");
    });
}

#[test]
fn rebuild_restores_verification_on_every_backend() {
    on_every_volume("rb", |v, ctx| {
        let data = payload(v.data_elements() * ELEMENT, 7);
        v.write(0, &data).unwrap();
        v.fail_disk(0).unwrap();
        v.fail_disk(v.disks() / 2).unwrap();
        assert!(!v.verify_all(), "{ctx}: degraded must not verify");
        v.rebuild().unwrap();
        assert!(v.verify_all(), "{ctx}: rebuild must restore parity");
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data, "{ctx}: post-rebuild read");
    });
}

#[test]
fn two_injected_faults_still_serve_reads_for_every_code_and_prime() {
    for p in [5usize, 7, 13] {
        for code in all_codes(p) {
            let name = code.name().to_string();
            let layout = code.layout();
            let disks = layout.cols();
            // Two faults firing mid-stream on distinct disks: one early
            // (during the initial write), one later (during reads).
            let schedule = vec![
                FaultPoint { at_op: 7, disk: 1 },
                FaultPoint { at_op: 60, disk: disks - 2 },
            ];
            let backend = FaultyBackend::new(
                Box::new(MemBackend::new(disks, STRIPES * layout.rows(), ELEMENT)),
                schedule,
            );
            let mut v = RaidVolume::new(Arc::clone(&code), STRIPES, ELEMENT, Box::new(backend))
                .expect("shape matches");
            let data = payload(v.data_elements() * ELEMENT, p as u64);
            v.write(0, &data).unwrap();
            let (bytes, _) = v.read(0, v.data_elements()).unwrap();
            assert_eq!(bytes, data, "{name} p={p}: reads must survive 2 injected faults");
            assert!(
                v.failed_disks().len() <= 2,
                "{name} p={p}: at most the two scheduled faults may fire"
            );
            // The volume can still be brought back to health.
            v.rebuild().unwrap();
            assert!(v.verify_all(), "{name} p={p}: rebuild after injected faults");
        }
    }
}

/// A volume of `stripes` stripes on a [`FaultyBackend`] over memory firing
/// `schedule`, holding `data`.
fn holding(
    code: &Arc<dyn ArrayCode>,
    stripes: usize,
    rotate: bool,
    data: &[u8],
    schedule: Vec<FaultPoint>,
) -> RaidVolume {
    let layout = code.layout();
    let inner = MemBackend::new(layout.cols(), stripes * layout.rows(), ELEMENT);
    let backend = Box::new(FaultyBackend::new(Box::new(inner), schedule));
    let mut v = RaidVolume::with_backend(Arc::clone(code), stripes, ELEMENT, rotate, backend)
        .expect("shape matches");
    v.write(0, data).unwrap();
    v
}

/// A healthy read lands in the caller's buffer as the backend serves it,
/// so a fault part-way through leaves a half-filled window behind for the
/// retry. HV p = 13, 15 elements from the top of stripe 1 (the first ten
/// each on a disk of their own), the 8th backend read hitting each fault
/// class in turn: the bytes are a fault-free twin's, exactly `len ×
/// element_size` of them, and the I/O committed — `(reads in the receipt,
/// the volume ledger's growth)` — is what `1850b5c`, which staged every
/// read in a scratch stripe, committed for the same schedule. The receipt
/// now carries the repair's reads too: it is the ledger's growth, where
/// `1850b5c` returned 15 reads for the latent sector.
#[test]
fn a_fault_at_the_eighth_read_of_a_healthy_read_returns_the_right_bytes_once() {
    const START: usize = 120;
    const LEN: usize = 15;
    let code = all_codes(13).remove(0);
    let data = payload(STRIPES * code.layout().num_data_cells() * ELEMENT, 13);
    let written = |schedule| holding(&code, STRIPES, false, &data, schedule);
    let mut twin = written(Vec::new());
    let setup_ops = twin.backend_faulty_mut().unwrap().ops();
    let (disk, index) = twin.locate_data_element(START + 7).unwrap();
    let (expected, receipt) = twin.read(START, LEN).unwrap();
    assert_eq!(expected, data[START * ELEMENT..(START + LEN) * ELEMENT]);
    assert_eq!(receipt.total(), LEN as u64);

    let dies_at_the_eighth_read = vec![FaultPoint { at_op: setup_ops + 8, disk }];
    let cases = [
        // Repairing the sector in place: the stripe's other 143 cells and one write.
        ("latent sector", Some(Fault::LatentSector { disk, index }), vec![], (158, 159)),
        ("transient", Some(Fault::Transient { disk, ops: 1 }), vec![], (15, 15)),
        // Replanned degraded: the row's horizontal parity stands in for the lost cell.
        ("disk death", None, dies_at_the_eighth_read, (15, 15)),
    ];
    for (name, fault, schedule, committed) in cases {
        let mut v = written(schedule);
        if let Some(fault) = fault {
            v.backend_faulty_mut().unwrap().inject(fault);
        }
        let before = v.ledger().total();
        let (bytes, receipt) = v.read(START, LEN).unwrap();
        assert_eq!(bytes.len(), LEN * ELEMENT, "{name}");
        assert_eq!(bytes, expected, "{name}");
        assert_eq!((receipt.total_reads(), v.ledger().total() - before), committed, "{name}");
        assert_eq!(v.failed_disks().len(), usize::from(name == "disk death"), "{name}");
    }
}

/// The same three faults under a read that reconstructs: HV p = 13 with
/// disk 3 failed, ten elements of stripe 1 that cross column 3, the fault at
/// the op's fourth backend read. The death turns the retry into a
/// two-column reconstruction. Bytes and committed I/O are what `fc8f0f0`,
/// which ran the op on a dense scratch, returned for the same schedule;
/// the latent sector's receipt now carries its repair (it read 12 there).
#[test]
fn a_fault_at_the_fourth_read_of_a_reconstructing_read_returns_the_right_bytes_once() {
    const START: usize = 138;
    const LEN: usize = 10;
    const K: usize = 4;
    let code = all_codes(13).remove(0);
    let layout = code.layout();
    let data = payload(STRIPES * layout.num_data_cells() * ELEMENT, 14);
    let degraded = |schedule| {
        let mut v = holding(&code, STRIPES, false, &data, schedule);
        v.fail_disk(3).unwrap();
        v
    };
    let mut twin = degraded(Vec::new());
    let setup_ops = twin.backend_faulty_mut().unwrap().ops();
    let requested = &layout.data_cells()[START % layout.num_data_cells()..][..LEN];
    let stripe = START / layout.num_data_cells();
    let addr = |c| lower::cell_addr(twin.addressing(), layout.rows(), stripe, c);
    let op = lower::read_op(layout, &[3], requested, &addr).unwrap();
    assert!(op.plan.is_some(), "the read must cross column 3");
    let DiskAddr { disk, index } = op.reads[K - 1].1;
    let (expected, receipt) = twin.read(START, LEN).unwrap();
    assert_eq!(expected, data[START * ELEMENT..(START + LEN) * ELEMENT]);
    assert_eq!(receipt.total(), op.reads.len() as u64);

    let dies_at_the_fourth_read = vec![FaultPoint { at_op: setup_ops + K as u64, disk }];
    let cases = [
        // Repairing the sector in place: the surviving columns' other 131 cells and one write.
        ("latent sector", Some(Fault::LatentSector { disk, index }), vec![], (143, 144)),
        ("transient", Some(Fault::Transient { disk, ops: 1 }), vec![], (12, 12)),
        // Replanned with two columns lost: the dependency slice of a double decode.
        ("disk death", None, dies_at_the_fourth_read, (74, 74)),
    ];
    for (name, fault, schedule, committed) in cases {
        let mut v = degraded(schedule);
        if let Some(fault) = fault {
            v.backend_faulty_mut().unwrap().inject(fault);
        }
        let before = v.ledger().total();
        let (bytes, receipt) = v.read(START, LEN).unwrap();
        assert_eq!(bytes.len(), LEN * ELEMENT, "{name}");
        assert_eq!(bytes, expected, "{name}");
        assert_eq!((receipt.total_reads(), v.ledger().total() - before), committed, "{name}");
        assert_eq!(v.failed_disks().len(), 1 + usize::from(name == "disk death"), "{name}");
    }
}

/// A cached flush runs on the cache entry's own slots, lent to the
/// store's scratch, so they must come home on every path. HV p = 13,
/// three stripes of (dirty, clean-resident) elements — 60 + 20, 10 + 20,
/// 30 scattered + 15 — and a fault aimed at the `k`-th backend op of
/// `flush()`, `k` in the first stripe's read, pre-image and write phase:
/// a latent sector on op `k`'s element, a transient on its disk (failing
/// that disk's next read, which may come sooner), its disk dying as op
/// `k` is issued. After each: every element reads back as the model, the
/// volume verifies once rebuilt, and the failed disks, the cache's
/// `(dirty stripes, resident elements)`, the receipt's `(reads, writes,
/// hits)` and the ledger growth are what `46cef8e`, which copied the
/// slots into its scratch, reported for the same schedule — but for the
/// latent sector in the read phase, whose receipt now carries its repair
/// and is the ledger's growth (`46cef8e` returned `(112, 150, 20)`).
#[test]
fn a_fault_anywhere_in_a_cached_flush_hands_every_lent_slot_back() {
    const CACHED: usize = 3;
    let code = all_codes(13).remove(0);
    let layout = code.layout();
    let per = layout.num_data_cells();
    let data = payload(CACHED * per * ELEMENT, 41);
    let sets: [(Vec<usize>, std::ops::Range<usize>); CACHED] = [
        ((20..80).collect(), 80..100),
        ((10..20).collect(), 40..60),
        ((0..90).step_by(3).collect(), 100..115),
    ];
    let mut model = data.clone();
    for (stripe, (dirty, _)) in sets.iter().enumerate() {
        for &ord in dirty {
            let at = (stripe * per + ord) * ELEMENT;
            model[at..at + ELEMENT].copy_from_slice(&payload(ELEMENT, at as u64));
        }
    }
    let element = |at: usize| &model[at * ELEMENT..(at + 1) * ELEMENT];
    let cached = |schedule| {
        let mut v = holding(&code, CACHED, false, &data, schedule);
        v.enable_cache(CacheConfig::default());
        for (stripe, (dirty, clean)) in sets.iter().enumerate() {
            v.read(stripe * per + clean.start, clean.len()).unwrap();
            for &ord in dirty {
                v.write(stripe * per + ord, element(stripe * per + ord)).unwrap();
            }
        }
        v
    };
    let reads_back = |v: &mut RaidVolume, what: &str| {
        assert_eq!(v.read(0, CACHED * per).unwrap().0, model, "{what}: bytes");
        v.rebuild().unwrap();
        assert!(v.verify_all(), "{what}: parity");
    };

    let mut twin = cached(Vec::new());
    let setup_ops = twin.backend_faulty_mut().unwrap().ops();
    let (dirty, clean) = &sets[0];
    let addr = |c| lower::cell_addr(twin.addressing(), layout.rows(), 0, c);
    let op = lower::stripe_write_op(layout, dirty, |ord| clean.contains(&ord), &addr).op;
    let targets: Vec<DiskAddr> =
        op.data_writes.iter().chain(&op.parity_writes).map(|&(_, at)| at).collect();
    let (r, w) = (op.reads.len(), targets.len());
    assert!(r > 0 && w > 0, "stripe 0 must read and write");
    // (phase, k counted from the flush's first op, op k's address)
    let phases = [
        ("read", r / 2 + 1, op.reads[r / 2].1),
        ("pre-image", r + w / 2 + 1, targets[w / 2]),
        ("write", r + w + w / 2 + 1, targets[w / 2]),
    ];
    twin.flush().unwrap();
    reads_back(&mut twin, "fault-free");

    let mut outcomes = Vec::new();
    for (phase, k, DiskAddr { disk, index }) in phases {
        let at_op = setup_ops + k as u64;
        let cases = [
            ("latent sector", Some(Fault::LatentSector { disk, index }), vec![]),
            ("transient", Some(Fault::Transient { disk, ops: 1 }), vec![]),
            ("disk death", None, vec![FaultPoint { at_op, disk }]),
        ];
        for (class, fault, schedule) in cases {
            let what = format!("{class} at op {k} ({phase})");
            let mut v = cached(schedule);
            if let Some(fault) = fault {
                v.backend_faulty_mut().unwrap().inject(fault);
            }
            let before = v.ledger().total();
            let receipt = v.flush().unwrap();
            outcomes.push((
                v.failed_disks().len(),
                (v.cache_dirty_stripes(), v.cache_resident_elements()),
                (receipt.total_reads(), receipt.total_writes(), receipt.cache_hits()),
                v.ledger().total() - before,
            ));
            reads_back(&mut v, &what);
        }
    }
    // (failed disks, (dirty stripes, resident elements), (reads, writes,
    // hits), ledger growth) per phase: latent sector, transient, death.
    let parent = [
        (0, (0, 155), (255, 151, 20), 406),
        (0, (0, 155), (112, 150, 20), 262),
        (1, (0, 155), (396, 157, 0), 553),
        (0, (0, 155), (112, 150, 20), 262),
        (0, (0, 155), (112, 150, 20), 262),
        (1, (0, 155), (396, 160, 0), 556),
        (0, (0, 155), (112, 150, 20), 262),
        (0, (0, 155), (112, 150, 20), 262),
        (1, (0, 155), (396, 160, 0), 556),
    ];
    assert_eq!(outcomes, parent);

    // A crash at the first write leaves nothing written and the cache as
    // it was: dirty set, resident bytes — and a later flush writes them.
    let mut v = cached(Vec::new());
    let resident = v.cache_resident_elements();
    let first_write = setup_ops + (r + w + 1) as u64;
    v.backend_faulty_mut().unwrap().inject(Fault::CrashAtOp { at_op: first_write });
    assert_eq!(v.flush().map(drop), Err(VolumeError::Backend(raid_array::DiskError::Crashed)));
    assert_eq!((v.cache_dirty_stripes(), v.cache_resident_elements()), (CACHED, resident));
    for (stripe, (dirty, clean)) in sets.iter().enumerate() {
        for ord in dirty.iter().copied().chain(clean.clone()) {
            let at = stripe * per + ord;
            assert_eq!(v.read(at, 1).unwrap().0, element(at), "crash: element {at}");
        }
    }
    v.backend_faulty_mut().unwrap().clear_crash();
    v.flush().unwrap();
    assert_eq!(v.cache_dirty_stripes(), 0);
    reads_back(&mut v, "crash, then flush");
}

/// Rotation makes consecutive stripes lose different logical columns, so
/// a rebuild step re-cuts its scratch stripe after stripe; 13 stripes
/// wrap every code's rotation at p = 7. Both lost disks come back, and
/// the I/O is what `fc8f0f0` issued with a fresh dense scratch per stripe.
#[test]
fn rotated_double_rebuild_restores_every_code_with_the_same_io() {
    const ROTATED: usize = 13;
    // (reads, writes) per code, in `all_codes` order.
    let issued = [
        (312, 156),
        (468, 156),
        (546, 156),
        (455, 182),
        (468, 156),
        (312, 156),
        (195, 78),
        (637, 182),
    ];
    for (code, issued) in all_codes(7).into_iter().zip(issued) {
        let name = code.name();
        let data = payload(ROTATED * code.layout().num_data_cells() * ELEMENT, 31);
        let mut v = holding(&code, ROTATED, true, &data, Vec::new());
        v.fail_disk(1).unwrap();
        v.fail_disk(v.disks() - 2).unwrap();
        let receipt = v.rebuild().unwrap();
        assert_eq!((receipt.total_reads(), receipt.total_writes()), issued, "{name}");
        assert!(v.failed_disks().is_empty() && v.verify_all(), "{name}");
        assert_eq!(v.read(0, v.data_elements()).unwrap().0, data, "{name}");
    }
}

/// A bystander disk dying halfway through a `maintain(usize::MAX)` of an
/// active task: the step adopts the failure, re-cuts its scratch for the
/// two-column decode and still lands its own disk. Failed set,
/// checkpoint, I/O and bytes are `fc8f0f0`'s.
#[test]
fn a_bystander_death_mid_rebuild_step_is_adopted_and_the_step_completes() {
    const ROTATED: usize = 13;
    const BYSTANDER: usize = 5;
    let code = all_codes(7).remove(0);
    let data = payload(ROTATED * code.layout().num_data_cells() * ELEMENT, 37);
    let rebuilding = |schedule| {
        let mut v = holding(&code, ROTATED, true, &data, schedule);
        v.fail_disk(1).unwrap();
        v.set_spares(1);
        v.maintain(0).unwrap(); // swaps the spare in; rebuilds no stripe yet
        assert_eq!(v.rebuild_progress().map(|cp| cp.next_stripe), Some(0));
        v
    };
    let mut twin = rebuilding(Vec::new());
    let setup_ops = twin.backend_faulty_mut().unwrap().ops();
    let undisturbed = twin.maintain(usize::MAX).unwrap();
    // Element operations the step was served, journal pre-images included.
    let step_ops = twin.backend_faulty_mut().unwrap().ops() - setup_ops;

    let mut v = rebuilding(vec![FaultPoint { at_op: setup_ops + step_ops / 2, disk: BYSTANDER }]);
    let receipt = v.maintain(usize::MAX).unwrap();
    assert_eq!(v.failed_disks(), vec![BYSTANDER]);
    assert_eq!(v.rebuild_progress(), None);
    // 234 reads undisturbed; the stripes after the death decode two columns.
    assert_eq!((undisturbed.total(), receipt.total_reads(), receipt.total_writes()), (312, 276, 78));
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
}

/// Losing the first and the last disk, `rebuild()` restores the bytes and
/// the parity, and issues the same I/O, on every backend.
#[test]
fn outer_disk_rebuild_issues_the_same_io_on_every_backend() {
    let mut issued = std::collections::BTreeMap::new();
    on_every_volume("ob", |v, ctx| {
        let data = payload(v.data_elements() * ELEMENT, 29);
        v.write(0, &data).unwrap();
        v.fail_disk(0).unwrap();
        v.fail_disk(v.disks() - 1).unwrap();
        let receipt = v.rebuild().unwrap();
        assert!(v.verify_all(), "{ctx}: rebuild restores parity");
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data, "{ctx}: bytes survive the rebuild");
        let io = (receipt.total_reads(), receipt.total_writes());
        let code = ctx.split('/').next().unwrap().to_string();
        assert_eq!(*issued.entry(code).or_insert(io), io, "{ctx}: rebuild I/O differs");
    });
}

#[test]
fn file_backend_persists_across_reopen() {
    let code = all_codes(7).remove(0); // HV
    let label = "persist";
    let mut v = volume_on(&code, "file", label);
    let data = payload(v.data_elements() * ELEMENT, 23);
    v.write(0, &data).unwrap();
    v.fail_disk(2).unwrap();
    drop(v);

    // Reopen: geometry, contents, and the recorded failure all survive.
    let dir = std::env::temp_dir().join(format!("hvraid_conformance_{label}"));
    let backend = FileBackend::open(&dir).unwrap();
    let mut v = RaidVolume::new(Arc::clone(&code), STRIPES, ELEMENT, Box::new(backend)).unwrap();
    assert_eq!(v.stripes(), STRIPES);
    assert_eq!(v.failed_disks(), vec![2], "failure flag must persist");
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data, "data must persist across reopen");
    v.rebuild().unwrap();
    assert!(v.verify_all());
    cleanup("file", label);
}
