use hv_code::HvCode;
use raid_baselines::{EvenOddCode, HCode, HdpCode, PCode, RdpCode, XCode};
use raid_core::scrub::ScrubReport;

use super::*;
use crate::cache::CacheConfig;

fn volume(rotate: bool) -> RaidVolume {
    RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 4, 16, rotate)
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

#[test]
fn write_read_round_trip() {
    let mut v = volume(false);
    let buf = pattern(5 * 16, 3);
    let receipt = v.write(7, &buf).unwrap();
    assert_eq!(receipt.data_writes(), 5);
    assert!(receipt.parity_writes() > 0);
    assert!(v.verify_all(), "incremental parity update must match re-encode");
    let (out, _) = v.read(7, 5).unwrap();
    assert_eq!(out, buf);
}

#[test]
fn writes_crossing_stripes_stay_consistent() {
    let mut v = volume(false);
    let per_stripe = v.shape.addressing.data_per_stripe();
    let buf = pattern(6 * 16, 9);
    v.write(per_stripe - 3, &buf).unwrap();
    assert!(v.verify_all());
    let (out, _) = v.read(per_stripe - 3, 6).unwrap();
    assert_eq!(out, buf);
}

#[test]
fn degraded_read_returns_true_bytes() {
    let mut v = volume(false);
    let buf = pattern(10 * 16, 5);
    v.write(0, &buf).unwrap();
    for disk in 0..v.disks() {
        let mut broken = volume(false);
        broken.write(0, &buf).unwrap();
        broken.fail_disk(disk).unwrap();
        let (out, receipt) = broken.read(0, 10).unwrap();
        assert_eq!(out, buf, "disk {disk}");
        assert!(receipt.total_reads() >= 10, "disk {disk}");
    }
}

#[test]
fn double_failure_rebuild_restores_everything() {
    let mut v = volume(false);
    let buf = pattern(v.data_elements() * 16, 7);
    v.write(0, &buf).unwrap();
    v.fail_disk(1).unwrap();
    v.fail_disk(4).unwrap();
    let receipt = v.rebuild().unwrap();
    assert!(receipt.total_writes() > 0);
    assert!(v.verify_all());
    let (out, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(out, buf);
}

#[test]
fn single_failure_rebuild_uses_hybrid_plan() {
    let mut v = volume(false);
    let buf = pattern(v.data_elements() * 16, 11);
    v.write(0, &buf).unwrap();
    v.fail_disk(3).unwrap();
    let receipt = v.rebuild().unwrap();
    assert!(v.verify_all());
    let (out, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(out, buf);
    // Hybrid recovery reads fewer elements than fetching everything.
    let all = (v.disks() - 1) * v.shape.code.layout().rows() * 4;
    assert!((receipt.total_reads() as usize) < all);
}

#[test]
fn rotation_preserves_correctness() {
    let mut v = volume(true);
    let buf = pattern(v.data_elements() * 16, 13);
    v.write(0, &buf).unwrap();
    v.fail_disk(2).unwrap();
    let (out, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(out, buf);
    v.rebuild().unwrap();
    assert!(v.verify_all());
}

#[test]
fn works_across_codes() {
    let codes: Vec<Arc<dyn ArrayCode>> = vec![
        Arc::new(HvCode::new(7).unwrap()),
        Arc::new(RdpCode::new(7).unwrap()),
        Arc::new(XCode::new(7).unwrap()),
        Arc::new(HCode::new(7).unwrap()),
    ];
    for code in codes {
        let name = code.name().to_string();
        let mut v = RaidVolume::in_memory(code, 3, 8);
        let buf = pattern(v.data_elements() * 8, 17);
        v.write(0, &buf).unwrap();
        assert!(v.verify_all(), "{name}");
        v.fail_disk(0).unwrap();
        v.fail_disk(2).unwrap();
        v.rebuild().unwrap();
        let (out, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(out, buf, "{name}");
    }
}

#[test]
fn error_paths() {
    let mut v = volume(false);
    assert!(matches!(
        v.read(v.data_elements(), 1),
        Err(VolumeError::OutOfRange { .. })
    ));
    assert!(matches!(
        v.write(0, &[1, 2, 3]),
        Err(VolumeError::BadBufferLength { .. })
    ));
    // `start + len` must not overflow its way past the bound — nor
    // panic when the error is printed.
    let overflows = [v.read(usize::MAX, 2).map(drop), v.write(usize::MAX, &[0; 2 * 16]).map(drop)];
    for result in overflows {
        let err = result.unwrap_err();
        assert!(matches!(err, VolumeError::OutOfRange { start: usize::MAX, len: 2, .. }));
        assert!(err.to_string().contains(&format!("[{0}, {0})", usize::MAX)), "{err}");
    }
    assert!(matches!(v.fail_disk(99), Err(VolumeError::NoSuchDisk { disk: 99 })));
    v.fail_disk(0).unwrap();
    v.fail_disk(1).unwrap();
    assert!(matches!(v.fail_disk(2), Err(VolumeError::TooManyFailures { .. })));
}

#[test]
fn degraded_writes_survive_rebuild() {
    for failures in [vec![3usize], vec![0, 4]] {
        let mut v = volume(false);
        let initial = pattern(v.data_elements() * 16, 21);
        v.write(0, &initial).unwrap();
        for &d in &failures {
            v.fail_disk(d).unwrap();
        }

        // Overwrite a window while degraded.
        let patch = pattern(9 * 16, 99);
        let receipt = v.write(5, &patch).unwrap();
        assert!(receipt.total_reads() > 0 && receipt.total_writes() > 0);

        // Degraded read sees the new bytes immediately.
        let (now, _) = v.read(5, 9).unwrap();
        assert_eq!(now, patch, "degraded read after degraded write");

        // Rebuild materializes the failed disks consistently.
        v.rebuild().unwrap();
        assert!(v.verify_all(), "failures {failures:?}");
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        let mut expect = initial.clone();
        expect[5 * 16..14 * 16].copy_from_slice(&patch);
        assert_eq!(bytes, expect, "failures {failures:?}");
    }
}

#[test]
fn double_degraded_small_reads_fetch_a_slice_not_everything() {
    let mut v = volume(false);
    let data = pattern(v.data_elements() * 16, 41);
    v.write(0, &data).unwrap();
    v.fail_disk(0).unwrap();
    v.fail_disk(3).unwrap();
    v.reset_ledger();
    // Read one element that lives on a failed disk.
    let lost_ordinal = v
        .code()
        .layout()
        .data_cells()
        .iter()
        .position(|c| c.col == 0)
        .unwrap();
    let (bytes, receipt) = v.read(lost_ordinal, 1).unwrap();
    assert_eq!(bytes, data[lost_ordinal * 16..(lost_ordinal + 1) * 16]);
    // Full scan would read (disks − 2) × rows = 4 × 6 = 24 elements;
    // the targeted slice must be strictly cheaper.
    let full_scan = (v.disks() - 2) * v.code().layout().rows();
    assert!(
        (receipt.total_reads() as usize) < full_scan,
        "targeted read used {} reads, full scan is {full_scan}",
        receipt.total_reads()
    );
}

#[test]
fn scrub_finds_and_fixes_injected_corruption() {
    let mut v = volume(false);
    let data = pattern(v.data_elements() * 16, 31);
    v.write(0, &data).unwrap();
    assert!(v.scrub().unwrap().is_empty(), "clean volume must scrub clean");

    v.inject_corruption(1, Cell::new(2, 3), 7).unwrap();
    v.inject_corruption(3, Cell::new(0, 0), 0).unwrap();
    assert!(!v.verify_all());
    let findings = v.scrub().unwrap();
    assert_eq!(findings.len(), 2);
    for (stripe, report) in &findings {
        assert!(
            matches!(report, raid_core::scrub::ScrubReport::Repaired { .. }),
            "stripe {stripe}: {report:?}"
        );
    }
    assert!(v.verify_all());
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
}

#[test]
fn scrub_requires_healthy_array() {
    let mut v = volume(false);
    v.fail_disk(0).unwrap();
    assert!(matches!(v.scrub(), Err(VolumeError::TooManyFailures { .. })));
}

#[test]
fn ledger_accumulates_and_resets() {
    let mut v = volume(false);
    v.write(0, &pattern(3 * 16, 1)).unwrap();
    assert!(v.ledger().total_writes() > 0);
    assert!(v.ledger().total_reads() > 0);
    v.reset_ledger();
    assert_eq!(v.ledger().total(), 0);
}

#[test]
fn flush_while_rebuild_parked_leaves_its_frontier() {
    let mut v = RaidVolume::with_rotation(Arc::new(HvCode::new(7).unwrap()), 8, 16, false);
    v.enable_cache(CacheConfig { max_stripes: 16, dirty_high_water: 16 });
    let per = v.shape.addressing.data_per_stripe();
    let seed = pattern(v.data_elements() * 16, 41);
    v.write(0, &seed).unwrap();
    v.flush().unwrap();

    // Park a background rebuild after its first stripe.
    v.set_spares(1);
    v.fail_disk(3).unwrap();
    v.maintain(1).unwrap();
    let parked = v.rebuild_progress().expect("rebuild task active");
    assert_eq!(parked.next_stripe, 1);

    // Dirty the frontier stripe and one far past it, then drain both.
    v.write(per, &pattern(16, 50)).unwrap();
    v.write(6 * per, &pattern(16, 51)).unwrap();
    assert_eq!(v.cache_dirty_stripes(), 2);
    let receipt = v.flush().unwrap();
    assert!(receipt.total_writes() > 0, "both stripes must flush");
    assert_eq!(v.cache_dirty_stripes(), 0);
    assert_eq!(
        v.rebuild_progress().expect("task still active").next_stripe,
        parked.next_stripe,
        "a flush must not advance the rebuild frontier"
    );

    // The parked rebuild still completes, and nothing was lost.
    v.maintain(v.shape.stripes).unwrap();
    assert!(v.rebuild_progress().is_none());
    assert!(v.verify_all());
    let mut expect = seed;
    expect[per * 16..(per + 1) * 16].copy_from_slice(&pattern(16, 50));
    expect[6 * per * 16..(6 * per + 1) * 16].copy_from_slice(&pattern(16, 51));
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, expect);
}

/// Every code at `p`, as `raid-verify`'s registry lists them.
fn registry(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    vec![
        Arc::new(HvCode::new(p).unwrap()),
        Arc::new(RdpCode::new(p).unwrap()),
        Arc::new(EvenOddCode::new(p).unwrap()),
        Arc::new(XCode::new(p).unwrap()),
        Arc::new(HCode::new(p).unwrap()),
        Arc::new(HdpCode::new(p).unwrap()),
        Arc::new(PCode::new(p).unwrap()),
    ]
}

/// A swapped-in spare's contents are unspecified until the rebuild
/// writes them. Each replaced disk is filled with `0xA5` ahead of the
/// frontier, through the backend, and the rebuild is interleaved with
/// degraded reads, a degraded write, a cached flush and — where the
/// backend injects them — a latent-sector repair: every read returns
/// the shadow's bytes, and the finished volume verifies. Elements are
/// one XOR tile plus a ragged tail; both backend paths run, memory
/// lending its storage and the default staging (a fault injector over
/// memory).
#[test]
fn a_spare_is_read_only_behind_the_rebuild_frontier() {
    use crate::backend::{Fault, FaultyBackend};
    let es = raid_math::xor::L1_TILE_BYTES + 37;
    const STRIPES: usize = 4;
    for code in [5, 7].into_iter().flat_map(registry) {
        let (rows, cols) = (code.layout().rows(), code.layout().cols());
        for (rotate, lost, faulty) in (0..8).map(|k| (k & 1 == 1, 1 + (k >> 1 & 1), k >= 4)) {
            let what = format!("{} rotate={rotate} lost={lost} faulty={faulty}", code.name());
            let mem = MemBackend::new(cols, STRIPES * rows, es);
            let backend: Box<dyn DiskBackend> = if faulty {
                Box::new(FaultyBackend::new(Box::new(mem), Vec::new()))
            } else {
                Box::new(mem)
            };
            let code = Arc::clone(&code);
            let mut v = RaidVolume::with_backend(code, STRIPES, es, rotate, backend).unwrap();
            let per = v.shape.addressing.data_per_stripe();
            let mut shadow = pattern(v.data_elements() * es, 7);
            v.write(0, &shadow).unwrap();
            let disks = [1, cols - 1];
            for &d in &disks[..lost] {
                v.fail_disk(d).unwrap();
            }
            v.set_spares(lost);
            v.start_spare_rebuild().unwrap();
            for &d in &disks[..lost] {
                for index in 0..STRIPES * rows {
                    v.pipeline.backend_mut().write(d, index, &vec![0xA5; es]).unwrap();
                }
            }
            let check = |v: &mut RaidVolume, shadow: &[u8], step: &str| {
                let (bytes, _) = v.read(0, v.data_elements()).unwrap();
                assert!(bytes == shadow, "{what}: {step} read other bytes");
            };

            v.maintain(1).unwrap();
            check(&mut v, &shadow, "degraded read");
            // A degraded write across the stripe past the frontier.
            let (at, len) = (2 * per - 3, 6);
            let fresh = pattern(len * es, 91);
            v.write(at, &fresh).unwrap();
            shadow[at * es..(at + len) * es].copy_from_slice(&fresh);
            check(&mut v, &shadow, "degraded write");
            v.maintain(1).unwrap();
            // A cached flush of a stripe ahead of the frontier.
            v.enable_cache(CacheConfig { max_stripes: 4, dirty_high_water: 4 });
            let at = 3 * per + 1;
            let fresh = pattern(3 * es, 92);
            v.write(at, &fresh).unwrap();
            v.flush().unwrap();
            v.disable_cache().unwrap();
            shadow[at * es..(at + 3) * es].copy_from_slice(&fresh);
            check(&mut v, &shadow, "cached flush");
            if faulty {
                // A bad sector on a live disk: ahead of the frontier
                // beside one lost column, behind it beside two (with
                // both lost as well it is past the code's reach).
                let failed = v.failed_disks();
                let stripe = if lost == 1 { 3 } else { 1 };
                let (disk, index) = (stripe * per..(stripe + 1) * per)
                    .map(|e| v.locate_data_element(e).unwrap())
                    .find(|(disk, _)| !failed.contains(disk))
                    .unwrap();
                let latent = Fault::LatentSector { disk, index };
                v.backend_faulty_mut().unwrap().inject(latent);
                check(&mut v, &shadow, "latent repair");
                assert_eq!(v.health().latent_repairs_total(), 1, "{what}");
            }
            v.maintain(STRIPES).unwrap();
            assert!(v.rebuild_progress().is_none(), "{what}");
            assert!(v.verify_all(), "{what}: parity broken");
            check(&mut v, &shadow, "rebuilt");
        }
    }
}

#[test]
fn close_returns_the_error_of_the_final_flush() {
    use crate::backend::{Fault, FaultyBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
    let open = |code: &Arc<dyn ArrayCode>| {
        let (cols, rows) = (code.layout().cols(), code.layout().rows());
        let inner = MemBackend::new(cols, 2 * rows, 16);
        let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
        let mut v = RaidVolume::new(Arc::clone(code), 2, 16, Box::new(faulty)).unwrap();
        v.enable_cache(CacheConfig::default());
        v.write(1, &[7; 16]).unwrap();
        v
    };
    open(&code).close().unwrap();
    // The process dies before the flush's first backend operation.
    let mut v = open(&code);
    let faulty = v.backend_faulty_mut().unwrap();
    let next = faulty.ops() + 1;
    faulty.inject(Fault::CrashAtOp { at_op: next });
    assert_eq!(v.close(), Err(VolumeError::Backend(DiskError::Crashed)));
}

#[test]
fn transient_errors_retry_without_degrading() {
    use crate::backend::{Fault, FaultyBackend, MemBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
    let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    let data = pattern(5 * 16, 23);
    v.write(0, &data).unwrap();
    v.backend_faulty_mut()
        .unwrap()
        .inject(Fault::Transient { disk: 1, ops: 2 });
    let (bytes, _) = v.read(0, 5).unwrap();
    assert_eq!(bytes, data, "retries must serve the read");
    assert!(v.failed_disks().is_empty(), "transients must not degrade");
    assert_eq!(v.health().retries_total(), 2);
    assert_eq!(v.health_state(), crate::health::HealthState::Healthy);
}

#[test]
fn latent_sector_reconstructed_and_rewritten_in_place() {
    use crate::backend::{Fault, FaultyBackend, MemBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
    let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    let data = pattern(v.data_elements() * 16, 29);
    v.write(0, &data).unwrap();
    let (disk, index) = v.locate_data_element(3).unwrap();
    v.backend_faulty_mut()
        .unwrap()
        .inject(Fault::LatentSector { disk, index });
    // The read hits the bad sector; the policy reconstructs the
    // element from its chains and rewrites it, healing the sector.
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    assert!(v.failed_disks().is_empty());
    assert_eq!(v.health().latent_repairs_total(), 1);
    // The rewrite remapped the sector: reading again is clean.
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(v.health().latent_repairs_total(), 1);
    assert!(v.verify_all());
}

#[test]
fn too_many_latent_repairs_fail_the_disk() {
    use crate::backend::{Fault, FaultyBackend, MemBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
    let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    let data = pattern(v.data_elements() * 16, 31);
    v.write(0, &data).unwrap();
    let budget = crate::health::MAX_LATENT_REPAIRS;
    let (disk, _) = v.locate_data_element(0).unwrap();
    // Keep growing defects on one disk: each full read heals them,
    // until the policy declares the disk dying and fails it.
    for round in 0..=budget {
        for index in 0..v.code().layout().rows() {
            v.backend_faulty_mut()
                .unwrap()
                .inject(Fault::LatentSector { disk, index });
        }
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        assert_eq!(bytes, data, "round {round}");
        if !v.failed_disks().is_empty() {
            break;
        }
    }
    assert_eq!(v.failed_disks(), vec![disk], "escalation must fail the disk");
    assert_eq!(v.health_state(), crate::health::HealthState::Degraded);
    v.rebuild().unwrap();
    assert!(v.verify_all());
}

#[test]
fn hot_spare_auto_rebuild_in_background_steps() {
    use crate::backend::{Fault, FaultyBackend, MemBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let inner = MemBackend::new(code.layout().cols(), 4 * code.layout().rows(), 16);
    let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    v.set_spares(1);
    let data = pattern(v.data_elements() * 16, 37);
    v.write(0, &data).unwrap();
    // The disk dies silently; the next op discovers it and — with a
    // spare stocked — kicks off the background rebuild.
    v.backend_faulty_mut().unwrap().inject(Fault::Dead { disk: 2 });
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(v.failed_disks(), vec![2]);
    assert_eq!(v.spares(), 0, "auto-heal consumed the spare");
    let task = v.rebuild_progress().expect("background task started");
    assert_eq!(task.disks, vec![2]);
    // Pump one stripe at a time; progress must advance monotonically.
    let mut last = task.next_stripe;
    while let Some(cp) = v.rebuild_progress() {
        assert!(cp.next_stripe >= last);
        last = cp.next_stripe;
        v.maintain(1).unwrap();
    }
    assert!(v.failed_disks().is_empty(), "rebuild completed");
    assert_eq!(v.health_state(), crate::health::HealthState::Healthy);
    assert!(v.verify_all());
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    // The healing story is on the record.
    assert!(!v.health().transitions().is_empty());
}

#[test]
fn spare_dying_mid_rebuild_restarts_it_from_stripe_zero() {
    use crate::backend::{Fault, FaultyBackend, FileBackend};
    let dir = std::env::temp_dir().join(format!("hvraid-spare-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let be = FileBackend::create(&dir, code.layout().cols(), 4 * code.layout().rows(), 16)
        .unwrap();
    let faulty = FaultyBackend::new(Box::new(be), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    v.set_spares(1);
    let data = pattern(v.data_elements() * 16, 59);
    v.write(0, &data).unwrap();
    v.fail_disk(2).unwrap();
    v.maintain(2).unwrap();
    assert_eq!(v.rebuild_progress().map(|cp| cp.next_stripe), Some(2));

    // The spare dies; a read of the already-rebuilt stripes finds it.
    // A fresh spare goes in without drawing on the empty pool,
    // and the task restarts from stripe 0, in memory and on disk.
    v.backend_faulty_mut().unwrap().inject(Fault::Dead { disk: 2 });
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    let restarted = RebuildCheckpoint { disks: vec![2], next_stripe: 0 };
    assert_eq!(v.rebuild_progress(), Some(restarted.clone()));
    assert_eq!(v.pipeline.backend().load_checkpoint(), Some(restarted));
    assert_eq!(v.failed_disks(), vec![2]);
    assert_eq!(v.spares(), 0);

    v.rebuild().unwrap();
    assert!(v.failed_disks().is_empty());
    assert!(v.rebuild_progress().is_none());
    assert_eq!(v.pipeline.backend().load_checkpoint(), None);
    assert!(v.verify_all());
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    drop(v);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spare_exhaustion_is_typed_and_fences_critical_writes() {
    let mut v = volume(false);
    v.set_write_fence(true);
    let data = pattern(v.data_elements() * 16, 53);
    v.write(0, &data).unwrap();

    // One spare, three failures over time: the pool runs dry.
    v.set_spares(1);
    v.fail_disk(0).unwrap();
    // Auto-heal consumed the spare for disk 0's rebuild.
    assert_eq!(v.spares(), 0);
    assert!(v.rebuild_progress().is_some());
    v.fail_disk(1).unwrap();
    assert_eq!(v.health_state(), HealthState::Critical);

    // Disk 1 is uncovered and the pool is empty: typed error, not an
    // implicit no-op.
    assert_eq!(v.request_heal(), Err(VolumeError::SpareExhausted { failed: 1, spares: 0 }));
    // But the fence stays open while disk 0's rebuild is in flight.
    assert!(!v.write_fenced());
    v.write(0, &data[..16]).unwrap();

    // Finish disk 0's rebuild; disk 2 then dies with nothing left in
    // the pool: the volume parks Critical with writes fenced.
    while v.rebuild_progress().is_some() {
        v.maintain(2).unwrap();
    }
    v.fail_disk(2).unwrap();
    assert_eq!(v.health_state(), HealthState::Critical);
    assert_eq!(v.request_heal(), Err(VolumeError::SpareExhausted { failed: 2, spares: 0 }));
    assert!(v.write_fenced());
    assert_eq!(
        v.write(0, &data[..16]),
        Err(VolumeError::SpareExhausted { failed: 2, spares: 0 })
    );
    // maintain() stays a quiet no-op (chaos campaigns rely on it) and
    // degraded reads still serve.
    assert!(v.maintain(4).unwrap().total_reads() == 0);
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);

    // A spare arrives: heal starts, the fence lifts, writes flow.
    v.set_spares(2);
    v.request_heal().unwrap();
    assert!(!v.write_fenced());
    v.write(0, &data[..16]).unwrap();
    while v.rebuild_progress().is_some() {
        v.maintain(2).unwrap();
    }
    assert!(v.failed_disks().is_empty());
    assert!(v.verify_all());
}

#[test]
fn crash_interrupted_rebuild_resumes_from_checkpoint() {
    use crate::backend::{Fault, FaultyBackend, FileBackend};
    let dir = std::env::temp_dir().join(format!("hvraid-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let rows = code.layout().rows();
    let data;
    {
        let be = FileBackend::create(&dir, code.layout().cols(), 4 * rows, 16).unwrap();
        let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
        data = pattern(v.data_elements() * 16, 41);
        v.write(0, &data).unwrap();
        v.fail_disk(3).unwrap();
    }
    // Rebuild under a crash that fires deep enough for at least one
    // stripe's checkpoint to have landed.
    {
        let be = FileBackend::open(&dir).unwrap();
        let faulty = FaultyBackend::new(Box::new(be), Vec::new())
            .with_faults([Fault::CrashAtOp { at_op: 120 }]);
        let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(faulty)).unwrap();
        assert!(matches!(
            v.rebuild(),
            Err(VolumeError::Backend(DiskError::Crashed))
        ));
    }
    // Reopen: the checkpoint resumes the task past stripe 0 — not
    // from scratch — and the rebuild completes.
    let be = FileBackend::open(&dir).unwrap();
    let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
    let cp = v.rebuild_progress().expect("checkpoint resumed a task");
    assert_eq!(cp.disks, vec![3]);
    assert!(cp.next_stripe > 0, "must resume mid-volume, not at stripe 0");
    v.rebuild().unwrap();
    assert!(v.failed_disks().is_empty());
    assert!(v.verify_all());
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    assert!(v.rebuild_progress().is_none(), "checkpoint cleared on completion");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An HV p = 5, 4-stripe, 16 B volume on a fresh file backend under a
/// temp dir named `tag`, with its whole data space written; and that data.
fn file_volume(tag: &str, faulty: bool) -> (std::path::PathBuf, RaidVolume, Vec<u8>) {
    use crate::backend::{FaultyBackend, FileBackend};
    let dir = std::env::temp_dir().join(format!("hvraid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
    let be = FileBackend::create(&dir, code.layout().cols(), 4 * code.layout().rows(), 16)
        .unwrap();
    let be: Box<dyn DiskBackend> =
        if faulty { Box::new(FaultyBackend::new(Box::new(be), Vec::new())) } else { Box::new(be) };
    let mut v = RaidVolume::new(code, 4, 16, be).unwrap();
    let data = pattern(v.data_elements() * 16, 41);
    v.write(0, &data).unwrap();
    (dir, v, data)
}

/// The volume in `dir` reopened as [`file_volume`] made it.
fn reopen_file_volume(dir: &std::path::Path) -> Result<RaidVolume, VolumeError> {
    let be = crate::backend::FileBackend::open(dir).unwrap();
    RaidVolume::new(Arc::new(HvCode::new(5).unwrap()), 4, 16, Box::new(be))
}

/// [`file_volume`] left mid-rebuild of disk 1, its checkpoint at stripe
/// 1, as a crash would leave it.
fn crashed_mid_rebuild(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    let (dir, mut v, data) = file_volume(tag, false);
    v.fail_disk(1).unwrap();
    v.set_spares(1);
    v.maintain(1).unwrap();
    assert_eq!(v.rebuild_progress(), Some(RebuildCheckpoint { disks: vec![1], next_stripe: 1 }));
    drop(v);
    (dir, data)
}

#[test]
fn a_garbled_checkpoint_refuses_open_naming_the_field() {
    use std::io::{Seek, SeekFrom, Write};
    let (dir, _) = crashed_mid_rebuild("garbled-cp");
    let record = std::fs::read_to_string(dir.join("disks.meta")).unwrap();
    assert!(record.contains("rebuild_checkpoint=1@1\n"), "{record}");
    std::fs::write(dir.join("disks.meta"), record.replace("1@1", "1?1")).unwrap();
    // The spare past the frontier holds garbage: trusting it loses data.
    let rows = HvCode::new(5).unwrap().layout().rows();
    let mut spare =
        std::fs::OpenOptions::new().write(true).open(dir.join("disk-01.dat")).unwrap();
    spare.seek(SeekFrom::Start((rows * 16) as u64)).unwrap();
    spare.write_all(&vec![0xA5; 3 * rows * 16]).unwrap();
    let err = crate::backend::FileBackend::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("rebuild_checkpoint=\"1?1\""), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_outside_the_volume_is_refused_not_dropped() {
    let (dir, data) = crashed_mid_rebuild("forged-cp");
    let record = std::fs::read_to_string(dir.join("disks.meta")).unwrap();
    std::fs::write(dir.join("disks.meta"), record.replace("1@1", "1@999")).unwrap();
    let forged = RebuildCheckpoint { disks: vec![1], next_stripe: 999 };
    assert_eq!(reopen_file_volume(&dir).unwrap_err(), VolumeError::CheckpointOutOfRange(forged));
    // Refused, not deleted: the true frontier still resumes.
    std::fs::write(dir.join("disks.meta"), record).unwrap();
    let mut v = reopen_file_volume(&dir).unwrap();
    assert_eq!(v.rebuild_progress().map(|cp| cp.next_stripe), Some(1));
    v.rebuild().unwrap();
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
    drop(v);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failure_that_cannot_be_recorded_fails_and_a_restart_keeps_the_bytes() {
    let (dir, mut v, data) = file_volume("unrecorded-fail", false);
    std::fs::create_dir(dir.join("disks.meta.tmp")).unwrap();
    let unrecorded = VolumeError::Backend(DiskError::Sidecar { file: "disks.meta" });
    assert_eq!(v.fail_disk(1), Err(unrecorded.clone()));
    assert!(v.failed_disks().is_empty(), "the volume adopted an unrecorded failure");
    // The disk is dead to this process all the same: a write that meets
    // it cannot record it either, and stores nothing degraded.
    let newer = pattern(data.len(), 99);
    assert_eq!(v.write(0, &newer).map(drop), Err(unrecorded));
    drop(v);
    std::fs::remove_dir(dir.join("disks.meta.tmp")).unwrap();
    let mut v = reopen_file_volume(&dir).unwrap();
    assert!(v.failed_disks().is_empty());
    assert!(v.verify_all());
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
    drop(v);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_adopted_failure_that_cannot_be_recorded_fails_the_op() {
    use crate::backend::Fault;
    let (dir, mut v, data) = file_volume("unrecorded-adopt", true);
    std::fs::create_dir(dir.join("disks.meta.tmp")).unwrap();
    v.backend_faulty_mut().unwrap().inject(Fault::Dead { disk: 1 });
    let newer = pattern(data.len(), 99);
    assert_eq!(
        v.write(0, &newer).map(drop),
        Err(VolumeError::Backend(DiskError::Sidecar { file: "disks.meta" }))
    );
    assert!(v.failed_disks().is_empty());
    // Once the record can be written, the next op adopts the failure.
    std::fs::remove_dir(dir.join("disks.meta.tmp")).unwrap();
    v.write(0, &newer).unwrap();
    assert_eq!(v.failed_disks(), vec![1]);
    drop(v);
    let mut v = reopen_file_volume(&dir).unwrap();
    assert_eq!(v.failed_disks(), vec![1], "the restart knows the disk is dead");
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, newer);
    drop(v);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cached_writes_coalesce_parity_io() {
    // N separate writes into one stripe: uncached pays N parity
    // updates, the cache pays one coalesced flush.
    let mut plain = volume(false);
    let mut cached = volume(false);
    cached.enable_cache(CacheConfig::default());
    let per = plain.shape.addressing.data_per_stripe();
    let n = per.min(6);
    for k in 0..n {
        let buf = pattern(16, k as u8);
        plain.write(k, &buf).unwrap();
        cached.write(k, &buf).unwrap();
    }
    assert_eq!(cached.ledger().total(), 0, "writes absorbed, no I/O yet");
    assert_eq!(cached.cache_dirty_stripes(), 1);
    cached.flush().unwrap();
    assert_eq!(cached.cache_dirty_stripes(), 0);
    assert_eq!(cached.ledger().cache_flushes(), 1);
    assert!(
        cached.ledger().total() < plain.ledger().total(),
        "coalesced flush ({}) must beat {} per-element RMWs ({})",
        cached.ledger().total(),
        n,
        plain.ledger().total()
    );
    assert!(cached.verify_all(), "flush must leave parity consistent");
    let (a, _) = plain.read(0, n).unwrap();
    let (b, _) = cached.read(0, n).unwrap();
    assert_eq!(a, b);

    // One lowering behind both entry points: a single write costs the
    // same I/O whether it goes straight to disk or through a cold
    // cache and its flush, and leaves the same bytes on every disk.
    let image = |v: &mut RaidVolume| -> Vec<u8> {
        let mut bytes = Vec::new();
        for d in (0..v.disks()).filter(|d| !v.healing.failed.contains(d)) {
            for i in 0..v.pipeline.backend().elements_per_disk() {
                let mut buf = [0u8; 4];
                v.pipeline.backend_mut().read(d, i, &mut buf).unwrap();
                bytes.extend_from_slice(&buf);
            }
        }
        bytes
    };
    // Every contiguous (start, len) at p = 5 and 7; at p = 13 (~10k
    // ranges per code and state, minutes in a debug build) a lattice
    // with strides coprime to every code's row length.
    for (p, start_step, len_step) in [(5usize, 1, 1), (7, 1, 1), (13, 11, 17)] {
        let codes: Vec<Arc<dyn ArrayCode>> = vec![
            Arc::new(HvCode::new(p).unwrap()),
            Arc::new(RdpCode::new(p).unwrap()),
            Arc::new(EvenOddCode::new(p).unwrap()),
            Arc::new(XCode::new(p).unwrap()),
            Arc::new(HCode::new(p).unwrap()),
            Arc::new(HdpCode::new(p).unwrap()),
            Arc::new(PCode::new(p).unwrap()),
        ];
        for code in codes {
            for failures in [&[][..], &[1], &[0, 2]] {
                let mut plain = RaidVolume::in_memory(Arc::clone(&code), 1, 4);
                let mut cached = RaidVolume::in_memory(Arc::clone(&code), 1, 4);
                for v in [&mut plain, &mut cached] {
                    v.write(0, &pattern(v.data_elements() * 4, 7)).unwrap();
                    failures.iter().for_each(|&d| v.fail_disk(d).unwrap());
                }
                let per = plain.data_elements();
                for start in (0..per).step_by(start_step) {
                    for len in (1..=per - start).step_by(len_step) {
                        let what =
                            format!("{} p={p} {failures:?} [{start}, +{len})", code.name());
                        let buf = pattern(len * 4, (start * 31 + len) as u8);
                        let direct = plain.write(start, &buf).unwrap();
                        cached.enable_cache(CacheConfig::default());
                        assert_eq!(cached.write(start, &buf).unwrap().total(), 0, "{what}");
                        let flushed = cached.disable_cache().unwrap();
                        assert_eq!(direct.reads(), flushed.reads(), "{what}");
                        assert_eq!(direct.data_writes(), flushed.data_writes(), "{what}");
                        assert_eq!(direct.parity_writes(), flushed.parity_writes(), "{what}");
                        assert_eq!(direct.writes(), flushed.writes(), "{what}");
                    }
                }
                assert_eq!(image(&mut plain), image(&mut cached), "{} p={p}", code.name());
            }
        }
    }
}

#[test]
fn cached_reads_hit_after_population() {
    let mut v = volume(false);
    let data = pattern(8 * 16, 3);
    v.write(0, &data).unwrap();
    v.enable_cache(CacheConfig::default());
    let (bytes, r1) = v.read(0, 8).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(r1.cache_misses(), 8);
    let before = v.ledger().total_reads();
    let (bytes, r2) = v.read(0, 8).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(r2.cache_hits(), 8);
    assert_eq!(r2.cache_misses(), 0);
    assert_eq!(v.ledger().total_reads(), before, "hits issue no disk reads");
    // Dirty data is served from the cache before any flush.
    let patch = pattern(16, 77);
    v.write(2, &patch).unwrap();
    let (bytes, _) = v.read(2, 1).unwrap();
    assert_eq!(bytes, patch);
}

#[test]
fn high_water_and_budget_policies_flush_and_evict() {
    let mut v = volume(false);
    v.enable_cache(CacheConfig { max_stripes: 2, dirty_high_water: 1 });
    let per = v.shape.addressing.data_per_stripe();
    let mut expect = vec![0u8; v.data_elements() * 16];
    for s in 0..4 {
        let buf = pattern(16, 100 + s as u8);
        v.write(s * per, &buf).unwrap();
        expect[s * per * 16..s * per * 16 + 16].copy_from_slice(&buf);
        assert!(v.cache_dirty_stripes() <= 1, "high-water mark enforced");
        assert!(v.cache_resident_stripes() <= 2, "memory budget enforced");
    }
    v.flush().unwrap();
    assert!(v.ledger().cache_flushes() >= 3);
    assert!(v.ledger().cache_evictions() >= 2);
    assert!(v.verify_all());
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, expect);
}

#[test]
fn degraded_cached_flush_and_read_serve_true_bytes() {
    for failures in [vec![3usize], vec![0, 4]] {
        let mut v = volume(false);
        let initial = pattern(v.data_elements() * 16, 51);
        v.write(0, &initial).unwrap();
        for &d in &failures {
            v.fail_disk(d).unwrap();
        }
        v.enable_cache(CacheConfig::default());
        let patch = pattern(9 * 16, 201);
        v.write(5, &patch).unwrap();
        // Unflushed dirty data is already visible through the cache.
        let (now, _) = v.read(5, 9).unwrap();
        assert_eq!(now, patch, "failures {failures:?}");
        v.flush().unwrap();
        v.rebuild().unwrap();
        assert!(v.verify_all(), "failures {failures:?}");
        let (bytes, _) = v.read(0, v.data_elements()).unwrap();
        let mut expect = initial.clone();
        expect[5 * 16..14 * 16].copy_from_slice(&patch);
        assert_eq!(bytes, expect, "failures {failures:?}");
    }
}

#[test]
fn drop_flushes_dirty_cache_to_file_backend() {
    use crate::backend::FileBackend;
    let dir = std::env::temp_dir().join(format!("hvraid-cachedrop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let rows = code.layout().rows();
    let data = pattern(10 * 16, 91);
    {
        let be = FileBackend::create(&dir, code.layout().cols(), 4 * rows, 16).unwrap();
        let mut v = RaidVolume::new(Arc::clone(&code), 4, 16, Box::new(be)).unwrap();
        v.enable_cache(CacheConfig::default());
        v.write(3, &data).unwrap();
        assert!(v.cache_dirty_stripes() > 0, "write-back defers the flush");
        // No explicit flush: the drop barrier must write it out.
    }
    let be = FileBackend::open(&dir).unwrap();
    let mut v = RaidVolume::new(code, 4, 16, Box::new(be)).unwrap();
    assert!(v.verify_all());
    let (bytes, _) = v.read(3, 10).unwrap();
    assert_eq!(bytes, data, "dropped volume must have flushed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_off_the_volume_or_on_a_dead_disk_is_an_error() {
    let mut v = volume(false);
    let (rows, cols) = (v.code().layout().rows(), v.disks());
    let stripes = v.shape.stripes;
    let off = [(stripes, Cell::new(0, 0)), (0, Cell::new(rows, 0)), (0, Cell::new(0, cols))];
    for (stripe, cell) in off {
        let got = v.inject_corruption(stripe, cell, 0);
        assert_eq!(got, Err(VolumeError::NoSuchCell { stripe, cell }));
    }
    v.fail_disk(2).unwrap();
    let got = v.inject_corruption(0, Cell::new(0, 2), 0);
    assert!(matches!(got, Err(VolumeError::Backend(_))), "{got:?}");
}

#[test]
fn corruption_invalidates_clean_cached_copies() {
    let mut v = volume(false);
    let data = pattern(v.data_elements() * 16, 63);
    v.write(0, &data).unwrap();
    v.enable_cache(CacheConfig::default());
    let (_, _) = v.read(0, v.data_elements()).unwrap(); // populate
    let cell = v.code().layout().data_cells()[0];
    v.inject_corruption(0, cell, 5).unwrap();
    // Scrub heals the disks; the invalidated cache entry must re-read
    // the healed value instead of serving a stale clean copy.
    let findings = v.scrub().unwrap();
    assert_eq!(findings.len(), 1);
    let (bytes, _) = v.read(0, v.data_elements()).unwrap();
    assert_eq!(bytes, data);
    assert!(v.verify_all());
}

#[test]
fn faulty_backend_mid_write_failure_replans_degraded() {
    use crate::backend::{FaultPoint, FaultyBackend, MemBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let layout_rows = code.layout().rows();
    let inner = MemBackend::new(code.layout().cols(), 4 * layout_rows, 16);
    // Fail disk 2 deep into the first write's request stream.
    let faulty = FaultyBackend::new(
        Box::new(inner),
        vec![FaultPoint { at_op: 9, disk: 2 }],
    );
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    let data = pattern(6 * 16, 19);
    let receipt = v.write(0, &data).unwrap();
    assert!(receipt.total_writes() > 0);
    assert_eq!(v.failed_disks(), vec![2], "fault must be adopted");
    let (bytes, _) = v.read(0, 6).unwrap();
    assert_eq!(bytes, data, "degraded replan must serve the write");
    v.rebuild().unwrap();
    assert!(v.verify_all());
}

/// Runs `op` and checks that its receipt is exactly what the
/// cumulative ledger grew by.
fn receipted(
    v: &mut RaidVolume,
    what: &str,
    op: impl FnOnce(&mut RaidVolume) -> Result<IoLedger, VolumeError>,
) -> IoLedger {
    let before = v.ledger().clone();
    let receipt = op(v).unwrap_or_else(|e| panic!("{what}: {e}"));
    let grew = v.ledger().delta_since(&before);
    let totals = (receipt.total(), grew.total());
    assert_eq!(receipt, grew, "{what}: receipt vs ledger growth, {totals:?} I/Os");
    receipt
}

/// A write that retries, a read that repairs and a flush that replans
/// degraded each return everything they caused: the receipt is the
/// ledger's growth, field for field, under every fault.
#[test]
fn a_receipt_is_what_the_ledger_grew_by_under_faults() {
    use crate::backend::{Fault, FaultPoint, FaultyBackend};
    const STRIPES: usize = 4;
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let (rows, cols) = (code.layout().rows(), code.layout().cols());
    let volume = |schedule: Vec<FaultPoint>| {
        let inner = MemBackend::new(cols, STRIPES * rows, 16);
        let faulty = FaultyBackend::new(Box::new(inner), schedule);
        RaidVolume::new(Arc::clone(&code), STRIPES, 16, Box::new(faulty)).unwrap()
    };
    let ops = |v: &mut RaidVolume| v.backend_faulty_mut().unwrap().ops();
    let per = code.layout().num_data_cells();
    let mut shadow = pattern(STRIPES * per * 16, 41);
    // Three elements at the end of stripe 0 and three at the start of
    // stripe 1.
    let (at, fresh) = (per - 3, pattern(6 * 16, 43));
    let probe = &mut volume(Vec::new());
    probe.write(0, &shadow).unwrap();
    let prefilled = ops(probe);
    probe.write(at, &fresh).unwrap();
    let write_ops = ops(probe) - prefilled;
    shadow[at * 16..(at + 6) * 16].copy_from_slice(&fresh);
    let doomed = probe.locate_data_element(per).unwrap().0;

    // A disk dying at every point of a two-stripe write.
    for k in 1..=write_ops {
        let v = &mut volume(vec![FaultPoint { at_op: prefilled + k, disk: doomed }]);
        v.write(0, &shadow[..]).unwrap();
        let what = format!("write, disk {doomed} dying at its op {k}");
        receipted(v, &what, |v| v.write(at, &fresh));
        assert_eq!(v.read(0, STRIPES * per).unwrap().0, shadow, "op {k}");
    }

    // A latent sector under a read, then a transient on each disk
    // under the two-stripe write.
    let v = &mut volume(Vec::new());
    v.write(0, &shadow).unwrap();
    let (disk, index) = v.locate_data_element(5).unwrap();
    v.backend_faulty_mut().unwrap().inject(Fault::LatentSector { disk, index });
    let read = receipted(v, "read over a latent sector", |v| v.read(4, 4).map(|(_, r)| r));
    assert!(read.total_reads() > 4, "the repair's reads are on the receipt");
    assert_eq!(v.health().latent_repairs_total(), 1);
    for disk in 0..cols {
        v.backend_faulty_mut().unwrap().inject(Fault::Transient { disk, ops: 1 });
        receipted(v, &format!("write, disk {disk} transient"), |v| v.write(at, &fresh));
    }
    assert!(v.health().retries_total() > 0);
    assert_eq!(v.read(0, STRIPES * per).unwrap().0, shadow);

    // A cached write whose high-water flush stores degraded, with a
    // second disk dying at every point of that store; then the flush,
    // the background and the whole rebuild.
    let survivor = (doomed + 1) % cols;
    let cached = |v: &mut RaidVolume| {
        v.write(0, &shadow).unwrap();
        v.fail_disk(survivor).unwrap();
        v.enable_cache(CacheConfig { max_stripes: STRIPES, dirty_high_water: 1 });
        v.write(1, &fresh[..16]).unwrap();
    };
    let probe = &mut volume(Vec::new());
    cached(probe);
    let before_flush = ops(probe);
    probe.write(per + 1, &fresh[16..32]).unwrap();
    let flush_ops = ops(probe) - before_flush;
    assert!(flush_ops > 0, "the second dirty stripe flushes the first");
    let mut expected = shadow.clone();
    expected[16..32].copy_from_slice(&fresh[..16]);
    expected[(per + 1) * 16..(per + 2) * 16].copy_from_slice(&fresh[16..32]);
    for k in 1..=flush_ops {
        let v = &mut volume(vec![FaultPoint { at_op: before_flush + k, disk: doomed }]);
        cached(v);
        let what = format!("cached write, disk {doomed} dying at its flush's op {k}");
        let flushed = receipted(v, &what, |v| v.write(per + 1, &fresh[16..32]));
        assert_eq!(flushed.cache_flushes(), 1, "{what}");
        receipted(v, "disable_cache", RaidVolume::disable_cache);
        v.set_spares(2);
        receipted(v, "maintain", |v| v.maintain(1));
        receipted(v, "maintain with a task active", |v| v.maintain(1));
        receipted(v, "rebuild", RaidVolume::rebuild);
        assert!(v.failed_disks().is_empty() && v.verify_all(), "{what}");
        assert_eq!(v.read(0, STRIPES * per).unwrap().0, expected, "{what}");
    }
}

/// A disk dying partway through a two-stripe write retries the stripe
/// being stored, not the write: the receipt is one store of each
/// stripe. Stripe 0 committed before the death, so it is stored
/// healthy; stripe 1 is stored degraded, or healthy where the death
/// came after its last request to the dying disk and went unseen.
#[test]
fn a_retried_write_stores_each_committed_stripe_once() {
    use crate::backend::{FaultPoint, FaultyBackend};
    const STRIPES: usize = 4;
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let (rows, cols) = (code.layout().rows(), code.layout().cols());
    let volume = |schedule: Vec<FaultPoint>| {
        let inner = MemBackend::new(cols, STRIPES * rows, 16);
        let faulty = FaultyBackend::new(Box::new(inner), schedule);
        RaidVolume::new(Arc::clone(&code), STRIPES, 16, Box::new(faulty)).unwrap()
    };
    let ops = |v: &mut RaidVolume| v.backend_faulty_mut().unwrap().ops();
    let per = code.layout().num_data_cells();
    let shadow = pattern(STRIPES * per * 16, 41);
    // Three elements at the end of stripe 0 and three at the start of
    // stripe 1.
    let (at, fresh) = (per - 3, pattern(6 * 16, 43));
    let doomed = volume(Vec::new()).locate_data_element(per).unwrap().0;
    // A fault-free write of `bytes` at `start` after the prefill, with
    // `failed` failed first: its receipt and backend operations.
    let unfaulted = |start: usize, bytes: &[u8], failed: Option<usize>| {
        let v = &mut volume(Vec::new());
        v.write(0, &shadow).unwrap();
        if let Some(d) = failed {
            v.fail_disk(d).unwrap();
        }
        let prefilled = ops(v);
        let receipt = v.write(start, bytes).unwrap();
        (receipt, prefilled, ops(v) - prefilled)
    };
    let (_, prefilled, write_ops) = unfaulted(at, &fresh, None);
    let (stripe0, _, stripe0_ops) = unfaulted(at, &fresh[..3 * 16], None);
    let (healthy1, _, _) = unfaulted(per, &fresh[3 * 16..], None);
    let (degraded1, _, _) = unfaulted(per, &fresh[3 * 16..], Some(doomed));
    let mut expected = shadow.clone();
    expected[at * 16..(at + 6) * 16].copy_from_slice(&fresh);

    let mut retried = 0;
    for k in stripe0_ops + 1..=write_ops {
        let v = &mut volume(vec![FaultPoint { at_op: prefilled + k, disk: doomed }]);
        v.write(0, &shadow).unwrap();
        let what = format!("disk {doomed} dying at the write's op {k}");
        let receipt = receipted(v, &what, |v| v.write(at, &fresh));
        let adopted = v.failed_disks() == [doomed];
        let mut once = stripe0.clone();
        once.merge(if adopted { &degraded1 } else { &healthy1 });
        let totals = (receipt.total(), once.total());
        assert_eq!(receipt, once, "{what}: {totals:?} I/Os, receipt vs one store each");
        assert_eq!(v.read(0, STRIPES * per).unwrap().0, expected, "{what}");
        retried += usize::from(adopted);
    }
    assert!(retried > 0, "some death must make stripe 1 retry");
}

/// A scrub that meets a fault retries the stripe it was on, not the
/// volume: the repair it made before the fault stays on its report.
#[test]
fn a_retried_scrub_keeps_the_repairs_of_the_stripes_before_it() {
    use crate::backend::{Fault, FaultyBackend};
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
    let (rows, cols) = (code.layout().rows(), code.layout().cols());
    let inner = MemBackend::new(cols, 4 * rows, 16);
    let faulty = FaultyBackend::new(Box::new(inner), Vec::new());
    let mut v = RaidVolume::new(code, 4, 16, Box::new(faulty)).unwrap();
    let data = pattern(v.data_elements() * 16, 67);
    v.write(0, &data).unwrap();
    v.inject_corruption(0, Cell::new(0, 0), 3).unwrap();
    let per = v.shape.addressing.data_per_stripe();
    let (disk, index) = v.locate_data_element(2 * per + 1).unwrap();
    v.backend_faulty_mut().unwrap().inject(Fault::LatentSector { disk, index });
    let findings = v.scrub().unwrap();
    assert_eq!(findings, vec![(0, ScrubReport::Repaired { cell: Cell::new(0, 0) })]);
    assert_eq!(v.health().latent_repairs_total(), 1, "stripe 2's bad sector");
    assert!(v.verify_all());
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
}

/// A rebuild that runs two tasks — the spare's disk, then the one it
/// did not cover — is one operation: its disk time is both tasks'.
#[test]
fn a_rebuild_s_disk_time_covers_every_task_it_runs() {
    let two_failed = || {
        let mut v = volume(false);
        let data = pattern(v.data_elements() * 16, 47);
        v.write(0, &data).unwrap();
        v.set_spares(1);
        v.fail_disk(1).unwrap();
        v.fail_disk(4).unwrap();
        assert_eq!(v.rebuild_progress().unwrap().disks, vec![1], "the spare covers one");
        (v, data)
    };
    let (mut twin, _) = two_failed();
    twin.maintain(usize::MAX).unwrap();
    let first = twin.last_op_busiest_elements();
    assert_eq!(twin.failed_disks(), vec![4]);
    twin.rebuild().unwrap();
    let second = twin.last_op_busiest_elements();
    assert!(first > 0 && second > 0);

    let (mut v, data) = two_failed();
    receipted(&mut v, "rebuild", RaidVolume::rebuild);
    assert_eq!(v.last_op_busiest_elements(), first + second);
    assert!(v.failed_disks().is_empty() && v.verify_all());
    assert_eq!(v.read(0, v.data_elements()).unwrap().0, data);
}
