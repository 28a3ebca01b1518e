use std::fs;
use std::path::PathBuf;

use super::file::{encode_journal, fnv1a64, JOURNAL_MAGIC};
use super::*;
use crate::disk::ErrorClass;

fn roundtrip(backend: &mut dyn DiskBackend) {
    let es = backend.element_size();
    let payload: Vec<u8> = (0..es as u8).collect();
    backend.write(1, 3, &payload).unwrap();
    let mut buf = vec![0u8; es];
    backend.read(1, 3, &mut buf).unwrap();
    assert_eq!(buf, payload);
    // Untouched elements stay zero.
    backend.read(0, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0));
}

#[test]
fn mem_backend_roundtrip_and_fault() {
    let mut b = MemBackend::new(4, 8, 16);
    roundtrip(&mut b);
    b.fail(1).unwrap();
    assert!(b.is_failed(1));
    let mut buf = [0u8; 16];
    assert_eq!(b.read(1, 3, &mut buf), Err(DiskError::DiskFailed { disk: 1 }));
    // A spare's contents are unspecified until written: it serves
    // whatever it holds, and a write lands.
    b.replace(1).unwrap();
    assert!(!b.is_failed(1));
    b.read(1, 3, &mut buf).unwrap();
    b.write(1, 3, &[0xA5; 16]).unwrap();
    b.read(1, 3, &mut buf).unwrap();
    assert_eq!(buf, [0xA5; 16]);
}

#[test]
fn mem_backend_lends_writes_in_place_and_the_default_stages_them() {
    let reads = [DiskAddr { disk: 0, index: 1 }, DiskAddr { disk: 2, index: 3 }];
    let writes = [DiskAddr { disk: 2, index: 1 }, DiskAddr { disk: 1, index: 0 }];
    let mut mem = MemBackend::new(3, 4, 8);
    mem.write(0, 1, &[1; 8]).unwrap();
    mem.write(2, 3, &[2; 8]).unwrap();
    let mut faulty = FaultyBackend::new(Box::new(mem.clone()), Vec::new());
    for backend in [&mut mem as &mut dyn DiskBackend, &mut faulty] {
        let mut staging = Vec::new();
        let (read, lent) = backend.lend_mut(&reads, &writes, &mut staging).unwrap();
        assert_eq!(read, [&[1; 8][..], &[2; 8][..]]);
        for (k, element) in lent.into_iter().enumerate() {
            element.fill(k as u8 + 5);
        }
        backend.store_lent(&reads, &writes, &staging).unwrap();
        let mut buf = [0u8; 8];
        backend.read(2, 1, &mut buf).unwrap();
        assert_eq!(buf, [5; 8], "{}", backend.kind());
        backend.read(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [6; 8], "{}", backend.kind());
    }
    // A bad or failed address lends nothing; it is the error the
    // default reports.
    mem.fail(1).unwrap();
    let err = mem.lend_mut(&reads, &writes, &mut Vec::new()).unwrap_err();
    assert_eq!(err, DiskError::DiskFailed { disk: 1 });
}

#[test]
fn mem_backend_rejects_bad_addresses() {
    let mut b = MemBackend::new(2, 4, 8);
    let mut buf = [0u8; 8];
    assert_eq!(b.read(5, 0, &mut buf), Err(DiskError::NoSuchDisk { disk: 5 }));
    assert_eq!(b.read(0, 99, &mut buf), Err(DiskError::Io { disk: 0 }));
}

#[test]
fn file_backend_persists_across_reopen() {
    let dir = std::env::temp_dir().join(format!("hvraid-fb-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    {
        let mut b = FileBackend::create(&dir, 3, 4, 8).unwrap();
        roundtrip(&mut b);
        b.fail(2).unwrap();
    }
    {
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.disks(), 3);
        assert_eq!(b.elements_per_disk(), 4);
        assert_eq!(b.element_size(), 8);
        assert!(b.is_failed(2), "failure marker must survive reopen");
        let mut buf = [0u8; 8];
        b.read(1, 3, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), (0..8u8).collect::<Vec<_>>());
        b.replace(2).unwrap();
        assert!(!b.is_failed(2));
    }
    let b = FileBackend::open(&dir).unwrap();
    assert!(!b.is_failed(2), "replacement must clear the marker");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn file_backend_spare_keeps_the_failed_disks_bytes() {
    let dir = std::env::temp_dir().join(format!("hvraid-fb-spare-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut b = FileBackend::create(&dir, 3, 4, 8).unwrap();
    b.write(1, 2, &[0xC3; 8]).unwrap();
    b.fail(1).unwrap();
    b.replace(1).unwrap();
    let mut buf = [0u8; 8];
    b.read(1, 2, &mut buf).unwrap();
    assert_eq!(buf, [0xC3; 8], "replace blanked the spare");
    assert_eq!(fs::metadata(dir.join("disk-01.dat")).unwrap().len(), 32);
    drop(b);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn faulty_backend_fails_on_schedule() {
    let inner = MemBackend::new(3, 4, 8);
    let mut b = FaultyBackend::new(
        Box::new(inner),
        vec![FaultPoint { at_op: 2, disk: 1 }],
    );
    let mut buf = [0u8; 8];
    b.read(1, 0, &mut buf).unwrap(); // op 1: fine
    assert!(!b.is_failed(1));
    assert_eq!(b.read(1, 0, &mut buf), Err(DiskError::DiskFailed { disk: 1 }));
    assert!(b.is_failed(1));
    // Other disks keep serving.
    b.read(0, 0, &mut buf).unwrap();
    assert_eq!(b.ops(), 3);
    // Replacement clears both the failure and any stale schedule.
    b.replace(1).unwrap();
    b.read(1, 0, &mut buf).unwrap();
}

#[test]
fn faulty_backend_transient_clears_after_n_reads() {
    let mut b = FaultyBackend::new(Box::new(MemBackend::new(3, 4, 8)), Vec::new())
        .with_faults([Fault::Transient { disk: 0, ops: 2 }]);
    let payload = [7u8; 8];
    // Writes are never gated by transients.
    b.write(0, 1, &payload).unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(b.read(0, 1, &mut buf), Err(DiskError::Transient { disk: 0 }));
    assert_eq!(b.read(0, 1, &mut buf), Err(DiskError::Transient { disk: 0 }));
    b.read(0, 1, &mut buf).unwrap();
    assert_eq!(buf, payload);
}

#[test]
fn faulty_backend_latent_sector_heals_on_rewrite() {
    let mut b = FaultyBackend::new(Box::new(MemBackend::new(3, 4, 8)), Vec::new());
    b.inject(Fault::LatentSector { disk: 1, index: 2 });
    let mut buf = [0u8; 8];
    assert_eq!(
        b.read(1, 2, &mut buf),
        Err(DiskError::LatentSector { disk: 1, index: 2 })
    );
    // Neighboring sectors are unaffected.
    b.read(1, 1, &mut buf).unwrap();
    // Rewriting the element remaps the sector.
    b.write(1, 2, &[9u8; 8]).unwrap();
    b.read(1, 2, &mut buf).unwrap();
    assert_eq!(buf, [9u8; 8]);
}

#[test]
fn faulty_backend_torn_write_persists_half() {
    let mut b = FaultyBackend::new(Box::new(MemBackend::new(3, 4, 8)), Vec::new());
    b.write(2, 0, &[1u8; 8]).unwrap();
    b.inject(Fault::TornWrite { disk: 2, index: 0 });
    b.write(2, 0, &[5u8; 8]).unwrap(); // reported as success…
    let mut buf = [0u8; 8];
    b.read(2, 0, &mut buf).unwrap();
    assert_eq!(buf, [5, 5, 5, 5, 1, 1, 1, 1], "…but only half landed");
    // The tear fires once; the next write is whole.
    b.write(2, 0, &[6u8; 8]).unwrap();
    b.read(2, 0, &mut buf).unwrap();
    assert_eq!(buf, [6u8; 8]);
}

#[test]
fn faulty_backend_crash_gates_everything() {
    let mut b = FaultyBackend::new(Box::new(MemBackend::new(3, 4, 8)), Vec::new())
        .with_faults([Fault::CrashAtOp { at_op: 3 }]);
    let mut buf = [0u8; 8];
    b.read(0, 0, &mut buf).unwrap(); // op 1
    b.write(0, 0, &[1u8; 8]).unwrap(); // op 2
    assert!(!b.crashed());
    assert_eq!(b.read(0, 0, &mut buf), Err(DiskError::Crashed)); // op 3
    assert!(b.crashed());
    assert_eq!(b.write(0, 1, &[2u8; 8]), Err(DiskError::Crashed));
    assert_eq!(b.journal_begin(&[]), Err(DiskError::Crashed));
    assert_eq!(b.journal_commit(), Err(DiskError::Crashed));
    assert_eq!(b.save_checkpoint(None), Err(DiskError::Crashed));
    assert_eq!(b.replace(0), Err(DiskError::Crashed));
    b.clear_crash();
    b.read(0, 0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 8], "pre-crash write survived the crash");
}

#[test]
fn file_backend_journal_rolls_back_on_reopen() {
    let dir = std::env::temp_dir().join(format!("hvraid-jr-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    {
        let mut b = FileBackend::create(&dir, 3, 4, 8).unwrap();
        b.write(0, 1, &[1u8; 8]).unwrap();
        b.write(1, 2, &[2u8; 8]).unwrap();
        // Journal the pre-images, then "crash" after overwriting both
        // elements but before committing the journal.
        b.journal_begin(&[
            JournalEntry { disk: 0, index: 1, data: vec![1u8; 8] },
            JournalEntry { disk: 1, index: 2, data: vec![2u8; 8] },
        ])
        .unwrap();
        b.write(0, 1, &[9u8; 8]).unwrap();
        b.write(1, 2, &[9u8; 8]).unwrap();
        // …process dies here: no journal_commit.
    }
    {
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(
            b.recovered_journal(),
            Some(JournalRecovery::RolledBack { elements: 2 })
        );
        let mut buf = [0u8; 8];
        b.read(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        b.read(1, 2, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }
    // Second open: journal is gone, nothing recovered.
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.recovered_journal(), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn file_backend_discards_torn_journal() {
    let dir = std::env::temp_dir().join(format!("hvraid-tj-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    {
        let mut b = FileBackend::create(&dir, 3, 4, 8).unwrap();
        b.write(0, 1, &[4u8; 8]).unwrap();
    }
    // A journal that lost its tail (crash mid-journal-write without
    // the rename barrier) must not be applied.
    let entries = [JournalEntry { disk: 0, index: 1, data: vec![0u8; 8] }];
    let mut bytes = encode_journal(&entries);
    bytes.truncate(bytes.len() - 3);
    fs::write(FileBackend::journal_path(&dir), bytes).unwrap();
    let mut b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.recovered_journal(), Some(JournalRecovery::DiscardedTorn));
    let mut buf = [0u8; 8];
    b.read(0, 1, &mut buf).unwrap();
    assert_eq!(buf, [4u8; 8], "torn journal must not clobber data");
    assert!(!FileBackend::journal_path(&dir).exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_sidecar_file_failure_names_the_file_not_a_disk() {
    let dir = damaged_fixture("sidecar");
    let mut b = FileBackend::open(&dir).unwrap();
    // A directory where the atomic replace stages its temp file, or where
    // the commit removes the journal, makes each step fail.
    fs::create_dir(dir.join("undo.journal.tmp")).unwrap();
    fs::create_dir(dir.join("volume.meta.tmp")).unwrap();
    let entry = [JournalEntry { disk: 1, index: 0, data: vec![0u8; 16] }];
    let journal = DiskError::Sidecar { file: "undo.journal" };
    assert_eq!(b.journal_begin(&entry), Err(journal));
    let meta = DiskError::Sidecar { file: "volume.meta" };
    let cp = RebuildCheckpoint { disks: vec![2], next_stripe: 1 };
    assert_eq!(b.save_checkpoint(Some(&cp)), Err(meta));
    fs::create_dir(FileBackend::journal_path(&dir)).unwrap();
    assert_eq!(b.journal_commit(), Err(journal));
    assert_eq!(journal.class(), ErrorClass::Fatal);
    assert_eq!(journal.to_string(), "I/O error on the volume's undo.journal");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn file_backend_checkpoint_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("hvraid-cp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cp = RebuildCheckpoint { disks: vec![0, 3], next_stripe: 17 };
    {
        let mut b = FileBackend::create(&dir, 4, 4, 8).unwrap();
        assert_eq!(b.load_checkpoint(), None);
        b.save_checkpoint(Some(&cp)).unwrap();
        assert_eq!(b.load_checkpoint(), Some(cp.clone()));
    }
    {
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.load_checkpoint(), Some(cp));
        b.save_checkpoint(None).unwrap();
    }
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.load_checkpoint(), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn volume_meta_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hvraid-vm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut meta = VolumeMeta {
        code: "hv".into(),
        p: 7,
        stripes: 4,
        element_size: 16,
        rotate: true,
        rebuild_checkpoint: None,
    };
    meta.save(&dir).unwrap();
    assert_eq!(VolumeMeta::load(&dir).unwrap(), meta);
    // The rebuild-checkpoint field round-trips too.
    meta.rebuild_checkpoint =
        Some(RebuildCheckpoint { disks: vec![2, 5], next_stripe: 9 });
    meta.save(&dir).unwrap();
    assert_eq!(VolumeMeta::load(&dir).unwrap(), meta);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn volume_meta_checkpoint_shared_with_backend_hooks() {
    // The volume writes volume.meta; the backend's save_checkpoint
    // edits only the checkpoint line. Both views must agree.
    let dir = std::env::temp_dir().join(format!("hvraid-vmcp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut b = FileBackend::create(&dir, 4, 4, 8).unwrap();
    let meta = VolumeMeta {
        code: "hv".into(),
        p: 5,
        stripes: 4,
        element_size: 8,
        rotate: false,
        rebuild_checkpoint: None,
    };
    meta.save(&dir).unwrap();
    let cp = RebuildCheckpoint { disks: vec![1], next_stripe: 3 };
    b.save_checkpoint(Some(&cp)).unwrap();
    let loaded = VolumeMeta::load(&dir).unwrap();
    assert_eq!(loaded.rebuild_checkpoint, Some(cp));
    assert_eq!(loaded.code, meta.code, "other fields must be preserved");
    b.save_checkpoint(None).unwrap();
    assert_eq!(VolumeMeta::load(&dir).unwrap(), meta);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn volume_meta_rejects_bad_files() {
    let dir = std::env::temp_dir().join(format!("hvraid-vmbad-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let write = |body: &str| fs::write(dir.join("volume.meta"), body).unwrap();
    let load_err = || VolumeMeta::load(&dir).unwrap_err().to_string();

    write("version=2\ncode=hv\np=5\nstripes=4\nelement_size=8\nrotate=true\n");
    assert!(load_err().contains("unsupported format version 2"), "{}", load_err());

    write("version=1\ncode=hv\np=banana\nstripes=4\nelement_size=8\nrotate=true\n");
    assert!(load_err().contains("p=\"banana\""), "{}", load_err());

    write("version=1\ncode=hv\np=0\nstripes=4\nelement_size=8\nrotate=true\n");
    assert!(load_err().contains("out of range"), "{}", load_err());

    write("version=1\ncode=hv\np=5\nstripes=4\nelement_size=8\nrotate=maybe\n");
    assert!(load_err().contains("must be true or false"), "{}", load_err());

    write("version=1\ncode=hv\np=5\nstripes=4\nelement_size=8\n");
    assert!(load_err().contains("missing field rotate"), "{}", load_err());

    write(
        "version=1\ncode=hv\np=5\nstripes=4\nelement_size=8\nrotate=true\n\
         rebuild_checkpoint=oops\n",
    );
    assert!(load_err().contains("rebuild_checkpoint"), "{}", load_err());

    // Legacy pre-versioning files (no version line) still load.
    write("code=hv\np=5\nstripes=4\nelement_size=8\nrotate=true\n");
    assert!(VolumeMeta::load(&dir).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

/// Creates a 4 × 8 × 16 B array under a fresh temp dir named `tag`.
fn damaged_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvraid-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    FileBackend::create(&dir, 4, 8, 16).unwrap();
    dir
}

#[test]
fn open_refuses_a_zero_dimension_in_shape_meta() {
    let dir = damaged_fixture("zero");
    for (key, shape) in [
        ("disks", "disks=0\nelements_per_disk=8\nelement_size=16\n"),
        ("elements_per_disk", "disks=4\nelements_per_disk=0\nelement_size=16\n"),
        ("element_size", "disks=4\nelements_per_disk=8\nelement_size=0\n"),
    ] {
        fs::write(dir.join("shape.meta"), shape).unwrap();
        let err = FileBackend::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{key}: {err}");
        assert!(err.to_string().contains(&format!("{key}=0")), "{err}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn open_sizes_nothing_from_shape_meta_disks() {
    let dir = damaged_fixture("huge");
    fs::write(dir.join("shape.meta"), "disks=1000000000000\nelements_per_disk=8\nelement_size=16\n")
        .unwrap();
    // Disks 0–3 exist; disk 4 does not, and that is the whole cost.
    let err = FileBackend::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    fs::write(
        dir.join("shape.meta"),
        format!("disks=4\nelements_per_disk={}\nelement_size=16\n", usize::MAX / 8),
    )
    .unwrap();
    let err = FileBackend::open(&dir).unwrap_err();
    assert!(err.to_string().contains("overflows"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_forged_journal_count_is_discarded_not_allocated() {
    let dir = damaged_fixture("forged");
    // Magic, count u32::MAX, no entries, and a valid FNV-1a checksum:
    // anyone can compute it, so it proves nothing about the count.
    let mut bytes = JOURNAL_MAGIC.to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(bytes.len(), 16);
    fs::write(FileBackend::journal_path(&dir), bytes).unwrap();
    let b = FileBackend::open(&dir).unwrap();
    assert_eq!(b.recovered_journal(), Some(JournalRecovery::DiscardedTorn));
    assert!(!FileBackend::journal_path(&dir).exists());
    let _ = fs::remove_dir_all(&dir);
}
