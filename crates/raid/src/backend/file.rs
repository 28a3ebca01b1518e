//! [`FileBackend`]: one file per disk in a directory, its undo-journal
//! codec, and the [`VolumeMeta`] persisted beside it — the persistence the
//! `hvraid` CLI mounts.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use super::*;

/// What [`FileBackend::open`] found in the undo-journal sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecovery {
    /// A complete journal was found: the interrupted write's pre-images
    /// were restored, undoing a torn multi-element update.
    RolledBack {
        /// Elements rewritten from their journaled pre-images.
        elements: usize,
    },
    /// The journal itself was torn (truncated or checksum mismatch): the
    /// crash hit *during* `journal_begin`, before any element was
    /// overwritten, so the journal is discarded and the data is intact.
    DiscardedTorn,
}

/// One file per disk (`disk-NN.dat`) in a directory, plus `shape.meta`
/// recording the geometry and `disk-NN.failed` marker files so failure
/// state survives reopening. Two durability sidecars ride along:
/// `undo.journal` (pre-images of an in-flight multi-element write, written
/// with fsync-then-rename ordering so it is either absent or complete) and
/// a `rebuild_checkpoint=` line in `volume.meta`.
pub struct FileBackend {
    dir: PathBuf,
    element_size: usize,
    elements_per_disk: usize,
    files: Vec<File>,
    failed: Vec<bool>,
    recovered: Option<JournalRecovery>,
}

pub(super) const JOURNAL_MAGIC: &[u8; 4] = b"HVJ1";

/// Replaces `path` with `bytes` through `<path>.tmp`: write, `sync_all`,
/// rename. A crash leaves either the old file or the new one, never a
/// half-written mix.
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)
}

pub(super) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(super) fn encode_journal(entries: &[JournalEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(JOURNAL_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.disk as u32).to_le_bytes());
        out.extend_from_slice(&(e.index as u32).to_le_bytes());
        out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&e.data);
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses a journal file; `None` means torn (truncated, bad magic, or
/// checksum mismatch) — nothing may be applied from it.
fn decode_journal(bytes: &[u8], element_size: usize) -> Option<Vec<JournalEntry>> {
    if bytes.len() < JOURNAL_MAGIC.len() + 4 + 8 || &bytes[..4] != JOURNAL_MAGIC {
        return None;
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if fnv1a64(body) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    let mut at = 4;
    let u32_at = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?))
    };
    // The count is read off disk: it bounds the loop, never an allocation.
    let count = u32_at(at)? as usize;
    at += 4;
    let mut entries = Vec::new();
    for _ in 0..count {
        let disk = u32_at(at)? as usize;
        let index = u32_at(at + 4)? as usize;
        let len = u32_at(at + 8)? as usize;
        if len != element_size {
            return None;
        }
        let data = body.get(at + 12..at + 12 + len)?.to_vec();
        entries.push(JournalEntry { disk, index, data });
        at += 12 + len;
    }
    if at != body.len() {
        return None;
    }
    Some(entries)
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("disks", &self.files.len())
            .field("elements_per_disk", &self.elements_per_disk)
            .field("element_size", &self.element_size)
            .finish()
    }
}

impl FileBackend {
    fn data_path(dir: &Path, disk: usize) -> PathBuf {
        dir.join(format!("disk-{disk:02}.dat"))
    }

    fn failed_path(dir: &Path, disk: usize) -> PathBuf {
        dir.join(format!("disk-{disk:02}.failed"))
    }

    pub(super) fn journal_path(dir: &Path) -> PathBuf {
        dir.join("undo.journal")
    }

    /// Creates a fresh zero-filled array under `dir` (created if missing;
    /// existing disk files are truncated).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory or files cannot be
    /// created.
    pub fn create(
        dir: impl AsRef<Path>,
        disks: usize,
        elements_per_disk: usize,
        element_size: usize,
    ) -> std::io::Result<Self> {
        assert!(disks > 0 && elements_per_disk > 0 && element_size > 0);
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let shape = format!("disks={disks}\nelements_per_disk={elements_per_disk}\nelement_size={element_size}\n");
        fs::write(dir.join("shape.meta"), shape)?;
        let _ = fs::remove_file(Self::journal_path(&dir));
        let _ = fs::remove_file(dir.join("undo.journal.tmp"));
        let mut files = Vec::with_capacity(disks);
        for disk in 0..disks {
            let _ = fs::remove_file(Self::failed_path(&dir, disk));
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::data_path(&dir, disk))?;
            f.set_len((elements_per_disk * element_size) as u64)?;
            files.push(f);
        }
        Ok(FileBackend {
            dir,
            element_size,
            elements_per_disk,
            files,
            failed: vec![false; disks],
            recovered: None,
        })
    }

    /// Reopens an array previously written by [`FileBackend::create`],
    /// restoring the failure flags from the marker files.
    ///
    /// # Errors
    ///
    /// Returns an error if `shape.meta` is missing or malformed, names a
    /// zero dimension or a disk larger than the address space
    /// ([`std::io::ErrorKind::InvalidData`], naming the field), or a disk
    /// file cannot be opened.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let shape = fs::read_to_string(dir.join("shape.meta"))?;
        let field = |key: &str| -> std::io::Result<usize> {
            let v = shape
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| meta_err(format!("shape.meta missing {key}")))?;
            if v == 0 {
                return Err(meta_err(format!("shape.meta: field {key}=0 must be positive")));
            }
            Ok(v)
        };
        let disks = field("disks")?;
        let elements_per_disk = field("elements_per_disk")?;
        let element_size = field("element_size")?;
        if elements_per_disk.checked_mul(element_size).is_none() {
            return Err(meta_err(format!(
                "shape.meta: elements_per_disk={elements_per_disk} × \
                 element_size={element_size} overflows a disk offset"
            )));
        }
        // The counts are read off disk: they bound the loop, never an
        // allocation, so a huge `disks` fails on the first missing file.
        let mut files = Vec::new();
        let mut failed = Vec::new();
        for disk in 0..disks {
            files.push(
                OpenOptions::new().read(true).write(true).open(Self::data_path(&dir, disk))?,
            );
            failed.push(Self::failed_path(&dir, disk).exists());
        }
        let mut backend = FileBackend {
            dir,
            element_size,
            elements_per_disk,
            files,
            failed,
            recovered: None,
        };
        backend.recover_journal()?;
        Ok(backend)
    }

    /// Crash recovery: a leftover `undo.journal` means a multi-element
    /// write was interrupted. A *complete* journal (checksum verifies) is
    /// rolled back — every journaled pre-image is rewritten, undoing the
    /// torn update; a torn journal means the crash preceded any element
    /// write, so it is simply discarded. Either way the journal file is
    /// removed. A stale `undo.journal.tmp` (crash during `journal_begin`,
    /// before the rename) is always discarded.
    fn recover_journal(&mut self) -> std::io::Result<()> {
        let _ = fs::remove_file(self.dir.join("undo.journal.tmp"));
        let path = Self::journal_path(&self.dir);
        let Ok(bytes) = fs::read(&path) else { return Ok(()) };
        let valid = decode_journal(&bytes, self.element_size).filter(|entries| {
            entries.iter().all(|e| {
                e.disk < self.files.len() && e.index < self.elements_per_disk
            })
        });
        self.recovered = Some(match valid {
            Some(entries) => {
                for e in &entries {
                    // Restore straight to the file, bypassing the failure
                    // flag: a pre-image is always the most consistent
                    // content this element can have.
                    let f = &mut self.files[e.disk];
                    f.seek(SeekFrom::Start((e.index * self.element_size) as u64))?;
                    f.write_all(&e.data)?;
                    f.sync_all()?;
                }
                JournalRecovery::RolledBack { elements: entries.len() }
            }
            None => JournalRecovery::DiscardedTorn,
        });
        fs::remove_file(&path)?;
        Ok(())
    }

    /// What [`FileBackend::open`] found in the undo journal, if anything:
    /// `Some` means the previous process died mid-write and recovery
    /// action was taken.
    pub fn recovered_journal(&self) -> Option<JournalRecovery> {
        self.recovered
    }

    /// The directory holding the disk files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

}

impl DiskBackend for FileBackend {
    fn disks(&self) -> usize {
        self.files.len()
    }

    fn element_size(&self) -> usize {
        self.element_size
    }

    fn elements_per_disk(&self) -> usize {
        self.elements_per_disk
    }

    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        check_addr(self.files.len(), self.elements_per_disk, disk, index)?;
        if self.failed[disk] {
            return Err(DiskError::DiskFailed { disk });
        }
        let f = &mut self.files[disk];
        f.seek(SeekFrom::Start((index * self.element_size) as u64))
            .and_then(|_| f.read_exact(buf))
            .map_err(|_| DiskError::Io { disk })
    }

    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError> {
        check_addr(self.files.len(), self.elements_per_disk, disk, index)?;
        if self.failed[disk] {
            return Err(DiskError::DiskFailed { disk });
        }
        let f = &mut self.files[disk];
        f.seek(SeekFrom::Start((index * self.element_size) as u64))
            .and_then(|_| f.write_all(data))
            .map_err(|_| DiskError::Io { disk })
    }

    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        if disk >= self.files.len() {
            return Err(DiskError::NoSuchDisk { disk });
        }
        self.failed[disk] = true;
        let _ = fs::write(Self::failed_path(&self.dir, disk), b"failed\n");
        Ok(())
    }

    /// The spare keeps the failed disk's bytes: a rebuild rewrites every
    /// element, and the volume reads none of them before it has.
    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        if disk >= self.files.len() {
            return Err(DiskError::NoSuchDisk { disk });
        }
        self.failed[disk] = false;
        let _ = fs::remove_file(Self::failed_path(&self.dir, disk));
        Ok(())
    }

    fn is_failed(&self, disk: usize) -> bool {
        self.failed.get(disk).copied().unwrap_or(false)
    }

    fn kind(&self) -> &'static str {
        "file"
    }

    fn journal_begin(&mut self, entries: &[JournalEntry]) -> Result<(), DiskError> {
        if entries.is_empty() {
            return Ok(());
        }
        // The journal is either absent or complete, never observably
        // half-written.
        replace_file(&Self::journal_path(&self.dir), &encode_journal(entries))
            .map_err(|_| DiskError::Sidecar { file: "undo.journal" })
    }

    fn journal_commit(&mut self) -> Result<(), DiskError> {
        match fs::remove_file(Self::journal_path(&self.dir)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(_) => Err(DiskError::Sidecar { file: "undo.journal" }),
        }
    }

    fn save_checkpoint(&mut self, cp: Option<&RebuildCheckpoint>) -> Result<(), DiskError> {
        let meta = self.dir.join("volume.meta");
        let mut body: String = fs::read_to_string(&meta)
            .unwrap_or_else(|_| String::from("version=1\n"))
            .lines()
            .filter(|l| !l.starts_with("rebuild_checkpoint="))
            .map(|l| format!("{l}\n"))
            .collect();
        if let Some(cp) = cp {
            body.push_str(&format!("rebuild_checkpoint={}\n", cp.encode()));
        }
        replace_file(&meta, body.as_bytes())
            .map_err(|_| DiskError::Sidecar { file: "volume.meta" })
    }

    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        let body = fs::read_to_string(self.dir.join("volume.meta")).ok()?;
        let v = body.lines().find_map(|l| l.strip_prefix("rebuild_checkpoint="))?;
        RebuildCheckpoint::decode(v.trim())
    }
}

// ---------------------------------------------------------------------------
// VolumeMeta
// ---------------------------------------------------------------------------

/// The `volume.meta` format version this build reads and writes.
pub const VOLUME_META_VERSION: usize = 1;

/// Volume-level metadata persisted next to a [`FileBackend`]'s disk files
/// (`volume.meta`), so `hvraid fsck`/reopen can rebuild the same
/// code + addressing without re-deriving them from the shape. Also carries
/// the rebuild checkpoint, so a crash mid-rebuild resumes where it left
/// off instead of restarting from stripe 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Code name as registered in the CLI registry (e.g. `"hv"`).
    pub code: String,
    /// The code's prime parameter.
    pub p: usize,
    /// Stripes in the volume.
    pub stripes: usize,
    /// Element size in bytes.
    pub element_size: usize,
    /// Whether stripe rotation is enabled.
    pub rotate: bool,
    /// In-flight background rebuild, if one was interrupted.
    pub rebuild_checkpoint: Option<RebuildCheckpoint>,
}

fn meta_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl VolumeMeta {
    /// Writes `volume.meta` into `dir`, atomically: a crash leaves the old
    /// file or the new one.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let mut body = format!(
            "version={VOLUME_META_VERSION}\ncode={}\np={}\nstripes={}\nelement_size={}\nrotate={}\n",
            self.code, self.p, self.stripes, self.element_size, self.rotate
        );
        if let Some(cp) = &self.rebuild_checkpoint {
            body.push_str(&format!("rebuild_checkpoint={}\n", cp.encode()));
        }
        replace_file(&dir.as_ref().join("volume.meta"), body.as_bytes())
    }

    /// Reads and validates `volume.meta` from `dir`.
    ///
    /// # Errors
    ///
    /// Every malformation gets a descriptive [`std::io::ErrorKind::InvalidData`]
    /// error naming the offending field and value: unknown/future format
    /// versions, missing fields, non-numeric or out-of-range numbers, a
    /// `rotate` that is neither `true` nor `false`, and an undecodable
    /// rebuild checkpoint.
    pub fn load(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let body = fs::read_to_string(dir.as_ref().join("volume.meta"))?;
        let raw = |key: &str| -> Option<String> {
            body.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .map(|v| v.trim().to_string())
        };
        // Files written before versioning carry no `version` line; they
        // are exactly the version-1 field set, so absence means 1.
        let version = match raw("version") {
            None => VOLUME_META_VERSION,
            Some(v) => v.parse::<usize>().map_err(|_| {
                meta_err(format!("volume.meta: version {v:?} is not a number"))
            })?,
        };
        if version != VOLUME_META_VERSION {
            return Err(meta_err(format!(
                "volume.meta: unsupported format version {version} \
                 (this build understands version {VOLUME_META_VERSION})"
            )));
        }
        let field = |key: &str| -> std::io::Result<String> {
            raw(key).ok_or_else(|| meta_err(format!("volume.meta: missing field {key}")))
        };
        let num = |key: &str, min: usize| -> std::io::Result<usize> {
            let v = field(key)?;
            let n: usize = v.parse().map_err(|_| {
                meta_err(format!("volume.meta: field {key}={v:?} is not a number"))
            })?;
            if n < min {
                return Err(meta_err(format!(
                    "volume.meta: field {key}={n} is out of range (minimum {min})"
                )));
            }
            Ok(n)
        };
        let rotate = match field("rotate")?.as_str() {
            "true" => true,
            "false" => false,
            other => {
                return Err(meta_err(format!(
                    "volume.meta: field rotate={other:?} must be true or false"
                )))
            }
        };
        let rebuild_checkpoint = match raw("rebuild_checkpoint") {
            None => None,
            Some(v) => Some(RebuildCheckpoint::decode(&v).ok_or_else(|| {
                meta_err(format!(
                    "volume.meta: rebuild_checkpoint={v:?} is not disks@next_stripe"
                ))
            })?),
        };
        Ok(VolumeMeta {
            code: field("code")?,
            p: num("p", 2)?,
            stripes: num("stripes", 1)?,
            element_size: num("element_size", 1)?,
            rotate,
            rebuild_checkpoint,
        })
    }
}
