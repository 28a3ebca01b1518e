//! [`FileBackend`]: one file per disk in a directory, the one record of
//! what the backend owns (`disks.meta`), its undo-journal codec, and the
//! [`VolumeMeta`] persisted beside them — the persistence the `hvraid`
//! CLI mounts.

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

/// One file per disk (`disk-NN.dat`) in a directory, plus `disks.meta`:
/// the one record of everything the backend owns — its shape, its failed
/// disks and the rebuild checkpoint — rewritten whole and atomically (temp
/// file, `sync_all`, rename) on every change, so a restart finds all three
/// as they last were, or the change is reported as an error.
/// `undo.journal` rides along: the pre-images of an in-flight
/// multi-element write, written the same way so it is either absent or
/// complete.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    element_size: usize,
    elements_per_disk: usize,
    files: Vec<File>,
    failed: Vec<bool>,
    checkpoint: Option<RebuildCheckpoint>,
    recovered: Option<JournalRecovery>,
}

/// The record of a [`FileBackend`]'s shape, failed disks and checkpoint.
const DISKS_META: &str = "disks.meta";

/// The `disks.meta` format version this build reads and writes.
const DISKS_META_VERSION: usize = 1;

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

impl FileBackend {
    fn data_path(dir: &Path, disk: usize) -> PathBuf {
        dir.join(format!("disk-{disk:02}.dat"))
    }

    pub(super) fn journal_path(dir: &Path) -> PathBuf {
        dir.join("undo.journal")
    }

    /// Creates a fresh zero-filled array under `dir` (created if missing;
    /// existing disk files are truncated), every disk healthy and no
    /// rebuild checkpoint recorded.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`], naming the field, for a zero
    /// dimension or a disk larger than the address space; otherwise the
    /// underlying error if the directory, a disk file or `disks.meta`
    /// cannot be written.
    pub fn create(
        dir: impl AsRef<Path>,
        disks: usize,
        elements_per_disk: usize,
        element_size: usize,
    ) -> std::io::Result<Self> {
        let len = disk_len(disks, elements_per_disk, element_size)
            .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let _ = fs::remove_file(Self::journal_path(&dir));
        let _ = fs::remove_file(dir.join("undo.journal.tmp"));
        let mut files = Vec::with_capacity(disks);
        for disk in 0..disks {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::data_path(&dir, disk))?;
            f.set_len(len)?;
            files.push(f);
        }
        let backend = FileBackend {
            dir,
            element_size,
            elements_per_disk,
            files,
            failed: vec![false; disks],
            checkpoint: None,
            recovered: None,
        };
        backend.persist()?;
        Ok(backend)
    }

    /// Reopens an array previously written by [`FileBackend::create`].
    /// This is `disks.meta`'s one parser: every field is checked before
    /// anything is sized from it, and the failed disks and the checkpoint
    /// it records are the backend's from then on.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`], naming the field, if
    /// `disks.meta` has another version, lacks a field, holds a
    /// non-number, a zero dimension, a disk larger than the address
    /// space, a failed or checkpointed disk outside the array, or a
    /// checkpoint that is not `disks@next_stripe`; the same kind, naming
    /// the file, for a disk file whose length is not
    /// `elements_per_disk × element_size`; otherwise the underlying error
    /// if a file cannot be read or opened.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let body = fs::read_to_string(dir.join(DISKS_META))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{DISKS_META}: {e}")))?;
        let bad = |msg: String| meta_err(format!("{DISKS_META}: {msg}"));
        let field = |key: &str| {
            body.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .map(str::trim)
                .ok_or_else(|| bad(format!("missing field {key}")))
        };
        let num = |key: &str| -> std::io::Result<usize> {
            let v = field(key)?;
            v.parse().map_err(|_| bad(format!("field {key}={v:?} is not a number")))
        };
        let version = num("version")?;
        if version != DISKS_META_VERSION {
            return Err(bad(format!(
                "unsupported format version {version} \
                 (this build understands version {DISKS_META_VERSION})"
            )));
        }
        let disks = num("disks")?;
        let elements_per_disk = num("elements_per_disk")?;
        let element_size = num("element_size")?;
        let len = disk_len(disks, elements_per_disk, element_size).map_err(bad)?;
        // `d0+d1+…`, each a disk of the array.
        let disk_list = |v: &str| -> Option<Vec<usize>> {
            v.split('+').map(|d| d.parse().ok().filter(|&d| d < disks)).collect()
        };
        let untrusted = |key: &str, v: &str, form: &str| {
            bad(format!("field {key}={v:?} is not {form} with disks below {disks}"))
        };
        let failed_disks = match field("failed")? {
            "" => Vec::new(),
            v => disk_list(v).ok_or_else(|| untrusted("failed", v, "d0+d1+…"))?,
        };
        let checkpoint = match field("rebuild_checkpoint")? {
            "" => None,
            v => Some(
                v.split_once('@')
                    .and_then(|(list, next)| {
                        Some(RebuildCheckpoint {
                            disks: disk_list(list)?,
                            next_stripe: next.parse().ok()?,
                        })
                    })
                    .ok_or_else(|| untrusted("rebuild_checkpoint", v, "d0+d1+…@next_stripe"))?,
            ),
        };
        // The counts are read off disk: they bound the loop, never an
        // allocation, so a huge `disks` fails on the first missing file.
        let mut files = Vec::new();
        for disk in 0..disks {
            let file =
                OpenOptions::new().read(true).write(true).open(Self::data_path(&dir, disk))?;
            let got = file.metadata()?.len();
            if got != len {
                return Err(meta_err(format!(
                    "disk-{disk:02}.dat holds {got} bytes, {DISKS_META} gives {len}"
                )));
            }
            files.push(file);
        }
        let mut backend = FileBackend {
            dir,
            element_size,
            elements_per_disk,
            files,
            failed: (0..disks).map(|d| failed_disks.contains(&d)).collect(),
            checkpoint,
            recovered: None,
        };
        backend.recover_journal()?;
        Ok(backend)
    }

    /// Rewrites `disks.meta` whole from the backend's fields, through
    /// [`replace_file`]: the record's one writer.
    fn persist(&self) -> std::io::Result<()> {
        let failed: Vec<String> =
            (0..self.files.len()).filter(|&d| self.failed[d]).map(|d| d.to_string()).collect();
        let checkpoint =
            self.checkpoint.as_ref().map_or_else(String::new, RebuildCheckpoint::encode);
        let body = format!(
            "version={DISKS_META_VERSION}\ndisks={}\nelements_per_disk={}\nelement_size={}\n\
             failed={}\nrebuild_checkpoint={checkpoint}\n",
            self.files.len(),
            self.elements_per_disk,
            self.element_size,
            failed.join("+"),
        );
        replace_file(&self.dir.join(DISKS_META), body.as_bytes())
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

    /// The flag is set even when `disks.meta` cannot be rewritten — the
    /// disk is dead either way — and the error says a restart would not
    /// know it.
    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        if disk >= self.files.len() {
            return Err(DiskError::NoSuchDisk { disk });
        }
        self.failed[disk] = true;
        self.persist().map_err(record_err)
    }

    /// The spare keeps the failed disk's bytes: a rebuild rewrites every
    /// element, and the volume reads none of them before it has.
    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        if disk >= self.files.len() {
            return Err(DiskError::NoSuchDisk { disk });
        }
        self.failed[disk] = false;
        self.persist().map_err(record_err)
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
        self.checkpoint = cp.cloned();
        self.persist().map_err(record_err)
    }

    /// The checkpoint [`FileBackend::open`] parsed, or the last one saved.
    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        self.checkpoint.clone()
    }
}

/// A `disks.meta` that could not be rewritten: the record, not a disk,
/// is at fault.
fn record_err(_: std::io::Error) -> DiskError {
    DiskError::Sidecar { file: DISKS_META }
}

/// The byte length of a disk of `elements_per_disk` elements of
/// `element_size` bytes — the one shape check [`FileBackend::create`] and
/// [`FileBackend::open`] share: every dimension positive, and no disk
/// offset past the address space.
fn disk_len(disks: usize, elements_per_disk: usize, element_size: usize) -> Result<u64, String> {
    for (key, v) in
        [("disks", disks), ("elements_per_disk", elements_per_disk), ("element_size", element_size)]
    {
        if v == 0 {
            return Err(format!("field {key}=0 must be positive"));
        }
    }
    let len = elements_per_disk.checked_mul(element_size).ok_or_else(|| {
        format!(
            "elements_per_disk={elements_per_disk} × element_size={element_size} \
             overflows a disk offset"
        )
    })?;
    Ok(len as u64)
}

// ---------------------------------------------------------------------------
// VolumeMeta
// ---------------------------------------------------------------------------

/// The `volume.meta` format version this build reads and writes.
pub const VOLUME_META_VERSION: usize = 2;

/// What only the volume knows about itself, persisted next to a
/// [`FileBackend`]'s disk files (`volume.meta`), so `hvraid fsck`/reopen
/// can rebuild the same code and addressing. The stripe count and element
/// size are the backend's (`disks.meta`), and so are the failed disks and
/// the rebuild checkpoint; `hvraid` writes this file once, when it creates
/// the volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Code name as registered in the CLI registry (e.g. `"hv"`).
    pub code: String,
    /// The code's prime parameter.
    pub p: usize,
    /// Whether stripe rotation is enabled.
    pub rotate: bool,
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
        let body = format!(
            "version={VOLUME_META_VERSION}\ncode={}\np={}\nrotate={}\n",
            self.code, self.p, self.rotate
        );
        replace_file(&dir.as_ref().join("volume.meta"), body.as_bytes())
    }

    /// Reads and validates `volume.meta` from `dir`.
    ///
    /// # Errors
    ///
    /// Every malformation gets a descriptive [`std::io::ErrorKind::InvalidData`]
    /// error naming the offending field and value: unknown/future format
    /// versions, missing fields, a non-numeric or out-of-range `p`, and a
    /// `rotate` that is neither `true` nor `false`.
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
            None => 1,
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
        let p = field("p")?;
        let p: usize = p
            .parse()
            .map_err(|_| meta_err(format!("volume.meta: field p={p:?} is not a number")))?;
        if p < 2 {
            return Err(meta_err(format!("volume.meta: field p={p} is out of range (minimum 2)")));
        }
        let rotate = match field("rotate")?.as_str() {
            "true" => true,
            "false" => false,
            other => {
                return Err(meta_err(format!(
                    "volume.meta: field rotate={other:?} must be true or false"
                )))
            }
        };
        Ok(VolumeMeta { code: field("code")?, p, rotate })
    }
}
