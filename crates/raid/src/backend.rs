//! Pluggable per-disk storage backends.
//!
//! A [`DiskBackend`] is the element read/write/fault surface one physical
//! disk array exposes to the I/O pipeline: `disks × elements_per_disk`
//! fixed-size elements, addressed as `(disk, index)` where
//! `index = stripe · rows + row`. Three implementations cover the
//! reproduction's needs:
//!
//! * [`MemBackend`] — RAM-resident, the default for experiments and tests;
//! * [`FileBackend`] — one file per disk in a directory, real persistence
//!   for the `hvraid` CLI (plus `volume.meta` so a volume can be reopened);
//! * [`FaultyBackend`] — wraps any backend and injects the full error
//!   taxonomy at deterministic points: whole-disk death, transient errors,
//!   latent bad sectors, torn writes, and crash-at-op-K.
//!
//! Backends know nothing about codes or stripes; the volume lowers its
//! geometry to flat element addresses before calling them. Beyond element
//! I/O, the trait carries the all-or-nothing multi-element store
//! ([`DiskBackend::write_all`]) and two durability hooks: an undo
//! *journal* ([`DiskBackend::journal_begin`] /
//! [`DiskBackend::journal_commit`]), which the default `write_all` drives
//! so a crash mid-store can be rolled back on reopen, and a rebuild
//! *checkpoint* ([`DiskBackend::save_checkpoint`] /
//! [`DiskBackend::load_checkpoint`]) so an interrupted rebuild resumes
//! where it left off. Volatile backends ignore both (nothing of theirs
//! survives a crash anyway); [`FileBackend`] persists the journal as an
//! fsync-ordered sidecar file and the checkpoint as a line in
//! `volume.meta`. [`MemBackend`] cannot fail once its targets check out,
//! so its `write_all` checks them all and then copies each element once,
//! its [`DiskBackend::lend`] checks an op's sources and then lends
//! slices of its own storage instead of copying them out, and its
//! [`DiskBackend::lend_mut`] lends a rebuild's targets the same way, so
//! the lost cells are computed where they are stored.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use disk_sim::DiskError;

use crate::pipeline::DiskAddr;

/// A pre-image record in the undo journal: the bytes element
/// `(disk, index)` held before a multi-element write began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Physical disk.
    pub disk: usize,
    /// Element index on that disk.
    pub index: usize,
    /// The element's contents before the write.
    pub data: Vec<u8>,
}

/// Persistent progress marker for a background rebuild: which disks are
/// being reconstructed onto spares and the first stripe not yet rebuilt.
/// A spare's elements from that stripe on hold whatever the spare came
/// with ([`DiskBackend::replace`]); nothing reads them before the rebuild
/// has written them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildCheckpoint {
    /// Disks being rebuilt (sorted; one or two entries in RAID-6).
    pub disks: Vec<usize>,
    /// First stripe whose elements have not all been rewritten yet.
    pub next_stripe: usize,
}

impl RebuildCheckpoint {
    /// Serializes as `d0+d1@next_stripe` (e.g. `0+3@17`).
    pub fn encode(&self) -> String {
        let disks: Vec<String> = self.disks.iter().map(|d| d.to_string()).collect();
        format!("{}@{}", disks.join("+"), self.next_stripe)
    }

    /// Parses the [`RebuildCheckpoint::encode`] form.
    pub fn decode(s: &str) -> Option<Self> {
        let (disks, next) = s.split_once('@')?;
        let disks: Option<Vec<usize>> =
            disks.split('+').map(|d| d.trim().parse().ok()).collect();
        let disks = disks?;
        if disks.is_empty() {
            return None;
        }
        Some(RebuildCheckpoint { disks, next_stripe: next.trim().parse().ok()? })
    }
}

/// What [`DiskBackend::lend_mut`] lends: one slice per read address and
/// one mutable slice per write address, in order.
pub type LentIo<'a> = (Vec<&'a [u8]>, Vec<&'a mut [u8]>);

/// The element read/write/fault surface of one disk array.
pub trait DiskBackend: Send {
    /// Number of disks.
    fn disks(&self) -> usize;

    /// Element size in bytes.
    fn element_size(&self) -> usize;

    /// Elements stored per disk (`stripes × rows` for a volume).
    fn elements_per_disk(&self) -> usize;

    /// Reads element `index` of `disk` into `buf` (exactly
    /// [`DiskBackend::element_size`] bytes).
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] for bad addresses, failed disks, or medium
    /// errors.
    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError>;

    /// Writes `data` (exactly [`DiskBackend::element_size`] bytes) to
    /// element `index` of `disk`.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] for bad addresses, failed disks, or medium
    /// errors.
    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError>;

    /// Reads the elements at `addrs`, in order, and lends their bytes: one
    /// [`DiskBackend::element_size`] slice per address, borrowed until the
    /// backend is next used. The pipeline reads an op's sources this way,
    /// so its plan runs on them where they are.
    ///
    /// The default [`DiskBackend::read`]s the `k`-th address into
    /// `staging[k]` — element buffers the caller owns and reuses, added
    /// here when an op reads more elements than any before it — and lends
    /// those: the reads, their order, their side effects and the first
    /// error are exactly those of one `read` per address. (One buffer per
    /// element, not one slab: an element-sized allocation reuses memory
    /// the heap already holds, where a stripe-sized one is fresh pages.)
    ///
    /// # Errors
    ///
    /// Returns the first [`DiskError`] a read of `addrs`, in order, returns.
    fn lend<'a>(
        &'a mut self,
        addrs: &[DiskAddr],
        staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<Vec<&'a [u8]>, DiskError> {
        let es = self.element_size();
        if staging.len() < addrs.len() {
            staging.resize_with(addrs.len(), || vec![0; es]);
        }
        for (&DiskAddr { disk, index }, buf) in addrs.iter().zip(staging.iter_mut()) {
            self.read(disk, index, buf)?;
        }
        Ok(staging[..addrs.len()].iter().map(Vec::as_slice).collect())
    }

    /// [`DiskBackend::lend`]'s write-side twin, for an op that computes
    /// every element it stores: lends the sources at `reads` as `lend`
    /// does, and the elements at `writes` mutably — one
    /// [`DiskBackend::element_size`] slice per address, whose bytes are
    /// unspecified, for the caller to overwrite with each element's new
    /// value. [`DiskBackend::store_lent`] then stores them. The addresses
    /// of `reads` and `writes` are all distinct.
    ///
    /// The default [`DiskBackend::read`]s the `k`-th read into
    /// `staging[k]`, as `lend` does, and stages the `k`-th write in
    /// `staging[reads.len() + k]` — element buffers the caller owns and
    /// reuses, added here when an op needs more than any before it — so
    /// it issues exactly the reads `lend` issues, and nothing is written
    /// until `store_lent`.
    ///
    /// # Errors
    ///
    /// As [`DiskBackend::lend`]; nothing is written then.
    fn lend_mut<'a>(
        &'a mut self,
        reads: &[DiskAddr],
        writes: &[DiskAddr],
        staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<LentIo<'a>, DiskError> {
        let es = self.element_size();
        if staging.len() < reads.len() + writes.len() {
            staging.resize_with(reads.len() + writes.len(), || vec![0; es]);
        }
        let (for_reads, for_writes) = staging.split_at_mut(reads.len());
        for (&DiskAddr { disk, index }, buf) in reads.iter().zip(for_reads.iter_mut()) {
            self.read(disk, index, buf)?;
        }
        let read = for_reads.iter().map(Vec::as_slice).collect();
        Ok((read, for_writes[..writes.len()].iter_mut().map(Vec::as_mut_slice).collect()))
    }

    /// Stores the elements [`DiskBackend::lend_mut`] lent at `writes`,
    /// now holding their new bytes, all or nothing as
    /// [`DiskBackend::write_all`] does. `reads`, `writes` and `staging`
    /// are what `lend_mut` was given.
    ///
    /// The default is `write_all` of the `k`-th write from where
    /// `lend_mut` staged it: the journaled store, its pre-image reads and
    /// writes in order.
    ///
    /// # Errors
    ///
    /// As [`DiskBackend::write_all`].
    fn store_lent(
        &mut self,
        reads: &[DiskAddr],
        writes: &[DiskAddr],
        staging: &[Vec<u8>],
    ) -> Result<(), DiskError> {
        let staged = staging[reads.len()..].iter().map(Vec::as_slice);
        let targets: Vec<(DiskAddr, &[u8])> = writes.iter().copied().zip(staged).collect();
        self.write_all(&targets)
    }

    /// Stores every `(address, bytes)` of `targets` (distinct addresses),
    /// all or nothing: on `Ok` every target holds its new bytes; on `Err`
    /// every element holds what it held before the call — or, if the
    /// process died mid-call, what reopening the backend restores.
    ///
    /// The default is the undo-journal protocol: read every target's
    /// pre-image (an unreadable latent sector about to be overwritten
    /// journals as zeros), [`DiskBackend::journal_begin`], write in target
    /// order, [`DiskBackend::journal_commit`]. The first failed write rolls
    /// the stored elements back in reverse order (a rollback write to the
    /// disk that just died is skipped) and commits the journal — unless
    /// the in-place undo is itself incomplete (a crash), in which case the
    /// journal stays for reopen-time rollback.
    ///
    /// # Errors
    ///
    /// Returns the first [`DiskError`] a pre-image read, the journal or a
    /// write produced.
    fn write_all(&mut self, targets: &[(DiskAddr, &[u8])]) -> Result<(), DiskError> {
        if targets.is_empty() {
            return Ok(());
        }
        let es = self.element_size();
        let mut entries: Vec<JournalEntry> = Vec::with_capacity(targets.len());
        for &(DiskAddr { disk, index }, _) in targets {
            let mut data = vec![0; es];
            match self.read(disk, index, &mut data) {
                Ok(()) => {}
                // An unreadable sector we are about to overwrite: the write
                // remaps it, and zeros are as good an undo image as any for a
                // sector that had no readable contents.
                Err(DiskError::LatentSector { .. }) => data.fill(0),
                Err(e) => return Err(e),
            }
            entries.push(JournalEntry { disk, index, data });
        }
        self.journal_begin(&entries)?;
        for (written, &(DiskAddr { disk, index }, bytes)) in targets.iter().enumerate() {
            let Err(e) = self.write(disk, index, bytes) else { continue };
            // Roll the completed writes back in place. A rollback write to the
            // disk that just died is fine to skip (its content is invalid
            // until rebuilt); any other rollback failure — above all a crash —
            // means the in-place undo is incomplete, so the journal must
            // survive for reopen-time recovery.
            let mut undo_ok = true;
            for entry in entries[..written].iter().rev() {
                match self.write(entry.disk, entry.index, &entry.data) {
                    Ok(()) | Err(DiskError::DiskFailed { .. }) => {}
                    Err(_) => undo_ok = false,
                }
            }
            if undo_ok {
                let _ = self.journal_commit();
            }
            return Err(e);
        }
        // If the commit itself fails (crash between the last write and here),
        // the journal survives and reopen rolls everything back — consistent
        // with reporting the store as failed.
        self.journal_commit()
    }

    /// Marks `disk` failed: every subsequent request to it errors until
    /// [`DiskBackend::replace`].
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchDisk`] for a bad index.
    fn fail(&mut self, disk: usize) -> Result<(), DiskError>;

    /// Swaps in a spare for `disk`: clears the failure flag. The spare's
    /// contents are unspecified until written — the rebuild then streams
    /// every element back, and until it has, the volume reads no element
    /// of it.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchDisk`] for a bad index.
    fn replace(&mut self, disk: usize) -> Result<(), DiskError>;

    /// True if `disk` is currently failed.
    fn is_failed(&self, disk: usize) -> bool;

    /// Short human-readable backend kind (`"mem"`, `"file"`, …).
    fn kind(&self) -> &'static str;

    /// Durably records the pre-images of an imminent multi-element write,
    /// so a crash mid-write can be rolled back on reopen. Volatile
    /// backends may ignore this (the default does nothing): nothing of
    /// theirs survives a crash, so there is nothing to roll back.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] if the journal cannot be made durable.
    fn journal_begin(&mut self, _entries: &[JournalEntry]) -> Result<(), DiskError> {
        Ok(())
    }

    /// Discards the journal written by the last
    /// [`DiskBackend::journal_begin`]: the write completed (or was rolled
    /// back in place) and its undo log is no longer needed.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] if the journal cannot be removed.
    fn journal_commit(&mut self) -> Result<(), DiskError> {
        Ok(())
    }

    /// Persists (`Some`) or clears (`None`) the background-rebuild
    /// checkpoint. The default does nothing (volatile backends cannot be
    /// reopened, so there is nothing to resume).
    ///
    /// # Errors
    ///
    /// Returns [`DiskError`] if the checkpoint cannot be made durable.
    fn save_checkpoint(&mut self, _cp: Option<&RebuildCheckpoint>) -> Result<(), DiskError> {
        Ok(())
    }

    /// Reads back the persisted rebuild checkpoint, if any.
    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        None
    }

    /// Downcast hook: the [`FaultyBackend`] wrapping this backend, if this
    /// *is* one — lets fault-driving code (chaos harness, tests) inject
    /// faults through a `Box<dyn DiskBackend>` without keeping a second
    /// handle.
    fn as_faulty_mut(&mut self) -> Option<&mut FaultyBackend> {
        None
    }
}

fn check_addr(
    disks: usize,
    elements: usize,
    disk: usize,
    index: usize,
) -> Result<(), DiskError> {
    if disk >= disks {
        return Err(DiskError::NoSuchDisk { disk });
    }
    if index >= elements {
        return Err(DiskError::Io { disk });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct MemDisk {
    data: Vec<u8>,
    failed: bool,
}

/// RAM-resident backend: each disk is one zero-initialized byte vector.
///
/// A fresh all-zero volume is parity-consistent for any XOR code (every
/// chain XORs to zero), so no initial encode pass is needed.
#[derive(Debug, Clone)]
pub struct MemBackend {
    element_size: usize,
    elements_per_disk: usize,
    disks: Vec<MemDisk>,
}

impl MemBackend {
    /// Creates `disks` zeroed disks of `elements_per_disk` elements each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(disks: usize, elements_per_disk: usize, element_size: usize) -> Self {
        assert!(disks > 0 && elements_per_disk > 0 && element_size > 0);
        MemBackend {
            element_size,
            elements_per_disk,
            disks: vec![
                MemDisk { data: vec![0; elements_per_disk * element_size], failed: false };
                disks
            ],
        }
    }

    /// The one way a request to this backend can fail: a bad address or a
    /// failed disk.
    fn check(&self, disk: usize, index: usize) -> Result<(), DiskError> {
        check_addr(self.disks.len(), self.elements_per_disk, disk, index)?;
        if self.disks[disk].failed {
            return Err(DiskError::DiskFailed { disk });
        }
        Ok(())
    }
}

impl DiskBackend for MemBackend {
    fn disks(&self) -> usize {
        self.disks.len()
    }

    fn element_size(&self) -> usize {
        self.element_size
    }

    fn elements_per_disk(&self) -> usize {
        self.elements_per_disk
    }

    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        self.check(disk, index)?;
        let es = self.element_size;
        buf.copy_from_slice(&self.disks[disk].data[index * es..(index + 1) * es]);
        Ok(())
    }

    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError> {
        self.write_all(&[(DiskAddr { disk, index }, data)])
    }

    /// Checks every address, then lends slices of the disks themselves:
    /// no staging, no copy. A read here has no side effect to order, so
    /// the error is the one the default returns — the first address, in
    /// order, that fails its check.
    fn lend<'a>(
        &'a mut self,
        addrs: &[DiskAddr],
        _staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<Vec<&'a [u8]>, DiskError> {
        for &DiskAddr { disk, index } in addrs {
            self.check(disk, index)?;
        }
        let es = self.element_size;
        Ok(addrs.iter().map(|a| &self.disks[a.disk].data[a.index * es..][..es]).collect())
    }

    /// Every target is checked before the first byte moves, and nothing
    /// can fail after that — nor can a crash leave anything behind in
    /// RAM — so the store is all-or-nothing with no pre-image: each
    /// element is copied once. The error is the one the journaled default
    /// returns, whose pre-image reads fail on the same targets.
    fn write_all(&mut self, targets: &[(DiskAddr, &[u8])]) -> Result<(), DiskError> {
        for &(DiskAddr { disk, index }, _) in targets {
            self.check(disk, index)?;
        }
        let es = self.element_size;
        for &(DiskAddr { disk, index }, bytes) in targets {
            self.disks[disk].data[index * es..(index + 1) * es].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Checks every address, then lends slices of the disks themselves,
    /// the writes mutably: each touched disk's window, from its first
    /// address to its last, is cut into elements and each address takes
    /// its own. The new bytes land as the caller computes them, so
    /// [`DiskBackend::store_lent`] has nothing left to store — and since
    /// nothing can fail once the addresses check out, the store is still
    /// all or nothing. The error is the first failing address of `reads`
    /// then `writes`, as the default's `lend` and pre-image reads report.
    ///
    /// # Panics
    ///
    /// Panics if an address repeats.
    fn lend_mut<'a>(
        &'a mut self,
        reads: &[DiskAddr],
        writes: &[DiskAddr],
        _staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<LentIo<'a>, DiskError> {
        let addrs = || reads.iter().chain(writes);
        for &DiskAddr { disk, index } in addrs() {
            self.check(disk, index)?;
        }
        // Per disk, its window's first index and its end, then where the
        // window's elements start in `elements`, back to back.
        let mut windows = vec![(usize::MAX, 0); self.disks.len()];
        for a in addrs() {
            let (first, end) = &mut windows[a.disk];
            (*first, *end) = ((*first).min(a.index), (*end).max(a.index + 1));
        }
        let len = windows.iter().map(|&(first, end)| end.saturating_sub(first)).sum();
        let mut elements: Vec<Option<&'a mut [u8]>> = Vec::with_capacity(len);
        let es = self.element_size;
        for (d, window) in self.disks.iter_mut().zip(&mut windows) {
            let (first, end) = *window;
            window.1 = elements.len();
            if first < end {
                elements.extend(d.data[first * es..end * es].chunks_exact_mut(es).map(Some));
            }
        }
        let mut take = |a: &DiskAddr| -> &'a mut [u8] {
            let (first, start) = windows[a.disk];
            let lent = elements[start + a.index - first].take();
            lent.unwrap_or_else(|| panic!("element {} of disk {} lent twice", a.index, a.disk))
        };
        let read = reads.iter().map(|a| -> &'a [u8] { take(a) }).collect();
        Ok((read, writes.iter().map(take).collect()))
    }

    /// The bytes landed as they were computed ([`Self::lend_mut`]).
    fn store_lent(
        &mut self,
        _reads: &[DiskAddr],
        _writes: &[DiskAddr],
        _staging: &[Vec<u8>],
    ) -> Result<(), DiskError> {
        Ok(())
    }

    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = true;
        Ok(())
    }

    /// The spare keeps the failed disk's bytes: a rebuild rewrites every
    /// element, and the volume reads none of them before it has.
    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = false;
        Ok(())
    }

    fn is_failed(&self, disk: usize) -> bool {
        self.disks.get(disk).is_some_and(|d| d.failed)
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

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

const JOURNAL_MAGIC: &[u8; 4] = b"HVJ1";

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

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_journal(entries: &[JournalEntry]) -> Vec<u8> {
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

    fn journal_path(dir: &Path) -> PathBuf {
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
            .map_err(|_| DiskError::Io { disk: 0 })
    }

    fn journal_commit(&mut self) -> Result<(), DiskError> {
        match fs::remove_file(Self::journal_path(&self.dir)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(_) => Err(DiskError::Io { disk: 0 }),
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
        replace_file(&meta, body.as_bytes()).map_err(|_| DiskError::Io { disk: 0 })
    }

    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        let body = fs::read_to_string(self.dir.join("volume.meta")).ok()?;
        let v = body.lines().find_map(|l| l.strip_prefix("rebuild_checkpoint="))?;
        RebuildCheckpoint::decode(v.trim())
    }
}

// ---------------------------------------------------------------------------
// FaultyBackend
// ---------------------------------------------------------------------------

/// One scheduled fault: after `at_op` element operations have been served,
/// `disk` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Operation count (reads + writes served so far) that triggers the
    /// fault.
    pub at_op: u64,
    /// The disk to fail.
    pub disk: usize,
}

/// A fault [`FaultyBackend::inject`] can introduce, covering the whole
/// [`disk_sim::ErrorClass`] taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The disk dies now: every request errors until replaced.
    Dead {
        /// The failing disk.
        disk: usize,
    },
    /// The next `ops` *read* attempts on `disk` fail with
    /// [`DiskError::Transient`], then the condition clears — a retry
    /// succeeds. Writes are not gated: at this abstraction a transient
    /// write error is indistinguishable from success-after-retry.
    Transient {
        /// The glitching disk.
        disk: usize,
        /// How many reads fail before the condition clears.
        ops: u32,
    },
    /// Element `(disk, index)` becomes an unreadable bad sector — a latent
    /// medium error — until something rewrites it (the rewrite remaps the
    /// sector and heals it).
    LatentSector {
        /// The disk with the bad sector.
        disk: usize,
        /// The unreadable element.
        index: usize,
    },
    /// The next write to `(disk, index)` persists only its first half but
    /// reports success — a torn write, detectable only by scrubbing.
    TornWrite {
        /// The disk tearing the write.
        disk: usize,
        /// The element whose update is torn.
        index: usize,
    },
    /// Once `at_op` element operations have been served, the "process"
    /// crashes: that operation and every later one — element I/O, journal,
    /// checkpoint, fail/replace — returns [`DiskError::Crashed`]. For a
    /// [`FileBackend`] inner, whatever reached the files stays there,
    /// exactly like a real crash; reopening the directory runs recovery.
    CrashAtOp {
        /// Operation count at which the crash fires.
        at_op: u64,
    },
}

/// Deterministic fault injector wrapping any backend: disks fail at fixed
/// operation counts ([`FaultPoint`]) or on demand ([`Fault`]), transient
/// and latent-sector errors surface per the taxonomy. It runs the
/// journaled default [`DiskBackend::write_all`], so every pre-image read
/// and every write of a store is an operation a fault can land on.
pub struct FaultyBackend {
    inner: Box<dyn DiskBackend>,
    schedule: Vec<FaultPoint>,
    ops: u64,
    /// disk → remaining reads that fail transiently.
    transient: BTreeMap<usize, u32>,
    /// Unreadable `(disk, index)` sectors; cleared by rewrite or replace.
    latent: BTreeSet<(usize, usize)>,
    /// `(disk, index)` whose next write is torn; fires once.
    torn: BTreeSet<(usize, usize)>,
    crash_at: Option<u64>,
    crashed: bool,
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("inner", &self.inner.kind())
            .field("schedule", &self.schedule)
            .field("ops", &self.ops)
            .finish()
    }
}

impl FaultyBackend {
    /// Wraps `inner`, failing the scheduled disks as operations accrue.
    pub fn new(inner: Box<dyn DiskBackend>, schedule: Vec<FaultPoint>) -> Self {
        FaultyBackend {
            inner,
            schedule,
            ops: 0,
            transient: BTreeMap::new(),
            latent: BTreeSet::new(),
            torn: BTreeSet::new(),
            crash_at: None,
            crashed: false,
        }
    }

    /// Injects `faults` up front (builder form of [`FaultyBackend::inject`]).
    pub fn with_faults(mut self, faults: impl IntoIterator<Item = Fault>) -> Self {
        for f in faults {
            self.inject(f);
        }
        self
    }

    /// Introduces one fault, effective immediately (or, for
    /// [`Fault::Transient`]/[`Fault::TornWrite`]/[`Fault::CrashAtOp`], at
    /// the triggering operation).
    pub fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Dead { disk } => {
                let _ = self.inner.fail(disk);
            }
            Fault::Transient { disk, ops } => {
                if ops > 0 {
                    *self.transient.entry(disk).or_insert(0) += ops;
                }
            }
            Fault::LatentSector { disk, index } => {
                self.latent.insert((disk, index));
            }
            Fault::TornWrite { disk, index } => {
                self.torn.insert((disk, index));
            }
            Fault::CrashAtOp { at_op } => {
                self.crash_at = Some(at_op);
            }
        }
    }

    /// True once a [`Fault::CrashAtOp`] has fired: the simulated process
    /// is dead and every operation errors.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// "Restarts the process" after a simulated crash: operations are
    /// served again, over whatever state the crash left behind. (For a
    /// [`FileBackend`] inner, prefer reopening the directory — that also
    /// runs journal recovery.)
    pub fn clear_crash(&mut self) {
        self.crashed = false;
        self.crash_at = None;
    }

    /// Operations (reads + writes) served or rejected so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The wrapped backend (for post-crash inspection in tests).
    pub fn inner(&self) -> &dyn DiskBackend {
        self.inner.as_ref()
    }

    fn tick(&mut self) -> Result<(), DiskError> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        self.ops += 1;
        if self.crash_at.is_some_and(|at| self.ops >= at) {
            self.crashed = true;
            return Err(DiskError::Crashed);
        }
        let due: Vec<usize> = self
            .schedule
            .iter()
            .filter(|p| p.at_op <= self.ops)
            .map(|p| p.disk)
            .collect();
        self.schedule.retain(|p| p.at_op > self.ops);
        for disk in due {
            let _ = self.inner.fail(disk);
        }
        Ok(())
    }

    fn guard_crash(&self) -> Result<(), DiskError> {
        if self.crashed {
            Err(DiskError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl DiskBackend for FaultyBackend {
    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn element_size(&self) -> usize {
        self.inner.element_size()
    }

    fn elements_per_disk(&self) -> usize {
        self.inner.elements_per_disk()
    }

    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        self.tick()?;
        if !self.inner.is_failed(disk) {
            if let Some(n) = self.transient.get_mut(&disk) {
                *n -= 1;
                if *n == 0 {
                    self.transient.remove(&disk);
                }
                return Err(DiskError::Transient { disk });
            }
            if self.latent.contains(&(disk, index)) {
                return Err(DiskError::LatentSector { disk, index });
            }
        }
        self.inner.read(disk, index, buf)
    }

    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError> {
        self.tick()?;
        if self.torn.remove(&(disk, index)) && !self.inner.is_failed(disk) {
            // Persist only the first half, report success: the classic
            // torn write. The physical write did land, so a latent sector
            // at this address is remapped (healed) all the same.
            let es = self.inner.element_size();
            let mut cur = vec![0u8; es];
            self.inner.read(disk, index, &mut cur)?;
            cur[..es / 2].copy_from_slice(&data[..es / 2]);
            self.inner.write(disk, index, &cur)?;
            self.latent.remove(&(disk, index));
            return Ok(());
        }
        let r = self.inner.write(disk, index, data);
        if r.is_ok() {
            // A successful rewrite remaps a bad sector.
            self.latent.remove(&(disk, index));
        }
        r
    }

    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        self.guard_crash()?;
        self.inner.fail(disk)
    }

    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        self.guard_crash()?;
        // A replaced disk is healthy again; drop any pending fault for it
        // (the schedule described the old spindle).
        self.schedule.retain(|p| p.disk != disk);
        self.transient.remove(&disk);
        self.latent.retain(|&(d, _)| d != disk);
        self.torn.retain(|&(d, _)| d != disk);
        self.inner.replace(disk)
    }

    fn is_failed(&self, disk: usize) -> bool {
        self.inner.is_failed(disk)
    }

    fn kind(&self) -> &'static str {
        "faulty"
    }

    fn journal_begin(&mut self, entries: &[JournalEntry]) -> Result<(), DiskError> {
        self.guard_crash()?;
        self.inner.journal_begin(entries)
    }

    fn journal_commit(&mut self) -> Result<(), DiskError> {
        self.guard_crash()?;
        self.inner.journal_commit()
    }

    fn save_checkpoint(&mut self, cp: Option<&RebuildCheckpoint>) -> Result<(), DiskError> {
        self.guard_crash()?;
        self.inner.save_checkpoint(cp)
    }

    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        self.inner.load_checkpoint()
    }

    fn as_faulty_mut(&mut self) -> Option<&mut FaultyBackend> {
        Some(self)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
