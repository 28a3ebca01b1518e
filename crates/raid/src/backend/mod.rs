//! Pluggable per-disk storage backends.
//!
//! A [`DiskBackend`] is the element read/write/fault surface one physical
//! disk array exposes to the I/O pipeline: `disks × elements_per_disk`
//! fixed-size elements, addressed as `(disk, index)` where
//! `index = stripe · rows + row`. Three implementations cover the
//! reproduction's needs:
//!
//! * [`MemBackend`] — RAM-resident, the default for experiments and tests;
//! * [`FileBackend`] — one file per disk in a directory plus one record
//!   of its shape, failed disks and rebuild checkpoint (`disks.meta`):
//!   real persistence for the `hvraid` CLI, which adds `volume.meta` so a
//!   volume can be reopened;
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
//! fsync-ordered sidecar file and the checkpoint in `disks.meta`.
//! [`MemBackend`] cannot fail once its targets check out,
//! so its `write_all` checks them all and then copies each element once,
//! its [`DiskBackend::lend`] checks an op's sources and then lends
//! slices of its own storage instead of copying them out, and its
//! [`DiskBackend::lend_mut`] lends a rebuild's targets the same way, so
//! the lost cells are computed where they are stored.

use crate::disk::DiskError;
use crate::pipeline::DiskAddr;

mod faulty;
mod file;
mod mem;

pub use faulty::{Fault, FaultPoint, FaultyBackend};
pub use file::{FileBackend, JournalRecovery, VolumeMeta, VOLUME_META_VERSION};
pub use mem::MemBackend;

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
    /// Returns [`DiskError::NoSuchDisk`] for a bad index, and
    /// [`DiskError::Sidecar`] if a persistent backend cannot record the
    /// failure.
    fn fail(&mut self, disk: usize) -> Result<(), DiskError>;

    /// Swaps in a spare for `disk`: clears the failure flag. The spare's
    /// contents are unspecified until written — the rebuild then streams
    /// every element back, and until it has, the volume reads no element
    /// of it.
    ///
    /// # Errors
    ///
    /// As [`DiskBackend::fail`].
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

#[cfg(test)]
mod tests;
