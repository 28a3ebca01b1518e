//! [`FaultyBackend`]: wraps any backend and injects the full error
//! taxonomy at deterministic points.

use std::collections::{BTreeMap, BTreeSet};

use super::*;

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
/// [`crate::disk::ErrorClass`] taxonomy.
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
    /// [`FileBackend`](super::FileBackend) inner, whatever reached the
    /// files stays there, exactly like a real crash; reopening the
    /// directory runs recovery.
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
    /// [`FileBackend`](super::FileBackend) inner, prefer reopening the
    /// directory — that also runs journal recovery.)
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
