//! The volume's healing: failure adoption, latent-sector repair, the
//! rebuild onto spares and its checkpoint, the spare pool, the write
//! fence, scrub and whole-volume verification (the paper's §V-C/D).

use raid_core::scrub::ScrubReport;
use raid_core::Stripe;

use crate::health::RecoveryAction;

use super::*;

impl RaidVolume {
    /// Adopts a persisted rebuild checkpoint: the previous process died
    /// mid-rebuild, and the checkpointed disks hold invalid data up from
    /// `next_stripe`. Resuming means continuing from there — *not*
    /// swapping in fresh spares (that would lose the stripes already
    /// rebuilt) and *not* restarting at stripe 0. The one exception: a
    /// disk the checkpoint names that the backend still reports failed
    /// (crash fell between checkpoint-write and spare-swap, which implies
    /// `next_stripe == 0`) gets its spare now. A checkpoint naming a disk
    /// or a stripe the volume does not have is refused, not dropped: the
    /// disks it names may hold invalid data, and nothing says which.
    pub(super) fn resume_rebuild_checkpoint(&mut self) -> Result<(), VolumeError> {
        let Some(cp) = self.pipeline.backend().load_checkpoint() else { return Ok(()) };
        if cp.disks.iter().any(|&d| d >= self.disks()) || cp.next_stripe > self.shape.stripes {
            return Err(VolumeError::CheckpointOutOfRange(cp));
        }
        for &d in &cp.disks {
            if self.pipeline.backend().is_failed(d) {
                self.pipeline.backend_mut().replace(d)?;
            }
            self.healing.failed.insert(d);
        }
        if self.healing.failed.len() > 2 {
            return Err(VolumeError::TooManyFailures { failed: self.healing.failed.len() });
        }
        self.healing.rebuild_task = Some(cp);
        Ok(())
    }

    /// Marks a disk failed (its contents become unreadable).
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the disk does not exist, a third disk
    /// would be failed, or the backend cannot record the failure
    /// ([`DiskError::Sidecar`]; the volume's failed set is then unchanged).
    pub fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        if disk >= self.disks() {
            return Err(VolumeError::NoSuchDisk { disk });
        }
        if self.healing.failed.len() >= 2 && !self.healing.failed.contains(&disk) {
            return Err(VolumeError::TooManyFailures { failed: 3 });
        }
        self.pipeline.backend_mut().fail(disk)?;
        self.healing.failed.insert(disk);
        self.after_failure();
        Ok(())
    }

    /// Stocks the hot-spare pool. Spares are consumed (one per dead disk)
    /// when a background rebuild starts.
    pub fn set_spares(&mut self, spares: usize) {
        self.healing.spares = spares;
    }

    /// Arms/disarms the critical write fence (off by default). While
    /// armed, a volume parked at the RAID-6 correction limit — two dead
    /// disks, no rebuild underway, no spares — refuses new writes with
    /// [`VolumeError::SpareExhausted`] instead of accepting data with
    /// zero remaining redundancy. Reads, flushes of already-accepted
    /// data, and rebuild I/O are unaffected; the fence lifts as soon as
    /// a spare arrives and a rebuild starts.
    pub fn set_write_fence(&mut self, on: bool) {
        self.healing.write_fence = on;
    }

    /// True when the armed fence is currently refusing writes.
    pub fn write_fenced(&self) -> bool {
        self.healing.write_fence
            && self.healing.failed.len() >= 2
            && self.healing.rebuild_task.is_none()
            && self.healing.spares == 0
    }

    /// Asks the healer to cover every failed disk, reporting — rather
    /// than silently parking on — an empty spare pool.
    ///
    /// With spares stocked this behaves like a zero-budget
    /// [`RaidVolume::maintain`]: it starts the spare-consuming rebuild
    /// (if warranted) without rebuilding any stripes yet. With failed
    /// disks left uncovered and the pool empty it returns the typed
    /// [`VolumeError::SpareExhausted`] so the caller can stock a spare
    /// instead of inferring exhaustion from "maintain did nothing".
    ///
    /// # Errors
    ///
    /// [`VolumeError::SpareExhausted`] when failed disks remain with no
    /// rebuild covering them and no spares; backend errors from the
    /// rebuild kickoff.
    pub fn request_heal(&mut self) -> Result<(), VolumeError> {
        if self.healing.rebuild_task.is_none() && !self.healing.failed.is_empty() {
            if self.healing.spares == 0 {
                return Err(VolumeError::SpareExhausted {
                    failed: self.healing.failed.len(),
                    spares: 0,
                });
            }
            return self.start_spare_rebuild();
        }
        let covered: usize = self
            .healing
            .rebuild_task
            .as_ref()
            .map_or(0, |t| t.disks.iter().filter(|d| self.healing.failed.contains(d)).count());
        let uncovered = self.healing.failed.len().saturating_sub(covered);
        if uncovered > 0 && self.healing.spares == 0 {
            return Err(VolumeError::SpareExhausted { failed: uncovered, spares: 0 });
        }
        // Uncovered failures with spares in the pool wait for the active
        // task to finish; the next maintain() starts their rebuild.
        Ok(())
    }

    /// Re-derives the health state from the failed-disk count; the
    /// monitor logs the transition.
    pub(super) fn note_health(&mut self) {
        self.healing.health.observe_failed_count(self.healing.failed.len());
    }

    /// Post-failure bookkeeping: health transition, then — when spares
    /// are stocked — kick off the background rebuild.
    fn after_failure(&mut self) {
        self.note_health();
        if self.healing.rebuild_task.is_none() && self.healing.spares > 0 {
            // Best effort: a failure here (e.g. mid-crash) leaves the
            // array degraded-but-consistent, and the next maintain() call
            // retries the kickoff.
            let _ = self.start_spare_rebuild();
        }
    }

    /// One recovery step for a backend error, per the health policy:
    /// transients are retried (the caller loops), latent sectors repaired
    /// in place, dead disks adopted into the failed set, everything else
    /// propagated.
    pub(super) fn recover(&mut self, e: DiskError) -> Result<(), VolumeError> {
        match self.healing.health.on_error(&e) {
            RecoveryAction::Retry => Ok(()),
            RecoveryAction::RepairLatent { disk, index } => self.repair_latent(disk, index),
            RecoveryAction::FailDisk { disk } => self.adopt_failure(disk, e),
            RecoveryAction::Fatal => Err(VolumeError::Backend(e)),
        }
    }

    /// Records a failure the backend reported on its own (e.g. a
    /// [`crate::backend::FaultyBackend`] fault) so the operation can be
    /// replanned degraded. Errors if the failure is not survivable, or if
    /// the backend cannot record it: a restart would not know the disk is
    /// dead, so nothing may be stored degraded around it.
    fn adopt_failure(&mut self, disk: usize, source: DiskError) -> Result<(), VolumeError> {
        if disk >= self.disks() {
            return Err(VolumeError::Backend(source));
        }
        if self.healing.failed.contains(&disk) {
            // A spare died while being rebuilt: swap in a fresh one and
            // restart its rebuild from stripe 0 (nothing on the
            // replacement is valid yet).
            let spare_died = self.pipeline.backend().is_failed(disk);
            let task = self.healing.rebuild_task.as_mut();
            if let Some(task) = task.filter(|t| spare_died && t.disks.contains(&disk)) {
                self.pipeline.backend_mut().replace(disk)?;
                task.next_stripe = 0;
                self.pipeline.backend_mut().save_checkpoint(Some(task))?;
                return Ok(());
            }
            return Err(VolumeError::Backend(source));
        }
        if self.healing.failed.len() >= 2 {
            return Err(VolumeError::TooManyFailures { failed: self.healing.failed.len() + 1 });
        }
        self.pipeline.backend_mut().fail(disk)?;
        self.healing.failed.insert(disk);
        self.after_failure();
        Ok(())
    }

    /// Reconstructs the one element a latent-sector error named from its
    /// parity chains and rewrites it in place — the write remaps the bad
    /// sector. Runs through the pipeline, so the repair I/O is accounted.
    /// Additional bad sectors discovered while reading the reconstruction
    /// sources are folded into the same decode — which is why this keeps
    /// its own loop instead of [`Self::with_recovery`]: handing such a
    /// sector to [`Self::recover`] would start a second repair inside this
    /// one, and the two would recurse between the sectors.
    fn repair_latent(&mut self, disk: usize, index: usize) -> Result<(), VolumeError> {
        let mut sectors = vec![(disk, index)];
        for _ in 0..MAX_OP_ATTEMPTS {
            match self.try_repair_latent(&sectors) {
                Err(VolumeError::Backend(DiskError::LatentSector { disk: d, index: i })) => {
                    if sectors.contains(&(d, i)) {
                        return Err(VolumeError::Backend(DiskError::LatentSector {
                            disk: d,
                            index: i,
                        }));
                    }
                    // Another bad sector among the sources: charge it
                    // against the policy and widen the decode.
                    match self.healing.health.on_error(&DiskError::LatentSector { disk: d, index: i })
                    {
                        RecoveryAction::FailDisk { disk } => {
                            self.adopt_failure(disk, DiskError::LatentSector {
                                disk: d,
                                index: i,
                            })?;
                        }
                        _ => sectors.push((d, i)),
                    }
                }
                // Transients/disk deaths during the repair reads go
                // through the normal policy (latent errors are already
                // intercepted above, so this cannot re-enter
                // repair_latent).
                Err(VolumeError::Backend(e)) => self.recover(e)?,
                other => return other,
            }
        }
        Err(VolumeError::Backend(DiskError::LatentSector { disk, index }))
    }

    /// One in-place reconstruction attempt for the given bad sectors
    /// (all in one stripe): decode them — together with any whole failed
    /// columns — from the surviving elements, write back only the bad
    /// sectors.
    fn try_repair_latent(&mut self, sectors: &[(usize, usize)]) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let rows = layout.rows();
        let live: Vec<(usize, usize)> = sectors
            .iter()
            .copied()
            .filter(|&(d, i)| {
                d < self.disks() && i < self.shape.stripes * rows && !self.disk_failed_at(d, i / rows)
            })
            .collect();
        let Some(&(d0, i0)) = live.first() else { return Ok(()) };
        let stripe_idx = i0 / rows;
        let cells: Vec<Cell> = live
            .iter()
            .map(|&(d, i)| {
                debug_assert_eq!(i / rows, stripe_idx, "latent repair spans one stripe");
                Cell::new(i % rows, self.shape.addressing.logical_col(stripe_idx, d))
            })
            .collect();
        let failed_cols = self.failed_cols(stripe_idx);
        let addr = self.addr_fn(stripe_idx);
        let Some(op) = lower::decode_op(layout, &failed_cols, &cells, &cells, &addr) else {
            // Bad sectors + failed columns exceed the code's erasure
            // capability: unrecoverable in place.
            return Err(VolumeError::Backend(DiskError::LatentSector {
                disk: d0,
                index: i0,
            }));
        };
        // The op stores only the bad sectors it decodes: they are
        // computed where they are rewritten.
        self.pipeline.execute_in_place(&op)?;
        Ok(())
    }

    /// Whether `disk` must be treated as failed for operations touching
    /// `stripe`. A disk under rebuild is failed only ahead of the rebuild
    /// frontier: stripes below `next_stripe` are fully reconstructed on the
    /// live replacement, so reads may hit them directly and writes MUST
    /// write through — skipping them would leave the already-rebuilt region
    /// stale and surface as silent corruption when the rebuild finishes.
    fn disk_failed_at(&self, disk: usize, stripe: usize) -> bool {
        self.healing.failed.contains(&disk)
            && !self
                .healing
                .rebuild_task
                .as_ref()
                .is_some_and(|t| stripe < t.next_stripe && t.disks.contains(&disk))
    }

    /// The stripe's logical columns currently failed (rebuild-frontier
    /// aware, see [`Self::disk_failed_at`]).
    pub(super) fn failed_cols(&self, stripe: usize) -> Vec<usize> {
        self.healing.failed
            .iter()
            .filter(|&&d| self.disk_failed_at(d, stripe))
            .map(|&d| self.shape.addressing.logical_col(stripe, d))
            .collect()
    }

    /// Rebuilds every failed disk onto a spare (single-disk hybrid
    /// recovery or generic double-disk decode) and marks the array
    /// healthy. An in-flight background rebuild is driven to completion
    /// first; progress is checkpointed per stripe, so a crash mid-rebuild
    /// resumes where it stopped on reopen. It is one operation: its
    /// receipt and disk time cover every task it ran.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if more than two disks are
    /// failed (cannot happen through this API).
    pub fn rebuild(&mut self) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        loop {
            if self.healing.rebuild_task.is_none() {
                let failed: Vec<usize> = self.healing.failed.iter().copied().collect();
                if failed.is_empty() {
                    return Ok(self.pipeline.end_op());
                }
                if failed.len() > 2 {
                    return Err(VolumeError::TooManyFailures { failed: failed.len() });
                }
                self.start_rebuild(failed)?;
            }
            self.rebuild_stripes(usize::MAX)?;
        }
    }

    /// Drives the background healer: starts a spare-consuming rebuild if
    /// one is warranted and none is active, then rebuilds up to `budget`
    /// stripes of the active task, one retried step per stripe; a task
    /// that finishes within the budget does not start the next. Call
    /// repeatedly (e.g. between foreground operations) to amortize rebuild
    /// I/O. Returns the step's receipt — empty when there is nothing to do.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on backend errors or unsurvivable failures.
    pub fn maintain(&mut self, budget: usize) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        if self.healing.rebuild_task.is_none() && !self.healing.failed.is_empty() && self.healing.spares > 0 {
            self.start_spare_rebuild()?;
        }
        self.rebuild_stripes(budget)?;
        Ok(self.pipeline.end_op())
    }

    /// Starts a background rebuild for as many failed disks as the spare
    /// pool covers, consuming the spares. No-op if the pool is empty or
    /// nothing is failed.
    pub(super) fn start_spare_rebuild(&mut self) -> Result<(), VolumeError> {
        let failed: Vec<usize> = self.healing.failed.iter().copied().collect();
        let take = self.healing.spares.min(failed.len());
        if take == 0 || self.healing.rebuild_task.is_some() {
            return Ok(());
        }
        let chosen = failed[..take].to_vec();
        self.healing.spares -= take;
        if let Err(e) = self.start_rebuild(chosen) {
            self.healing.spares += take;
            return Err(e);
        }
        Ok(())
    }

    /// Registers a rebuild task for `disks`: the checkpoint is persisted
    /// *before* the spares are swapped in, so a crash between the two
    /// steps is detected on reopen (the checkpointed disk is still
    /// backend-failed) and the swap replayed. Either way the checkpoint
    /// says stripe 0, so nothing on a spare is trusted before the rebuild
    /// has rewritten it.
    fn start_rebuild(&mut self, disks: Vec<usize>) -> Result<(), VolumeError> {
        let cp = RebuildCheckpoint { disks, next_stripe: 0 };
        self.pipeline.backend_mut().save_checkpoint(Some(&cp))?;
        self.swap_in_spares(&cp.disks)?;
        for &d in &cp.disks {
            self.healing.health.note_replaced(d);
        }
        self.healing.rebuild_task = Some(cp);
        Ok(())
    }

    /// Rebuilds up to `budget` stripes of the active task, if any, one
    /// [`Self::rebuild_next_stripe`] step each.
    fn rebuild_stripes(&mut self, budget: usize) -> Result<(), VolumeError> {
        for _ in 0..budget {
            if self.healing.rebuild_task.is_none() {
                break;
            }
            self.with_recovery(Self::rebuild_next_stripe)?;
        }
        Ok(())
    }

    /// Rebuilds the active task's next stripe, persists the advanced
    /// checkpoint, and finishes the task (failed set, checkpoint, health)
    /// when that was its last stripe. The task is read afresh on every
    /// attempt: recovering from a failed one can reset it — a spare that
    /// died restarts at stripe 0 — and advancing from a stale frontier
    /// would mark stripes rebuilt that never were.
    fn rebuild_next_stripe(&mut self) -> Result<(), VolumeError> {
        let Some(task) = &self.healing.rebuild_task else { return Ok(()) };
        let idx = task.next_stripe;
        if idx < self.shape.stripes {
            let disks = task.disks.clone();
            self.rebuild_one_stripe(idx, &disks)?;
            let task = self.healing.rebuild_task.insert(RebuildCheckpoint { disks, next_stripe: idx + 1 });
            self.pipeline.backend_mut().save_checkpoint(Some(task))?;
        }
        if idx + 1 >= self.shape.stripes {
            self.finish_rebuild()?;
        }
        Ok(())
    }

    /// The active task's disks hold valid data now: drop them from the
    /// failed set, clear the persisted checkpoint, update health.
    fn finish_rebuild(&mut self) -> Result<(), VolumeError> {
        let Some(task) = self.healing.rebuild_task.take() else { return Ok(()) };
        for d in &task.disks {
            self.healing.failed.remove(d);
        }
        self.pipeline.backend_mut().save_checkpoint(None)?;
        self.note_health();
        Ok(())
    }

    /// Rebuilds one stripe's worth of the task disks: decode over *all*
    /// failed columns (a second dead disk that is not being rebuilt still
    /// shapes the decode), write back only the task disks' columns. A
    /// single failed column uses the paper's hybrid minimum-read recovery
    /// plan; two use the generic decoder — both the layout's cached
    /// program, so a stripe plans nothing. The op stores only cells it
    /// reconstructs, so it runs in place: each lost cell is computed in
    /// the spare that stores it, and the survivors it reads stay where the
    /// backend lends them.
    fn rebuild_one_stripe(&mut self, idx: usize, task_disks: &[usize]) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let write_cols: BTreeSet<usize> =
            task_disks.iter().map(|&d| self.shape.addressing.logical_col(idx, d)).collect();
        let write_back: Vec<Cell> =
            write_cols.iter().flat_map(|&col| layout.cells_in_col(col)).collect();
        let failed_cols = self.failed_cols(idx);
        let addr = self.addr_fn(idx);
        let op = if let [col] = failed_cols[..] {
            lower::recover_column_op(layout, col, &write_back, &addr)
        } else {
            lower::decode_op(layout, &failed_cols, &[], &write_back, &addr)
                .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?
        };
        self.pipeline.execute_in_place(&op)?;
        Ok(())
    }

    /// Swaps spares in for the given disks (backend `replace`) so the
    /// rebuild can stream writes to them. What a spare holds is
    /// unspecified: every stripe at or past the rebuild frontier treats
    /// its disk as failed, so nothing reads it before the rebuild has
    /// written it.
    fn swap_in_spares(&mut self, disks: &[usize]) -> Result<(), VolumeError> {
        for &d in disks {
            self.pipeline.backend_mut().replace(d)?;
        }
        Ok(())
    }

    /// Verifies every stripe's parity consistency through unaccounted
    /// maintenance reads. A degraded array never verifies.
    pub fn verify_all(&mut self) -> bool {
        if !self.healing.failed.is_empty() {
            return false;
        }
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        for idx in 0..self.shape.stripes {
            match self.load_stripe_unaccounted(idx) {
                Ok(s) => {
                    if s.verify(layout).is_some() {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads one whole stripe directly from the backend without touching
    /// the ledger or the op's disk time (maintenance traffic).
    fn load_stripe_unaccounted(&mut self, idx: usize) -> Result<Stripe, DiskError> {
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let mut s = Stripe::for_layout(layout, self.shape.element_size);
        for row in 0..layout.rows() {
            for col in 0..layout.cols() {
                let cell = Cell::new(row, col);
                let a = self.addr_of(idx, cell);
                self.pipeline.backend_mut().read(a.disk, a.index, s.element_mut(cell))?;
            }
        }
        Ok(s)
    }

    /// Scrubs every stripe through the pipeline: all elements are fetched
    /// (accounted reads), silently corrupted elements are localized from
    /// the pattern of violated parity chains (see [`raid_core::scrub`]),
    /// and repairs are written back. Requires a healthy array — scrubbing
    /// a degraded volume cannot distinguish corruption from loss.
    ///
    /// Returns one report per stripe that was *not* clean. Each stripe is
    /// one step of the volume's retry loop: a fault retries that stripe
    /// alone, so what the stripes before it found and repaired stays on
    /// the report.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError::TooManyFailures`] if any disk is failed.
    pub fn scrub(&mut self) -> Result<Vec<(usize, ScrubReport)>, VolumeError> {
        self.pipeline.begin_op();
        let mut findings = Vec::new();
        for idx in 0..self.shape.stripes {
            let report = self.with_recovery(|v| v.scrub_stripe(idx))?;
            if report != ScrubReport::Clean {
                findings.push((idx, report));
            }
        }
        self.pipeline.end_op();
        Ok(findings)
    }

    /// Scrubs one stripe: fetches every element, localizes a corrupted
    /// one and writes the repair back.
    fn scrub_stripe(&mut self, idx: usize) -> Result<ScrubReport, VolumeError> {
        // Checked per attempt: recovery may have degraded the array, and
        // scrubbing a degraded volume cannot tell corruption from loss.
        if !self.healing.failed.is_empty() {
            return Err(VolumeError::TooManyFailures { failed: self.healing.failed.len() });
        }
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let addr = self.addr_fn(idx);
        let mut scratch = Stripe::for_layout(layout, self.shape.element_size);
        self.pipeline.execute(&lower::whole_stripe_read_op(layout, &addr), &mut scratch)?;
        let report = raid_core::scrub::scrub(&mut scratch, layout);
        if let ScrubReport::Repaired { cell } = report {
            self.pipeline.execute(&lower::cell_write_op(layout, cell, &addr), &mut scratch)?;
        }
        Ok(report)
    }

    /// Corrupts one byte of an element — test/chaos-engineering hook used
    /// by the scrub example and the failure-injection tests. Bypasses the
    /// pipeline (corruption is not I/O the controller issued).
    ///
    /// # Errors
    ///
    /// [`VolumeError::NoSuchCell`] if the stripe index or cell is out of
    /// range, [`VolumeError::Backend`] if the target disk cannot serve the
    /// tampering; the element is unchanged in either case.
    pub fn inject_corruption(
        &mut self,
        stripe: usize,
        cell: Cell,
        byte: usize,
    ) -> Result<(), VolumeError> {
        let layout = self.shape.code.layout();
        if stripe >= self.shape.stripes || cell.row >= layout.rows() || cell.col >= layout.cols() {
            return Err(VolumeError::NoSuchCell { stripe, cell });
        }
        // Tampering changes the disks behind the cache's back: a clean
        // cached copy of the cell no longer matches and must be dropped
        // (a dirty copy still supersedes the disks and stays).
        if let Some(cache) = &mut self.cache {
            let ord = self.shape.code.layout().data_cells().iter().position(|&c| c == cell);
            if let (Some(ord), Some(entry)) = (ord, cache.take(stripe)) {
                let mut entry = entry;
                entry.invalidate_clean(ord);
                cache.put_back(stripe, entry);
            }
        }
        let a = self.addr_of(stripe, cell);
        let mut buf = vec![0u8; self.shape.element_size];
        self.pipeline.backend_mut().read(a.disk, a.index, &mut buf)?;
        let at = byte % buf.len();
        buf[at] ^= 0x80;
        self.pipeline.backend_mut().write(a.disk, a.index, &buf)?;
        Ok(())
    }
}
