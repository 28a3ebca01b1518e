//! The volume's data path: read, write, flush and the stripe-cache
//! policy, each stripe stored or fetched as one pipeline op.

use std::ops::Range;

use raid_core::Stripe;

use crate::cache::{CacheConfig, StripeEntry};

use super::*;

/// What a stripe store writes — the new bytes of its dirty ordinals —
/// and, from a cache entry, the clean old values it may use in place of
/// disk reads. [`RaidVolume::store_stripe`] lends each to its op where it
/// lives: the caller's buffer or the entry's slot.
#[derive(Clone, Copy)]
enum Dirty<'a> {
    /// An uncached write: the stripe's elements from ordinal `start` on.
    Caller { start: usize, bytes: &'a [u8], element_size: usize },
    /// A flush: the cache entry's dirty slots, its clean ones offered.
    Cache(&'a StripeEntry),
}

impl<'a> Dirty<'a> {
    /// The dirty ordinals, ascending.
    fn ordinals(&self) -> Vec<usize> {
        match self {
            Dirty::Caller { start, bytes, element_size } => {
                (*start..start + bytes.len() / element_size).collect()
            }
            Dirty::Cache(entry) => entry.dirty_ordinals(),
        }
    }

    /// True if the old value of `ord` is held clean — a disk read saved.
    fn is_clean(&self, ord: usize) -> bool {
        matches!(self, Dirty::Cache(entry) if entry.is_clean(ord))
    }

    /// The bytes of `ord`: new if it is dirty, old if it is clean.
    fn element(&self, ord: usize) -> &'a [u8] {
        match *self {
            Dirty::Caller { start, bytes, element_size } => {
                &bytes[(ord - start) * element_size..][..element_size]
            }
            Dirty::Cache(entry) => entry.element(ord),
        }
    }
}

impl RaidVolume {
    /// Enables the write-back stripe cache. Subsequent writes are
    /// absorbed in memory and flushed coalesced per stripe (see
    /// [`CacheConfig`] for the policy knobs); reads become read-through
    /// cached. Call [`RaidVolume::flush`] for an explicit write barrier —
    /// dropping the volume flushes best-effort.
    ///
    /// # Panics
    ///
    /// Panics if a cache is already enabled.
    pub fn enable_cache(&mut self, cfg: CacheConfig) {
        assert!(self.cache.is_none(), "cache already enabled");
        self.cache =
            Some(StripeCache::new(cfg, self.shape.addressing.data_per_stripe(), self.shape.element_size));
    }

    /// Flushes and removes the stripe cache, returning the flush's
    /// receipt.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if the final flush cannot be served; the
    /// cache stays enabled with its dirty data intact.
    pub fn disable_cache(&mut self) -> Result<IoLedger, VolumeError> {
        let flushed = self.flush()?;
        self.cache = None;
        Ok(flushed)
    }

    /// Writes `len` data elements starting at linear element `start`.
    ///
    /// Each touched stripe goes through `store_stripe`, straight
    /// from `data` (or, with the cache on, is absorbed and stored at flush
    /// time by the same lowering). A disk failing mid-write is rolled back
    /// by the pipeline and the stripe it was storing replans degraded;
    /// stripes already stored are not stored again.
    ///
    /// Returns the operation's receipt: the I/O and cache events it
    /// caused, flushes, retries and repairs included.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on range/length mismatches, or if more
    /// disks fail than the code tolerates.
    pub fn write(&mut self, start: usize, data: &[u8]) -> Result<IoLedger, VolumeError> {
        let len = data.len() / self.shape.element_size.max(1);
        if data.len() != len * self.shape.element_size || data.is_empty() {
            return Err(VolumeError::BadBufferLength {
                expected: len.max(1) * self.shape.element_size,
                got: data.len(),
            });
        }
        self.check_range(start, len)?;
        if self.write_fenced() {
            return Err(VolumeError::SpareExhausted { failed: self.healing.failed.len(), spares: 0 });
        }
        self.pipeline.begin_op();
        match self.with_cache(|v, cache| v.write_cached(cache, start, len, data)) {
            Some(cached) => cached?,
            None => {
                let es = self.shape.element_size;
                let mut rest = data;
                for seg in self.shape.addressing.split(start, len) {
                    let (bytes, tail) = rest.split_at(seg.len * es);
                    rest = tail;
                    let dirty = Dirty::Caller { start: seg.start, bytes, element_size: es };
                    self.with_recovery(|v| v.store_stripe(seg.stripe, dirty))?;
                }
            }
        }
        Ok(self.pipeline.end_op())
    }

    /// Runs `f` with the stripe cache moved out of the volume and lent to
    /// it, and moves it back when `f` returns; `None` without a cache. The
    /// one way the cache is borrowed beside the volume: while `f` runs,
    /// `self.cache` is empty, and nothing a cached write or flush reaches —
    /// the store, the recovery policy, the rebuild kickoff — consults it.
    fn with_cache<T>(&mut self, f: impl FnOnce(&mut Self, &mut StripeCache) -> T) -> Option<T> {
        let mut cache = self.cache.take()?;
        let out = f(self, &mut cache);
        self.cache = Some(cache);
        Some(out)
    }

    /// Stores the `dirty` elements of one stripe — the one store path
    /// behind both [`RaidVolume::write`] and the cache flush. On a healthy
    /// array it is a single journal-atomic op: the cheaper of
    /// read-modify-write and reconstruct-write, or a read-free full-stripe
    /// write, over a double-height scratch (old values below, new above);
    /// old values `dirty` holds clean are its fills (cache hits) instead
    /// of reads.
    ///
    /// The scratch holds only the cells the op computes — the parities it
    /// rewrites. The new bytes of the dirty ordinals and the clean old
    /// values (the caller's buffer, the cache entry's slots) are lent to
    /// the op where they are, and the backend lends the reads; the op
    /// only reads them: the lowering never lands a read in, or targets a
    /// plan step at, a dirty or fill cell.
    ///
    /// Otherwise: decode the stripe from its survivors onto a dense
    /// scratch, patch, re-encode, rewrite the surviving columns in one op.
    fn store_stripe(&mut self, stripe: usize, dirty: Dirty<'_>) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let addr = self.addr_fn(stripe);
        let ordinals = dirty.ordinals();

        if self.healing.failed.is_empty() {
            let lower::StripeWrite { op, fills } =
                lower::stripe_write_op(layout, &ordinals, |ord| dirty.is_clean(ord), &addr);
            let written =
                ordinals.iter().zip(&op.data_writes).map(|(&ord, &(cell, _))| (ord, cell));
            let lent: Vec<(Cell, &[u8])> = written
                .chain(fills.iter().copied())
                .map(|(ord, cell)| (cell, dirty.element(ord)))
                .collect();
            let (rows, cols) = (2 * layout.rows(), layout.cols());
            let mut scratch = Stripe::sparse(rows, cols, self.shape.element_size, op.computed());
            self.pipeline.execute_lent(&op, &mut scratch, &lent)?;
            self.pipeline.note(|ledger| ledger.note_cache_hits(fills.len() as u64));
            return Ok(());
        }

        // Any failed disk sends every stripe down this path, also the
        // ones a rebuild in progress has already passed (their
        // `failed_cols` is empty: read all, decode nothing, re-encode).
        let failed_cols = self.failed_cols(stripe);
        let fetch = lower::decode_op(layout, &failed_cols, &[], &[], &addr)
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        let mut scratch = Stripe::for_layout(layout, self.shape.element_size);
        self.pipeline.execute(&fetch, &mut scratch)?;
        let cells: Vec<Cell> = ordinals.iter().map(|&ord| layout.data_cells()[ord]).collect();
        for (&cell, &ord) in cells.iter().zip(&ordinals) {
            scratch.set_element(cell, dirty.element(ord));
        }
        let store = lower::encode_store_op(layout, &failed_cols, &cells, &addr);
        self.pipeline.execute(&store, &mut scratch)?;
        Ok(())
    }

    /// Absorbs a write into the stripe cache (no disk I/O), then enforces
    /// the flush policy: flush LRU dirty stripes down to the high-water
    /// mark, then evict down to the memory budget.
    fn write_cached(
        &mut self,
        cache: &mut StripeCache,
        start: usize,
        len: usize,
        data: &[u8],
    ) -> Result<(), VolumeError> {
        let es = self.shape.element_size;
        let mut rest = data;
        for seg in self.shape.addressing.split(start, len) {
            let (bytes, tail) = rest.split_at(seg.len * es);
            rest = tail;
            let entry = cache.ensure(seg.stripe);
            for (ord, element) in (seg.start..).zip(bytes.chunks_exact(es)) {
                entry.write(ord, element);
            }
        }

        let high_water = cache.config().dirty_high_water;
        while cache.dirty_count() > high_water {
            let Some(stripe) = cache.oldest_dirty() else { break };
            self.flush_stripe(cache, stripe)?;
        }
        self.enforce_cache_budget(cache)?;
        self.healing.health.note_op_ok();
        Ok(())
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// memory budget, preferring clean entries (free) and flushing dirty
    /// ones first when nothing clean is left.
    fn enforce_cache_budget(&mut self, cache: &mut StripeCache) -> Result<(), VolumeError> {
        let max_stripes = cache.config().max_stripes;
        while cache.len() > max_stripes {
            let Some(victim) = cache.oldest_clean().or_else(|| cache.oldest()) else { break };
            if cache.get(victim).is_some_and(StripeEntry::is_dirty) {
                self.flush_stripe(cache, victim)?;
            }
            cache.remove(victim);
            self.pipeline.note(IoLedger::note_cache_eviction);
        }
        Ok(())
    }

    /// Flushes every dirty stripe as one coalesced op each — the explicit
    /// write barrier (also run on drop). A no-op without a cache or dirty
    /// data. Flushed entries stay resident as clean read cache.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] if a flush cannot be served; the affected
    /// stripe's dirty data stays in the cache for a later retry.
    pub fn flush(&mut self) -> Result<IoLedger, VolumeError> {
        self.pipeline.begin_op();
        self.with_cache(|v, cache| {
            cache.dirty_stripes().into_iter().try_for_each(|stripe| v.flush_stripe(cache, stripe))
        })
        .unwrap_or(Ok(()))?;
        Ok(self.pipeline.end_op())
    }

    /// Flushes one stripe's dirty elements through `store_stripe`
    /// — every dirty element of the stripe in one coalesced store, so
    /// co-located elements share parity I/O, running on the entry's own
    /// slots — with the volume's standard retry/recovery policy. On
    /// success the entry is marked clean and stays resident; on error the
    /// dirty data is preserved in the cache.
    fn flush_stripe(&mut self, cache: &mut StripeCache, stripe: usize) -> Result<(), VolumeError> {
        let Some(mut entry) = cache.take(stripe) else { return Ok(()) };
        let mut result = Ok(());
        if entry.is_dirty() {
            result = self.with_recovery(|v| v.store_stripe(stripe, Dirty::Cache(&entry)));
            if result.is_ok() {
                entry.mark_clean();
                self.pipeline.note(IoLedger::note_cache_flush);
            }
        }
        cache.put_back(stripe, entry);
        result
    }

    /// Reads `len` data elements starting at `start`, serving through
    /// reconstruction when requested elements live on failed disks (the
    /// degraded read of the paper's Section V-B).
    ///
    /// With the stripe cache on, resident elements (dirty or clean) are
    /// served from memory as hits — dirty ones must be: the disks hold
    /// their pre-flush values — and each run of missing elements goes to
    /// the disks and populates the cache read-through as clean copies.
    /// Cache off is the same loop with nothing resident and nothing
    /// populated: every stripe segment is one missing run.
    ///
    /// Returns the bytes and the operation's receipt, repairs of latent
    /// sectors it met included; `receipt.total_reads()` is the paper's
    /// `L'`.
    ///
    /// # Errors
    ///
    /// Returns [`VolumeError`] on bad ranges or unsurvivable failures.
    pub fn read(&mut self, start: usize, len: usize) -> Result<(Vec<u8>, IoLedger), VolumeError> {
        self.check_range(start, len)?;
        let es = self.shape.element_size;
        // Sized once; hits, plain fetches and reconstructed runs each fill
        // their own window of it, so a retried run overwrites, never appends.
        let mut out = vec![0u8; len * es];
        let mut rest = &mut out[..];
        self.pipeline.begin_op();
        let (mut hits, mut misses) = (0u64, 0u64);
        for seg in self.shape.addressing.split(start, len) {
            if let Some(cache) = &mut self.cache {
                cache.promote(seg.stripe);
            }
            let mut ord = seg.start;
            let end = seg.start + seg.len;
            while ord < end {
                if let Some(entry) = self.resident(seg.stripe, ord) {
                    let (window, tail) = rest.split_at_mut(es);
                    window.copy_from_slice(entry.element(ord));
                    rest = tail;
                    hits += 1;
                    ord += 1;
                    continue;
                }
                let run_start = ord;
                while ord < end && self.resident(seg.stripe, ord).is_none() {
                    ord += 1;
                }
                let (window, tail) = rest.split_at_mut((ord - run_start) * es);
                rest = tail;
                self.with_recovery(|v| v.read_run(seg.stripe, run_start..ord, window))?;
                if let Some(cache) = &mut self.cache {
                    misses += (ord - run_start) as u64;
                    let entry = cache.ensure(seg.stripe);
                    for (ord, bytes) in (run_start..ord).zip(window.chunks_exact(es)) {
                        entry.fill(ord, bytes);
                    }
                }
            }
        }
        if self.cache.is_some() {
            self.pipeline.note(|ledger| {
                ledger.note_cache_hits(hits);
                ledger.note_cache_misses(misses);
            });
            self.with_cache(Self::enforce_cache_budget).unwrap_or(Ok(()))?;
        }
        Ok((out, self.pipeline.end_op()))
    }

    /// The cache entry holding data ordinal `ord` of `stripe`, if resident.
    fn resident(&self, stripe: usize, ord: usize) -> Option<&StripeEntry> {
        self.cache.as_ref()?.get(stripe).filter(|e| e.is_present(ord))
    }

    /// One attempt at fetching data ordinals `run` of `stripe` from the
    /// disks as one (possibly degraded) read op into `out`, the run's
    /// window of the caller's buffer. A run that misses every failed
    /// column is a plain fetch and lands there directly; one that needs
    /// reconstruction runs on a scratch holding the cells it rebuilds, not
    /// the stripe, and each requested element is copied out once on
    /// success, from the scratch or from where the backend lent it. A
    /// failed attempt may leave some of the window written; the retry
    /// fills the same window again.
    fn read_run(
        &mut self,
        stripe: usize,
        run: Range<usize>,
        out: &mut [u8],
    ) -> Result<(), VolumeError> {
        let code = Arc::clone(&self.shape.code);
        let layout = code.layout();
        let requested = &layout.data_cells()[run];
        let failed_cols = self.failed_cols(stripe);
        let op = lower::read_op(layout, &failed_cols, requested, &self.addr_fn(stripe))
            .ok_or(VolumeError::TooManyFailures { failed: failed_cols.len() })?;
        if op.plan.is_none() {
            self.pipeline.fetch(&op, out)?;
            return Ok(());
        }
        let mut scratch =
            Stripe::sparse(layout.rows(), layout.cols(), self.shape.element_size, op.computed());
        self.pipeline.execute_into(&op, &mut scratch, requested, out)?;
        Ok(())
    }
}
