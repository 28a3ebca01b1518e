//! Write-back stripe cache: a dirty-stripe map between the volume and the
//! I/O pipeline.
//!
//! The cache absorbs element writes per stripe and defers the parity
//! update until flush time, when every dirty element of a stripe is
//! batched into **one** lowered operation (see
//! [`crate::lower::stripe_write_op`]). Co-located dirty
//! elements then share their parity reads and writes — the HV paper's
//! shared-parity structure turned into an I/O win — and the single
//! lowered op rides the pipeline's undo journal, so a coalesced flush is
//! atomic across crashes.
//!
//! The map itself is policy-free storage plus bookkeeping; the flush
//! policy (dirty high-water mark, LRU eviction under the memory budget,
//! explicit `flush()`/drop barrier) lives in
//! [`crate::volume::RaidVolume`], which owns the pipeline the flushes
//! must go through.

use std::collections::BTreeMap;

/// Write-back cache tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Memory budget: maximum stripes resident (dirty or clean). The
    /// least-recently-used entry is evicted beyond this.
    pub max_stripes: usize,
    /// Flush trigger: writing while more than this many stripes are dirty
    /// flushes the least-recently-used dirty stripes down to the mark.
    pub dirty_high_water: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_stripes: 64, dirty_high_water: 48 }
    }
}

/// One cached stripe: the data elements the cache has seen, with
/// per-element presence and dirtiness.
#[derive(Debug, Clone)]
pub(crate) struct StripeEntry {
    data: Vec<u8>,
    present: Vec<bool>,
    dirty: Vec<bool>,
    element_size: usize,
}

impl StripeEntry {
    fn new(per_stripe: usize, element_size: usize) -> Self {
        StripeEntry {
            data: vec![0; per_stripe * element_size],
            present: vec![false; per_stripe],
            dirty: vec![false; per_stripe],
            element_size,
        }
    }

    /// The cached bytes of data ordinal `ord` (valid only when present).
    pub(crate) fn element(&self, ord: usize) -> &[u8] {
        &self.data[ord * self.element_size..(ord + 1) * self.element_size]
    }

    /// True if the cache holds a copy of ordinal `ord` (dirty or clean).
    pub(crate) fn is_present(&self, ord: usize) -> bool {
        self.present[ord]
    }

    /// True if the cached copy of `ord` matches the disks (present and
    /// not dirty) — safe to substitute for a disk read.
    pub(crate) fn is_clean(&self, ord: usize) -> bool {
        self.present[ord] && !self.dirty[ord]
    }

    /// Stores new bytes for `ord`, marking it present **and dirty**.
    pub(crate) fn write(&mut self, ord: usize, bytes: &[u8]) {
        self.data[ord * self.element_size..(ord + 1) * self.element_size]
            .copy_from_slice(bytes);
        self.present[ord] = true;
        self.dirty[ord] = true;
    }

    /// Stores bytes read from disk for `ord` (present, clean). A dirty
    /// copy is never downgraded — the cache is authoritative for it.
    pub(crate) fn fill(&mut self, ord: usize, bytes: &[u8]) {
        if self.dirty[ord] {
            return;
        }
        self.data[ord * self.element_size..(ord + 1) * self.element_size]
            .copy_from_slice(bytes);
        self.present[ord] = true;
    }

    /// Drops a clean cached copy of `ord` (out-of-band tampering hook).
    pub(crate) fn invalidate_clean(&mut self, ord: usize) {
        if !self.dirty[ord] {
            self.present[ord] = false;
        }
    }

    /// The dirty data ordinals, ascending.
    pub(crate) fn dirty_ordinals(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|&o| self.dirty[o]).collect()
    }

    /// True if any element is dirty.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }

    /// Marks every element clean (a successful flush: disks now match).
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(false);
    }
}

/// The dirty-stripe map: cached [`StripeEntry`]s keyed by stripe index,
/// with LRU order tracked for the eviction policy.
pub(crate) struct StripeCache {
    cfg: CacheConfig,
    per_stripe: usize,
    element_size: usize,
    entries: BTreeMap<usize, StripeEntry>,
    /// Stripe indices, least-recently-used first.
    lru: Vec<usize>,
}

impl StripeCache {
    pub(crate) fn new(cfg: CacheConfig, per_stripe: usize, element_size: usize) -> Self {
        assert!(cfg.max_stripes > 0, "cache needs room for at least one stripe");
        StripeCache { cfg, per_stripe, element_size, entries: BTreeMap::new(), lru: Vec::new() }
    }

    pub(crate) fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Resident stripes (dirty or clean).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Resident stripes holding at least one dirty element.
    pub(crate) fn dirty_count(&self) -> usize {
        self.entries.values().filter(|e| e.is_dirty()).count()
    }

    pub(crate) fn get(&self, stripe: usize) -> Option<&StripeEntry> {
        self.entries.get(&stripe)
    }

    /// The entry for `stripe`, created empty if absent, promoted to
    /// most-recently-used either way.
    pub(crate) fn ensure(&mut self, stripe: usize) -> &mut StripeEntry {
        self.promote(stripe);
        let (per, es) = (self.per_stripe, self.element_size);
        self.entries.entry(stripe).or_insert_with(|| StripeEntry::new(per, es))
    }

    /// Moves `stripe` to the most-recently-used position.
    pub(crate) fn promote(&mut self, stripe: usize) {
        self.lru.retain(|&s| s != stripe);
        self.lru.push(stripe);
    }

    /// Removes and returns the entry (e.g. to flush it without holding a
    /// borrow on the cache).
    pub(crate) fn take(&mut self, stripe: usize) -> Option<StripeEntry> {
        self.entries.remove(&stripe)
    }

    /// Reinserts an entry taken with [`StripeCache::take`], keeping its
    /// LRU position.
    pub(crate) fn put_back(&mut self, stripe: usize, entry: StripeEntry) {
        self.entries.insert(stripe, entry);
        if !self.lru.contains(&stripe) {
            self.lru.push(stripe);
        }
    }

    /// Drops `stripe` entirely (eviction).
    pub(crate) fn remove(&mut self, stripe: usize) {
        self.entries.remove(&stripe);
        self.lru.retain(|&s| s != stripe);
    }

    /// The least-recently-used dirty stripe.
    pub(crate) fn oldest_dirty(&self) -> Option<usize> {
        self.lru
            .iter()
            .copied()
            .find(|s| self.entries.get(s).is_some_and(StripeEntry::is_dirty))
    }

    /// The least-recently-used fully-clean stripe (free to evict).
    pub(crate) fn oldest_clean(&self) -> Option<usize> {
        self.lru
            .iter()
            .copied()
            .find(|s| self.entries.get(s).is_some_and(|e| !e.is_dirty()))
    }

    /// The least-recently-used stripe of all.
    pub(crate) fn oldest(&self) -> Option<usize> {
        self.lru.iter().copied().find(|s| self.entries.contains_key(s))
    }

    /// Every stripe currently dirty, ascending.
    pub(crate) fn dirty_stripes(&self) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|(_, e)| e.is_dirty())
            .map(|(&s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_tracks_presence_and_dirtiness() {
        let mut e = StripeEntry::new(4, 8);
        assert!(!e.is_present(0) && !e.is_dirty());
        e.write(1, &[7; 8]);
        assert!(e.is_present(1) && !e.is_clean(1) && e.is_dirty());
        assert_eq!(e.element(1), &[7; 8]);
        assert_eq!(e.dirty_ordinals(), vec![1]);

        // A read-through fill never downgrades a dirty copy.
        e.fill(1, &[9; 8]);
        assert_eq!(e.element(1), &[7; 8]);
        e.fill(2, &[3; 8]);
        assert!(e.is_clean(2));

        e.mark_clean();
        assert!(!e.is_dirty() && e.is_clean(1));
        e.invalidate_clean(1);
        assert!(!e.is_present(1));
    }

    #[test]
    fn lru_order_and_policy_queries() {
        let mut c = StripeCache::new(CacheConfig::default(), 2, 4);
        c.ensure(0).write(0, &[1; 4]);
        c.ensure(1).write(0, &[2; 4]);
        c.ensure(2).fill(0, &[3; 4]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.oldest(), Some(0));
        assert_eq!(c.oldest_dirty(), Some(0));
        assert_eq!(c.oldest_clean(), Some(2));

        // Touching stripe 0 makes stripe 1 the oldest dirty.
        c.promote(0);
        assert_eq!(c.oldest_dirty(), Some(1));
        assert_eq!(c.dirty_stripes(), vec![0, 1]);

        let mut taken = c.take(1).unwrap();
        taken.mark_clean();
        c.put_back(1, taken);
        assert_eq!(c.dirty_count(), 1);
        c.remove(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.oldest_clean(), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_budget_rejected() {
        StripeCache::new(
            CacheConfig { max_stripes: 0, dirty_high_water: 0 },
            2,
            4,
        );
    }
}
