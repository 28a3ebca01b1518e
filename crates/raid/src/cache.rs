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
//!
//! An entry is sized to what it holds, not to the stripe: one slot per
//! data ordinal, allocated by the first write or read-through fill of
//! that ordinal as a copy of the source bytes and overwritten in place
//! afterwards. A small-write workload touches 1–4 of a stripe's 120
//! elements (HV, p = 13) between creation and eviction, so a dense entry
//! spent 480 KiB of `calloc` to keep 4–16 KiB. There is no buffer pool:
//! an element-sized `malloc` is cheap, it was the stripe-sized memset
//! that was not. Nor is a slot copied to be flushed: the store lends each
//! dirty slot, and each clean one it uses in place of a disk read, to its
//! scratch as the very cell the bytes would have been copied into, and
//! gives every one back before it returns — an error included — so a
//! retry finds the entry whole. The budget stays a count of stripes — the
//! worst case (every slot held) is the dense entry's size.

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
/// per-element dirtiness. Holding a slot *is* presence.
#[derive(Debug, Clone)]
pub(crate) struct StripeEntry {
    stripe: usize,
    element_size: usize,
    /// One slot per data ordinal, allocated by its first `write`/`fill`.
    slots: Vec<Option<Box<[u8]>>>,
    dirty: Vec<bool>,
    /// How many `dirty` bits are set.
    dirty_elems: usize,
}

impl StripeEntry {
    fn new(stripe: usize, per_stripe: usize, element_size: usize) -> Self {
        StripeEntry {
            stripe,
            element_size,
            slots: vec![None; per_stripe],
            dirty: vec![false; per_stripe],
            dirty_elems: 0,
        }
    }

    /// The cached bytes of data ordinal `ord`.
    ///
    /// # Panics
    ///
    /// Panics if the entry holds no copy of `ord`.
    pub(crate) fn element(&self, ord: usize) -> &[u8] {
        match &self.slots[ord] {
            Some(bytes) => bytes,
            None => panic!("the cache holds no copy of stripe {} ordinal {ord}", self.stripe),
        }
    }

    /// True if the cache holds a copy of ordinal `ord` (dirty or clean).
    pub(crate) fn is_present(&self, ord: usize) -> bool {
        self.slots[ord].is_some()
    }

    /// True if the cached copy of `ord` matches the disks (present and
    /// not dirty) — safe to substitute for a disk read.
    pub(crate) fn is_clean(&self, ord: usize) -> bool {
        self.is_present(ord) && !self.dirty[ord]
    }

    /// Copies `bytes` into the slot of `ord`, allocating it on first use.
    fn store(&mut self, ord: usize, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.element_size, "element size mismatch at ordinal {ord}");
        match &mut self.slots[ord] {
            Some(slot) => slot.copy_from_slice(bytes),
            empty => *empty = Some(bytes.into()),
        }
    }

    /// Stores new bytes for `ord`, marking it present **and dirty**.
    pub(crate) fn write(&mut self, ord: usize, bytes: &[u8]) {
        self.store(ord, bytes);
        if !self.dirty[ord] {
            self.dirty[ord] = true;
            self.dirty_elems += 1;
        }
    }

    /// Stores bytes read from disk for `ord` (present, clean). A dirty
    /// copy is never downgraded — the cache is authoritative for it.
    pub(crate) fn fill(&mut self, ord: usize, bytes: &[u8]) {
        if !self.dirty[ord] {
            self.store(ord, bytes);
        }
    }

    /// Moves the slot of `ord` out, with no copy, for a store to run on;
    /// [`StripeEntry::give_back`] must return it before the entry is used
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if the entry holds no copy of `ord`.
    pub(crate) fn lend(&mut self, ord: usize) -> Vec<u8> {
        match self.slots[ord].take() {
            Some(bytes) => bytes.into_vec(),
            None => panic!("the cache holds no copy of stripe {} ordinal {ord}", self.stripe),
        }
    }

    /// Returns the slot [`StripeEntry::lend`] moved out of `ord`.
    pub(crate) fn give_back(&mut self, ord: usize, bytes: Vec<u8>) {
        debug_assert!(self.slots[ord].is_none(), "ordinal {ord} was not lent");
        self.slots[ord] = Some(bytes.into_boxed_slice());
    }

    /// Drops a clean cached copy of `ord` (out-of-band tampering hook).
    pub(crate) fn invalidate_clean(&mut self, ord: usize) {
        if !self.dirty[ord] {
            self.slots[ord] = None;
        }
    }

    /// The dirty data ordinals, ascending.
    pub(crate) fn dirty_ordinals(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|&o| self.dirty[o]).collect()
    }

    /// True if any element is dirty.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty_elems > 0
    }

    /// Marks every element clean (a successful flush: disks now match).
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(false);
        self.dirty_elems = 0;
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

    /// Held element slots over every resident stripe.
    pub(crate) fn resident_elements(&self) -> usize {
        self.entries.values().map(|e| e.slots.iter().flatten().count()).sum()
    }

    /// The entry for `stripe`, created empty if absent, promoted to
    /// most-recently-used either way.
    pub(crate) fn ensure(&mut self, stripe: usize) -> &mut StripeEntry {
        let (per, es) = (self.per_stripe, self.element_size);
        touch(&mut self.lru, stripe);
        self.entries.entry(stripe).or_insert_with(|| StripeEntry::new(stripe, per, es))
    }

    /// Moves a resident `stripe` to the most-recently-used position; a
    /// no-op for any other, so `lru` names exactly the resident stripes
    /// (a read promotes before it knows its miss will be served).
    pub(crate) fn promote(&mut self, stripe: usize) {
        if self.entries.contains_key(&stripe) {
            touch(&mut self.lru, stripe);
        }
    }

    /// Removes and returns the entry (e.g. to flush it without holding a
    /// borrow on the cache). Its LRU position stays reserved for
    /// [`StripeCache::put_back`], which must follow.
    pub(crate) fn take(&mut self, stripe: usize) -> Option<StripeEntry> {
        self.entries.remove(&stripe)
    }

    /// Reinserts an entry taken with [`StripeCache::take`], at the LRU
    /// position it kept.
    pub(crate) fn put_back(&mut self, stripe: usize, entry: StripeEntry) {
        assert!(self.lru.contains(&stripe), "put_back of stripe {stripe} without a take");
        self.entries.insert(stripe, entry);
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
        self.lru.first().copied()
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

/// Moves `stripe` to the most-recently-used end of `lru`.
fn touch(lru: &mut Vec<usize>, stripe: usize) {
    lru.retain(|&s| s != stripe);
    lru.push(stripe);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_tracks_presence_and_dirtiness() {
        let mut e = StripeEntry::new(0, 4, 8);
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

        // Overwriting a dirty element does not count it twice.
        e.write(1, &[8; 8]);
        e.write(3, &[4; 8]);
        assert_eq!((e.element(1), e.dirty_ordinals()), (&[8; 8][..], vec![1, 3]));

        e.mark_clean();
        assert!(!e.is_dirty() && e.is_clean(1));
        e.invalidate_clean(1);
        assert!(!e.is_present(1));
        e.write(3, &[5; 8]);
        e.invalidate_clean(3);
        assert!(e.is_present(3) && e.is_dirty(), "a dirty copy outlives tampering");
    }

    #[test]
    fn a_lent_slot_comes_back_as_the_same_allocation() {
        let mut e = StripeEntry::new(0, 4, 8);
        e.write(1, &[7; 8]);
        let lent = e.lend(1);
        let at = lent.as_ptr();
        assert!(!e.is_present(1) && e.is_dirty(), "lending moves the bytes, not the state");
        e.give_back(1, lent);
        assert_eq!((e.element(1).as_ptr(), e.element(1)), (at, &[7; 8][..]));
    }

    #[test]
    #[should_panic(expected = "no copy of stripe 9 ordinal 3")]
    fn lending_an_ordinal_the_entry_does_not_hold_panics() {
        StripeEntry::new(9, 4, 8).lend(3);
    }

    #[test]
    #[should_panic(expected = "no copy of stripe 9 ordinal 2")]
    fn element_of_an_ordinal_the_entry_does_not_hold_panics() {
        let mut e = StripeEntry::new(9, 4, 8);
        e.write(1, &[7; 8]);
        e.element(2);
    }

    #[test]
    #[should_panic(expected = "element size mismatch at ordinal 1")]
    fn first_write_of_the_wrong_size_is_rejected() {
        StripeEntry::new(0, 4, 8).write(1, &[7; 4]);
    }

    #[test]
    fn lru_names_exactly_the_resident_stripes() {
        fn agree(c: &StripeCache, after: &str) {
            let mut lru = c.lru.clone();
            lru.sort_unstable();
            assert_eq!(lru, c.entries.keys().copied().collect::<Vec<_>>(), "after {after}");
        }
        let mut c = StripeCache::new(CacheConfig::default(), 2, 4);
        // A read promotes before its miss is served; a miss that then
        // fails must leave no trace.
        c.promote(5);
        agree(&c, "promote of an absent stripe");
        assert_eq!(c.oldest(), None);
        c.ensure(5).fill(0, &[1; 4]);
        c.ensure(6).write(1, &[2; 4]);
        agree(&c, "ensure");
        assert_eq!(c.resident_elements(), 2);
        let taken = c.take(5).unwrap();
        c.put_back(5, taken);
        agree(&c, "take -> put_back");
        assert_eq!(c.oldest(), Some(5), "a round trip keeps the LRU position");
        c.remove(5);
        agree(&c, "remove");
        assert_eq!((c.oldest(), c.resident_elements()), (Some(6), 1));
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
