//! Partitioned stripe-range ownership with work-stealing execution.
//!
//! The volume is split into contiguous stripe ranges ([`Partition`]s),
//! each owned by one worker. Ownership buys two things the flat
//! chunks-of-a-slice executor could not offer:
//!
//! * **Sharded accounting** — every worker carries a private
//!   [`LedgerShard`] and never touches a shared counter; the caller
//!   aggregates afterwards with [`raid_core::io::IoLedger::merge_shards`],
//!   whose result is independent of worker completion order.
//! * **Routing** — cross-range operations (multi-stripe cache flushes,
//!   `rebuild_all`, scrub) are split at partition boundaries with
//!   [`PartitionMap::split_range`] and each piece goes to its owner, so
//!   a rebuild parked in range A never serializes writes in range B.
//!
//! Skewed ranges are handled by a work-stealing fallback: a worker that
//! drains its own partitions claims stripes from the slowest remaining
//! partition cursor instead of idling. Claims go through per-partition
//! atomic cursors plus a `Mutex<Option<&mut Stripe>>` slot per stripe —
//! each stripe is handed to exactly one worker with no `unsafe` (this
//! crate forbids it) and results land indexed by stripe, so output order
//! is deterministic regardless of who executed what.

use raid_core::io::LedgerShard;
use raid_core::Stripe;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Clamps a requested worker count to something sane for a batch of
/// `stripes` independent stripes spread over `partitions` owned ranges:
/// at least 1, at most one worker per stripe, and never more workers
/// than partitions — requesting 8 threads on a 4-partition volume gets
/// 4 workers, not 4 busy ones plus 4 idling.
fn effective_threads(requested: usize, stripes: usize, partitions: usize) -> usize {
    requested.max(1).min(stripes.max(1)).min(partitions.max(1))
}

/// One contiguous stripe range `[start, end)` owned by one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Position of this partition in the map (its shard index).
    pub index: usize,
    /// First stripe owned (inclusive).
    pub start: usize,
    /// One past the last stripe owned.
    pub end: usize,
}

impl Partition {
    /// The owned stripe range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of stripes owned.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the partition owns no stripes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if `stripe` falls inside this partition.
    pub fn contains(&self, stripe: usize) -> bool {
        (self.start..self.end).contains(&stripe)
    }
}

/// The stripe-range → owner map: contiguous, near-equal partitions
/// covering `0..stripes` exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    stripes: usize,
    parts: Vec<Partition>,
}

impl PartitionMap {
    /// Splits `stripes` stripes into `partitions` contiguous near-equal
    /// ranges. The partition count is clamped to `[1, max(stripes, 1)]`
    /// so no partition is ever empty (except the degenerate zero-stripe
    /// map, which keeps one empty partition for shape stability).
    pub fn build(stripes: usize, partitions: usize) -> Self {
        let count = partitions.clamp(1, stripes.max(1));
        let base = stripes / count;
        let extra = stripes % count;
        let mut parts = Vec::with_capacity(count);
        let mut start = 0;
        for index in 0..count {
            let len = base + usize::from(index < extra);
            parts.push(Partition { index, start, end: start + len });
            start += len;
        }
        debug_assert_eq!(start, stripes);
        PartitionMap { stripes, parts }
    }

    /// A map sized to the host: one partition per logical core, clamped
    /// to the stripe count. On a 1-core host this degenerates to a single
    /// partition, which in turn clamps every worker request down to 1.
    pub fn auto(stripes: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self::build(stripes, cores)
    }

    /// Total stripes covered.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if the map has no partitions (never — `build` keeps one).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partitions, ascending by range.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// The partition owning `stripe`.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is outside the map.
    pub fn owner_of(&self, stripe: usize) -> usize {
        // Checked against `stripes`, not `stripes.max(1)`: a zero-stripe
        // map owns nothing, and its single empty partition would send the
        // probe below out of bounds (an index panic instead of this
        // message).
        assert!(stripe < self.stripes, "stripe {stripe} outside partition map");
        // Near-equal ranges: the owner is within one step of the
        // proportional guess, so this probe is O(1).
        let mut guess = (stripe * self.parts.len() / self.stripes.max(1))
            .min(self.parts.len() - 1);
        while !self.parts[guess].contains(stripe) {
            if self.parts[guess].start > stripe {
                guess -= 1;
            } else {
                guess += 1;
            }
        }
        guess
    }

    /// Splits a stripe range at partition boundaries: the pieces, in
    /// ascending order, each tagged with its owning partition. Empty
    /// input yields no pieces.
    pub fn split_range(&self, range: Range<usize>) -> Vec<(usize, Range<usize>)> {
        let mut pieces = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let owner = self.owner_of(at);
            let piece_end = self.parts[owner].end.min(range.end);
            pieces.push((owner, at..piece_end));
            at = piece_end;
        }
        pieces
    }
}

/// Runs `work` over every stripe under partitioned ownership with up to
/// `threads` workers (clamped by stripe and partition count), returning
/// the per-stripe results **in stripe order** plus every worker's private
/// [`LedgerShard`] (pass them to [`raid_core::io::IoLedger::merge_shards`]).
///
/// Worker `w` first drains the partitions it owns (`p ≡ w mod threads`),
/// then steals from the remaining cursors, so a skewed range keeps every
/// worker busy. Which worker executes a stripe is timing-dependent; the
/// result vector and the merged shard totals are not, because results are
/// indexed by stripe and ledger merging is commutative.
///
/// With `threads <= 1` everything runs inline on the caller's thread in
/// stripe order — the serial path stays the serial path.
///
/// # Panics
///
/// Panics if `stripes.len()` does not match the map.
pub fn run_partitioned<T, F>(
    map: &PartitionMap,
    disks: usize,
    stripes: &mut [Stripe],
    threads: usize,
    work: F,
) -> (Vec<T>, Vec<LedgerShard>)
where
    T: Send,
    F: Fn(&mut LedgerShard, usize, &mut Stripe) -> T + Sync,
{
    assert_eq!(map.stripes(), stripes.len(), "partition map does not fit the batch");
    let threads = effective_threads(threads, stripes.len(), map.len());
    if threads <= 1 {
        let mut shard = LedgerShard::new(0, disks);
        let results = stripes
            .iter_mut()
            .enumerate()
            .map(|(i, s)| work(&mut shard, i, s))
            .collect();
        return (results, vec![shard]);
    }

    let cursors: Vec<AtomicUsize> =
        map.partitions().iter().map(|p| AtomicUsize::new(p.start)).collect();
    let slots: Vec<Mutex<Option<&mut Stripe>>> =
        stripes.iter_mut().map(|s| Mutex::new(Some(s))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let (work, cursors, slots, results) = (&work, &cursors, &slots, &results);

    let shards = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let mut shard = LedgerShard::new(w, disks);
                    // Own partitions first, then steal from the rest.
                    let owned = (0..map.len()).filter(|p| p % threads == w);
                    let stealable = (0..map.len()).filter(|p| p % threads != w);
                    for p in owned.chain(stealable) {
                        let end = map.partitions()[p].end;
                        loop {
                            // `Relaxed` is sufficient — and audited, see
                            // `raid_verify::schedules`. The invariant the
                            // cursor upholds is *ticket uniqueness*: a
                            // single atomic RMW hands each index to
                            // exactly one worker, which needs only the
                            // RMW's total order on this one cell, not any
                            // cross-variable ordering. No data is
                            // published through the cursor: the stripe
                            // hand-off (and its happens-before edge) goes
                            // through the `slots[i]` Mutex below, and
                            // shard results flow through `scope` join.
                            // Overshoot is bounded, not prevented: every
                            // worker that loses the race draws one ticket
                            // past `end` and leaves, so the cursor never
                            // exceeds `end + workers` (regression test
                            // `overshoot_is_bounded_under_steal_pressure`).
                            let i = cursors[p].fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            let stripe = slots[i]
                                .lock()
                                .expect("stripe slot poisoned")
                                .take()
                                .expect("stripe claimed twice");
                            let out = work(&mut shard, i, stripe);
                            *results[i].lock().expect("result slot poisoned") = Some(out);
                        }
                    }
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition worker panicked"))
            .collect::<Vec<LedgerShard>>()
    });

    let collected = results
        .iter()
        .map(|m| {
            m.lock().expect("result slot poisoned").take().expect("stripe never executed")
        })
        .collect();
    (collected, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raid_core::io::IoLedger;
    use raid_core::ArrayCode;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(0, 10, 10), 1);
        assert_eq!(effective_threads(4, 2, 4), 2);
        assert_eq!(effective_threads(4, 0, 4), 1);
        // More threads than partitions must not spawn idle workers.
        assert_eq!(effective_threads(8, 100, 4), 4);
        // A 1-core host builds 1-partition maps: any request collapses
        // to the inline serial path, spawning nothing.
        assert_eq!(effective_threads(8, 100, 1), 1);
        assert_eq!(effective_threads(usize::MAX, 100, 1), 1);
    }

    #[test]
    fn build_covers_every_stripe_once() {
        for (stripes, parts) in [(10, 3), (7, 7), (5, 8), (1, 4), (16, 4)] {
            let map = PartitionMap::build(stripes, parts);
            assert_eq!(map.stripes(), stripes);
            assert!(map.len() <= stripes.max(1));
            let mut covered = 0;
            for (i, p) in map.partitions().iter().enumerate() {
                assert_eq!(p.index, i);
                assert_eq!(p.start, covered);
                assert!(!p.is_empty(), "empty partition in {stripes}x{parts}");
                covered = p.end;
            }
            assert_eq!(covered, stripes);
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = map.partitions().iter().map(Partition::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn owner_of_agrees_with_ranges() {
        let map = PartitionMap::build(11, 4);
        for stripe in 0..11 {
            let owner = map.owner_of(stripe);
            assert!(map.partitions()[owner].contains(stripe));
        }
    }

    #[test]
    #[should_panic(expected = "outside partition map")]
    fn owner_of_rejects_out_of_range() {
        PartitionMap::build(4, 2).owner_of(4);
    }

    #[test]
    fn owner_of_at_exact_range_boundaries() {
        // 10 stripes / 3 partitions → [0,4) [4,7) [7,10): every boundary
        // stripe (last-of-range and first-of-next) must resolve to the
        // right side.
        let map = PartitionMap::build(10, 3);
        let ranges: Vec<_> = map.partitions().iter().map(Partition::range).collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        for (p, r) in ranges.iter().enumerate() {
            assert_eq!(map.owner_of(r.start), p, "first stripe of partition {p}");
            assert_eq!(map.owner_of(r.end - 1), p, "last stripe of partition {p}");
        }
    }

    #[test]
    fn build_with_non_divisible_stripe_counts() {
        // Remainder stripes go to the leading partitions, one each.
        for (stripes, parts) in [(10usize, 4usize), (7, 3), (11, 5), (13, 6)] {
            let map = PartitionMap::build(stripes, parts);
            let sizes: Vec<usize> = map.partitions().iter().map(Partition::len).collect();
            assert_eq!(sizes.iter().sum::<usize>(), stripes);
            let extra = stripes % parts;
            for (i, &s) in sizes.iter().enumerate() {
                let want = stripes / parts + usize::from(i < extra);
                assert_eq!(s, want, "{stripes}x{parts} partition {i}");
            }
            for stripe in 0..stripes {
                assert!(map.partitions()[map.owner_of(stripe)].contains(stripe));
            }
        }
    }

    #[test]
    fn single_stripe_map_degenerates_to_one_partition() {
        for requested in [1usize, 2, 17] {
            let map = PartitionMap::build(1, requested);
            assert_eq!(map.len(), 1);
            assert_eq!(map.partitions()[0].range(), 0..1);
            assert_eq!(map.owner_of(0), 0);
            assert_eq!(map.split_range(0..1), vec![(0, 0..1)]);
        }
    }

    #[test]
    fn zero_stripe_map_keeps_shape_and_owns_nothing() {
        let map = PartitionMap::build(0, 4);
        assert_eq!(map.stripes(), 0);
        assert_eq!(map.len(), 1, "one empty partition for shape stability");
        assert!(map.partitions()[0].is_empty());
        assert!(map.split_range(0..0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside partition map")]
    fn zero_stripe_map_rejects_owner_of_zero() {
        // Regression: this used to trip an index-out-of-bounds panic in
        // the probe loop instead of the intended assertion message.
        PartitionMap::build(0, 2).owner_of(0);
    }

    #[test]
    fn auto_covers_every_stripe_for_awkward_counts() {
        for stripes in [0usize, 1, 2, 5, 7, 9, 13] {
            let map = PartitionMap::auto(stripes);
            assert_eq!(map.stripes(), stripes);
            assert!(map.len() <= stripes.max(1));
            let mut covered = 0;
            for p in map.partitions() {
                assert_eq!(p.start, covered);
                covered = p.end;
            }
            assert_eq!(covered, stripes);
        }
    }

    /// Regression for cursor overshoot: many stealers racing one small
    /// partition each draw at most one ticket past `range.end`, so the
    /// shared cursor never exceeds `end + stealers` — and every stripe is
    /// still claimed exactly once.
    #[test]
    fn overshoot_is_bounded_under_steal_pressure() {
        for stealers in [2usize, 4, 8] {
            let end = 3usize;
            let cursor = AtomicUsize::new(0);
            let claimed: Vec<AtomicUsize> = (0..end).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for _ in 0..stealers {
                    s.spawn(|| loop {
                        // The exact claim protocol of `run_partitioned`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        claimed[i].fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let final_cursor = cursor.load(Ordering::Relaxed);
            assert!(
                (end + 1..=end + stealers).contains(&final_cursor),
                "{stealers} stealers left cursor at {final_cursor}"
            );
            for (i, c) in claimed.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "stripe {i} claim count");
            }
        }
    }

    #[test]
    fn run_partitioned_survives_overshooting_workers() {
        // More workers than stripes in every partition: every worker
        // overshoots every cursor it touches, and each stripe must still
        // execute exactly once with its result in place.
        let code = hv_code::HvCode::new(5).unwrap();
        let mut stripes: Vec<Stripe> =
            (0..3).map(|_| Stripe::for_layout(code.layout(), 8)).collect();
        let map = PartitionMap::build(stripes.len(), 3);
        let executed: Vec<AtomicUsize> =
            (0..stripes.len()).map(|_| AtomicUsize::new(0)).collect();
        let (results, shards) =
            run_partitioned(&map, 1, &mut stripes, 8, |shard, i, _stripe| {
                executed[i].fetch_add(1, Ordering::Relaxed);
                shard.add_reads(0, 1);
                i
            });
        assert_eq!(results, vec![0, 1, 2]);
        for (i, e) in executed.iter().enumerate() {
            assert_eq!(e.load(Ordering::Relaxed), 1, "stripe {i} executed more than once");
        }
        assert_eq!(IoLedger::merge_shards(1, shards).total_reads(), 3);
    }

    #[test]
    fn split_range_cuts_at_boundaries() {
        let map = PartitionMap::build(12, 3); // [0,4) [4,8) [8,12)
        assert_eq!(map.split_range(0..12), vec![(0, 0..4), (1, 4..8), (2, 8..12)]);
        assert_eq!(map.split_range(3..5), vec![(0, 3..4), (1, 4..5)]);
        assert_eq!(map.split_range(5..7), vec![(1, 5..7)]);
        assert!(map.split_range(6..6).is_empty());
    }

    #[test]
    fn run_partitioned_returns_results_in_stripe_order() {
        let code = hv_code::HvCode::new(7).unwrap();
        let layout = code.layout();
        let mut stripes: Vec<Stripe> = (0..9)
            .map(|i| {
                let mut s = Stripe::for_layout(layout, 16);
                s.fill_data_seeded(layout, i as u64);
                s
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let map = PartitionMap::build(stripes.len(), 4);
            let (results, shards) =
                run_partitioned(&map, 3, &mut stripes, threads, |shard, i, _stripe| {
                    shard.add_reads(i % 3, 1);
                    i * 10
                });
            assert_eq!(results, (0..9).map(|i| i * 10).collect::<Vec<_>>());
            let merged = IoLedger::merge_shards(3, shards);
            assert_eq!(merged.total_reads(), 9);
            assert_eq!(merged.reads(), [3, 3, 3]);
        }
    }

    #[test]
    fn work_stealing_covers_skewed_maps() {
        // One partition holds almost everything; stealing must still
        // visit every stripe exactly once.
        let mut stripes: Vec<Stripe> = (0..32)
            .map(|_| Stripe::for_layout(hv_code::HvCode::new(5).unwrap().layout(), 8))
            .collect();
        let map = PartitionMap::build(stripes.len(), 2);
        let hits = AtomicUsize::new(0);
        let (results, shards) =
            run_partitioned(&map, 1, &mut stripes, 2, |shard, i, _stripe| {
                hits.fetch_add(1, Ordering::Relaxed);
                shard.add_reads(0, 1);
                i
            });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        assert_eq!(IoLedger::merge_shards(1, shards).total_reads(), 32);
    }
}
