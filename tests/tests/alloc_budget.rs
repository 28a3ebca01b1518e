//! Allocation budgets of the healthy store path, counted not timed: a
//! stripe store allocates scratch for the cells its op computes
//! (`LoweredOp::computed`), not for the double-height grid; the bytes it
//! reads and writes are lent where they live — the backend's storage, the
//! caller's buffer, the cache entry's slots. The fixture is hvbench's —
//! HV Code p = 13, 4 KiB elements, `MemBackend` — where the grid is 288
//! buffers (1.2 MiB) and a single-element update computes 2.
//!
//! Of the cached path: a stripe-cache entry allocates the elements it is
//! given, not the stripe's 120 (480 KiB), so a cold write, a read miss
//! and an eviction-per-op trace cost the op's own bytes.
//!
//! Of what a store keeps of what it overwrites: on memory, nothing — it
//! checks its targets and copies each element once, with no pre-image.
//!
//! Of what a store zero-fills: only the cells its op computes. A flush
//! reads the cache entry's own dirty and clean-resident slots in place,
//! and an uncached write the caller's bytes. The counting allocator totals
//! the bytes requested through `alloc_zeroed` on their own, so a copy and
//! a zero-fill-then-copy do not count the same.
//!
//! Of the read side: a read that misses every failed column allocates
//! its output and lands the backend's bytes there, and one that must
//! reconstruct allocates the cells its plan rebuilds, not the stripe's
//! 144-buffer grid (576 KiB). A rebuild on memory allocates no cell for
//! what it writes back: each lost cell is computed in the spare's own
//! storage.
//!
//! And of the front door: parsing a `WRITE` line allocates its decoded
//! payload and nothing else of size, a `READ` reply renders into a warm
//! buffer without allocating, a `WRITE` through a handle copies nothing
//! of its payload, and one over a live connection allocates its decode.
//!
//! And of the structs a set-up allocates: `RaidVolume`, `IoPipeline` and
//! `Service` keep their sizes, which decide the allocator size class a
//! set-up lands in (see `the_set_up_structs_keep_their_sizes`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hv_code::HvCode;
use integration::{payload, ServedSocket};
use raid_array::{CacheConfig, IoPipeline, RaidVolume};
use raid_core::ArrayCode;
use raid_service::{proto, Service, ServiceConfig, TenantClass};

/// `System`, counting the calling thread's allocation calls, requested
/// bytes (a `realloc` counts as one call of its new size) and, of those,
/// the bytes requested zero-filled. Per thread, so threads the op does
/// not run on do not blur the counts.
struct Counting;

thread_local! {
    static CALLS_BYTES_ZEROED: Cell<(usize, usize, usize)> = const { Cell::new((0, 0, 0)) };
}

/// Requested bytes of every thread together, for the one test whose
/// subject — a server's connection thread — is not the calling thread.
static ALL_THREADS_BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize, zeroed: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = CALLS_BYTES_ZEROED.try_with(|c| {
        let (calls, requested, zero_filled) = c.get();
        c.set((calls + 1, requested + bytes, zero_filled + zeroed));
    });
    ALL_THREADS_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests here run one at a time, each holding this for its whole
/// body: `a_handle_write_…` counts every thread's allocations, and a
/// neighbour allocating beside all five of its goes blurred the count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(calls, bytes, zero-filled bytes)` this thread allocated while `op` ran.
fn counted(op: impl FnOnce()) -> (usize, usize, usize) {
    let before = CALLS_BYTES_ZEROED.get();
    op();
    let after = CALLS_BYTES_ZEROED.get();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

/// `(calls, bytes)` this thread allocated while `op` ran.
fn allocated(op: impl FnOnce()) -> (usize, usize) {
    let (calls, bytes, _) = counted(op);
    (calls, bytes)
}

const P: usize = 13;
const STRIPES: usize = 4;
const ELEMENT: usize = 4096;
/// A single-element store: at most this many calls and bytes. The scratch
/// is its two new parities (8 KiB) and its double-height slot table
/// (6.9 KiB). Around them: the op, lowered from the layout's write table
/// (its five vectors and one bitmap), the lent slices and the receipts —
/// 25 calls and 18 088 B in all, debug build, the pipeline's lent-cell
/// index (576 B) the first op's only. Planned per request, with a lent
/// table per op, it took 48 calls and 20 260 B; allocating the grid took
/// 330 calls and 1.2 MiB, the six-cell footprint 31 KiB.
///
/// | case (debug, bytes / calls)    | parent `f73630e` | change       |
/// |--------------------------------|------------------|--------------|
/// | single-element write           | 20 260 / 48      | 18 088 / 25  |
/// | flush of one dirty element     | 20 796 / 54      | 18 624 / 27  |
/// | (k) flush, 40 dirty + 40 clean | 110 668 / 95     | 93 540 / 50  |
/// | full-stripe write              | 156 460 / 83     | 137 156 / 50 |
///
/// Every row fails its budget on the parent.
const SMALL_OP: (usize, usize) = (32, 2 * ELEMENT + 11 * 1024);

fn volume() -> RaidVolume {
    volume_of(STRIPES)
}

/// A fresh volume of a fresh code, its layout's write table built: the
/// table is a fact of the layout, built once by its first write, and no op
/// counted here pays for it.
fn volume_of(stripes: usize) -> RaidVolume {
    let code = HvCode::new(P).unwrap();
    code.layout().write_table();
    RaidVolume::in_memory(Arc::new(code), stripes, ELEMENT)
}

#[test]
fn single_element_write_allocates_its_two_parities_not_the_grid() {
    let _alone = alone();
    let mut v = volume();
    let data = payload(ELEMENT, 1);
    let (calls, bytes) = allocated(|| drop(v.write(130, &data).unwrap()));
    assert!(calls <= SMALL_OP.0 && bytes <= SMALL_OP.1, "{calls} calls, {bytes} bytes");
    assert_eq!(v.read(130, 1).unwrap().0, data);
}

/// A full-stripe write allocates its 24 parities, not a copy of the
/// stripe, and keeps no pre-image of its 144 targets: the 120 data cells
/// are the caller's bytes, lent to the op where they are. The store tests
/// here run on a fresh volume with nothing warmed first (debug build,
/// bytes requested / allocator calls):
///
/// | case                                | parent `c3de3c8` | change        |
/// |-------------------------------------|------------------|---------------|
/// | full-stripe write                   | 640 820 / 199    | 156 460 / 83  |
/// | (k) flush, 40 dirty + 40 resident   | 267 340 / 129    | 110 668 / 95  |
/// | single-element write                | 35 020 / 46      | 20 260 / 48   |
/// | flush of one dirty element          | 31 460 / 51      | 20 796 / 54   |
///
/// The parent copied the caller's stripe into its scratch and read every
/// source into a zero-filled cell; all four fail their budgets there.
#[test]
fn full_stripe_write_allocates_its_parities_not_the_stripe() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 2);
    let (calls, bytes) = allocated(|| drop(v.write(per_stripe, &data).unwrap()));
    let parities = GRID / ELEMENT - per_stripe;
    let what = format!("{calls} calls, {bytes} bytes");
    assert!(bytes <= parities * ELEMENT + STRIPE_OP.1 && calls <= STRIPE_OP.0, "{what}");
    assert_eq!(v.read(per_stripe, per_stripe).unwrap().0, data);
}

/// What a whole-stripe store requests around its cells, in calls and
/// bytes: the lowered op (32 B per target), its plan, the lent slices
/// (16 B per lent cell), the write targets and the receipts.
const STRIPE_OP: (usize, usize) = (64, 40 * 1024);

/// What a store may zero-fill beyond the cells its op computes: the
/// lowering's bitmaps and the lent tables' cell maps (2 B per grid cell).
///
/// The store budgets (parent `c3de3c8`, every read landing in a
/// zero-filled cell and the caller's bytes copied into the scratch → this
/// layout, where only the computed parities are the scratch's and every
/// other cell is read where it lives; debug build, bytes requested / of
/// them zero-filled):
///
/// | case                                    | parent            | change            |
/// |-----------------------------------------|-------------------|-------------------|
/// | (k) flush: 40 dirty + 40 clean-resident | 267 340 / 231 232 | 110 668 / 68 800  |
/// | (l) uncached full-stripe write          | 640 820 / 99 592  | 156 460 / 100 992 |
///
/// (k) may request 16 elements + 30 KiB in at most 64 calls and zero-fill
/// 16 + `ZERO_FILL`: its 16 parities; its 40 reads are lent by the
/// backend. It fails on the parent (110 668 B in 95 calls, `f73630e`).
/// (l) may zero-fill its 24 parities + `ZERO_FILL`, as before.
const ZERO_FILL: usize = 4 * 1024;

#[test]
fn full_stripe_write_zero_fills_its_parities_not_its_data() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 2);
    let (calls, bytes, zeroed) = counted(|| drop(v.write(per_stripe, &data).unwrap()));
    let parities = GRID / ELEMENT - per_stripe;
    let what = format!("(l) {bytes} bytes in {calls} calls, {zeroed} zero-filled");
    assert!(zeroed <= parities * ELEMENT + ZERO_FILL, "{what}");
    assert_eq!(v.read(per_stripe, per_stripe).unwrap().0, data);
}

#[test]
fn flush_of_one_dirty_element_stays_within_the_single_element_budget() {
    let _alone = alone();
    let mut v = volume();
    let data = payload(ELEMENT, 3);
    v.enable_cache(CacheConfig::default());
    v.write(130, &data).unwrap(); // the cache entry's allocation is not the flush's
    let (calls, bytes) = allocated(|| drop(v.flush().unwrap()));
    assert!(calls <= SMALL_OP.0 && bytes <= SMALL_OP.1, "{calls} calls, {bytes} bytes");
    assert_eq!(v.ledger().cache_flushes(), 1);
    assert_eq!(v.read(130, 1).unwrap().0, data);
}

/// What a cached op may request: the element it keeps, plus 8 KiB for the
/// new entry's slot and dirty tables (2 KiB for 120 ordinals), receipts
/// and the LRU list. A dense entry was 480 KiB on top of this.
///
/// The four cached-path budgets, in requested bytes (parent `884cfff`,
/// dense 480 KiB entries → this layout, one slot per held ordinal):
///
/// | case                                 | parent    | change  | budget   |
/// |--------------------------------------|-----------|---------|----------|
/// | (a) 1-element write, cold stripe     | 493 448   | 7 736   | 12 288   |
/// | (b) 1-element read miss − cache-off  | 493 064   | 7 352   | 12 288   |
/// | (c) resident 4-element read − output | 672       | 672     | < 4 096  |
/// | (d) 1 000 evicting writes, per op    | 526 381   | 40 746  | 65 536   |
///
/// (a), (b) and (d) fail on the parent; (c) passes on both — a hit never
/// created an entry — and fences that a hit copies out of its slots
/// without staging an element anywhere.
const CACHED_OP: usize = ELEMENT + 8 * 1024;

fn cached_volume(stripes: usize) -> RaidVolume {
    let mut v = volume_of(stripes);
    v.enable_cache(CacheConfig::default());
    v
}

#[test]
fn cached_write_into_a_cold_stripe_allocates_its_element_not_the_stripe() {
    let _alone = alone();
    let mut v = cached_volume(STRIPES);
    let data = payload(ELEMENT, 7);
    let (_, bytes) = allocated(|| drop(v.write(130, &data).unwrap()));
    assert!(bytes <= CACHED_OP, "(a) {bytes} bytes for a cold 1-element write");
    assert_eq!((v.cache_resident_stripes(), v.cache_resident_elements()), (1, 1));
}

#[test]
fn cached_read_miss_allocates_one_element_more_than_the_uncached_read() {
    let _alone = alone();
    let (mut v, mut plain) = (cached_volume(STRIPES), volume());
    let (_, uncached) = allocated(|| drop(plain.read(250, 1).unwrap()));
    let (_, miss) = allocated(|| drop(v.read(250, 1).unwrap()));
    assert!(miss <= uncached + CACHED_OP, "(b) {miss} bytes for a miss, {uncached} cache off");
    assert!(miss <= 2 * ELEMENT + 12 * 1024, "(h) {miss} bytes for a 1-element read miss");
    assert_eq!((v.ledger().cache_misses(), v.cache_resident_elements()), (1, 1));
}

#[test]
fn resident_read_allocates_its_output_and_no_other_element() {
    let _alone = alone();
    let mut v = cached_volume(STRIPES);
    v.write(130, &payload(ELEMENT, 7)).unwrap();
    v.read(130, 4).unwrap(); // one dirty, three filled clean
    let (_, bytes) = allocated(|| drop(v.read(130, 4).unwrap()));
    assert!(bytes - PAYLOAD < ELEMENT, "(c) {bytes} bytes for a resident 4-element read");
    assert_eq!(v.ledger().cache_hits(), 1 + 4, "one element of the first read, all of the second");
}

#[test]
fn a_write_trace_twice_the_cache_pays_a_small_flush_and_a_small_entry_per_op() {
    let _alone = alone();
    // (d) Round-robin over twice the budget: past the first 64, every
    // write finds its stripe evicted, flushes the oldest dirty stripe
    // (one element: `SMALL_OP`) and creates a new one-element entry.
    const OPS: usize = 1_000;
    let cfg = CacheConfig::default();
    let mut v = cached_volume(2 * cfg.max_stripes);
    let per_stripe = v.data_elements() / (2 * cfg.max_stripes);
    let data = payload(ELEMENT, 8);
    let (_, bytes) = allocated(|| {
        for i in 0..OPS {
            v.write(i % (2 * cfg.max_stripes) * per_stripe + 7, &data).unwrap();
        }
    });
    assert!(bytes / OPS <= 64 * 1024, "(d) {} bytes per op", bytes / OPS);
    let evictions = v.ledger().cache_evictions() as usize;
    assert_eq!(evictions, OPS - cfg.max_stripes, "every write past the budget evicts");
    assert_eq!(v.ledger().cache_flushes() as usize, OPS - cfg.dirty_high_water);
}

#[test]
fn a_flush_zero_fills_what_it_reads_and_computes_not_what_the_cache_holds() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    v.enable_cache(CacheConfig::default());
    let dirty = payload(40 * ELEMENT, 14);
    v.write(per_stripe + 20, &dirty).unwrap();
    v.read(per_stripe + 60, 40).unwrap(); // read through: 40 clean-resident
    let mut flushed = None;
    let (calls, bytes, zeroed) = counted(|| flushed = Some(v.flush().unwrap()));
    let receipt = flushed.unwrap();
    let io = (receipt.total_reads(), receipt.total_writes(), receipt.cache_hits());
    assert_eq!(io, (40, 56, 40), "(k) reads, writes, hits");
    let what = format!("(k) {bytes} bytes in {calls} calls, {zeroed} zero-filled");
    assert!(bytes <= 16 * ELEMENT + 30 * 1024 && zeroed <= 16 * ELEMENT + ZERO_FILL, "{what}");
    assert!(calls <= 64, "{what}");
    assert_eq!(v.cache_dirty_stripes(), 0);
    assert_eq!(v.read(per_stripe + 20, 40).unwrap().0, dirty);
    assert!(v.verify_all());
}

/// What a read that reconstructs nothing may request on top of its
/// output: the lowered op (32 B per read), its request set and receipts.
///
/// The read-side budgets, in requested bytes (parent `1850b5c`, a dense
/// 144 × 4 KiB scratch per read run → this PR, plain fetches landing in
/// the output; debug build, as tier-1 runs it):
///
/// | case                                         | parent    | change  | budget    |
/// |----------------------------------------------|-----------|---------|-----------|
/// | (e) healthy 1-element read                   | 598 440   | 4 876   | 12 288    |
/// | (f) healthy full-stripe read (120 elements)  | 1 089 672 | 496 392 | 507 904   |
/// | (g) degraded, 5 elements off the failed disk | 614 984   | 21 440  | 28 672    |
/// | (h) cached 1-element read miss, absolute     | 605 792   | 12 228  | 20 480    |
///
/// (e), (f), the first half of (g) and (h) fail on the parent.
const PLAIN_READ: usize = 8 * 1024;

/// The stripe's dense scratch: HV has p − 1 rows on p − 1 disks.
const GRID: usize = (P - 1) * (P - 1) * ELEMENT;

/// What a 5-element read that reconstructs may request: its output, the
/// ~14 cells its plan names and the plan itself.
///
/// The reconstruction budgets, in requested bytes (a dense grid per
/// reconstructing read run and per rebuilt stripe → the op's footprint per
/// read run and per rebuild step; then the stripe re-planned per request
/// → a slice of the layout's cached plan):
///
/// | case                                              | grid      | footprint | cached plans | budget      |
/// |---------------------------------------------------|-----------|-----------|--------------|-------------|
/// | (g) degraded, 5 elements onto failed disk 3       | 635 993   | 95 321    | 95 321       | 114 688     |
/// | (i) the same read with disks {3, 7} failed        | 651 294   | 151 582   | 117 704      | < 294 912   |
/// | (i) its allocator calls                           |           | 482       | 53           | ≤ 64        |
/// | (j) `rebuild()` of one disk over 8 stripes, total | 5 758 120 | 1 424 936 | 612 760      | < 1 179 648 |
/// | (j) its allocator calls                           |           | 30 776    | 4 166        |             |
///
/// (i) is the second read of the same run: the first plans the layout's
/// decode of {3, 7}, once for every volume of the code. (j) is one
/// 100-cell footprint (409 600) plus the layout's §V-C recovery of column
/// 3, planned once (some 3 800 calls of a branch-and-bound search), plus
/// 8 KB a stripe; planned per stripe, it was 127 KB and 3 800 calls a
/// stripe. The footprint column of (i) and (j) fails its budget.
///
/// A rebuild step then allocated only its write-back cells, the
/// surviving cells it reads staying where the backend lends them (parent
/// `c3de3c8`, bytes requested / allocator calls: 608 272 / 4 141 and
/// 728 104 / 539). Now it allocates none: the backend lends the spare's
/// own storage too, and each lost cell is computed there (parent
/// `e9762c7` → this layout, debug build):
///
/// | case                                             | parent          | change          | budget  |
/// |--------------------------------------------------|-----------------|-----------------|---------|
/// | (j) `rebuild()` of disk 3 over 8 stripes         | 272 720 / 4 040 | 241 680 / 4 059 | 262 144 |
/// | (j′) warm `rebuild()` of disks {3, 7}, 8 stripes | 268 456 / 407   | 188 968 / 414   | 196 608 |
///
/// (j) is the §V-C planning of column 3 and `RECOVERED_STRIPE` a stripe;
/// (j′) is `REBUILD_STRIPE` a stripe, the layout's decode of {3, 7}
/// planned by an earlier rebuild. Both fail on the parent, which held the
/// 12 and 24 write-back cells in a scratch for the step.
const RECONSTRUCTING_READ: usize = 112 * 1024;

/// What one stripe of a two-disk rebuild requests: its lowered op (32 B
/// per read), the lent tables and slices, the decode program's clone and
/// its temps, the checkpoint and the receipts — 23 621 B a stripe here.
const REBUILD_STRIPE: usize = 24 * 1024;

/// The same for one stripe of a single-disk rebuild, whose §V-C recovery
/// reads fewer cells through a smaller program — 12 604 B a stripe here.
const RECOVERED_STRIPE: usize = 14 * 1024;

/// The layout's §V-C recovery of one column, planned once — 140 848 B in
/// 3 804 calls for column 3 here.
const RECOVERY_PLANNING: usize = 144 * 1024;

/// Allocator calls of a warm reconstructing read onto two failed disks.
const SLICED_READ_CALLS: usize = 64;

#[test]
fn healthy_single_element_read_allocates_its_output_not_a_stripe() {
    let _alone = alone();
    let mut v = volume();
    let (_, bytes) = allocated(|| drop(v.read(250, 1).unwrap()));
    assert!(bytes <= ELEMENT + PLAIN_READ, "(e) {bytes} bytes for a healthy 1-element read");
}

#[test]
fn healthy_full_stripe_read_allocates_its_output_once() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 9);
    v.write(per_stripe, &data).unwrap();
    let mut read = Vec::new();
    let (_, bytes) = allocated(|| read = v.read(per_stripe, per_stripe).unwrap().0);
    assert!(bytes <= data.len() + 2 * PLAIN_READ, "(f) {bytes} bytes for a full-stripe read");
    assert!(read == data, "full-stripe read returned other bytes");
}

const LEN: usize = 5;

/// The first `LEN`-element read at or after element 130 that touches no
/// failed disk, and the first after it that touches disk 3.
fn reads_off_and_onto_disk_3(v: &RaidVolume) -> (usize, usize) {
    let disk_of = |e| v.locate_data_element(e).unwrap().0;
    let failed = v.failed_disks();
    let off = (130..).find(|&at| (at..at + LEN).all(|e| !failed.contains(&disk_of(e)))).unwrap();
    let onto = (off..).find(|&at| (at..at + LEN).any(|e| disk_of(e) == 3)).unwrap();
    (off, onto)
}

#[test]
fn degraded_read_off_the_failed_disk_is_plain_and_onto_it_allocates_a_footprint() {
    let _alone = alone();
    let mut v = volume();
    let data = payload(v.data_elements() * ELEMENT, 10);
    v.write(0, &data).unwrap();
    v.fail_disk(3).unwrap();
    let (off, onto) = reads_off_and_onto_disk_3(&v);
    for (at, budget) in [(off, LEN * ELEMENT + PLAIN_READ), (onto, RECONSTRUCTING_READ)] {
        let mut read = Vec::new();
        let (_, bytes) = allocated(|| read = v.read(at, LEN).unwrap().0);
        assert_eq!(read, data[at * ELEMENT..(at + LEN) * ELEMENT], "read at {at}");
        assert!(bytes <= budget, "(g) {bytes} bytes for the read at {at}, budget {budget}");
    }
}

#[test]
fn doubly_degraded_read_stays_under_half_the_grid() {
    let _alone = alone();
    let mut v = volume();
    let data = payload(v.data_elements() * ELEMENT, 11);
    v.write(0, &data).unwrap();
    v.fail_disk(3).unwrap();
    v.fail_disk(7).unwrap();
    let (_, onto) = reads_off_and_onto_disk_3(&v);
    v.read(onto, LEN).unwrap(); // the layout's first plan for {3, 7} is not the read's
    let mut read = Vec::new();
    let (calls, bytes) = allocated(|| read = v.read(onto, LEN).unwrap().0);
    assert_eq!(read, data[onto * ELEMENT..(onto + LEN) * ELEMENT]);
    let what = format!("(i) {bytes} bytes in {calls} calls, a read onto one of two failed disks");
    assert!(bytes < GRID / 2 && calls <= SLICED_READ_CALLS, "{what}");
}

#[test]
fn a_rebuild_step_allocates_no_cell_of_what_it_writes_back() {
    let _alone = alone();
    const REBUILT: usize = 8;
    let mut v = volume_of(REBUILT);
    let data = payload(v.data_elements() * ELEMENT, 12);
    v.write(0, &data).unwrap();
    v.fail_disk(3).unwrap();
    let (calls, bytes) = allocated(|| drop(v.rebuild().unwrap()));
    let budget = RECOVERY_PLANNING + REBUILT * RECOVERED_STRIPE;
    let what = format!("(j) {bytes} bytes in {calls} calls to rebuild {REBUILT} stripes");
    assert!(bytes <= budget, "{what}, budget {budget}");
    assert!(v.verify_all() && v.read(0, v.data_elements()).unwrap().0 == data);

    // (j′) Two disks, the layout's decode of the pair planned by a first
    // rebuild: the step holds none of their 24 cells.
    let fail_both = |v: &mut RaidVolume| {
        v.fail_disk(3).unwrap();
        v.fail_disk(7).unwrap();
    };
    fail_both(&mut v);
    v.rebuild().unwrap();
    fail_both(&mut v);
    let (calls, bytes) = allocated(|| drop(v.rebuild().unwrap()));
    let budget = REBUILT * REBUILD_STRIPE;
    assert!(bytes <= budget, "(j′) {bytes} bytes in {calls} calls, budget {budget}");
    assert!(v.verify_all() && v.read(0, v.data_elements()).unwrap().0 == data);
}

/// Four 4 KiB elements: the largest op `front_door_mixed` sends.
const PAYLOAD: usize = 4 * ELEMENT;

#[test]
fn parsing_a_write_line_allocates_the_decoded_payload_and_little_else() {
    let _alone = alone();
    let data = payload(PAYLOAD, 4);
    let line = format!("WRITE 1234 {}", proto::to_hex(&data));
    let mut parsed = None;
    let (calls, bytes) = allocated(|| parsed = Some(proto::parse(&line)));
    assert_eq!(parsed.unwrap(), Ok(proto::Request::Write { addr: 1234, data }));
    // The decoded payload and nothing else: no copy of the 32 KB token,
    // no verb or address `String` (4 calls and 49 161 bytes before).
    assert_eq!((calls, bytes), (1, PAYLOAD));
}

#[test]
fn rendering_a_read_reply_into_a_warm_buffer_allocates_nothing() {
    let _alone = alone();
    let data = payload(PAYLOAD, 5);
    let mut reply = Vec::new();
    proto::push_data_reply(&mut reply, &data); // the connection's first READ sizes it
    reply.clear();
    assert_eq!(allocated(|| proto::push_data_reply(&mut reply, &data)), (0, 0));
    assert_eq!(reply.strip_prefix(b"OK data "), Some(proto::to_hex(&data).as_bytes()));
}

/// What one `op` allocates on all threads together, the least of five
/// goes.
fn allocated_by_all_threads(mut op: impl FnMut()) -> usize {
    (0..5)
        .map(|_| {
            let before = ALL_THREADS_BYTES.load(Ordering::Relaxed);
            op();
            ALL_THREADS_BYTES.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("five goes")
}

#[test]
fn a_handle_write_copies_nothing_and_a_socket_write_allocates_its_decode() {
    let _alone = alone();
    let svc = Service::new(volume(), ServiceConfig::default());
    let data = payload(PAYLOAD, 6);
    let request = format!("WRITE 128 {}\n", proto::to_hex(&data));

    // The same four elements every time: after the first write the
    // stripe sits dirty in the cache and every op does the same work.
    let handle = svc.session("handle", TenantClass::Writer);
    handle.write(128, &data).unwrap();
    let through_handle = allocated_by_all_threads(|| assert_eq!(handle.write(128, &data), Ok(4)));

    let served = ServedSocket::start(&svc, "hvraid_alloc_budget");
    let mut client = served.client();
    assert!(client.exchange("HELLO socket writer").starts_with("OK session"));
    assert_eq!(client.exchange_raw(request.as_bytes()), "OK wrote 4"); // warms frame and reply
    let through_socket = allocated_by_all_threads(|| {
        assert_eq!(client.exchange_raw(request.as_bytes()), "OK wrote 4")
    });
    served.shut_down();

    // A handle write runs on the caller's thread and the volume writes
    // from the caller's slice: no copy of it. A socket write allocates
    // its one decode of the hex payload on top; the frame and reply
    // buffers are reused and the line is never copied. (Measured: 672 B
    // and 17 056 B; the handle copied its payload before, 17 416 B each.)
    assert!(through_handle < PAYLOAD, "a handle write copied its payload: {through_handle}");
    let decode = through_handle + PAYLOAD..=through_handle + PAYLOAD + 1024;
    assert!(
        decode.contains(&through_socket),
        "{through_socket} bytes per socket WRITE, {through_handle} per handle write"
    );
}

/// The sizes of the structs a volume and a service set-up allocate, on
/// x86_64 with the pinned toolchain. A volume 24 B smaller put the
/// `Service` that owns it in a smaller allocator size class, and hvbench's
/// `front_door_mixed` then set up about twice as slowly (glibc trims the
/// dropped rig's disks and the next set-up faults them back); a change of
/// `IoPipeline` by 48 B moved `setup_s` on two workloads by half. Until
/// set-up timing no longer depends on the trim, a struct change that moves
/// one of these is a change to that timing, and this says so.
#[test]
fn the_set_up_structs_keep_their_sizes() {
    use std::mem::size_of;
    let sizes = (size_of::<RaidVolume>(), size_of::<IoPipeline>(), size_of::<Service>());
    assert_eq!(sizes, (536, 208, 720), "(RaidVolume, IoPipeline, Service) in bytes");
}
