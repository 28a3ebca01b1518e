//! Allocation budgets of the healthy store path, counted not timed: a
//! stripe store allocates scratch for the cells its op names
//! (`LoweredOp::footprint`), not for the double-height grid. The fixture
//! is hvbench's — HV Code p = 13, 4 KiB elements, `MemBackend` — where
//! the grid is 288 buffers (1.2 MiB) and a single-element update names 6.
//!
//! Of the cached path: a stripe-cache entry allocates the elements it is
//! given, not the stripe's 120 (480 KiB), so a cold write, a read miss
//! and an eviction-per-op trace cost the op's own bytes.
//!
//! Of what a store zero-fills: only the cells its op reads or computes.
//! A flush runs on the cache entry's own dirty and clean-resident slots,
//! and an uncached write on one copy of the caller's bytes. The counting
//! allocator totals the bytes requested through `alloc_zeroed` on their
//! own, so a copy and a zero-fill-then-copy no longer count the same.
//!
//! Of the read side: a read that misses every failed column allocates
//! its output and lands the backend's bytes there, and one that must
//! reconstruct allocates the cells its plan fetches and rebuilds, not the
//! stripe's 144-buffer grid (576 KiB). A rebuild allocates one such
//! footprint per step, not one grid per stripe.
//!
//! And of the front door: parsing a `WRITE` line allocates its decoded
//! payload and nothing else of size, a `READ` reply renders into a warm
//! buffer without allocating, and a `WRITE` over a live connection costs
//! no more than the same op through a handle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hv_code::HvCode;
use integration::{payload, ServedSocket};
use raid_array::{CacheConfig, RaidVolume};
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
/// body: `a_socket_write_…` counts every thread's allocations, and a
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
/// is 7 of the calls and 31 KiB; lowering, receipts and (for a flush) the
/// partition shards make some 40 to 60 small ones around it. Allocating
/// the grid took 330 calls and 1.2 MiB.
const SMALL_OP: (usize, usize) = (80, 64 * 1024);

fn volume() -> RaidVolume {
    volume_of(STRIPES)
}

fn volume_of(stripes: usize) -> RaidVolume {
    RaidVolume::in_memory(Arc::new(HvCode::new(P).unwrap()), stripes, ELEMENT)
}

#[test]
fn single_element_write_allocates_its_six_cells_not_the_grid() {
    let _alone = alone();
    let mut v = volume();
    let data = payload(ELEMENT, 1);
    v.write(7, &data).unwrap(); // warms the pre-image pool
    let (calls, bytes) = allocated(|| drop(v.write(130, &data).unwrap()));
    assert!(calls <= SMALL_OP.0 && bytes <= SMALL_OP.1, "{calls} calls, {bytes} bytes");
    assert_eq!(v.read(130, 1).unwrap().0, data);
}

#[test]
fn full_stripe_write_allocates_one_stripe_not_two() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 2);
    v.write(0, &data).unwrap(); // warms the pre-image pool
    let (calls, bytes) = allocated(|| drop(v.write(per_stripe, &data).unwrap()));
    assert!(bytes * 100 <= GRID * 115, "{calls} calls, {bytes} bytes");
    assert_eq!(v.read(per_stripe, per_stripe).unwrap().0, data);
}

/// What a store may zero-fill beyond the cells its op reads or computes:
/// the lowering's bitmaps.
///
/// The store budgets (parent `46cef8e`, every footprint cell zero-filled
/// and the new bytes copied into it → this layout, where the dirty and
/// clean-resident cells are the cache's own slots or one copy of the
/// caller's bytes; debug build, bytes requested / of them zero-filled):
///
/// | case                                    | parent            | change            |
/// |-----------------------------------------|-------------------|-------------------|
/// | (k) flush: 40 dirty + 40 clean-resident | 605 936 / 559 432 | 270 480 / 231 816 |
/// | (l) uncached full-stripe write          | 664 348 / 591 048 | 645 692 / 99 592  |
///
/// (k) may request 56 elements + 48 KiB and zero-fill 56 + `ZERO_FILL`:
/// its 40 reads and 16 parities. (l) may zero-fill its 24 parities +
/// `ZERO_FILL`, and requests what it did: the copy of the caller's
/// stripe replaces the zero-filled one. Both fail on the parent.
const ZERO_FILL: usize = 4 * 1024;

#[test]
fn full_stripe_write_zero_fills_its_parities_not_its_data() {
    let _alone = alone();
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 2);
    v.write(0, &data).unwrap(); // warms the pre-image pool
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
    v.write(7, &data).unwrap(); // warms the pre-image pool
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
    v.write(0, &payload(per_stripe * ELEMENT, 13)).unwrap(); // warms the pre-image pool
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
    assert!(bytes <= 56 * ELEMENT + 48 * 1024 && zeroed <= 56 * ELEMENT + ZERO_FILL, "{what}");
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
/// The reconstruction budgets, in requested bytes (parent `fc8f0f0`, a
/// dense grid per reconstructing read run and per rebuilt stripe → this
/// PR, the op's footprint per read run and per rebuild step):
///
/// | case                                              | parent    | change    | budget      |
/// |---------------------------------------------------|-----------|-----------|-------------|
/// | (g) degraded, 5 elements onto failed disk 3       | 635 993   | 95 321    | 114 688     |
/// | (i) the same read with disks {3, 7} failed        | 651 294   | 151 582   | < 294 912   |
/// | (j) `rebuild()` of one disk over 8 stripes, total | 5 758 120 | 1 424 936 | < 1 769 472 |
///
/// All three fail on the parent. (j) is one 100-cell footprint (409 600)
/// plus 127 KB of small requests per stripe — 3 800 calls, the recovery
/// planner and `.optimized()` lowering the stripe's op anew — where the
/// parent adds a grid per stripe to that: under three grids against
/// nearly ten.
const RECONSTRUCTING_READ: usize = 112 * 1024;

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
    let mut read = Vec::new();
    let (_, bytes) = allocated(|| read = v.read(onto, LEN).unwrap().0);
    assert_eq!(read, data[onto * ELEMENT..(onto + LEN) * ELEMENT]);
    assert!(bytes < GRID / 2, "(i) {bytes} bytes for a read onto one of two failed disks");
}

#[test]
fn rebuild_allocates_one_footprint_for_the_step_not_a_grid_per_stripe() {
    let _alone = alone();
    const REBUILT: usize = 8;
    let mut v = volume_of(REBUILT);
    let data = payload(v.data_elements() * ELEMENT, 12);
    v.write(0, &data).unwrap();
    v.fail_disk(3).unwrap();
    let (_, bytes) = allocated(|| drop(v.rebuild().unwrap()));
    assert!(bytes < 3 * GRID, "(j) {bytes} bytes to rebuild {REBUILT} stripes");
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
fn a_socket_write_allocates_no_more_than_a_handle_write() {
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

    // The handle's copy of the caller's slice is the socket's decode,
    // which moves into the queue; the frame and reply buffers are
    // reused and the line is never copied. (Measured: 17 416 B each.)
    assert!(through_handle >= PAYLOAD, "a handle write copies its payload: {through_handle}");
    assert!(
        through_socket <= through_handle + 1024,
        "{through_socket} bytes per socket WRITE, {through_handle} per handle write"
    );
}
