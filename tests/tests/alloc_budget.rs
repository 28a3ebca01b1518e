//! Allocation budgets of the healthy store path, counted not timed: a
//! stripe store allocates scratch for the cells its op names
//! (`LoweredOp::footprint`), not for the double-height grid. The fixture
//! is hvbench's — HV Code p = 13, 4 KiB elements, `MemBackend` — where
//! the grid is 288 buffers (1.2 MiB) and a single-element update names 6.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hv_code::HvCode;
use integration::payload;
use raid_array::{CacheConfig, RaidVolume};

/// `System`, counting the calling thread's allocation calls and requested
/// bytes (a `realloc` counts as one call of its new size). Per thread, so
/// the harness running tests side by side does not blur the counts.
struct Counting;

thread_local! {
    static CALLS_AND_BYTES: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = CALLS_AND_BYTES.try_with(|c| c.set((c.get().0 + 1, c.get().1 + bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, bytes)` this thread allocated while `op` ran.
fn allocated(op: impl FnOnce()) -> (usize, usize) {
    let before = CALLS_AND_BYTES.get();
    op();
    let after = CALLS_AND_BYTES.get();
    (after.0 - before.0, after.1 - before.1)
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
    RaidVolume::in_memory(Arc::new(HvCode::new(P).unwrap()), STRIPES, ELEMENT)
}

#[test]
fn single_element_write_allocates_its_six_cells_not_the_grid() {
    let mut v = volume();
    let data = payload(ELEMENT, 1);
    v.write(7, &data).unwrap(); // warms the pre-image pool
    let (calls, bytes) = allocated(|| drop(v.write(130, &data).unwrap()));
    assert!(calls <= SMALL_OP.0 && bytes <= SMALL_OP.1, "{calls} calls, {bytes} bytes");
    assert_eq!(v.read(130, 1).unwrap().0, data);
}

#[test]
fn full_stripe_write_allocates_one_stripe_not_two() {
    let mut v = volume();
    let per_stripe = v.data_elements() / STRIPES;
    let data = payload(per_stripe * ELEMENT, 2);
    v.write(0, &data).unwrap(); // warms the pre-image pool
    let (calls, bytes) = allocated(|| drop(v.write(per_stripe, &data).unwrap()));
    let stripe_bytes = (P - 1) * (P - 1) * ELEMENT; // HV: p − 1 rows on p − 1 disks
    assert!(bytes * 100 <= stripe_bytes * 115, "{calls} calls, {bytes} bytes");
    assert_eq!(v.read(per_stripe, per_stripe).unwrap().0, data);
}

#[test]
fn flush_of_one_dirty_element_stays_within_the_single_element_budget() {
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
