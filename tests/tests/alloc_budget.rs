//! Allocation budgets of the healthy store path, counted not timed: a
//! stripe store allocates scratch for the cells its op names
//! (`LoweredOp::footprint`), not for the double-height grid. The fixture
//! is hvbench's — HV Code p = 13, 4 KiB elements, `MemBackend` — where
//! the grid is 288 buffers (1.2 MiB) and a single-element update names 6.
//!
//! And of the front door: parsing a `WRITE` line allocates its decoded
//! payload and nothing else of size, a `READ` reply renders into a warm
//! buffer without allocating, and a `WRITE` over a live connection costs
//! no more than the same op through a handle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hv_code::HvCode;
use integration::{payload, ServedSocket};
use raid_array::{CacheConfig, RaidVolume};
use raid_service::{proto, Service, ServiceConfig, TenantClass};

/// `System`, counting the calling thread's allocation calls and requested
/// bytes (a `realloc` counts as one call of its new size). Per thread, so
/// the harness running tests side by side does not blur the counts.
struct Counting;

thread_local! {
    static CALLS_AND_BYTES: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Requested bytes of every thread together, for the one test whose
/// subject — a server's connection thread — is not the calling thread.
static ALL_THREADS_BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = CALLS_AND_BYTES.try_with(|c| c.set((c.get().0 + 1, c.get().1 + bytes)));
    ALL_THREADS_BYTES.fetch_add(bytes, Ordering::Relaxed);
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

/// Four 4 KiB elements: the largest op `front_door_mixed` sends.
const PAYLOAD: usize = 4 * ELEMENT;

#[test]
fn parsing_a_write_line_allocates_the_decoded_payload_and_little_else() {
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
    let data = payload(PAYLOAD, 5);
    let mut reply = Vec::new();
    proto::push_data_reply(&mut reply, &data); // the connection's first READ sizes it
    reply.clear();
    assert_eq!(allocated(|| proto::push_data_reply(&mut reply, &data)), (0, 0));
    assert_eq!(reply.strip_prefix(b"OK data "), Some(proto::to_hex(&data).as_bytes()));
}

/// What one `op` allocates on all threads together: the least of five
/// goes, so another test allocating beside one of them does not count.
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
