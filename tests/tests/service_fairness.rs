//! Fairness at the service's front door: a session issuing one-element
//! reads keeps making progress while three sessions stream multi-element
//! writes into the same volume, each client on a thread of its own.
//!
//! A front door that lets one client's thread run other clients' ops
//! fails this: whichever thread holds that role keeps it while the
//! others keep submitting, so that client's own call does not return
//! for as long as the others stream.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use hv_code::HvCode;
use integration::payload;
use raid_array::RaidVolume;
use raid_core::ArrayCode;
use raid_service::{Service, ServiceConfig, TenantClass};

const WRITERS: usize = 3;
const WRITE_ELEMENTS: usize = 16;
const ELEMENT: usize = 512;
const STRIPES: usize = 16;
const RUN: Duration = Duration::from_secs(1);
/// Bound on any client's slowest op. In this debug test on a 2-core host,
/// clients that each run their own op saw 12–27 ms alone and at most
/// 59 ms beside a full `cargo test`; a thread left running the other
/// clients' ops saw 100–176 ms in ten runs of fifteen.
const SLOWEST_OP: Duration = Duration::from_millis(100);

/// What one client got done in [`RUN`]: ops completed and its slowest
/// single op, timed by the client around its own call.
#[derive(Debug)]
struct Tally {
    ops: u64,
    worst: Duration,
}

/// Runs `op(i)` for op `i = 0, 1, …` until [`RUN`] has passed since the
/// last of the clients was ready.
fn client(start: &Barrier, mut op: impl FnMut(usize)) -> Tally {
    start.wait();
    let begun = Instant::now();
    let mut tally = Tally { ops: 0, worst: Duration::ZERO };
    while begun.elapsed() < RUN {
        let t = Instant::now();
        op(tally.ops as usize);
        tally.worst = tally.worst.max(t.elapsed());
        tally.ops += 1;
    }
    tally
}

#[test]
fn a_reader_keeps_making_progress_beside_streaming_writers() {
    let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(13).unwrap());
    let svc = Service::new(RaidVolume::in_memory(code, STRIPES, ELEMENT), ServiceConfig::default());
    let total = svc.data_elements();
    let start = Barrier::new(WRITERS + 1);

    let (reader, writers) = thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (h, start) = (svc.session(&format!("w{w}"), TenantClass::Writer), &start);
                let data = payload(WRITE_ELEMENTS * ELEMENT, w as u64);
                scope.spawn(move || {
                    client(start, |i| {
                        let at = (w * 997 + i * WRITE_ELEMENTS) % (total - WRITE_ELEMENTS);
                        h.write(at, &data).expect("writer's write");
                    })
                })
            })
            .collect();
        let h = svc.session("r", TenantClass::Reader);
        let reader = client(&start, |i| {
            h.read(i * 31 % total, 1).expect("reader's read");
        });
        let writers: Vec<Tally> = writers.into_iter().map(|w| w.join().expect("writer")).collect();
        (reader, writers)
    });

    let slowest = writers.iter().chain([&reader]).map(|t| t.worst).max().expect("four clients");
    let mean_writer_ops = writers.iter().map(|w| w.ops).sum::<u64>() / WRITERS as u64;
    assert!(
        slowest < SLOWEST_OP,
        "one op waited {slowest:?} beside the others: reader {reader:?}, writers {writers:?}"
    );
    assert!(
        reader.ops * 4 >= mean_writer_ops,
        "the reader completed {} ops while the mean writer completed {mean_writer_ops}",
        reader.ops
    );
}
