//! Exact element-I/O counts from the volume's request ledger — the three
//! gates the deleted criterion suite carried, as deterministic tier-1
//! tests with no timing anywhere:
//!
//! - [`table2_trace_cached_vs_uncached`] replaces the `benches/update.rs`
//!   Table-II gate (stripe cache saves ≥ 30 % of total element I/O);
//! - [`skew_sweep_cached_vs_uncached`] replaces `benches/skew.rs`'s
//!   ledger-counted notes (Zipf / hot-spot / sequential, cache on and
//!   off), with that bench's write loop and final flush done by
//!   `replay_write_trace`;
//! - [`worst_case_single_element_update`] replaces `benches/update.rs`'s
//!   parity-I/O notes: the paper's optimal-update-complexity claim (§IV)
//!   measured per small write, which only a bench note used to record.
//!
//! A pinned count that moves is a deliberate change to the write or flush
//! path: re-derive it, do not loosen it.

use std::sync::Arc;

use disk_sim::{DiskArray, DiskProfile};
use integration::all_codes;
use raid_array::{replay_write_trace, CacheConfig, RaidVolume};
use raid_workloads::skew::{hot_spot_trace, sequential_trace, zipf_write_trace};
use raid_workloads::{table2_trace, WriteTrace};

fn hv13_volume(stripes: usize, element: usize, cached: bool) -> RaidVolume {
    let mut v = RaidVolume::in_memory(all_codes(13).remove(0), stripes, element);
    if cached {
        v.enable_cache(CacheConfig::default());
    }
    v
}

/// Total element I/O of one replay of `trace` on a fresh volume. The
/// replay clamps each pattern to the data space and flushes before taking
/// its ledger delta, so coalesced flush I/O is fully accounted.
fn replay_total(mut v: RaidVolume, trace: &WriteTrace) -> u64 {
    let sim = DiskArray::new(v.disks(), DiskProfile::savvio_10k());
    replay_write_trace(&mut v, sim, trace).expect("healthy replay").ledger.total()
}

#[test]
fn table2_trace_cached_vs_uncached() {
    let trace = table2_trace();
    let total = |cached| replay_total(hv13_volume(8, 64, cached), &trace);
    let (uncached, cached) = (total(false), total(true));
    assert_eq!((uncached, cached), (80_350, 140));
    // The floor a deliberate re-pin of either count must still clear.
    assert!(
        (uncached - cached) * 100 >= uncached * 30,
        "write coalescing regressed: {uncached} -> {cached} is under 30 %"
    );
}

#[test]
fn skew_sweep_cached_vs_uncached() {
    let total = |trace: &WriteTrace, cached| replay_total(hv13_volume(16, 1024, cached), trace);
    let (n, len) = (hv13_volume(16, 1024, false).data_elements(), 4);
    let sweep = [
        (zipf_write_trace(len, 200, n, 0.9, 7), 3_628, 1_177),
        (hot_spot_trace(len, 200, (n / 8).max(len + 1), 11), 3_626, 298),
        (sequential_trace(len, 200, n), 3_626, 1_004),
    ];
    for (trace, uncached, cached) in sweep {
        assert_eq!((total(&trace, false), total(&trace, true)), (uncached, cached), "{}", trace.name);
        assert!(cached < uncached, "{}", trace.name);
    }
}

#[test]
fn worst_case_single_element_update() {
    // (parity writes, total element I/Os) of one RMW, maximized over every
    // data cell of one stripe, in the paper's plotting order.
    let expected =
        [("RDP", (3, 8)), ("HDP", (3, 8)), ("X-Code", (2, 6)), ("H-Code", (2, 6)), ("HV Code", (2, 6))];
    let codes = all_codes(13);
    let worst = |name: &str| {
        let code = codes.iter().find(|c| c.name() == name).expect("in the roster");
        let mut v = RaidVolume::in_memory(Arc::clone(code), 1, 64);
        let buf = [0x3Cu8; 64];
        (0..v.data_elements())
            .map(|addr| {
                let receipt = v.write(addr, &buf).expect("healthy small write");
                (receipt.parity_writes(), receipt.total())
            })
            .max()
            .expect("a stripe has data cells")
    };
    let hv_parity_writes = worst("HV Code").0;
    for (name, pair) in expected {
        assert_eq!(worst(name), pair, "{name}");
        assert!(hv_parity_writes <= pair.0, "HV pays more parity writes than {name}");
    }
}
