//! Property-based tests over the whole stack: random primes, random data,
//! random failures and random write patterns.

use std::sync::Arc;

use proptest::prelude::*;

use hv_code::HvCode;
use integration::all_codes;
use raid_array::{CacheConfig, FileBackend, RaidVolume};
use raid_core::{decoder, ArrayCode, Stripe};

fn small_prime() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![5usize, 7, 11, 13])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hv_double_failure_roundtrip(
        p in small_prime(),
        seed in any::<u64>(),
        pair in (0usize..64, 0usize..64),
    ) {
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        let n = layout.cols();
        let f1 = pair.0 % n;
        let mut f2 = pair.1 % n;
        if f1 == f2 {
            f2 = (f2 + 1) % n;
        }
        let mut stripe = Stripe::for_layout(layout, 24);
        stripe.fill_data_seeded(layout, seed);
        code.encode(&mut stripe);
        let pristine = stripe.clone();
        stripe.erase_col(f1);
        stripe.erase_col(f2);
        code.repair_double_disk(&mut stripe, f1, f2).unwrap();
        prop_assert_eq!(stripe, pristine);
    }

    #[test]
    fn random_cell_erasures_up_to_two_columns_decode(
        p in small_prime(),
        seed in any::<u64>(),
        picks in prop::collection::vec((0usize..32, 0usize..32), 1..6),
        cols in (0usize..64, 0usize..64),
    ) {
        // Erase up to 5 random cells confined to at most two columns —
        // always within RAID-6 tolerance.
        let code = HvCode::new(p).unwrap();
        let layout = code.layout();
        let n = layout.cols();
        let (ca, cb) = (cols.0 % n, cols.1 % n);
        let mut stripe = Stripe::for_layout(layout, 16);
        stripe.fill_data_seeded(layout, seed);
        code.encode(&mut stripe);
        let pristine = stripe.clone();

        let mut lost = Vec::new();
        for (r, c) in picks {
            let cell = raid_core::Cell::new(r % layout.rows(), if c % 2 == 0 { ca } else { cb });
            if !lost.contains(&cell) {
                lost.push(cell);
            }
        }
        for &c in &lost {
            stripe.erase(c);
        }
        decoder::decode(&mut stripe, layout, &lost).unwrap();
        prop_assert_eq!(stripe, pristine);
    }

    #[test]
    fn volume_random_writes_keep_parity_consistent(
        seed in any::<u64>(),
        writes in prop::collection::vec((0usize..200, 1usize..12), 1..8),
    ) {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let element = 8usize;
        let mut v = RaidVolume::in_memory(code, 10, element);
        let cap = v.data_elements();
        let mut shadow = vec![0u8; cap * element];
        for (i, (start, len)) in writes.into_iter().enumerate() {
            let start = start % cap;
            let len = len.min(cap - start);
            let data = integration::payload(len * element, seed ^ i as u64);
            v.write(start, &data).unwrap();
            shadow[start * element..(start + len) * element].copy_from_slice(&data);
            prop_assert!(v.verify_all(), "parity broken after write {}", i);
        }
        let (bytes, _) = v.read(0, cap).unwrap();
        prop_assert_eq!(bytes, shadow);
    }

    #[test]
    fn degraded_read_equals_healthy_read(
        seed in any::<u64>(),
        start in 0usize..100,
        len in 1usize..20,
        disk in 0usize..6,
    ) {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(7).unwrap());
        let element = 8usize;
        let mut v = RaidVolume::in_memory(code, 6, element);
        let cap = v.data_elements();
        let start = start % cap;
        let len = len.min(cap - start);
        let data = integration::payload(cap * element, seed);
        v.write(0, &data).unwrap();
        let (healthy, _) = v.read(start, len).unwrap();
        v.fail_disk(disk % v.disks()).unwrap();
        let (degraded, receipt) = v.read(start, len).unwrap();
        prop_assert_eq!(&healthy, &degraded);
        prop_assert!(receipt.total_reads() as usize >= 1);
        prop_assert_eq!(
            &healthy[..],
            &data[start * element..(start + len) * element]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_code_survives_random_double_failure(
        seed in any::<u64>(),
        pair in (0usize..64, 0usize..64),
    ) {
        for code in all_codes(7) {
            let layout = code.layout();
            let n = layout.cols();
            let f1 = pair.0 % n;
            let mut f2 = pair.1 % n;
            if f1 == f2 { f2 = (f2 + 1) % n; }
            let mut stripe = Stripe::for_layout(layout, 16);
            stripe.fill_data_seeded(layout, seed);
            code.encode(&mut stripe);
            let pristine = stripe.clone();
            stripe.erase_col(f1);
            stripe.erase_col(f2);
            let mut lost = layout.cells_in_col(f1);
            lost.extend(layout.cells_in_col(f2));
            decoder::decode(&mut stripe, layout, &lost).unwrap();
            prop_assert_eq!(stripe, pristine, "{} ({},{})", code.name(), f1, f2);
        }
    }

    #[test]
    fn cached_volume_is_byte_identical_to_uncached(
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..3, 0usize..300, 1usize..10), 4..14),
        fail_pick in 0usize..64,
        fail_at in 0usize..14,
        flush_at in 0usize..14,
    ) {
        // A write-back cached volume must be observationally identical to
        // an uncached twin under mixed reads/writes, through a
        // mid-workload disk failure, a mid-workload explicit flush, a
        // tiny budget that forces constant flushing and eviction, and
        // finally flush-on-drop.
        for p in [5usize, 13] {
            for code in all_codes(p) {
                let element = 8usize;
                let stripes = 4usize;
                let mut plain = RaidVolume::in_memory(Arc::clone(&code), stripes, element);
                let mut cached = RaidVolume::in_memory(Arc::clone(&code), stripes, element);
                cached.enable_cache(CacheConfig { max_stripes: 2, dirty_high_water: 1 });
                let cap = plain.data_elements();
                for (i, &(kind, start, len)) in ops.iter().enumerate() {
                    let start = start % cap;
                    let len = len.min(cap - start);
                    if i == fail_at % ops.len() {
                        let d = fail_pick % plain.disks();
                        plain.fail_disk(d).unwrap();
                        cached.fail_disk(d).unwrap();
                    }
                    if kind < 2 {
                        let data = integration::payload(len * element, seed ^ ((i as u64) << 8));
                        plain.write(start, &data).unwrap();
                        cached.write(start, &data).unwrap();
                    } else {
                        let (a, _) = plain.read(start, len).unwrap();
                        let (b, _) = cached.read(start, len).unwrap();
                        prop_assert_eq!(a, b, "{} p={p} read {i} diverged", code.name());
                    }
                    if i == flush_at % ops.len() {
                        cached.flush().unwrap();
                    }
                }
                // Heal both twins (a rebuild under a dirty cache must
                // reconstruct the on-disk image, not the cached one),
                // then the arrays must agree byte-for-byte and verify.
                plain.rebuild().unwrap();
                cached.rebuild().unwrap();
                let (truth, _) = plain.read(0, cap).unwrap();
                let (mirror, _) = cached.read(0, cap).unwrap();
                prop_assert_eq!(&truth, &mirror, "{} p={p} final image diverged", code.name());
                prop_assert!(cached.verify_all(), "{} p={p} parity broken", code.name());

                // Flush-on-drop: replay the final image into a file-backed
                // cached volume, drop it with every stripe dirty, reopen
                // uncached, and the bytes must have made it to disk.
                let layout = code.layout();
                let dir = integration::TempDir::new("hv-cacheprop");
                let dir = dir.path();
                let be = FileBackend::create(dir, layout.cols(), stripes * layout.rows(), element)
                    .unwrap();
                let mut fv =
                    RaidVolume::new(Arc::clone(&code), stripes, element, Box::new(be)).unwrap();
                fv.enable_cache(CacheConfig::default());
                fv.write(0, &truth).unwrap();
                prop_assert!(fv.cache_dirty_stripes() > 0, "drop test needs dirty state");
                drop(fv);
                let be = FileBackend::open(dir).unwrap();
                let mut fv = RaidVolume::new(Arc::clone(&code), stripes, element, Box::new(be)).unwrap();
                let (persisted, _) = fv.read(0, cap).unwrap();
                prop_assert_eq!(&truth, &persisted, "{} p={p} lost dirty cache on drop", code.name());
            }
        }
    }
}
