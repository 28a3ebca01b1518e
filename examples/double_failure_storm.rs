//! Failure storm: random double-disk failures hammer volumes built on each
//! code; every round rebuilds and verifies. Reports the recovery-chain
//! parallelism and the modeled `Lc · Re` rebuild time — Fig. 9(b) live.
//!
//! ```text
//! cargo run -p hv-examples --bin double_failure_storm [rounds]
//! ```

use std::sync::Arc;

use hv_code::HvCode;
use hv_examples::{fingerprint, payload};
use raid_array::{DiskProfile, RaidVolume};
use raid_baselines::{HCode, HdpCode, RdpCode, XCode};
use raid_core::schedule::double_failure_schedule;
use raid_core::ArrayCode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10);
    let p = 11usize;
    let re = DiskProfile::savvio_10k().element_service_ms();
    let codes: Vec<Arc<dyn ArrayCode>> = vec![
        Arc::new(RdpCode::new(p)?),
        Arc::new(HdpCode::new(p)?),
        Arc::new(XCode::new(p)?),
        Arc::new(HCode::new(p)?),
        Arc::new(HvCode::new(p)?),
    ];

    println!("{rounds} random double-failure rounds per code, p = {p}\n");
    println!(
        "{:>8}  {:>7}  {:>7}  {:>12}  {:>9}",
        "code", "chains", "max Lc", "Lc·Re (ms)", "verified"
    );

    // Simple deterministic PRNG for failure selection.
    let mut state = 0x5707_u64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };

    for code in codes {
        let name = code.name().to_string();
        let disks = code.layout().cols();
        let element = 256usize;
        let mut volume = RaidVolume::in_memory(Arc::clone(&code), 8, element);
        let data = payload(volume.data_elements() * element, 0xBAD);
        let print = fingerprint(&data);
        volume.write(0, &data)?;

        let mut min_chains = usize::MAX;
        let mut max_lc = 0usize;
        let mut verified = 0usize;
        for _ in 0..rounds {
            let f1 = next(disks);
            let mut f2 = next(disks);
            if f2 == f1 {
                f2 = (f2 + 1) % disks;
            }
            let sched = double_failure_schedule(code.layout(), f1.min(f2), f1.max(f2))
                .expect("MDS code repairs any pair");
            min_chains = min_chains.min(sched.num_chains);
            max_lc = max_lc.max(sched.longest_chain);

            volume.fail_disk(f1)?;
            volume.fail_disk(f2)?;
            volume.rebuild()?;
            let (copy, _) = volume.read(0, volume.data_elements())?;
            assert_eq!(fingerprint(&copy), print, "{name}: data corrupted in round");
            verified += 1;
        }
        println!(
            "{:>8}  {:>7}  {:>7}  {:>12.1}  {:>8}/{}",
            name,
            min_chains,
            max_lc,
            max_lc as f64 * re,
            verified,
            rounds
        );
    }
    println!("\n(HV Code and X-Code sustain 4 parallel chains; cf. Fig. 9b)");
    Ok(())
}
