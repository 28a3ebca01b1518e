//! Structural comparison of every implemented RAID-6 code — the expanded
//! Table III, computed live from the layouts.
//!
//! ```text
//! cargo run -p hv-examples --bin code_comparison [p]
//! ```

use std::sync::Arc;

use hv_code::HvCode;
use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};
use raid_core::invariants;
use raid_core::plan::update::update_complexity;
use raid_core::schedule::double_failure_schedule;
use raid_core::ArrayCode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p: usize = std::env::args().nth(1).map(|s| s.parse()).transpose()?.unwrap_or(13);

    let codes: Vec<Arc<dyn ArrayCode>> = vec![
        Arc::new(RdpCode::new(p)?),
        Arc::new(EvenOddCode::new(p)?),
        Arc::new(HdpCode::new(p)?),
        Arc::new(XCode::new(p)?),
        Arc::new(HCode::new(p)?),
        Arc::new(PCode::new(p)?),
        Arc::new(LiberationCode::new(p)?),
        Arc::new(HvCode::new(p)?),
    ];

    println!("XOR array codes at p = {p}:\n");
    println!(
        "{:>9}  {:>5}  {:>7}  {:>9}  {:>7}  {:>7}  {:>10}  {:>13}",
        "code", "disks", "eff %", "upd cmplx", "chains", "max len", "par/disk", "MDS verified"
    );

    for code in &codes {
        let layout = code.layout();
        let n = layout.cols();
        // Verify MDS live (exhaustive for the chosen p).
        let mds = invariants::find_undecodable_pair(layout).is_none();
        let mut min_chains = usize::MAX;
        for f1 in 0..n {
            for f2 in (f1 + 1)..n {
                min_chains =
                    min_chains.min(double_failure_schedule(layout, f1, f2)?.num_chains);
            }
        }
        let max_len = layout
            .chain_length_histogram()
            .into_iter()
            .map(|(len, _)| len)
            .max()
            .unwrap_or(0);
        let parities = invariants::parities_per_column(layout);
        let spread = format!(
            "{}..{}",
            parities.iter().min().unwrap(),
            parities.iter().max().unwrap()
        );
        println!(
            "{:>9}  {:>5}  {:>7.1}  {:>9.2}  {:>7}  {:>7}  {:>10}  {:>13}",
            code.name(),
            n,
            code.storage_efficiency() * 100.0,
            update_complexity(layout),
            min_chains,
            max_len,
            spread,
            if mds { "yes" } else { "NO!" },
        );
    }

    println!("\n(cf. Table III of the paper; 'chains' = min parallel recovery chains)");
    Ok(())
}
