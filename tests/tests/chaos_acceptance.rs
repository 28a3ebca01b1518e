//! Acceptance for the self-healing volume: fixed-seed chaos campaigns of
//! at least 100 episodes per backend, including crash-at-every-undo-log-
//! point sweeps and latent-sector injections, must complete with zero
//! integrity violations, and crash-interrupted rebuilds must resume from
//! the persisted checkpoint rather than stripe 0.

use std::sync::Arc;

use hv_code::HvCode;
use raid_array::chaos::{self, ChaosConfig};
use raid_core::ArrayCode;

fn code() -> Arc<dyn ArrayCode> {
    Arc::new(HvCode::new(5).unwrap())
}

#[test]
fn chaos_hundred_episodes_per_backend_zero_violations() {
    let dir = integration::TempDir::new("hvraid_chaos_accept");
    let cfg = ChaosConfig {
        seed: 0xACCE_97ED,
        episodes: 100,
        dir: Some(dir.path().to_path_buf()),
        crash_sweeps: true,
        ..ChaosConfig::default()
    };
    let report = match chaos::run(&code(), &cfg) {
        Ok(report) => report,
        Err(failure) => panic!("{failure}"),
    };

    // 100 in-memory + 100 file-backed episodes, all verified end-to-end.
    assert_eq!(report.episodes, 200);
    assert!(report.verifications >= 200, "{report}");
    // The campaign actually exercised the failure machinery: dead disks,
    // transients (retry/backoff), latent sectors, and torn writes.
    assert!(report.faults_dead > 0, "{report}");
    assert!(report.faults_transient > 0, "{report}");
    assert!(report.faults_latent > 0, "{report}");
    assert!(report.faults_torn > 0, "{report}");
    // The crash sweeps walked every undo-log point of a boundary-crossing
    // write and observed at least one journal rollback on reopen…
    assert!(report.crash_points > 0, "{report}");
    assert!(report.journal_rollbacks > 0, "{report}");
    // …and at least one crash-interrupted rebuild resumed from a persisted
    // checkpoint (next_stripe > 0) instead of restarting at stripe 0.
    assert!(report.resumed_rebuilds > 0, "{report}");
}

#[test]
fn chaos_campaign_is_deterministic_per_seed() {
    let a = chaos::run(
        &code(),
        &ChaosConfig { seed: 7, episodes: 20, ..ChaosConfig::default() },
    )
    .unwrap();
    let b = chaos::run(
        &code(),
        &ChaosConfig { seed: 7, episodes: 20, ..ChaosConfig::default() },
    )
    .unwrap();
    assert_eq!(a, b);
}
