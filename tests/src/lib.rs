//! Shared fixtures for the cross-crate integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hv_code::HvCode;
use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};
use raid_core::ArrayCode;

/// Every XOR array code in the workspace at prime `p`.
///
/// # Panics
///
/// Panics if `p` is not a prime ≥ 5.
pub fn all_codes(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    vec![
        Arc::new(HvCode::new(p).expect("prime p >= 5")) as Arc<dyn ArrayCode>,
        Arc::new(RdpCode::new(p).expect("prime")),
        Arc::new(EvenOddCode::new(p).expect("prime")),
        Arc::new(XCode::new(p).expect("prime")),
        Arc::new(HCode::new(p).expect("prime p >= 5")),
        Arc::new(HdpCode::new(p).expect("prime p >= 5")),
        Arc::new(PCode::new(p).expect("prime")),
        Arc::new(LiberationCode::new(p).expect("prime")),
    ]
}

/// Deterministic payload bytes.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u8
        })
        .collect()
}

/// A scratch directory under the system temp dir that no other test —
/// in this process or another — shares, removed on drop (so also when
/// the test fails).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Reserves `<tmp>/<tag>-<pid>-<n>` with `n` unique per process. The
    /// directory itself is not created: `FileBackend::create` does that.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
