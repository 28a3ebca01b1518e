//! The code roster of the paper's evaluation.

use std::sync::Arc;

use hv_code::HvCode;
use raid_baselines::{EvenOddCode, HCode, HdpCode, PCode, RdpCode, XCode};
use raid_core::ArrayCode;

/// The five codes of the paper's headline figures, in the paper's plotting
/// order: RDP (p+1 disks), HDP (p−1), X-Code (p), H-Code (p+1), HV (p−1).
///
/// # Panics
///
/// Panics if `p` is not a prime ≥ 5 (the evaluation sweeps only such `p`).
pub fn evaluated(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    vec![
        Arc::new(RdpCode::new(p).expect("prime p")) as Arc<dyn ArrayCode>,
        Arc::new(HdpCode::new(p).expect("prime p >= 5")),
        Arc::new(XCode::new(p).expect("prime p")),
        Arc::new(HCode::new(p).expect("prime p >= 5")),
        Arc::new(HvCode::new(p).expect("prime p >= 5")),
    ]
}

/// The extended roster (background-section codes included) of the
/// Section IV complexity table.
///
/// # Panics
///
/// Panics if `p` is not a prime ≥ 5.
pub fn extended(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    let mut v = evaluated(p);
    v.push(Arc::new(EvenOddCode::new(p).expect("prime p")));
    v.push(Arc::new(PCode::new(p).expect("prime p")));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_disks() {
        let codes = evaluated(13);
        let disks: Vec<usize> = codes.iter().map(|c| c.disks()).collect();
        assert_eq!(disks, vec![14, 12, 13, 14, 12]);
        let names: Vec<&str> = codes.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["RDP", "HDP", "X-Code", "H-Code", "HV Code"]);
    }

    #[test]
    fn extended_adds_background_codes() {
        let codes = extended(7);
        assert_eq!(codes.len(), 7);
        assert_eq!(codes[5].name(), "EVENODD");
        assert_eq!(codes[6].name(), "P-Code");
    }
}
