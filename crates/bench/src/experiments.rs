//! One module per paper artifact.
//!
//! * [`fig6`] — partial-stripe-write efficiency (Fig. 6a/6b/6c);
//! * [`fig7`] — degraded reads (Fig. 7a/7b);
//! * [`fig8`] — the worked single-disk recovery plan of Fig. 8;
//! * [`fig9`] — single- and double-failure recovery (Fig. 9a/9b);
//! * [`table3`] — the structural comparison of Table III;
//! * [`ablation`] — an extra study: stripe rotation vs parity spreading.

pub mod ablation;
pub mod complexity;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table3;

use std::sync::Arc;

use raid_array::RaidVolume;
use raid_core::ArrayCode;

/// Common data-element address space shared by every code in the write and
/// read experiments, so each code serves the identical logical workload.
pub const DATA_SPACE: usize = 2400;

/// Element size used by the in-memory volumes. Timing uses the disk
/// profile's 16 MB elements; the in-memory payload can stay small.
pub const ELEMENT_BYTES: usize = 8;

/// Builds a volume for `code` with at least [`DATA_SPACE`] data elements.
pub fn volume_for(code: &Arc<dyn ArrayCode>) -> RaidVolume {
    let per_stripe = code.layout().num_data_cells();
    let stripes = DATA_SPACE.div_ceil(per_stripe);
    RaidVolume::in_memory(Arc::clone(code), stripes, ELEMENT_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::evaluated;

    #[test]
    fn volumes_cover_the_common_space() {
        for code in evaluated(7) {
            let v = volume_for(&code);
            assert!(v.data_elements() >= DATA_SPACE, "{}", v.code().name());
        }
    }
}
