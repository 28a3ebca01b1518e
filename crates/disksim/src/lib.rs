//! The disk model: what a disk costs and how it fails.
//!
//! The HV paper's timing experiments (Fig. 6c, 7a, 9b) ran on a 16-spindle
//! SAS array; this crate is the synthetic stand-in (see DESIGN.md §2).
//! Those results depend only on how many elements each disk serves and on
//! how long the recovery chains are, so one constant carries the time:
//! [`DiskProfile::element_service_ms`], the paper's `Re`. An operation's
//! request sets are served one after another, each as fast as its busiest
//! disk, so an op costs its busiest disks' element counts × `Re`; and a
//! double-failure rebuild costs `Lc · Re` (§V-D).
//!
//! [`DiskError`] is what a backend reports when a disk refuses a transfer,
//! and [`ErrorClass`] is how the volume's recovery driver dispatches on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod profile;

pub use error::{DiskError, ErrorClass};
pub use profile::DiskProfile;
