//! A discrete-event disk-array simulator.
//!
//! The HV paper's timing experiments (Fig. 6c, 7a, 9b) ran on a 16-spindle
//! SAS array; this crate is the synthetic stand-in (see DESIGN.md §2).
//! The paper's timing results are driven by *how many elements each disk
//! must serve* and *how serialized the recovery chains are* — exactly what
//! a queueing model captures — so the simulator models:
//!
//! * per-disk FIFO service with a seek-latency + bandwidth cost per element
//!   request ([`profile::DiskProfile`]);
//! * batches of element requests issued simultaneously, completing when the
//!   slowest disk drains ([`array::DiskArray`]) — fed either as index lists
//!   ([`array::DiskArray::run_batch`]) or as the per-disk
//!   [`raid_core::io::RequestSet`] a lowered volume operation produced
//!   ([`array::DiskArray::run_requests`]), so timing and accounting consume
//!   the same stream;
//! * failed disks that reject I/O ([`array::DiskArray::fail_disk`]);
//! * parallel recovery-chain execution for double-failure repair
//!   ([`recovery`]), combining the paper's `Lc · Re` critical-path model
//!   with an aggregate-bandwidth floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod profile;
pub mod queue;
pub mod recovery;

pub use array::{DiskArray, DiskError, ErrorClass};
pub use profile::DiskProfile;
pub use queue::DiskQueues;
