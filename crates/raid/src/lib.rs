//! A RAID-6 controller over any [`raid_core::ArrayCode`].
//!
//! [`volume::RaidVolume`] is the piece a downstream user actually mounts:
//! it stripes a data-element address space over a pluggable
//! [`backend::DiskBackend`] (in-memory, file-per-disk, or fault-injecting),
//! performs read-modify-write partial stripe writes with incremental parity
//! updates, serves degraded reads while disks are failed, and rebuilds one
//! or two failed disks.
//!
//! Every operation is lowered by [`lower`] — the one module that builds
//! [`pipeline::LoweredOp`]s — into the single [`pipeline::IoPipeline`]:
//! element reads, a compiled [`raid_core::XorPlan`], element writes. The
//! pipeline executes that form against the backend, merges the op's
//! per-disk request set into the cumulative [`raid_core::io::IoLedger`] and
//! counts its busiest disk into the operation's disk time — so data
//! movement, modeled time, and the paper's request accounting always
//! agree.
//!
//! [`addr`] maps the linear data-element address space onto stripes and
//! optionally rotates stripes across disks ("stripe rotation", the
//! traditional balancing technique the paper contrasts with parity
//! spreading). [`replay`] drives a volume from workload traces and times
//! each pattern.
//! [`cache`] adds the write-back
//! stripe cache that coalesces co-located element writes into single
//! journal-atomic flushes sharing parity I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod audit;
pub mod backend;
pub mod cache;
pub mod chaos;
pub mod disk;
pub mod health;
pub mod lower;
pub mod pipeline;
pub mod replay;
pub mod volume;

pub use addr::Addressing;
pub use backend::{
    DiskBackend, Fault, FaultPoint, FaultyBackend, FileBackend,
    JournalEntry, JournalRecovery, MemBackend, RebuildCheckpoint, VolumeMeta,
};
pub use cache::CacheConfig;
pub use chaos::{ChaosConfig, ChaosReport};
pub use disk::{DiskError, DiskProfile, ErrorClass};
pub use health::{HealthMonitor, HealthState, RecoveryAction};
pub use pipeline::{DiskAddr, IoPipeline, LoweredOp};
pub use replay::{replay_read_patterns, replay_write_trace, ReadReplay, WriteReplay};
pub use volume::{disk_extent, RaidVolume, VolumeError};
