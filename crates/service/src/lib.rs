//! A concurrent block-device front-end over [`raid_array::RaidVolume`].
//!
//! This crate turns the single-caller volume library into a served
//! system: many clients — in-process [`ServiceHandle`]s or unix-socket
//! sessions speaking the [`proto`] line protocol — issue element
//! read/write/flush ops that funnel through one **stripe-aware
//! scheduler** ([`scheduler`]):
//!
//! * ops are admitted under queue-depth backpressure (typed
//!   [`ServiceError::Busy`]) and a per-session token bucket
//!   ([`ServiceError::Throttled`]);
//! * queued ops drain under deficit-round-robin across tenants, so a hot
//!   writer cannot starve a reader;
//! * each drained batch is dispatched in arrival order into the volume's
//!   write-back stripe cache, which is the one place writes merge — N
//!   tenants' small writes to one stripe become one parity-sharing flush
//!   instead of N read-modify-writes;
//! * per-op enqueue→completion latency lands in the shared
//!   [`raid_core::stats`] histograms, reported per tenant class by
//!   [`metrics`] in Prometheus text format.
//!
//! `hvraid serve` / `hvraid connect` / `hvraid stats` expose it end to
//! end; `tests/tests/service_conformance.rs` pins its answers and the
//! cache's I/O saving, and `hvbench`'s two service workloads time it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod proto;
pub mod scheduler;
pub mod server;

pub use metrics::prometheus_text;
pub use scheduler::{
    Service, ServiceConfig, ServiceError, ServiceHandle, ServiceStats, TenantClass, TenantStats,
};
pub use server::{fetch_stats, run_script, serve, ServerConfig};
