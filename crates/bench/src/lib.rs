//! The benchmark harness regenerating every table and figure of the HV
//! Code paper's evaluation (Section V).
//!
//! Each experiment lives in [`experiments`] and is runnable through the
//! `repro` binary:
//!
//! ```text
//! cargo run --release -p raid-bench --bin repro -- all
//! cargo run --release -p raid-bench --bin repro -- fig6a fig6b fig6c
//! cargo run --release -p raid-bench --bin repro -- fig7a fig7b fig9a fig9b table3
//! ```
//!
//! Absolute numbers depend on the modeled disk profile (DESIGN.md §2);
//! what must match the paper is the *shape*: which code wins, by roughly
//! what factor, and where the crossovers are. EXPERIMENTS.md records the
//! paper-vs-measured comparison produced by this harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codes;
pub mod experiments;
pub mod report;
