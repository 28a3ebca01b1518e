//! Generic engine for XOR-based MDS array codes (RAID-6).
//!
//! Every array code in this workspace — the paper's HV Code and the baseline
//! RDP, EVENODD, X-Code, H-Code, HDP and P-Code — is described to this crate
//! as a [`layout::Layout`]: a grid of cells, a kind (data / parity) for each
//! cell, and a set of **parity chains** (each parity cell is the XOR of its
//! chain members). Everything else is generic machinery operating on that
//! description:
//!
//! * [`stripe`] — element buffers and chain-driven encoding;
//! * [`xplan`] — compiled XOR plans: encode/decode/recovery geometry
//!   lowered once to flat buffer-index operations, interpreted per stripe
//!   with no allocation (tiled for large elements);
//! * [`xopt`] — the plan-optimizing middle-end: shared partial sums become
//!   scratch temps, dead ops are dropped, ops are reordered for locality;
//! * [`decoder`] — peeling + GF(2) Gaussian erasure decoding, used both as a
//!   reference decoder and to prove the MDS property exhaustively in tests;
//! * [`schedule`] — double-failure recovery schedules: the recovery-chain
//!   structure (how many independent chains, longest chain `Lc`) that drives
//!   the paper's Fig. 9(b);
//! * [`plan`] — I/O planners: parity-update closure (update complexity),
//!   partial-stripe-write cost (Fig. 6), degraded reads (Fig. 7), and the
//!   hybrid-chain single-disk recovery optimizer (Fig. 9a);
//! * [`io`] — per-disk request sets, the cumulative [`io::IoLedger`], and
//!   the load-balancing rate λ of Eq. (7);
//! * [`stats`] — the shared percentile and latency-histogram math the
//!   service front-end reports from;
//! * [`invariants`] — structural checkers shared by every code's test suite.
//!
//! The trait [`code::ArrayCode`] ties a layout to its construction
//! parameters; code crates implement it and inherit all planners.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::needless_range_loop, clippy::redundant_clone)]

pub mod bitset;
pub mod code;
pub mod decoder;
pub mod geometry;
pub mod invariants;
pub mod io;
pub mod layout;
pub mod plan;
pub mod schedule;
pub mod scrub;
pub mod spec;
pub mod stats;
pub mod stripe;
pub mod xopt;
pub mod xplan;

pub use code::ArrayCode;
pub use geometry::Cell;
pub use layout::{Chain, ChainId, ElementKind, Layout};
pub use stripe::Stripe;
pub use xplan::XorPlan;
