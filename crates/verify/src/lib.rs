//! `raid-verify` — a symbolic GF(2) static analyzer for the workspace's
//! two intermediate representations.
//!
//! Everything this workspace executes against disk buffers is first
//! compiled to one of two IRs: [`raid_core::XorPlan`] (flat
//! `dst = XOR(srcs)` programs) and `raid_array`'s `LoweredOp` (reads +
//! plan + writes). Both are small enough to *prove* correct rather than
//! merely test:
//!
//! * [`symbolic`] — the abstract domain: cells as GF(2) basis vectors,
//!   plan ops as row-XORs;
//! * [`plan_check`] — encode/decode plan provers and the exhaustive
//!   per-`p` MDS proof ([`plan_check::prove_mds`]);
//! * [`report`] — structural metrics checked against the paper's
//!   closed-form table values, rendered as JSON;
//! * [`journal`] — the crash-consistency proof: every crash prefix of
//!   every op the volume executes replays to all-old-or-all-new;
//! * the `LoweredOp` audit itself lives in `raid_array::audit` (this
//!   crate sits above `raid-array` in the dependency graph, so the
//!   pipeline can also self-audit under `debug_assertions`); it is
//!   re-exported here as [`audit`].
//!
//! The front doors are [`check_code`] / [`check_all`], used by
//! `hvraid lint`, `make verify`, and the tier-1 test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod journal;
pub mod plan_check;
pub mod report;
pub mod symbolic;

pub use raid_array::audit;

use std::sync::Arc;

use raid_array::Addressing;
use raid_core::{ArrayCode, Layout};

use plan_check::{prove_equivalent, prove_mds, verify_encode, PlanError};
use raid_core::XorPlan;
use report::{diff_expectation, paper_expectation, CodeMetrics, CodeReport};

/// Codes the analyzer (and the CLI, which delegates here) knows.
pub const CODE_NAMES: [&str; 8] =
    ["hv", "rdp", "evenodd", "xcode", "hcode", "hdp", "pcode", "liberation"];

/// The primes every code is verified at by [`check_all`]; matches the
/// paper's evaluation range.
pub const DEFAULT_PRIMES: [usize; 5] = [5, 7, 11, 13, 17];

/// Builds a registered code by name.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or invalid primes.
pub fn build(name: &str, p: usize) -> Result<Arc<dyn ArrayCode>, String> {
    use hv_code::HvCode;
    use raid_baselines::{EvenOddCode, HCode, HdpCode, LiberationCode, PCode, RdpCode, XCode};
    let err = |e: &dyn std::fmt::Display| format!("cannot build {name} at p={p}: {e}");
    match name {
        "hv" => HvCode::new(p).map(|c| Arc::new(c) as Arc<dyn ArrayCode>).map_err(|e| err(&e)),
        "rdp" => RdpCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "evenodd" => EvenOddCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "xcode" => XCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "hcode" => HCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "hdp" => HdpCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "pcode" => PCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e)),
        "liberation" => {
            LiberationCode::new(p).map(|c| Arc::new(c) as _).map_err(|e| err(&e))
        }
        other => Err(format!(
            "unknown code '{other}' (expected one of {})",
            CODE_NAMES.join(", ")
        )),
    }
}

/// A verification failure for one code at one prime.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// The code could not be constructed at this prime.
    Build(String),
    /// A plan failed symbolic verification.
    Plan(PlanError),
    /// A coalesced cache-flush program failed symbolic verification.
    Coalesce(coalesce::CoalesceError),
    /// An undo-journal crash prefix fails to restore all-old-or-all-new.
    Journal(journal::JournalError),
    /// The layout deviates from the paper's published table values.
    PaperMismatch(Vec<String>),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Build(msg) => write!(f, "{msg}"),
            CheckError::Plan(e) => write!(f, "{e}"),
            CheckError::Coalesce(e) => write!(f, "{e}"),
            CheckError::Journal(e) => write!(f, "{e}"),
            CheckError::PaperMismatch(diffs) => {
                write!(f, "layout deviates from the paper: {}", diffs.join("; "))
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Statically verifies one code at one prime: encode-plan proof, proof
/// that the cached (optimizer-rewritten) encode plan is GF(2)-equivalent
/// to the chain specification and never costs more reads than the
/// cascaded chain walk, exhaustive single/double-erasure MDS proof (which
/// itself re-proves every optimized decode plan), coalesced-flush proof,
/// all-crash-prefix journal proof over the ops the volume executes, and
/// paper-table check.
///
/// # Errors
///
/// Returns the first [`CheckError`]; plan failures carry the offending
/// symbolic equation in their `Display` form.
pub fn check_code(name: &str, p: usize) -> Result<CodeReport, CheckError> {
    let code = build(name, p).map_err(CheckError::Build)?;
    let layout = code.layout();

    let cached = layout.encode_plan();
    let encode = verify_encode(layout, cached).map_err(CheckError::Plan)?;
    // The optimized cached plan must be provably identical to both
    // specification forms, and must never read more than the cascaded
    // chain walk (the pre-optimizer plan) would.
    let cascaded = XorPlan::compile_encode(layout);
    let expanded = XorPlan::compile_encode_expanded(layout);
    prove_equivalent(&cascaded, cached).map_err(CheckError::Plan)?;
    prove_equivalent(&expanded, cached).map_err(CheckError::Plan)?;
    if cached.num_source_reads() > cascaded.num_source_reads() {
        return Err(CheckError::Plan(PlanError::TempHazard {
            detail: format!(
                "optimizer regressed encode reads: cascaded {} → cached {}",
                cascaded.num_source_reads(),
                cached.num_source_reads()
            ),
        }));
    }
    let mds = prove_mds(layout).map_err(CheckError::Plan)?;
    // The write-back cache's coalesced flush programs (both partial-write
    // modes, across representative dirty subsets) must compute exactly
    // the parity algebra over the double-height old/new grid.
    coalesce::prove_layout_flushes(layout).map_err(CheckError::Coalesce)?;
    // Replaying the undo journal from every crash prefix of the ops the
    // volume executes must restore exactly all-old or all-new, per stripe.
    let journal = journal::prove_layout_journal(layout).map_err(CheckError::Journal)?;

    let metrics = CodeMetrics::measure(layout);
    let paper_diffs = match paper_expectation(name, p) {
        Some(e) => diff_expectation(&metrics, &e),
        None => Vec::new(),
    };
    if !paper_diffs.is_empty() {
        return Err(CheckError::PaperMismatch(paper_diffs));
    }

    Ok(CodeReport {
        code: name.to_string(),
        p,
        metrics,
        encode_ops: encode.ops,
        encode_source_reads: encode.source_reads,
        encode_reads_spec: expanded.num_source_reads(),
        encode_reads_cascaded: cascaded.num_source_reads(),
        encode_temps: cached.num_temps(),
        mds_singles: mds.singles,
        mds_pairs: mds.pairs,
        journal_crash_points: journal.crash_points,
        paper_diffs,
    })
}

/// Rotation-free addressing for `layout`. Rotation permutes only the disk
/// column, never the index, so a proof over it carries over to every
/// rotated placement.
pub(crate) fn unrotated(layout: &Layout) -> Addressing {
    Addressing::new(layout.num_data_cells(), layout.cols(), false)
}

/// Runs [`check_code`] over every registered code at every default prime.
/// Returns all reports on success.
///
/// # Errors
///
/// Returns `(code, p, error)` for the first failing combination.
pub fn check_all() -> Result<Vec<CodeReport>, (String, usize, CheckError)> {
    let mut reports = Vec::with_capacity(CODE_NAMES.len() * DEFAULT_PRIMES.len());
    for name in CODE_NAMES {
        for p in DEFAULT_PRIMES {
            match check_code(name, p) {
                Ok(r) => reports.push(r),
                Err(e) => return Err((name.to_string(), p, e)),
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv_checks_clean_at_small_primes() {
        for p in [5usize, 7] {
            let r = check_code("hv", p).unwrap_or_else(|e| panic!("hv p={p}: {e}"));
            assert_eq!(r.mds_singles, p - 1);
            assert_eq!(r.mds_pairs, (p - 1) * (p - 2) / 2);
            assert!(r.paper_diffs.is_empty());
        }
    }

    #[test]
    fn every_registered_name_builds_at_default_primes() {
        for name in CODE_NAMES {
            for p in DEFAULT_PRIMES {
                build(name, p).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn unknown_code_is_a_build_error() {
        assert!(matches!(check_code("nope", 5), Err(CheckError::Build(_))));
    }
}
