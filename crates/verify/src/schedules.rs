//! Exhaustive small-model checking of the executor's concurrent
//! protocols, over the [`interleave`] explorer.
//!
//! The partitioned executor rests on two hand-rolled protocols, each
//! otherwise guarded only by proptests that *sample* orderings:
//!
//! * the **work-stealing cursor** of `run_partitioned` — per-partition
//!   `AtomicUsize::fetch_add` claims plus a `Mutex` slot per stripe;
//! * the **sharded ledger merge** — worker-private [`LedgerShard`]s
//!   aggregated by [`IoLedger::merge_shards`], which promises
//!   order-independent totals.
//!
//! Each is modeled here at loom granularity (one atomic transition per
//! step) and checked against its *sequential* specification across
//! **every** interleaving of a bounded configuration — turning "any
//! shuffled order == sequential" from a sampled property into exhaustive
//! small-model checking. The models are deliberately tiny (2 workers, a
//! handful of stripes): exhaustiveness over a small model catches
//! protocol-logic races (lost claims, double execution, order-dependent
//! merges), which is the failure class these protocols can actually
//! have — they contain no unsafe code, so memory-model bugs are out of
//! scope by construction (and `make tsan-smoke` covers the real
//! executable separately).

use std::fmt;
use std::ops::Range;

use interleave::{explore, ExploreError, Explored, Model};
use raid_core::io::{IoLedger, LedgerShard, RequestSet};

/// A failed schedule exploration, tagged with the model that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// The model ("cursor", "merge").
    pub model: &'static str,
    /// The explorer's counterexample or budget overflow.
    pub error: ExploreError,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} model: {}", self.model, self.error)
    }
}

impl std::error::Error for ScheduleError {}

/// One model's exhaustive pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelResult {
    /// The model name.
    pub model: &'static str,
    /// Configurations checked.
    pub configs: usize,
    /// Complete schedules explored across all configurations.
    pub schedules: u64,
    /// Longest schedule seen.
    pub max_depth: usize,
}

/// Complete schedules any single configuration may have; beyond this the
/// model is too big to call "exhaustively checked".
const BUDGET: u64 = 2_000_000;

// ---------------------------------------------------------------------------
// Cursor model: run_partitioned's work-stealing claim protocol
// ---------------------------------------------------------------------------

/// Per-worker program state for [`CursorModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct CursorWorker {
    /// Partition visit order: owned partitions first, then stealable —
    /// the same `p % threads == w` split `run_partitioned` uses.
    order: Vec<usize>,
    /// Position in `order`.
    at: usize,
    /// A stripe index claimed by `fetch_add` whose slot is not yet taken
    /// — the window between the two atomic steps.
    pending: Option<usize>,
}

/// The work-stealing cursor protocol of `run_partitioned`, at atomic
/// granularity: step A is one `cursors[p].fetch_add(1, Relaxed)` (claim
/// by ticket), step B is the `Mutex` slot take (hand-off of the stripe).
/// A worker that draws a ticket `>= end` moves to its next partition.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CursorModel {
    parts: Vec<Range<usize>>,
    cursors: Vec<usize>,
    /// Slot taken (stripe handed to exactly one worker so far).
    taken: Vec<bool>,
    workers: Vec<CursorWorker>,
}

impl CursorModel {
    fn new(parts: Vec<Range<usize>>, nworkers: usize) -> Self {
        let stripes = parts.last().map_or(0, |r| r.end);
        let cursors = parts.iter().map(|r| r.start).collect();
        let nparts = parts.len();
        let workers = (0..nworkers)
            .map(|w| {
                let owned = (0..nparts).filter(|p| p % nworkers == w);
                let stealable = (0..nparts).filter(|p| p % nworkers != w);
                CursorWorker { order: owned.chain(stealable).collect(), at: 0, pending: None }
            })
            .collect();
        CursorModel { parts, cursors, taken: vec![false; stripes], workers }
    }
}

impl Model for CursorModel {
    fn threads(&self) -> usize {
        self.workers.len()
    }

    fn done(&self, w: usize) -> bool {
        let worker = &self.workers[w];
        worker.pending.is_none() && worker.at >= worker.order.len()
    }

    fn step(&mut self, w: usize) -> Result<(), String> {
        if let Some(i) = self.workers[w].pending.take() {
            // Slot take: the Mutex hand-off. The ticket from fetch_add is
            // unique, so the slot must still be unclaimed.
            if self.taken[i] {
                return Err(format!("stripe {i} claimed twice (worker {w})"));
            }
            self.taken[i] = true;
            return Ok(());
        }
        let worker = &self.workers[w];
        let p = worker.order[worker.at];
        let ticket = self.cursors[p];
        self.cursors[p] += 1;
        if ticket >= self.parts[p].end {
            self.workers[w].at += 1;
        } else {
            self.workers[w].pending = Some(ticket);
        }
        Ok(())
    }

    fn invariant(&self) -> Result<(), String> {
        // Overshoot bound: each worker draws at most one ticket past
        // `end` per partition (it advances immediately), so a cursor can
        // never exceed end + nworkers.
        for (p, range) in self.parts.iter().enumerate() {
            let bound = range.end + self.workers.len();
            if self.cursors[p] > bound {
                return Err(format!(
                    "cursor {p} overshot: {} > end {} + {} workers",
                    self.cursors[p],
                    range.end,
                    self.workers.len()
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if let Some(i) = self.taken.iter().position(|&t| !t) {
            return Err(format!("stripe {i} never executed"));
        }
        for (p, range) in self.parts.iter().enumerate() {
            if self.cursors[p] < range.end {
                return Err(format!("cursor {p} stopped before its range end"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Merge model: sharded ledgers vs the sequential single ledger
// ---------------------------------------------------------------------------

/// Sharded-ledger accounting under work stealing: workers claim stripes
/// from a shared cursor (one atomic step) and absorb each stripe's
/// [`RequestSet`] into their *private* [`LedgerShard`] (a second step —
/// private state, but its timing window is modeled so the claim→absorb
/// gap is explored too). Every interleaving assigns stripes to workers
/// differently; [`IoLedger::merge_shards`] must erase that difference.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MergeModel {
    sets: Vec<RequestSet>,
    disks: usize,
    cursor: usize,
    shards: Vec<LedgerShard>,
    pending: Vec<Option<usize>>,
    finished: Vec<bool>,
}

impl MergeModel {
    fn new(disks: usize, sets: Vec<RequestSet>, nworkers: usize) -> Self {
        MergeModel {
            sets,
            disks,
            cursor: 0,
            shards: (0..nworkers).map(|w| LedgerShard::new(w, disks)).collect(),
            pending: vec![None; nworkers],
            finished: vec![false; nworkers],
        }
    }

    /// The sequential specification: one ledger absorbing every set in
    /// stripe order on a single thread.
    fn sequential(&self) -> IoLedger {
        let mut ledger = IoLedger::new(self.disks);
        for rs in &self.sets {
            ledger.absorb(rs);
        }
        ledger
    }
}

impl Model for MergeModel {
    fn threads(&self) -> usize {
        self.shards.len()
    }

    fn done(&self, w: usize) -> bool {
        self.finished[w]
    }

    fn step(&mut self, w: usize) -> Result<(), String> {
        if let Some(i) = self.pending[w].take() {
            self.shards[w].absorb(&self.sets[i]);
            return Ok(());
        }
        if self.cursor < self.sets.len() {
            self.pending[w] = Some(self.cursor);
            self.cursor += 1;
        } else {
            self.finished[w] = true;
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let merged = IoLedger::merge_shards(self.disks, self.shards.clone());
        let seq = self.sequential();
        if merged.reads() != seq.reads() || merged.writes() != seq.writes() {
            return Err(format!(
                "merge_shards diverged from the sequential ledger: \
                 merged reads {:?} writes {:?}, sequential reads {:?} writes {:?}",
                merged.reads(),
                merged.writes(),
                seq.reads(),
                seq.writes()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The two gates
// ---------------------------------------------------------------------------

fn run<M: Model>(
    model: &'static str,
    configs: &[M],
) -> Result<ModelResult, ScheduleError> {
    let mut result = ModelResult { model, configs: configs.len(), schedules: 0, max_depth: 0 };
    for m in configs {
        let Explored { schedules, max_depth } =
            explore(m, BUDGET).map_err(|error| ScheduleError { model, error })?;
        result.schedules += schedules;
        result.max_depth = result.max_depth.max(max_depth);
    }
    Ok(result)
}

/// Exhaustively checks the work-stealing cursor protocol: even splits,
/// a skewed map, and the all-stealers-on-one-partition stress shape.
///
/// # Errors
///
/// The first counterexample schedule.
// The `vec!`s here hold partition *intervals*, not element lists —
// `vec![0..2]` really is one two-stripe partition.
#[allow(clippy::single_range_in_vec_init)]
pub fn check_cursor_model() -> Result<ModelResult, ScheduleError> {
    run(
        "cursor",
        &[
            // Two workers over an even 2-partition split.
            CursorModel::new(vec![0..2, 2..3], 2),
            // Skewed: one partition holds everything; worker 1 can only
            // steal.
            CursorModel::new(vec![0..3, 3..3], 2),
            // Both workers hammer a single shared cursor — the maximal
            // overshoot case (cursor may reach end + workers).
            CursorModel::new(vec![0..2], 2),
        ],
    )
}

/// Exhaustively checks shard merging against the sequential
/// single-ledger model, under every work-stealing stripe assignment.
///
/// # Errors
///
/// The first counterexample schedule.
pub fn check_merge_model() -> Result<ModelResult, ScheduleError> {
    // Distinct per-stripe request sets so a mis-assignment or double
    // absorb is visible in the totals.
    let sets: Vec<RequestSet> = (0..4)
        .map(|i| {
            let mut rs = RequestSet::new(3);
            rs.add_reads(i % 3, (i + 1) as u64);
            rs.add_data_write((i + 1) % 3);
            if i % 2 == 0 {
                rs.add_parity_write(2);
            }
            rs
        })
        .collect();
    run(
        "merge",
        &[MergeModel::new(3, sets.clone(), 2), MergeModel::new(3, sets[..3].to_vec(), 3)],
    )
}

/// Runs both protocol models exhaustively.
///
/// # Errors
///
/// The first [`ScheduleError`] (counterexample schedule or budget
/// overflow).
pub fn check_all_models() -> Result<Vec<ModelResult>, ScheduleError> {
    Ok(vec![check_cursor_model()?, check_merge_model()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_pass_exhaustively() {
        let results = check_all_models().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.schedules > 0, "{} explored nothing", r.model);
        }
        // The cursor model must actually explore concurrency, not a
        // single serialized path.
        assert!(results[0].schedules > 100, "cursor: {}", results[0].schedules);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // vec![0..2]: one 2-stripe partition
    fn a_broken_cursor_protocol_is_caught() {
        // Sabotage: both workers' claim step reads the cursor without
        // advancing it atomically — model the classic read/increment
        // split by giving two workers the same ticket.
        #[derive(Clone)]
        struct Broken(CursorModel);
        impl Model for Broken {
            fn threads(&self) -> usize {
                self.0.threads()
            }
            fn done(&self, w: usize) -> bool {
                self.0.done(w)
            }
            fn step(&mut self, w: usize) -> Result<(), String> {
                if self.0.workers[w].pending.is_none() {
                    let p = self.0.workers[w].order[self.0.workers[w].at];
                    let ticket = self.0.cursors[p];
                    // Non-atomic: claim the ticket WITHOUT advancing the
                    // cursor; a second worker stepping here dupes it.
                    if ticket >= self.0.parts[p].end {
                        self.0.cursors[p] += 1;
                        self.0.workers[w].at += 1;
                    } else {
                        self.0.workers[w].pending = Some(ticket);
                    }
                    return Ok(());
                }
                self.0.step(w)
            }
            fn check_final(&self) -> Result<(), String> {
                self.0.check_final()
            }
        }
        let err = explore(&Broken(CursorModel::new(vec![0..2], 2)), 100_000).unwrap_err();
        let ExploreError::Violation { detail, .. } = err else { panic!("expected violation") };
        assert!(detail.contains("claimed twice"), "{detail}");
    }
}
