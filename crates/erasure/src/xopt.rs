//! Plan-optimizing middle-end between plan compilation and execution.
//!
//! [`optimize`] rewrites an [`XorPlan`] into a cheaper plan computing the
//! same GF(2) function of the stripe's initial contents, in three passes:
//!
//! 1. **Partial-sum sharing (CSE)** — any source set shared by two or more
//!    ops becomes one value computed once. Two flavours, picked greedily
//!    by saved reads: *output reuse* (the set is exactly some op's whole
//!    source list, so later ops read that op's target instead — this is
//!    how the optimizer rediscovers RDP/HDP's parity cascades from the
//!    expanded specification form) and *temp extraction* (the shared set
//!    becomes a scratch temp in the plan's arena — EVENODD's S-adjuster
//!    diagonal, shared by every diagonal chain, is the canonical win).
//! 2. **Dead-op elimination** — ops whose target is never read and is not
//!    in the plan's output set are dropped (backward liveness).
//! 3. **Locality reordering** — list scheduling over the dependency DAG,
//!    greedily picking the ready op sharing the most sources with the
//!    previously scheduled one, so consecutive kernel calls re-touch
//!    cache-hot buffers.
//!
//! # Soundness
//!
//! Sharing a set `S` across ops is only valid if every participant reads
//! the *same version* of each cell in `S`: for every `c ∈ S` written at
//! position `w(c)`, the pass requires `w(c)` to fall entirely before or
//! entirely after all participating positions. Plans that are not
//! single-assignment, or that carry duplicate sources, are returned
//! unchanged. As a belt-and-braces guard, the optimizer symbolically
//! executes original and candidate over GF(2) and falls back to the
//! original on any mismatch — and `raid-verify`'s `prove_equivalent`
//! re-proves the same property independently for every plan the codes
//! actually cache.
//!
//! The optimizer never returns a plan with more source reads than its
//! input (lint asserts this for every registered code).

use std::collections::BTreeSet;

use crate::bitset::BitSet;
use crate::xplan::XorPlan;

/// A set of buffer indices as packed words — the optimizer's working
/// representation. Intersection, subset and difference are a handful of
/// `u64` ops, which is what keeps the greedy sharing search fast on the
/// large decode plans (EVENODD at p = 17 compiles to ops with ~2p
/// sources each). `Ord` is lexicographic on the word vector,
/// giving the candidate walk a deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
struct Mask {
    words: Vec<u64>,
}

impl Mask {
    fn insert(&mut self, i: u32) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    fn contains(&self, i: u32) -> bool {
        let w = (i / 64) as usize;
        w < self.words.len() && self.words[w] & (1 << (i % 64)) != 0
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ∩ other`, trimmed of trailing zero words (so equal sets
    /// always compare equal regardless of how they were built).
    fn intersect(&self, other: &Mask) -> Mask {
        let mut words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        while words.last() == Some(&0) {
            words.pop();
        }
        Mask { words }
    }

    fn is_subset(&self, other: &Mask) -> bool {
        self.words.iter().enumerate().all(|(w, &bits)| {
            bits & !other.words.get(w).copied().unwrap_or(0) == 0
        })
    }

    /// Removes every bit of `other` from `self`.
    fn subtract(&mut self, other: &Mask) {
        for (w, bits) in self.words.iter_mut().zip(&other.words) {
            *w &= !bits;
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }

    fn overlap(&self, other: &Mask) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl FromIterator<u32> for Mask {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Mask {
        let mut m = Mask::default();
        for i in iter {
            m.insert(i);
        }
        m
    }
}

/// What [`optimize`] did to one plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Ops in the input plan.
    pub ops_before: usize,
    /// Source reads in the input plan.
    pub reads_before: usize,
    /// Ops in the optimized plan (including temp-producing ops).
    pub ops_after: usize,
    /// Source reads in the optimized plan.
    pub reads_after: usize,
    /// Scratch temps the optimized plan allocates per execution.
    pub temps: usize,
    /// Ops removed as dead (target never read, not an output).
    pub dead_removed: usize,
}

/// One op during optimization: target index + source index *set* (XOR is
/// commutative/associative and the input had no duplicate sources, so a
/// set loses nothing).
#[derive(Debug, Clone)]
struct Op {
    dst: u32,
    srcs: Mask,
}

/// How the best CSE candidate of a round is applied.
enum Action {
    /// Consumers (positions) replace set `s` with producer op's target.
    Reuse { producer: usize, consumers: Vec<usize>, s: Mask },
    /// A fresh temp `t = XOR(s)` is inserted before position `first`,
    /// and all users replace `s` with the temp.
    Temp { users: Vec<usize>, first: usize, s: Mask },
}

/// Optimizes `plan`; returns the rewritten plan and what changed.
///
/// The result always computes the same GF(2) function of the stripe's
/// initial contents for every cell in the plan's output set, and never
/// has more source reads than `plan`. On plans the passes cannot safely
/// reason about (duplicate sources, multiple writes to one target) the
/// input is returned unchanged.
pub fn optimize(plan: &XorPlan) -> (XorPlan, OptStats) {
    let mut stats = OptStats {
        ops_before: plan.num_ops(),
        reads_before: plan.num_source_reads(),
        ops_after: plan.num_ops(),
        reads_after: plan.num_source_reads(),
        temps: plan.num_temps(),
        ..OptStats::default()
    };
    let ncells = plan.rows() * plan.cols();
    let mut nbufs = ncells + plan.num_temps();

    // Parse into set-based ops; bail (return the input unchanged) on
    // shapes the sharing passes can't reason about.
    let mut ops: Vec<Op> = Vec::with_capacity(plan.num_ops());
    let mut written = Mask::default();
    for view in plan.step_views() {
        let srcs: Mask = view.srcs.iter().copied().collect();
        if srcs.len() != view.srcs.len() {
            return (plan.clone(), stats); // duplicate sources
        }
        if written.contains(view.dst) {
            return (plan.clone(), stats); // not single-assignment
        }
        written.insert(view.dst);
        ops.push(Op { dst: view.dst, srcs });
    }

    let outputs: Vec<u32> = plan.output_indices();
    let output_set: BTreeSet<u32> = outputs.iter().copied().collect();

    // Pass 1: greedy partial-sum sharing. The candidate pool (pairwise
    // source-set intersections) is built once and maintained
    // incrementally: an action only changes the ops it rewired, so only
    // pairs involving those ops can mint new candidates; candidates that
    // drop below two users are pruned inside `best_sharing`.
    let mut cands: BTreeSet<Mask> = BTreeSet::new();
    let mint = |cands: &mut BTreeSet<Mask>, ops: &[Op], changed: &[usize]| {
        for &i in changed {
            for (j, other) in ops.iter().enumerate() {
                if i != j && ops[i].srcs.overlap(&other.srcs) >= 2 {
                    cands.insert(ops[i].srcs.intersect(&other.srcs));
                }
            }
        }
    };
    let all: Vec<usize> = (0..ops.len()).collect();
    mint(&mut cands, &ops, &all);
    while let Some(action) = best_sharing(&mut cands, &ops, nbufs as u32) {
        let changed: Vec<usize> = match action {
            Action::Reuse { producer, consumers, s } => {
                let pd = ops[producer].dst;
                for &u in &consumers {
                    let op = &mut ops[u];
                    op.srcs.subtract(&s);
                    op.srcs.insert(pd);
                }
                consumers
            }
            Action::Temp { users, first, s } => {
                let t = nbufs as u32;
                nbufs += 1;
                for &u in &users {
                    let op = &mut ops[u];
                    op.srcs.subtract(&s);
                    op.srcs.insert(t);
                }
                ops.insert(first, Op { dst: t, srcs: s });
                // The insertion shifted every position at or past `first`.
                users
                    .into_iter()
                    .map(|u| if u >= first { u + 1 } else { u })
                    .chain([first])
                    .collect()
            }
        };
        mint(&mut cands, &ops, &changed);
    }

    // Pass 2: dead-op elimination (backward liveness against the output
    // set; temps are never outputs, so an unused temp dies here too).
    let mut live: Mask = output_set.iter().copied().collect();
    let mut keep = vec![false; ops.len()];
    for i in (0..ops.len()).rev() {
        if live.contains(ops[i].dst) {
            keep[i] = true;
            for s in ops[i].srcs.iter() {
                live.insert(s);
            }
        }
    }
    let before = ops.len();
    let mut kept = Vec::with_capacity(ops.len());
    for (op, k) in ops.into_iter().zip(&keep) {
        if *k {
            kept.push(op);
        }
    }
    let dead_removed = before - kept.len();
    let ops = reorder_for_locality(kept);

    let reads_after: usize = ops.iter().map(|op| op.srcs.len()).sum();
    if reads_after > stats.reads_before {
        return (plan.clone(), stats);
    }

    // Belt-and-braces: symbolic GF(2) self-check against the input.
    if !equivalent(plan, &ops, ncells, nbufs, &output_set) {
        debug_assert!(false, "xopt produced a non-equivalent plan");
        return (plan.clone(), stats);
    }

    let indexed: Vec<(u32, Vec<u32>)> =
        ops.iter().map(|op| (op.dst, op.srcs.iter().collect())).collect();
    let optimized = XorPlan::from_indexed_ops(
        plan.rows(),
        plan.cols(),
        nbufs - ncells,
        &indexed,
        Some(outputs),
    );
    stats.ops_after = optimized.num_ops();
    stats.reads_after = optimized.num_source_reads();
    stats.temps = optimized.num_temps();
    stats.dead_removed = dead_removed;
    (optimized, stats)
}

/// Finds the sharing action with the largest positive read saving this
/// round, or `None` when no profitable sharing remains. Deterministic:
/// candidates are visited in sorted order and only a strictly better
/// saving displaces the current best. Candidates that no longer have two
/// users are removed from the pool (pairs the caller rewires later mint
/// their intersections afresh).
fn best_sharing(cands: &mut BTreeSet<Mask>, ops: &[Op], nbufs: u32) -> Option<Action> {
    // Writer position per buffer index (plans here are single-assignment).
    let mut writer: Vec<Option<usize>> = vec![None; nbufs as usize];
    for (i, op) in ops.iter().enumerate() {
        writer[op.dst as usize] = Some(i);
    }
    // The same version of every shared cell must be visible to all
    // participating positions: its writer lies entirely before or
    // entirely after them.
    let consistent = |s: &Mask, lo: usize, hi: usize| {
        s.iter().all(|c| match writer[c as usize] {
            None => true,
            Some(w) => w < lo || w > hi,
        })
    };

    let mut best: Option<(usize, Action)> = None;
    let consider = |saving: usize, action: Action, best: &mut Option<(usize, Action)>| {
        if saving > 0 && best.as_ref().is_none_or(|(b, _)| saving > *b) {
            *best = Some((saving, action));
        }
    };

    let mut dead: Vec<Mask> = Vec::new();
    for s in cands.iter() {
        let users: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| s.is_subset(&op.srcs))
            .map(|(k, _)| k)
            .collect();
        if users.len() < 2 {
            dead.push(s.clone());
            continue;
        }

        // Output reuse: the earliest op computing exactly XOR(s) feeds
        // every later user directly.
        if let Some(&producer) = users.iter().find(|&&k| ops[k].srcs == *s) {
            let pd = ops[producer].dst;
            let consumers: Vec<usize> = users
                .iter()
                .copied()
                .filter(|&u| u > producer && !ops[u].srcs.contains(pd))
                .collect();
            if !consumers.is_empty() {
                let hi = *consumers.last().expect("non-empty");
                if consistent(s, producer, hi) {
                    let saving = consumers.len() * (s.len() - 1);
                    consider(
                        saving,
                        Action::Reuse { producer, consumers, s: s.clone() },
                        &mut best,
                    );
                }
            }
        }

        // Temp extraction: compute XOR(s) once into a scratch temp.
        let (lo, hi) = (users[0], *users.last().expect("non-empty"));
        if consistent(s, lo, hi) {
            let gross = users.len() * (s.len() - 1);
            if gross > s.len() {
                consider(
                    gross - s.len(),
                    Action::Temp { users: users.clone(), first: lo, s: s.clone() },
                    &mut best,
                );
            }
        }
    }
    for s in dead {
        cands.remove(&s);
    }
    best.map(|(_, a)| a)
}

/// List-schedules ops over their dependency DAG, greedily picking the
/// ready op that shares the most sources with the previously scheduled
/// one (ties: original order). True dependencies (read-after-write) and
/// anti-dependencies (read-before-overwrite) are both preserved.
fn reorder_for_locality(ops: Vec<Op>) -> Vec<Op> {
    let n = ops.len();
    if n <= 2 {
        return ops;
    }
    let writer: std::collections::BTreeMap<u32, usize> =
        ops.iter().enumerate().map(|(i, op)| (op.dst, i)).collect();
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (j, op) in ops.iter().enumerate() {
        for c in op.srcs.iter() {
            if let Some(&w) = writer.get(&c) {
                if w < j {
                    edges.insert((w, j)); // true dep: writer before reader
                } else if w > j {
                    edges.insert((j, w)); // anti dep: reader before overwrite
                }
            }
        }
    }
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out: Vec<Op> = Vec::with_capacity(n);
    let mut prev_srcs: Option<Mask> = None;
    let mut scheduled = vec![false; n];
    while let Some(pos) = {
        // Pick the ready op with max source overlap with the previous op.
        let mut pick: Option<(usize, usize)> = None; // (overlap, ready idx)
        for (ri, &i) in ready.iter().enumerate() {
            let overlap = prev_srcs
                .as_ref()
                .map_or(0, |p| p.overlap(&ops[i].srcs));
            let better = match pick {
                None => true,
                Some((bo, bri)) => overlap > bo || (overlap == bo && i < ready[bri]),
            };
            if better {
                pick = Some((overlap, ri));
            }
        }
        pick.map(|(_, ri)| ri)
    } {
        let i = ready.swap_remove(pos);
        scheduled[i] = true;
        prev_srcs = Some(ops[i].srcs.clone());
        for &next in &adj[i] {
            indeg[next] -= 1;
            if indeg[next] == 0 {
                ready.push(next);
            }
        }
        out.push(ops[i].clone());
    }
    debug_assert!(scheduled.iter().all(|&s| s), "dependency cycle in plan");
    if out.len() != n {
        // A cycle would mean the input plan was malformed; keep its order.
        return ops;
    }
    out
}

/// Symbolically executes `plan` and the candidate op list over GF(2)
/// (basis = the grid's initial contents, temps start at zero) and checks
/// every output cell — plus every grid cell the candidate writes — ends
/// with the same expression.
fn equivalent(
    plan: &XorPlan,
    cand: &[Op],
    ncells: usize,
    nbufs: usize,
    outputs: &BTreeSet<u32>,
) -> bool {
    let run = |steps: &mut dyn Iterator<Item = (u32, Vec<u32>)>| -> Vec<BitSet> {
        let mut state: Vec<BitSet> = (0..nbufs)
            .map(|i| {
                let mut b = BitSet::new(ncells);
                if i < ncells {
                    b.insert(i);
                }
                b
            })
            .collect();
        for (dst, srcs) in steps {
            let mut acc = BitSet::new(ncells);
            for s in srcs {
                acc.xor_with(&state[s as usize]);
            }
            state[dst as usize] = acc;
        }
        state
    };
    let orig = run(&mut plan
        .step_views()
        .map(|v| (v.dst, v.srcs.to_vec())));
    let new = run(&mut cand
        .iter()
        .map(|op| (op.dst, op.srcs.iter().collect())));
    let mut must_match: BTreeSet<u32> = outputs.clone();
    must_match.extend(cand.iter().map(|op| op.dst).filter(|&d| (d as usize) < ncells));
    must_match
        .iter()
        .all(|&c| orig[c as usize] == new[c as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Cell;
    use crate::stripe::Stripe;

    /// Three ops sharing the pair {0,1}: worth a temp only with ≥3 users.
    #[test]
    fn temp_extraction_requires_profit() {
        // Two users of a 2-set: gross 2·1 = 2 ≤ |S| = 2 → no action.
        let two = XorPlan::from_steps(
            1,
            6,
            [
                (Cell::new(0, 4), &[Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)][..]),
                (Cell::new(0, 5), &[Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 3)][..]),
            ],
        );
        let (opt, st) = optimize(&two);
        assert_eq!(st.reads_after, st.reads_before);
        assert_eq!(opt.num_temps(), 0);
    }

    #[test]
    fn shared_triple_becomes_one_temp() {
        // Three parities each read {d0,d1,d2} plus one private cell:
        // 12 reads → temp(3) + 2 + 2, then the third op (identical
        // sources to the first) collapses to a 1-read copy of it: 8.
        let cells: Vec<Cell> = (0..8).map(|c| Cell::new(0, c)).collect();
        let shared = [cells[0], cells[1], cells[2]];
        let mk = |extra: Cell, parity: Cell| {
            let mut v = shared.to_vec();
            v.push(extra);
            (parity, v)
        };
        let steps = [mk(cells[3], cells[5]), mk(cells[4], cells[6]), mk(cells[3], cells[7])];
        let plan =
            XorPlan::from_steps(1, 8, steps.iter().map(|(t, s)| (*t, s.as_slice())));
        let (opt, st) = optimize(&plan);
        assert_eq!(st.reads_before, 12);
        assert_eq!(st.reads_after, 8);
        assert_eq!(opt.num_temps(), 1);
        assert_eq!(opt.num_ops(), 4);

        // Byte-identical execution.
        let mut a = Stripe::zeroed(1, 8, 128);
        for c in 0..5 {
            let cell = Cell::new(0, c);
            for (k, b) in a.element_mut(cell).iter_mut().enumerate() {
                *b = (c as u8 + 1).wrapping_mul(k as u8 | 1);
            }
        }
        let mut b = a.clone();
        plan.execute(&mut a);
        opt.execute(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn whole_op_reuse_rewires_consumers() {
        // p = d0^d1^d2; q = d0^d1^d2^d3 → q = p^d3.
        let d: Vec<Cell> = (0..4).map(|c| Cell::new(0, c)).collect();
        let p = Cell::new(0, 4);
        let q = Cell::new(0, 5);
        let plan = XorPlan::from_steps(
            1,
            6,
            [(p, &[d[0], d[1], d[2]][..]), (q, &[d[0], d[1], d[2], d[3]][..])],
        );
        let (opt, st) = optimize(&plan);
        assert_eq!(st.reads_before, 7);
        assert_eq!(st.reads_after, 5); // p: 3 reads, q: {p, d3}
        assert_eq!(opt.num_temps(), 0);
        let steps: Vec<(Cell, Vec<Cell>)> = opt.steps().collect();
        let qstep = steps.iter().find(|(t, _)| *t == q).unwrap();
        assert!(qstep.1.contains(&p));
    }

    #[test]
    fn version_inconsistent_sharing_is_refused() {
        // op0: x = a^b ; op1: a = c^d (overwrites a) ; op2: y = a^b^e.
        // {a,b} is shared by op0 and op2 but they read different versions
        // of a — no sharing may occur, and the plan must stay correct.
        let a = Cell::new(0, 0);
        let b = Cell::new(0, 1);
        let c = Cell::new(0, 2);
        let d = Cell::new(0, 3);
        let e = Cell::new(0, 4);
        let x = Cell::new(0, 5);
        let y = Cell::new(0, 6);
        let plan = XorPlan::from_steps(
            1,
            7,
            [(x, &[a, b][..]), (a, &[c, d][..]), (y, &[a, b, e][..])],
        );
        let (opt, _) = optimize(&plan);
        let mut s0 = Stripe::zeroed(1, 7, 64);
        for col in 0..5 {
            let cell = Cell::new(0, col);
            for (k, byte) in s0.element_mut(cell).iter_mut().enumerate() {
                *byte = (col as u8) ^ (k as u8).wrapping_mul(17);
            }
        }
        let mut s1 = s0.clone();
        plan.execute(&mut s0);
        opt.execute(&mut s1);
        assert_eq!(s0, s1);
    }

    #[test]
    fn dead_ops_are_dropped() {
        // op0 writes a scratch grid cell nobody reads; outputs say only p.
        let d0 = Cell::new(0, 0);
        let d1 = Cell::new(0, 1);
        let junk = Cell::new(0, 2);
        let p = Cell::new(0, 3);
        let plan = XorPlan::from_steps(1, 4, [(junk, &[d0][..]), (p, &[d0, d1][..])]);
        // Restrict outputs to p via a round-trip through from_indexed_ops.
        let indexed: Vec<(u32, Vec<u32>)> =
            plan.step_views().map(|v| (v.dst, v.srcs.to_vec())).collect();
        let restricted = XorPlan::from_indexed_ops(1, 4, 0, &indexed, Some(vec![3]));
        let (opt, st) = optimize(&restricted);
        assert_eq!(st.dead_removed, 1);
        assert_eq!(opt.num_ops(), 1);
        assert_eq!(opt.output_indices(), vec![3]);
    }

    #[test]
    fn reorder_respects_anti_dependencies() {
        // op0 reads a's initial value; op1 overwrites a. Any reordering
        // placing op1 first corrupts op0's read.
        let a = Cell::new(0, 0);
        let b = Cell::new(0, 1);
        let x = Cell::new(0, 2);
        let plan = XorPlan::from_steps(1, 3, [(x, &[a, b][..]), (a, &[b][..])]);
        let (opt, _) = optimize(&plan);
        let mut s0 = Stripe::zeroed(1, 3, 32);
        s0.element_mut(a).fill(0xAA);
        s0.element_mut(b).fill(0x0F);
        let mut s1 = s0.clone();
        plan.execute(&mut s0);
        opt.execute(&mut s1);
        assert_eq!(s0, s1);
    }

    #[test]
    fn optimizer_never_increases_reads() {
        // A plan with no sharing at all must come back unchanged in cost.
        let d: Vec<Cell> = (0..6).map(|c| Cell::new(0, c)).collect();
        let plan = XorPlan::from_steps(
            1,
            8,
            [(Cell::new(0, 6), &[d[0], d[1]][..]), (Cell::new(0, 7), &[d[2], d[3]][..])],
        );
        let (opt, st) = optimize(&plan);
        assert!(st.reads_after <= st.reads_before);
        assert_eq!(opt.num_source_reads(), plan.num_source_reads());
    }
}
