//! Randomized fault/crash campaigns against a live volume.
//!
//! The self-healing machinery ([`crate::health`], the journaled write
//! path, the checkpointed background rebuild) is only trustworthy if it
//! survives faults it did not choose. This module is the adversary: a
//! seeded, fully deterministic campaign that interleaves writes, degraded
//! reads, scrubs and rebuilds with injected faults from the whole
//! [`crate::disk::ErrorClass`] taxonomy — transient read glitches, latent
//! sectors, torn writes, dead disks (never more than RAID-6's two at
//! once) — and, for file-backed volumes, *crash sweeps*.
//!
//! A crash sweep is one loop that kills the simulated process at every
//! single operation boundary of an act: a multi-stripe write, a rebuild,
//! and (with the cache on) a coalesced flush of scattered cached writes.
//! At each crash point it writes a fresh baseline, runs the act under
//! [`Fault::CrashAtOp`], reopens the directory (journal recovery, then a
//! resumed rebuild from its checkpoint) and demands a consistent array:
//! no failed disk, every stripe all old or all new, parity that verifies.
//! Each act is a `CrashSweep` description; a new crash fault or a new
//! invariant is one edit to that loop.
//!
//! Every episode is verified against a shadow model (the bytes a perfect
//! volume would hold), and every receipt an operation returns against the
//! [`IoLedger`]'s growth over that operation. A failure reports the seed
//! and backend so the exact campaign replays with `hvraid chaos --seed N`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use raid_core::io::IoLedger;
use raid_core::{ArrayCode, Cell};

use crate::backend::{
    DiskBackend, Fault, FaultyBackend, FileBackend, JournalRecovery, MemBackend,
};
use crate::cache::CacheConfig;
use crate::health::MAX_RETRIES;
use crate::volume::{disk_extent, RaidVolume, VolumeError};

// ---------------------------------------------------------------------------
// Deterministic PRNG (splitmix64) — no external dependency, identical
// sequences on every platform, so a seed alone reproduces a campaign.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        (self.next_u64() >> 32) as u8
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

// ---------------------------------------------------------------------------
// Config / report / failure
// ---------------------------------------------------------------------------

/// Parameters of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every episode derives its own stream from it.
    pub seed: u64,
    /// Episodes to run per backend.
    pub episodes: usize,
    /// Randomized steps per episode.
    pub steps_per_episode: usize,
    /// Stripes per volume.
    pub stripes: usize,
    /// Element size in bytes.
    pub element_size: usize,
    /// Hot spares stocked per episode (drives auto-rebuild).
    pub spares: usize,
    /// Directory for file-backed episodes and crash sweeps; `None` runs
    /// the in-memory backend only.
    pub dir: Option<PathBuf>,
    /// Run the crash-at-every-op sweeps (file volumes only).
    pub crash_sweeps: bool,
    /// Run the episodes over the write-back stripe cache (with a small
    /// budget so the flush/eviction policy is exercised), and add the
    /// crash-with-dirty-cache sweep proving coalesced flushes are atomic.
    pub cache: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC0FFEE,
            episodes: 100,
            steps_per_episode: 12,
            stripes: 4,
            element_size: 16,
            spares: 2,
            dir: None,
            crash_sweeps: true,
            cache: true,
        }
    }
}

/// What a completed campaign did — every counter is deterministic in the
/// seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Episodes completed (summed over backends).
    pub episodes: usize,
    /// Randomized steps executed.
    pub steps: u64,
    /// Successful writes.
    pub writes: u64,
    /// Successful reads (healthy array).
    pub reads: u64,
    /// Successful reads served while degraded.
    pub degraded_reads: u64,
    /// Scrub passes completed.
    pub scrubs: u64,
    /// Foreground rebuilds completed.
    pub rebuilds: u64,
    /// Background `maintain` pump calls.
    pub maintain_calls: u64,
    /// Dead-disk faults injected (incl. explicit `fail_disk`).
    pub faults_dead: u64,
    /// Transient read faults injected.
    pub faults_transient: u64,
    /// Latent-sector faults injected.
    pub faults_latent: u64,
    /// Torn-write faults injected.
    pub faults_torn: u64,
    /// Crash points exercised by the sweeps.
    pub crash_points: u64,
    /// Reopens where the undo journal rolled a torn write back.
    pub journal_rollbacks: u64,
    /// Reopens that resumed a rebuild from a checkpoint past stripe 0.
    pub resumed_rebuilds: u64,
    /// Coalesced stripe flushes committed by the write-back cache.
    pub cache_flushes: u64,
    /// Crash points exercised with dirty cached stripes mid-flush.
    pub dirty_cache_crash_points: u64,
    /// End-of-episode full verifications that passed.
    pub verifications: u64,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos: {} episodes, {} steps, {} verifications — all consistent",
            self.episodes, self.steps, self.verifications
        )?;
        writeln!(
            f,
            "  ops: {} writes, {} reads ({} degraded), {} scrubs, {} rebuilds, {} maintain calls",
            self.writes,
            self.reads,
            self.degraded_reads,
            self.scrubs,
            self.rebuilds,
            self.maintain_calls
        )?;
        writeln!(
            f,
            "  faults: {} dead, {} transient, {} latent, {} torn",
            self.faults_dead, self.faults_transient, self.faults_latent, self.faults_torn
        )?;
        writeln!(
            f,
            "  crashes: {} points, {} journal rollbacks, {} checkpoint resumes",
            self.crash_points, self.journal_rollbacks, self.resumed_rebuilds
        )?;
        write!(
            f,
            "  cache: {} coalesced flushes, {} dirty-cache crash points",
            self.cache_flushes, self.dirty_cache_crash_points
        )
    }
}

/// An integrity violation found by a campaign: the master seed, the
/// backend and the phase. Replaying it takes the seed and every other
/// setting of the campaign's [`ChaosConfig`].
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The campaign's master seed.
    pub seed: u64,
    /// Backend kind the failing phase ran on (`"mem"`/`"file"`).
    pub backend: &'static str,
    /// Which phase failed (`"episode 17"`, `"crash-write sweep"`, …).
    pub phase: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos integrity failure [{} backend, {}, seed {}]: {}",
            self.backend, self.phase, self.seed, self.detail
        )
    }
}

impl std::error::Error for ChaosFailure {}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Runs the full campaign for `code`: `episodes` randomized episodes on
/// the in-memory backend, the same again on a file backend when
/// [`ChaosConfig::dir`] is set, plus the crash sweeps.
///
/// # Errors
///
/// Returns the first [`ChaosFailure`] — an integrity violation, never a
/// tolerated fault.
pub fn run(code: &Arc<dyn ArrayCode>, cfg: &ChaosConfig) -> Result<ChaosReport, ChaosFailure> {
    let mut report = ChaosReport::default();
    for ep in 0..cfg.episodes {
        run_episode(code, cfg, ep, None, &mut report)?;
    }
    if let Some(dir) = &cfg.dir {
        for ep in 0..cfg.episodes {
            run_episode(code, cfg, ep, Some(dir), &mut report)?;
        }
        if cfg.crash_sweeps {
            let per_stripe = code.layout().num_data_cells();
            crash_sweep(code, cfg, dir, write_sweep(per_stripe, cfg), &mut report)?;
            crash_sweep(code, cfg, dir, rebuild_sweep(per_stripe, cfg), &mut report)?;
            if report.resumed_rebuilds == 0 {
                let ctx = Episode { cfg, backend: "file", phase: "crash-rebuild sweep".into() };
                return Err(ctx.fail(
                    "no crash point resumed from a checkpoint past stripe 0 — \
                     rebuilds are restarting from scratch",
                ));
            }
            if cfg.cache {
                crash_sweep(code, cfg, dir, dirty_cache_sweep(per_stripe, cfg), &mut report)?;
            }
        }
    }
    Ok(report)
}

/// Seed for one episode's stream: decorrelated from neighbors and from
/// the other backend's episode of the same index.
fn episode_seed(master: u64, ep: usize, file_backed: bool) -> u64 {
    master
        .wrapping_add((ep as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(file_backed) << 63)
}

struct Episode<'a> {
    cfg: &'a ChaosConfig,
    backend: &'static str,
    phase: String,
}

impl Episode<'_> {
    fn fail(&self, detail: impl Into<String>) -> ChaosFailure {
        ChaosFailure {
            seed: self.cfg.seed,
            backend: self.backend,
            phase: self.phase.clone(),
            detail: detail.into(),
        }
    }

    fn check<T>(&self, r: Result<T, VolumeError>, what: &str) -> Result<T, ChaosFailure> {
        r.map_err(|e| self.fail(format!("{what}: {e}")))
    }

    /// Runs one receipt-returning operation and checks its receipt: it
    /// must be exactly what the volume's cumulative ledger grew by, the
    /// retries, repairs and flushes the op caused included.
    fn receipted<T>(
        &self,
        v: &mut RaidVolume,
        what: &str,
        op: impl FnOnce(&mut RaidVolume) -> Result<(T, IoLedger), VolumeError>,
    ) -> Result<T, ChaosFailure> {
        let before = v.ledger().clone();
        let (out, receipt) = self.check(op(v), what)?;
        let grew = v.ledger().delta_since(&before);
        if receipt != grew {
            return Err(self.fail(format!("{what}: receipt {receipt} but the ledger grew {grew}")));
        }
        Ok(out)
    }
}

/// An op that returns only its receipt, in the shape
/// [`Episode::receipted`] takes.
fn alone(receipt: Result<IoLedger, VolumeError>) -> Result<((), IoLedger), VolumeError> {
    receipt.map(|r| ((), r))
}

fn run_episode(
    code: &Arc<dyn ArrayCode>,
    cfg: &ChaosConfig,
    ep: usize,
    dir: Option<&Path>,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let ctx = Episode {
        cfg,
        backend: if dir.is_some() { "file" } else { "mem" },
        phase: format!("episode {ep}"),
    };
    let mut rng = Rng::new(episode_seed(cfg.seed, ep, dir.is_some()));
    let layout = code.layout();
    let epd = ctx.check(disk_extent(layout, cfg.stripes, cfg.element_size), "size disks")?;
    let ep_dir = dir.map(|d| d.join(format!("ep-{ep:04}")));
    let inner: Box<dyn DiskBackend> = match &ep_dir {
        Some(d) => Box::new(
            FileBackend::create(d, layout.cols(), epd, cfg.element_size)
                .map_err(|e| ctx.fail(format!("create file backend: {e}")))?,
        ),
        None => Box::new(MemBackend::new(layout.cols(), epd, cfg.element_size)),
    };
    let faulty = FaultyBackend::new(inner, Vec::new());
    let mut v = ctx.check(
        RaidVolume::new(Arc::clone(code), cfg.stripes, cfg.element_size, Box::new(faulty)),
        "open volume",
    )?;
    v.set_spares(cfg.spares);
    if cfg.cache {
        // A budget smaller than the working set plus a low high-water
        // mark keeps the flush and eviction policies hot under chaos.
        v.enable_cache(CacheConfig {
            max_stripes: cfg.stripes.max(2),
            dirty_high_water: 2,
        });
    }

    let es = cfg.element_size;
    let capacity = v.data_elements();
    let per_stripe = capacity / cfg.stripes;
    let mut shadow = vec![0u8; capacity * es];
    // Fault budget: disks that died (or were scheduled to) plus disks
    // carrying possibly-unrepaired latent sectors. Keeping the union at
    // two or fewer guarantees no stripe ever exceeds RAID-6's erasure
    // capability, so every injected fault MUST be survivable.
    let mut dead_risk: BTreeSet<usize> = BTreeSet::new();
    let mut latent_disks: BTreeSet<usize> = BTreeSet::new();
    let risk = |dead: &BTreeSet<usize>, lat: &BTreeSet<usize>| dead.union(lat).count();
    // Transient injections are capped per disk at the policy's retry
    // budget: more would legitimately escalate to disk-dead and blow the
    // two-disk budget above.
    let mut transient_budget: BTreeMap<usize, u32> = BTreeMap::new();

    for _ in 0..cfg.steps_per_episode {
        report.steps += 1;
        match rng.below(10) {
            // Write a random extent of random bytes.
            0..=3 => {
                let start = rng.below(capacity);
                let len = 1 + rng.below((capacity - start).min(per_stripe + 2));
                let data: Vec<u8> = (0..len * es).map(|_| rng.byte()).collect();
                ctx.receipted(&mut v, "write", |v| alone(v.write(start, &data)))?;
                shadow[start * es..(start + len) * es].copy_from_slice(&data);
                report.writes += 1;
            }
            // Read a random extent and compare against the shadow model.
            4..=5 => {
                let start = rng.below(capacity);
                let len = 1 + rng.below((capacity - start).min(per_stripe + 2));
                let degraded = !v.failed_disks().is_empty();
                let bytes = ctx.receipted(&mut v, "read", |v| v.read(start, len))?;
                if bytes != shadow[start * es..(start + len) * es] {
                    return Err(ctx.fail(format!(
                        "read [{start}, {}) diverged from shadow model",
                        start + len
                    )));
                }
                if degraded {
                    report.degraded_reads += 1;
                } else {
                    report.reads += 1;
                }
            }
            // Kill a disk — via the backend (the volume discovers it on
            // the next op) or the explicit admin path, 50/50.
            6 => {
                let disk = rng.below(v.disks());
                let mut prospective = dead_risk.clone();
                prospective.insert(disk);
                if risk(&prospective, &latent_disks) <= 2 {
                    dead_risk.insert(disk);
                    report.faults_dead += 1;
                    if rng.coin() {
                        ctx.check(v.fail_disk(disk), "fail_disk")?;
                    } else {
                        v.backend_faulty_mut()
                            .expect("chaos volume wraps a FaultyBackend")
                            .inject(Fault::Dead { disk });
                    }
                }
            }
            // Transient read glitch: safe while the disk's episode total
            // stays within the retry policy.
            7 => {
                let disk = rng.below(v.disks());
                let used = transient_budget.entry(disk).or_insert(0);
                let ops = (1 + rng.below(2) as u32).min(MAX_RETRIES.saturating_sub(*used));
                if ops > 0 {
                    *used += ops;
                    v.backend_faulty_mut()
                        .expect("chaos volume wraps a FaultyBackend")
                        .inject(Fault::Transient { disk, ops });
                    report.faults_transient += 1;
                }
            }
            // Latent sector, or — on a fully healthy array — a torn
            // write aimed at an element the next write will touch.
            8 => {
                if risk(&dead_risk, &latent_disks) == 0 && rng.coin() {
                    // Torn write: arm the fault on one element of the
                    // extent we are about to write, write, then scrub —
                    // the scrubber must localize and repair the tear.
                    let start = rng.below(capacity);
                    let len = 1 + rng.below((capacity - start).min(per_stripe));
                    let victim = start + rng.below(len);
                    let (disk, index) =
                        v.locate_data_element(victim).expect("victim in range");
                    v.backend_faulty_mut()
                        .expect("chaos volume wraps a FaultyBackend")
                        .inject(Fault::TornWrite { disk, index });
                    report.faults_torn += 1;
                    let data: Vec<u8> = (0..len * es).map(|_| rng.byte()).collect();
                    ctx.receipted(&mut v, "torn write", |v| alone(v.write(start, &data)))?;
                    shadow[start * es..(start + len) * es].copy_from_slice(&data);
                    report.writes += 1;
                    if cfg.cache {
                        // The cache absorbed the write; the armed tear
                        // fires on the coalesced flush, so force it out
                        // before the scrub goes looking for it.
                        ctx.receipted(&mut v, "flush torn write", |v| alone(v.flush()))?;
                    }
                    ctx.check(v.scrub(), "scrub after torn write")?;
                    report.scrubs += 1;
                    if !v.verify_all() {
                        return Err(ctx.fail(
                            "parity inconsistent after torn write + scrub".to_string(),
                        ));
                    }
                } else {
                    let disk = rng.below(v.disks());
                    let mut prospective = latent_disks.clone();
                    prospective.insert(disk);
                    if risk(&dead_risk, &prospective) <= 2 {
                        let index = rng.below(epd);
                        v.backend_faulty_mut()
                            .expect("chaos volume wraps a FaultyBackend")
                            .inject(Fault::LatentSector { disk, index });
                        latent_disks.insert(disk);
                        report.faults_latent += 1;
                    }
                }
            }
            // Pump the background healer (checkpointed, budgeted), or
            // scrub when healthy. Cached runs sometimes take the explicit
            // flush barrier instead.
            _ => {
                if cfg.cache && rng.below(3) == 0 {
                    ctx.receipted(&mut v, "flush", |v| alone(v.flush()))?;
                } else if rng.coin() {
                    let budget = 1 + rng.below(cfg.stripes);
                    ctx.receipted(&mut v, "maintain", |v| alone(v.maintain(budget)))?;
                    report.maintain_calls += 1;
                } else if v.failed_disks().is_empty() {
                    match v.scrub() {
                        Ok(_) => {
                            // Every element was read: any outstanding
                            // latent sector has been repaired in place.
                            latent_disks.clear();
                            report.scrubs += 1;
                        }
                        // Scrub discovered a dead disk mid-pass and the
                        // array went degraded under it — a tolerated
                        // outcome, not an integrity violation.
                        Err(VolumeError::TooManyFailures { .. }) => {}
                        Err(e) => return Err(ctx.fail(format!("scrub: {e}"))),
                    }
                }
            }
        }
    }

    // Settle: finish every rebuild (the backend may still hide injected
    // deaths the next pass will surface), flush latents with a scrub,
    // then verify everything.
    for _ in 0..8 {
        ctx.receipted(&mut v, "settle rebuild", |v| alone(v.rebuild()))?;
        report.rebuilds += 1;
        match v.scrub() {
            Ok(_) => {
                latent_disks.clear();
                dead_risk.clear();
                break;
            }
            // A hidden dead disk surfaced during the scrub: rebuild again.
            Err(VolumeError::TooManyFailures { .. }) => continue,
            Err(e) => return Err(ctx.fail(format!("settle scrub: {e}"))),
        }
    }
    if !v.failed_disks().is_empty() || !dead_risk.is_empty() {
        return Err(ctx.fail(format!(
            "array did not settle healthy: failed={:?}",
            v.failed_disks()
        )));
    }
    let bytes = ctx.receipted(&mut v, "final read", |v| v.read(0, capacity))?;
    if bytes != shadow {
        return Err(ctx.fail("final contents diverged from shadow model".to_string()));
    }
    if !v.verify_all() {
        return Err(ctx.fail("parity inconsistent after settle".to_string()));
    }

    let ledger = v.ledger();
    report.cache_flushes += ledger.cache_flushes();
    report.verifications += 1;
    report.episodes += 1;
    drop(v);
    if let Some(d) = ep_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Crash sweeps (file backend)
// ---------------------------------------------------------------------------

/// Deterministic baseline contents for the sweeps.
fn baseline(capacity: usize, es: usize, seed: u8) -> Vec<u8> {
    (0..capacity * es)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

/// One crash sweep: an act on a file volume that [`crash_sweep`] kills at
/// every op in turn. Which elements the act may change is not listed: it
/// is where `want` differs from `old`.
struct CrashSweep {
    /// The phase a [`ChaosFailure`] names.
    phase: &'static str,
    /// Sub-directory of [`ChaosConfig::dir`] the volume lives in.
    subdir: &'static str,
    /// The contents written before every crash point.
    old: Vec<u8>,
    /// The contents once the act has completed.
    want: Vec<u8>,
    /// Runs on the baseline volume after its write.
    setup: fn(&mut RaidVolume) -> Result<(), VolumeError>,
    /// The act, run under the crash fault: whether it completed.
    act: Box<dyn Fn(&mut RaidVolume) -> bool>,
    /// Runs on the recovered volume, given what journal recovery did,
    /// before its contents are checked; counts what the crash point
    /// showed beyond [`ChaosReport::crash_points`].
    after_recovery: AfterRecovery,
}

/// [`CrashSweep::after_recovery`].
type AfterRecovery =
    fn(&mut RaidVolume, Option<JournalRecovery>, &mut ChaosReport) -> Result<(), VolumeError>;

/// A write of `[per_stripe − 2, +4)`: it crosses a stripe boundary, so
/// it is two journaled segments.
fn write_sweep(per_stripe: usize, cfg: &ChaosConfig) -> CrashSweep {
    let es = cfg.element_size;
    let old = baseline(per_stripe * cfg.stripes, es, 3);
    let start = per_stripe - 2;
    let len = 4.min(per_stripe * cfg.stripes - start);
    let new: Vec<u8> = (0..len * es).map(|i| (i as u8).wrapping_mul(101) ^ 0x5A).collect();
    let mut want = old.clone();
    want[start * es..(start + len) * es].copy_from_slice(&new);
    CrashSweep {
        phase: "crash-write sweep",
        subdir: "crash-write",
        old,
        want,
        setup: |_| Ok(()),
        act: Box::new(move |v| v.write(start, &new).is_ok()),
        after_recovery: |_, recovery, report| {
            report.journal_rollbacks += rollbacks(recovery);
            Ok(())
        },
    }
}

/// A rebuild of disk `2 % cols`, failed after the baseline write. A
/// spare keeps the failed disk's bytes, so the set-up first flips a byte
/// of every element on it: only a rebuild that rewrites every stripe
/// gives back the baseline. The reopen resumes the rebuild from its
/// checkpoint; [`run`] fails the campaign if no crash point resumed past
/// stripe 0, the sign of rebuilds restarting from scratch. Its journal
/// rollbacks are not counted.
fn rebuild_sweep(per_stripe: usize, cfg: &ChaosConfig) -> CrashSweep {
    let old = baseline(per_stripe * cfg.stripes, cfg.element_size, 9);
    CrashSweep {
        phase: "crash-rebuild sweep",
        subdir: "crash-rebuild",
        want: old.clone(),
        old,
        setup: |v| {
            let col = 2 % v.disks();
            for stripe in 0..v.stripes() {
                for row in 0..v.code().rows() {
                    v.inject_corruption(stripe, Cell { row, col }, 0)?;
                }
            }
            v.fail_disk(col)
        },
        act: Box::new(|v| v.rebuild().is_ok()),
        after_recovery: |v, _, report| {
            if v.rebuild_progress().is_some_and(|cp| cp.next_stripe > 0) {
                report.resumed_rebuilds += 1;
            }
            v.rebuild().map(drop)
        },
    }
}

/// Scattered writes absorbed by the write-back cache (touching no disk),
/// then `flush()`, which pushes each dirty stripe out as one journaled
/// coalesced op. The extents are non-contiguous within stripe 0, so the
/// flush really coalesces, and reach into stripe 1, so it is two ops.
fn dirty_cache_sweep(per_stripe: usize, cfg: &ChaosConfig) -> CrashSweep {
    let (es, stripes) = (cfg.element_size, cfg.stripes);
    let old = baseline(per_stripe * stripes, es, 7);
    let extents = [
        (0, 2),
        (per_stripe.saturating_sub(2).max(3), 2.min(per_stripe)),
        (per_stripe + 1, 2.min(per_stripe * stripes - per_stripe - 1)),
    ];
    let writes: Vec<(usize, Vec<u8>)> = extents
        .iter()
        .enumerate()
        .map(|(i, &(start, len))| {
            let bytes = start * es..(start + len) * es;
            (start, bytes.map(|at| (at as u8).wrapping_mul(59) ^ (0x11 << i)).collect())
        })
        .collect();
    let mut want = old.clone();
    for (start, bytes) in &writes {
        want[start * es..][..bytes.len()].copy_from_slice(bytes);
    }
    CrashSweep {
        phase: "crash-dirty-cache sweep",
        subdir: "crash-cache",
        old,
        want,
        setup: |_| Ok(()),
        act: Box::new(move |v| {
            // A budget this generous flushes nothing early: every write
            // below is pure cache traffic.
            v.enable_cache(CacheConfig {
                max_stripes: stripes + 2,
                dirty_high_water: stripes + 2,
            });
            writes.iter().all(|(start, bytes)| v.write(*start, bytes).is_ok()) && v.flush().is_ok()
        }),
        after_recovery: |_, recovery, report| {
            report.dirty_cache_crash_points += 1;
            report.journal_rollbacks += rollbacks(recovery);
            Ok(())
        },
    }
}

/// 1 if journal recovery rolled a torn write back, else 0.
fn rollbacks(recovery: Option<JournalRecovery>) -> u64 {
    u64::from(matches!(recovery, Some(JournalRecovery::RolledBack { .. })))
}

/// How [`open_sweep_volume`] opens a sweep's directory.
enum Open {
    /// A new volume, created over whatever the directory held.
    Baseline,
    /// The volume on disk, its backend killed at op `at_op`.
    CrashAt(u64),
    /// The volume on disk, after journal recovery.
    Recovered,
}

/// Opens the sweep volume in `d`, with what journal recovery did.
fn open_sweep_volume(
    ctx: &Episode<'_>,
    code: &Arc<dyn ArrayCode>,
    d: &Path,
    how: Open,
) -> Result<(RaidVolume, Option<JournalRecovery>), ChaosFailure> {
    let (cfg, cols) = (ctx.cfg, code.layout().cols());
    let backend = match how {
        Open::Baseline => {
            let per_disk = disk_extent(code.layout(), cfg.stripes, cfg.element_size);
            FileBackend::create(d, cols, ctx.check(per_disk, "size disks")?, cfg.element_size)
        }
        Open::CrashAt(_) | Open::Recovered => FileBackend::open(d),
    }
    .map_err(|e| ctx.fail(format!("open {}: {e}", d.display())))?;
    let recovery = backend.recovered_journal();
    let backend: Box<dyn DiskBackend> = match how {
        Open::CrashAt(at_op) => Box::new(
            FaultyBackend::new(Box::new(backend), Vec::new())
                .with_faults([Fault::CrashAtOp { at_op }]),
        ),
        Open::Baseline | Open::Recovered => Box::new(backend),
    };
    let v = ctx.check(
        RaidVolume::new(Arc::clone(code), cfg.stripes, cfg.element_size, backend),
        "open volume",
    )?;
    Ok((v, recovery))
}

/// Runs `sweep` at every crash point `k = 0, 1, …` until its act
/// completes: on a fresh baseline, the act is killed at op `k`; the
/// reopen runs journal recovery, then `after_recovery`; then no disk may
/// be failed, each stripe must hold all of its old contents or all of its
/// new ones (all new once the act completed), and parity must verify.
fn crash_sweep(
    code: &Arc<dyn ArrayCode>,
    cfg: &ChaosConfig,
    dir: &Path,
    sweep: CrashSweep,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let ctx = Episode { cfg, backend: "file", phase: sweep.phase.to_string() };
    let d = dir.join(sweep.subdir);
    let per_stripe = code.layout().num_data_cells();
    let stripe_bytes = per_stripe * cfg.element_size;
    for k in 0.. {
        let (mut v, _) = open_sweep_volume(&ctx, code, &d, Open::Baseline)?;
        ctx.check(v.write(0, &sweep.old), "baseline write")?;
        ctx.check((sweep.setup)(&mut v), "set-up")?;
        drop(v);

        let (mut v, _) = open_sweep_volume(&ctx, code, &d, Open::CrashAt(k))?;
        let completed = (sweep.act)(&mut v);
        drop(v);
        report.crash_points += 1;

        let (mut v, recovery) = open_sweep_volume(&ctx, code, &d, Open::Recovered)?;
        ctx.check((sweep.after_recovery)(&mut v, recovery, report), "after recovery")?;
        let failed = v.failed_disks();
        if !failed.is_empty() {
            return Err(ctx.fail(format!("crash point {k}: disks {failed:?} still failed")));
        }
        let (bytes, _) = ctx.check(v.read(0, per_stripe * cfg.stripes), "read after recovery")?;
        if completed && bytes != sweep.want {
            return Err(ctx.fail(format!(
                "crash point {k}: the act completed but the contents differ"
            )));
        }
        for stripe in 0..cfg.stripes {
            let at = stripe * stripe_bytes..(stripe + 1) * stripe_bytes;
            let got = &bytes[at.clone()];
            if got != &sweep.old[at.clone()] && got != &sweep.want[at] {
                return Err(ctx.fail(format!(
                    "crash point {k}: stripe {stripe} is torn (neither all old nor all new)"
                )));
            }
        }
        if !v.verify_all() {
            return Err(ctx.fail(format!(
                "crash point {k}: parity inconsistent after recovery"
            )));
        }
        if completed {
            break; // the crash point is past the whole act
        }
    }
    let _ = std::fs::remove_dir_all(&d);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_code::HvCode;

    fn code() -> Arc<dyn ArrayCode> {
        Arc::new(HvCode::new(5).unwrap())
    }

    #[test]
    fn prng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn mem_campaign_smoke() {
        let cfg = ChaosConfig {
            episodes: 10,
            crash_sweeps: false,
            ..Default::default()
        };
        let report = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.episodes, 10);
        assert_eq!(report.verifications, 10);
        assert!(report.writes > 0);
        assert!(report.cache_flushes > 0, "cached episodes must coalesce flushes");
    }

    #[test]
    fn mem_campaign_without_cache_smoke() {
        let cfg = ChaosConfig {
            episodes: 4,
            crash_sweeps: false,
            cache: false,
            ..Default::default()
        };
        let report = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.episodes, 4);
        assert_eq!(report.cache_flushes, 0);
    }

    #[test]
    fn a_shape_no_disk_can_hold_fails_the_episode_instead_of_wrapping() {
        // 2⁶² stripes × 4 rows is 2⁶⁴ elements per disk: 0 once wrapped.
        let cfg = ChaosConfig { episodes: 1, stripes: 1 << 62, ..Default::default() };
        let failure = run(&code(), &cfg).unwrap_err();
        assert_eq!((failure.backend, failure.phase.as_str()), ("mem", "episode 0"));
        assert!(failure.detail.starts_with("size disks: "), "{failure}");
    }

    #[test]
    fn same_seed_same_campaign() {
        let cfg = ChaosConfig {
            episodes: 5,
            crash_sweeps: false,
            ..Default::default()
        };
        let a = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        let b = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b, "a seeded campaign must be fully deterministic");
    }

    #[test]
    fn file_campaign_with_crash_sweeps_smoke() {
        let dir = std::env::temp_dir().join(format!("hv-chaos-{}", std::process::id()));
        let cfg = ChaosConfig {
            episodes: 3,
            dir: Some(dir.clone()),
            crash_sweeps: true,
            ..Default::default()
        };
        let report = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.episodes, 6, "3 mem + 3 file");
        assert!(report.crash_points > 0);
        assert!(report.journal_rollbacks > 0, "some crash point must roll back");
        assert!(report.resumed_rebuilds > 0, "some crash point must resume");
        assert!(
            report.dirty_cache_crash_points > 0,
            "the dirty-cache sweep must exercise crash points mid-flush"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every counter of one file-backed campaign with all three crash
    /// sweeps, pinned: a sweep that skipped a crash point, or counted a
    /// rollback or resume it did not see, changes a number here.
    #[test]
    fn file_campaign_report_is_pinned() {
        let dir = std::env::temp_dir().join(format!("hv-chaos-pin-{}", std::process::id()));
        let cfg = ChaosConfig { seed: 11, episodes: 2, dir: Some(dir.clone()), ..Default::default() };
        let report = run(&code(), &cfg).unwrap_or_else(|f| panic!("{f}"));
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(
            report,
            ChaosReport {
                episodes: 4,
                steps: 48,
                writes: 19,
                reads: 6,
                degraded_reads: 4,
                scrubs: 2,
                rebuilds: 4,
                maintain_calls: 1,
                faults_dead: 4,
                faults_transient: 5,
                faults_latent: 2,
                faults_torn: 0,
                crash_points: 118,
                journal_rollbacks: 24,
                resumed_rebuilds: 42,
                cache_flushes: 11,
                dirty_cache_crash_points: 34,
                verifications: 4,
            }
        );
    }
}
