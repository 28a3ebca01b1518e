//! Randomized fault/crash campaigns against a live volume.
//!
//! The self-healing machinery ([`crate::health`], the journaled write
//! path, the checkpointed background rebuild) is only trustworthy if it
//! survives faults it did not choose. This module is the adversary: a
//! seeded, fully deterministic campaign that interleaves writes, degraded
//! reads, scrubs and rebuilds with injected faults from the whole
//! [`disk_sim::ErrorClass`] taxonomy — transient read glitches, latent
//! sectors, torn writes, dead disks (never more than RAID-6's two at
//! once) — and, for file-backed volumes, a *crash sweep* that kills the
//! simulated process at every single operation boundary of a
//! multi-element write and of a rebuild, reopens the directory, and
//! demands that journal recovery and the rebuild checkpoint leave the
//! array consistent.
//!
//! Every episode is verified against a shadow model (the bytes a perfect
//! volume would hold) plus [`raid_core::io::IoLedger`] accounting
//! invariants. A failure reports the seed and backend so the exact
//! campaign replays with `hvraid chaos --seed N`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use raid_core::ArrayCode;

use crate::backend::{
    DiskBackend, Fault, FaultyBackend, FileBackend, JournalRecovery, MemBackend,
};
use crate::cache::CacheConfig;
use crate::volume::{RaidVolume, VolumeError};

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

/// An integrity violation found by a campaign. Carries everything needed
/// to reproduce: the master seed, the backend, and the phase.
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
            "chaos integrity failure [{} backend, {}]: {}; reproduce with \
             `hvraid chaos --seed {}`",
            self.backend, self.phase, self.detail, self.seed
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
            crash_write_sweep(code, cfg, dir, &mut report)?;
            crash_rebuild_sweep(code, cfg, dir, &mut report)?;
            if cfg.cache {
                crash_dirty_cache_sweep(code, cfg, dir, &mut report)?;
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
    let epd = cfg.stripes * layout.rows();
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
    let mut receipts_total = 0u64;
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
    let max_transient = v.health().policy().max_retries;
    let mut transient_budget: BTreeMap<usize, u32> = BTreeMap::new();

    for _ in 0..cfg.steps_per_episode {
        report.steps += 1;
        match rng.below(10) {
            // Write a random extent of random bytes.
            0..=3 => {
                let start = rng.below(capacity);
                let len = 1 + rng.below((capacity - start).min(per_stripe + 2));
                let data: Vec<u8> = (0..len * es).map(|_| rng.byte()).collect();
                let receipt = ctx.check(v.write(start, &data), "write")?;
                receipts_total += receipt.total();
                shadow[start * es..(start + len) * es].copy_from_slice(&data);
                report.writes += 1;
            }
            // Read a random extent and compare against the shadow model.
            4..=5 => {
                let start = rng.below(capacity);
                let len = 1 + rng.below((capacity - start).min(per_stripe + 2));
                let degraded = !v.failed_disks().is_empty();
                let (bytes, receipt) = ctx.check(v.read(start, len), "read")?;
                receipts_total += receipt.total();
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
                let ops = (1 + rng.below(2) as u32).min(max_transient.saturating_sub(*used));
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
                    let receipt = ctx.check(v.write(start, &data), "torn write")?;
                    receipts_total += receipt.total();
                    shadow[start * es..(start + len) * es].copy_from_slice(&data);
                    report.writes += 1;
                    if cfg.cache {
                        // The cache absorbed the write; the armed tear
                        // fires on the coalesced flush, so force it out
                        // before the scrub goes looking for it.
                        let receipt = ctx.check(v.flush(), "flush torn write")?;
                        receipts_total += receipt.total();
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
                    let receipt = ctx.check(v.flush(), "flush")?;
                    receipts_total += receipt.total();
                } else if rng.coin() {
                    let budget = 1 + rng.below(cfg.stripes);
                    let receipt = ctx.check(v.maintain(budget), "maintain")?;
                    receipts_total += receipt.total();
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
        let receipt = ctx.check(v.rebuild(), "settle rebuild")?;
        receipts_total += receipt.total();
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
    let (bytes, receipt) = ctx.check(v.read(0, capacity), "final read")?;
    receipts_total += receipt.total();
    if bytes != shadow {
        return Err(ctx.fail("final contents diverged from shadow model".to_string()));
    }
    if !v.verify_all() {
        return Err(ctx.fail("parity inconsistent after settle".to_string()));
    }

    // Ledger accounting invariants: the cumulative ledger and the health
    // monitor must tell the same healing story, and cumulative I/O can
    // never undercount the per-op receipts.
    let ledger = v.ledger();
    if ledger.retries() != v.health().retries_total() {
        return Err(ctx.fail(format!(
            "ledger counted {} retries, health monitor {}",
            ledger.retries(),
            v.health().retries_total()
        )));
    }
    if ledger.latent_repairs() != v.health().latent_repairs_total() {
        return Err(ctx.fail(format!(
            "ledger counted {} latent repairs, health monitor {}",
            ledger.latent_repairs(),
            v.health().latent_repairs_total()
        )));
    }
    if ledger.transitions().len() != v.health().transitions().len() {
        return Err(ctx.fail(format!(
            "ledger logged {} health transitions, monitor {}",
            ledger.transitions().len(),
            v.health().transitions().len()
        )));
    }
    if ledger.total() < receipts_total {
        return Err(ctx.fail(format!(
            "cumulative ledger ({}) undercounts summed receipts ({receipts_total})",
            ledger.total()
        )));
    }
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

/// Crash-at-every-op sweep over a multi-stripe write: for each op count
/// `k`, the process "crashes" at op `k` mid-write; the directory is then
/// reopened (running journal recovery) and the array must be
/// parity-consistent with every stripe's segment of the write atomically
/// old or new — never torn.
fn crash_write_sweep(
    code: &Arc<dyn ArrayCode>,
    cfg: &ChaosConfig,
    dir: &Path,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let ctx = Episode { cfg, backend: "file", phase: "crash-write sweep".to_string() };
    let layout = code.layout();
    let epd = cfg.stripes * layout.rows();
    let es = cfg.element_size;
    let d = dir.join("crash-write");
    let per_stripe = layout.num_data_cells();
    let capacity = per_stripe * cfg.stripes;
    let old = baseline(capacity, es, 3);
    // A write that crosses a stripe boundary: two journaled segments.
    let start = per_stripe - 2;
    let len = 4.min(capacity - start);
    let new: Vec<u8> = (0..len * es).map(|i| (i as u8).wrapping_mul(101) ^ 0x5A).collect();
    let mut want_new = old.clone();
    want_new[start * es..(start + len) * es].copy_from_slice(&new);

    let mut k = 0u64;
    loop {
        // Fresh baseline for this crash point.
        {
            let be = FileBackend::create(&d, layout.cols(), epd, es)
                .map_err(|e| ctx.fail(format!("create: {e}")))?;
            let mut v = ctx.check(
                RaidVolume::new(Arc::clone(code), cfg.stripes, es, Box::new(be)),
                "open baseline",
            )?;
            ctx.check(v.write(0, &old), "baseline write")?;
        }
        // Crash at op k during the write.
        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("reopen: {e}")))?;
        let faulty = FaultyBackend::new(Box::new(be), Vec::new())
            .with_faults([Fault::CrashAtOp { at_op: k }]);
        let mut v = ctx.check(
            RaidVolume::new(Arc::clone(code), cfg.stripes, es, Box::new(faulty)),
            "open for crash",
        )?;
        let wrote = v.write(start, &new).is_ok();
        drop(v);
        report.crash_points += 1;

        // Reopen: journal recovery runs, then the array must be sane.
        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("recover: {e}")))?;
        if matches!(be.recovered_journal(), Some(JournalRecovery::RolledBack { .. })) {
            report.journal_rollbacks += 1;
        }
        let mut v = ctx.check(
            RaidVolume::open(Arc::clone(code), Box::new(be), false),
            "open after crash",
        )?;
        let (bytes, _) = ctx.check(v.read(0, capacity), "read after crash")?;
        if wrote && bytes != want_new {
            return Err(ctx.fail(format!(
                "crash point {k}: write reported success but contents differ"
            )));
        }
        if !wrote {
            // Each stripe's segment must be atomically old or new.
            for stripe in 0..cfg.stripes {
                let lo = (stripe * per_stripe).max(start);
                let hi = ((stripe + 1) * per_stripe).min(start + len);
                if lo >= hi {
                    continue;
                }
                let got = &bytes[lo * es..hi * es];
                if got != &old[lo * es..hi * es] && got != &want_new[lo * es..hi * es] {
                    return Err(ctx.fail(format!(
                        "crash point {k}: stripe {stripe} segment is torn \
                         (neither fully old nor fully new)"
                    )));
                }
            }
            // Untouched elements must be exactly the baseline.
            for at in (0..start).chain(start + len..capacity) {
                if bytes[at * es..(at + 1) * es] != old[at * es..(at + 1) * es] {
                    return Err(ctx.fail(format!(
                        "crash point {k}: element {at} outside the write changed"
                    )));
                }
            }
        }
        if !v.verify_all() {
            return Err(ctx.fail(format!(
                "crash point {k}: parity inconsistent after recovery"
            )));
        }
        drop(v);
        if wrote {
            break; // the crash point is past the whole write
        }
        k += 1;
    }
    let _ = std::fs::remove_dir_all(&d);
    Ok(())
}

/// Crash-at-every-op sweep over a rebuild: for each op count `k`, a
/// rebuild of a failed disk crashes at op `k`; reopening must resume from
/// the persisted checkpoint (never restarting at stripe 0 once progress
/// was checkpointed) and complete to a fully consistent array.
fn crash_rebuild_sweep(
    code: &Arc<dyn ArrayCode>,
    cfg: &ChaosConfig,
    dir: &Path,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let ctx = Episode { cfg, backend: "file", phase: "crash-rebuild sweep".to_string() };
    let layout = code.layout();
    let epd = cfg.stripes * layout.rows();
    let es = cfg.element_size;
    let d = dir.join("crash-rebuild");
    let capacity = layout.num_data_cells() * cfg.stripes;
    let old = baseline(capacity, es, 9);
    let victim = 2 % layout.cols();

    let mut k = 0u64;
    loop {
        {
            let be = FileBackend::create(&d, layout.cols(), epd, es)
                .map_err(|e| ctx.fail(format!("create: {e}")))?;
            let mut v = ctx.check(
                RaidVolume::new(Arc::clone(code), cfg.stripes, es, Box::new(be)),
                "open baseline",
            )?;
            ctx.check(v.write(0, &old), "baseline write")?;
            ctx.check(v.fail_disk(victim), "fail disk")?;
        }
        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("reopen: {e}")))?;
        let faulty = FaultyBackend::new(Box::new(be), Vec::new())
            .with_faults([Fault::CrashAtOp { at_op: k }]);
        let mut v = ctx.check(
            RaidVolume::open(Arc::clone(code), Box::new(faulty), false),
            "open for crash",
        )?;
        let rebuilt = v.rebuild().is_ok();
        drop(v);
        report.crash_points += 1;

        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("recover: {e}")))?;
        let mut v = ctx.check(
            RaidVolume::open(Arc::clone(code), Box::new(be), false),
            "open after crash",
        )?;
        if !rebuilt {
            // The interrupted rebuild must be resumable: either the crash
            // hit before any progress (task restarts from 0 or the disk is
            // simply still failed) or the checkpoint carries it forward.
            if let Some(cp) = v.rebuild_progress() {
                if cp.next_stripe > 0 {
                    report.resumed_rebuilds += 1;
                }
            }
            ctx.check(v.rebuild(), "resume rebuild")?;
        }
        if !v.failed_disks().is_empty() {
            return Err(ctx.fail(format!(
                "crash point {k}: disk still failed after resumed rebuild"
            )));
        }
        let (bytes, _) = ctx.check(v.read(0, capacity), "read after rebuild")?;
        if bytes != old {
            return Err(ctx.fail(format!(
                "crash point {k}: contents diverged after crash-interrupted rebuild"
            )));
        }
        if !v.verify_all() {
            return Err(ctx.fail(format!(
                "crash point {k}: parity inconsistent after resumed rebuild"
            )));
        }
        drop(v);
        if rebuilt {
            break;
        }
        k += 1;
    }
    if report.resumed_rebuilds == 0 {
        return Err(ctx.fail(
            "no crash point resumed from a checkpoint past stripe 0 — \
             rebuilds are restarting from scratch"
                .to_string(),
        ));
    }
    let _ = std::fs::remove_dir_all(&d);
    Ok(())
}

/// Crash-at-every-op sweep over a coalesced dirty-cache flush: several
/// scattered writes are absorbed by the write-back cache (touching no
/// disk), then `flush()` pushes each dirty stripe out as one journaled
/// coalesced op and the process "crashes" at op `k` mid-flush. Reopening
/// must never expose a torn coalesced flush: per stripe, every dirty
/// element is atomically all-old or all-new, untouched elements keep the
/// baseline, and parity stays consistent.
fn crash_dirty_cache_sweep(
    code: &Arc<dyn ArrayCode>,
    cfg: &ChaosConfig,
    dir: &Path,
    report: &mut ChaosReport,
) -> Result<(), ChaosFailure> {
    let ctx = Episode { cfg, backend: "file", phase: "crash-dirty-cache sweep".to_string() };
    let layout = code.layout();
    let epd = cfg.stripes * layout.rows();
    let es = cfg.element_size;
    let d = dir.join("crash-cache");
    let per_stripe = layout.num_data_cells();
    let capacity = per_stripe * cfg.stripes;
    let old = baseline(capacity, es, 7);
    // Scattered dirty extents across two stripes — non-contiguous within
    // stripe 0 so the flush genuinely coalesces, plus a second stripe so
    // the flush spans multiple journaled ops.
    let extents: Vec<(usize, usize)> = vec![
        (0, 2),
        (per_stripe.saturating_sub(2).max(3), 2.min(per_stripe)),
        (per_stripe + 1, 2.min(capacity - per_stripe - 1)),
    ];
    let mut want_new = old.clone();
    let mut dirty = vec![false; capacity];
    for (i, &(start, len)) in extents.iter().enumerate() {
        for at in start..start + len {
            dirty[at] = true;
            for b in 0..es {
                want_new[at * es + b] = ((at * es + b) as u8).wrapping_mul(59) ^ (0x11 << i);
            }
        }
    }

    let mut k = 0u64;
    loop {
        // Fresh baseline for this crash point.
        {
            let be = FileBackend::create(&d, layout.cols(), epd, es)
                .map_err(|e| ctx.fail(format!("create: {e}")))?;
            let mut v = ctx.check(
                RaidVolume::new(Arc::clone(code), cfg.stripes, es, Box::new(be)),
                "open baseline",
            )?;
            ctx.check(v.write(0, &old), "baseline write")?;
        }
        // Absorb the writes into the cache, then crash at op k during the
        // coalesced flush. The budget is generous so nothing flushes early
        // and every element write below is pure cache traffic.
        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("reopen: {e}")))?;
        let faulty = FaultyBackend::new(Box::new(be), Vec::new())
            .with_faults([Fault::CrashAtOp { at_op: k }]);
        let mut v = ctx.check(
            RaidVolume::open(Arc::clone(code), Box::new(faulty), false),
            "open for crash",
        )?;
        v.enable_cache(CacheConfig {
            max_stripes: cfg.stripes + 2,
            dirty_high_water: cfg.stripes + 2,
        });
        let mut absorbed = true;
        for &(start, len) in &extents {
            if v.write(start, &want_new[start * es..(start + len) * es]).is_err() {
                absorbed = false;
                break;
            }
        }
        let flushed = absorbed && v.flush().is_ok();
        drop(v);
        report.crash_points += 1;
        report.dirty_cache_crash_points += 1;

        // Reopen: journal recovery runs, then the array must be sane.
        let be = FileBackend::open(&d).map_err(|e| ctx.fail(format!("recover: {e}")))?;
        if matches!(be.recovered_journal(), Some(JournalRecovery::RolledBack { .. })) {
            report.journal_rollbacks += 1;
        }
        let mut v = ctx.check(
            RaidVolume::open(Arc::clone(code), Box::new(be), false),
            "open after crash",
        )?;
        let (bytes, _) = ctx.check(v.read(0, capacity), "read after crash")?;
        if flushed && bytes != want_new {
            return Err(ctx.fail(format!(
                "crash point {k}: flush reported success but contents differ"
            )));
        }
        if !flushed {
            // Per stripe, the coalesced flush is one journaled op: every
            // dirty element of the stripe must be atomically old or new.
            for stripe in 0..cfg.stripes {
                let ords: Vec<usize> = (stripe * per_stripe..(stripe + 1) * per_stripe)
                    .filter(|&at| dirty[at])
                    .collect();
                if ords.is_empty() {
                    continue;
                }
                let all_old = ords
                    .iter()
                    .all(|&at| bytes[at * es..(at + 1) * es] == old[at * es..(at + 1) * es]);
                let all_new = ords.iter().all(|&at| {
                    bytes[at * es..(at + 1) * es] == want_new[at * es..(at + 1) * es]
                });
                if !all_old && !all_new {
                    return Err(ctx.fail(format!(
                        "crash point {k}: stripe {stripe} coalesced flush is torn \
                         (dirty set neither fully old nor fully new)"
                    )));
                }
            }
            // Untouched elements must be exactly the baseline.
            for at in (0..capacity).filter(|&at| !dirty[at]) {
                if bytes[at * es..(at + 1) * es] != old[at * es..(at + 1) * es] {
                    return Err(ctx.fail(format!(
                        "crash point {k}: element {at} outside the dirty set changed"
                    )));
                }
            }
        }
        if !v.verify_all() {
            return Err(ctx.fail(format!(
                "crash point {k}: parity inconsistent after recovery"
            )));
        }
        drop(v);
        if flushed {
            break; // the crash point is past the whole flush
        }
        k += 1;
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
}
