//! Subcommand implementations. Each returns the text to print so tests can
//! assert on output without spawning processes.

use std::sync::Arc;

use disk_sim::DiskProfile;
use raid_array::{
    chaos, replay_write_trace, CacheConfig, ChaosConfig, DiskBackend, FileBackend,
    JournalRecovery, MemBackend, RaidVolume, VolumeError, VolumeMeta,
};
use raid_core::plan::update::update_complexity;
use raid_core::schedule::double_failure_schedule;
use raid_core::{invariants, ArrayCode};
use raid_service::{ServerConfig, Service, ServiceConfig};
use raid_workloads::textio::parse_trace;

use crate::args::Parsed;
use crate::registry::build;

/// CLI usage text.
pub const USAGE: &str = "hvraid — RAID-6 array-code toolbox (HV Code reproduction)

usage: hvraid <command> [flags]

commands:
  layout    --code <name> [--p 7] [--format spec]
                                           print the stripe layout (spec = loadable dump)
  check     --code <name> [--p 7] | --spec <file>
                                           verify the MDS property exhaustively
  info      --code <name> [--p 7]          structural summary (Table III style)
  demo      [--p 7] [--dot true]           HV double-failure repair walk-through
                                           (--dot emits Graphviz of the chains)
  replay    --code <name> --trace <file> [--p 7] [--stripes 8] [--cache <stripes>]
                                           replay an (S,L,F) trace file; --cache N
                                           routes writes through an N-stripe
                                           write-back cache and reports the
                                           coalesced flush / eviction counts
  batch     --code <name> [--p 13] [--stripes 256] [--element 4096]
            [--backend mem|file] [--dir <dir>]
                                           full-stripe write (which encodes) and
                                           two-disk rebuild of the whole volume,
                                           timed
  volume    --code <name> --dir <dir> [--p 7] [--stripes 8] [--element 64]
                                           full lifecycle on a file-backed volume
                                           (create, write, fail, degraded read,
                                           rebuild) cross-checked byte-for-byte
                                           against an in-memory twin
  fsck      --dir <dir> [--repair true] [--json]
                                           reopen a file-backed volume, report journal
                                           rollbacks and in-flight rebuild checkpoints,
                                           verify parity, optionally rebuild + scrub
                                           (exit 0 clean, 2 repaired, 3 unrecoverable)
  chaos     [--seed N] [--episodes 100] [--backend both|mem] [--dir <dir>]
            [--code hv] [--p 5] [--stripes 4] [--element 16] [--spares 2]
            [--steps 12] [--sweeps true] [--cache true]
                                           randomized fault-injection campaign (dead
                                           disks, transients, latent sectors, torn
                                           writes, crash-at-every-journal-point sweeps
                                           including crash-with-dirty-cache flushes)
                                           verified against a shadow model; any failure
                                           prints the seed that reproduces it;
                                           --cache false disables the write-back cache
  serve     --socket <path> [--code hv] [--p 5] [--stripes 16] [--element 64]
            [--dir <dir>] [--queue-depth 256]
                                           serve the volume as a concurrent block
                                           service on a unix socket (line protocol:
                                           HELLO/READ/WRITE/FLUSH/STATS/QUIT/
                                           SHUTDOWN); --dir persists to a file-backed
                                           volume, reopening an existing one; runs
                                           until a client sends SHUTDOWN, then
                                           drains, flushes, and exits
  connect   --socket <path> [--script <file>]
                                           scripted client session against a served
                                           volume (script from --script or stdin, one
                                           verb per line plus EXPECT <hex> to assert
                                           the previous READ); prints the transcript
  stats     --socket <path>                fetch the Prometheus text-format metrics
                                           snapshot from a running server
  lint      [--code <name>] [--p <prime>] [--all] [--json] [--opt]
            [--min-savings <pct>] [--journal]
                                           statically verify compiled plans: symbolic
                                           GF(2) encode proof, optimizer-equivalence
                                           proof, exhaustive single/double erasure MDS
                                           proof, crash-journal proof, paper-table
                                           cross-check (default: every code at
                                           p = 5 7 11 13 17); --opt also reports the
                                           XOR-read savings of the plan optimizer per
                                           code, and --min-savings fails any code
                                           saving less than <pct> percent of the
                                           specification's XOR reads; --journal
                                           itemizes crash-prefix counts

codes: hv rdp evenodd xcode hcode hdp pcode liberation";

/// Dispatches a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns a user-facing message on bad input.
pub fn run(parsed: &Parsed) -> Result<String, String> {
    run_with_status(parsed).map(|(out, _)| out)
}

/// Dispatches a parsed command line, returning the text to print and the
/// process exit code. Most commands exit 0 on success; `fsck` uses the
/// fsck convention (0 clean, 2 repaired, 3 unrecoverable; operational
/// errors are `Err` and exit 1).
///
/// # Errors
///
/// Returns a user-facing message on bad input.
pub fn run_with_status(parsed: &Parsed) -> Result<(String, u8), String> {
    if let Some(allowed) = usage_flags(&parsed.command) {
        if let Some(flag) = parsed.flags.keys().find(|f| !allowed.contains(&f.as_str())) {
            return Err(format!("unknown flag --{flag} for {}", parsed.command));
        }
    }
    match parsed.command.as_str() {
        "fsck" => fsck(parsed),
        other => {
            let out = match other {
                "layout" => layout(parsed),
                "check" => check(parsed),
                "info" => info(parsed),
                "demo" => demo(parsed),
                "replay" => replay(parsed),
                "batch" => batch(parsed),
                "volume" => volume_lifecycle(parsed),
                "chaos" => chaos_campaign(parsed),
                "serve" => serve(parsed),
                "connect" => connect(parsed),
                "stats" => stats(parsed),
                "lint" => lint(parsed),
                "help" | "--help" => Ok(USAGE.to_string()),
                _ => Err(format!("unknown command '{other}'\n\n{USAGE}")),
            }?;
            Ok((out, 0))
        }
    }
}

/// The flags `command`'s entry in [`USAGE`] names — its usage lines and
/// their description — or `None` for a command without an entry.
fn usage_flags(command: &str) -> Option<Vec<&'static str>> {
    let mut lines = USAGE.lines().skip_while(|l| !l.starts_with("commands:"));
    let head = format!("  {command} ");
    let first = lines.find(|l| l.starts_with(&head))?;
    let entry = std::iter::once(first).chain(lines.take_while(|l| l.starts_with("    ")));
    let words = entry.flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')));
    Some(words.filter_map(|w| w.strip_prefix("--")).collect())
}

fn code_from(parsed: &Parsed, default_p: usize) -> Result<(Arc<dyn ArrayCode>, usize), String> {
    let name = parsed.require("code")?;
    let p = parsed.get_or("p", default_p)?;
    Ok((build(name, p)?, p))
}

fn layout(parsed: &Parsed) -> Result<String, String> {
    let (code, p) = code_from(parsed, 7)?;
    if parsed.get_or("format", String::new())? == "spec" {
        // Machine-readable dump, loadable by `check --spec`.
        return Ok(raid_core::spec::format_layout(code.layout()));
    }
    Ok(format!(
        "{} (p = {p}, {} disks, {} rows)\nlegend: . data, H/V/D/A/X parity\n\n{}",
        code.name(),
        code.disks(),
        code.rows(),
        code.layout().render_ascii()
    ))
}

fn check(parsed: &Parsed) -> Result<String, String> {
    // Either a registered code (--code/--p) or a hand-written layout spec
    // file (--spec): the verifier is the same.
    let (name, owned_layout);
    let layout: &raid_core::Layout = if let Some(path) = parsed.flags.get("spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        owned_layout = raid_core::spec::parse_layout(&text).map_err(|e| e.to_string())?;
        name = format!("layout spec {path}");
        &owned_layout
    } else {
        let (code, p) = code_from(parsed, 7)?;
        name = format!("{} at p = {p}", code.name());
        owned_layout = code.layout().clone();
        &owned_layout
    };
    let singles = invariants::all_single_failures_decodable(layout);
    let pair = invariants::find_undecodable_pair(layout);
    let verdict = match (singles, pair) {
        (true, None) => "MDS: tolerates any two simultaneous disk failures ✔".to_string(),
        (false, _) => "BROKEN: some single-disk failure is unrecoverable ✘".to_string(),
        (_, Some((a, b))) => format!("NOT MDS: disks ({a},{b}) unrecoverable ✘"),
    };
    Ok(format!(
        "{name}: checked {} disk pairs\n{verdict}",
        layout.cols() * (layout.cols() - 1) / 2,
    ))
}

fn info(parsed: &Parsed) -> Result<String, String> {
    let (code, p) = code_from(parsed, 7)?;
    let layout = code.layout();
    let n = layout.cols();
    let mut min_chains = usize::MAX;
    let mut lc_sum = 0usize;
    let mut pairs = 0usize;
    for f1 in 0..n {
        for f2 in (f1 + 1)..n {
            let sched = double_failure_schedule(layout, f1, f2)
                .map_err(|e| format!("{e} — is the construction broken?"))?;
            min_chains = min_chains.min(sched.num_chains);
            lc_sum += sched.longest_chain;
            pairs += 1;
        }
    }
    let lengths = layout
        .chain_length_histogram()
        .into_iter()
        .map(|(l, c)| format!("{l}×{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    Ok(format!(
        "{} at p = {p}\n\
         disks:                {}\n\
         rows per stripe:      {}\n\
         storage efficiency:   {:.1}%\n\
         update complexity:    {:.2} parity writes per data write\n\
         parity chain lengths: {lengths}\n\
         parities per disk:    {:?}\n\
         recovery chains:      ≥{min_chains} parallel (E[Lc] = {:.2})",
        code.name(),
        n,
        layout.rows(),
        code.storage_efficiency() * 100.0,
        update_complexity(layout),
        invariants::parities_per_column(layout),
        lc_sum as f64 / pairs as f64,
    ))
}

fn demo(parsed: &Parsed) -> Result<String, String> {
    let p = parsed.get_or("p", 7usize)?;
    let dot = parsed.get_or("dot", false)?;
    let code = hv_code::HvCode::new(p).map_err(|e| e.to_string())?;
    if dot {
        // Emit the recovery dependency graph instead of the prose demo.
        let (f1, f2) = (0, code.num_disks() / 2);
        let sched = double_failure_schedule(raid_core::ArrayCode::layout(&code), f1, f2)
            .map_err(|e| e.to_string())?;
        return Ok(sched.to_dot(&format!("HV Code p={p}, disks #{} #{}", f1 + 1, f2 + 1)));
    }
    let mut stripe = raid_core::Stripe::for_layout(raid_core::ArrayCode::layout(&code), 64);
    stripe.fill_data_seeded(raid_core::ArrayCode::layout(&code), 42);
    raid_core::ArrayCode::encode(&code, &mut stripe);
    let pristine = stripe.clone();
    let (f1, f2) = (0, code.num_disks() / 2);
    stripe.erase_col(f1);
    stripe.erase_col(f2);
    let plan = code
        .repair_double_disk(&mut stripe, f1, f2)
        .map_err(|e| e.to_string())?;
    let ok = stripe == pristine;
    let mut out = format!(
        "HV Code p = {p}: disks #{} and #{} failed and repaired via {} parallel chains\n",
        f1 + 1,
        f2 + 1,
        plan.num_chains()
    );
    for (i, chain) in plan.chains().iter().enumerate() {
        let path: Vec<String> = chain
            .iter()
            .map(|s| format!("E[{},{}]", s.cell.row + 1, s.cell.col + 1))
            .collect();
        out.push_str(&format!("  chain {}: {}\n", i + 1, path.join(" -> ")));
    }
    out.push_str(if ok { "recovery byte-exact ✔" } else { "RECOVERY MISMATCH ✘" });
    Ok(out)
}

fn replay(parsed: &Parsed) -> Result<String, String> {
    let (code, p) = code_from(parsed, 7)?;
    let path = parsed.require("trace")?;
    let stripes = parsed.get_positive("stripes", 8)?;
    let cache_stripes = parsed.get_or("cache", 0usize)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = parse_trace(&text).map_err(|e| e.to_string())?;
    let mut volume = RaidVolume::in_memory(Arc::clone(&code), stripes, 64);
    if cache_stripes > 0 {
        volume.enable_cache(CacheConfig {
            max_stripes: cache_stripes,
            dirty_high_water: (cache_stripes * 3 / 4).max(1),
        });
    }
    let out = replay_write_trace(&mut volume, DiskProfile::savvio_10k(), &trace)
        .map_err(|e| e.to_string())?;
    let mut text = format!(
        "{} at p = {p}: replayed '{}' ({} patterns)\n\
         total write requests: {}\n\
         load balancing λ:     {:.2}\n\
         mean pattern latency: {:.2} ms (simulated)",
        code.name(),
        trace.name,
        out.patterns,
        out.total_write_requests(),
        out.lambda(),
        out.mean_latency_ms(),
    );
    if cache_stripes > 0 {
        text.push_str(&format!(
            "\nstripe cache ({cache_stripes} stripes): {} coalesced flushes, \
             {} evictions, total element I/O {}",
            out.ledger.cache_flushes(),
            out.ledger.cache_evictions(),
            out.ledger.total(),
        ));
    }
    Ok(text)
}

/// Builds the backend requested by `--backend` (`mem` default; `file`
/// needs `--dir`).
fn backend_from(
    parsed: &Parsed,
    code: &Arc<dyn ArrayCode>,
    stripes: usize,
    element: usize,
) -> Result<Box<dyn DiskBackend>, String> {
    let kind = parsed.get_or("backend", "mem".to_string())?;
    let layout = code.layout();
    match kind.as_str() {
        "mem" => {
            Ok(Box::new(MemBackend::new(layout.cols(), stripes * layout.rows(), element)))
        }
        "file" => {
            let dir = parsed.require("dir")?;
            let b = FileBackend::create(dir, layout.cols(), stripes * layout.rows(), element)
                .map_err(|e| format!("{dir}: {e}"))?;
            Ok(Box::new(b))
        }
        other => Err(format!("unknown backend '{other}' (expected mem or file)")),
    }
}

/// A deterministic payload for the lifecycle/batch demos.
fn seeded_payload(bytes: usize, seed: u8) -> Vec<u8> {
    (0..bytes).map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed)).collect()
}

fn batch(parsed: &Parsed) -> Result<String, String> {
    let (code, p) = code_from(parsed, 13)?;
    let stripes = parsed.get_positive("stripes", 256)?;
    let element = parsed.get_positive("element", 4096)?;
    let backend = backend_from(parsed, &code, stripes, element)?;
    let mut volume = RaidVolume::new(Arc::clone(&code), stripes, element, backend)
        .map_err(|e| e.to_string())?;

    let data = seeded_payload(volume.data_elements() * element, 11);
    let bytes = data.len() as f64;
    let mib_s = |secs: f64| bytes / (1 << 20) as f64 / secs;

    // Full-stripe writes of the whole data space: every parity is encoded
    // on the way to the disks, with no read-modify-write reads.
    let t0 = std::time::Instant::now();
    let encode_io = volume.write(0, &data).map_err(|e| e.to_string())?;
    let encode_s = t0.elapsed().as_secs_f64();

    let lost = [0usize, volume.disks() / 2];
    for &d in &lost {
        volume.fail_disk(d).map_err(|e| e.to_string())?;
    }
    let t1 = std::time::Instant::now();
    let rebuild_io = volume.rebuild().map_err(|e| e.to_string())?;
    let rebuild_s = t1.elapsed().as_secs_f64();
    let intact = volume.verify_all();

    Ok(format!(
        "{} at p = {p}: {stripes} stripes × {element} B elements, {} backend\n\
         encode:  {:.1} ms ({:.0} MiB/s of data, {} element requests)\n\
         rebuild: {:.1} ms ({:.0} MiB/s of data, {} element requests, disks #{} and #{})\n\
         all stripes consistent after rebuild: {}",
        code.name(),
        volume.backend_kind(),
        encode_s * 1e3,
        mib_s(encode_s),
        encode_io.total(),
        rebuild_s * 1e3,
        mib_s(rebuild_s),
        rebuild_io.total(),
        lost[0] + 1,
        lost[1] + 1,
        if intact { "yes ✔" } else { "NO ✘" },
    ))
}

/// The full lifecycle on a file-backed volume, cross-checked against an
/// in-memory twin running the identical operation sequence: every read
/// must be byte-identical between the two backends.
fn volume_lifecycle(parsed: &Parsed) -> Result<String, String> {
    let (code, p) = code_from(parsed, 7)?;
    let name = parsed.require("code")?;
    let dir = parsed.require("dir")?;
    let stripes = parsed.get_positive("stripes", 8)?;
    let element = parsed.get_positive("element", 64)?;
    let layout = code.layout();

    let file_backend =
        FileBackend::create(dir, layout.cols(), stripes * layout.rows(), element)
            .map_err(|e| format!("{dir}: {e}"))?;
    VolumeMeta {
        code: name.to_string(),
        p,
        stripes,
        element_size: element,
        rotate: false,
        rebuild_checkpoint: None,
    }
    .save(dir)
    .map_err(|e| format!("{dir}: {e}"))?;
    let mut disk = RaidVolume::new(Arc::clone(&code), stripes, element, Box::new(file_backend))
        .map_err(|e| e.to_string())?;
    let mut mem = RaidVolume::in_memory(Arc::clone(&code), stripes, element);

    // Identical operation trace against both volumes.
    let data = seeded_payload(disk.data_elements() * element, 29);
    let mut steps = Vec::new();
    for v in [&mut disk, &mut mem] {
        v.write(0, &data).map_err(|e| e.to_string())?;
    }
    steps.push(format!("wrote {} data elements", disk.data_elements()));

    let failures = [1usize, layout.cols() / 2 + 1];
    for v in [&mut disk, &mut mem] {
        for &d in &failures {
            v.fail_disk(d).map_err(|e| e.to_string())?;
        }
    }
    steps.push(format!("failed disks #{} and #{}", failures[0] + 1, failures[1] + 1));

    let (from_disk, io) = disk.read(0, disk.data_elements()).map_err(|e| e.to_string())?;
    let (from_mem, _) = mem.read(0, mem.data_elements()).map_err(|e| e.to_string())?;
    if from_disk != data || from_disk != from_mem {
        return Err("degraded reads diverged between file and mem backends".into());
    }
    steps.push(format!("degraded full read byte-identical ({} element reads)", io.total_reads()));

    for v in [&mut disk, &mut mem] {
        v.rebuild().map_err(|e| e.to_string())?;
        if !v.verify_all() {
            return Err(format!("{} backend inconsistent after rebuild", v.backend_kind()));
        }
    }
    steps.push("rebuilt onto spares, parity verified on both".into());

    let (from_disk, _) = disk.read(0, disk.data_elements()).map_err(|e| e.to_string())?;
    let (from_mem, _) = mem.read(0, mem.data_elements()).map_err(|e| e.to_string())?;
    if from_disk != data || from_disk != from_mem {
        return Err("post-rebuild reads diverged between file and mem backends".into());
    }
    steps.push("post-rebuild full read byte-identical".into());

    let mut out = format!(
        "{} at p = {p}: lifecycle on file backend at {dir} vs in-memory twin\n",
        code.name()
    );
    for s in &steps {
        out.push_str(&format!("  ✔ {s}\n"));
    }
    out.push_str("file and mem backends byte-identical under the same trace ✔");
    Ok(out)
}

/// Reopens a file-backed volume and verifies it; `--repair true` rebuilds
/// failed disks (resuming any checkpointed rebuild) and scrubs silent
/// corruption first. Reports journal rollbacks performed by the reopen.
///
/// Exit status follows the fsck convention: 0 clean, 2 clean after
/// repairs, 3 unrecoverable or errors left uncorrected.
fn fsck(parsed: &Parsed) -> Result<(String, u8), String> {
    let dir = parsed.require("dir")?;
    let repair = parsed.get_or("repair", false)?;
    let json = parsed.get_or("json", false)?;
    let meta = VolumeMeta::load(dir).map_err(|e| format!("{dir}: {e}"))?;
    let code = build(&meta.code, meta.p)?;
    let backend = FileBackend::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    // Opening replays the undo journal; remember what it did so the
    // operator learns a torn write was rolled back.
    let journal = backend.recovered_journal();
    let mut volume = match RaidVolume::open(Arc::clone(&code), Box::new(backend), meta.rotate) {
        Ok(v) => v,
        Err(VolumeError::TooManyFailures { failed }) => {
            let detail =
                format!("{failed} failed disks exceed RAID-6's two-erasure tolerance");
            return Ok(if json {
                (fsck_json(&meta, &[], journal.as_ref(), None, 0, false, "unrecoverable"), 3)
            } else {
                (format!("fsck: UNRECOVERABLE — {detail} ✘"), 3)
            });
        }
        Err(e) => return Err(e.to_string()),
    };
    let checkpoint = volume.rebuild_progress();

    let mut notes = Vec::new();
    match &journal {
        Some(JournalRecovery::RolledBack { elements }) => {
            notes.push(format!("rolled back a torn write ({elements} journaled elements)"));
        }
        Some(JournalRecovery::DiscardedTorn) => {
            notes.push("discarded a torn journal (write never began)".to_string());
        }
        None => {}
    }
    if let Some(cp) = &checkpoint {
        notes.push(format!(
            "rebuild in flight: disks {:?} checkpointed at stripe {}",
            cp.disks, cp.next_stripe
        ));
    }

    let failed = volume.failed_disks();
    let mut rebuilt = false;
    let mut scrub_repairs = 0usize;
    if !failed.is_empty() {
        notes.push(format!("failed disks: {failed:?}"));
        if repair {
            let io = volume.rebuild().map_err(|e| e.to_string())?;
            notes.push(format!("rebuilt onto spares ({} element requests)", io.total()));
            rebuilt = true;
        }
    }
    if repair && volume.failed_disks().is_empty() {
        let findings = volume.scrub().map_err(|e| e.to_string())?;
        scrub_repairs = findings.len();
        if scrub_repairs > 0 {
            notes.push(format!("scrub repaired {scrub_repairs} stripe(s)"));
        }
    }

    let consistent = volume.verify_all();
    let repaired = journal.is_some() || rebuilt || scrub_repairs > 0;
    let (status, exit) = if consistent && !repaired {
        ("clean", 0u8)
    } else if consistent {
        ("repaired", 2)
    } else if !volume.failed_disks().is_empty() {
        ("degraded", 3)
    } else {
        ("unrecoverable", 3)
    };

    if json {
        return Ok((
            fsck_json(
                &meta,
                &volume.failed_disks(),
                journal.as_ref(),
                checkpoint.as_ref(),
                scrub_repairs,
                rebuilt,
                status,
            ),
            exit,
        ));
    }
    let mut out = format!(
        "{} at p = {}: {} stripes × {} B elements on {} disks ({dir})\n",
        code.name(),
        meta.p,
        volume.stripes(),
        volume.element_size(),
        volume.disks(),
    );
    for n in &notes {
        out.push_str(&format!("  {n}\n"));
    }
    out.push_str(match status {
        "clean" => "fsck: volume clean ✔",
        "repaired" => "fsck: volume repaired, now clean ✔",
        "degraded" => "fsck: volume DEGRADED — run with --repair true to rebuild ✘",
        _ => "fsck: PARITY INCONSISTENT — unrecoverable ✘",
    });
    Ok((out, exit))
}

/// The machine-readable fsck report (hand-rolled, dependency-free JSON).
fn fsck_json(
    meta: &VolumeMeta,
    failed: &[usize],
    journal: Option<&JournalRecovery>,
    checkpoint: Option<&raid_array::RebuildCheckpoint>,
    scrub_repairs: usize,
    rebuilt: bool,
    status: &str,
) -> String {
    let list = |xs: &[usize]| {
        xs.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",")
    };
    let journal = match journal {
        None => "null".to_string(),
        Some(JournalRecovery::RolledBack { elements }) => {
            format!("{{\"rolled_back_elements\":{elements}}}")
        }
        Some(JournalRecovery::DiscardedTorn) => "\"discarded_torn\"".to_string(),
    };
    let checkpoint = match checkpoint {
        None => "null".to_string(),
        Some(cp) => format!(
            "{{\"disks\":[{}],\"next_stripe\":{}}}",
            list(&cp.disks),
            cp.next_stripe
        ),
    };
    format!(
        "{{\"code\":\"{}\",\"p\":{},\"stripes\":{},\"element_size\":{},\
         \"failed_disks\":[{}],\"journal_recovery\":{journal},\
         \"rebuild_checkpoint\":{checkpoint},\"rebuilt\":{rebuilt},\
         \"scrub_repairs\":{scrub_repairs},\"status\":\"{status}\"}}",
        meta.code,
        meta.p,
        meta.stripes,
        meta.element_size,
        list(failed),
    )
}

/// Runs a randomized fault-injection campaign (see [`raid_array::chaos`]).
fn chaos_campaign(parsed: &Parsed) -> Result<String, String> {
    let name = parsed.get_or("code", "hv".to_string())?;
    let p = parsed.get_or("p", 5usize)?;
    let code = build(&name, p)?;
    let defaults = ChaosConfig::default();
    let backend = parsed.get_or("backend", "both".to_string())?;
    let seed = parsed.get_or("seed", defaults.seed)?;
    let cfg = ChaosConfig {
        seed,
        episodes: parsed.get_or("episodes", defaults.episodes)?,
        steps_per_episode: parsed.get_or("steps", defaults.steps_per_episode)?,
        stripes: parsed.get_positive("stripes", defaults.stripes)?,
        element_size: parsed.get_positive("element", defaults.element_size)?,
        spares: parsed.get_or("spares", defaults.spares)?,
        dir: match backend.as_str() {
            "mem" => None,
            "both" => Some(match parsed.flags.get("dir") {
                Some(d) => std::path::PathBuf::from(d),
                None => std::env::temp_dir()
                    .join(format!("hvraid-chaos-{seed}-{}", std::process::id())),
            }),
            other => {
                return Err(format!("unknown backend '{other}' (expected both or mem)"))
            }
        },
        crash_sweeps: parsed.get_or("sweeps", defaults.crash_sweeps)?,
        cache: parsed.get_or("cache", defaults.cache)?,
    };
    let scratch = cfg.dir.clone().filter(|_| !parsed.flags.contains_key("dir"));
    let result = chaos::run(&code, &cfg);
    if let Some(d) = scratch {
        let _ = std::fs::remove_dir_all(d);
    }
    let report = result.map_err(|f| f.to_string())?;
    Ok(format!(
        "{} at p = {p}, seed {seed}\n{report}\nreproduce with `hvraid chaos --seed {seed}`",
        code.name()
    ))
}

fn lint(parsed: &Parsed) -> Result<String, String> {
    let json = parsed.get_or("json", false)?;
    let opt = parsed.get_or("opt", false)?;
    // With --min-savings N (implies --opt), a code whose optimized encode
    // plan saves less than N percent of the specification's XOR reads
    // fails the lint — `make lint`'s optimizer regression gate.
    let min_savings: f64 = parsed.get_or("min-savings", -1.0f64)?;
    // The crash-journal proof runs inside every check_code call; --journal
    // additionally itemizes its evidence per combination.
    let journal = parsed.get_or("journal", false)?;
    // `--all` is the default; the flag exists so scripts can say what they
    // mean. Naming a code restricts the sweep to it.
    let codes: Vec<String> = match parsed.flags.get("code") {
        Some(name) => vec![name.clone()],
        None => raid_verify::CODE_NAMES.iter().map(|s| s.to_string()).collect(),
    };
    let primes: Vec<usize> = if parsed.flags.contains_key("p") {
        vec![parsed.get_or("p", 7usize)?]
    } else {
        raid_verify::DEFAULT_PRIMES.to_vec()
    };

    let mut lines = Vec::new();
    let mut patterns = 0usize;
    for name in &codes {
        for &p in &primes {
            let report = raid_verify::check_code(name, p)
                .map_err(|e| format!("lint: {name} at p={p} FAILED\n  {e}"))?;
            patterns += report.mds_singles + report.mds_pairs;
            let spec = report.encode_reads_spec;
            let saved = spec.saturating_sub(report.encode_source_reads);
            let savings_pct =
                if spec > 0 { 100.0 * saved as f64 / spec as f64 } else { 0.0 };
            if min_savings >= 0.0 && savings_pct + 1e-9 < min_savings {
                return Err(format!(
                    "lint: {name} at p={p} FAILED\n  optimizer saved only {savings_pct:.1}% \
                     of the {spec} spec XOR reads (< --min-savings {min_savings})"
                ));
            }
            if json {
                lines.push(report.to_json());
            } else {
                let paper = if raid_verify::report::paper_expectation(name, p).is_some() {
                    "  paper table ✔"
                } else {
                    ""
                };
                lines.push(format!(
                    "{:<10} p={:<2} encode proven ({} ops, {} XORs)  MDS proven \
                     ({} single + {} double erasures)  UC {:.2}{}",
                    name,
                    p,
                    report.encode_ops,
                    report.encode_source_reads,
                    report.mds_singles,
                    report.mds_pairs,
                    report.metrics.update_complexity,
                    paper,
                ));
                if opt || min_savings >= 0.0 {
                    lines.push(format!(
                        "{:<10}       xopt: {} spec XOR reads → {} optimized \
                         (-{:.1}%, {} cascaded, {} scratch temp{})",
                        "",
                        spec,
                        report.encode_source_reads,
                        savings_pct,
                        report.encode_reads_cascaded,
                        report.encode_temps,
                        if report.encode_temps == 1 { "" } else { "s" },
                    ));
                }
            }
            // Itemized evidence beyond check_code's pass/fail: the
            // crash-prefix tallies.
            if journal {
                let code = raid_verify::build(name, p)?;
                let j = raid_verify::journal::prove_layout_journal(code.layout())
                    .map_err(|e| format!("lint: {name} at p={p} FAILED\n  {e}"))?;
                if json {
                    lines.push(format!(
                        "{{\"code\":\"{name}\",\"p\":{p},\"journal_op_lists\":{},\
                         \"journal_crash_points\":{}}}",
                        j.op_lists, j.crash_points
                    ));
                } else {
                    lines.push(format!(
                        "{:<10}       journal: {} crash prefixes across {} executed op \
                         lists replay to all-old-or-all-new",
                        "", j.crash_points, j.op_lists,
                    ));
                }
            }
        }
    }
    if !json {
        lines.push(format!(
            "lint: {} code/prime combinations verified, {} erasure patterns proven ✔",
            codes.len() * primes.len(),
            patterns
        ));
    }
    Ok(lines.join("\n"))
}

/// Serves a volume as a concurrent block service on a unix socket until
/// a client sends `SHUTDOWN`. `--dir` persists to a file-backed volume
/// (reopened when metadata already exists, created otherwise); without
/// it the volume is in-memory and vanishes with the server.
fn serve(parsed: &Parsed) -> Result<String, String> {
    let name = parsed.get_or("code", "hv".to_string())?;
    let p = parsed.get_or("p", 5usize)?;
    let code = build(&name, p)?;
    let stripes = parsed.get_positive("stripes", 16)?;
    let element = parsed.get_positive("element", 64)?;
    let socket = parsed.require("socket")?;
    let layout = code.layout();

    let volume = match parsed.flags.get("dir") {
        None => RaidVolume::in_memory(Arc::clone(&code), stripes, element),
        Some(dir) if VolumeMeta::load(dir).is_ok() => {
            let meta = VolumeMeta::load(dir).map_err(|e| format!("{dir}: {e}"))?;
            let code = build(&meta.code, meta.p)?;
            let backend = FileBackend::open(dir).map_err(|e| format!("{dir}: {e}"))?;
            RaidVolume::open(code, Box::new(backend), meta.rotate).map_err(|e| e.to_string())?
        }
        Some(dir) => {
            let backend =
                FileBackend::create(dir, layout.cols(), stripes * layout.rows(), element)
                    .map_err(|e| format!("{dir}: {e}"))?;
            VolumeMeta {
                code: name.to_string(),
                p,
                stripes,
                element_size: element,
                rotate: false,
                rebuild_checkpoint: None,
            }
            .save(dir)
            .map_err(|e| format!("{dir}: {e}"))?;
            RaidVolume::new(Arc::clone(&code), stripes, element, Box::new(backend))
                .map_err(|e| e.to_string())?
        }
    };

    let cfg = ServiceConfig {
        queue_depth: parsed.get_or("queue-depth", 256usize)?,
        ..ServiceConfig::default()
    };
    let svc = Service::new(volume, cfg);
    let server_cfg = ServerConfig::new(socket);
    eprintln!("hvraid serve: listening on {socket} ({} p={p})", code.name());
    raid_service::serve(&svc, &server_cfg).map_err(|e| e.to_string())?;
    let stats = svc.stats();
    Ok(format!(
        "serve: shut down cleanly — {} ops from {} sessions, final flush complete ✔",
        stats.ops_total(),
        stats.tenants.len(),
    ))
}

/// Drives a served volume through a scripted client session. The script
/// (a file via `--script`, else stdin) is one protocol verb per line
/// (HELLO/READ/WRITE/FLUSH/STATS/QUIT/SHUTDOWN), plus the client-side
/// `EXPECT <hex>` assertion on the previous READ; `#` starts a comment.
fn connect(parsed: &Parsed) -> Result<String, String> {
    let socket = parsed.require("socket")?;
    let script = match parsed.flags.get("script") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        }
    };
    raid_service::run_script(std::path::Path::new(socket), &script)
}

/// Fetches the Prometheus text-format metrics snapshot from a running
/// server (ledger per-disk I/O, cache hit rates, health, per-tenant
/// latency quantiles).
fn stats(parsed: &Parsed) -> Result<String, String> {
    let socket = parsed.require("socket")?;
    raid_service::fetch_stats(std::path::Path::new(socket))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::registry::CODE_NAMES;

    fn run_line(line: &[&str]) -> Result<String, String> {
        run(&parse(line.iter().map(|s| s.to_string())).unwrap())
    }

    fn run_line_status(line: &[&str]) -> Result<(String, u8), String> {
        run_with_status(&parse(line.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn serve_connect_stats_end_to_end() {
        let tag = std::process::id();
        let socket = std::env::temp_dir().join(format!("hvraid-cli-serve-{tag}.sock"));
        let sock = socket.to_str().unwrap().to_string();
        let server = std::thread::spawn({
            let sock = sock.clone();
            move || {
                run(&parse(
                    ["serve", "--socket", &sock, "--p", "5", "--stripes", "4", "--element", "8"]
                        .iter()
                        .map(|s| s.to_string()),
                )
                .unwrap())
            }
        });
        for _ in 0..400 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let script_path = std::env::temp_dir().join(format!("hvraid-cli-script-{tag}.txt"));
        let payload = "aa55".repeat(8); // two 8-byte elements
        std::fs::write(
            &script_path,
            format!(
                "# smoke session\nHELLO cli writer\nWRITE 0 {payload}\nREAD 0 2\n\
                 EXPECT {payload}\nFLUSH\nQUIT\n"
            ),
        )
        .unwrap();
        let transcript = run_line(&[
            "connect", "--socket", &sock, "--script", script_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(transcript.contains("OK wrote 2"), "{transcript}");
        assert!(transcript.contains("# EXPECT ok"), "{transcript}");

        let metrics = run_line(&["stats", "--socket", &sock]).unwrap();
        assert!(metrics.contains("hvraid_cache_flushes_total"), "{metrics}");
        assert!(
            metrics.contains("hvraid_service_ops_total{tenant=\"cli\",class=\"writer\"}"),
            "{metrics}"
        );

        let shutdown_script = std::env::temp_dir().join(format!("hvraid-cli-shutdown-{tag}.txt"));
        std::fs::write(&shutdown_script, "HELLO cli2 reader\nSHUTDOWN\n").unwrap();
        run_line(&["connect", "--socket", &sock, "--script", shutdown_script.to_str().unwrap()])
            .unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("shut down cleanly"), "{out}");
        let _ = std::fs::remove_file(script_path);
        let _ = std::fs::remove_file(shutdown_script);
    }

    #[test]
    fn batch_encodes_and_rebuilds() {
        let out = run_line(&[
            "batch", "--code", "hv", "--p", "7", "--stripes", "12", "--element", "64",
        ])
        .unwrap();
        assert!(out.contains("12 stripes"), "{out}");
        assert!(out.contains("encode:"), "{out}");
        assert!(out.contains("rebuild:"), "{out}");
        assert!(out.contains("consistent after rebuild: yes"), "{out}");
    }

    #[test]
    fn batch_runs_on_a_file_backend() {
        let dir = std::env::temp_dir().join("hvraid_batch_file_test");
        let out = run_line(&[
            "batch", "--code", "hv", "--p", "5", "--stripes", "3", "--element", "32",
            "--backend", "file", "--dir", dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("file backend"), "{out}");
        assert!(out.contains("consistent after rebuild: yes"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn volume_lifecycle_and_fsck_round_trip() {
        let dir = std::env::temp_dir().join("hvraid_volume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_line(&[
            "volume", "--code", "hv", "--p", "7", "--stripes", "4", "--element", "32",
            "--dir", dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("byte-identical under the same trace ✔"), "{out}");

        // The on-disk volume the lifecycle left behind passes fsck.
        let out = run_line(&["fsck", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("volume clean ✔"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_repairs_a_degraded_on_disk_volume() {
        let dir = std::env::temp_dir().join("hvraid_fsck_repair_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_line(&[
            "volume", "--code", "hv", "--p", "5", "--stripes", "3", "--element", "16",
            "--dir", dir.to_str().unwrap(),
        ])
        .unwrap();

        // Fail a disk directly on the reopened backend, as a crash would
        // leave it.
        {
            let mut b = raid_array::FileBackend::open(&dir).unwrap();
            b.fail(1).unwrap();
        }
        let out = run_line(&["fsck", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("DEGRADED"), "{out}");
        let out =
            run_line(&["fsck", "--dir", dir.to_str().unwrap(), "--repair", "true"]).unwrap();
        assert!(out.contains("rebuilt onto spares"), "{out}");
        assert!(out.contains("repaired, now clean ✔"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_exit_codes_distinguish_clean_repaired_unrecoverable() {
        let dir = std::env::temp_dir().join("hvraid_fsck_exit_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_line(&[
            "volume", "--code", "hv", "--p", "5", "--stripes", "3", "--element", "16",
            "--dir", dir.to_str().unwrap(),
        ])
        .unwrap();
        let d = dir.to_str().unwrap();

        // Clean volume: exit 0.
        let (out, status) = run_line_status(&["fsck", "--dir", d]).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("clean ✔"), "{out}");

        // Degraded, no --repair: errors left uncorrected, exit 3.
        {
            let mut b = raid_array::FileBackend::open(&dir).unwrap();
            b.fail(1).unwrap();
        }
        let (out, status) = run_line_status(&["fsck", "--dir", d]).unwrap();
        assert_eq!(status, 3, "{out}");
        assert!(out.contains("DEGRADED"), "{out}");

        // Repaired: exit 2, and a rerun is clean again (exit 0).
        let (out, status) =
            run_line_status(&["fsck", "--dir", d, "--repair", "true"]).unwrap();
        assert_eq!(status, 2, "{out}");
        assert!(out.contains("repaired, now clean ✔"), "{out}");
        let (_, status) = run_line_status(&["fsck", "--dir", d]).unwrap();
        assert_eq!(status, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_json_is_machine_readable() {
        let dir = std::env::temp_dir().join("hvraid_fsck_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_line(&[
            "volume", "--code", "hv", "--p", "5", "--stripes", "3", "--element", "16",
            "--dir", dir.to_str().unwrap(),
        ])
        .unwrap();
        let (out, status) =
            run_line_status(&["fsck", "--dir", dir.to_str().unwrap(), "--json"]).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(out.contains("\"status\":\"clean\""), "{out}");
        assert!(out.contains("\"journal_recovery\":null"), "{out}");
        assert!(out.contains("\"rebuild_checkpoint\":null"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn chaos_runs_a_small_deterministic_campaign() {
        let out = run_line(&[
            "chaos", "--seed", "11", "--episodes", "3", "--backend", "mem",
        ])
        .unwrap();
        assert!(out.contains("seed 11"), "{out}");
        assert!(out.contains("3 episodes"), "{out}");
        assert!(out.contains("all consistent"), "{out}");
        assert!(out.contains("reproduce with `hvraid chaos --seed 11`"), "{out}");
    }

    #[test]
    fn removed_and_misspelled_flags_are_rejected_by_name() {
        for (line, flag, command) in [
            (&["chaos", "--threads", "4"][..], "threads", "chaos"),
            (&["serve", "--socket", "/nonexistent/s", "--partitions", "2"], "partitions", "serve"),
            (&["batch", "--code", "hv", "--threads", "2"], "threads", "batch"),
            (&["lint", "--hazards"], "hazards", "lint"),
            (&["lint", "--schedules"], "schedules", "lint"),
            (&["layout", "--code", "hv", "--pp", "7"], "pp", "layout"),
        ] {
            let err = run_line(line).unwrap_err();
            assert_eq!(err, format!("unknown flag --{flag} for {command}"), "{line:?}");
        }
    }

    #[test]
    fn every_command_takes_the_flags_its_usage_lists() {
        let flags = |c| usage_flags(c).unwrap_or_else(|| panic!("{c} has no usage entry"));
        assert_eq!(flags("demo"), ["p", "dot", "dot"]);
        assert_eq!(flags("stats"), ["socket"]);
        assert!(flags("chaos").contains(&"cache"));
        assert!(flags("lint").contains(&"min-savings"));
        assert!(flags("serve").contains(&"queue-depth"));
        assert!(usage_flags("help").is_none());
        assert!(usage_flags("bogus").is_none());
    }

    #[test]
    fn layout_renders_grid() {
        let out = run_line(&["layout", "--code", "hv", "--p", "7"]).unwrap();
        assert!(out.contains("HV Code"));
        assert!(out.contains(".H.V..\n"));
    }

    #[test]
    fn check_reports_mds() {
        for name in CODE_NAMES {
            let out = run_line(&["check", "--code", name]).unwrap();
            assert!(out.contains("MDS"), "{name}: {out}");
            assert!(out.contains('✔'), "{name}: {out}");
        }
    }

    #[test]
    fn info_summarizes() {
        let out = run_line(&["info", "--code", "hv", "--p", "13"]).unwrap();
        assert!(out.contains("83.3%"));
        assert!(out.contains("2.00 parity writes"));
        assert!(out.contains("≥4 parallel"));
    }

    #[test]
    fn demo_repairs() {
        let out = run_line(&["demo", "--p", "11"]).unwrap();
        assert!(out.contains("4 parallel chains"));
        assert!(out.contains("byte-exact ✔"));
    }

    #[test]
    fn demo_dot_emits_graphviz() {
        let out = run_line(&["demo", "--p", "7", "--dot", "true"]).unwrap();
        assert!(out.starts_with("digraph recovery {"));
        assert_eq!(out.matches("doublecircle").count(), 4);
    }

    #[test]
    fn replay_runs_a_trace_file() {
        let dir = std::env::temp_dir().join("hvraid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        std::fs::write(&path, "# name: demo\n0 5 3\n10 2 1\n").unwrap();
        let out = run_line(&["replay", "--code", "hv", "--trace", path.to_str().unwrap()])
            .unwrap();
        assert!(out.contains("4 patterns"));
        assert!(out.contains("load balancing"));
        let cached = run_line(&[
            "replay", "--code", "hv", "--trace", path.to_str().unwrap(), "--cache", "8",
        ])
        .unwrap();
        assert!(cached.contains("stripe cache (8 stripes)"), "{cached}");
        assert!(cached.contains("coalesced flushes"), "{cached}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn zero_sizes_are_usage_errors() {
        let dir = std::env::temp_dir().join(format!("hvraid-cli-zero-{}", std::process::id()));
        let (dir, trace) = (dir.to_str().unwrap(), "/nonexistent/trace.txt");
        let socket = format!("{dir}/s.sock");
        for (line, flag) in [
            (&["batch", "--code", "hv", "--p", "5", "--stripes", "0"][..], "stripes"),
            (&["batch", "--code", "hv", "--p", "5", "--element", "0"], "element"),
            (&["chaos", "--stripes", "0"], "stripes"),
            (&["chaos", "--element", "0"], "element"),
            (&["replay", "--code", "hv", "--trace", trace, "--stripes", "0"], "stripes"),
            (&["volume", "--code", "hv", "--dir", dir, "--stripes", "0"], "stripes"),
            (&["volume", "--code", "hv", "--dir", dir, "--element", "0"], "element"),
            (&["serve", "--socket", &socket, "--stripes", "0"], "stripes"),
            (&["serve", "--socket", &socket, "--element", "0"], "element"),
        ] {
            let err = run_line(line).unwrap_err();
            assert_eq!(err, format!("--{flag} must be positive"), "{line:?}");
        }
        assert!(!std::path::Path::new(dir).exists(), "a rejected command created {dir}");
    }

    #[test]
    fn layout_spec_round_trips_through_check() {
        let spec = run_line(&["layout", "--code", "hv", "--p", "7", "--format", "spec"]).unwrap();
        assert!(spec.starts_with("layout 6 6\n"));
        let dir = std::env::temp_dir().join("hvraid_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hv7.layout");
        std::fs::write(&path, &spec).unwrap();
        let out = run_line(&["check", "--spec", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("MDS"), "{out}");
        assert!(out.contains('✔'), "{out}");

        // A deliberately broken spec (single parity) must be called out.
        let bad = "layout 1 3\nkinds\n..H\nchain H 0,2 = 0,0 0,1\n";
        let bad_path = dir.join("bad.layout");
        std::fs::write(&bad_path, bad).unwrap();
        let out = run_line(&["check", "--spec", bad_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("NOT MDS"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lint_proves_one_code_and_prints_the_proof_shape() {
        let out = run_line(&["lint", "--code", "hv", "--p", "5"]).unwrap();
        assert!(out.contains("encode proven"), "{out}");
        assert!(out.contains("MDS proven"), "{out}");
        assert!(out.contains("paper table ✔"), "{out}");
        // p=5 HV: 4 disks → 4 singles + 6 pairs.
        assert!(out.contains("4 single + 6 double erasures"), "{out}");
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let out = run_line(&["lint", "--code", "xcode", "--p", "5", "--json"]).unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(out.contains("\"code\":\"xcode\""), "{out}");
        assert!(out.contains("\"paper_match\":true"), "{out}");
    }

    #[test]
    fn lint_journal_itemizes_its_evidence() {
        let out = run_line(&["lint", "--code", "hv", "--p", "5", "--journal"]).unwrap();
        assert!(out.contains("replay to all-old-or-all-new"), "{out}");
        assert!(out.contains("5 executed op lists"), "{out}");
        let json = run_line(&["lint", "--code", "rdp", "--p", "5", "--json", "--journal"]).unwrap();
        assert!(json.contains("\"journal_op_lists\":5"), "{json}");
        assert!(json.contains("\"journal_crash_points\":"), "{json}");
    }

    #[test]
    fn lint_rejects_unknown_code_with_context() {
        let err = run_line(&["lint", "--code", "nope", "--p", "5"]).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("unknown code"), "{err}");
    }

    #[test]
    fn errors_are_friendly() {
        assert!(run_line(&["bogus"]).unwrap_err().contains("unknown command"));
        assert!(run_line(&["layout"]).unwrap_err().contains("--code"));
        assert!(run_line(&["layout", "--code", "hv", "--p", "9"])
            .unwrap_err()
            .contains("p=9"));
        assert!(run_line(&["help"]).unwrap().contains("usage"));
    }
}
