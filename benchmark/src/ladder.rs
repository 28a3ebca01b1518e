//! The traced run (`--trace 1`): per-layer numbers.
//!
//! One client replays a fixed prefix of the workload's op list once per
//! rung it reaches, each time on a freshly built, identically prefilled
//! rig, recording one span per op. The same op at two adjacent rungs
//! shares its `trace_id`, so a rung's self time is its span minus the
//! span one rung down. Counts from these passes repeat exactly for a
//! seed. The spans go to `out/trace-<workload>.jsonl`.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::client::{Rec, SocketRung, Tally, Until};
use crate::env::ScratchDir;
use crate::gen::{Noise, Op, OpKind, OpStream, Workload};
use crate::probes;
use crate::report::{median, percentile, ratio, Metrics, Outcome, Settings, PER_LAYER};
use crate::rig::{noise_for, Rig, RungKind};
use crate::sut::{self, Counts, SvcStats};

/// How a replay records.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A span per op.
    Traced,
    Untraced,
    /// Small chunks of ops traced and untraced in turn on one rig, so the
    /// two rates share every condition except the recording itself.
    Alternating,
}

/// What one replay of the prefix left behind.
struct Pass {
    kind: RungKind,
    spans: Vec<Rec>,
    /// The whole pass, compares included.
    wall_s: f64,
    tally: Tally,
    /// Backend element I/Os after the final flush.
    io: u64,
    counts: Counts,
    stats: Option<SvcStats>,
    wire_bytes: u64,
    connect_hello_us: f64,
    /// `Mode::Alternating` only: 1 - traced rate / untraced rate.
    overhead_frac: f64,
    verdict: Result<(), String>,
}

impl Pass {
    fn ops(&self) -> f64 {
        self.tally.attempted as f64
    }

    /// Mean span: what one op costs entered at this rung.
    fn us_per_op(&self) -> f64 {
        let total: u64 = self.spans.iter().map(|r| r.end_ns - r.start_ns).sum();
        ratio(total as f64 / 1e3, self.spans.len() as f64)
    }
}

struct Replay<'a> {
    workload: Workload,
    settings: &'a Settings,
    noise: Arc<Noise>,
    scratch: &'a ScratchDir,
}

impl Replay<'_> {
    fn pass(&self, kind: RungKind, clients: usize, mode: Mode) -> Result<Pass, String> {
        let traced = mode == Mode::Traced;
        let seed = self.settings.seed;
        let mut rig = Rig::build(self.workload, kind, clients, seed, &self.noise, self.scratch)?;
        let ops = self.settings.trace_ops(self.workload) / clients;
        let mut logs: Vec<Vec<Rec>> = (0..clients).map(|_| Vec::with_capacity(ops * 8)).collect();
        let epoch = Instant::now();
        let mut overhead_frac = 0.0;
        match mode {
            Mode::Alternating => {
                // Pairs of small chunks, one with spans and one without, in
                // alternating order; the median pair's rate ratio. Small, so
                // that a slow spell of the host covers both halves of a pair;
                // a chunk still holds whole rebuild cycles (10 stream ops).
                let chunk = (ops / 400).max(1).next_multiple_of(10);
                let mut log = Vec::with_capacity(chunk * 8);
                let mut timed = |rig: &mut Rig, with_spans: bool| {
                    log.clear();
                    let begun = Instant::now();
                    rig.run_lone(Until::Ops(chunk), epoch, with_spans.then_some(&mut log));
                    begun.elapsed().as_secs_f64()
                };
                let mut ratios: Vec<f64> = (0..ops / (2 * chunk))
                    .map(|pair| {
                        let spans_first = pair % 2 == 0;
                        let (first, second) =
                            (timed(&mut rig, spans_first), timed(&mut rig, !spans_first));
                        let (traced, untraced) =
                            if spans_first { (first, second) } else { (second, first) };
                        untraced / traced
                    })
                    .collect();
                overhead_frac = 1.0 - median(&mut ratios);
            }
            Mode::Traced if clients == 1 => {
                rig.run_lone(Until::Ops(ops), epoch, Some(&mut logs[0]))
            }
            _ => rig.run(
                clients,
                Until::Ops(ops),
                epoch,
                traced.then_some(logs.as_mut_slice()),
                || {},
            ),
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        let io = rig.flush_and_count_io()?;
        let tally = rig.tally();
        let stats = rig.service_stats();
        let mut connect_hello_us = 0.0;
        if let (true, Some(socket)) = (traced, rig.socket()) {
            let mut samples: Vec<f64> = (0..self.settings.probe_reps().max(9))
                .map(|_| {
                    let begun = Instant::now();
                    let hello = SocketRung::connect(socket, "probe", "reader", 1)
                        .and_then(|mut c| c.command(b"QUIT", b"OK bye"));
                    hello.map(|()| begun.elapsed().as_nanos() as f64 / 1e3)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("connect probe: {e}"))?;
            connect_hello_us = median(&mut samples);
        }
        let (counts, wire_bytes) = (rig.counts(), rig.wire_bytes());
        if let Some(msg) = rig.first_error() {
            println!("{}: first failed op: {msg}", kind.name());
        }
        let verdict = rig.finish();
        let spans = logs.into_iter().flatten().collect();
        Ok(Pass {
            kind,
            spans,
            wall_s,
            tally,
            io,
            counts,
            stats,
            wire_bytes,
            connect_hello_us,
            overhead_frac,
            verdict,
        })
    }
}

pub fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let scratch = ScratchDir::new(&settings.out).map_err(|e| format!("scratch dir: {e}"))?;
    let replay =
        Replay { workload, settings, noise: noise_for(workload, settings.seed), scratch: &scratch };
    let mut m = Metrics::new(PER_LAYER);

    let rungs = RungKind::ladder(workload);
    let mut passes: Vec<Pass> = Vec::new();
    for &kind in rungs {
        passes.push(replay.pass(kind, 1, Mode::Traced)?);
    }
    // The top rung once more, spans on and off in turn: the difference in
    // rate is what recording them costs.
    let alternating = replay.pass(RungKind::top(workload), 1, Mode::Alternating)?;
    m.set("trace.overhead_frac", alternating.overhead_frac, alternating.tally.attempted as usize);
    m.set("trace.spans", passes.iter().map(|p| p.spans.len()).sum::<usize>() as f64, 1);

    // The 99th percentile did not repeat within a tenth between runs of
    // the timed window on this host, so it is reported here, from the top
    // rung's fixed replay, and carries no bound.
    let top = passes.last().expect("ladders are not empty");
    let mut spans: Vec<u64> = top.spans.iter().map(|r| r.end_ns - r.start_ns).collect();
    spans.sort_unstable();
    m.set("client.p99_us", percentile(&spans, 0.99) as f64 / 1e3, spans.len());

    let pass_of = |kind: RungKind| passes.iter().find(|p| p.kind == kind);
    let ladder_workload = rungs.len() > 1;
    if ladder_workload {
        for p in &passes {
            let name = format!("ladder.{}.{}.us_per_op", workload.name(), p.kind.name());
            m.set(&name, p.us_per_op(), p.spans.len());
        }
    }
    let mut extra: Vec<Pass> = vec![alternating];

    if let (Some(off), Some(on)) =
        (pass_of(RungKind::VolumeNoCache), pass_of(RungKind::VolumeCache))
    {
        let c = on.counts;
        let lookups = (c.cache_hits + c.cache_misses) as usize;
        m.set("cache.hit_rate", ratio(c.cache_hits as f64, lookups as f64), lookups);
        m.set(
            "cache.flushes_per_kop",
            ratio(1e3 * c.cache_flushes as f64, on.ops()),
            on.spans.len(),
        );
        m.set(
            "cache.evictions_per_kop",
            ratio(1e3 * c.cache_evictions as f64, on.ops()),
            on.spans.len(),
        );
        m.set("cache.io_saved_frac", 1.0 - ratio(on.io as f64, off.io as f64), on.spans.len());
    }
    if let (Some(cache), Some(handle)) = (pass_of(RungKind::VolumeCache), pass_of(RungKind::Handle))
    {
        m.set(
            "scheduler.self_us_per_op",
            handle.us_per_op() - cache.us_per_op(),
            handle.spans.len(),
        );
        // Two clients on the handle: what one client alone cannot show
        // (merging needs a second writer queued behind the combiner).
        let two = replay.pass(RungKind::Handle, 2, Mode::Untraced)?;
        let s = two.stats.expect("handle rung has a service");
        let staged = (s.merged_writes + s.write_runs) as usize;
        m.set("scheduler.merge_ratio", ratio(s.merged_writes as f64, staged as f64), staged);
        m.set("scheduler.rounds_per_op", ratio(s.rounds as f64, s.ops as f64), s.ops as usize);
        m.set("scheduler.queue_to_done_p50_us", s.queue_p50_us, s.ops as usize);
        m.set("scheduler.queue_to_done_p99_us", s.queue_p99_us, s.ops as usize);
        m.set(
            "scheduler.rejected_frac",
            ratio(s.rejections as f64, (s.ops + s.rejections) as f64),
            (s.ops + s.rejections) as usize,
        );
        m.set(
            "scheduler.two_client_scaling",
            ratio(two.ops() / two.wall_s, handle.ops() / handle.wall_s),
            2,
        );
        extra.push(two);
    }
    if let (Some(handle), Some(socket)) = (pass_of(RungKind::Handle), pass_of(RungKind::Socket)) {
        let codec_us = codec_us_per_op(&replay, settings);
        m.set("proto.codec_us_per_op", codec_us, socket.spans.len());
        m.set(
            "server.self_us_per_op",
            socket.us_per_op() - handle.us_per_op() - codec_us,
            socket.spans.len(),
        );
        let user_bytes = socket.tally.elements as f64 * workload.shape().element_size as f64;
        m.set("server.wire_bytes_per_user_byte", ratio(socket.wire_bytes as f64, user_bytes), 1);
        m.set("server.connect_hello_us", socket.connect_hello_us, settings.probe_reps().max(9));
    }

    probes::run(settings, &scratch, &mut m)?;
    write_trace(&settings.out, workload, &passes).map_err(|e| format!("trace file: {e}"))?;

    let mut total = Tally::default();
    let mut checks_failed = 0u64;
    for p in passes.iter().chain(&extra) {
        total.add(&p.tally);
        if let Err(msg) = &p.verdict {
            println!("{}: end-of-run check failed: {msg}", p.kind.name());
            checks_failed += 1;
        }
    }
    let failed = total.failed() + checks_failed;
    m.set(
        "client.failed_frac",
        ratio(failed as f64, total.attempted as f64),
        total.attempted as usize,
    );
    Ok(Outcome { attempted: total.attempted, failed, correct: failed == 0, metrics: m })
}

/// What the text protocol costs the server per op of this workload with
/// no I/O at all: parse every request line of the prefix and hex-encode
/// every read reply.
fn codec_us_per_op(replay: &Replay, settings: &Settings) -> f64 {
    let es = replay.workload.shape().element_size;
    let ops: Vec<Op> = OpStream::new(replay.workload, settings.seed, 0)
        .take(settings.trace_ops(replay.workload))
        .collect();
    let lines: Vec<String> = ops
        .iter()
        .map(|op| {
            let window = replay.noise.offset(op.salt);
            match op.kind {
                OpKind::Write => {
                    let hex = replay.noise.hex(window, op.len as usize * es);
                    format!("WRITE {} {}", op.addr, String::from_utf8_lossy(hex))
                }
                _ => format!("READ {} {}", op.addr, op.len),
            }
        })
        .collect();
    let begun = Instant::now();
    for (op, line) in ops.iter().zip(&lines) {
        std::hint::black_box(sut::proto_parse(line));
        if op.kind == OpKind::Read {
            let bytes = replay.noise.bytes(replay.noise.offset(op.salt), op.len as usize * es);
            std::hint::black_box(format!("OK data {}", sut::proto_to_hex(bytes)));
        }
    }
    begun.elapsed().as_nanos() as f64 / 1e3 / ops.len() as f64
}

/// One line per span: `trace_id` is the op's index in the prefix, `name`
/// the rung, `parent` the rung above (the top rung has none). Volume
/// rungs carry the call's own receipt; service rungs expose counts only
/// service-wide, so theirs are in the rung's `counts` line.
fn write_trace(out: &Path, workload: Workload, passes: &[Pass]) -> std::io::Result<()> {
    let path = out.join(format!("trace-{}.jsonl", workload.name()));
    let mut out = BufWriter::new(fs::File::create(path)?);
    for (at, p) in passes.iter().enumerate() {
        let parent = match passes.get(at + 1) {
            Some(above) => format!("\"{}\"", above.kind.name()),
            None => "null".to_string(),
        };
        let name = p.kind.name();
        for (id, r) in p.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"trace_id\": {id}, \"name\": \"{name}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"elements\": {}, \"io\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
                r.start_ns, r.end_ns, r.elements, r.io, r.cache_hits, r.cache_misses
            )?;
        }
        let c = p.counts;
        writeln!(
            out,
            "{{\"counts\": \"{name}\", \"ops\": {}, \"io_after_flush\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_flushes\": {}, \"cache_evictions\": {}}}",
            p.tally.attempted, p.io, c.cache_hits, c.cache_misses, c.cache_flushes, c.cache_evictions
        )?;
    }
    out.flush()
}
