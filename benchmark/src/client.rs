//! The load generator: one closed-loop [`Client`] per thread, driving a
//! [`Rung`] — the boundary at which the program is entered (direct
//! volume, in-process handle, or the real unix socket) — and keeping a
//! shadow copy that every read is compared with.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::{Noise, Op, OpKind, OpStream};
use crate::sut::{Counts, OpError, Session, Vol};

/// One boundary of the program. A read leaves its reply inside the rung
/// until [`Rung::read_matches`] compares it, so the compare happens
/// after the latency stamp.
pub trait Rung: Send {
    fn read(&mut self, target: usize, addr: usize, len: usize) -> Result<Counts, OpError>;
    /// Writes `len` elements whose bytes are the noise window at `offset`.
    fn write(
        &mut self,
        target: usize,
        addr: usize,
        len: usize,
        noise: &Noise,
        offset: u32,
    ) -> Result<Counts, OpError>;
    fn flush(&mut self) -> Result<Counts, OpError>;
    /// Whether element `i` of the last read equals the noise window at
    /// `offsets[i]`.
    fn read_matches(&self, noise: &Noise, offsets: &[u32]) -> bool;
    fn fail_disk(&mut self, _target: usize, _disk: usize) -> Result<(), OpError> {
        Err(OpError::Failed("only a direct volume can fail a disk".into()))
    }
    fn rebuild(&mut self, _target: usize) -> Result<Counts, OpError> {
        Err(OpError::Failed("only a direct volume can rebuild".into()))
    }
    /// Hands over the volumes behind a direct rung for the final checks
    /// (the service owns its own).
    fn take_volumes(&mut self) -> Vec<Vol> {
        Vec::new()
    }
    /// The cumulative ledger of the volumes behind a direct rung.
    fn counts(&self) -> Counts {
        Counts::default()
    }
    /// Request + reply bytes on the wire so far (socket only).
    fn wire_bytes(&self) -> u64 {
        0
    }
}

fn bytes_match(got: &[u8], element_size: usize, noise: &Noise, offsets: &[u32]) -> bool {
    got.len() == offsets.len() * element_size
        && got
            .chunks_exact(element_size)
            .zip(offsets)
            .all(|(chunk, &off)| chunk == noise.bytes(off, element_size))
}

/// Direct `RaidVolume` calls (the rig turns the cache on or leaves it off).
pub struct VolumeRung {
    volumes: Vec<Vol>,
    element_size: usize,
    last_read: Vec<u8>,
}

impl VolumeRung {
    pub fn new(volumes: Vec<Vol>, element_size: usize) -> VolumeRung {
        VolumeRung { volumes, element_size, last_read: Vec::new() }
    }
}

impl Rung for VolumeRung {
    fn read(&mut self, target: usize, addr: usize, len: usize) -> Result<Counts, OpError> {
        let (bytes, counts) = self.volumes[target].read(addr, len)?;
        self.last_read = bytes;
        Ok(counts)
    }

    fn write(
        &mut self,
        target: usize,
        addr: usize,
        len: usize,
        noise: &Noise,
        offset: u32,
    ) -> Result<Counts, OpError> {
        self.volumes[target].write(addr, noise.bytes(offset, len * self.element_size))
    }

    fn flush(&mut self) -> Result<Counts, OpError> {
        let mut total = Counts::default();
        for v in &mut self.volumes {
            total = total.plus(&v.flush()?);
        }
        Ok(total)
    }

    fn read_matches(&self, noise: &Noise, offsets: &[u32]) -> bool {
        bytes_match(&self.last_read, self.element_size, noise, offsets)
    }

    fn fail_disk(&mut self, target: usize, disk: usize) -> Result<(), OpError> {
        self.volumes[target].fail_disk(disk)
    }

    fn rebuild(&mut self, target: usize) -> Result<Counts, OpError> {
        self.volumes[target].rebuild()
    }

    fn take_volumes(&mut self) -> Vec<Vol> {
        std::mem::take(&mut self.volumes)
    }

    fn counts(&self) -> Counts {
        self.volumes.iter().fold(Counts::default(), |sum, v| sum.plus(&v.counts()))
    }
}

/// `ServiceHandle` calls: scheduler and cache, no socket.
pub struct HandleRung {
    session: Session,
    element_size: usize,
    last_read: Vec<u8>,
}

impl HandleRung {
    pub fn new(session: Session, element_size: usize) -> HandleRung {
        HandleRung { session, element_size, last_read: Vec::new() }
    }
}

impl Drop for HandleRung {
    fn drop(&mut self) {
        self.session.close();
    }
}

impl Rung for HandleRung {
    fn read(&mut self, _target: usize, addr: usize, len: usize) -> Result<Counts, OpError> {
        self.last_read = self.session.read(addr, len)?;
        Ok(Counts::default())
    }

    fn write(
        &mut self,
        _target: usize,
        addr: usize,
        len: usize,
        noise: &Noise,
        offset: u32,
    ) -> Result<Counts, OpError> {
        let wrote = self.session.write(addr, noise.bytes(offset, len * self.element_size))?;
        if wrote != len {
            return Err(OpError::Failed(format!("wrote {wrote} of {len} elements")));
        }
        Ok(Counts::default())
    }

    fn flush(&mut self) -> Result<Counts, OpError> {
        self.session.flush()?;
        Ok(Counts::default())
    }

    fn read_matches(&self, noise: &Noise, offsets: &[u32]) -> bool {
        bytes_match(&self.last_read, self.element_size, noise, offsets)
    }
}

/// The benchmark's own client of the `proto` line protocol over a unix
/// socket. It is deliberately lean — payloads are copied from the noise
/// buffer's hex twin and replies are compared as hex — so that on a
/// 2-core host the time measured is the server's, not this client's.
pub struct SocketRung {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    request: Vec<u8>,
    reply: Vec<u8>,
    element_size: usize,
    /// Request + reply bytes since connect (`HELLO` included).
    wire_bytes: u64,
}

impl SocketRung {
    /// Connects and opens a session (`HELLO <tenant> <class>`).
    pub fn connect(
        socket: &Path,
        tenant: &str,
        class: &str,
        element_size: usize,
    ) -> io::Result<SocketRung> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        let mut rung = SocketRung {
            writer,
            reader,
            request: Vec::with_capacity(1 << 16),
            reply: Vec::with_capacity(1 << 16),
            element_size,
            wire_bytes: 0,
        };
        rung.command(format!("HELLO {tenant} {class}").as_bytes(), b"OK session ")?;
        Ok(rung)
    }

    /// Sends one bare verb and requires the reply to start with `expect`.
    pub fn command(&mut self, verb: &[u8], expect: &[u8]) -> io::Result<()> {
        self.request.clear();
        self.request.extend_from_slice(verb);
        match self.exchange() {
            Ok(()) if self.reply.starts_with(expect) => Ok(()),
            Ok(()) => Err(io::Error::other(String::from_utf8_lossy(&self.reply).into_owned())),
            Err(e) => Err(io::Error::other(format!("{e:?}"))),
        }
    }

    /// Terminates the request line, sends it, and reads one reply line.
    fn exchange(&mut self) -> Result<(), OpError> {
        self.request.push(b'\n');
        let io_failed = |e: io::Error| OpError::Failed(format!("socket: {e}"));
        self.writer.write_all(&self.request).map_err(io_failed)?;
        self.reply.clear();
        let n = self.reader.read_until(b'\n', &mut self.reply).map_err(io_failed)?;
        self.wire_bytes += (self.request.len() + n) as u64;
        if self.reply.last() != Some(&b'\n') {
            return Err(OpError::Failed("server closed the connection".into()));
        }
        self.reply.pop();
        if self.reply.starts_with(b"OK ") {
            Ok(())
        } else if self.reply.starts_with(b"ERR busy") || self.reply.starts_with(b"ERR throttled") {
            Err(OpError::Refused)
        } else {
            Err(self.unexpected())
        }
    }

    /// The reply as the failure it is.
    fn unexpected(&self) -> OpError {
        OpError::Failed(String::from_utf8_lossy(&self.reply).into_owned())
    }

    fn expect_reply(&self, expected: &[u8]) -> Result<Counts, OpError> {
        if self.reply == expected {
            Ok(Counts::default())
        } else {
            Err(self.unexpected())
        }
    }
}

impl Rung for SocketRung {
    fn read(&mut self, _target: usize, addr: usize, len: usize) -> Result<Counts, OpError> {
        self.request.clear();
        write!(self.request, "READ {addr} {len}").expect("write to Vec");
        self.exchange()?;
        if self.reply.starts_with(b"OK data ") {
            Ok(Counts::default())
        } else {
            Err(self.unexpected())
        }
    }

    fn write(
        &mut self,
        _target: usize,
        addr: usize,
        len: usize,
        noise: &Noise,
        offset: u32,
    ) -> Result<Counts, OpError> {
        self.request.clear();
        write!(self.request, "WRITE {addr} ").expect("write to Vec");
        self.request.extend_from_slice(noise.hex(offset, len * self.element_size));
        self.exchange()?;
        self.expect_reply(format!("OK wrote {len}").as_bytes())
    }

    fn flush(&mut self) -> Result<Counts, OpError> {
        self.request.clear();
        self.request.extend_from_slice(b"FLUSH");
        self.exchange()?;
        self.expect_reply(b"OK flushed")
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn read_matches(&self, noise: &Noise, offsets: &[u32]) -> bool {
        let Some(hex) = self.reply.strip_prefix(b"OK data ") else { return false };
        hex.len() == offsets.len() * self.element_size * 2
            && hex
                .chunks_exact(self.element_size * 2)
                .zip(offsets)
                .all(|(chunk, &off)| chunk == noise.hex(off, self.element_size))
    }
}

/// One completed op as the client saw it: a span (nanoseconds since the
/// run's epoch) plus the program's own counts for that call, where the
/// boundary hands them out (volume rungs do, per call; service rungs
/// expose counts only service-wide).
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub elements: u32,
    pub io: u32,
    pub cache_hits: u32,
    pub cache_misses: u32,
}

/// What a client attempted and how it went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub errored: u64,
    pub mismatched: u64,
    /// User payload elements of completed ops.
    pub elements: u64,
    /// Backend element I/Os of completed ops, from per-call receipts
    /// (volume rungs only).
    pub io: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.mismatched
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
        self.elements += other.elements;
        self.io += other.io;
    }
}

/// How long a client runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// This many ops of the stream (exact counts).
    Ops(usize),
    /// Until the clock passes this instant (timed window).
    Deadline(Instant),
}

/// Shadow entry of an element nobody has written since prefill.
pub const PREFILLED: u32 = u32::MAX;

/// The noise window element `addr` of volume `target` should hold, given
/// its shadow entry.
pub fn expected_window(
    noise: &Noise,
    shadow: u32,
    target: usize,
    addr: usize,
    data_per_stripe: usize,
    element_size: usize,
) -> u32 {
    if shadow != PREFILLED {
        return shadow;
    }
    let within = (addr % data_per_stripe) * element_size;
    noise.prefill_window(target, addr / data_per_stripe) + within as u32
}

/// A closed-loop client: next op only after the previous one completed.
pub struct Client {
    pub rung: Box<dyn Rung>,
    stream: OpStream,
    noise: Arc<Noise>,
    element_size: usize,
    /// Data elements per stripe of each target volume.
    data_per_stripe: Vec<usize>,
    /// Per target and element: the noise window last written by this
    /// client, or [`PREFILLED`].
    pub shadow: Vec<Vec<u32>>,
    /// `volume_rebuild` only: the column of each data ordinal, to count
    /// the user elements a rebuild reconstructed.
    pub data_columns: Vec<usize>,
    /// `volume_degraded_read` only: the disks to fail, first at the start
    /// of the next run and second half-way through it. Taken when used;
    /// `Rig::heal` puts it back.
    pub degrade: Option<(usize, usize)>,
    /// Rebuilds completed, to rotate the stripe checked after each.
    rebuilds: usize,
    pub tally: Tally,
    /// First failure message, for the report.
    pub first_error: Option<String>,
    offsets: Vec<u32>,
}

impl Client {
    pub fn new(
        rung: Box<dyn Rung>,
        stream: OpStream,
        noise: Arc<Noise>,
        element_size: usize,
        stripes: usize,
        data_per_stripe: Vec<usize>,
    ) -> Client {
        let shadow = data_per_stripe.iter().map(|dps| vec![PREFILLED; dps * stripes]).collect();
        Client {
            rung,
            stream,
            noise,
            element_size,
            data_per_stripe,
            shadow,
            data_columns: Vec::new(),
            degrade: None,
            rebuilds: 0,
            tally: Tally::default(),
            first_error: None,
            offsets: Vec::new(),
        }
    }

    /// Runs ops back to back. With a `log`, every op is stamped and
    /// recorded; without, nothing is (the untraced twin of a traced
    /// replay).
    pub fn run(&mut self, until: Until, epoch: Instant, mut log: Option<&mut Vec<Rec>>) {
        let begun = Instant::now();
        let mut second = None;
        if let Some((first, later)) = self.degrade.take() {
            self.fail_disk(first);
            second = Some(later);
        }
        let mut done = 0usize;
        // The previous op's end stamp doubles as the clock for the
        // deadline, so a timed window reads the clock twice per op.
        let mut now = begun;
        loop {
            let half_way = match until {
                Until::Ops(n) if done >= n => break,
                Until::Ops(n) => done >= n / 2,
                Until::Deadline(deadline) if now >= deadline => break,
                Until::Deadline(deadline) => now >= begun + (deadline - begun) / 2,
            };
            if half_way {
                if let Some(disk) = second.take() {
                    self.fail_disk(disk);
                }
            }
            let op = self.stream.next().expect("op streams are endless");
            match self.step(op, epoch, log.as_deref_mut()) {
                Some(end) => now = end,
                None if matches!(until, Until::Deadline(_)) => now = Instant::now(),
                None => {}
            }
            done += 1;
        }
    }

    fn fail_disk(&mut self, disk: usize) {
        let failed = self.rung.fail_disk(0, disk).err();
        self.note(failed);
    }

    fn note(&mut self, error: Option<OpError>) {
        match error {
            None => {}
            Some(OpError::Refused) => self.tally.refused += 1,
            Some(OpError::Failed(msg)) => {
                self.tally.errored += 1;
                self.first_error.get_or_insert(msg);
            }
        }
    }

    fn expect_range(&mut self, target: usize, addr: usize, len: usize) {
        let (dps, es) = (self.data_per_stripe[target], self.element_size);
        self.offsets.clear();
        for a in addr..addr + len {
            let shadow = self.shadow[target][a];
            self.offsets.push(expected_window(&self.noise, shadow, target, a, dps, es));
        }
    }

    /// Performs one op; returns its end stamp when it was stamped.
    fn step(&mut self, op: Op, epoch: Instant, log: Option<&mut Vec<Rec>>) -> Option<Instant> {
        let (target, addr, len) = (usize::from(op.target), op.addr as usize, op.len as usize);
        // The payload window of a write.
        let window = self.noise.offset(op.salt);
        let traced = log.is_some();
        let start = if traced { Some(Instant::now()) } else { None };
        // (records, user elements per record, result)
        let (records, elements, result) = match op.kind {
            OpKind::Read => (1, len, self.rung.read(target, addr, len)),
            OpKind::Write => (1, len, self.rung.write(target, addr, len, &self.noise, window)),
            OpKind::Flush => (1, 0, self.rung.flush()),
            OpKind::Rebuild => {
                // One op per stripe: the call's time is split evenly.
                let stripes = self.shadow[0].len() / self.data_per_stripe[0];
                let lost = self.data_columns.iter().filter(|&&c| c == addr || c == len).count();
                let result = self
                    .rung
                    .fail_disk(0, addr)
                    .and_then(|()| self.rung.fail_disk(0, len))
                    .and_then(|()| self.rung.rebuild(0));
                (stripes, lost, result)
            }
        };
        let end = if traced { Some(Instant::now()) } else { None };

        self.tally.attempted += records as u64;
        let counts = match result {
            Ok(counts) => counts,
            Err(e) => {
                // A failed call fails every record it stands for.
                for _ in 0..records {
                    self.note(Some(e.clone()));
                }
                return end;
            }
        };
        let ok = match op.kind {
            OpKind::Read => {
                self.expect_range(target, addr, len);
                self.rung.read_matches(&self.noise, &self.offsets)
            }
            OpKind::Write => {
                for i in 0..len {
                    self.shadow[target][addr + i] = window + (i * self.element_size) as u32;
                }
                true
            }
            OpKind::Flush => true,
            OpKind::Rebuild => self.rebuilt_stripe_matches(),
        };
        if !ok {
            self.tally.mismatched += records as u64;
            self.first_error.get_or_insert(format!("{op:?} returned wrong bytes"));
            return end;
        }
        self.tally.elements += (records * elements) as u64;
        self.tally.io += counts.io();
        if let (Some(log), Some(start), Some(end)) = (log, start, end) {
            let start_ns = (start - epoch).as_nanos() as u64;
            let span = (end - start).as_nanos() as u64;
            for k in 0..records as u64 {
                log.push(Rec {
                    start_ns: start_ns + span * k / records as u64,
                    end_ns: start_ns + span * (k + 1) / records as u64,
                    elements: elements as u32,
                    io: (counts.io() / records as u64) as u32,
                    cache_hits: counts.cache_hits as u32,
                    cache_misses: counts.cache_misses as u32,
                });
            }
        }
        end
    }

    /// Reads one stripe back after a rebuild and compares it with the
    /// shadow; which stripe rotates, so every stripe is checked every few
    /// rebuilds and the end-of-run check covers all of them. One stripe,
    /// not all: a 64 KiB-element stripe read costs a third of the rebuild
    /// it checks, and the window should measure the program, not this.
    /// (The reads' receipts are not counted: they are the benchmark's.)
    fn rebuilt_stripe_matches(&mut self) -> bool {
        let dps = self.data_per_stripe[0];
        let stripe = self.rebuilds % (self.shadow[0].len() / dps);
        self.rebuilds += 1;
        self.expect_range(0, stripe * dps, dps);
        self.rung.read(0, stripe * dps, dps).is_ok()
            && self.rung.read_matches(&self.noise, &self.offsets)
    }
}
