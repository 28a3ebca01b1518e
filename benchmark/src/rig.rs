//! Builds what a workload runs against — prefilled volumes behind the
//! chosen rung, with connected clients — runs the clients, and tears it
//! all down with the final correctness checks.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::client::{
    expected_window, Client, HandleRung, Rec, SocketRung, Tally, Until, VolumeRung, PREFILLED,
};
use crate::env::ScratchDir;
use crate::gen::{Noise, OpStream, Workload, DEGRADED_DISKS, FIVE_CODE_LOST_DISK, P};
use crate::sut::{Code, Counts, Svc, SvcStats, Vol, Volume};

/// Where the program is entered, bottom to top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    VolumeNoCache,
    VolumeCache,
    Handle,
    Socket,
}

impl RungKind {
    pub fn name(self) -> &'static str {
        match self {
            RungKind::VolumeNoCache => "volume_nocache",
            RungKind::VolumeCache => "volume_cache",
            RungKind::Handle => "handle",
            RungKind::Socket => "socket",
        }
    }

    /// The rungs a workload reaches, bottom to top. The last one is where
    /// its end-to-end window runs; the traced pass replays the same ops
    /// once per rung.
    pub fn ladder(workload: Workload) -> &'static [RungKind] {
        use RungKind::{Handle, Socket, VolumeCache, VolumeNoCache};
        match workload {
            Workload::FrontDoorMixed => &[VolumeNoCache, VolumeCache, Handle, Socket],
            Workload::HandleWriteBurst => &[VolumeNoCache, VolumeCache, Handle],
            _ => &[VolumeNoCache],
        }
    }

    pub fn top(workload: Workload) -> RungKind {
        *RungKind::ladder(workload).last().expect("ladders are not empty")
    }
}

/// The noise buffer a workload's payloads are cut from.
pub fn noise_for(workload: Workload, seed: u64) -> Arc<Noise> {
    let longest_stripe = workload.data_per_stripe().into_iter().max().expect("one volume");
    let with_hex = workload == Workload::FrontDoorMixed;
    Arc::new(Noise::new(seed, longest_stripe * workload.shape().element_size, with_hex))
}

pub struct Rig {
    workload: Workload,
    clients: Vec<Client>,
    svc: Option<Svc>,
    server: Option<(JoinHandle<std::io::Result<()>>, PathBuf)>,
    noise: Arc<Noise>,
}

impl Rig {
    /// Set-up as a user pays it: build the volumes, prefill every stripe,
    /// attach cache / service / socket server as the rung demands, and
    /// connect `clients` clients.
    pub fn build(
        workload: Workload,
        kind: RungKind,
        clients: usize,
        seed: u64,
        noise: &Arc<Noise>,
        scratch: &ScratchDir,
    ) -> Result<Rig, String> {
        let shape = workload.shape();
        let es = shape.element_size;
        let dps = workload.data_per_stripe();
        let mut volumes: Vec<Vol> = Vec::with_capacity(dps.len());
        for (target, (name, _)) in workload.volumes().into_iter().enumerate() {
            let code = Code::new(name, P);
            if code.data_per_stripe() != dps[target] {
                return Err(format!(
                    "{name}: program has {} data elements per stripe, generator assumes {}",
                    code.data_per_stripe(),
                    dps[target]
                ));
            }
            let mut vol = code.volume(shape.stripes, es);
            for stripe in 0..shape.stripes {
                let window = noise.prefill_window(target, stripe);
                vol.write(stripe * dps[target], noise.bytes(window, dps[target] * es))
                    .map_err(|e| format!("prefill {name} stripe {stripe}: {e:?}"))?;
            }
            if workload == Workload::FiveCodeSmallOps && target % 2 == 1 {
                vol.fail_disk(FIVE_CODE_LOST_DISK)
                    .map_err(|e| format!("{name}: fail disk: {e:?}"))?;
            }
            if kind == RungKind::VolumeCache {
                vol.enable_cache();
            }
            vol.reset_counts();
            volumes.push(vol);
        }

        let mut rig = Rig {
            workload,
            clients: Vec::with_capacity(clients),
            svc: None,
            server: None,
            noise: Arc::clone(noise),
        };
        let client = |rung, c| {
            let stream = OpStream::new(workload, seed, c);
            Client::new(rung, stream, Arc::clone(noise), es, shape.stripes, dps.clone())
        };
        match kind {
            RungKind::VolumeNoCache | RungKind::VolumeCache => {
                assert_eq!(clients, 1, "a volume has one caller");
                rig.clients.push(client(Box::new(VolumeRung::new(volumes, es)), 0));
            }
            RungKind::Handle | RungKind::Socket => {
                let svc = volumes.pop().expect("one volume").into_service();
                let read_write = workload == Workload::FrontDoorMixed;
                if kind == RungKind::Handle {
                    for c in 0..clients {
                        let session = svc.session("bench", read_write);
                        rig.clients.push(client(Box::new(HandleRung::new(session, es)), c));
                    }
                } else {
                    let socket = scratch.path().join("s");
                    let server = {
                        let (svc, socket) = (svc.clone(), socket.clone());
                        thread::spawn(move || svc.serve(&socket))
                    };
                    rig.server = Some((server, socket.clone()));
                    let class = if read_write { "mixed" } else { "writer" };
                    for c in 0..clients {
                        // The server binds on its own thread: retry until it listens.
                        let begun = Instant::now();
                        let rung = loop {
                            match SocketRung::connect(&socket, "bench", class, es) {
                                Ok(rung) => break rung,
                                Err(e) if begun.elapsed() > Duration::from_secs(5) => {
                                    return Err(format!("connect {}: {e}", socket.display()));
                                }
                                Err(_) => thread::sleep(Duration::from_micros(200)),
                            }
                        };
                        rig.clients.push(client(Box::new(rung), c));
                    }
                }
                rig.svc = Some(svc);
            }
        }
        if workload == Workload::VolumeRebuild {
            rig.clients[0].data_columns = Code::new("hv", P).data_columns();
        }
        rig.arm_failures();
        Ok(rig)
    }

    /// Runs the first `active` clients until `until` while `meanwhile`
    /// (the window's CPU sampler) runs beside them. A lone client runs on
    /// the calling thread, as a program driving a volume would; two get a
    /// thread each. `logs[c]`, when given, receives client `c`'s records.
    pub fn run(
        &mut self,
        active: usize,
        until: Until,
        epoch: Instant,
        logs: Option<&mut [Vec<Rec>]>,
        meanwhile: impl FnOnce() + Send,
    ) {
        let clients = &mut self.clients[..active];
        let mut logs: Vec<Option<&mut Vec<Rec>>> = match logs {
            Some(logs) => logs.iter_mut().map(Some).collect(),
            None => clients.iter().map(|_| None).collect(),
        };
        thread::scope(|scope| {
            if let [client] = clients {
                scope.spawn(meanwhile);
                client.run(until, epoch, logs.swap_remove(0));
                return;
            }
            for (client, log) in clients.iter_mut().zip(logs) {
                scope.spawn(move || client.run(until, epoch, log));
            }
            meanwhile();
        });
    }

    /// Runs client 0 alone on the calling thread, nothing beside it.
    pub fn run_lone(&mut self, until: Until, epoch: Instant, log: Option<&mut Vec<Rec>>) {
        self.clients[0].run(until, epoch, log);
    }

    /// Every client's tally so far, summed.
    pub fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for c in &self.clients {
            total.add(&c.tally);
        }
        total
    }

    pub fn first_error(&self) -> Option<String> {
        self.clients.iter().find_map(|c| c.first_error.clone())
    }

    /// Flushes through the top rung (the write barrier a user would
    /// issue); returns the flush's own receipt where the rung has one.
    fn flush(&mut self) -> Result<Counts, String> {
        self.clients[0].rung.flush().map_err(|e| format!("final flush: {e:?}"))
    }

    /// Flushes, then counts the backend element I/Os of everything the
    /// clients did since set-up: from the service's ledger, or on a direct
    /// volume from the calls' own receipts (which leave out the
    /// benchmark's read-backs).
    pub fn flush_and_count_io(&mut self) -> Result<u64, String> {
        let receipt = self.flush()?;
        Ok(match self.service_stats() {
            Some(stats) => stats.counts.io(),
            None => self.tally().io + receipt.io(),
        })
    }

    /// Service-wide counters, on the service rungs.
    pub fn service_stats(&self) -> Option<SvcStats> {
        self.svc.as_ref().map(Svc::stats)
    }

    /// `volume_degraded_read`: the next run fails one disk as it starts
    /// and a second half-way through.
    fn arm_failures(&mut self) {
        if self.workload == Workload::VolumeDegradedRead {
            self.clients[0].degrade = Some(DEGRADED_DISKS);
        }
    }

    /// `volume_degraded_read` between passes: rebuild the failed disks so
    /// the next pass starts healthy and fails them again. Nothing to do
    /// on the other workloads.
    pub fn heal(&mut self) -> Result<(), String> {
        if self.workload != Workload::VolumeDegradedRead {
            return Ok(());
        }
        self.clients[0].rung.rebuild(0).map_err(|e| format!("rebuild: {e:?}"))?;
        self.arm_failures();
        Ok(())
    }

    /// The cumulative ledger behind the rung (all volumes).
    pub fn counts(&self) -> Counts {
        match &self.svc {
            Some(svc) => svc.stats().counts,
            None => self.clients[0].rung.counts(),
        }
    }

    /// The socket the server listens on, on the socket rung.
    pub fn socket(&self) -> Option<&std::path::Path> {
        self.server.as_ref().map(|(_, socket)| socket.as_path())
    }

    /// Request + reply bytes on the socket since connect.
    pub fn wire_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.rung.wire_bytes()).sum()
    }

    /// Tears the rig down and checks everything a run must leave behind:
    /// a final flush, `serve` returning `Ok` after `SHUTDOWN`, every
    /// element of every volume equal to a client's shadow copy, and
    /// `verify_all()` on every volume (degraded ones are rebuilt first).
    pub fn finish(mut self) -> Result<(), String> {
        self.flush()?;
        let shape = self.workload.shape();
        let dps = self.workload.data_per_stripe();
        let mut shadows: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut volumes: Vec<Vol> = Vec::new();
        for mut client in self.clients.drain(..) {
            volumes.extend(client.rung.take_volumes());
            shadows.push(std::mem::take(&mut client.shadow));
            // Dropping the rung closes its session or connection.
        }
        self.stop_server()?;
        let check = |target: usize, vol: &mut dyn Volume| {
            let per_client: Vec<&[u32]> = shadows.iter().map(|s| s[target].as_slice()).collect();
            verify_volume(vol, target, &per_client, &self.noise, dps[target], shape)
        };
        match &self.svc {
            Some(svc) => svc.with_volume(|vol| check(0, vol)),
            None => volumes
                .iter_mut()
                .enumerate()
                .try_for_each(|(target, vol)| check(target, vol.as_mut())),
        }
    }
}

impl Rig {
    /// Sends `SHUTDOWN` on a fresh connection and requires `serve` to
    /// return `Ok`: drained, flushed, every thread joined.
    fn stop_server(&mut self) -> Result<(), String> {
        let Some((server, socket)) = self.server.take() else { return Ok(()) };
        let sent = SocketRung::connect(&socket, "control", "reader", 1)
            .and_then(|mut control| control.command(b"SHUTDOWN", b"OK shutdown"));
        if let Err(e) = sent {
            // Without a SHUTDOWN the server never returns: leave the
            // thread behind rather than hang the benchmark on join.
            return Err(format!("SHUTDOWN: {e}"));
        }
        match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve returned an error: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// A rig abandoned before `finish` (a repeated set-up, or an error on the
/// way) still stops its server and joins the thread.
impl Drop for Rig {
    fn drop(&mut self) {
        self.clients.clear();
        let _ = self.stop_server();
    }
}

/// Rebuilds if degraded, flushes, compares every element with the
/// clients' shadow copies, and runs the program's own parity check.
fn verify_volume(
    vol: &mut dyn Volume,
    target: usize,
    shadows: &[&[u32]],
    noise: &Noise,
    dps: usize,
    shape: crate::gen::Shape,
) -> Result<(), String> {
    let es = shape.element_size;
    vol.rebuild().map_err(|e| format!("volume {target}: final rebuild: {e:?}"))?;
    vol.flush().map_err(|e| format!("volume {target}: final flush: {e:?}"))?;
    for stripe in 0..shape.stripes {
        let (bytes, _) = vol
            .read(stripe * dps, dps)
            .map_err(|e| format!("volume {target}: read back stripe {stripe}: {e:?}"))?;
        for (ordinal, got) in bytes.chunks_exact(es).enumerate() {
            let addr = stripe * dps + ordinal;
            // Two writers may both have written the element; the last
            // one wins and either is a correct outcome.
            let mut written = shadows.iter().map(|s| s[addr]).filter(|&s| s != PREFILLED);
            let matches = |window: u32| got == noise.bytes(window, es);
            let ok = match written.next() {
                None => matches(expected_window(noise, PREFILLED, target, addr, dps, es)),
                Some(first) => matches(first) || written.any(matches),
            };
            if !ok {
                return Err(format!("volume {target}: element {addr} holds wrong bytes"));
            }
        }
    }
    if !vol.verify_all() {
        return Err(format!("volume {target}: verify_all() found inconsistent parity"));
    }
    Ok(())
}
