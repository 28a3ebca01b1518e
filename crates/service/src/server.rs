//! The unix-socket front door: one acceptor thread plus one thread per
//! connection, all feeding the in-process [`Service`] scheduler.
//!
//! The repo is offline (no tokio); concurrency is plain threads in the
//! shape the rest of the workspace uses. The acceptor registers each
//! accepted stream and spawns a scoped thread that serves it to
//! completion, so no connection ever waits for another to end; past 128
//! live ones a newcomer gets a single `ERR busy` line.
//!
//! # Data path of one op
//!
//! A connection owns three buffers for its whole life: a 64 KiB reader,
//! one frame `Vec` and one reply `Vec`. A
//! request line is read with `read_until` into the frame — bounded by
//! what an op can carry, so a client that never sends a newline costs one
//! frame of memory, not all of it — checked to be UTF-8 and parsed in
//! place ([`proto::parse`]): the only copy of a `WRITE` payload is its
//! decode, and that `Vec` moves into the scheduler. The reply — `OK data `
//! with the hex encoded straight into the buffer, newline included — goes
//! out in one `write`, so the client never wakes for a payload and blocks
//! again for its line ending. An over-long or non-UTF-8 frame is answered
//! with `ERR bad-request` and the connection closed: past either, the
//! stream's framing cannot be trusted. A line the stream ends before its
//! newline is a closed connection, not a request.
//!
//! # Shutdown
//!
//! `SHUTDOWN` from any client flags the server, force-closes every other
//! live connection (threads blocked reading an idle client observe EOF
//! instead of pinning the server open), wakes the acceptor with a
//! self-connection, drains the scheduler, flushes the volume, and joins
//! every thread before [`serve`] returns — the clean-shutdown contract
//! the serve-smoke gate asserts with a post-mortem `fsck`. Each
//! connection's scheduler session is closed when the connection ends, so
//! churning clients (stats scrapes included) don't accrete scheduler
//! state.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::metrics::prometheus_text;
use crate::proto::{self, Request};
use crate::scheduler::{Service, ServiceHandle};

/// Where the server listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the unix socket to bind (an existing file is replaced).
    pub socket: PathBuf,
}

impl ServerConfig {
    /// A server on `socket`.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig { socket: socket.into() }
    }
}

/// Connections served at once. Each holds a thread and two descriptors
/// (the stream and the registry's handle for force-closing it), which
/// keeps a full house well inside the usual 1024-descriptor limit.
const MAX_CONNECTIONS: usize = 128;

/// Read-buffer bytes per connection: a four-element `WRITE` of 4 KiB
/// elements (32 KiB of hex) arrives in one `read`, not five.
const READ_BUFFER: usize = 64 * 1024;

/// Binds the socket and serves clients until one sends `SHUTDOWN`.
///
/// Blocks the calling thread. On return the scheduler is drained, the
/// volume flushed, all threads joined, and the socket file removed.
///
/// # Errors
///
/// Propagates socket bind/IO errors; per-connection errors only end that
/// connection.
pub fn serve(svc: &Arc<Service>, cfg: &ServerConfig) -> io::Result<()> {
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let stop = AtomicBool::new(false);
    let registry = ConnRegistry::new();

    thread::scope(|scope| {
        // Acceptor: runs on the calling thread.
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            // Refused (at the cap, or stopping): dropped unserved.
            let Some(id) = registry.register(&stream) else { continue };
            let (stop, registry) = (&stop, &registry);
            let connection = move || {
                let outcome = serve_connection(svc, &stream);
                registry.deregister(id);
                if outcome == Outcome::Shutdown {
                    registry.stop_all();
                    request_stop(stop, &cfg.socket);
                }
            };
            // A failed spawn drops the closure, closing the stream.
            if thread::Builder::new().spawn_scoped(scope, connection).is_err() {
                registry.deregister(id);
            }
        }
    });

    let _ = std::fs::remove_file(&cfg.socket);
    svc.shutdown().map_err(|e| io::Error::other(e.to_string()))
}

/// Flags the acceptor and wakes it with a throwaway connection.
fn request_stop(stop: &AtomicBool, socket: &Path) {
    if !stop.swap(true, Ordering::SeqCst) {
        let _ = UnixStream::connect(socket);
    }
}

/// Live client connections: counted against [`MAX_CONNECTIONS`], and
/// force-closable on shutdown — a thread blocked reading an idle client
/// observes EOF instead of keeping [`serve`]'s thread scope from joining.
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    stopping: bool,
    next_id: u64,
    conns: Vec<(u64, UnixStream)>,
}

impl ConnRegistry {
    fn new() -> ConnRegistry {
        ConnRegistry {
            inner: Mutex::new(RegistryInner { stopping: false, next_id: 0, conns: Vec::new() }),
        }
    }

    /// Tracks `stream` and returns its registry id, or refuses it: with
    /// one `ERR busy` line at [`MAX_CONNECTIONS`], silently once the
    /// server is stopping (or the stream can't be cloned). The caller
    /// drops a refused connection unserved.
    fn register(&self, mut stream: &UnixStream) -> Option<u64> {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        if g.stopping {
            return None;
        }
        if g.conns.len() >= MAX_CONNECTIONS {
            let refusal = format!("ERR busy: {} connections\n", g.conns.len());
            drop(g);
            let _ = stream.write_all(refusal.as_bytes());
            return None;
        }
        let clone = stream.try_clone().ok()?;
        g.next_id += 1;
        let id = g.next_id;
        g.conns.push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        g.conns.retain(|(i, _)| *i != id);
    }

    /// Marks the server stopping and shuts down every live connection
    /// so blocked readers return promptly.
    fn stop_all(&self) {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        g.stopping = true;
        for (_, s) in g.conns.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Closed,
    Shutdown,
}

/// Serves one client connection to completion — the line-in/line-out
/// loop over the buffers the module docs describe; any I/O error ends it
/// — and closes its scheduler session when the connection ends.
fn serve_connection(svc: &Arc<Service>, mut stream: &UnixStream) -> Outcome {
    let max_frame = proto::max_frame(svc.max_op_elements(), svc.element_size());
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    let (mut frame, mut reply) = (Vec::new(), Vec::new());
    let mut session: Option<ServiceHandle> = None;
    let outcome = loop {
        frame.clear();
        // One byte past the bound tells "too long" from "just fits"; the
        // frame grows as bytes arrive and is never reserved up front.
        let bound = (max_frame as u64).saturating_add(1);
        match reader.by_ref().take(bound).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break Outcome::Closed,
            Ok(_) => {}
        }
        // Within the bound and no newline: the stream ended mid-line. What
        // arrived is a prefix of a request — a `WRITE` cut on an element
        // boundary parses as a shorter write — so it is never executed.
        if frame.len() <= max_frame && frame.last() != Some(&b'\n') {
            break Outcome::Closed;
        }
        reply.clear();
        let Ok(ends) = answer(svc, &frame, max_frame, &mut session, &mut reply) else {
            break Outcome::Closed;
        };
        if !reply.is_empty() {
            reply.push(b'\n');
            if stream.write_all(&reply).is_err() {
                break Outcome::Closed;
            }
        }
        if let Some(outcome) = ends {
            break outcome;
        }
    };
    if let Some(h) = session {
        h.close();
    }
    outcome
}

/// Renders the reply to one frame into `reply` (nothing for a blank
/// line) and says whether — and how — the connection ends after it.
fn answer(
    svc: &Arc<Service>,
    frame: &[u8],
    max_frame: usize,
    session: &mut Option<ServiceHandle>,
    reply: &mut Vec<u8>,
) -> io::Result<Option<Outcome>> {
    if frame.len() > max_frame {
        write!(reply, "ERR bad-request: frame exceeds {max_frame} bytes")?;
        return Ok(Some(Outcome::Closed));
    }
    let Ok(line) = std::str::from_utf8(frame) else {
        write!(reply, "ERR bad-request: request is not UTF-8")?;
        return Ok(Some(Outcome::Closed));
    };
    if line.trim().is_empty() {
        return Ok(None);
    }
    match proto::parse(line) {
        Err(msg) => write!(reply, "ERR bad-request: {msg}")?,
        Ok(Request::Quit) => {
            write!(reply, "OK bye")?;
            return Ok(Some(Outcome::Closed));
        }
        Ok(Request::Shutdown) => {
            write!(reply, "OK shutdown")?;
            return Ok(Some(Outcome::Shutdown));
        }
        Ok(Request::Hello { tenant, class }) => {
            // Re-HELLO replaces the session; retire the old one.
            if let Some(old) = session.take() {
                old.close();
            }
            *session = Some(svc.session(&tenant, class));
            write!(
                reply,
                "OK session {tenant} elements {} element_size {}",
                svc.data_elements(),
                svc.element_size()
            )?;
        }
        Ok(req) => match session.as_ref() {
            None => write!(reply, "ERR bad-request: HELLO first")?,
            Some(h) => respond(h, req, reply)?,
        },
    }
    Ok(None)
}

/// Executes a post-HELLO request and renders the response line(s).
fn respond(h: &ServiceHandle, req: Request, reply: &mut Vec<u8>) -> io::Result<()> {
    let rendered = match req {
        Request::Read { addr, len } => h.read(addr, len).map(|bytes| {
            proto::push_data_reply(reply, &bytes);
            Ok(())
        }),
        Request::Write { addr, data } => {
            h.write_owned(addr, data).map(|n| write!(reply, "OK wrote {n}"))
        }
        Request::Flush => h.flush().map(|()| write!(reply, "OK flushed")),
        Request::Stats => {
            // The exposition less its final newline, after a count of
            // its lines.
            let text = prometheus_text(&h.stats());
            let metrics = text.trim_end();
            Ok(write!(reply, "OK stats {}\n{metrics}", metrics.split('\n').count()))
        }
        Request::Hello { .. } | Request::Quit | Request::Shutdown => {
            unreachable!("handled by `answer`")
        }
    };
    rendered.unwrap_or_else(|e| reply.write_all(proto::err_line(&e).as_bytes()))
}

/// The client half of a connection, as `hvraid connect`, `hvraid stats`
/// and the tests drive it: a request line goes out in one `write`, reply
/// lines come back through one buffered reader.
struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        Ok(Client { reader: BufReader::new(stream) })
    }

    /// Sends `line` and returns the first line of the reply.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let request = format!("{line}\n");
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        self.read_line()
    }

    /// The next line from the server, without its line ending.
    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// A scripted client for `hvraid connect` and the smoke gate: sends each
/// non-comment line of `script`, collects responses, and applies two
/// client-side directives —
///
/// * `EXPECT <hex>` asserts the previous `READ` returned exactly those
///   bytes;
/// * `# …` lines are comments.
///
/// Returns the full transcript (`> request` / `< response` interleaved).
///
/// # Errors
///
/// IO errors talking to the socket, protocol `ERR` responses, and
/// `EXPECT` mismatches all abort the script with a message.
pub fn run_script(socket: &Path, script: &str) -> Result<String, String> {
    let mut client = Client::connect(socket)?;
    let mut transcript = String::new();
    let mut last_data: Option<String> = None;

    for raw in script.split('\n') {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(expected) = line.strip_prefix("EXPECT ") {
            let got = last_data.as_deref().unwrap_or("");
            if got != expected.trim() {
                return Err(format!("EXPECT mismatch: wanted {expected}, got {got}"));
            }
            transcript.push_str("# EXPECT ok\n");
            continue;
        }
        let reply = client.exchange(line)?;
        transcript.push_str("> ");
        transcript.push_str(line);
        transcript.push_str("\n< ");
        transcript.push_str(&reply);
        transcript.push('\n');
        if let Some(rest) = reply.strip_prefix("OK stats ") {
            let n: usize =
                rest.parse().map_err(|_| format!("bad stats line count {rest:?}"))?;
            for _ in 0..n {
                transcript.push_str(&client.read_line()?);
                transcript.push('\n');
            }
        } else if let Some(hex) = reply.strip_prefix("OK data ") {
            last_data = Some(hex.to_string());
        } else if reply.starts_with("ERR") {
            return Err(format!("{line} -> {reply}"));
        }
    }
    Ok(transcript)
}

/// Connects, opens a throwaway `metrics` session, and returns the
/// Prometheus text snapshot — the transport behind `hvraid stats`.
///
/// # Errors
///
/// IO errors and protocol `ERR` responses are returned as messages.
pub fn fetch_stats(socket: &Path) -> Result<String, String> {
    let mut client = Client::connect(socket)?;
    let mut ok = |cmd: &str| match client.exchange(cmd)? {
        reply if reply.starts_with("ERR") => Err(format!("{cmd} -> {reply}")),
        reply => Ok(reply),
    };
    ok("HELLO metrics reader")?;
    let head = ok("STATS")?;
    let n: usize = head
        .strip_prefix("OK stats ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unexpected stats header {head:?}"))?;
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(&client.read_line()?);
        out.push('\n');
    }
    let _ = client.exchange("QUIT");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use hv_code::HvCode;
    use raid_array::RaidVolume;
    use raid_core::ArrayCode;

    use crate::scheduler::{Service, ServiceConfig};

    use super::*;

    /// A live `serve` over HV p = 5, 4 stripes of 8-byte elements: 32
    /// data elements, so `max_frame` is 64 + 2 × 32 × 8 = 576 bytes.
    struct Served {
        svc: Arc<Service>,
        socket: PathBuf,
        server: thread::JoinHandle<io::Result<()>>,
    }

    impl Served {
        fn start(tag: &str) -> Served {
            let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
            let svc = Service::new(RaidVolume::in_memory(code, 4, 8), ServiceConfig::default());
            let socket =
                std::env::temp_dir().join(format!("hvraid-test-{tag}-{}.sock", std::process::id()));
            let cfg = ServerConfig::new(&socket);
            let server = {
                let svc = Arc::clone(&svc);
                thread::spawn(move || serve(&svc, &cfg))
            };
            // Wait for the bind.
            for _ in 0..200 {
                if socket.exists() {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Served { svc, socket, server }
        }

        /// A connected client whose reads give up after two seconds, so
        /// a reply that never comes fails the test instead of hanging it.
        fn client(&self) -> Client {
            let client = Client::connect(&self.socket).expect("client connects");
            client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            client
        }

        /// A client with a session open.
        fn session(&self, tenant: &str) -> Client {
            let mut client = self.client();
            let hello = client.exchange(&format!("HELLO {tenant} mixed")).expect("HELLO");
            assert_eq!(hello, format!("OK session {tenant} elements 32 element_size 8"));
            client
        }

        /// Polls until `done`, for the connection ends the server only
        /// sees asynchronously.
        fn eventually(&self, what: &str, mut done: impl FnMut(&Served) -> bool) {
            let begun = Instant::now();
            while !done(self) {
                assert!(begun.elapsed() < Duration::from_secs(10), "never happened: {what}");
                thread::sleep(Duration::from_millis(2));
            }
        }

        fn shut_down(self) {
            run_script(&self.socket, "SHUTDOWN\n").expect("shutdown script");
            self.server.join().unwrap().expect("clean shutdown");
            assert!(!self.socket.exists(), "socket file removed on shutdown");
        }
    }

    impl Client {
        fn send_raw(&mut self, bytes: &[u8]) {
            self.reader.get_mut().write_all(bytes).expect("raw send");
        }

        /// True once the server has closed its end (a reset counts: the
        /// server may close with bytes of ours unread).
        fn is_closed(&mut self) -> bool {
            let mut rest = Vec::new();
            match self.reader.read_to_end(&mut rest) {
                Ok(_) => rest.is_empty(),
                Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
            }
        }
    }

    #[test]
    fn socket_session_roundtrip_and_shutdown() {
        let served = Served::start("roundtrip");
        let payload = proto::to_hex(&[0xab; 16]); // two 8-byte elements
        let script = format!(
            "HELLO smoke writer\nWRITE 2 {payload}\nREAD 2 2\nEXPECT {payload}\nFLUSH\nSTATS\nSHUTDOWN\n"
        );
        let transcript = run_script(&served.socket, &script).expect("script runs clean");
        assert!(transcript.contains("OK wrote 2"));
        assert!(transcript.contains("# EXPECT ok"));
        assert!(transcript.contains("hvraid_service_ops_total{tenant=\"smoke\",class=\"writer\"}"));
        served.server.join().unwrap().expect("clean shutdown");
        assert!(!served.socket.exists(), "socket file removed on shutdown");
    }

    /// SHUTDOWN must not wait on other still-connected clients: threads
    /// blocked reading an idle connection are unblocked by force-closing
    /// it, so `serve` returns promptly.
    #[test]
    fn shutdown_returns_despite_idle_connected_client() {
        let served = Served::start("idle-client");
        // An idle client that HELLOs (so a thread is parked in its read
        // loop) and then goes silent.
        let idle = served.session("idler");

        run_script(&served.socket, "HELLO closer writer\nSHUTDOWN\n").expect("shutdown script");
        let begun = Instant::now();
        while !served.server.is_finished() {
            assert!(
                begun.elapsed() < Duration::from_secs(10),
                "serve() hung on the idle client after SHUTDOWN"
            );
            thread::sleep(Duration::from_millis(5));
        }
        served.server.join().unwrap().expect("clean shutdown");
        drop(idle);
    }

    /// No connection waits for another to end. (With a pool of `workers`
    /// threads each serving one connection to completion, connection
    /// `workers + 1` — a stats scrape beside four sessions, at the old
    /// default — was accepted and then never answered.)
    #[test]
    fn a_connection_is_served_however_many_others_sit_idle() {
        let served = Served::start("no-pool");
        let idle: Vec<Client> = (0..6).map(|i| served.session(&format!("idle{i}"))).collect();
        let mut late = served.session("late");
        assert_eq!(late.exchange("READ 0 1").unwrap(), format!("OK data {}", "00".repeat(8)));
        assert!(fetch_stats(&served.socket).unwrap().contains("hvraid_service_ops_total"));
        drop(idle);
        served.shut_down();
    }

    #[test]
    fn a_connection_past_the_cap_gets_one_busy_line() {
        let served = Served::start("cap");
        let mut full: Vec<Client> = (0..MAX_CONNECTIONS).map(|_| served.client()).collect();
        // Accepted in order by one thread: all of `full` are registered
        // by the time this one is.
        let mut extra = served.client();
        assert_eq!(extra.read_line().unwrap(), format!("ERR busy: {MAX_CONNECTIONS} connections"));
        assert!(extra.is_closed());
        assert_eq!(full[0].exchange("HELLO first mixed").unwrap().split(' ').next(), Some("OK"));
        // A departure makes room again.
        drop(full.pop());
        served.eventually("a freed slot serves a newcomer", |s| {
            s.client().exchange("HELLO next mixed").is_ok_and(|r| r.starts_with("OK session"))
        });
        drop(full);
        served.shut_down();
    }

    /// However the bytes of a request are cut into `write`s, the reply
    /// is the same.
    #[test]
    fn framing_is_independent_of_how_the_bytes_arrive() {
        let served = Served::start("framing");
        let (x, y) = ("11".repeat(8), "22".repeat(16));

        // One byte per write.
        let mut c = served.client();
        for b in format!("HELLO bytewise mixed\nWRITE 3 {x}\n").bytes() {
            c.send_raw(&[b]);
        }
        assert!(c.read_line().unwrap().starts_with("OK session bytewise"));
        assert_eq!(c.read_line().unwrap(), "OK wrote 1");

        // Two requests (and a blank line) in one write.
        c.send_raw(format!("WRITE 4 {y}\n\nREAD 3 3\n").as_bytes());
        assert_eq!(c.read_line().unwrap(), "OK wrote 2");
        assert_eq!(c.read_line().unwrap(), format!("OK data {x}{y}"));

        // CRLF line endings, a lower-case verb, repeated separators.
        assert_eq!(c.exchange("read  3   1\r").unwrap(), format!("OK data {x}"));
        c.send_raw(b"FLUSH\r\nQUIT\r\n");
        assert_eq!(c.read_line().unwrap(), "OK flushed");
        assert_eq!(c.read_line().unwrap(), "OK bye");
        assert!(c.is_closed());

        // A last line without its newline is a closed connection, not a
        // request: no reply, just the close.
        let mut c = served.session("unterminated");
        c.send_raw(b"READ 3 1");
        c.reader.get_ref().shutdown(Shutdown::Write).unwrap();
        assert!(c.is_closed());

        // The largest admissible op — the whole volume — fits a frame.
        let mut c = served.session("whole");
        assert_eq!(c.exchange(&format!("WRITE 0 {}", "5a".repeat(32 * 8))).unwrap(), "OK wrote 32");
        served.shut_down();
    }

    /// A client that vanishes mid-frame takes its session with it and
    /// nothing else.
    #[test]
    fn a_mid_frame_disconnect_closes_the_session_and_only_that() {
        let served = Served::start("mid-frame");
        let mut bystander = served.session("bystander");
        let mut doomed = served.session("doomed");
        assert_eq!(served.svc.open_sessions(), 2);
        doomed.send_raw(b"WRITE 0 11223"); // no newline, odd payload: never a write
        drop(doomed);
        served.eventually("the vanished client's session closes", |s| s.svc.open_sessions() == 1);
        assert_eq!(bystander.exchange("READ 0 1").unwrap(), format!("OK data {}", "00".repeat(8)));
        served.shut_down();
    }

    /// A client that dies after the hex of one element of a two-element
    /// `WRITE` has sent a well-formed one-element `WRITE` but for its
    /// newline. (Whatever `read_until` returned at end-of-stream was
    /// executed: the array took the shorter write.)
    #[test]
    fn a_write_cut_short_by_end_of_stream_is_not_executed() {
        let served = Served::start("cut-short");
        let old = "11".repeat(16); // two 8-byte elements
        assert_eq!(served.session("first").exchange(&format!("WRITE 0 {old}")).unwrap(), "OK wrote 2");
        let writes = |s: &Served| {
            let stats = s.svc.stats();
            (stats.write_runs, stats.tenants.iter().map(|t| t.write_elements).sum::<u64>())
        };
        let before = writes(&served);

        let mut doomed = served.session("doomed");
        // Cut on the element boundary: one of the two elements' hex.
        doomed.send_raw(format!("WRITE 0 {}", "22".repeat(8)).as_bytes());
        doomed.reader.get_ref().shutdown(Shutdown::Write).unwrap();
        let closed_without_a_reply = doomed.is_closed();

        let mut fresh = served.session("fresh");
        assert_eq!(fresh.exchange("READ 0 2").unwrap(), format!("OK data {old}"));
        assert_eq!(writes(&served), before);
        assert!(closed_without_a_reply);
        served.shut_down();
    }

    /// A frame longer than any admissible op could need is refused with
    /// a typed reply after `max_frame + 1` bytes, not buffered until a
    /// newline that may never come. (`lines()` buffered without bound.)
    #[test]
    fn an_over_long_frame_gets_a_typed_refusal_then_the_close() {
        let served = Served::start("long-frame");
        let mut c = served.session("flood");
        c.send_raw(format!("WRITE 0 {}", "0".repeat(600)).as_bytes()); // no newline yet
        assert_eq!(c.read_line().unwrap(), "ERR bad-request: frame exceeds 576 bytes");
        assert!(c.is_closed());
        served.eventually("the refused client's session closes", |s| s.svc.open_sessions() == 0);
        // One byte under the bound is a frame like any other.
        let mut c = served.session("snug");
        let reply = c.exchange(&format!("WRITE 0 {}", " ".repeat(576 - 9))).unwrap();
        assert_eq!(reply, "ERR bad-request: WRITE: missing <hex-payload>");
        assert_eq!(c.exchange("FLUSH").unwrap(), "OK flushed");
        served.shut_down();
    }

    /// (`lines()` ended such a connection without a word.)
    #[test]
    fn a_non_utf8_frame_gets_a_typed_refusal_then_the_close() {
        let served = Served::start("non-utf8");
        let mut c = served.session("binary");
        c.send_raw(b"READ \xff\xfe 1\n");
        assert_eq!(c.read_line().unwrap(), "ERR bad-request: request is not UTF-8");
        assert!(c.is_closed());
        served.shut_down();
    }
}
