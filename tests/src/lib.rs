//! Shared fixtures for the cross-crate integration tests.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hv_code::HvCode;
use raid_baselines::{EvenOddCode, HCode, HdpCode, PCode, RdpCode, XCode};
use raid_core::ArrayCode;
use raid_service::{serve, ServerConfig, Service};

/// Every XOR array code in the workspace at prime `p`.
///
/// # Panics
///
/// Panics if `p` is not a prime ≥ 5.
pub fn all_codes(p: usize) -> Vec<Arc<dyn ArrayCode>> {
    vec![
        Arc::new(HvCode::new(p).expect("prime p >= 5")) as Arc<dyn ArrayCode>,
        Arc::new(RdpCode::new(p).expect("prime")),
        Arc::new(EvenOddCode::new(p).expect("prime")),
        Arc::new(XCode::new(p).expect("prime")),
        Arc::new(HCode::new(p).expect("prime p >= 5")),
        Arc::new(HdpCode::new(p).expect("prime p >= 5")),
        Arc::new(PCode::new(p).expect("prime")),
    ]
}

/// Deterministic payload bytes.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u8
        })
        .collect()
}

/// A scratch directory under the system temp dir that no other test —
/// in this process or another — shares, removed on drop (so also when
/// the test fails).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Reserves `<tmp>/<tag>-<pid>-<n>` with `n` unique per process. The
    /// directory itself is not created: `FileBackend::create` does that.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `raid_service::serve` on a thread of its own, over a socket no other
/// test shares.
#[derive(Debug)]
pub struct ServedSocket {
    /// Holds the socket; removed on drop.
    _dir: TempDir,
    socket: PathBuf,
    server: JoinHandle<io::Result<()>>,
}

impl ServedSocket {
    /// Starts serving `svc`; returns once the socket accepts connections.
    ///
    /// # Panics
    ///
    /// Panics if the server is not listening within ten seconds.
    pub fn start(svc: &Arc<Service>, tag: &str) -> Self {
        let dir = TempDir::new(tag);
        std::fs::create_dir_all(dir.path()).expect("create the socket's directory");
        let socket = dir.path().join("socket");
        let server = {
            let (svc, cfg) = (Arc::clone(svc), ServerConfig::new(&socket));
            thread::spawn(move || serve(&svc, &cfg))
        };
        for _ in 0..2_000 {
            if UnixStream::connect(&socket).is_ok() {
                return ServedSocket { _dir: dir, socket, server };
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("{}: server never listened", socket.display());
    }

    /// A new connection to the server.
    ///
    /// # Panics
    ///
    /// Panics if the connection is refused.
    pub fn client(&self) -> LineClient {
        let stream = UnixStream::connect(&self.socket).expect("connect to the served socket");
        LineClient { reader: BufReader::new(stream), reply: String::new() }
    }

    /// Sends `SHUTDOWN` and waits for [`serve`] to drain, flush and
    /// return.
    ///
    /// # Panics
    ///
    /// Panics unless the server shuts down cleanly.
    pub fn shut_down(self) {
        assert_eq!(self.client().exchange("SHUTDOWN"), "OK shutdown");
        self.server.join().expect("server thread").expect("clean shutdown");
    }
}

/// A bare client of the service's line protocol: a request goes out in
/// one `write`, the reply line comes back into one reused buffer.
#[derive(Debug)]
pub struct LineClient {
    reader: BufReader<UnixStream>,
    reply: String,
}

impl LineClient {
    /// Sends `line` and returns the reply line, without its line ending.
    ///
    /// # Panics
    ///
    /// Panics on an I/O error or if the server closed the connection.
    pub fn exchange(&mut self, line: &str) -> &str {
        self.exchange_raw(format!("{line}\n").as_bytes())
    }

    /// [`LineClient::exchange`] of a request that already ends in its
    /// newline: nothing is allocated once the reply buffer is warm.
    ///
    /// # Panics
    ///
    /// Panics on an I/O error or if the server closed the connection.
    pub fn exchange_raw(&mut self, request: &[u8]) -> &str {
        self.reader.get_mut().write_all(request).expect("send request");
        self.reply.clear();
        let n = self.reader.read_line(&mut self.reply).expect("read reply");
        assert!(n > 0, "server closed the connection");
        self.reply.trim_end()
    }
}
