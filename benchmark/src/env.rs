//! The host and the benchmark's own corner of the file system.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// `path` relative to the working directory when it lies below it: the
/// unix socket lives under the output directory and `sun_path` holds
/// only ~100 bytes.
pub fn relative(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|rel| !rel.as_os_str().is_empty())
        .unwrap_or_else(|| path.to_path_buf())
}

/// `benchmark/`.
pub fn bench_dir() -> PathBuf {
    relative(Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// Where results, traces and scratch files go unless `--out` says
/// otherwise (git-ignored).
pub fn default_out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A uniquely named directory under the output directory for the socket
/// and the `FileBackend` probe, removed when dropped (also while
/// unwinding).
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out: &Path) -> std::io::Result<ScratchDir> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos());
        let dir = out.join(format!("tmp-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The commit measured, read from `.git` without running git; the
/// driver's checkouts are not repositories, hence "unknown".
pub fn git_rev() -> String {
    let git = bench_dir().join("../.git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|l| l.strip_suffix(reference).map(str::to_string))
            })
            .unwrap_or_default(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
