//! The built `hvraid` binary's exit status on a stripe count no disk can
//! hold: a named error and exit 1, never a panic (exit 101).

use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// 2⁶² stripes × 4 rows (HV at p = 5) is 2⁶⁴ elements per disk, which
/// wraps to 0 in an unchecked product.
const STRIPES: &str = "4611686018427387904";

/// Runs `hvraid args…` to completion (killed after 30 s) and returns its
/// exit code and standard error.
fn hvraid(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hvraid"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hvraid");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll hvraid").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill hvraid");
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect hvraid");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_stripe_count_that_wraps_a_disk_exits_1_naming_the_flag() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/table2.trace");
    let socket = std::env::temp_dir().join(format!("hvraid-exit-{}.sock", std::process::id()));
    let socket = socket.to_str().unwrap();
    for args in [
        &["replay", "--code", "hv", "--p", "5", "--trace", trace, "--stripes", STRIPES][..],
        &["serve", "--code", "hv", "--p", "5", "--socket", socket, "--stripes", STRIPES],
        &["chaos", "--code", "hv", "--p", "5", "--backend", "mem", "--stripes", STRIPES],
    ] {
        let (code, stderr) = hvraid(args);
        assert_eq!(code, Some(1), "{} exited {code:?}: {stderr}", args[0]);
        assert!(stderr.contains(&format!("--stripes {STRIPES}")), "{}: {stderr}", args[0]);
    }
}
