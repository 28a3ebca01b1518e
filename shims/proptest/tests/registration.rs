//! Pins the harness contract: one property is one test function, and its
//! body runs `cases` times, once. (The macro used to add a second
//! `#[test]` beside the caller's, so every property ran twice, in parallel
//! with itself.)

use std::process::Command;

use proptest::prelude::*;

const CASES: u32 = 7;
const MARKER: &str = "counted_property ran a case";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn counted_property(_x in 0u8..4) {
        println!("{MARKER}");
    }
}

#[test]
fn one_property_is_one_test_running_cases_once() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = |args: &[&str]| {
        let out = Command::new(&exe).args(args).output().expect("re-run test binary");
        assert!(out.status.success(), "{args:?} failed");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };

    let listed = run(&["--list"]);
    let registered = listed.lines().filter(|l| *l == "counted_property: test").count();
    assert_eq!(registered, 1, "registered {registered} times:\n{listed}");

    let output = run(&["counted_property", "--exact", "--nocapture", "--test-threads=1"]);
    let cases = output.lines().filter(|l| l.contains(MARKER)).count();
    assert_eq!(cases, CASES as usize, "body ran {cases} times:\n{output}");
}
