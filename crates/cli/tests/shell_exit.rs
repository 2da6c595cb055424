//! The binary's exit-code contract: a batch run exits 0 when every line
//! succeeded and 1 when any line failed.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `script` through `hdnh-cli` in batch mode; returns the exit code
/// and stdout.
fn batch(script: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdnh-cli"))
        .env("HDNH_CLI_BATCH", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hdnh-cli");
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("hdnh-cli runs to the end");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn a_clean_scrub_and_audit_exit_zero() {
    let (code, out) = batch("fill 20000\nscrub\nverify\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("\"detected\":0"), "{out}");
    assert!(out.contains("integrity ok"), "{out}");
}

#[test]
fn an_error_reply_exits_one() {
    let (code, out) = batch("GET x\nquit\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.starts_with("error: ERR "), "{out}");
}
