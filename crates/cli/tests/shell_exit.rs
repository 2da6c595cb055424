//! The binary's exit-code contract: a batch run (stdin is not a terminal)
//! exits 0 when every line succeeded and 1 when any line failed.

use std::io::Write;
use std::process::{Command, Stdio};

/// Pipes `script` into `hdnh-cli`, which makes it a batch run; returns
/// the exit code and stdout.
fn batch(script: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdnh-cli"))
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

#[test]
fn an_unparsable_line_in_a_piped_script_exits_one() {
    let (code, out) = batch("fill x\nquit\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.starts_with("parse error: "), "{out}");
}

/// The number after the first `"key":` in `json`.
fn number(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("no {key} in {json}")) + pat.len();
    let end = json[at..].find([',', '}']).map_or(json.len(), |e| at + e);
    json[at..end].parse().unwrap_or_else(|e| panic!("{key}: {e} in {json}"))
}

/// The registry's accounting over a bounded YCSB-A run, read back from
/// the shell's `metrics json delta` and `metrics prom delta`.
#[test]
fn metrics_account_for_every_workload_op() {
    let (code, out) = batch(
        "fill 20000\nmetrics reset\nworkload a 100000\nmetrics json delta\nmetrics prom delta\nquit\n",
    );
    assert_eq!(code, Some(0), "{out}");
    for series in ["hdnh_ops_total{op=\"get\"}", "hdnh_phase_runs_total"] {
        assert!(out.lines().any(|l| l.starts_with(series)), "no {series} line in {out}");
    }
    let json = out.lines().find(|l| l.starts_with('{')).expect("a JSON line");
    // `"ops"` is the first member; each of its entries is one flat object.
    let ops = &json[..json.find("},\"net\":").expect("ops precede net")];
    let entries: Vec<&str> = ops.split("},").collect();
    let total: f64 = entries.iter().map(|e| number(e, "count")).sum();
    assert_eq!(total, 100_000.0, "histogram totals in {ops}");
    let get = entries.iter().find(|e| e.contains("\"get\":{")).expect("a get entry");
    assert!(number(get, "p50_ns") > 0.0 && number(get, "p99_ns") > 0.0, "{get}");
    assert!(number(json, "hot_hit_rate") > 0.0, "{json}");
}
