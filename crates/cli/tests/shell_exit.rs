//! The binary's exit-code contract: a batch run (stdin is not a terminal)
//! exits 0 when every line succeeded and 1 when any line failed.

mod common;

use std::process::Stdio;

use common::{batch, batch_output, number};

#[test]
fn a_clean_scrub_and_audit_exit_zero() {
    let (code, out) = batch(&[], "fill 20000\nscrub\nverify\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("\"detected\":0"), "{out}");
    assert!(out.contains("integrity ok"), "{out}");
}

#[test]
fn an_error_reply_exits_one() {
    let (code, out) = batch(&[], "GET x\nquit\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.starts_with("error: ERR "), "{out}");
}

#[test]
fn an_unparsable_line_in_a_piped_script_exits_one() {
    let (code, out) = batch(&[], "fill x\nquit\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.starts_with("parse error: "), "{out}");
}

/// The registry's accounting over a bounded YCSB-A run, read back from
/// the shell's `metrics json delta` and `metrics prom delta`.
#[test]
fn metrics_account_for_every_workload_op() {
    let (code, out) = batch(
        &[],
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

/// A crash case replayed through the binary: a crash mid-migration of a
/// live resize, replayed on a pool directory, passes and says so, and
/// the injected crash prints no panic message.
#[test]
fn a_pool_crash_case_replays_through_the_shell() {
    let tuple = "pool:fill-resize:resize.bucket_migrated:24:1";
    let run = batch_output(&[], &format!("faultrun repro {tuple}\nquit\n"), Stdio::piped());
    let (out, err) = (String::from_utf8_lossy(&run.stdout), String::from_utf8_lossy(&run.stderr));
    assert_eq!(run.status.code(), Some(0), "{out}");
    assert!(out.lines().any(|l| l == format!("PASS {tuple}")), "{out}");
    assert!(!err.contains("panicked at"), "{err}");
}
