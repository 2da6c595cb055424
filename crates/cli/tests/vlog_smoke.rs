//! The value log through the served binary: spill-heavy YCSB-A over RESP
//! tombstones spilled records, a live `COMPACT` reclaims bytes, and after
//! a real `kill -9` the shell's reopen rebuilds the log's accounting with
//! every record present, compacts again offline, and scrubs clean.

mod common;

use common::{
    batch, connect, mix_value, number, preload, records, run_ycsb, spawn_serve, tmp_pool,
};
use hdnh_server::Reply;
use hdnh_ycsb::WorkloadSpec;

/// Records preloaded, then YCSB-A operations, both with netbench's mixed
/// value sizes: the full sizes in release (CI's `release` job), and a
/// debug-build run short enough for the default `cargo test`.
const RECORDS: u64 = if cfg!(debug_assertions) {
    5_000
} else {
    20_000
};
const OPS: usize = if cfg!(debug_assertions) {
    5_000
} else {
    20_000
};
const CAPACITY: &str = "200000";

/// The number after `key` in a `key:N` or `key N bytes` text line.
fn field(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + key.len();
    let digits: String = text[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e} in {text}"))
}

#[test]
fn spilled_log_compacts_live_and_recovers_after_kill9() {
    let pool = tmp_pool("vlog-smoke");
    let pool_str = pool.to_str().unwrap();
    let table = ["--capacity", CAPACITY, "--pool", pool_str];

    let server = spawn_serve(&[&["--threads", "4"], &table[..]].concat());
    preload(&server.addr, RECORDS, 32, mix_value);
    // The update half rewrites spilled values, so the log gathers garbage.
    run_ycsb(
        &server.addr,
        &WorkloadSpec::ycsb_a(),
        RECORDS,
        OPS,
        2,
        32,
        mix_value,
    );
    let reply = match connect(&server.addr).call(&[b"COMPACT"]).expect("compact") {
        Reply::Bulk(b) => String::from_utf8(b).unwrap(),
        other => panic!("unexpected COMPACT reply {other:?}"),
    };
    assert!(field(&reply, "victims:") > 0, "{reply}");
    assert!(
        field(&reply, "bytes_reclaimed:") > 0,
        "a live pass reclaims bytes: {reply}"
    );
    server.kill9();

    // Recovery rebuilds the log's accounting, every record (inline and
    // spilled) is present, an offline pass compacts, and media is clean.
    let (code, out) = batch(&table, "info\nvlog\ncompact\nscrub\nverify\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("recovered after unclean shutdown"), "{out}");
    assert_eq!(records(&out), RECORDS, "{out}");
    assert!(field(&out, "segments") > 0, "{out}");
    assert!(out.contains("victims:"), "{out}");
    assert_eq!(number(&out, "detected"), 0.0, "{out}");
    assert!(out.contains("integrity ok"), "{out}");

    // The next open still sees a populated log. (That this open skips
    // recovery is `persist_smoke.rs`'s check.)
    let (code, out) = batch(&table, "vlog\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    assert!(field(&out, "\nused") > 0, "{out}");
    let _ = std::fs::remove_dir_all(&pool);
}
