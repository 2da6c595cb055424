//! Both front ends on one pool across a real `kill -9`: records acked over
//! RESP by `hdnh-cli serve` are all there when the shell reopens the pool,
//! a value set over the wire reads back as the bytes it was set to, the
//! media scrubs clean, and the shell's `quit` closes the pool cleanly.

mod common;

use common::{batch, connect, decimal_value, preload, records, spawn_serve, tmp_pool};

/// Records preloaded over RESP: the full size in release (CI's `release`
/// job), and a debug-build run short enough for the default `cargo test`.
const PRELOAD: u64 = if cfg!(debug_assertions) {
    5_000
} else {
    50_000
};
const CAPACITY: &str = "200000";

#[test]
fn served_writes_survive_kill9_and_reopen_in_the_shell() {
    let pool = tmp_pool("persist-smoke");
    let pool_str = pool.to_str().unwrap();
    let table = ["--capacity", CAPACITY, "--pool", pool_str];

    let server = spawn_serve(&[&["--threads", "4"], &table[..]].concat());
    preload(&server.addr, PRELOAD, 64, decimal_value);
    let mut c = connect(&server.addr);
    assert!(c.call(&[b"SET", b"424242", b"hello"]).expect("set").is_ok());
    server.kill9();

    // Recovery runs, every acked record is present, the one set by hand
    // reads back, and the media scrubs clean.
    let (code, out) = batch(&table, "info\nget 424242\nscrub\nverify\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("recovered after unclean shutdown"), "{out}");
    assert_eq!(records(&out), PRELOAD + 1, "{out}");
    assert!(out.lines().any(|l| l == "hello"), "{out}");
    assert!(out.contains("\"detected\":0"), "{out}");
    assert!(out.contains("integrity ok"), "{out}");

    // That `quit` closed the pool: the next open skips recovery.
    let (code, out) = batch(&table, "info\nquit\n");
    assert_eq!(code, Some(0), "{out}");
    // Not a bare "clean shutdown": "unclean shutdown" contains that.
    assert!(out.contains(", clean shutdown"), "{out}");
    let _ = std::fs::remove_dir_all(&pool);
}
