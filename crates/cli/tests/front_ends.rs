//! One pool, two front-ends.
//!
//! The shell and the RESP server name the same keys (`Key::from_u64`), so
//! a value written through one must read back unchanged through the
//! other: both store the value's bytes through the table's bytes API.
//! Each test opens one pool directory through the shell's `Engine`, closes
//! it, and serves it in-process (or the reverse), for values on both sides
//! of the 14-byte inline budget.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hdnh::{Hdnh, HdnhParams};
use hdnh_cli::engine::Outcome;
use hdnh_cli::{parse, Engine, EngineConfig};
use hdnh_server::{Reply, RespClient, ServerConfig};

const CAPACITY: usize = 4_000;

/// `5` and `300` are the two the fixed-value shell used to store as
/// little-endian words; then the largest inline value, the smallest
/// spilled one, and a long one.
fn values() -> Vec<String> {
    let letters = |n: usize| (0..n).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    vec!["5".into(), "300".into(), letters(14), letters(15), letters(200)]
}

fn fresh_pool(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdnh-front-ends-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `lines` in a shell opened on `pool`, then quits (closing the pool
/// clean). Returns what each line printed.
fn shell(pool: &Path, lines: &[String]) -> Vec<String> {
    let mut engine = Engine::try_new(EngineConfig {
        pool: Some(pool.to_str().unwrap().to_string()),
        capacity: CAPACITY,
        ..Default::default()
    })
    .expect("shell opens the pool");
    let printed = lines
        .iter()
        .map(|line| match engine.execute(parse(line).unwrap().unwrap()) {
            Outcome::Text(t) => t,
            other => panic!("`{line}`: {other:?}"),
        })
        .collect();
    assert_eq!(engine.execute(hdnh_cli::Command::Quit), Outcome::Quit);
    printed
}

/// Serves `pool` on a loopback port for the duration of `f`, then drains
/// and closes the pool clean.
fn served<R>(pool: &Path, f: impl FnOnce(&mut RespClient) -> R) -> R {
    let params = HdnhParams::builder().capacity(CAPACITY).build().unwrap();
    let (table, _) = Hdnh::open_pool(params, pool, 2).expect("server opens the pool");
    let table = Arc::new(table);
    let handle = hdnh_server::start(Arc::clone(&table), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut client = RespClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let out = f(&mut client);
    drop(client);
    handle.shutdown_and_join();
    let table = Arc::try_unwrap(table).expect("the drained server dropped its handle");
    table.close_pool().expect("clean close");
    out
}

#[test]
fn what_the_shell_stores_is_what_get_returns() {
    let pool = fresh_pool("shell-to-server");
    let values = values();
    let inserts: Vec<String> =
        values.iter().enumerate().map(|(k, v)| format!("insert {k} {v}")).collect();
    assert!(shell(&pool, &inserts).iter().all(|out| out == "ok"));
    served(&pool, |c| {
        for (k, v) in values.iter().enumerate() {
            let reply = c.call(&[b"GET", k.to_string().as_bytes()]).unwrap();
            assert_eq!(reply, Reply::Bulk(v.as_bytes().to_vec()), "GET {k}");
        }
    });
    // A shell `update` is a `SET` of an existing key; sizes swap sides of
    // the inline budget.
    let updates: Vec<String> =
        values.iter().rev().enumerate().map(|(k, v)| format!("update {k} {v}")).collect();
    assert!(shell(&pool, &updates).iter().all(|out| out == "ok"));
    served(&pool, |c| {
        for (k, v) in values.iter().rev().enumerate() {
            let reply = c.call(&[b"GET", k.to_string().as_bytes()]).unwrap();
            assert_eq!(reply, Reply::Bulk(v.as_bytes().to_vec()), "GET {k} after update");
        }
    });
    let _ = std::fs::remove_dir_all(&pool);
}

#[test]
fn what_set_stores_is_what_the_shell_prints() {
    let pool = fresh_pool("server-to-shell");
    let values = values();
    served(&pool, |c| {
        for (k, v) in values.iter().enumerate() {
            let reply = c.call(&[b"SET", k.to_string().as_bytes(), v.as_bytes()]).unwrap();
            assert!(reply.is_ok(), "SET {k}: {reply:?}");
        }
    });
    let gets: Vec<String> = (0..values.len()).map(|k| format!("get {k}")).collect();
    assert_eq!(shell(&pool, &gets), values);
    let keys: Vec<String> = (0..values.len()).map(|k| k.to_string()).collect();
    let expected: Vec<String> = values.iter().enumerate().map(|(k, v)| format!("{k} {v}")).collect();
    assert_eq!(shell(&pool, &[format!("mget {}", keys.join(" "))]), [expected.join("\n")]);
    let _ = std::fs::remove_dir_all(&pool);
}
