//! One table, two front-ends.
//!
//! The shell sends every table command through the server's executor, so
//! a value written through one must read back unchanged through the
//! other, and one script must print over RESP what it prints in the
//! shell. The pool tests open one pool directory through the shell's
//! `Engine`, close it, and serve it in-process (or the reverse), for
//! values on both sides of the 14-byte inline budget.

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
    let sets: Vec<String> =
        values.iter().enumerate().map(|(k, v)| format!("set {k} {v}")).collect();
    assert!(shell(&pool, &sets).iter().all(|out| out == "OK"));
    served(&pool, |c| {
        for (k, v) in values.iter().enumerate() {
            let reply = c.call(&[b"GET", k.to_string().as_bytes()]).unwrap();
            assert_eq!(reply, Reply::Bulk(v.as_bytes().to_vec()), "GET {k}");
        }
    });
    // A `set` of an existing key overwrites it; sizes swap sides of the
    // inline budget.
    let updates: Vec<String> =
        values.iter().rev().enumerate().map(|(k, v)| format!("set {k} {v}")).collect();
    assert!(shell(&pool, &updates).iter().all(|out| out == "OK"));
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
    assert_eq!(shell(&pool, &[format!("mget {}", keys.join(" "))]), [values.join("\n")]);
    let _ = std::fs::remove_dir_all(&pool);
}

/// A RESP reply as the shell prints it: an error as a failed line,
/// `error: CODE msg`, and any other reply as [`text`] renders it.
fn rendered(reply: &Reply) -> Outcome {
    match reply {
        Reply::Error(e) => Outcome::Failure(format!("error: {e}")),
        other => Outcome::Text(text(other)),
    }
}

/// A bulk as its bytes, an integer as its digits, a simple string as it
/// is, nil as `(not found)`, and an array one element a line.
fn text(reply: &Reply) -> String {
    match reply {
        Reply::Bulk(b) => String::from_utf8_lossy(b).into_owned(),
        Reply::Int(n) => n.to_string(),
        Reply::Simple(s) | Reply::Error(s) => s.clone(),
        Reply::Nil => "(not found)".into(),
        Reply::Array(items) => items.iter().map(text).collect::<Vec<_>>().join("\n"),
    }
}

#[test]
fn one_script_prints_the_same_in_the_shell_and_over_resp() {
    let long = "a-value-longer-than-14-bytes";
    let script = [
        "SET 1 10".to_string(),
        // A bad key anywhere in `DEL` or `MSET` changes nothing.
        "DEL 1 x".into(),
        "GET 1".into(),
        "MSET 1 11 x 12".into(),
        "GET 1".into(),
        format!("MSET 2 20 3 {long} 4 40"),
        "GET 3".into(),
        "DEL 2 4 99".into(),
        "EXISTS 1 2 3 4".into(),
        "EXISTS 1 x".into(),
        "set 5 x".into(),
        "PING".into(),
        "ping hello".into(),
        "GET 1 2".into(),
        "MGET 1 2 3 4 5 6".into(),
    ];

    let mut engine = Engine::try_new(EngineConfig {
        capacity: CAPACITY,
        ..Default::default()
    })
    .expect("shell opens a heap table");
    let in_shell: Vec<Outcome> =
        script.iter().map(|line| engine.execute(parse(line).unwrap().unwrap())).collect();

    let params = HdnhParams::builder().capacity(CAPACITY).build().unwrap();
    let handle = hdnh_server::start(Arc::new(Hdnh::new(params)), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut client = RespClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let over_resp: Vec<Outcome> = script
        .iter()
        .map(|line| {
            let args: Vec<&[u8]> = line.split_whitespace().map(str::as_bytes).collect();
            rendered(&client.call(&args).unwrap())
        })
        .collect();
    drop(client);
    handle.shutdown_and_join();

    for ((line, shell), resp) in script.iter().zip(&in_shell).zip(&over_resp) {
        assert_eq!(shell, resp, "`{line}`");
    }
    assert_eq!(in_shell[2], Outcome::Text("10".into()), "`DEL 1 x` changed key 1");
    assert_eq!(in_shell[4], Outcome::Text("10".into()), "`MSET 1 11 x 12` changed key 1");
    assert_eq!(in_shell[6], Outcome::Text(long.into()));
    assert_eq!(
        in_shell.last(),
        Some(&Outcome::Text(format!("10\n(not found)\n{long}\n(not found)\nx\n(not found)")))
    );
}
