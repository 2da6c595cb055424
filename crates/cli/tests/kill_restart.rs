//! Real `kill -9` durability harness.
//!
//! Spawns the actual `hdnh-cli serve --pool <dir>` binary, fills it over
//! RESP, SIGKILLs it at a random point mid-write-storm, restarts it on the
//! same pool directory, and checks that every *acknowledged* write is still
//! present with the right value and that a scrub finds zero checksum
//! failures. Repeats for `CYCLES` kill points, then finishes with one
//! graceful shutdown and a library-level reopen that must see a clean pool.
//!
//! The durability claim under test is exactly the pool backend's contract:
//! a `+OK` means the record reached the `MAP_SHARED` mapping, which a dead
//! process cannot un-write (the kernel owns the dirty pages). Writes sent
//! but not yet acknowledged may or may not have landed — both are legal.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use hdnh_server::{Reply, RespClient};

const CYCLES: u32 = 20;
const CAPACITY: &str = "50000";
const PIPELINE: usize = 32;

fn value_for(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)
}

/// Deterministic pseudo-random kill delay in milliseconds (no external
/// randomness: reproducible per cycle).
fn kill_delay_ms(cycle: u32) -> u64 {
    let mut x = 0x5DEE_CE66u64 ^ u64::from(cycle).wrapping_mul(0x9E37_79B9);
    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    2 + (x >> 33) % 50
}

struct Server {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `hdnh-cli serve 127.0.0.1:0 --pool <dir>` and waits for the
/// listening banner to learn the bound port.
fn spawn_serve(pool: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdnh-cli"))
        .args([
            "serve",
            "127.0.0.1:0",
            "--capacity",
            CAPACITY,
            "--pool",
            pool.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hdnh-cli serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    let mut line = String::new();
    while stdout.read_line(&mut line).expect("read server stdout") > 0 {
        if let Some(rest) = line.trim().strip_prefix("hdnh-server listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("server exited without printing the listening banner");
    });
    Server { child, addr, stdout }
}

fn connect(addr: &str) -> RespClient {
    let c = RespClient::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    c
}

/// Checks every previously acknowledged key and a clean scrub.
fn verify_acked(c: &mut RespClient, acked: &[u64], cycle: u32) {
    let mut i = 0;
    while i < acked.len() {
        let burst = PIPELINE.min(acked.len() - i);
        for k in &acked[i..i + burst] {
            c.cmd(&[b"GET", k.to_string().as_bytes()]);
        }
        c.flush().expect("verify flush");
        for k in &acked[i..i + burst] {
            let got = c.read_reply().expect("verify reply").as_u64();
            assert_eq!(
                got,
                Some(value_for(*k)),
                "cycle {cycle}: acked key {k} lost or corrupted after kill -9 (got {got:?})"
            );
        }
        i += burst;
    }
    match c.call(&[b"SCRUB"]).expect("scrub") {
        Reply::Bulk(b) => {
            let json = String::from_utf8_lossy(&b).to_string();
            assert!(
                json.contains("\"detected\":0"),
                "cycle {cycle}: scrub found corruption after kill -9: {json}"
            );
        }
        other => panic!("cycle {cycle}: unexpected SCRUB reply {other:?}"),
    }
}

/// Pipelined SET storm until the connection dies (the killer thread
/// SIGKILLs the server at a pseudo-random instant). Returns the keys whose
/// `+OK` was read before the crash — the durable set.
fn storm_until_killed(c: &mut RespClient, first_key: u64, pid: u32, delay: Duration) -> Vec<u64> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    let killer = std::thread::spawn(move || {
        std::thread::sleep(delay);
        unsafe { kill(pid as i32, SIGKILL) };
    });

    let mut acked = Vec::new();
    let mut next = first_key;
    'storm: loop {
        let burst_base = next;
        for _ in 0..PIPELINE {
            c.cmd(&[
                b"SET",
                next.to_string().as_bytes(),
                value_for(next).to_string().as_bytes(),
            ]);
            next += 1;
        }
        if c.flush().is_err() {
            break;
        }
        for i in 0..PIPELINE as u64 {
            match c.read_reply() {
                Ok(r) if r.is_ok() => acked.push(burst_base + i),
                // An -IO here would mean the backend recorded a flush
                // fault; on a healthy filesystem that is a test failure.
                Ok(other) => panic!("storm SET rejected: {other:?}"),
                Err(_) => break 'storm, // killed mid-burst
            }
        }
    }
    killer.join().expect("killer thread");
    acked
}

/// The acceptance case spelled out end to end: a 64 KiB value
/// survives SET → SIGKILL → recovery → GET byte-identical, and the media
/// scrubs clean afterwards.
#[test]
fn large_value_survives_sigkill() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pool = tmp_pool("large");
    let value: Vec<u8> = (0..64 * 1024).map(|i| (i * 13 % 251) as u8).collect();

    let mut server = spawn_serve(&pool);
    let mut c = connect(&server.addr);
    assert!(
        matches!(c.call(&[b"SET", b"7", &value]).expect("set"), Reply::Simple(ref s) if s == "OK")
    );
    unsafe { kill(server.child.id() as i32, 9) };
    server.child.wait().expect("reap killed server");

    let mut server = spawn_serve(&pool);
    let mut c = connect(&server.addr);
    match c.call(&[b"GET", b"7"]).expect("get") {
        Reply::Bulk(b) => assert_eq!(b, value, "64 KiB value not byte-identical after kill -9"),
        other => panic!("unexpected GET reply {other:?}"),
    }
    match c.call(&[b"SCRUB"]).expect("scrub") {
        Reply::Bulk(b) => {
            let json = String::from_utf8_lossy(&b).to_string();
            assert!(json.contains("\"detected\":0"), "scrub found corruption: {json}");
        }
        other => panic!("unexpected SCRUB reply {other:?}"),
    }
    assert!(
        matches!(c.call(&[b"SHUTDOWN"]).expect("shutdown"), Reply::Simple(ref s) if s == "OK")
    );
    drop(c);
    server.child.wait().expect("graceful exit");
    let _ = std::fs::remove_dir_all(&pool);
}

fn tmp_pool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdnh-kill-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn acked_writes_survive_twenty_sigkills() {
    let pool = tmp_pool("storm");
    let mut acked: Vec<u64> = Vec::new();
    let mut next_key = 0u64;

    for cycle in 0..CYCLES {
        let mut server = spawn_serve(&pool);
        let mut c = connect(&server.addr);

        // Everything acknowledged before any earlier kill must still be
        // there, byte-exact, and the media must scrub clean.
        verify_acked(&mut c, &acked, cycle);

        let pid = server.child.id();
        let delay = Duration::from_millis(kill_delay_ms(cycle));
        let new = storm_until_killed(&mut c, next_key, pid, delay);
        next_key = new.last().map(|k| k + 1).unwrap_or(next_key);
        acked.extend(new);

        server.child.wait().expect("reap killed server");
    }
    assert!(!acked.is_empty(), "no write was ever acknowledged — harness broken");

    // Final restart: verify, then shut down gracefully and confirm the
    // pool is marked clean.
    let mut server = spawn_serve(&pool);
    let mut c = connect(&server.addr);
    verify_acked(&mut c, &acked, CYCLES);
    assert!(matches!(c.call(&[b"SHUTDOWN"]).expect("shutdown"), Reply::Simple(s) if s == "OK"));
    drop(c);
    let status = server.child.wait().expect("wait for graceful exit");
    assert!(status.success(), "graceful serve exit failed: {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stdout, &mut rest).expect("drain stdout");
    assert!(rest.contains("pool marked clean"), "missing clean-close line: {rest}");

    // Library-level reopen must see the clean flag and every record.
    let params = hdnh::HdnhParams::builder()
        .capacity(CAPACITY.parse().unwrap())
        .build()
        .unwrap();
    let (table, report) = hdnh::Hdnh::open_pool(params, &pool, 2).expect("reopen pool");
    assert!(report.was_clean, "graceful shutdown did not mark the pool clean");
    for k in &acked {
        let v = table.get_bytes(&hdnh_common::Key::from_u64(*k)).unwrap();
        assert_eq!(
            v,
            Some(value_for(*k).to_string().into_bytes()),
            "key {k} lost after clean close"
        );
    }
    table.close_pool().expect("close pool");
    let _ = std::fs::remove_dir_all(&pool);
}
