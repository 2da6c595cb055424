//! End-to-end tests for the network service layer: a real `hdnh-server`
//! on a loopback port, driven through `RespClient` (and raw sockets for
//! the protocol-violation cases).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hdnh::{Hdnh, HdnhParams};
use hdnh_server::{start, Reply, RespClient, ServerConfig};

fn spawn_server(cfg: ServerConfig) -> (hdnh_server::ServerHandle, String) {
    let params = HdnhParams::builder()
        .capacity(10_000)
        .build()
        .expect("default test params are valid");
    let table = Arc::new(Hdnh::new(params));
    let handle = start(table, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// Like [`spawn_server`] but also hands back the table so tests can
/// assert on storage-side effects (e.g. value-log occupancy).
fn spawn_server_with_table(cfg: ServerConfig) -> (hdnh_server::ServerHandle, String, Arc<Hdnh>) {
    let params = HdnhParams::builder()
        .capacity(10_000)
        .build()
        .expect("default test params are valid");
    let table = Arc::new(Hdnh::new(params));
    let handle = start(Arc::clone(&table), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    (handle, addr, table)
}

fn client(addr: &str) -> RespClient {
    let c = RespClient::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    c
}

#[test]
fn crud_over_the_wire() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut c = client(&addr);

    assert!(c.ping().unwrap());
    assert_eq!(c.call(&[b"PING", b"hello"]).unwrap(), Reply::Bulk(b"hello".to_vec()));

    assert_eq!(c.set(17, 42).unwrap(), Ok(()));
    assert_eq!(c.get(17).unwrap(), Some(42));
    assert_eq!(c.get(18).unwrap(), None);
    assert!(c.exists(17).unwrap());
    assert!(!c.exists(18).unwrap());

    // SET is an upsert: overwriting is not an error.
    assert_eq!(c.set(17, 43).unwrap(), Ok(()));
    assert_eq!(c.get(17).unwrap(), Some(43));

    assert_eq!(c.call(&[b"MSET", b"1", b"10", b"2", b"20"]).unwrap(), Reply::Simple("OK".into()));
    assert_eq!(
        c.mget(&[1, 2, 3]).unwrap(),
        vec![Some(10), Some(20), None]
    );

    assert_eq!(c.call(&[b"DEL", b"1", b"2", b"3"]).unwrap(), Reply::Int(2));
    assert!(!c.exists(1).unwrap());
    assert!(c.del(17).unwrap());
    assert!(!c.del(17).unwrap());

    let info = c.info().unwrap();
    assert!(info.contains("records:0"), "{info}");

    handle.shutdown_and_join();
}

#[test]
fn command_errors_keep_the_connection_usable() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut c = client(&addr);

    // Unknown command, bad arity, and non-integer keys are command-level
    // errors: the reply is `-ERR ...` and the connection stays open.
    for req in [
        &[b"FROB".as_slice()] as &[&[u8]],
        &[b"GET"],
        &[b"GET", b"1", b"2"],
        &[b"GET", b"xyz"],
        &[b"SET", b"1"],
        &[b"MSET", b"1", b"2", b"3"],
        &[b"METRICS", b"xml"],
        &[b"METRICS", b"json", b"extra"],
        &[b"SCRUB", b"x"],
        &[b"COMPACT", b"x"],
        &[b"BACKUP"],
    ] {
        match c.call(req).unwrap() {
            Reply::Error(e) => assert!(e.starts_with("ERR"), "{e}"),
            other => panic!("expected error for {req:?}, got {other:?}"),
        }
    }
    assert!(c.ping().unwrap(), "connection must survive command errors");

    handle.shutdown_and_join();
}

#[test]
fn a_bad_key_in_del_or_mset_changes_nothing() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut c = client(&addr);

    assert_eq!(c.set(1, 10).unwrap(), Ok(()));
    // The bad key comes after a good one: no key is touched before every
    // key has parsed.
    for req in [&[b"DEL".as_slice(), b"1", b"x"] as &[&[u8]], &[b"MSET", b"1", b"11", b"x", b"12"]] {
        match c.call(req).unwrap() {
            Reply::Error(e) => assert!(e.starts_with("ERR"), "{e}"),
            other => panic!("expected error for {req:?}, got {other:?}"),
        }
        assert_eq!(c.get(1).unwrap(), Some(10), "{req:?} changed key 1");
    }

    handle.shutdown_and_join();
}

#[test]
fn pipelined_batch_replies_in_order() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut c = client(&addr);

    // Several times the pipelining budget in one batch: the server stalls
    // on backpressure more than once within it.
    let n = 2 * hdnh_server::reactor::MAX_INFLIGHT as u64;
    for i in 0..n {
        c.cmd(&[b"SET", i.to_string().as_bytes(), (i * 3).to_string().as_bytes()]);
    }
    for i in 0..n {
        c.cmd(&[b"GET", i.to_string().as_bytes()]);
    }
    c.flush().unwrap();
    for _ in 0..n {
        assert!(c.read_reply().unwrap().is_ok());
    }
    for i in 0..n {
        let r = c.read_reply().unwrap();
        assert_eq!(r.as_u64(), Some(i * 3), "reply order must match request order");
    }

    handle.shutdown_and_join();
}

#[test]
fn connections_over_the_budget_are_rejected() {
    let (handle, addr) = spawn_server(ServerConfig::builder().threads(2).max_conns(1).build().unwrap());

    let mut a = client(&addr);
    assert!(a.ping().unwrap());

    // The slot is taken: the next connection gets an error and EOF.
    let mut b = client(&addr);
    match b.read_reply() {
        Ok(Reply::Error(e)) => assert!(e.contains("max connections"), "{e}"),
        other => panic!("expected rejection error, got {other:?}"),
    }
    assert!(
        b.read_reply().is_err(),
        "rejected connection must be closed after the error"
    );

    // Releasing the slot admits a new connection. The release happens
    // when the worker serving `a` notices the EOF, so retry briefly: a
    // probe that still hits the budget gets the rejection as its "ping"
    // reply (→ not PONG) and tries again.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = client(&addr);
        match c.ping() {
            Ok(true) => break,
            r if std::time::Instant::now() < deadline => {
                let _ = r;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("ping after slot release failed: {other:?}"),
        }
    }

    handle.shutdown_and_join();
}

#[test]
fn graceful_drain_answers_every_pipelined_frame() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut c = client(&addr);

    // SHUTDOWN rides in the middle of a pipelined burst: every frame in
    // the burst — including those after SHUTDOWN — must still be answered
    // before the server closes the connection.
    c.cmd(&[b"SET", b"5", b"55"]);
    c.cmd(&[b"GET", b"5"]);
    c.cmd(&[b"SHUTDOWN"]);
    c.cmd(&[b"GET", b"5"]);
    c.cmd(&[b"PING"]);
    c.flush().unwrap();

    assert!(c.read_reply().unwrap().is_ok());
    assert_eq!(c.read_reply().unwrap().as_u64(), Some(55));
    assert!(c.read_reply().unwrap().is_ok()); // SHUTDOWN ack
    assert_eq!(c.read_reply().unwrap().as_u64(), Some(55));
    assert_eq!(c.read_reply().unwrap(), Reply::Simple("PONG".into()));

    // ... and only then EOF.
    match c.read_reply() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        Ok(r) => panic!("expected EOF after drain, got {r:?}"),
    }

    // The whole server winds down without further prompting.
    handle.join();
}

/// Pins the variable-length value boundaries at the wire: the last size
/// that stays inline, the first that spills to the value log, a 64 KiB
/// payload, the representable maximum, and the typed `-CAPACITY` error
/// one byte past it (for both SET and MSET).
#[test]
fn value_size_boundaries_over_the_wire() {
    let (handle, addr, table) = spawn_server_with_table(ServerConfig::default());
    let mut c = client(&addr);

    let set = |c: &mut RespClient, key: &str, v: &[u8]| {
        c.call(&[b"SET", key.as_bytes(), v]).expect("SET io")
    };
    let get = |c: &mut RespClient, key: &str| match c.call(&[b"GET", key.as_bytes()]).expect("GET io") {
        Reply::Bulk(b) => b,
        other => panic!("expected bulk for {key}, got {other:?}"),
    };

    // Exactly the inline budget: round-trips and never touches the log.
    let inline = vec![b'i'; hdnh::INLINE_MAX];
    assert_eq!(set(&mut c, "1", &inline), Reply::Simple("OK".into()));
    assert_eq!(get(&mut c, "1"), inline);
    assert_eq!(table.vlog_stats().used_bytes, 0, "inline-budget value must not spill");

    // One byte past the budget: first size that spills.
    let spill = vec![b's'; hdnh::INLINE_MAX + 1];
    assert_eq!(set(&mut c, "2", &spill), Reply::Simple("OK".into()));
    assert_eq!(get(&mut c, "2"), spill);
    assert!(table.vlog_stats().used_bytes > 0, "budget+1 value must spill to the log");

    // 64 KiB, byte-exact (non-constant fill so truncation can't hide).
    let big: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    assert_eq!(set(&mut c, "3", &big), Reply::Simple("OK".into()));
    assert_eq!(get(&mut c, "3"), big);

    // The representable maximum round-trips...
    let max = vec![b'm'; hdnh::MAX_VALUE_BYTES];
    assert_eq!(set(&mut c, "4", &max), Reply::Simple("OK".into()));
    assert_eq!(get(&mut c, "4"), max);

    // ... and max+1 is a *typed* command error, not a dropped connection,
    // for SET and for MSET alike. Nothing is stored under the key.
    let over = vec![b'x'; hdnh::MAX_VALUE_BYTES + 1];
    for req in [
        &[b"SET".as_slice(), b"5", &over] as &[&[u8]],
        &[b"MSET", b"5", &over],
    ] {
        match c.call(req).expect("over-cap call io") {
            Reply::Error(e) => assert!(e.starts_with("CAPACITY"), "{e}"),
            other => panic!("expected -CAPACITY, got {other:?}"),
        }
    }
    assert_eq!(c.call(&[b"EXISTS", b"5"]).unwrap(), Reply::Int(0));
    assert!(c.ping().unwrap(), "connection must survive -CAPACITY");

    handle.shutdown_and_join();
}

/// Over a sticky pool I/O fault (a failed write-back) no write is
/// acknowledged: `SET`, `MSET` and `DEL` answer `-IO`, and reads go on.
#[test]
fn writes_over_a_sticky_io_fault_answer_io_and_reads_still_serve() {
    let dir = std::env::temp_dir().join(format!("hdnh-net-io-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = HdnhParams::builder().capacity(10_000).build().unwrap();
    let (table, _) = Hdnh::open_pool(params, &dir, 1).expect("open pool");
    let table = Arc::new(table);
    let handle = start(Arc::clone(&table), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut c = client(&handle.local_addr().to_string());
    assert_eq!(c.set(1, 10).unwrap(), Ok(()));

    table.params().nvm.backend.pool().unwrap().record_fault(hdnh_nvm::NvmIoError {
        op: "msync",
        path: dir.clone(),
        msg: "injected write-back failure".into(),
    });
    for req in [
        &[b"SET".as_slice(), b"2", b"20"] as &[&[u8]],
        &[b"MSET", b"3", b"30", b"4", b"40"],
        &[b"DEL", b"1"],
    ] {
        match c.call(req).unwrap() {
            Reply::Error(e) => assert!(e.starts_with("IO") && e.contains("injected"), "{e}"),
            other => panic!("{req:?} was acknowledged over a sticky i/o fault: {other:?}"),
        }
    }
    // Applied, not acknowledged: the writes are visible to readers.
    assert_eq!(c.get(2).unwrap(), Some(20));
    assert_eq!(c.get(1).unwrap(), None);
    assert_eq!(c.mget(&[3, 4]).unwrap(), vec![Some(30), None], "MSET stops at the first key");

    handle.shutdown_and_join();
    drop(table);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn framing_violations_get_an_error_then_eof() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // An array element that is not a bulk string is a fatal framing error.
    s.write_all(b"*1\r\n:5\r\n").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap(); // server replies then closes
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("-ERR protocol error"), "{text}");

    handle.shutdown_and_join();
}

#[test]
fn inline_commands_work_for_debugging() {
    let (handle, addr) = spawn_server(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    s.write_all(b"SET 7 77\r\nGET 7\r\nPING\r\n").unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    while !String::from_utf8_lossy(&got).contains("+PONG\r\n") {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before answering");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(String::from_utf8_lossy(&got), "+OK\r\n$2\r\n77\r\n+PONG\r\n");

    handle.shutdown_and_join();
}
