//! Syscalls per request, as a number: `net_read_calls` and
//! `net_write_calls` count every `read` and `write` the event loops issue
//! on client sockets. A pipelined batch that arrives in one piece costs the
//! server two `read`s — the one that takes the batch and the one that finds
//! the socket empty — and one `write`; a peer's half-close right behind the
//! bytes is seen, and every frame before it answered.
//!
//! Kept in its own integration-test binary so the process-global obs
//! registry is not shared with other network tests.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hdnh::{Hdnh, HdnhParams};
use hdnh_obs as obs;
use hdnh_server::resp::enc_request;
use hdnh_server::{start, ServerConfig};

const DEPTH: usize = 16;

/// A depth-16 batch of `SET`s and `GET`s of one small value, and the bytes
/// of its replies.
fn batch() -> (Vec<u8>, Vec<u8>) {
    let (mut req, mut exp) = (Vec::new(), Vec::new());
    for i in 0..DEPTH / 2 {
        let key = i.to_string();
        enc_request(&mut req, &[b"SET", key.as_bytes(), b"value"]);
        exp.extend_from_slice(b"+OK\r\n");
        enc_request(&mut req, &[b"GET", key.as_bytes()]);
        exp.extend_from_slice(b"$5\r\nvalue\r\n");
    }
    (req, exp)
}

fn socket_calls(since: &obs::MetricsSnapshot) -> (u64, u64) {
    let delta = obs::snapshot().since(since);
    (
        delta.counter(obs::Counter::NetReadCalls),
        delta.counter(obs::Counter::NetWriteCalls),
    )
}

#[test]
fn a_batch_costs_one_read_and_one_write_and_a_half_close_is_still_seen() {
    obs::set_enabled(true);
    let table = Arc::new(Hdnh::new(HdnhParams::builder().capacity(10_000).build().unwrap()));
    let cfg = ServerConfig::builder().threads(1).build().unwrap();
    let handle = start(table, "127.0.0.1:0", cfg).expect("bind loopback");
    let (req, exp) = batch();
    let connect = || {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        stream
    };

    // One batch settles the connection (accept, registration); then every
    // batch is one segment in, two reads (the batch, then the would-block),
    // one write, one segment out.
    let mut stream = connect();
    let mut got = vec![0u8; exp.len()];
    stream.write_all(&req).unwrap();
    stream.read_exact(&mut got).unwrap();
    const BATCHES: u64 = 50;
    let before = obs::snapshot();
    for _ in 0..BATCHES {
        stream.write_all(&req).unwrap();
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, exp);
    }
    assert_eq!(
        socket_calls(&before),
        (2 * BATCHES, BATCHES),
        "(reads, writes) for {BATCHES} depth-{DEPTH} batches on an otherwise idle connection"
    );

    // A batch with the half-close right behind it: every frame answered,
    // then the server's own close. One read for the bytes and one that
    // finds the EOF — or, when the FIN lands after the second read, a
    // would-block and the EOF on the next wake. (The first connection stays
    // open: its close would be a read too.)
    let idle = stream;
    let mut stream = connect();
    let before = obs::snapshot();
    stream.write_all(&req).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("the server closes after answering");
    assert_eq!(got, exp, "every received frame is answered before the close");
    let (reads, writes) = socket_calls(&before);
    assert!(
        (2..=3).contains(&reads) && writes == 1,
        "(reads, writes) = ({reads}, {writes}) for a batch and its half-close"
    );

    drop(idle);
    handle.shutdown_and_join();
}
