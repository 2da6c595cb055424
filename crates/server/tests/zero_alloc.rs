//! A pipelined request never touches the heap.
//!
//! The shipped server (`hdnh_server::start`, obs on, as `hdnh-cli serve`
//! runs it) is driven over loopback the way `benchmark/src/net.rs` drives
//! it — requests and the exact replies they must draw are encoded up
//! front, the client writes a batch and reads into a fixed buffer — and
//! every allocation in the process is counted by this binary's own
//! `#[global_allocator]`. After a warm-up batch has grown what grows once
//! (thread-locals, the first log segment, the reply buffer), 10 000
//! requests at depth 16 must allocate nothing: not in the decoder, not in
//! the table read or write, not in the value log, not in the encoder.
//!
//! One test function, one process: the count is process-wide, so nothing
//! else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::Key;
use hdnh_server::resp::{enc_bulk, enc_request};
use hdnh_server::{start, ServerConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DEPTH: usize = 16;
const REQUESTS: usize = 10_000;
/// Keys per value class: `0..KEYS` hold 8-byte values, `KEYS..2 * KEYS`
/// 200-byte ones; `ABSENT..` never exist.
const KEYS: u64 = 1_024;
const ABSENT: u64 = 1_000_000;
const BIG_KEY: u64 = 2_000_000;
const BIG_LEN: usize = 64 * 1024;

/// A value's bytes are a function of its key, so a `SET` rewrites what is
/// there and every `GET`'s reply is known up front.
fn value(key: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (key as usize * 31 + i * 7) as u8).collect()
}

fn len_of(key: u64) -> usize {
    match key {
        BIG_KEY => BIG_LEN,
        k if k < KEYS => 8,
        _ => 200,
    }
}

/// Pre-encoded requests and the replies they must draw.
#[derive(Default)]
struct Script {
    req: Vec<u8>,
    exp: Vec<u8>,
    /// `(request bytes, reply bytes)` of each batch.
    batches: Vec<(usize, usize)>,
}

impl Script {
    fn push(&mut self, args: &[&[u8]], reply: &[u8]) {
        enc_request(&mut self.req, args);
        self.exp.extend_from_slice(reply);
    }

    fn get(&mut self, key: u64) {
        let mut reply = Vec::new();
        enc_bulk(&mut reply, &value(key, len_of(key)));
        self.push(&[b"GET", key.to_string().as_bytes()], &reply);
    }

    fn set(&mut self, key: u64) {
        let v = value(key, len_of(key));
        self.push(&[b"SET", key.to_string().as_bytes(), &v], b"+OK\r\n");
    }

    /// Closes a batch at the bytes pushed so far.
    fn end_batch(&mut self) {
        let (req, exp) = self.batches.iter().fold((0, 0), |(r, e), b| (r + b.0, e + b.1));
        self.batches.push((self.req.len() - req, self.exp.len() - exp));
    }

    /// `requests` requests in batches of [`DEPTH`]: every command of the
    /// pipelined data path, each on a key that walks its class.
    fn mixed(requests: usize) -> Script {
        let mut s = Script::default();
        for i in 0..requests {
            // One key per group of ten commands, so the scratch key set in
            // a group is the one the group probes and removes.
            let k = ((i / 10) as u64 * 7) % KEYS;
            let scratch = (ABSENT + 1 + k).to_string();
            match i % 10 {
                0 => s.get(k),
                1 => s.get(KEYS + k),
                2 => s.push(&[b"GET", (ABSENT + k).to_string().as_bytes()], b"$-1\r\n"),
                3 => s.set(k),
                4 => s.set(KEYS + k),
                // A fresh key placed, found and removed again.
                5 => s.push(&[b"SET", scratch.as_bytes(), b"scratch"], b"+OK\r\n"),
                6 => s.push(&[b"EXISTS", scratch.as_bytes()], b":1\r\n"),
                7 => s.push(&[b"DEL", scratch.as_bytes()], b":1\r\n"),
                8 => s.push(&[b"DEL", scratch.as_bytes()], b":0\r\n"),
                _ => s.push(&[b"PING"], b"+PONG\r\n"),
            }
            if (i + 1) % DEPTH == 0 || i + 1 == requests {
                s.end_batch();
            }
        }
        s
    }

    /// `requests` `GET`s of the 64 KiB value, one per batch.
    fn big_gets(requests: usize) -> Script {
        let mut s = Script::default();
        for _ in 0..requests {
            s.get(BIG_KEY);
            s.end_batch();
        }
        s
    }
}

/// Writes each batch, reads exactly the bytes its replies have into
/// `rbuf`, compares. Allocates nothing itself.
fn play(stream: &mut TcpStream, script: &Script, rbuf: &mut [u8]) {
    let (mut req_at, mut exp_at) = (0, 0);
    for &(req_len, exp_len) in &script.batches {
        stream.write_all(&script.req[req_at..req_at + req_len]).expect("write a batch");
        stream.read_exact(&mut rbuf[..exp_len]).expect("read its replies");
        assert!(
            rbuf[..exp_len] == script.exp[exp_at..exp_at + exp_len],
            "a reply differs from the value that was set"
        );
        req_at += req_len;
        exp_at += exp_len;
    }
}

/// Runs `warm_up` once, then `measured`, and returns the allocations the
/// whole process made during `measured`.
fn allocations_of(stream: &mut TcpStream, warm_up: &Script, measured: &Script) -> u64 {
    let mut rbuf = vec![0u8; DEPTH * (BIG_LEN + 32)];
    play(stream, warm_up, &mut rbuf);
    let before = ALLOCATIONS.load(Relaxed);
    play(stream, measured, &mut rbuf);
    ALLOCATIONS.load(Relaxed) - before
}

/// A preloaded table behind the shipped server, one loop; the measured
/// scripts against it; the checks that make the count mean what it says:
/// no resize and no log rotation in the window, and reads served by the
/// tier (`hot` or not) the run is named for.
fn serve_and_count(params: HdnhParams, hot: bool) {
    let what = if hot { "hot" } else { "cold" };
    let table = Arc::new(Hdnh::new(params));
    for key in (0..2 * KEYS).chain([BIG_KEY]) {
        table.insert_bytes(&Key::from_u64(key), &value(key, len_of(key))).unwrap();
    }
    let cfg = ServerConfig::builder().threads(1).build().unwrap();
    let server = start(Arc::clone(&table), "127.0.0.1:0", cfg).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let geometry = |t: &Hdnh| (t.resize_count(), t.vlog_stats().segments);
    let before = (geometry(&table), hdnh_obs::snapshot());
    let mixed = allocations_of(&mut stream, &Script::mixed(10 * DEPTH), &Script::mixed(REQUESTS));
    assert_eq!(geometry(&table), before.0, "{what}: a resize or a log rotation fell in the window");
    assert_eq!(mixed, 0, "{what}: {REQUESTS} pipelined requests allocated {mixed} times");
    let hit_rate = hdnh_obs::snapshot().since(&before.1).hot_hit_rate();
    assert_eq!(hit_rate > 0.5, hot, "{what}: hot-table hit rate {hit_rate}");

    // A value too large for the stack image costs the one buffer it is
    // verified in, and nothing else.
    let big = allocations_of(&mut stream, &Script::big_gets(4), &Script::big_gets(200));
    assert!(big <= 200, "{what}: 200 GETs of a 64 KiB value allocated {big} times");

    drop(stream);
    server.shutdown_and_join();
    table.verify_integrity().unwrap();
}

#[test]
fn pipelined_requests_allocate_nothing() {
    hdnh_obs::set_enabled(true);
    let params = || HdnhParams::builder().capacity(20_000);
    // Hot: every key the script reads fits the hot table.
    serve_and_count(params().build().unwrap(), true);
    // Cold: a hot table of a few dozen slots under 2 048 keys — nearly
    // every read goes to NVM (and the log), is promoted, and evicts.
    serve_and_count(params().hot_capacity_ratio(0.001).build().unwrap(), false);
}
