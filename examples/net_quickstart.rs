//! Network quickstart: an in-process `hdnh-server` plus a RESP client on
//! a loopback port — the same code path `hdnh-cli serve` and `netbench`
//! exercise, compressed into one file.
//!
//! ```text
//! cargo run --release --example net_quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use hdnh::{Hdnh, HdnhParams};
use hdnh_server::{start, RespClient, ServerConfig};

fn main() {
    hdnh_obs::set_enabled(true);

    // One shared table; the server's workers read it through the
    // lock-free epoch-pinned path, so the Arc is the only coupling.
    let table = Arc::new(Hdnh::new(
        HdnhParams::builder().capacity(100_000).build().expect("defaults are valid"),
    ));
    let handle = start(Arc::clone(&table), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    let mut c = RespClient::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // Request/response...
    c.set(17, 42).expect("io").expect("set");
    println!("GET 17 -> {:?}", c.get(17).expect("io"));

    // ...and pipelining: queue a burst, flush once, then collect replies.
    for i in 0..1_000u64 {
        c.cmd(&[b"SET", i.to_string().as_bytes(), (i * 10).to_string().as_bytes()]);
    }
    c.flush().expect("flush");
    for _ in 0..1_000 {
        assert!(c.read_reply().expect("reply").is_ok());
    }
    println!("pipelined 1000 SETs in one burst");
    println!("MGET 1 2 3 -> {:?}", c.mget(&[1, 2, 3]).expect("io"));

    // The server and the in-process caller see the same table. RESP `SET`
    // stores bytes, so the in-process read is the bytes-level one too.
    use hdnh_common::Key;
    assert_eq!(table.get_bytes(&Key::from_u64(3)).unwrap().as_deref(), Some(&b"30"[..]));
    println!("in-process view agrees: key 3 -> 30");

    // INFO is served from the same state the CLI's `info` shows.
    println!("--- INFO ---\n{}", c.info().expect("info"));

    // Graceful drain: SHUTDOWN is acknowledged, in-flight frames finish,
    // then the workers exit.
    assert!(c.shutdown().expect("shutdown").is_ok());
    handle.join();
    println!("server drained cleanly");
}
