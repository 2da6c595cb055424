//! A minimal HTTP/1.0 client for the ops plane, shared by the tests that
//! probe it in-process (`tests/ops_endpoint.rs`) and through the served
//! binary (`crates/cli/tests/net_smoke.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Minimal HTTP/1.0 GET: returns (status code, body).
pub fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect ops port");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}
