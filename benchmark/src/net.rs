//! The network workload: one connection to `hdnh_server::start` with one
//! reactor loop, driven with pre-encoded RESP bytes, and the echo thread
//! it is paired with.
//!
//! Requests and the exact bytes of the replies they must draw are encoded
//! before a window is timed; the timed loop only writes a batch, reads as
//! many bytes as the expected replies have, and compares. `RespClient` is
//! not used: it would put the client's own parsing and allocation into
//! the measurement.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hdnh::Hdnh;
use hdnh_server::{ServerConfig, ServerHandle};

use crate::harness::System;
use crate::workload::{fill_value, Kind, Op, Shadow, MAX_VALUE};

/// Requests of one window and the replies the shadow model expects.
#[derive(Default)]
pub struct Wire {
    pub req: Vec<u8>,
    pub exp: Vec<u8>,
    /// End offset in `req` / `exp` of each operation's bytes.
    req_end: Vec<u32>,
    exp_end: Vec<u32>,
}

fn push_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    write!(out, "${}\r\n", bytes.len()).expect("write to Vec");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

impl Wire {
    /// Encodes `ops` in order, advancing the shadow model past each write.
    pub fn encode(&mut self, ops: &[Op], shadow: &mut Shadow) {
        self.req.clear();
        self.exp.clear();
        self.req_end.clear();
        self.exp_end.clear();
        let mut buf = [0u8; MAX_VALUE];
        let mut id_text = Vec::with_capacity(12);
        for op in ops {
            id_text.clear();
            write!(id_text, "{}", op.id).expect("write to Vec");
            match op.kind {
                Kind::Get => {
                    self.req.extend_from_slice(b"*2\r\n$3\r\nGET\r\n");
                    push_bulk(&mut self.req, &id_text);
                    match shadow.live(op.id) {
                        Some(v) => {
                            let len = shadow.model.len(op.id, v);
                            push_bulk(&mut self.exp, fill_value(&mut buf, len, op.id, v));
                        }
                        None => self.exp.extend_from_slice(b"$-1\r\n"),
                    }
                }
                Kind::Insert | Kind::Upsert => {
                    let v = shadow.write(op.id);
                    let len = shadow.model.len(op.id, v);
                    self.req.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
                    push_bulk(&mut self.req, &id_text);
                    push_bulk(&mut self.req, fill_value(&mut buf, len, op.id, v));
                    self.exp.extend_from_slice(b"+OK\r\n");
                }
                Kind::Remove => {
                    self.req.extend_from_slice(b"*2\r\n$3\r\nDEL\r\n");
                    push_bulk(&mut self.req, &id_text);
                    let removed = shadow.remove(op.id) as u8;
                    self.exp
                        .extend_from_slice(&[b':', b'0' + removed, b'\r', b'\n']);
                }
            }
            self.req_end.push(self.req.len() as u32);
            self.exp_end.push(self.exp.len() as u32);
        }
    }

    fn span(ends: &[u32], at: usize, len: usize) -> std::ops::Range<usize> {
        let start = if at == 0 { 0 } else { ends[at - 1] as usize };
        start..ends[at + len - 1] as usize
    }

    pub fn req_of(&self, at: usize, len: usize) -> &[u8] {
        &self.req[Self::span(&self.req_end, at, len)]
    }

    pub fn exp_of(&self, at: usize, len: usize) -> &[u8] {
        &self.exp[Self::span(&self.exp_end, at, len)]
    }

    /// How many of the replies to `ops[at..at + len]` differ in `got`.
    fn mismatches(&self, got: &[u8], at: usize, len: usize) -> u64 {
        let base = Self::span(&self.exp_end, at, len).start;
        (at..at + len)
            .filter(|&i| {
                let r = Self::span(&self.exp_end, i, 1);
                got[r.start - base..r.end - base] != self.exp[r]
            })
            .count() as u64
    }
}

/// One blocking client connection that sends a byte string and reads back
/// a known number of bytes.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Set by the first I/O error; every later exchange fails at once.
    broken: bool,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect over loopback");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            stream,
            rbuf: Vec::new(),
            broken: false,
        }
    }

    /// Writes `req`, then reads exactly `reply_len` bytes. `None` after an
    /// I/O error or a timeout.
    #[inline]
    pub fn exchange(&mut self, req: &[u8], reply_len: usize) -> Option<&[u8]> {
        if self.broken {
            return None;
        }
        if self.rbuf.len() < reply_len {
            self.rbuf.resize(reply_len, 0);
        }
        let ok = self.stream.write_all(req).is_ok()
            && self.stream.read_exact(&mut self.rbuf[..reply_len]).is_ok();
        self.broken = !ok;
        ok.then(|| &self.rbuf[..reply_len])
    }
}

/// The reference kernel of the network workload: a thread that writes
/// back whatever it reads, so the same request bytes at the same pipeline
/// depth cost two loopback socket crossings and nothing else. It blocks
/// in `read` whenever the client is talking to the server.
pub struct Echo {
    pub client: Client,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
        let addr = listener.local_addr().expect("echo address");
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept echo client");
            stream.set_nodelay(true).expect("TCP_NODELAY");
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if stream.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Echo {
            client: Client::connect(addr),
            thread: Some(thread),
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing the client end makes the thread's read return 0.
        let _ = self.client.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Starts the shipped server on an ephemeral loopback port with one loop.
pub fn start_server(table: &Arc<Hdnh>) -> ServerHandle {
    let cfg = ServerConfig::builder()
        .threads(1)
        .build()
        .expect("one reactor loop is a valid configuration");
    hdnh_server::start(Arc::clone(table), "127.0.0.1:0", cfg).expect("bind loopback server")
}

pub struct NetMixed {
    table: Arc<Hdnh>,
    pub shadow: Shadow,
    server: Option<ServerHandle>,
    pub client: Client,
    pub echo: Echo,
    pub wire: Wire,
}

impl NetMixed {
    pub fn new(table: Arc<Hdnh>, server: ServerHandle, shadow: Shadow) -> NetMixed {
        let client = Client::connect(server.local_addr());
        NetMixed {
            table,
            shadow,
            server: Some(server),
            client,
            echo: Echo::start(),
            wire: Wire::default(),
        }
    }
}

impl NetMixed {
    /// Stops the server and hands back the table and its model.
    pub fn into_parts(mut self) -> (Arc<Hdnh>, Shadow) {
        let model = self.shadow.model;
        (
            Arc::clone(&self.table),
            std::mem::replace(&mut self.shadow, Shadow::new(0, model)),
        )
    }
}

impl Drop for NetMixed {
    fn drop(&mut self) {
        let _ = self.client.stream.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

impl System for NetMixed {
    fn prepare(&mut self, ops: &[Op]) {
        self.wire.encode(ops, &mut self.shadow);
    }

    fn hdnh_unit(&mut self, _ops: &[Op], at: usize, len: usize) -> u64 {
        let exp = self.wire.exp_of(at, len);
        match self.client.exchange(self.wire.req_of(at, len), exp.len()) {
            Some(got) if got == exp => 0,
            Some(got) => self.wire.mismatches(got, at, len),
            None => len as u64,
        }
    }

    fn ref_unit(&mut self, _ops: &[Op], at: usize, len: usize) {
        let req = self.wire.req_of(at, len);
        self.echo.client.exchange(req, req.len());
    }

    fn table(&self) -> &Arc<Hdnh> {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ValueModel;

    #[test]
    fn wire_encodes_requests_and_the_replies_the_shadow_expects() {
        let mut shadow = Shadow::new(16, ValueModel::ById);
        let ops = [
            Op {
                kind: Kind::Get,
                id: 3,
            },
            Op {
                kind: Kind::Upsert,
                id: 3,
            },
            Op {
                kind: Kind::Get,
                id: 3,
            },
            Op {
                kind: Kind::Remove,
                id: 3,
            },
            Op {
                kind: Kind::Remove,
                id: 3,
            },
        ];
        let mut wire = Wire::default();
        wire.encode(&ops, &mut shadow);
        assert_eq!(wire.req_of(0, 1), b"*2\r\n$3\r\nGET\r\n$1\r\n3\r\n");
        assert_eq!(wire.exp_of(0, 1), b"$-1\r\n");
        assert!(wire
            .req_of(1, 1)
            .starts_with(b"*3\r\n$3\r\nSET\r\n$1\r\n3\r\n$8\r\n"));
        assert_eq!(wire.exp_of(1, 1), b"+OK\r\n");
        let mut buf = [0u8; MAX_VALUE];
        let mut bulk = b"$8\r\n".to_vec();
        bulk.extend_from_slice(fill_value(&mut buf, 8, 3, 1));
        bulk.extend_from_slice(b"\r\n");
        assert_eq!(wire.exp_of(2, 1), bulk);
        assert_eq!(wire.exp_of(3, 2), b":1\r\n:0\r\n");
        // A batch's bytes are its operations' bytes, in order.
        assert_eq!(wire.req_of(0, 5), &wire.req[..]);
        // One wrong reply in a batch of two is one failure.
        assert_eq!(wire.mismatches(b":1\r\n:1\r\n", 3, 2), 1);
        assert_eq!(wire.mismatches(b":1\r\n:0\r\n", 3, 2), 0);
    }
}
