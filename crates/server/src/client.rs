//! Blocking RESP client with explicit pipelining.
//!
//! [`RespClient`] queues encoded requests into an output buffer
//! ([`RespClient::cmd`]), flushes them in one `write_all`
//! ([`RespClient::flush`]), and reads replies one at a time
//! ([`RespClient::read_reply`]) through an incremental reply decoder — so
//! a caller can put hundreds of commands on the wire before collecting
//! any reply, which is exactly how `netbench` drives the server. The
//! one-shot [`RespClient::call`] helper covers the request/response case.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hdnh_ycsb::Op;

use crate::resp::{enc_request, parse_i64};

/// One decoded server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+...` simple string.
    Simple(String),
    /// `-CODE msg` error.
    Error(String),
    /// `:n` integer.
    Int(i64),
    /// `$n` bulk bytes.
    Bulk(Vec<u8>),
    /// `$-1` null bulk.
    Nil,
    /// `*n` array of replies.
    Array(Vec<Reply>),
}

impl Reply {
    /// The bulk payload parsed as decimal u64, if this is a bulk reply.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Reply::Bulk(b) => crate::resp::parse_u64(b),
            _ => None,
        }
    }

    /// Whether this is the `+OK` simple reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Simple(s) if s == "OK")
    }
}

/// Incremental reply parser (client side of the wire).
#[derive(Default)]
pub struct ReplyDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl ReplyDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Attempts to decode one complete reply; `Ok(None)` = need more
    /// bytes, `Err` = the server broke the reply grammar.
    // Not `Iterator`: `Ok(None)` means "feed more bytes", not exhaustion.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Reply>, String> {
        let mut cur = self.pos;
        match Self::parse_at(&self.buf, &mut cur) {
            Ok(Some(r)) => {
                self.pos = cur;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                } else if self.pos > 64 * 1024 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(r))
            }
            other => other,
        }
    }

    fn line(buf: &[u8], cur: &mut usize) -> Result<Option<(usize, usize)>, String> {
        let start = *cur + 1;
        let mut i = start;
        while i < buf.len() && buf[i] != b'\r' {
            i += 1;
        }
        if i + 1 >= buf.len() {
            return Ok(None);
        }
        if buf[i + 1] != b'\n' {
            return Err("reply line not CRLF-terminated".into());
        }
        *cur = i + 2;
        Ok(Some((start, i)))
    }

    fn parse_at(buf: &[u8], cur: &mut usize) -> Result<Option<Reply>, String> {
        if *cur >= buf.len() {
            return Ok(None);
        }
        let t = buf[*cur];
        match t {
            b'+' | b'-' | b':' => {
                let Some((s, e)) = Self::line(buf, cur)? else {
                    return Ok(None);
                };
                let body = &buf[s..e];
                Ok(Some(match t {
                    b'+' => Reply::Simple(String::from_utf8_lossy(body).into_owned()),
                    b'-' => Reply::Error(String::from_utf8_lossy(body).into_owned()),
                    _ => Reply::Int(
                        parse_i64(body).ok_or_else(|| "bad integer reply".to_string())?,
                    ),
                }))
            }
            b'$' => {
                let start = *cur;
                let Some((s, e)) = Self::line(buf, cur)? else {
                    return Ok(None);
                };
                let len = parse_i64(&buf[s..e]).ok_or_else(|| "bad bulk length".to_string())?;
                if len < 0 {
                    return Ok(Some(Reply::Nil));
                }
                let len = len as usize;
                if *cur + len + 2 > buf.len() {
                    *cur = start;
                    return Ok(None);
                }
                if &buf[*cur + len..*cur + len + 2] != b"\r\n" {
                    return Err("bulk body not CRLF-terminated".into());
                }
                let body = buf[*cur..*cur + len].to_vec();
                *cur += len + 2;
                Ok(Some(Reply::Bulk(body)))
            }
            b'*' => {
                let start = *cur;
                let Some((s, e)) = Self::line(buf, cur)? else {
                    return Ok(None);
                };
                let n = parse_i64(&buf[s..e]).ok_or_else(|| "bad array length".to_string())?;
                if n < 0 {
                    return Ok(Some(Reply::Nil));
                }
                let mut items = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    match Self::parse_at(buf, cur)? {
                        Some(r) => items.push(r),
                        None => {
                            *cur = start;
                            return Ok(None);
                        }
                    }
                }
                Ok(Some(Reply::Array(items)))
            }
            other => Err(format!("unexpected reply type byte 0x{other:02x}")),
        }
    }
}

/// The RESP requests one YCSB op becomes, each handed to `send` as its
/// argument list: a key is its id's decimal digits; a negative read asks
/// for `u64::MAX / 2 + id`, far past any inserted id; a `SET` carries
/// `value(id, 0)` for an insert and `value(id, seq + 1)` for an update;
/// a read-modify-write is a `GET` pipelined ahead of its `SET`.
pub fn op_requests(op: &Op, value: impl Fn(u64, u64) -> Vec<u8>, mut send: impl FnMut(&[&[u8]])) {
    let (read, write) = match *op {
        Op::Read(id) => (Some(id), None),
        Op::ReadAbsent(id) => (Some(u64::MAX / 2 + id), None),
        Op::Insert(id) => (None, Some((id, 0))),
        Op::Update(id, seq) => (None, Some((id, u64::from(seq) + 1))),
        Op::ReadModifyWrite(id, seq) => (Some(id), Some((id, u64::from(seq) + 1))),
        Op::Delete(id) => return send(&[b"DEL", id.to_string().as_bytes()]),
    };
    if let Some(id) = read {
        send(&[b"GET", id.to_string().as_bytes()]);
    }
    if let Some((id, seq)) = write {
        send(&[b"SET", id.to_string().as_bytes(), &value(id, seq)]);
    }
}

/// A blocking, pipelining-capable connection to an `hdnh-server`.
pub struct RespClient {
    stream: TcpStream,
    dec: ReplyDecoder,
    out: Vec<u8>,
    rdbuf: [u8; 16 * 1024],
}

impl RespClient {
    /// Connects (with Nagle disabled — pipelined batches are flushed
    /// explicitly, so there is nothing for the kernel to coalesce).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespClient {
            stream,
            dec: ReplyDecoder::new(),
            out: Vec::with_capacity(16 * 1024),
            rdbuf: [0u8; 16 * 1024],
        })
    }

    /// Connects with bounded retry: refused/reset connects are retried with
    /// exponential backoff (10 ms doubling to a 200 ms cap) until `timeout`
    /// elapses, then the last error is returned. Covers the race where a
    /// freshly spawned (or just-restarted) server has not bound yet.
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Duration::from_millis(10);
        loop {
            match Self::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if std::time::Instant::now() + backoff > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(200));
                }
            }
        }
    }

    /// Sets the receive timeout for [`RespClient::read_reply`].
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Queues one request (not yet written to the socket).
    pub fn cmd(&mut self, args: &[&[u8]]) {
        enc_request(&mut self.out, args);
    }

    /// Writes every queued request in one burst.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Blocks until one reply is available. An `Err` of kind
    /// `UnexpectedEof` means the server closed the connection.
    pub fn read_reply(&mut self) -> std::io::Result<Reply> {
        loop {
            match self.dec.next() {
                Ok(Some(r)) => return Ok(r),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
            }
            let n = self.stream.read(&mut self.rdbuf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.dec.feed(&self.rdbuf[..n]);
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, args: &[&[u8]]) -> std::io::Result<Reply> {
        self.cmd(args);
        self.flush()?;
        self.read_reply()
    }

    // -- typed helpers over the u64 key/value wire vocabulary ---------------

    /// `PING` → true when the server answered `+PONG`.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        Ok(matches!(self.call(&[b"PING"])?, Reply::Simple(s) if s == "PONG"))
    }

    /// `SET k v` → `Ok(())` on `+OK`, else the error text.
    pub fn set(&mut self, k: u64, v: u64) -> std::io::Result<Result<(), String>> {
        match self.call(&[b"SET", k.to_string().as_bytes(), v.to_string().as_bytes()])? {
            r if r.is_ok() => Ok(Ok(())),
            Reply::Error(e) => Ok(Err(e)),
            other => Ok(Err(format!("unexpected reply {other:?}"))),
        }
    }

    /// `GET k` → the value, `None` when absent.
    pub fn get(&mut self, k: u64) -> std::io::Result<Option<u64>> {
        match self.call(&[b"GET", k.to_string().as_bytes()])? {
            Reply::Nil => Ok(None),
            r => Ok(r.as_u64()),
        }
    }

    /// `DEL k` → whether the key existed.
    pub fn del(&mut self, k: u64) -> std::io::Result<bool> {
        Ok(matches!(self.call(&[b"DEL", k.to_string().as_bytes()])?, Reply::Int(n) if n > 0))
    }

    /// `EXISTS k` → membership.
    pub fn exists(&mut self, k: u64) -> std::io::Result<bool> {
        Ok(matches!(self.call(&[b"EXISTS", k.to_string().as_bytes()])?, Reply::Int(n) if n > 0))
    }

    /// `MGET keys...` → per-key values in order.
    pub fn mget(&mut self, keys: &[u64]) -> std::io::Result<Vec<Option<u64>>> {
        let arg_strings: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let mut args: Vec<&[u8]> = vec![b"MGET"];
        args.extend(arg_strings.iter().map(|s| s.as_bytes()));
        match self.call(&args)? {
            Reply::Array(items) => Ok(items
                .into_iter()
                .map(|r| match r {
                    Reply::Nil => None,
                    other => other.as_u64(),
                })
                .collect()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("MGET expected array, got {other:?}"),
            )),
        }
    }

    /// `INFO` → the server's info text.
    pub fn info(&mut self) -> std::io::Result<String> {
        match self.call(&[b"INFO"])? {
            Reply::Bulk(b) => Ok(String::from_utf8_lossy(&b).into_owned()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("INFO expected bulk, got {other:?}"),
            )),
        }
    }

    /// `SHUTDOWN` → `+OK` once the drain has begun.
    pub fn shutdown(&mut self) -> std::io::Result<Reply> {
        self.call(&[b"SHUTDOWN"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_decoder_handles_all_types_and_splits() {
        let wire = b"+OK\r\n-ERR boom\r\n:42\r\n$3\r\nabc\r\n$-1\r\n*2\r\n$1\r\nx\r\n:7\r\n";
        // Whole-buffer decode.
        let mut d = ReplyDecoder::new();
        d.feed(wire);
        let mut replies = Vec::new();
        while let Some(r) = d.next().unwrap() {
            replies.push(r);
        }
        let expect = vec![
            Reply::Simple("OK".into()),
            Reply::Error("ERR boom".into()),
            Reply::Int(42),
            Reply::Bulk(b"abc".to_vec()),
            Reply::Nil,
            Reply::Array(vec![Reply::Bulk(b"x".to_vec()), Reply::Int(7)]),
        ];
        assert_eq!(replies, expect);
        // Byte-at-a-time decode produces the identical stream.
        let mut d = ReplyDecoder::new();
        let mut replies = Vec::new();
        for &b in wire.iter() {
            d.feed(&[b]);
            while let Some(r) = d.next().unwrap() {
                replies.push(r);
            }
        }
        assert_eq!(replies, expect);
    }

    #[test]
    fn reply_decoder_rejects_garbage_type() {
        let mut d = ReplyDecoder::new();
        d.feed(b"!what\r\n");
        assert!(d.next().is_err());
    }
}
