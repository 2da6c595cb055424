//! Incremental RESP2 framing: request decoder and reply encoder.
//!
//! The server reads raw bytes off a socket into a [`Decoder`], which
//! carves complete request frames out of the accumulated buffer without
//! copying argument bytes — a [`Frame`] is a list of byte ranges into the
//! decoder's buffer, valid until the next [`Decoder::compact`]. Partial
//! frames (a read() that ends mid-bulk-string) simply yield `None` until
//! more bytes arrive, so deep pipelining and pathological fragmentation
//! are handled by construction.
//!
//! Two request grammars are accepted, mirroring Redis:
//!
//! * **RESP arrays of bulk strings** — `*2\r\n$3\r\nGET\r\n$2\r\n17\r\n` —
//!   the form every real client speaks;
//! * **inline commands** — `GET 17\n` — whitespace-separated tokens on one
//!   line, for `telnet`/`nc` debugging.
//!
//! Framing violations are *fatal* for the connection ([`ProtoError`]; the
//! server answers `-ERR protocol error ...` and closes), because after a
//! framing error the byte stream has no trustworthy resync point. One
//! deliberate exception: an over-long *inline* line is consumed through
//! its newline and reported as an error, after which the stream is
//! positioned at a clean boundary — inline users get typo recovery.

use std::fmt;

/// Default cap on one frame's total encoded size (1 MiB, like Redis'
/// `proto-max-bulk-len` spirit: far beyond any legitimate u64 command).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Cap on argument count per request (DoS guard; MSET of 256 pairs fits).
pub const MAX_ARGS: usize = 1024;

/// Cap on one inline command line.
const MAX_INLINE: usize = 64 * 1024;

/// A fatal framing violation. The connection that produced it cannot be
/// resynchronized and must be closed after an error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// First byte of a frame was not `*` or printable-inline.
    BadType(u8),
    /// An integer field (array or bulk length) was malformed.
    BadLength,
    /// Array or bulk length exceeds the configured frame budget.
    FrameTooLarge {
        /// Offending declared size in bytes (or a lower bound).
        declared: usize,
        /// The decoder's configured budget.
        max: usize,
    },
    /// More arguments than [`MAX_ARGS`].
    TooManyArgs(usize),
    /// A length-prefixed field was not terminated by CRLF.
    MissingCrlf,
    /// An inline line exceeded the inline cap. Recoverable: the decoder
    /// skips to the next newline and continues.
    InlineTooLong,
    /// An array element was not a bulk string (`$`).
    ExpectedBulk(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadType(b) => write!(f, "unexpected frame type byte 0x{b:02x}"),
            ProtoError::BadLength => write!(f, "malformed length field"),
            ProtoError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max} byte budget")
            }
            ProtoError::TooManyArgs(n) => write!(f, "{n} arguments exceeds the {MAX_ARGS} cap"),
            ProtoError::MissingCrlf => write!(f, "missing CRLF terminator"),
            ProtoError::InlineTooLong => write!(f, "inline command line too long"),
            ProtoError::ExpectedBulk(b) => {
                write!(f, "array element must be a bulk string, got 0x{b:02x}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Whether the stream is positioned at a clean frame boundary after
    /// this error (only over-long inline lines qualify).
    pub fn recoverable(&self) -> bool {
        matches!(self, ProtoError::InlineTooLong)
    }
}

/// Arguments a [`Frame`] holds in place. `SET key value` has three; only
/// a longer command (`MGET`/`MSET`/`DEL` of several keys) spills.
const INLINE_ARGS: usize = 4;

/// One decoded request: argument byte ranges into the decoder's buffer.
/// An owned value that borrows nothing; the first [`INLINE_ARGS`] ranges
/// live in the frame itself, so decoding a short command allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    len: usize,
    /// Ranges of the first arguments; entries from `len` on stay `(0, 0)`.
    head: [(usize, usize); INLINE_ARGS],
    /// Ranges of the arguments past [`INLINE_ARGS`]. Empty (and
    /// unallocated) for a short command.
    tail: Vec<(usize, usize)>,
}

impl Frame {
    /// An empty frame about to take `n` arguments.
    fn with_capacity(n: usize) -> Frame {
        Frame {
            len: 0,
            head: [(0, 0); INLINE_ARGS],
            tail: Vec::with_capacity(n.saturating_sub(INLINE_ARGS)),
        }
    }

    fn push(&mut self, range: (usize, usize)) {
        match self.head.get_mut(self.len) {
            Some(slot) => *slot = range,
            None => self.tail.push(range),
        }
        self.len += 1;
    }

    fn range(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len, "argument {i} of a {}-argument frame", self.len);
        match self.head.get(i) {
            Some(range) => *range,
            None => self.tail[i - INLINE_ARGS],
        }
    }

    /// Number of arguments (≥ 1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false — zero-argument frames are skipped by the decoder.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Initial capacity of a connection-lifetime buffer (the decoder's input
/// buffer, a connection's reply buffer).
pub(crate) const BUF_INITIAL: usize = 4096;

/// An empty connection-lifetime buffer whose capacity grew past this many
/// times [`BUF_INITIAL`] (256 KiB) is replaced by a fresh one: one huge
/// value must not pin its size in the connection for life. Far enough
/// above the working size of a pipelined batch (a 16 KiB read, its
/// replies; a 64 KiB value doubles a buffer to 128 KiB) that steady
/// traffic never shrinks and regrows.
const BUF_SHRINK_FACTOR: usize = 64;

/// Gives a connection-lifetime buffer its memory back if it is empty and
/// grew far past its initial size ([`BUF_SHRINK_FACTOR`]).
pub(crate) fn release_if_oversized(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > BUF_INITIAL * BUF_SHRINK_FACTOR {
        *buf = Vec::with_capacity(BUF_INITIAL);
    }
}

/// Incremental request decoder over an owned byte buffer.
pub struct Decoder {
    buf: Vec<u8>,
    /// Start of the first undecoded byte.
    pos: usize,
    max_frame: usize,
}

impl Decoder {
    /// A decoder enforcing `max_frame` bytes per request frame.
    pub fn new(max_frame: usize) -> Self {
        Decoder {
            buf: Vec::with_capacity(BUF_INITIAL),
            pos: 0,
            max_frame,
        }
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The input buffer itself, for tests of its capacity.
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> &Vec<u8> {
        &self.buf
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes of one argument of a decoded frame. The ranges stay valid
    /// until [`Decoder::compact`] is called.
    pub fn arg<'a>(&'a self, frame: &Frame, i: usize) -> &'a [u8] {
        let (s, e) = frame.range(i);
        &self.buf[s..e]
    }

    /// Drops consumed bytes from the front of the buffer. Call between
    /// read batches, after every frame handed out so far has been fully
    /// processed (it invalidates outstanding [`Frame`] ranges).
    pub fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        release_if_oversized(&mut self.buf);
    }

    /// Attempts to decode the next complete frame. `Ok(None)` means the
    /// buffer holds only a partial frame — feed more bytes. Blank inline
    /// lines are skipped. On `Err`, see [`ProtoError::recoverable`].
    // Not `Iterator`: `Ok(None)` means "feed more bytes", not exhaustion,
    // and errors are sticky per connection rather than per item.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, ProtoError> {
        loop {
            if self.pos >= self.buf.len() {
                return Ok(None);
            }
            let frame = if self.buf[self.pos] == b'*' {
                self.next_array()?
            } else {
                self.next_inline()?
            };
            match frame {
                // Blank inline line or `*0` array: consumed, look again —
                // callers never see an empty frame.
                Some(f) if f.is_empty() => continue,
                other => return Ok(other),
            }
        }
    }

    /// Parses `*<n>\r\n` followed by `n` bulk strings.
    fn next_array(&mut self) -> Result<Option<Frame>, ProtoError> {
        let start = self.pos;
        let mut cur = start;
        let n = match self.read_int_line(&mut cur)? {
            None => return Ok(None),
            Some(n) => n,
        };
        if n < 0 {
            return Err(ProtoError::BadLength);
        }
        let n = n as usize;
        if n > MAX_ARGS {
            return Err(ProtoError::TooManyArgs(n));
        }
        let mut frame = Frame::with_capacity(n);
        for _ in 0..n {
            if cur >= self.buf.len() {
                return Ok(None);
            }
            if self.buf[cur] != b'$' {
                return Err(ProtoError::ExpectedBulk(self.buf[cur]));
            }
            let len = match self.read_int_line(&mut cur)? {
                None => return Ok(None),
                Some(l) => l,
            };
            if len < 0 {
                return Err(ProtoError::BadLength);
            }
            let len = len as usize;
            if len > self.max_frame || cur - start + len > self.max_frame {
                return Err(ProtoError::FrameTooLarge {
                    declared: cur - start + len,
                    max: self.max_frame,
                });
            }
            if cur + len + 2 > self.buf.len() {
                return Ok(None);
            }
            if &self.buf[cur + len..cur + len + 2] != b"\r\n" {
                return Err(ProtoError::MissingCrlf);
            }
            frame.push((cur, cur + len));
            cur += len + 2;
        }
        self.pos = cur;
        Ok(Some(frame))
    }

    /// Parses a signed decimal after a one-byte type marker, through CRLF.
    /// Advances `cur` past the CRLF. `None` = line incomplete. Enforces the
    /// frame budget on unterminated header lines so garbage can't buffer
    /// unboundedly.
    fn read_int_line(&mut self, cur: &mut usize) -> Result<Option<i64>, ProtoError> {
        let line_start = *cur + 1; // skip the type byte
        let mut i = line_start;
        while i < self.buf.len() && self.buf[i] != b'\r' {
            i += 1;
        }
        if i + 1 >= self.buf.len() {
            if self.buf.len() - *cur > 32 {
                // A length header is at most ~22 bytes; anything longer
                // unterminated is garbage, not a slow sender.
                return Err(ProtoError::BadLength);
            }
            return Ok(None);
        }
        if self.buf[i + 1] != b'\n' {
            return Err(ProtoError::MissingCrlf);
        }
        let digits = &self.buf[line_start..i];
        let v = parse_i64(digits).ok_or(ProtoError::BadLength)?;
        *cur = i + 2;
        Ok(Some(v))
    }

    /// Parses one inline line into whitespace-separated argument ranges.
    /// An empty `Frame` means a blank line was consumed.
    fn next_inline(&mut self) -> Result<Option<Frame>, ProtoError> {
        let start = self.pos;
        let mut nl = start;
        while nl < self.buf.len() && self.buf[nl] != b'\n' {
            nl += 1;
        }
        if nl >= self.buf.len() {
            if self.buf.len() - start > MAX_INLINE {
                // Recoverable by contract: drop the oversized prefix so the
                // stream resyncs at the next newline once it arrives.
                self.buf.drain(start..);
                return Err(ProtoError::InlineTooLong);
            }
            return Ok(None);
        }
        if nl - start > MAX_INLINE {
            self.pos = nl + 1;
            return Err(ProtoError::InlineTooLong);
        }
        let line_end = if nl > start && self.buf[nl - 1] == b'\r' {
            nl - 1
        } else {
            nl
        };
        let mut frame = Frame::with_capacity(0);
        let mut i = start;
        while i < line_end {
            if self.buf[i].is_ascii_whitespace() {
                i += 1;
                continue;
            }
            let tok_start = i;
            while i < line_end && !self.buf[i].is_ascii_whitespace() {
                i += 1;
            }
            frame.push((tok_start, i));
            if frame.len() > MAX_ARGS {
                return Err(ProtoError::TooManyArgs(frame.len()));
            }
        }
        self.pos = nl + 1;
        Ok(Some(frame))
    }
}

/// Parses a decimal i64 from raw bytes (no allocation, rejects empty).
pub fn parse_i64(b: &[u8]) -> Option<i64> {
    if b.is_empty() {
        return None;
    }
    let (neg, digits) = if b[0] == b'-' { (true, &b[1..]) } else { (false, b) };
    if digits.is_empty() {
        return None;
    }
    let mut v: i64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((c - b'0') as i64)?;
    }
    Some(if neg { -v } else { v })
}

/// Parses a decimal u64 from raw bytes.
pub fn parse_u64(b: &[u8]) -> Option<u64> {
    if b.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &c in b {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((c - b'0') as u64)?;
    }
    Some(v)
}

// ---------------------------------------------------------------------------
// Reply encoding
// ---------------------------------------------------------------------------

/// `+<s>\r\n` simple string.
pub fn enc_simple(out: &mut Vec<u8>, s: &str) {
    out.push(b'+');
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// `-<code> <msg>\r\n` error (newlines in `msg` are flattened).
pub fn enc_error(out: &mut Vec<u8>, code: &str, msg: &str) {
    out.push(b'-');
    out.extend_from_slice(code.as_bytes());
    out.push(b' ');
    for b in msg.bytes() {
        out.push(if b == b'\r' || b == b'\n' { b' ' } else { b });
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends `v` in decimal, formatted on the stack.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// `:<v>\r\n` integer.
pub fn enc_int(out: &mut Vec<u8>, v: i64) {
    out.push(b':');
    if v < 0 {
        out.push(b'-');
    }
    push_decimal(out, v.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// `$<len>\r\n<bytes>\r\n` bulk string.
pub fn enc_bulk(out: &mut Vec<u8>, b: &[u8]) {
    out.push(b'$');
    push_decimal(out, b.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(b);
    out.extend_from_slice(b"\r\n");
}

/// `$-1\r\n` null bulk ("nil").
pub fn enc_nil(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// `*<n>\r\n` array header (elements follow via the other encoders).
pub fn enc_array_header(out: &mut Vec<u8>, n: usize) {
    out.push(b'*');
    push_decimal(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

/// Encodes a request as a RESP array of bulk strings (the client's and
/// the codec tests' canonical request form).
pub fn enc_request(out: &mut Vec<u8>, args: &[&[u8]]) {
    enc_array_header(out, args.len());
    for a in args {
        enc_bulk(out, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(dec: &Decoder, f: &Frame) -> Vec<Vec<u8>> {
        (0..f.len()).map(|i| dec.arg(f, i).to_vec()).collect()
    }

    #[test]
    fn decodes_a_whole_array_frame() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(b"*2\r\n$3\r\nGET\r\n$2\r\n17\r\n");
        let f = dec.next().unwrap().unwrap();
        assert_eq!(args_of(&dec, &f), vec![b"GET".to_vec(), b"17".to_vec()]);
        assert!(dec.next().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn partial_frames_yield_none_until_complete() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        let wire = b"*3\r\n$3\r\nSET\r\n$1\r\n5\r\n$2\r\n99\r\n";
        for cut in 1..wire.len() {
            let mut d = Decoder::new(DEFAULT_MAX_FRAME);
            d.feed(&wire[..cut]);
            assert!(d.next().unwrap().is_none(), "cut at {cut}");
            d.feed(&wire[cut..]);
            let f = d.next().unwrap().unwrap();
            assert_eq!(d.arg(&f, 0), b"SET");
            assert_eq!(d.arg(&f, 2), b"99");
        }
        dec.feed(wire);
        assert!(dec.next().unwrap().is_some());
    }

    #[test]
    fn pipelined_batch_decodes_in_order() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        let mut wire = Vec::new();
        for i in 0..50u64 {
            enc_request(&mut wire, &[b"SET", i.to_string().as_bytes(), b"1"]);
        }
        enc_request(&mut wire, &[b"PING"]);
        dec.feed(&wire);
        for i in 0..50u64 {
            let f = dec.next().unwrap().unwrap();
            assert_eq!(dec.arg(&f, 1), i.to_string().as_bytes());
        }
        let f = dec.next().unwrap().unwrap();
        assert_eq!(dec.arg(&f, 0), b"PING");
        assert!(dec.next().unwrap().is_none());
        dec.compact();
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_array_frames_are_skipped() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(b"*0\r\n*1\r\n$4\r\nPING\r\n");
        let f = dec.next().unwrap().unwrap();
        assert_eq!(dec.arg(&f, 0), b"PING");
        assert!(dec.next().unwrap().is_none());
    }

    #[test]
    fn inline_commands_parse_and_blank_lines_skip() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(b"\r\n  \r\nGET 17\r\nPING\nSET 1   2\r\n");
        let f = dec.next().unwrap().unwrap();
        assert_eq!(args_of(&dec, &f), vec![b"GET".to_vec(), b"17".to_vec()]);
        let f = dec.next().unwrap().unwrap();
        assert_eq!(args_of(&dec, &f), vec![b"PING".to_vec()]);
        let f = dec.next().unwrap().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(dec.arg(&f, 2), b"2");
        assert!(dec.next().unwrap().is_none());
    }

    #[test]
    fn oversized_bulk_is_rejected() {
        let mut dec = Decoder::new(1024);
        dec.feed(b"*2\r\n$3\r\nSET\r\n$99999\r\n");
        match dec.next() {
            Err(ProtoError::FrameTooLarge { declared, max }) => {
                assert!(declared >= 99999);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_arg_count_is_rejected() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(format!("*{}\r\n", MAX_ARGS + 1).as_bytes());
        assert_eq!(dec.next(), Err(ProtoError::TooManyArgs(MAX_ARGS + 1)));
    }

    #[test]
    fn negative_and_garbled_lengths_are_rejected() {
        for wire in [
            b"*-1\r\n".as_slice(),
            b"*x\r\n",
            b"*2\r\n$-5\r\n",
            b"*1\r\n$3x\r\nabc\r\n",
            b"*1\r\n$3\r\nabcXX",
        ] {
            let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
            dec.feed(wire);
            assert!(dec.next().is_err(), "{:?}", String::from_utf8_lossy(wire));
        }
    }

    #[test]
    fn array_element_must_be_bulk() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(b"*1\r\n:5\r\n");
        assert_eq!(dec.next(), Err(ProtoError::ExpectedBulk(b':')));
        assert!(!ProtoError::ExpectedBulk(b':').recoverable());
    }

    #[test]
    fn unterminated_length_header_is_bounded() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(b"*");
        dec.feed(&[b'1'; 64]);
        assert_eq!(dec.next(), Err(ProtoError::BadLength));
    }

    #[test]
    fn overlong_inline_line_is_recoverable() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        let mut junk = vec![b'x'; MAX_INLINE + 10];
        junk.push(b'\n');
        dec.feed(&junk);
        let e = dec.next().unwrap_err();
        assert_eq!(e, ProtoError::InlineTooLong);
        assert!(e.recoverable());
        // The stream resyncs at the newline: the next command parses.
        dec.feed(b"PING\r\n");
        let f = dec.next().unwrap().unwrap();
        assert_eq!(dec.arg(&f, 0), b"PING");
    }

    #[test]
    fn compact_preserves_a_partial_tail() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        let mut wire = Vec::new();
        enc_request(&mut wire, &[b"GET", b"1"]);
        wire.extend_from_slice(b"*2\r\n$3\r\nGET"); // partial second frame
        dec.feed(&wire);
        assert!(dec.next().unwrap().is_some());
        assert!(dec.next().unwrap().is_none());
        dec.compact();
        dec.feed(b"\r\n$1\r\n2\r\n");
        let f = dec.next().unwrap().unwrap();
        assert_eq!(dec.arg(&f, 1), b"2");
    }

    #[test]
    fn int_parsers_reject_garbage() {
        assert_eq!(parse_u64(b"184"), Some(184));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_u64(b"18446744073709551616"), None);
        assert_eq!(parse_u64(b""), None);
        assert_eq!(parse_u64(b"1x"), None);
        assert_eq!(parse_i64(b"-42"), Some(-42));
        assert_eq!(parse_i64(b"-"), None);
    }
}
