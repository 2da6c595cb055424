//! Per-connection state machine, free of sockets and clocks.
//!
//! [`Conn`] owns the request [`Decoder`], the reply buffer, and every
//! deadline a connection can carry (idle, drain, write-stall). The event
//! loop owns the socket and the clock: it feeds bytes in
//! ([`Conn::on_bytes`]), reports write progress
//! ([`Conn::on_write_progress`]), announces deadline expiry
//! ([`Conn::on_tick`]) — always passing `now` explicitly — and reads the
//! connection's wishes back out ([`Conn::wants_read`],
//! [`Conn::wants_write`], [`Conn::next_deadline`], [`Conn::done`]).
//! Because nothing here touches a socket and no protocol decision reads
//! the real clock, the whole protocol lifecycle is unit-testable with
//! in-memory byte slices and a hand-rolled clock (see
//! `tests/conn_state.rs`). The one real reading is the metrics layer's:
//! a pump opens an `obs::lap_chain` so the commands it executes share
//! clock readings; it feeds latency histograms, never a deadline.
//!
//! **Backpressure.** Replies accumulate in the output buffer; after
//! [`MAX_INFLIGHT`] of them pile up without the socket draining, the
//! connection *stalls*: it stops wanting reads (the loop parks its
//! EPOLLIN interest) and stops decoding, so a client that streams
//! requests faster than it reads replies is throttled by TCP flow
//! control instead of growing server memory. The stall clears the moment
//! the output buffer fully reaches the socket.
//!
//! **Drain.** [`Conn::begin_drain`] starts the end-of-life protocol the
//! old thread-per-connection loop promised: every frame already received
//! is answered; the connection closes at the first [`DRAIN_SILENCE`]
//! pause in arriving bytes, or unconditionally stops reading at the
//! [`DRAIN_GRACE`] deadline so a firehosing client cannot stretch
//! shutdown forever.

use std::time::{Duration, Instant};

use hdnh_obs as obs;

use super::{Engine, EngineAction};
use crate::config::ServerConfig;
use crate::resp::{enc_error, release_if_oversized, Decoder, BUF_INITIAL, DEFAULT_MAX_FRAME};

/// A connection closes after this long with no bytes from the peer.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection whose peer stops reading replies for this long while
/// output is pending is dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Pipelining budget: at most this many replies are buffered before
/// decoding pauses until the output buffer reaches the socket.
pub const MAX_INFLIGHT: usize = 128;

/// After a drain begins, how long a connection keeps answering bytes that
/// were already in flight before it stops reading. Bounds how much a
/// firehosing client can stretch shutdown.
pub const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// During a drain, the connection closes after this long without a byte
/// from the peer (the moment the wire goes quiet). Extended by arriving
/// bytes, capped by [`DRAIN_GRACE`].
pub const DRAIN_SILENCE: Duration = Duration::from_millis(100);

struct Drain {
    grace: Instant,
    silence: Instant,
}

/// One connection's protocol state: decoder, reply buffer, deadlines.
/// See the module docs for the driving contract.
pub struct Conn {
    dec: Decoder,
    out: Vec<u8>,
    /// Bytes of `out` already written to the socket.
    wpos: usize,
    /// Replies appended since the output buffer last fully drained.
    inflight: usize,
    last_activity: Instant,
    /// `Some(t)` while output is pending: the last instant the socket
    /// accepted bytes (or the instant output first became pending).
    last_write_progress: Option<Instant>,
    drain: Option<Drain>,
    /// Decode paused at the inflight budget, awaiting output drain.
    stalled: bool,
    /// No more bytes will be read (EOF, idle/drain deadline, fatal
    /// protocol error).
    reading_stopped: bool,
    /// The decoder is poisoned (fatal protocol error): buffered bytes
    /// are abandoned, only pending replies still go out.
    decoding_stopped: bool,
    /// The last pump left no complete frame buffered.
    decoder_empty: bool,
    close_when_flushed: bool,
    /// Hard failure (write-stall timeout): drop without flushing.
    dead: bool,
    shutdown_requested: bool,
}

impl Conn {
    /// A fresh connection, idle clock starting at `now`. Its budgets are
    /// the module's constants; no setting of `cfg` applies to one
    /// connection.
    pub fn new(_cfg: &ServerConfig, now: Instant) -> Conn {
        Conn {
            dec: Decoder::new(DEFAULT_MAX_FRAME),
            out: Vec::with_capacity(BUF_INITIAL),
            wpos: 0,
            inflight: 0,
            last_activity: now,
            last_write_progress: None,
            drain: None,
            stalled: false,
            reading_stopped: false,
            decoding_stopped: false,
            decoder_empty: true,
            close_when_flushed: false,
            dead: false,
            shutdown_requested: false,
        }
    }

    /// Bytes arrived from the peer: feed the decoder and execute every
    /// complete frame through `engine`, up to the inflight budget.
    pub fn on_bytes<E: Engine + ?Sized>(&mut self, bytes: &[u8], engine: &E, now: Instant) {
        if self.dead || self.reading_stopped {
            return;
        }
        self.last_activity = now;
        if let Some(d) = &mut self.drain {
            d.silence = (now + DRAIN_SILENCE).min(d.grace);
        }
        self.decoder_empty = false;
        self.dec.feed(bytes);
        self.pump(engine, now);
    }

    /// The peer half-closed: answer what was received, then close.
    pub fn on_eof(&mut self) {
        self.reading_stopped = true;
        self.maybe_finish();
    }

    /// The socket accepted `n` bytes of [`Conn::output`]. A full drain
    /// clears the inflight budget and resumes a stalled decode.
    pub fn on_write_progress<E: Engine + ?Sized>(&mut self, n: usize, engine: &E, now: Instant) {
        if n == 0 || self.dead {
            return;
        }
        self.wpos += n;
        debug_assert!(self.wpos <= self.out.len());
        if self.wpos >= self.out.len() {
            self.out.clear();
            release_if_oversized(&mut self.out);
            self.wpos = 0;
            self.inflight = 0;
            self.last_write_progress = None;
            if self.stalled {
                self.stalled = false;
                self.pump(engine, now);
            } else {
                self.maybe_finish();
            }
        } else {
            self.last_write_progress = Some(now);
        }
    }

    /// A deadline may have passed; evaluate idle, drain, and write-stall
    /// clocks against `now`. Harmless to call early or often.
    pub fn on_tick(&mut self, now: Instant) {
        if self.dead {
            return;
        }
        if self.wants_write() {
            if let Some(t) = self.last_write_progress {
                if now.duration_since(t) >= WRITE_TIMEOUT {
                    // The peer stopped reading its replies: hard-drop.
                    self.dead = true;
                    return;
                }
            }
        }
        if !self.reading_stopped {
            let expired = match &self.drain {
                Some(d) => now >= d.silence || now >= d.grace,
                None => now.duration_since(self.last_activity) >= READ_TIMEOUT,
            };
            if expired {
                self.reading_stopped = true;
                self.maybe_finish();
            }
        }
    }

    /// Starts the graceful-drain protocol (idempotent): answer everything
    /// received, then close at the first silence (see the module docs).
    pub fn begin_drain(&mut self, now: Instant) {
        if self.drain.is_none() {
            let grace = now + DRAIN_GRACE;
            self.drain = Some(Drain {
                grace,
                silence: (now + DRAIN_SILENCE).min(grace),
            });
        }
    }

    /// The not-yet-written slice of the reply buffer.
    pub fn output(&self) -> &[u8] {
        &self.out[self.wpos..]
    }

    /// Whether the loop should keep EPOLLIN interest: false once reading
    /// stopped or while stalled on the inflight budget.
    pub fn wants_read(&self) -> bool {
        !self.dead && !self.reading_stopped && !self.stalled
    }

    /// Whether unwritten output is pending.
    pub fn wants_write(&self) -> bool {
        !self.dead && self.wpos < self.out.len()
    }

    /// Whether the connection is finished and the socket should close:
    /// either hard-dead, or politely done with all replies delivered.
    pub fn done(&self) -> bool {
        self.dead || (self.close_when_flushed && self.output().is_empty())
    }

    /// The earliest instant at which [`Conn::on_tick`] could do work, or
    /// `None` when no clock is running (an idle-immortal case does not
    /// exist: a live connection always carries at least the idle clock).
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.dead {
            return None;
        }
        let mut dl: Option<Instant> = None;
        let mut add = |t: Instant| {
            dl = Some(match dl {
                None => t,
                Some(cur) => cur.min(t),
            })
        };
        if self.wants_write() {
            if let Some(t) = self.last_write_progress {
                add(t + WRITE_TIMEOUT);
            }
        }
        if !self.reading_stopped {
            match &self.drain {
                Some(d) => add(d.silence.min(d.grace)),
                None => add(self.last_activity + READ_TIMEOUT),
            }
        }
        dl
    }

    /// Takes the pending `SHUTDOWN` request, if the engine raised one
    /// while executing a frame (the loop translates it into a
    /// process-wide drain).
    pub fn take_shutdown_request(&mut self) -> bool {
        std::mem::take(&mut self.shutdown_requested)
    }

    /// Decode-and-execute until the buffer is out of complete frames or
    /// the inflight budget stalls the connection.
    fn pump<E: Engine + ?Sized>(&mut self, engine: &E, now: Instant) {
        if self.decoding_stopped || self.dead {
            return;
        }
        // The commands of one pump run back to back on this thread: their
        // latency measurements share clock readings until the guard drops.
        let _laps = obs::lap_chain();
        while !self.stalled {
            match self.dec.next() {
                Ok(Some(frame)) => {
                    obs::count(obs::Counter::NetFrameDecoded);
                    match engine.execute(&self.dec, &frame, &mut self.out) {
                        EngineAction::Continue => {}
                        EngineAction::Shutdown => self.shutdown_requested = true,
                    }
                    self.inflight += 1;
                    if self.inflight >= MAX_INFLIGHT {
                        self.stalled = true;
                    }
                }
                Ok(None) => {
                    self.decoder_empty = true;
                    self.dec.compact();
                    break;
                }
                Err(e) => {
                    obs::count(obs::Counter::NetProtocolError);
                    enc_error(&mut self.out, "ERR", &format!("protocol error: {e}"));
                    if e.recoverable() {
                        continue;
                    }
                    // Fatal: deliver the error reply, then close.
                    self.decoding_stopped = true;
                    self.reading_stopped = true;
                    break;
                }
            }
        }
        // Output that just became pending starts the write-stall clock.
        if self.wants_write() && self.last_write_progress.is_none() {
            self.last_write_progress = Some(now);
        }
        self.maybe_finish();
    }

    /// If reading has stopped and every received frame has been answered
    /// (nothing stalled, nothing still decodable), arrange to close once
    /// the replies reach the socket.
    fn maybe_finish(&mut self) {
        if self.reading_stopped && !self.stalled && (self.decoder_empty || self.decoding_stopped) {
            self.close_when_flushed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::{enc_bulk, enc_request, Frame};

    /// Replies to every frame with its last argument as a bulk string.
    struct Echo;

    impl Engine for Echo {
        fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
            enc_bulk(out, dec.arg(frame, frame.len() - 1));
            EngineAction::Continue
        }
    }

    fn conn(now: Instant) -> Conn {
        Conn::new(&ServerConfig::builder().build().unwrap(), now)
    }

    fn flush(conn: &mut Conn, now: Instant) {
        let n = conn.output().len();
        conn.on_write_progress(n, &Echo, now);
    }

    #[test]
    fn a_huge_value_does_not_pin_its_size_in_the_connection() {
        let now = Instant::now();
        let mut conn = conn(now);
        let big = vec![b'v'; hdnh::MAX_VALUE_BYTES];
        let mut wire = Vec::new();
        enc_request(&mut wire, &[b"ECHO", &big]);
        // The request arrives as the socket delivers it, 16 KiB at a time.
        for chunk in wire.chunks(16 * 1024) {
            conn.on_bytes(chunk, &Echo, now);
        }
        assert!(conn.out.capacity() >= big.len(), "the reply is buffered whole");
        // The decoder emptied when the frame was executed; the reply
        // buffer empties when the socket has taken it.
        assert_eq!(conn.dec.buffer().capacity(), BUF_INITIAL);
        flush(&mut conn, now);
        assert_eq!(conn.out.capacity(), BUF_INITIAL);
        // And the connection goes on serving.
        conn.on_bytes(b"ECHO hello\r\n", &Echo, now);
        assert_eq!(conn.output(), b"$5\r\nhello\r\n");
    }

    #[test]
    fn steady_batches_never_reallocate_either_buffer() {
        let now = Instant::now();
        let mut conn = conn(now);
        // A depth-16 batch of 256-byte values: about 4 KiB in, 4 KiB out.
        let mut batch = Vec::new();
        for _ in 0..16 {
            enc_request(&mut batch, &[b"ECHO", &[b'v'; 256]]);
        }
        let buffers = |conn: &Conn| {
            let (input, out) = (conn.dec.buffer(), &conn.out);
            [(input.as_ptr(), input.capacity()), (out.as_ptr(), out.capacity())]
        };
        conn.on_bytes(&batch, &Echo, now);
        flush(&mut conn, now);
        let settled = buffers(&conn);
        for _ in 0..1_000 {
            conn.on_bytes(&batch, &Echo, now);
            assert_eq!(conn.output().len(), 16 * (6 + 256 + 2));
            flush(&mut conn, now);
            assert_eq!(buffers(&conn), settled, "a buffer shrank or grew in steady state");
        }
    }
}
