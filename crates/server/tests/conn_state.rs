//! Unit tests for the connection state machine in isolation: a [`Conn`]
//! driven with in-memory byte slices and a hand-rolled clock — no
//! sockets, no threads, no real time. This is the payoff of the reactor
//! API split: the entire protocol lifecycle (partial reads, split
//! frames, inflight-budget stalls, drain-with-pending-replies, idle
//! timeout) is exercised deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hdnh_server::reactor::{
    Conn, DRAIN_GRACE, DRAIN_SILENCE, MAX_INFLIGHT, READ_TIMEOUT, WRITE_TIMEOUT,
};
use hdnh_server::resp::{enc_simple, Decoder, Frame};
use hdnh_server::{Engine, EngineAction, ServerConfig};

/// Echo-style test engine: answers `+OK` to everything, flags `SHUTDOWN`,
/// and counts executions.
struct TestEngine {
    executed: AtomicUsize,
}

impl TestEngine {
    fn new() -> TestEngine {
        TestEngine {
            executed: AtomicUsize::new(0),
        }
    }

    fn count(&self) -> usize {
        self.executed.load(Ordering::SeqCst)
    }
}

impl Engine for TestEngine {
    fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
        self.executed.fetch_add(1, Ordering::SeqCst);
        let name = dec.arg(frame, 0);
        enc_simple(out, "OK");
        if name.eq_ignore_ascii_case(b"SHUTDOWN") {
            EngineAction::Shutdown
        } else {
            EngineAction::Continue
        }
    }
}

fn cfg() -> ServerConfig {
    ServerConfig::default()
}

/// `n` pipelined inline `PING`s.
fn pings(n: usize) -> Vec<u8> {
    b"PING\r\n".repeat(n)
}

/// `n` `+OK` replies.
fn oks(n: usize) -> Vec<u8> {
    b"+OK\r\n".repeat(n)
}

/// Simulates the socket accepting all currently pending output.
fn drain_output(conn: &mut Conn, engine: &TestEngine, now: Instant) -> usize {
    let n = conn.output().len();
    conn.on_write_progress(n, engine, now);
    n
}

#[test]
fn partial_reads_assemble_one_frame() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // An inline command delivered one byte at a time: nothing executes
    // until the terminating newline arrives.
    for b in b"PIN" {
        conn.on_bytes(&[*b], &engine, t0);
        assert_eq!(engine.count(), 0);
        assert!(conn.output().is_empty());
    }
    conn.on_bytes(b"G\r\n", &engine, t0);
    assert_eq!(engine.count(), 1);
    assert_eq!(conn.output(), b"+OK\r\n");
    assert!(conn.wants_read());
    assert!(conn.wants_write());
    assert!(!conn.done());
}

#[test]
fn frames_split_across_arbitrary_boundaries() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // Two pipelined RESP arrays, fed in chunks that split mid-header and
    // mid-bulk-payload.
    let wire = b"*3\r\n$3\r\nSET\r\n$1\r\n7\r\n$2\r\n77\r\n*2\r\n$3\r\nGET\r\n$1\r\n7\r\n";
    for chunk in wire.chunks(5) {
        conn.on_bytes(chunk, &engine, t0);
    }
    assert_eq!(engine.count(), 2);
    assert_eq!(conn.output(), b"+OK\r\n+OK\r\n");
}

#[test]
fn inflight_budget_stalls_decoding_until_output_drains() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // Two budgets and one more command pipelined: only one budget's worth
    // executes, then the connection stops wanting reads (backpressure
    // surfaces as an interest-set change, not a blocking flush).
    conn.on_bytes(&pings(2 * MAX_INFLIGHT + 1), &engine, t0);
    assert_eq!(engine.count(), MAX_INFLIGHT);
    assert_eq!(conn.output(), oks(MAX_INFLIGHT));
    assert!(!conn.wants_read(), "stalled connection must not want reads");
    assert!(conn.wants_write());

    // Partial write progress is not enough: the budget clears only when
    // the buffer fully reaches the socket.
    conn.on_write_progress(3, &engine, t0);
    assert_eq!(engine.count(), MAX_INFLIGHT);
    assert!(!conn.wants_read());

    // Full drain resumes the pump: a budget more executes, stall again.
    let rest = conn.output().len();
    conn.on_write_progress(rest, &engine, t0);
    assert_eq!(engine.count(), 2 * MAX_INFLIGHT);
    assert_eq!(conn.output(), oks(MAX_INFLIGHT));
    assert!(!conn.wants_read());

    // Final drain executes the last one; the connection is readable again.
    drain_output(&mut conn, &engine, t0);
    assert_eq!(engine.count(), 2 * MAX_INFLIGHT + 1);
    drain_output(&mut conn, &engine, t0);
    assert!(conn.wants_read());
    assert!(!conn.done());
}

#[test]
fn drain_answers_pending_replies_before_closing() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // Three budgets' worth of commands, then the process starts draining
    // while two budgets are still undecoded and one budget of replies is
    // still unflushed.
    conn.on_bytes(&pings(3 * MAX_INFLIGHT), &engine, t0);
    assert_eq!(engine.count(), MAX_INFLIGHT);
    conn.begin_drain(t0);

    // The silence deadline passes — but replies are still owed, so the
    // connection must not close.
    let after_silence = t0 + DRAIN_SILENCE + Duration::from_millis(1);
    conn.on_tick(after_silence);
    assert!(!conn.done(), "drain must not drop unanswered frames");

    // As the socket drains, the remaining frames execute a budget at a
    // time.
    drain_output(&mut conn, &engine, after_silence);
    assert_eq!(engine.count(), 2 * MAX_INFLIGHT);
    drain_output(&mut conn, &engine, after_silence);
    assert_eq!(engine.count(), 3 * MAX_INFLIGHT);
    assert!(!conn.done(), "last reply still unflushed");

    // Only after the last reply reaches the socket does the connection
    // finish.
    drain_output(&mut conn, &engine, after_silence);
    assert!(conn.done(), "all frames answered and flushed → close");
}

#[test]
fn drain_closes_idle_connection_at_first_silence() {
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    conn.begin_drain(t0);
    assert!(!conn.done());
    let dl = conn.next_deadline().expect("draining conn has a deadline");
    assert!(dl <= t0 + DRAIN_SILENCE);

    conn.on_tick(t0 + DRAIN_SILENCE);
    assert!(conn.done(), "idle draining connection closes at silence");
}

#[test]
fn drain_grace_bounds_a_firehosing_client() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);
    conn.begin_drain(t0);

    // A client that keeps sending extends the silence window — but only
    // up to the grace deadline.
    let mut now = t0;
    for _ in 0..10 {
        now += Duration::from_millis(50);
        conn.on_bytes(b"PING\r\n", &engine, now);
        conn.on_tick(now);
        drain_output(&mut conn, &engine, now);
        drain_output(&mut conn, &engine, now);
        if conn.done() {
            break;
        }
    }
    assert!(
        now <= t0 + DRAIN_GRACE + Duration::from_millis(50),
        "grace deadline must have stopped the reads"
    );
    assert!(conn.done(), "firehosing client cannot stretch the drain");
    // Every frame received before the cutoff was answered.
    assert!(engine.count() >= 4, "frames received in the grace window are answered");
}

#[test]
fn idle_timeout_closes_a_silent_connection() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // The idle clock is the only scheduled deadline for a quiet
    // connection — exactly one wakeup per READ_TIMEOUT, not ten per second.
    assert_eq!(conn.next_deadline(), Some(t0 + READ_TIMEOUT));

    let t1 = t0 + READ_TIMEOUT - Duration::from_secs(1);
    conn.on_tick(t1);
    assert!(!conn.done());

    // Activity re-arms the clock.
    conn.on_bytes(b"PING\r\n", &engine, t1);
    drain_output(&mut conn, &engine, t1);
    assert_eq!(conn.next_deadline(), Some(t1 + READ_TIMEOUT));

    conn.on_tick(t1 + READ_TIMEOUT);
    assert!(conn.done(), "idle timeout must close the connection");
}

#[test]
fn eof_answers_received_frames_then_closes() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    conn.on_bytes(b"PING\r\nPING\r\n", &engine, t0);
    conn.on_eof();
    assert_eq!(engine.count(), 2);
    assert!(!conn.done(), "replies still owed");
    assert!(!conn.wants_read());
    drain_output(&mut conn, &engine, t0);
    assert!(conn.done(), "flushed after EOF → close");
}

#[test]
fn eof_resumes_a_stalled_decode_before_closing() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // Stall with one budget executed, two buffered — then EOF. The
    // buffered frames must still be answered before the connection
    // finishes.
    conn.on_bytes(&pings(3 * MAX_INFLIGHT), &engine, t0);
    assert_eq!(engine.count(), MAX_INFLIGHT);
    conn.on_eof();
    assert!(!conn.done());
    drain_output(&mut conn, &engine, t0);
    drain_output(&mut conn, &engine, t0);
    assert_eq!(engine.count(), 3 * MAX_INFLIGHT, "EOF must not drop buffered frames");
    drain_output(&mut conn, &engine, t0);
    assert!(conn.done());
}

#[test]
fn fatal_protocol_error_replies_then_closes() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    // An array element that is not a bulk string is a fatal framing
    // error: one error reply, no further decoding, close after flush.
    conn.on_bytes(b"*1\r\n:5\r\nPING\r\n", &engine, t0);
    assert_eq!(engine.count(), 0);
    let out = String::from_utf8_lossy(conn.output()).to_string();
    assert!(out.starts_with("-ERR protocol error"), "{out}");
    assert!(!conn.wants_read());
    assert!(!conn.done(), "error reply must be delivered first");
    drain_output(&mut conn, &engine, t0);
    assert!(conn.done());
}

#[test]
fn write_stall_timeout_hard_drops_the_connection() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    conn.on_bytes(b"PING\r\n", &engine, t0);
    assert!(conn.wants_write());

    // The peer never reads: after `WRITE_TIMEOUT` with zero progress the
    // connection is dropped even though output is pending.
    conn.on_tick(t0 + WRITE_TIMEOUT);
    assert!(conn.done(), "peer ignoring replies must be dropped");
    assert!(!conn.wants_write());
}

#[test]
fn shutdown_request_is_surfaced_once() {
    let engine = TestEngine::new();
    let t0 = Instant::now();
    let mut conn = Conn::new(&cfg(), t0);

    conn.on_bytes(b"SHUTDOWN\r\n", &engine, t0);
    assert_eq!(conn.output(), b"+OK\r\n", "SHUTDOWN is acked before the drain");
    assert!(conn.take_shutdown_request());
    assert!(!conn.take_shutdown_request(), "request is taken exactly once");
}
