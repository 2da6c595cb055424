//! RESP command engine over the event-driven [`crate::reactor`] runtime.
//!
//! **Architecture.** The runtime concerns (sockets, readiness, deadlines,
//! backpressure, drain mechanics) live in [`crate::reactor`]; this module
//! supplies the *policy* as a [`reactor::Engine`] implementation:
//! decoded RESP frames run against one shared [`Hdnh`] table through
//! [`execute`] (the executor the shell shares) or, for the commands that
//! need the server, its own dispatch; admission control against the
//! `max_conns` budget; and the ops-plane
//! hooks (readiness flips, connection accounting). `cfg.threads()` event
//! loops each multiplex thousands of non-blocking sockets, so connection
//! count is bounded by the `max_conns` budget and fd limits — not by
//! threads. The table itself is the only shared state (reads go through
//! the epoch-pinned lock-free path, writes take per-slot locks, so loops
//! never serialize on server-side locks).
//!
//! **Backpressure.** Three independent bounds protect the server:
//! connection slots (`max_conns`; a connection over budget is answered
//! `-ERR max connections` and closed), a per-frame byte budget
//! ([`DEFAULT_MAX_FRAME`](crate::resp::DEFAULT_MAX_FRAME); oversized frames
//! are a fatal protocol error), and a per-connection pipelining budget
//! ([`MAX_INFLIGHT`](crate::reactor::MAX_INFLIGHT); at most that many
//! replies accumulate in the output buffer before the connection stops
//! wanting reads, so a client streaming requests faster than it reads
//! replies is throttled by TCP flow control instead of growing server
//! memory).
//!
//! **Shutdown.** `SHUTDOWN` (any connection) or [`ServerHandle::shutdown`]
//! (process signal, test harness) flips one shared flag and wakes every
//! event loop. The acceptor closes; every live connection finishes
//! executing the requests already received, flushes its replies, and
//! closes. No reply that was owed for a received frame is ever dropped.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdnh::{Hdnh, HdnhError};
use hdnh_common::Key;
use hdnh_obs as obs;

use crate::config::ServerConfig;
use crate::ops::OpsState;
use crate::reactor::{self, EngineAction};
use crate::resp::{
    enc_array_header, enc_bulk, enc_error, enc_int, enc_nil, enc_simple, parse_u64, Decoder, Frame,
};

/// Handle to a running server: address, shutdown trigger, join.
pub struct ServerHandle {
    inner: reactor::ReactorHandle,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Whether a drain has been requested (by `SHUTDOWN` or
    /// [`ServerHandle::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.is_shutting_down()
    }

    /// Begins a graceful drain: no new connections; live connections
    /// finish their received frames and close.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Waits for every event loop to exit (drain complete).
    pub fn join(self) {
        self.inner.join();
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds `addr` and starts the event loops. The table is shared; the
/// caller keeps its own `Arc` and may continue using it in-process.
///
/// Convenience wrapper over [`start_with_state`] with a private
/// [`OpsState`] that is published and marked ready immediately.
pub fn start<A: ToSocketAddrs>(
    table: Arc<Hdnh>,
    addr: A,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let state = OpsState::new();
    state.set_table(&table);
    let handle = start_with_state(table, addr, cfg, Arc::clone(&state))?;
    state.set_ready();
    Ok(handle)
}

/// [`start`] with a caller-supplied [`OpsState`], so an ops listener
/// started *before* the table was opened (readiness false through
/// recovery) shares the same readiness/drain/connection state as the
/// data path.
///
/// `cfg` is valid by construction ([`ServerConfig::builder`] rejects
/// nonsense knobs), so the old runtime asserts are gone.
pub fn start_with_state<A: ToSocketAddrs>(
    table: Arc<Hdnh>,
    addr: A,
    cfg: ServerConfig,
    state: Arc<OpsState>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let engine: Arc<dyn reactor::Engine> = Arc::new(RespEngine {
        table,
        state,
        cfg: cfg.clone(),
    });
    let inner = reactor::spawn(listener, cfg, engine)?;
    Ok(ServerHandle { inner })
}

/// The RESP policy plugged into the reactor: command execution against
/// the table, `max_conns` admission, ops-plane integration.
struct RespEngine {
    table: Arc<Hdnh>,
    /// Shared ops-plane state: readiness, drain flag, uptime, and the
    /// canonical live-connection count (so `INFO` and `/varz` agree).
    state: Arc<OpsState>,
    cfg: ServerConfig,
}

impl reactor::Engine for RespEngine {
    fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
        dispatch(self, dec, frame, out)
    }

    fn try_admit(&self) -> bool {
        // Connection budget: a slot is held for the connection's lifetime.
        let conns = &self.state.active_conns;
        if conns.fetch_add(1, Ordering::SeqCst) >= self.cfg.max_conns() {
            conns.fetch_sub(1, Ordering::SeqCst);
            obs::count(obs::Counter::NetConnRejected);
            false
        } else {
            obs::count(obs::Counter::NetConnAccepted);
            true
        }
    }

    fn on_conn_closed(&self) {
        self.state.active_conns.fetch_sub(1, Ordering::SeqCst);
    }

    fn on_drain_begin(&self) {
        // Readiness probes flip false the instant the drain begins,
        // before the event loops have even noticed.
        self.state.begin_drain();
    }
}

/// Maps a table error onto a typed RESP error reply.
fn enc_hdnh_error(out: &mut Vec<u8>, e: &HdnhError) {
    let code = match e {
        HdnhError::Corruption { .. } => "CORRUPTION",
        HdnhError::Capacity(_) => "CAPACITY",
        HdnhError::Io(_) => "IO",
        HdnhError::Recovery(_) => "RECOVERY",
        HdnhError::Integrity { .. } => "INTEGRITY",
        _ => "ERR",
    };
    enc_error(out, code, &e.to_string());
}

fn wrong_args(out: &mut Vec<u8>, cmd: &str) {
    enc_error(out, "ERR", &format!("wrong number of arguments for '{cmd}'"));
}

const NOT_U64: &str = "value is not an unsigned integer or out of range";

/// Parses one u64 argument or encodes the canonical error.
fn u64_arg(dec: &Decoder, frame: &Frame, i: usize, out: &mut Vec<u8>) -> Option<u64> {
    let v = parse_u64(dec.arg(frame, i));
    if v.is_none() {
        enc_error(out, "ERR", NOT_U64);
    }
    v
}

/// Parses the u64 keys at argument positions `at`, or encodes the
/// canonical error and returns `None` when any one fails: every key is
/// parsed before the first table operation, so a bad key changes nothing.
fn u64_args<'a>(
    dec: &'a Decoder,
    frame: &'a Frame,
    at: impl Iterator<Item = usize> + Clone + 'a,
    out: &mut Vec<u8>,
) -> Option<impl Iterator<Item = u64> + 'a> {
    let key = |i| parse_u64(dec.arg(frame, i));
    if at.clone().any(|i| key(i).is_none()) {
        enc_error(out, "ERR", NOT_U64);
        return None;
    }
    Some(at.filter_map(key))
}

/// The command name upper-cased into `buf`, or `None` when it is empty or
/// longer than any command.
fn upper_name<'a>(name: &[u8], buf: &'a mut [u8; 16]) -> Option<&'a [u8]> {
    if name.is_empty() || name.len() > buf.len() {
        return None;
    }
    for (d, s) in buf.iter_mut().zip(name) {
        *d = s.to_ascii_uppercase();
    }
    Some(&buf[..name.len()])
}

/// Executes one decoded frame of the table's command vocabulary
/// (`PING GET SET DEL EXISTS MGET MSET BACKUP COMPACT`) against `table`,
/// appending exactly one reply to `out`. Any other command appends
/// nothing and returns `None`. The one executor of keyed commands: the
/// server's engine and the shell both run them through here.
pub fn execute(table: &Hdnh, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> Option<obs::NetCmd> {
    let mut upper = [0u8; 16];
    let cmd = upper_name(dec.arg(frame, 0), &mut upper)?;
    Some(match cmd {
        b"PING" => {
            if frame.len() > 2 {
                wrong_args(out, "ping");
            } else if frame.len() == 2 {
                enc_bulk(out, dec.arg(frame, 1));
            } else {
                enc_simple(out, "PONG");
            }
            obs::NetCmd::Ping
        }
        b"GET" => {
            if frame.len() != 2 {
                wrong_args(out, "get");
            } else if let Some(k) = u64_arg(dec, frame, 1, out) {
                // Encoded from the table's own bytes straight into the
                // reply buffer: no owned copy in between.
                match table.get_bytes_with(&Key::from_u64(k), |v| enc_bulk(out, v)) {
                    Ok(Some(())) => {}
                    Ok(None) => enc_nil(out),
                    Err(e) => enc_hdnh_error(out, &e),
                }
            }
            obs::NetCmd::Get
        }
        b"SET" => {
            if frame.len() != 3 {
                wrong_args(out, "set");
            } else if let Some(k) = u64_arg(dec, frame, 1, out) {
                // A value over `hdnh::MAX_VALUE_BYTES` is refused by the
                // value log before any table work, as `-CAPACITY`; the RESP
                // frame budget (1 MiB) is a little above that cap, so the
                // refusal is a command error, not a framing error. A sticky
                // pool I/O fault comes back from the table as `-IO`.
                match table.upsert_bytes(&Key::from_u64(k), dec.arg(frame, 2)) {
                    Ok(()) => enc_simple(out, "OK"),
                    Err(e) => enc_hdnh_error(out, &e),
                }
            }
            obs::NetCmd::Set
        }
        b"DEL" => {
            if frame.len() < 2 {
                wrong_args(out, "del");
            } else if let Some(mut keys) = u64_args(dec, frame, 1..frame.len(), out) {
                // The first error, a sticky pool I/O fault included, is the
                // reply: the keys after it are left alone.
                let removed = keys.try_fold(0i64, |n, k| {
                    table.remove(&Key::from_u64(k)).map(|gone| n + i64::from(gone))
                });
                match removed {
                    Ok(n) => enc_int(out, n),
                    Err(e) => enc_hdnh_error(out, &e),
                }
            }
            obs::NetCmd::Del
        }
        b"EXISTS" => {
            if frame.len() < 2 {
                wrong_args(out, "exists");
            } else if let Some(keys) = u64_args(dec, frame, 1..frame.len(), out) {
                let found = keys.filter(|&k| matches!(table.get(&Key::from_u64(k)), Ok(Some(_))));
                enc_int(out, found.count() as i64);
            }
            obs::NetCmd::Exists
        }
        b"MGET" => {
            if frame.len() < 2 {
                wrong_args(out, "mget");
            } else if let Some(keys) = u64_args(dec, frame, 1..frame.len(), out) {
                // Every key is checked before the array header goes out, so
                // a bad key yields one error reply, not a torn array.
                enc_array_header(out, frame.len() - 1);
                for k in keys {
                    match table.get_bytes_with(&Key::from_u64(k), |v| enc_bulk(out, v)) {
                        Ok(Some(())) => {}
                        // Per-element nil for misses *and* per-element
                        // failures: the array shape must match the ask.
                        _ => enc_nil(out),
                    }
                }
            }
            obs::NetCmd::MGet
        }
        b"MSET" => {
            if frame.len() < 3 || frame.len().is_multiple_of(2) {
                wrong_args(out, "mset");
            } else if let Some(keys) = u64_args(dec, frame, (1..frame.len()).step_by(2), out) {
                // As `DEL`: the first table error is the reply.
                let values = (2..frame.len()).step_by(2).map(|i| dec.arg(frame, i));
                let stored = keys
                    .zip(values)
                    .try_for_each(|(k, v)| table.upsert_bytes(&Key::from_u64(k), v));
                match stored {
                    Ok(()) => enc_simple(out, "OK"),
                    Err(e) => enc_hdnh_error(out, &e),
                }
            }
            obs::NetCmd::MSet
        }
        b"BACKUP" => {
            if frame.len() != 2 {
                wrong_args(out, "backup");
            } else {
                // The path is server-side: the snapshot lands on the
                // server's filesystem, like Redis's BGSAVE target.
                match std::str::from_utf8(dec.arg(frame, 1)) {
                    Ok(dir) if !dir.is_empty() => {
                        match table.snapshot(std::path::Path::new(dir)) {
                            Ok(report) => enc_bulk(
                                out,
                                format!("files:{} bytes:{}", report.files, report.bytes)
                                    .as_bytes(),
                            ),
                            Err(e) => enc_hdnh_error(out, &e),
                        }
                    }
                    _ => enc_error(out, "ERR", "BACKUP takes a directory path"),
                }
            }
            obs::NetCmd::Backup
        }
        b"COMPACT" => {
            if frame.len() != 1 {
                wrong_args(out, "compact");
            } else {
                // Synchronous on purpose: the caller learns exactly what
                // one pass reclaimed. Readers and writers are never
                // blocked by compaction, only concurrent COMPACTs queue.
                match table.compact() {
                    Ok(r) => enc_bulk(
                        out,
                        format!(
                            "victims:{} segments_retired:{} records_relocated:{} bytes_reclaimed:{}",
                            r.victims, r.segments_retired, r.records_relocated, r.bytes_reclaimed
                        )
                        .as_bytes(),
                    ),
                    Err(e) => enc_hdnh_error(out, &e),
                }
            }
            obs::NetCmd::Compact
        }
        _ => return None,
    })
}

/// Executes one decoded frame, appending exactly one reply to `out`: the
/// table's commands through [`execute`], then the ones that need the
/// server. Returns [`EngineAction::Shutdown`] for the `SHUTDOWN` command so
/// the runtime can begin the process-wide drain.
fn dispatch(engine: &RespEngine, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
    let started = obs::op_start();
    let table = &engine.table;
    if let Some(netcmd) = execute(table, dec, frame, out) {
        finish(started, netcmd);
        return EngineAction::Continue;
    }
    let name = dec.arg(frame, 0);
    let mut upper = [0u8; 16];
    let Some(cmd) = upper_name(name, &mut upper) else {
        obs::count(obs::Counter::NetUnknownCmd);
        enc_error(out, "ERR", "unknown command");
        return EngineAction::Continue;
    };
    let mut action = EngineAction::Continue;
    let netcmd = match cmd {
        b"INFO" => {
            if frame.len() != 1 {
                wrong_args(out, "info");
            } else {
                let state = &engine.state;
                let mut s = format!(
                    "version:{}\r\ngit_sha:{}\r\nuptime_seconds:{}\r\nbackend:{}\r\nrecords:{}\r\nload_factor:{:.3}\r\nresizes:{}\r\nocf_bytes:{}\r\nconnections:{}\r\nmax_connections:{}\r\nworkers:{}\r\nready:{}\r\ndraining:{}\r\nshutting_down:{}\r\n",
                    crate::ops::VERSION,
                    crate::ops::GIT_HASH,
                    state.uptime_secs(),
                    table.backend_kind(),
                    table.len(),
                    table.load_factor(),
                    table.resize_count(),
                    table.ocf_footprint_bytes(),
                    state.active_conns.load(Ordering::SeqCst),
                    engine.cfg.max_conns(),
                    engine.cfg.threads(),
                    state.not_ready_reason().is_none() as u8,
                    state.is_draining() as u8,
                    state.is_draining() as u8,
                );
                let vs = table.vlog_stats();
                s.push_str(&format!(
                    "vlog_segments:{}\r\nvlog_capacity_bytes:{}\r\nvlog_used_bytes:{}\r\nvlog_garbage_bytes:{}\r\nvlog_live_bytes:{}\r\n",
                    vs.segments, vs.capacity_bytes, vs.used_bytes, vs.garbage_bytes, vs.live_bytes,
                ));
                if let Some(gc) = vs.last_gc {
                    s.push_str(&format!(
                        "vlog_last_gc_segments_retired:{}\r\nvlog_last_gc_records_relocated:{}\r\nvlog_last_gc_bytes_reclaimed:{}\r\n",
                        gc.segments_retired, gc.records_relocated, gc.bytes_reclaimed,
                    ));
                }
                enc_bulk(out, s.as_bytes());
            }
            obs::NetCmd::Info
        }
        b"SCRUB" => {
            if frame.len() != 1 {
                wrong_args(out, "scrub");
            } else {
                enc_bulk(out, table.scrub().to_json().as_bytes());
            }
            obs::NetCmd::Scrub
        }
        b"METRICS" => {
            let mut format = [0u8; 16];
            match frame.len() {
                1 => enc_bulk(out, obs::snapshot().to_json().as_bytes()),
                2 => match upper_name(dec.arg(frame, 1), &mut format) {
                    Some(b"JSON") => enc_bulk(out, obs::snapshot().to_json().as_bytes()),
                    Some(b"PROM") => enc_bulk(out, obs::snapshot().to_prometheus().as_bytes()),
                    _ => enc_error(out, "ERR", "METRICS takes JSON or PROM"),
                },
                _ => wrong_args(out, "metrics"),
            }
            obs::NetCmd::Metrics
        }
        b"SHUTDOWN" => {
            enc_simple(out, "OK");
            action = EngineAction::Shutdown;
            obs::NetCmd::Shutdown
        }
        _ => {
            obs::count(obs::Counter::NetUnknownCmd);
            enc_error(
                out,
                "ERR",
                &format!("unknown command '{}'", String::from_utf8_lossy(name)),
            );
            return action;
        }
    };
    finish(started, netcmd);
    action
}

#[inline]
fn finish(started: Option<Instant>, cmd: obs::NetCmd) {
    obs::net_record(cmd, started);
}

// ---------------------------------------------------------------------------
// Process signal integration (SIGTERM/SIGINT → graceful drain)
// ---------------------------------------------------------------------------

static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: std::os::raw::c_int) {
    // Only an atomic store: async-signal-safe by construction.
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that set a process-wide drain flag
/// (poll it with [`signaled`]).
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(
            signum: std::os::raw::c_int,
            handler: extern "C" fn(std::os::raw::c_int),
        ) -> usize;
    }
    const SIGINT: std::os::raw::c_int = 2;
    const SIGTERM: std::os::raw::c_int = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether a termination signal arrived since
/// [`install_signal_handlers`].
pub fn signaled() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

/// Runs the server until `SHUTDOWN` or a termination signal, then drains
/// and returns. The convenience wrapper behind `hdnh-cli serve`.
pub fn serve_until_signal(handle: ServerHandle) {
    install_signal_handlers();
    while !handle.is_shutting_down() && !signaled() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown_and_join();
}
