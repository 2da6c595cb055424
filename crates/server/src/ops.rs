//! HTTP ops plane: metrics scrape, health/readiness probes, varz, trace.
//!
//! A tiny dedicated HTTP/1.0 listener on its *own* port, deliberately
//! separate from the RESP data path: a scraper, load balancer, or human
//! with `curl` must be able to probe the process even when the data port
//! is saturated, draining, or rejecting over budget. No dependencies —
//! the request grammar accepted is exactly `GET <path> HTTP/1.x` and
//! every response closes the connection.
//!
//! Routes:
//!
//! | path       | body                                             |
//! |------------|--------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the whole registry |
//! | `/healthz` | `ok` — liveness (the process can answer)         |
//! | `/readyz`  | `ready` (200) or the reason it is not (503)      |
//! | `/varz`    | JSON snapshot: build, uptime, table, readiness   |
//! | `/trace`   | flight-recorder timeline dump (JSON)             |
//!
//! **Readiness state machine.** `/readyz` is false (503) from process
//! start until the table is opened and published ([`OpsState::set_ready`]
//! — on a pool this is *after* recovery completes), false again the
//! moment a graceful drain begins ([`OpsState::begin_drain`], which the
//! RESP server calls on `SHUTDOWN`/SIGTERM), and false whenever the
//! storage backend carries a sticky I/O fault (a failed `msync` means
//! writes are no longer durable — load balancers should stop sending
//! traffic even though reads still work). Liveness (`/healthz`) stays
//! true throughout: a draining or faulted process is alive, just not
//! accepting work.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use hdnh::Hdnh;
use hdnh_obs as obs;

/// Crate version reported by `INFO` and `/varz`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git revision baked in at build time via the `HDNH_GIT_HASH` env var
/// (CI sets it; local builds report `unknown`).
pub const GIT_HASH: &str = match option_env!("HDNH_GIT_HASH") {
    Some(h) => h,
    None => "unknown",
};

/// Shared operational state: readiness, drain, uptime, the served table.
/// One instance is shared by the RESP server (which flips `draining`),
/// the ops listener (which answers probes from it), and the `INFO`
/// command (which reports it in-band).
pub struct OpsState {
    start: Instant,
    ready: AtomicBool,
    draining: AtomicBool,
    /// Weak on purpose: after a drain the serve path must be able to
    /// reclaim sole ownership of the table (`Arc::try_unwrap`) to mark
    /// the pool clean; a strong reference here would forever block that.
    table: OnceLock<Weak<Hdnh>>,
    /// Live RESP connections (owned here so `INFO` and `/varz` agree).
    pub(crate) active_conns: AtomicUsize,
}

impl OpsState {
    /// Fresh state: not ready, not draining, clock started now.
    pub fn new() -> Arc<OpsState> {
        Arc::new(OpsState {
            start: Instant::now(),
            ready: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            table: OnceLock::new(),
            active_conns: AtomicUsize::new(0),
        })
    }

    /// Publishes the table this process serves (first call wins).
    pub fn set_table(&self, table: &Arc<Hdnh>) {
        let _ = self.table.set(Arc::downgrade(table));
    }

    /// The published table — `None` before startup reaches that point or
    /// after the serve path has dropped it (post-drain pool close).
    pub fn table(&self) -> Option<Arc<Hdnh>> {
        self.table.get().and_then(Weak::upgrade)
    }

    /// Marks startup complete: the table is open (recovery, if any, has
    /// finished) and the data port is serving.
    pub fn set_ready(&self) {
        self.ready.store(true, Ordering::SeqCst);
        obs::trace::milestone(obs::trace::Milestone::Ready);
    }

    /// Marks the beginning of a graceful drain; `/readyz` turns false
    /// immediately so probes stop routing new traffic.
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            obs::trace::emit(obs::trace::EventKind::DrainBegin, 0, 0);
        }
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Seconds since this state (≈ the process) started.
    pub fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// `None` when ready to serve; otherwise the reason.
    pub fn not_ready_reason(&self) -> Option<String> {
        if !self.ready.load(Ordering::SeqCst) {
            return Some("starting (table not yet open)".into());
        }
        if self.is_draining() {
            return Some("draining".into());
        }
        if let Some(e) = self.table().and_then(|t| t.io_fault()) {
            return Some(format!("sticky io fault: {e}"));
        }
        None
    }

    /// JSON snapshot for `/varz`: build identity, uptime, readiness and
    /// table geometry, plus the full metrics registry under `"metrics"`.
    pub fn varz_json(&self) -> String {
        let reason = self.not_ready_reason();
        let snap = obs::snapshot();
        obs::json::object(|w| {
            w.key("version").str(VERSION).key("git").str(GIT_HASH);
            w.key("uptime_secs").u64(self.uptime_secs());
            w.key("ready").bool(reason.is_none()).key("draining").bool(self.is_draining());
            match &reason {
                Some(r) => w.key("not_ready_reason").str(r),
                None => w.key("not_ready_reason").null(),
            };
            match self.table() {
                None => w.key("table").null(),
                Some(t) => {
                    w.key("table").object(|w| {
                        w.key("backend").str(t.backend_kind()).key("records").u64(t.len() as u64);
                        w.key("load_factor").f64(t.load_factor(), 3);
                        w.key("resizes").u64(t.resize_count() as u64);
                        w.key("ocf_bytes").u64(t.ocf_footprint_bytes() as u64);
                    });
                    let vs = t.vlog_stats();
                    w.key("valuelog").object(|w| {
                        w.key("segments").u64(vs.segments as u64);
                        w.key("capacity_bytes").u64(vs.capacity_bytes);
                        w.key("used_bytes").u64(vs.used_bytes);
                        w.key("garbage_bytes").u64(vs.garbage_bytes);
                        w.key("live_bytes").u64(vs.live_bytes);
                        match vs.last_gc {
                            None => w.key("last_gc").null(),
                            Some(gc) => w.key("last_gc").object(|w| {
                                w.key("victims").u64(gc.victims as u64);
                                w.key("segments_retired").u64(gc.segments_retired as u64);
                                w.key("records_relocated").u64(gc.records_relocated as u64);
                                w.key("bytes_reclaimed").u64(gc.bytes_reclaimed);
                            }),
                        };
                    })
                }
            };
            w.key("snapshot").object(|w| {
                w.key("taken").u64(snap.counter(obs::Counter::SnapshotTaken));
                w.key("failed").u64(snap.counter(obs::Counter::SnapshotFailed));
                w.key("bytes").u64(snap.counter(obs::Counter::SnapshotBytes));
            });
            w.key("connections").u64(self.active_conns.load(Ordering::SeqCst) as u64);
            w.key("metrics");
            snap.write_json(w);
        })
    }
}

/// Handle to a running ops listener.
pub struct OpsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves the ops routes on one background thread.
///
/// Single-threaded on purpose: every route renders from in-memory state
/// in microseconds, probes arrive a few per second, and one thread can
/// never amplify a probe storm into data-path pressure.
pub fn start_ops<A: ToSocketAddrs>(addr: A, state: Arc<OpsState>) -> std::io::Result<OpsHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("hdnh-ops".into())
        .spawn(move || ops_loop(&listener, &state, &stop2))?;
    Ok(OpsHandle {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

fn ops_loop(listener: &TcpListener, state: &Arc<OpsState>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline; a wedged peer is bounded by the timeouts.
                let _ = serve_http(stream, state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads one request, answers it, closes. Accepts exactly the subset of
/// HTTP every prober emits: a `GET <path> HTTP/1.x` request line; headers
/// are read (bounded) and ignored.
fn serve_http(mut stream: TcpStream, state: &Arc<OpsState>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = [0u8; 4096];
    let mut n = 0usize;
    // Read until the end of the request head (or the buffer bound —
    // anything longer than 4 KiB is not a probe we serve).
    while n < buf.len() {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => {
                n += k;
                if buf[..n].windows(4).any(|w| w == b"\r\n\r\n")
                    || buf[..n].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..n]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    // Ignore any query string: probes sometimes append cache-busters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = obs::snapshot().to_prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/readyz" => match state.not_ready_reason() {
            None => respond(&mut stream, 200, "text/plain", "ready\n"),
            Some(reason) => respond(
                &mut stream,
                503,
                "text/plain",
                &format!("not ready: {reason}\n"),
            ),
        },
        "/varz" => respond(&mut stream, 200, "application/json", &state.varz_json()),
        "/trace" => respond(
            &mut stream,
            200,
            "application/json",
            &obs::trace::dump_json(),
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
