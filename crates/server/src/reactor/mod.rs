//! Event-driven connection runtime: N readiness-driven event loops over
//! non-blocking sockets.
//!
//! This replaces the thread-per-connection serve loop. Connection count
//! is no longer bounded by threads: each of `cfg.threads()` event loops
//! multiplexes thousands of sockets through one `epoll` instance
//! (`poller`), and an idle connection
//! costs one registered fd and a small heap entry — no thread, no stack,
//! and *no scheduled wakeups* (the old loop woke every connection 10×/s
//! to re-check timeouts; the reactor sleeps until a socket is ready or
//! the earliest deadline in a `timer::TimerHeap` is due, and
//! `hdnh_net_spurious_wakeups_total` proves it).
//!
//! **Division of labor.** Loop 0 owns the listener: one sharded acceptor
//! feeds all loops round-robin through per-loop handoff inboxes and
//! wakers, replacing the kernel accept-queue load balancing the worker
//! pool relied on (see DESIGN.md §16 for why this beats `SO_REUSEPORT`
//! here). [`Conn`] owns all protocol state and deadlines and never
//! touches a socket. The [`Engine`] supplies policy: command execution,
//! admission control, and drain notification. The loop only moves bytes
//! between the two and keeps the poller's interest sets in sync with
//! what each connection wants.
//!
//! **Backpressure as interest sets.** A connection that hits its
//! [`MAX_INFLIGHT`] reply budget stops wanting reads; the loop parks its
//! EPOLLIN interest until the output buffer drains, so TCP flow control
//! throttles the client with zero server-side buffer growth.
//!
//! **Drain.** A `SHUTDOWN` frame (surfaced by [`EngineAction::Shutdown`])
//! or [`ReactorHandle::shutdown`] flips one shared flag and wakes every
//! loop: the acceptor closes, every connection enters the drain protocol
//! ([`Conn::begin_drain`] — every received frame answered, close at the
//! first silence), and each loop exits once its last connection closes.

mod conn;
mod poller;
mod timer;

pub use conn::{Conn, DRAIN_GRACE, DRAIN_SILENCE, MAX_INFLIGHT, READ_TIMEOUT, WRITE_TIMEOUT};

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hdnh_obs as obs;

use crate::config::ServerConfig;
use crate::resp::{enc_error, Decoder, Frame};
use poller::{Poller, Waker, READABLE, WRITABLE};
use timer::TimerHeap;

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// What the engine wants the runtime to do after executing one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineAction {
    /// Keep serving.
    Continue,
    /// Begin a process-wide graceful drain (the `SHUTDOWN` command).
    Shutdown,
}

/// Command executor + connection policy plugged into the reactor.
///
/// The RESP server implements this; tests drive [`Conn`] with throwaway
/// engines. All methods are called from event-loop threads, potentially
/// concurrently — implementations share state through atomics or locks.
pub trait Engine: Send + Sync {
    /// Executes one decoded frame, appending exactly one reply to `out`.
    fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction;

    /// Admission control: claim a connection slot. A `false` return sends
    /// the [`Engine::reject`] reply and closes without creating a
    /// [`Conn`].
    fn try_admit(&self) -> bool {
        true
    }

    /// The reply written to a connection denied by [`Engine::try_admit`].
    fn reject(&self, out: &mut Vec<u8>) {
        enc_error(out, "ERR", "max connections reached");
    }

    /// A previously admitted connection closed (release its slot).
    fn on_conn_closed(&self) {}

    /// A process-wide drain just began (called exactly once).
    fn on_drain_begin(&self) {}
}

/// Per-loop handoff state reachable from other threads.
struct LoopShared {
    waker: Waker,
    /// Connections accepted by loop 0, awaiting registration here.
    inbox: Mutex<VecDeque<TcpStream>>,
}

/// State shared by every loop and the handle.
struct Control {
    shutdown: AtomicBool,
    loops: Vec<LoopShared>,
    addr: SocketAddr,
}

/// Flips the shared shutdown flag (first caller wins), fires the
/// engine's drain hook, and wakes every loop.
fn begin_shutdown(control: &Control, engine: &dyn Engine) {
    if control.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    engine.on_drain_begin();
    for l in &control.loops {
        l.waker.wake();
    }
}

/// Handle to a running reactor: address, shutdown trigger, join.
pub struct ReactorHandle {
    control: Arc<Control>,
    engine: Arc<dyn Engine>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.control.addr
    }

    /// Whether a drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.control.shutdown.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: no new connections; live connections
    /// finish their received frames and close.
    pub fn shutdown(&self) {
        begin_shutdown(&self.control, &*self.engine);
    }

    /// Waits for every event loop to exit (drain complete).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds the event loops over an already-bound listener and starts one
/// thread per loop. `engine` supplies execution and admission policy.
pub fn spawn(
    listener: TcpListener,
    cfg: ServerConfig,
    engine: Arc<dyn Engine>,
) -> io::Result<ReactorHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let nloops = cfg.threads();

    // Pollers and wakers are created up front so the control block (which
    // other threads use to wake loops) is complete before any loop runs.
    let mut pollers = Vec::with_capacity(nloops);
    let mut shared = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        pollers.push(poller);
        shared.push(LoopShared {
            waker,
            inbox: Mutex::new(VecDeque::new()),
        });
    }
    let control = Arc::new(Control {
        shutdown: AtomicBool::new(false),
        loops: shared,
        addr,
    });

    let mut threads = Vec::with_capacity(nloops);
    let mut listener = Some(listener);
    for (idx, poller) in pollers.into_iter().enumerate() {
        let mut el = EventLoop {
            idx,
            nloops,
            poller,
            control: Arc::clone(&control),
            engine: Arc::clone(&engine),
            cfg: cfg.clone(),
            listener: if idx == 0 { listener.take() } else { None },
            conns: Vec::new(),
            free: Vec::new(),
            timers: TimerHeap::new(),
            next_gen: 0,
            live: 0,
            rr: 0,
            draining_applied: false,
        };
        if let Some(l) = &el.listener {
            el.poller.register(l.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        }
        threads.push(
            std::thread::Builder::new()
                .name(format!("hdnh-net-{idx}"))
                .spawn(move || el.run())?,
        );
    }
    Ok(ReactorHandle {
        control,
        engine,
        threads,
    })
}

/// One registered connection: the socket, its protocol state, and the
/// loop-side bookkeeping (current interest set, slot generation, the
/// earliest deadline already in the timer heap).
struct ConnEntry {
    stream: TcpStream,
    conn: Conn,
    interest: u32,
    gen: u64,
    scheduled: Option<Instant>,
}

struct EventLoop {
    idx: usize,
    nloops: usize,
    poller: Poller,
    control: Arc<Control>,
    engine: Arc<dyn Engine>,
    cfg: ServerConfig,
    /// Loop 0 only; dropped (closing the socket) when the drain begins.
    listener: Option<TcpListener>,
    conns: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    timers: TimerHeap,
    next_gen: u64,
    live: usize,
    /// Round-robin placement cursor (loop 0 / acceptor only).
    rr: usize,
    draining_applied: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::with_capacity(1024);
        let mut rdbuf = vec![0u8; 16 * 1024];
        loop {
            let timeout = self
                .timers
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing wait would spin; treat it as fatal for the loop.
                return;
            }
            let now = Instant::now();

            let mut accept_ready = false;
            let mut woken = false;
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.control.loops[self.idx].waker.drain();
                        woken = true;
                    }
                    TOKEN_LISTENER => accept_ready = true,
                    t => {
                        let slot = (t - TOKEN_CONN_BASE) as usize;
                        if ev.error {
                            // EPOLLERR/EPOLLHUP: the socket is dead (RST or
                            // full close); a level-triggered poller would
                            // spin on it if left registered.
                            self.close_conn(slot);
                        } else {
                            self.handle_conn_io(slot, ev.readable, now, &mut rdbuf);
                        }
                    }
                }
            }

            // Deadlines. A popped entry may be stale (slot reused, or the
            // deadline moved later); `on_tick` is harmless early and
            // `post_io` re-schedules whatever deadline now applies.
            let mut due = 0usize;
            while let Some((slot, gen)) = self.timers.pop_due(now) {
                due += 1;
                let live = matches!(
                    self.conns.get(slot),
                    Some(Some(e)) if e.gen == gen
                );
                if live {
                    let entry = self.conns[slot].as_mut().unwrap();
                    entry.scheduled = None;
                    entry.conn.on_tick(now);
                    self.post_io(slot, now);
                }
            }

            if self.control.shutdown.load(Ordering::SeqCst) && !self.draining_applied {
                self.apply_drain(now);
            }

            if accept_ready && !self.draining_applied {
                self.accept_all(now);
            }

            // Register connections handed over by the acceptor.
            loop {
                let next = self.control.loops[self.idx].inbox.lock().unwrap().pop_front();
                match next {
                    Some(stream) => self.register_conn(stream, now),
                    None => break,
                }
            }

            // A wakeup that moved no bytes, fired no deadline, and was not
            // an explicit wake is spurious — the counter the idle-
            // connections test (and the C10K claim) is built on.
            if events.is_empty() && due == 0 && !woken {
                obs::count(obs::Counter::NetSpuriousWakeup);
            }

            if self.draining_applied && self.live == 0 {
                let inbox_empty = self.control.loops[self.idx].inbox.lock().unwrap().is_empty();
                if inbox_empty {
                    return;
                }
            }
        }
    }

    /// Accepts until the listener would block, admitting or rejecting via
    /// the engine and placing admitted sockets round-robin across loops.
    fn accept_all(&mut self, now: Instant) {
        // Taken out of `self` for the duration so `register_conn` can
        // borrow `self` mutably; restored before returning.
        let Some(listener) = self.listener.take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.control.shutdown.load(Ordering::SeqCst) {
                        drop(stream); // drain raced the accept queue
                        continue;
                    }
                    if !self.engine.try_admit() {
                        let mut out = Vec::new();
                        self.engine.reject(&mut out);
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(true);
                        // Best-effort single write: the reply is tiny and
                        // the socket buffer is empty, so this only fails
                        // if the peer is already gone.
                        let _ = stream.write(&out);
                        continue;
                    }
                    let target = self.rr % self.nloops;
                    self.rr += 1;
                    if target == self.idx {
                        self.register_conn(stream, now);
                    } else {
                        let l = &self.control.loops[target];
                        l.inbox.lock().unwrap().push_back(stream);
                        l.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.listener = Some(listener);
    }

    /// Registers one admitted connection in this loop.
    fn register_conn(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.engine.on_conn_closed(); // release the admitted slot
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        self.next_gen += 1;
        let gen = self.next_gen;
        let token = TOKEN_CONN_BASE + slot as u64;
        if self.poller.register(stream.as_raw_fd(), token, READABLE).is_err() {
            self.free.push(slot);
            self.engine.on_conn_closed();
            return;
        }
        let mut conn = Conn::new(&self.cfg, now);
        if self.control.shutdown.load(Ordering::SeqCst) {
            conn.begin_drain(now);
        }
        self.conns[slot] = Some(ConnEntry {
            stream,
            conn,
            interest: READABLE,
            gen,
            scheduled: None,
        });
        self.live += 1;
        self.post_io(slot, now);
    }

    /// Moves bytes for one ready connection: reads while the connection
    /// wants them and the socket fills the buffer, then greedy writes of
    /// whatever output is pending (opportunistic — replies usually leave
    /// in the same iteration that produced them, no extra EPOLLOUT
    /// round-trip).
    fn handle_conn_io(&mut self, slot: usize, readable: bool, now: Instant, rdbuf: &mut [u8]) {
        let Some(Some(entry)) = self.conns.get_mut(slot) else {
            return; // closed earlier in this batch
        };
        let engine = &*self.engine;
        let mut failed = false;
        if readable {
            while entry.conn.wants_read() {
                obs::count(obs::Counter::NetReadCalls);
                match entry.stream.read(rdbuf) {
                    Ok(0) => {
                        entry.conn.on_eof();
                        break;
                    }
                    Ok(n) => {
                        obs::add(obs::Counter::NetBytesIn, n as u64);
                        entry.conn.on_bytes(&rdbuf[..n], engine, now);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close_conn(slot);
            return;
        }
        if self.write_pending(slot, now) {
            self.post_io(slot, now);
        }
    }

    /// Writes pending output until the socket would block. Returns false
    /// when the connection was closed on a write failure.
    fn write_pending(&mut self, slot: usize, now: Instant) -> bool {
        let Some(Some(entry)) = self.conns.get_mut(slot) else {
            return false;
        };
        let engine = &*self.engine;
        while entry.conn.wants_write() {
            obs::count(obs::Counter::NetWriteCalls);
            match entry.stream.write(entry.conn.output()) {
                Ok(0) => break,
                Ok(n) => {
                    obs::add(obs::Counter::NetBytesOut, n as u64);
                    entry.conn.on_write_progress(n, engine, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        }
        true
    }

    /// After any state change: close if finished, propagate a `SHUTDOWN`
    /// request, sync the poller interest set, re-arm the deadline.
    fn post_io(&mut self, slot: usize, _now: Instant) {
        let Some(Some(entry)) = self.conns.get_mut(slot) else {
            return;
        };
        if entry.conn.done() {
            self.close_conn(slot);
            return;
        }
        if entry.conn.take_shutdown_request() {
            begin_shutdown(&self.control, &*self.engine);
            // The drain is applied to this loop's connections later in
            // this same iteration (see `run`).
        }
        let Some(Some(entry)) = self.conns.get_mut(slot) else {
            return;
        };
        let mut desired = 0u32;
        if entry.conn.wants_read() {
            desired |= READABLE;
        }
        if entry.conn.wants_write() {
            desired |= WRITABLE;
        }
        if desired != entry.interest {
            let token = TOKEN_CONN_BASE + slot as u64;
            if self
                .poller
                .reregister(entry.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                self.close_conn(slot);
                return;
            }
            entry.interest = desired;
        }
        if let Some(d) = entry.conn.next_deadline() {
            if entry.scheduled.is_none_or(|s| d < s) {
                self.timers.schedule(d, slot, entry.gen);
                entry.scheduled = Some(d);
            }
        }
    }

    /// Unregisters and drops one connection, releasing its slot.
    fn close_conn(&mut self, slot: usize) {
        if let Some(entry) = self.conns[slot].take() {
            let _ = self.poller.deregister(entry.stream.as_raw_fd());
            drop(entry.stream);
            self.free.push(slot);
            self.live -= 1;
            self.engine.on_conn_closed();
        }
    }

    /// Applies a just-begun process drain to this loop: stop accepting
    /// (loop 0 closes the listener) and start every connection's drain
    /// protocol.
    fn apply_drain(&mut self, now: Instant) {
        self.draining_applied = true;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        for slot in 0..self.conns.len() {
            if let Some(Some(entry)) = self.conns.get_mut(slot) {
                entry.conn.begin_drain(now);
                self.post_io(slot, now);
            }
        }
    }
}
