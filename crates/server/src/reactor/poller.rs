//! Readiness polling behind one small interface: `epoll(7)`, with an
//! `eventfd` waker.
//!
//! The crate has no FFI dependency, so the syscalls are declared by hand
//! (same precedent as the `mmap` bindings in `hdnh-nvm` and the `signal`
//! binding in [`crate::server`]). The surface is deliberately the minimum
//! the reactor needs: register/reregister/deregister a file descriptor
//! under a `u64` token with a readable/writable interest set, block in
//! `wait` until readiness or a deadline, and a [`Waker`] another thread
//! can poke to interrupt the wait.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// Interest bit: wake when the fd is readable (or the peer hung up).
pub const READABLE: u32 = 0b01;
/// Interest bit: wake when the fd is writable.
pub const WRITABLE: u32 = 0b10;

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable now (includes EOF/peer-hangup: a read will not block).
    /// Write readiness is not reported separately: the loop always
    /// attempts to flush pending output after handling an event.
    pub readable: bool,
    /// Error or hangup condition: the socket is dead and must be closed
    /// (leaving it registered would spin a level-triggered poller).
    pub error: bool,
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Ceil a duration to whole milliseconds for the kernel timeout argument
/// (rounding down would wake before the deadline and spin).
fn timeout_ms(t: Option<Duration>) -> i32 {
    match t {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

// The kernel ABI packs the struct on x86_64 only.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// epoll-backed readiness poller (one instance per event loop).
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

// The poller is constructed on the spawning thread and moved into its
// event-loop thread; it is never shared.
unsafe impl Send for Poller {}

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn interest_bits(interest: u32) -> u32 {
        let mut ev = EPOLLRDHUP; // always learn about peer half-close
        if interest & READABLE != 0 {
            ev |= EPOLLIN;
        }
        if interest & WRITABLE != 0 {
            ev |= EPOLLOUT;
        }
        ev
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: Self::interest_bits(interest),
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
        if unsafe { epoll_ctl(self.epfd, op, fd, arg) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Adds `fd` under `token` with the given interest set.
    pub fn register(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the set (`close` alone would not while a
    /// duplicate of the descriptor is still open).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness, the timeout, or a wake; appends the
    /// ready events to `events`.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // signal: surface an empty batch
            }
            return Err(e);
        }
        for i in 0..n as usize {
            // Copy out of the (possibly packed) ABI struct by value.
            let raw = self.buf[i];
            let bits = { raw.events };
            let token = { raw.data };
            events.push(Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wake handle: an `eventfd` registered in the poller.
pub struct Waker {
    efd: RawFd,
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates the eventfd and registers it under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if efd < 0 {
            return Err(last_os_error());
        }
        let w = Waker { efd };
        poller.register(w.efd, token, READABLE)?;
        Ok(w)
    }

    /// Interrupts the owning loop's `wait` (idempotent, never blocks).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.efd, (&one as *const u64).cast(), 8) };
    }

    /// Clears the pending wake count (called by the owning loop).
    pub fn drain(&self) {
        let mut buf = 0u64;
        unsafe { read(self.efd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.efd) };
    }
}
