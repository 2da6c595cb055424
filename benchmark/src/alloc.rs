//! Counting global allocator, resident-set readings, and CPU pinning:
//! what the benchmark needs from the operating system.
//!
//! The allocator counts `alloc`, `alloc_zeroed` and `realloc` calls and
//! the bytes they request, but only while the harness has the switch on —
//! it flips it on around HDNH work and off around everything else, so
//! generator, verifier and reference-kernel allocations never enter
//! `allocs_per_op`. The switch is process-wide (not per thread) because
//! on `net-mixed` the allocations happen on the reactor thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain relaxed atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off.
pub fn counting(on: bool) {
    ON.store(on, Relaxed);
}

/// `(calls, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

/// One `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
/// Returns 0 where the file or the field does not exist.
pub fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Restricts this thread, and every thread it later spawns, to one CPU:
/// the highest-numbered one it may run on (CPU 0 takes most interrupts).
/// Returns that CPU, or `None` where the call does not exist or fails.
///
/// Why: on a shared virtual machine a blocked thread's CPU goes idle, and
/// waking an idle virtual CPU costs anywhere from a few to a hundred
/// microseconds depending on what the host is doing — measured here as a
/// 3.5x swing in loopback throughput between two sets of runs of the same
/// binary. With client, reactor loop and echo thread on one CPU, a thread
/// that blocks hands the CPU straight to the one it is waiting for; the
/// benchmark then measures the CPU work of a request, not the host's
/// wake-up latency.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // cpu_set_t: 1024 bits.
        const WORDS: usize = 16;
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let bit = 63 - allowed[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
