//! Media access accounting.
//!
//! Every argument in the paper reduces to counts of NVM media events on the
//! critical path: block reads (the OCF exists to remove them), line writes
//! and flushes (write optimization), and fences. [`NvmStats`] counts all of
//! them exactly; [`StatsSnapshot`] supports before/after diffing so tests
//! can assert statements like "a negative search with OCF performs zero NVM
//! block reads".
//!
//! Counting is per thread: every region keeps one cache line of counters
//! per thread slot, so a media access costs a few plain loads and stores
//! on a line no other thread writes, not a locked read-modify-write on a
//! line every thread writes. A thread takes a slot index the first time it
//! counts and gives it back when it exits; the index is the same in every
//! region. Threads beyond the sixteenth share one overflow line through
//! `fetch_add`. [`NvmStats::snapshot`] sums the lines.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Threads that count on a line of their own at any one time.
const OWNED_SHARDS: usize = 16;
/// The shard of threads that hold no index (and of a thread whose index
/// has already been given back during its exit).
const OVERFLOW: usize = OWNED_SHARDS;
/// A thread that has not asked for an index yet.
const UNASSIGNED: usize = usize::MAX;

/// Counter positions inside a shard, in [`StatsSnapshot`]'s field order.
const READS: usize = 0;
const WRITES: usize = 3;
const FLUSHES: usize = 6;
const FENCES: usize = 7;
const FIELDS: usize = 8;

/// Which owned indexes are taken (bit `i` set: index `i`).
static TAKEN: AtomicU64 = AtomicU64::new(0);
const _: () = assert!(OWNED_SHARDS <= 64, "one bit of TAKEN per owned shard");

thread_local! {
    /// This thread's shard index, or [`UNASSIGNED`].
    static INDEX: Cell<usize> = const { Cell::new(UNASSIGNED) };
    /// Gives the index back when the thread exits.
    static LEASE: Lease = const { Lease };
}

struct Lease;

impl Drop for Lease {
    fn drop(&mut self) {
        let i = INDEX.with(|c| c.replace(OVERFLOW));
        if i < OWNED_SHARDS {
            // Release: the next owner's counts start from this thread's.
            TAKEN.fetch_and(!(1 << i), Ordering::Release);
        }
    }
}

/// The calling thread's shard index, taken on first use.
#[inline]
fn shard_index() -> usize {
    match INDEX.with(Cell::get) {
        UNASSIGNED => take_index(),
        i => i,
    }
}

#[cold]
fn take_index() -> usize {
    let mut taken = TAKEN.load(Ordering::Relaxed);
    let i = loop {
        let free = (!taken).trailing_zeros() as usize;
        if free >= OWNED_SHARDS {
            break OVERFLOW;
        }
        // Acquire: this thread's counts start from the last owner's.
        match TAKEN.compare_exchange_weak(
            taken,
            taken | 1 << free,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => break free,
            Err(now) => taken = now,
        }
    };
    INDEX.with(|c| c.set(i));
    if i < OWNED_SHARDS && LEASE.try_with(|_| ()).is_err() {
        // The thread is already exiting and nothing would give the index
        // back: give it back now and count on the overflow shard.
        drop(Lease);
        return OVERFLOW;
    }
    i
}

/// One thread slot's counters, on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard([AtomicU64; FIELDS]);

/// Media counters for one region (or one region group), kept per thread
/// and read as a sum through [`snapshot`](Self::snapshot).
#[derive(Debug, Default)]
pub struct NvmStats {
    shards: [Shard; OWNED_SHARDS + 1],
}

/// A point-in-time copy of [`NvmStats`], with subtraction for deltas.
///
/// The fields mix two units, and asserting on the wrong one is a classic
/// footgun:
///
/// * **API events** (`reads`, `writes`, `fences`) count *calls into the
///   device* — one `read_record` is one read regardless of size.
/// * **Media events** (`read_blocks`, `write_lines`, `flushes`) count
///   *device work*: 256-byte read blocks (the paper's XPLine-granularity
///   read unit) and 64-byte written/flushed cachelines. One API read can
///   touch several blocks, and one API write several lines.
/// * `read_bytes` / `write_bytes` are plain byte totals.
///
/// The paper's efficiency arguments are all in media units; use the API
/// counts only to normalize (see [`per_op`](Self::per_op)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Read operations issued (API events, size-independent).
    pub reads: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Distinct 256-byte media blocks touched by reads (media events).
    pub read_blocks: u64,
    /// Write operations issued (API events, size-independent).
    pub writes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Distinct 64-byte cachelines touched by writes (media events).
    pub write_lines: u64,
    /// `clwb`-equivalent flushes issued, one per covered line (media
    /// events).
    pub flushes: u64,
    /// `sfence`-equivalent fences issued (API events).
    pub fences: u64,
}

/// A [`StatsSnapshot`] normalized to a per-operation view: every field
/// divided by an op count. Shared by benches and tests so nobody
/// hand-rolls the divisions (and the divide-by-zero guard) differently.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerOpStats {
    /// Read operations per op.
    pub reads: f64,
    /// Bytes read per op.
    pub read_bytes: f64,
    /// 256-byte media blocks read per op.
    pub read_blocks: f64,
    /// Write operations per op.
    pub writes: f64,
    /// Bytes written per op.
    pub write_bytes: f64,
    /// Cachelines written per op.
    pub write_lines: f64,
    /// Line flushes per op.
    pub flushes: f64,
    /// Fences per op.
    pub fences: f64,
}

impl NvmStats {
    /// Fresh zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `n[k]` to counter `first + k` in the calling thread's shard:
    /// a plain load and store on a shard the thread owns (nobody else
    /// writes it), a `fetch_add` on the shared overflow shard.
    #[inline]
    fn add<const N: usize>(&self, first: usize, n: [u64; N]) {
        let i = shard_index();
        let cells = &self.shards[i].0[first..first + N];
        for (c, n) in cells.iter().zip(n) {
            if i == OVERFLOW {
                c.fetch_add(n, Ordering::Relaxed);
            } else {
                c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
            }
        }
    }

    #[inline]
    pub(crate) fn on_read(&self, bytes: usize, blocks: usize) {
        self.add(READS, [1, bytes as u64, blocks as u64]);
    }

    #[inline]
    pub(crate) fn on_write(&self, bytes: usize, lines: usize) {
        self.add(WRITES, [1, bytes as u64, lines as u64]);
    }

    #[inline]
    pub(crate) fn on_flush(&self, lines: usize) {
        self.add(FLUSHES, [lines as u64]);
    }

    #[inline]
    pub(crate) fn on_fence(&self) {
        self.add(FENCES, [1]);
    }

    /// The counters summed over every shard. Exact for the accesses that
    /// happened before the call; one racing with it may or may not be in.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut sum = [0u64; FIELDS];
        for shard in &self.shards {
            for (acc, c) in sum.iter_mut().zip(&shard.0) {
                *acc = acc.wrapping_add(c.load(Ordering::Relaxed));
            }
        }
        let [reads, read_bytes, read_blocks, writes, write_bytes, write_lines, flushes, fences] =
            sum;
        StatsSnapshot {
            reads,
            read_bytes,
            read_blocks,
            writes,
            write_bytes,
            write_lines,
            flushes,
            fences,
        }
    }
}

impl StatsSnapshot {
    /// Element-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            read_blocks: self.read_blocks.saturating_sub(earlier.read_blocks),
            writes: self.writes.saturating_sub(earlier.writes),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_lines: self.write_lines.saturating_sub(earlier.write_lines),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            fences: self.fences.saturating_sub(earlier.fences),
        }
    }

    /// Normalizes every field by `ops` operations. Returns all zeros when
    /// `ops` is 0 (no NaNs in reports).
    pub fn per_op(&self, ops: u64) -> PerOpStats {
        if ops == 0 {
            return PerOpStats::default();
        }
        let d = ops as f64;
        PerOpStats {
            reads: self.reads as f64 / d,
            read_bytes: self.read_bytes as f64 / d,
            read_blocks: self.read_blocks as f64 / d,
            writes: self.writes as f64 / d,
            write_bytes: self.write_bytes as f64 / d,
            write_lines: self.write_lines as f64 / d,
            flushes: self.flushes as f64 / d,
            fences: self.fences as f64 / d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NvmStats::new();
        s.on_read(31, 1);
        s.on_read(256, 1);
        s.on_write(8, 1);
        s.on_flush(2);
        s.on_fence();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.read_bytes, 287);
        assert_eq!(snap.read_blocks, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.write_lines, 1);
        assert_eq!(snap.flushes, 2);
        assert_eq!(snap.fences, 1);
    }

    #[test]
    fn since_computes_delta() {
        let s = NvmStats::new();
        s.on_read(10, 1);
        let before = s.snapshot();
        s.on_read(20, 2);
        s.on_fence();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.read_bytes, 20);
        assert_eq!(delta.read_blocks, 2);
        assert_eq!(delta.fences, 1);
    }

    /// More threads than owned shards, three generations of them, each
    /// counting on two regions: every access is in the sum, whichever
    /// shard took it, and the indexes a generation gives back on exit are
    /// owned again by the next one.
    #[test]
    fn counts_are_exact_with_more_threads_than_shards() {
        const THREADS: usize = OWNED_SHARDS * 2 + 3;
        const PER_THREAD: u64 = 2_000;
        let (a, b) = (NvmStats::new(), NvmStats::new());
        let owned_reads = |s: &NvmStats| -> u64 {
            s.shards[..OWNED_SHARDS]
                .iter()
                .map(|sh| sh.0[READS].load(Ordering::Relaxed))
                .sum()
        };
        let mut owned_before = 0;
        for generation in 1..=3u64 {
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for i in 0..PER_THREAD {
                            a.on_read(31, 1);
                            a.on_fence();
                            b.on_write(8, 1);
                            b.on_flush(2);
                            if i == 0 {
                                // Every thread holds its index (or none)
                                // at once: some must overflow.
                                start.wait();
                            }
                        }
                    });
                }
            });
            let n = generation * THREADS as u64 * PER_THREAD;
            let (sa, sb) = (a.snapshot(), b.snapshot());
            assert_eq!(
                (sa.reads, sa.read_bytes, sa.read_blocks, sa.fences),
                (n, 31 * n, n, n)
            );
            assert_eq!(
                (sb.writes, sb.write_bytes, sb.write_lines, sb.flushes),
                (n, 8 * n, n, 2 * n)
            );
            assert_eq!((sa.writes, sb.reads), (0, 0));
            let owned = owned_reads(&a);
            assert!(
                owned > owned_before,
                "generation {generation} owned no shard"
            );
            assert!(owned < n, "generation {generation}: no thread overflowed");
            owned_before = owned;
        }
    }

    #[test]
    fn per_op_normalizes_and_guards_zero() {
        let snap = StatsSnapshot {
            reads: 10,
            read_bytes: 310,
            read_blocks: 20,
            writes: 5,
            write_bytes: 40,
            write_lines: 5,
            flushes: 5,
            fences: 5,
        };
        let per = snap.per_op(10);
        assert_eq!(per.reads, 1.0);
        assert_eq!(per.read_bytes, 31.0);
        assert_eq!(per.read_blocks, 2.0);
        assert_eq!(per.writes, 0.5);
        assert_eq!(per.fences, 0.5);
        assert_eq!(snap.per_op(0), PerOpStats::default());
    }
}
