//! Media access accounting.
//!
//! Every argument in the paper reduces to counts of NVM media events on the
//! critical path: block reads (the OCF exists to remove them), line writes
//! and flushes (write optimization), and fences. [`NvmStats`] counts all of
//! them with relaxed atomics; [`StatsSnapshot`] supports before/after
//! diffing so tests can assert statements like "a negative search with OCF
//! performs zero NVM block reads".

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters for one region (or one region group).
#[derive(Debug, Default)]
pub struct NvmStats {
    /// Read operations issued.
    pub reads: AtomicU64,
    /// Bytes read.
    pub read_bytes: AtomicU64,
    /// Distinct 256-byte media blocks touched by reads.
    pub read_blocks: AtomicU64,
    /// Write operations issued.
    pub writes: AtomicU64,
    /// Bytes written.
    pub write_bytes: AtomicU64,
    /// Distinct cachelines touched by writes.
    pub write_lines: AtomicU64,
    /// `clwb`-equivalent flushes issued (one per covered line).
    pub flushes: AtomicU64,
    /// `sfence`-equivalent fences issued.
    pub fences: AtomicU64,
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

    #[inline]
    pub(crate) fn on_read(&self, bytes: usize, blocks: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.read_blocks.fetch_add(blocks as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_write(&self, bytes: usize, lines: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.write_lines.fetch_add(lines as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_flush(&self, lines: usize) {
        self.flushes.fetch_add(lines as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn on_fence(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            read_blocks: self.read_blocks.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            write_lines: self.write_lines.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
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
