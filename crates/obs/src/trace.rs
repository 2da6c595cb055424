//! Flight recorder: lock-free per-shard ring buffers of typed events.
//!
//! The metrics registry answers *how much* (counts, quantiles); the flight
//! recorder answers *when* and *in what order*. Every event is a fixed
//! 32-byte record — monotonic timestamp, kind, subject, payload — written
//! into one of [`SHARDS`](crate) ring buffers with a seqlock per slot, so
//! recording is wait-free for writers and a concurrent drain skips slots
//! caught mid-write. (Two threads striped onto the same shard that wrap
//! onto the same slot at the same instant can interleave; the drain's
//! kind-decode validation keeps undecodable garbage out of the timeline,
//! and the worst surviving artifact is one event carrying a sibling's
//! timestamp — acceptable for a diagnostic recorder.)
//!
//! **Overwrite semantics.** Each ring holds [`RING_CAP`] events and
//! overwrites the oldest on wrap; the recorder keeps the *most recent*
//! window of activity, never blocks, and never allocates on the record
//! path. A drain is non-destructive: `/trace` can be scraped repeatedly
//! and each scrape sees the current window.
//!
//! **Clock anchoring.** Events carry nanoseconds since a process-wide
//! epoch captured on first use ([`anchor_unix_ns`] gives the wall-clock
//! value of that epoch), so a merged timeline can be rendered in both
//! monotonic and wall time without ever calling the wall clock on the
//! record path.
//!
//! Event emission is gated on the registry's global enable flag
//! ([`crate::enabled`]): a disabled process pays one relaxed load per
//! site, exactly like counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::{NetCmd, OpKind, Phase, SHARDS};

/// Events kept per ring; total capacity is `SHARDS * RING_CAP`.
pub const RING_CAP: usize = 2048;

/// What happened. Each kind's `subject` field is interpreted per-kind
/// (a [`Phase`], an [`OpKind`], a [`NetCmd`], or a milestone code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A phase span began (`subject` = [`Phase`] index).
    PhaseEnter = 0,
    /// A phase span ended (`subject` = [`Phase`] index, `data` = span ns).
    PhaseExit,
    /// A table operation exceeded the slow-op threshold
    /// (`subject` = [`OpKind`] index, `data` = latency ns).
    SlowOp,
    /// A wire command exceeded the slow-command threshold
    /// (`subject` = [`NetCmd`] index, `data` = latency ns). The exemplar is
    /// argument-redacted by construction: only the command kind and its
    /// latency are recorded, never keys or values.
    SlowCmd,
    /// A record failed its checksum on read/scan/scrub.
    CorruptionDetected,
    /// A corrupted record was repaired from its DRAM copy.
    CorruptionRepaired,
    /// A corrupted record was quarantined (no clean copy).
    CorruptionQuarantined,
    /// A client connection was accepted.
    ConnAccepted,
    /// A client connection was rejected (budget exhausted).
    ConnRejected,
    /// Graceful drain began (SHUTDOWN command or signal).
    DrainBegin,
    /// A sticky pool i/o fault was first observed on the ack path.
    IoFault,
    /// A named milestone (`subject` = [`Milestone`] code).
    Milestone,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 12] = [
        EventKind::PhaseEnter,
        EventKind::PhaseExit,
        EventKind::SlowOp,
        EventKind::SlowCmd,
        EventKind::CorruptionDetected,
        EventKind::CorruptionRepaired,
        EventKind::CorruptionQuarantined,
        EventKind::ConnAccepted,
        EventKind::ConnRejected,
        EventKind::DrainBegin,
        EventKind::IoFault,
        EventKind::Milestone,
    ];

    /// Stable snake_case name used in the `/trace` dump.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseEnter => "phase_enter",
            EventKind::PhaseExit => "phase_exit",
            EventKind::SlowOp => "slow_op",
            EventKind::SlowCmd => "slow_cmd",
            EventKind::CorruptionDetected => "corruption_detected",
            EventKind::CorruptionRepaired => "corruption_repaired",
            EventKind::CorruptionQuarantined => "corruption_quarantined",
            EventKind::ConnAccepted => "conn_accepted",
            EventKind::ConnRejected => "conn_rejected",
            EventKind::DrainBegin => "drain_begin",
            EventKind::IoFault => "io_fault",
            EventKind::Milestone => "milestone",
        }
    }

    fn from_u32(v: u32) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// Milestone codes for [`EventKind::Milestone`] events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum Milestone {
    /// A pool was opened dirty and recovery is about to run.
    RecoveryStart = 0,
    /// Recovery finished and the table is serving.
    RecoveryDone,
    /// A pool was closed cleanly.
    PoolClosed,
    /// The serving process finished startup (table ready).
    Ready,
    /// A crash-consistent snapshot began (writers about to pause).
    SnapshotStart,
    /// A snapshot completed and its manifest is on disk.
    SnapshotDone,
    /// A snapshot attempt failed and the target directory is suspect.
    SnapshotFailed,
    /// A value-log compaction pass began.
    VlogGcStart,
    /// A value-log compaction pass finished (live data relocated, victim
    /// segments retired).
    VlogGcDone,
}

impl Milestone {
    /// Stable name used in the `/trace` dump.
    pub fn name(self) -> &'static str {
        match self {
            Milestone::RecoveryStart => "recovery_start",
            Milestone::RecoveryDone => "recovery_done",
            Milestone::PoolClosed => "pool_closed",
            Milestone::Ready => "ready",
            Milestone::SnapshotStart => "snapshot_start",
            Milestone::SnapshotDone => "snapshot_done",
            Milestone::SnapshotFailed => "snapshot_failed",
            Milestone::VlogGcStart => "vlog_gc_start",
            Milestone::VlogGcDone => "vlog_gc_done",
        }
    }

    fn from_u64(v: u64) -> Option<Milestone> {
        [
            Milestone::RecoveryStart,
            Milestone::RecoveryDone,
            Milestone::PoolClosed,
            Milestone::Ready,
            Milestone::SnapshotStart,
            Milestone::SnapshotDone,
            Milestone::SnapshotFailed,
            Milestone::VlogGcStart,
            Milestone::VlogGcDone,
        ]
        .get(v as usize)
        .copied()
    }
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// One ring slot: a per-slot seqlock (`seq`) guarding three payload words.
/// `seq == 0` means never written; an odd `seq` means a write is in
/// flight; an even nonzero `seq` commits the payload stored before it.
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind_subject: AtomicU64,
    data: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind_subject: AtomicU64::new(0),
            data: AtomicU64::new(0),
        }
    }
}

struct Ring {
    head: AtomicU64,
    slots: [Slot; RING_CAP],
}

impl Ring {
    const fn new() -> Self {
        Ring {
            head: AtomicU64::new(0),
            slots: [const { Slot::new() }; RING_CAP],
        }
    }
}

static RINGS: [Ring; SHARDS] = [const { Ring::new() }; SHARDS];

/// (monotonic epoch, wall-clock nanoseconds of that epoch).
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Nanoseconds since the recorder's monotonic epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Wall-clock (unix) nanoseconds of the recorder's monotonic epoch — add
/// an event's `t_ns` to get its wall time.
pub fn anchor_unix_ns() -> u64 {
    epoch().1
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Records one event (no-op while the registry is disabled).
#[inline]
pub fn emit(kind: EventKind, subject: u32, data: u64) {
    if !crate::enabled() {
        return;
    }
    emit_slow(kind, subject, data);
}

#[cold]
fn emit_slow(kind: EventKind, subject: u32, data: u64) {
    let t = now_ns();
    let ring = &RINGS[crate::shard()];
    let idx = ring.head.fetch_add(1, Ordering::Relaxed);
    let slot = &ring.slots[(idx % RING_CAP as u64) as usize];
    // Per-slot seqlock: odd while a (sole) writer is mid-flight, even once
    // committed. Readers validating seq-before == seq-after reject slots
    // a writer is touching; see the module doc for the same-slot
    // writer/writer race disclaimer.
    let s0 = slot.seq.fetch_add(1, Ordering::AcqRel);
    slot.t_ns.store(t, Ordering::Relaxed);
    slot.kind_subject
        .store(((kind as u64) << 32) | subject as u64, Ordering::Relaxed);
    slot.data.store(data, Ordering::Relaxed);
    slot.seq.store(s0.wrapping_add(2) & !1, Ordering::Release);
}

/// Convenience: records a milestone event.
pub fn milestone(m: Milestone) {
    emit(EventKind::Milestone, 0, m as u64);
}

// ---------------------------------------------------------------------------
// Slow-op threshold
// ---------------------------------------------------------------------------

static SLOW_NS: AtomicU64 = AtomicU64::new(0);

/// Table operations and wire commands slower than `ns` are recorded as
/// [`EventKind::SlowOp`] / [`EventKind::SlowCmd`] events, and slow
/// commands are counted in the slowlog family; 0 disables (the default).
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// Current slow-op threshold (0 = disabled).
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn note_op_latency(op: OpKind, ns: u64) {
    let thr = slow_threshold_ns();
    if thr != 0 && ns >= thr {
        emit(EventKind::SlowOp, op as u32, ns);
    }
}

#[inline]
pub(crate) fn note_cmd_latency(cmd: NetCmd, ns: u64) -> bool {
    let thr = slow_threshold_ns();
    if thr != 0 && ns >= thr {
        emit(EventKind::SlowCmd, cmd as u32, ns);
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

/// One drained event, timestamp-anchored and decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder epoch (see [`anchor_unix_ns`]).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific subject index ([`Phase`]/[`OpKind`]/[`NetCmd`]).
    pub subject: u32,
    /// Kind-specific payload (latency/duration ns, milestone code).
    pub data: u64,
}

impl Event {
    /// Human-readable subject ("resize_rehash", "get", "recovery_start",
    /// …), resolved per kind; empty for kinds without a subject.
    pub fn subject_name(&self) -> &'static str {
        match self.kind {
            EventKind::PhaseEnter | EventKind::PhaseExit => Phase::ALL
                .get(self.subject as usize)
                .map(|p| p.name())
                .unwrap_or(""),
            EventKind::SlowOp => OpKind::ALL
                .get(self.subject as usize)
                .map(|o| o.name())
                .unwrap_or(""),
            EventKind::SlowCmd => NetCmd::ALL
                .get(self.subject as usize)
                .map(|c| c.name())
                .unwrap_or(""),
            EventKind::Milestone => Milestone::from_u64(self.data)
                .map(|m| m.name())
                .unwrap_or(""),
            _ => "",
        }
    }
}

/// Non-destructively drains every ring into one merged timeline, sorted by
/// monotonic timestamp. Slots caught mid-write are skipped.
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for ring in &RINGS {
        // `head` counts writes ever started on this ring; only the first
        // min(head, CAP) slots have ever been written.
        let filled = (ring.head.load(Ordering::Acquire) as usize).min(RING_CAP);
        for slot in ring.slots.iter().take(filled) {
            // Seqlock read: accept only slots whose (even) seq is stable
            // across the payload loads.
            for _attempt in 0..2 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 & 1 == 1 {
                    break; // never written, or a write is in flight
                }
                let t_ns = slot.t_ns.load(Ordering::Relaxed);
                let ks = slot.kind_subject.load(Ordering::Relaxed);
                let data = slot.data.load(Ordering::Relaxed);
                std::sync::atomic::fence(Ordering::Acquire);
                let s2 = slot.seq.load(Ordering::Relaxed);
                if s1 != s2 {
                    continue; // raced a writer; one retry, then skip
                }
                if let Some(kind) = EventKind::from_u32((ks >> 32) as u32) {
                    out.push(Event {
                        t_ns,
                        kind,
                        subject: ks as u32,
                        data,
                    });
                }
                break;
            }
        }
    }
    out.sort_by_key(|e| e.t_ns);
    out
}

/// Zeroes every ring (test isolation; production rings just overwrite).
pub fn reset() {
    for ring in &RINGS {
        ring.head.store(0, Ordering::Relaxed);
        for slot in &ring.slots {
            slot.seq.store(0, Ordering::Relaxed);
        }
    }
}

/// Renders the merged timeline as one JSON document:
/// `{"anchor_unix_ns":…, "slow_threshold_ns":…, "events":[…]}` with
/// events carrying monotonic (`t_us`) and wall (`wall_ms`) timestamps.
pub fn dump_json() -> String {
    let anchor = anchor_unix_ns();
    crate::json::object(|w| {
        w.key("anchor_unix_ns").u64(anchor).key("slow_threshold_ns").u64(slow_threshold_ns());
        w.key("events").array(|w| {
            for e in drain() {
                w.object(|w| {
                    w.key("t_us").u64(e.t_ns / 1_000);
                    w.key("wall_ms").u64((anchor + e.t_ns) / 1_000_000);
                    w.key("kind").str(e.kind.name()).key("what").str(e.subject_name());
                    w.key("data").u64(e.data);
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // The rings are process-global and share the registry's enable flag,
    // so these tests take the registry tests' lock, not one of their own.
    use crate::exclusive;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = exclusive();
        reset();
        crate::set_enabled(false);
        emit(EventKind::DrainBegin, 0, 0);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_merge_in_time_order() {
        let _g = exclusive();
        reset();
        crate::set_enabled(true);
        emit(EventKind::PhaseEnter, Phase::ResizeRehash as u32, 0);
        emit(EventKind::PhaseExit, Phase::ResizeRehash as u32, 1234);
        milestone(Milestone::Ready);
        let events = drain();
        crate::set_enabled(false);
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(events[0].kind, EventKind::PhaseEnter);
        assert_eq!(events[0].subject_name(), "resize_rehash");
        assert_eq!(events[1].data, 1234);
        assert_eq!(events[2].subject_name(), "ready");
        reset();
    }

    #[test]
    fn ring_overwrites_oldest_on_wrap() {
        let _g = exclusive();
        reset();
        crate::set_enabled(true);
        // All events land on this thread's single ring; overfill it.
        for i in 0..(RING_CAP as u64 + 100) {
            emit(EventKind::ConnAccepted, 0, i);
        }
        let events = drain();
        crate::set_enabled(false);
        assert_eq!(events.len(), RING_CAP);
        // The oldest 100 payloads were overwritten.
        let min_data = events.iter().map(|e| e.data).min().unwrap();
        assert!(min_data >= 100, "oldest events should be gone, min={min_data}");
        reset();
    }

    #[test]
    fn slow_thresholds_gate_emission() {
        let _g = exclusive();
        reset();
        crate::set_enabled(true);
        set_slow_threshold_ns(1_000);
        note_op_latency(OpKind::Get, 999);
        note_op_latency(OpKind::Get, 1_000);
        assert!(!note_cmd_latency(NetCmd::Set, 10));
        assert!(note_cmd_latency(NetCmd::Set, 5_000));
        set_slow_threshold_ns(0);
        note_op_latency(OpKind::Get, u64::MAX); // disabled: no event
        let events = drain();
        crate::set_enabled(false);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SlowOp);
        assert_eq!(events[0].data, 1_000);
        assert_eq!(events[1].kind, EventKind::SlowCmd);
        assert_eq!(events[1].subject_name(), "set");
        reset();
    }

    #[test]
    fn dump_json_is_balanced_and_anchored() {
        let _g = exclusive();
        reset();
        crate::set_enabled(true);
        emit(EventKind::DrainBegin, 0, 0);
        let j = dump_json();
        crate::set_enabled(false);
        assert!(j.starts_with("{\"anchor_unix_ns\":"));
        assert!(j.contains("\"kind\":\"drain_begin\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        reset();
    }

    #[test]
    fn concurrent_emit_and_drain_never_tear() {
        let _g = exclusive();
        reset();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        // data encodes (kind check value) so a torn read
                        // would show as an impossible combination below.
                        emit(EventKind::ConnAccepted, t, i);
                    }
                });
            }
            for _ in 0..4 {
                let events = drain();
                for e in &events {
                    assert_eq!(e.kind, EventKind::ConnAccepted);
                    assert!(e.subject < 4);
                    assert!(e.data < 20_000);
                }
            }
        });
        crate::set_enabled(false);
        reset();
    }
}
