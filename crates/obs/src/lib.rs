//! Process-wide observability registry for the HDNH stack.
//!
//! Every claim in the paper is an observability claim — the OCF exists to
//! drive NVM block reads per probe toward zero, RAFL exists to keep the
//! hot-table hit rate high, and the optimistic seqlock read is only
//! "read-efficient" if retries stay negligible. This crate makes those
//! quantities observable at runtime with three primitive kinds:
//!
//! * **[`Counter`]s** — monotonic event counts (OCF outcomes, hot-table
//!   hits, seqlock retries, …), sharded across a small fixed set of slots
//!   indexed by a per-thread id so concurrent increments do not contend on
//!   one cacheline.
//! * **Per-op latency histograms** — one sharded
//!   [`AtomicHistogram`](hist::AtomicHistogram) per [`OpKind`], log-linear
//!   (HdrHistogram-style) with p50/p90/p99/p999 + exact max.
//! * **[`Phase`] spans** — duration + item counts for rare long-running
//!   phases (the three resize phases, recovery, verification).
//!
//! The registry is process-global and **disabled by default**. Every
//! instrumentation site is gated on one relaxed atomic load (the same
//! pattern as the crash-point registry in `hdnh-nvm`'s `fault` module), so
//! a build that never calls [`set_enabled`] pays one predictable branch per
//! site and nothing else. [`snapshot`] merges all shards into a
//! [`MetricsSnapshot`] that can be diffed ([`MetricsSnapshot::since`]) and
//! rendered as Prometheus text or JSON.
//!
//! Because the registry is global, tests that assert exact counts must
//! serialize against other threads recording metrics (see
//! `tests/metrics_accounting.rs` in the workspace root).

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod trace;

mod expo;

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use hist::{AtomicHistogram, HistSnapshot};

/// Number of counter/histogram shards. Threads are striped across shards
/// by a monotonically assigned id; 8 shards is plenty for the thread
/// counts the benches use while keeping snapshot merges cheap.
const SHARDS: usize = 8;

// ---------------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------------

/// Monotonic event counters, one per observable path decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// OCF fingerprint matched and the NVM record's key matched too.
    OcfTrueMatch = 0,
    /// OCF fingerprint matched but the NVM record's key differed — the
    /// probe paid an NVM block read for nothing.
    OcfFalsePositive,
    /// OCF fingerprint mismatch let a probe skip the NVM read entirely.
    OcfNegativeShortCircuit,
    /// Optimistic OCF read had to retry because the entry version moved.
    SeqlockReadRetry,
    /// An opmap (OCF busy-bit) lock attempt failed: slot busy or CAS lost.
    OpmapCasFail,
    /// Hot-table search hit.
    HotHit,
    /// Hot-table search miss.
    HotMiss,
    /// RAFL eviction of a cold (hot-bit clear) victim.
    HotEvictCold,
    /// RAFL eviction of a random victim (all candidates were hot).
    HotEvictRandom,
    /// RAFL cleared a bucket's hot bits after a random eviction.
    HotHotmapClear,
    /// Hot-table insert abandoned (victim slot contended).
    HotPutSkip,
    /// Synchronous-write overlap won: the DRAM write finished under the
    /// NVM write and the foreground thread never spun.
    SyncOverlapWin,
    /// Synchronous-write overlap lost: the foreground thread had to spin
    /// for the background writer.
    SyncOverlapWait,
    /// One bounded-exponential-backoff round spent waiting on a busy
    /// opmap slot (each round is 2^k spin-loop hints, capped).
    OpmapBackoffRound,
    /// A record's bytes failed their header checksum on read/scan.
    CorruptionDetected,
    /// A corrupted slot was rewritten from the DRAM hot-table copy.
    CorruptionRepaired,
    /// A corrupted slot had no clean copy and was quarantined (valid bit
    /// cleared; the record is reported lost rather than served).
    CorruptionQuarantined,
    /// A lock-free read validated its epoch snapshot after the probe,
    /// found a resize had superseded it, and retried on the new snapshot.
    SnapshotRetry,
    /// The table's maintenance mutex was acquired (resize, scrub,
    /// integrity verification, crash hooks). The lock-free read and write
    /// paths never touch it — a read/write-heavy run showing this at zero
    /// is the "no global lock on the hot path" acceptance signal.
    MaintenanceLock,
    /// One complete RESP request frame was decoded off a connection.
    NetFrameDecoded,
    /// A connection's byte stream violated the RESP framing grammar (bad
    /// type byte, bad length, oversized frame); the connection is closed.
    NetProtocolError,
    /// Bytes read from client sockets.
    NetBytesIn,
    /// Bytes written to client sockets.
    NetBytesOut,
    /// `read` calls issued on client sockets, whatever they returned (a
    /// would-block included): with [`Counter::NetWriteCalls`], the
    /// server's syscalls per request as a number.
    NetReadCalls,
    /// `write` calls issued on client sockets.
    NetWriteCalls,
    /// Connections accepted and served.
    NetConnAccepted,
    /// Connections rejected because the connection budget was exhausted.
    NetConnRejected,
    /// Well-framed requests naming a command the server does not speak
    /// (answered with an error reply; the connection stays open).
    NetUnknownCmd,
    /// Reactor event-loop iterations that found no ready I/O and no due
    /// timer — pure scheduling overhead. Idle connections must not
    /// produce these: the loop sleeps until the next real deadline, so a
    /// server full of quiet connections shows ~0 here.
    NetSpuriousWakeup,
    /// A `metrics delta` consumer observed the registry rewound beneath its
    /// baseline (a reset happened between two delta reads) and rebased.
    DeltaBaselineReset,
    /// Crash-consistent snapshots (backups) completed successfully.
    SnapshotTaken,
    /// Snapshot attempts that failed (I/O error, wrong backend, pending
    /// pool fault).
    SnapshotFailed,
    /// Total bytes copied into snapshot directories by successful backups.
    SnapshotBytes,
    /// Values written inline in the 15-byte slot (≤ the inline budget).
    VlogInlineWrites,
    /// Values spilled to the value log (slot stores a packed pointer).
    VlogSpillWrites,
    /// Records appended to value-log segments (spills + GC relocations).
    VlogAppends,
    /// Spilled values materialized from the value log on read.
    VlogReads,
    /// A spilled read found its segment retired mid-probe and re-probed
    /// the index (the GC's lock-free hand-off, not an error).
    VlogReadRetries,
    /// Bytes of garbage reclaimed by value-log compaction.
    VlogGcBytesReclaimed,
    /// Value-log segments retired (unmapped and deleted) by compaction.
    VlogGcSegmentsRetired,
    /// Live records relocated out of victim segments by compaction.
    VlogGcRecordsRelocated,
}

impl Counter {
    /// Every counter, in exposition order.
    pub const ALL: [Counter; 41] = [
        Counter::OcfTrueMatch,
        Counter::OcfFalsePositive,
        Counter::OcfNegativeShortCircuit,
        Counter::SeqlockReadRetry,
        Counter::OpmapCasFail,
        Counter::HotHit,
        Counter::HotMiss,
        Counter::HotEvictCold,
        Counter::HotEvictRandom,
        Counter::HotHotmapClear,
        Counter::HotPutSkip,
        Counter::SyncOverlapWin,
        Counter::SyncOverlapWait,
        Counter::OpmapBackoffRound,
        Counter::CorruptionDetected,
        Counter::CorruptionRepaired,
        Counter::CorruptionQuarantined,
        Counter::SnapshotRetry,
        Counter::MaintenanceLock,
        Counter::NetFrameDecoded,
        Counter::NetProtocolError,
        Counter::NetBytesIn,
        Counter::NetBytesOut,
        Counter::NetReadCalls,
        Counter::NetWriteCalls,
        Counter::NetConnAccepted,
        Counter::NetConnRejected,
        Counter::NetUnknownCmd,
        Counter::NetSpuriousWakeup,
        Counter::DeltaBaselineReset,
        Counter::SnapshotTaken,
        Counter::SnapshotFailed,
        Counter::SnapshotBytes,
        Counter::VlogInlineWrites,
        Counter::VlogSpillWrites,
        Counter::VlogAppends,
        Counter::VlogReads,
        Counter::VlogReadRetries,
        Counter::VlogGcBytesReclaimed,
        Counter::VlogGcSegmentsRetired,
        Counter::VlogGcRecordsRelocated,
    ];

    /// Stable snake_case name used in exposition.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OcfTrueMatch => "ocf_true_match",
            Counter::OcfFalsePositive => "ocf_false_positive",
            Counter::OcfNegativeShortCircuit => "ocf_negative_short_circuit",
            Counter::SeqlockReadRetry => "seqlock_read_retry",
            Counter::OpmapCasFail => "opmap_cas_fail",
            Counter::HotHit => "hot_hit",
            Counter::HotMiss => "hot_miss",
            Counter::HotEvictCold => "hot_evict_cold",
            Counter::HotEvictRandom => "hot_evict_random",
            Counter::HotHotmapClear => "hot_hotmap_clear",
            Counter::HotPutSkip => "hot_put_skip",
            Counter::SyncOverlapWin => "sync_overlap_win",
            Counter::SyncOverlapWait => "sync_overlap_wait",
            Counter::OpmapBackoffRound => "opmap_backoff_round",
            Counter::CorruptionDetected => "corruption_detected",
            Counter::CorruptionRepaired => "corruption_repaired",
            Counter::CorruptionQuarantined => "corruption_quarantined",
            Counter::SnapshotRetry => "snapshot_retry",
            Counter::MaintenanceLock => "maintenance_lock",
            Counter::NetFrameDecoded => "net_frame_decoded",
            Counter::NetProtocolError => "net_protocol_error",
            Counter::NetBytesIn => "net_bytes_in",
            Counter::NetBytesOut => "net_bytes_out",
            Counter::NetReadCalls => "net_read_calls",
            Counter::NetWriteCalls => "net_write_calls",
            Counter::NetConnAccepted => "net_conn_accepted",
            Counter::NetConnRejected => "net_conn_rejected",
            Counter::NetUnknownCmd => "net_unknown_cmd",
            Counter::NetSpuriousWakeup => "net_spurious_wakeups",
            Counter::DeltaBaselineReset => "delta_baseline_reset",
            Counter::SnapshotTaken => "snapshot_taken",
            Counter::SnapshotFailed => "snapshot_failed",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::VlogInlineWrites => "vlog_inline_writes",
            Counter::VlogSpillWrites => "vlog_spill_writes",
            Counter::VlogAppends => "vlog_appends",
            Counter::VlogReads => "vlog_reads",
            Counter::VlogReadRetries => "vlog_read_retries",
            Counter::VlogGcBytesReclaimed => "vlog_gc_bytes_reclaimed",
            Counter::VlogGcSegmentsRetired => "vlog_gc_segments_retired",
            Counter::VlogGcRecordsRelocated => "vlog_gc_records_relocated",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// The four public table operations, each with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    /// Point lookup.
    Get = 0,
    /// Insert of a new key.
    Insert,
    /// In-place update of an existing key.
    Update,
    /// Removal.
    Remove,
}

impl OpKind {
    /// Every op kind, in exposition order.
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Insert, OpKind::Update, OpKind::Remove];

    /// Stable name used in exposition labels.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Remove => "remove",
        }
    }
}

const N_OPS: usize = OpKind::ALL.len();

/// The wire-protocol commands served by `hdnh-server`, each with its own
/// service-latency histogram (decode-to-encode, excluding socket time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum NetCmd {
    /// `PING [msg]` liveness probe.
    Ping = 0,
    /// `GET key` point lookup.
    Get,
    /// `SET key value` upsert.
    Set,
    /// `DEL key [key ...]` removal.
    Del,
    /// `EXISTS key [key ...]` membership probe.
    Exists,
    /// `MGET key [key ...]` batched lookup.
    MGet,
    /// `MSET key value [key value ...]` batched upsert.
    MSet,
    /// `INFO` table geometry and server state.
    Info,
    /// `SCRUB` on-demand checksum scrub.
    Scrub,
    /// `METRICS [JSON|PROM]` registry exposition.
    Metrics,
    /// `SHUTDOWN` graceful drain.
    Shutdown,
    /// `BACKUP dir` crash-consistent snapshot into a server-side directory.
    Backup,
    /// `COMPACT` value-log garbage collection pass.
    Compact,
}

impl NetCmd {
    /// Every wire command, in exposition order.
    pub const ALL: [NetCmd; 13] = [
        NetCmd::Ping,
        NetCmd::Get,
        NetCmd::Set,
        NetCmd::Del,
        NetCmd::Exists,
        NetCmd::MGet,
        NetCmd::MSet,
        NetCmd::Info,
        NetCmd::Scrub,
        NetCmd::Metrics,
        NetCmd::Shutdown,
        NetCmd::Backup,
        NetCmd::Compact,
    ];

    /// Stable name used in exposition labels (matches the wire spelling,
    /// lowercased).
    pub fn name(self) -> &'static str {
        match self {
            NetCmd::Ping => "ping",
            NetCmd::Get => "get",
            NetCmd::Set => "set",
            NetCmd::Del => "del",
            NetCmd::Exists => "exists",
            NetCmd::MGet => "mget",
            NetCmd::MSet => "mset",
            NetCmd::Info => "info",
            NetCmd::Scrub => "scrub",
            NetCmd::Metrics => "metrics",
            NetCmd::Shutdown => "shutdown",
            NetCmd::Backup => "backup",
            NetCmd::Compact => "compact",
        }
    }
}

const N_NET: usize = NetCmd::ALL.len();

/// Rare long-running phases measured as spans (duration + items).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Resize phase 1: plan + allocate the new level pair.
    ResizeAllocate = 0,
    /// Resize phase 2: rehash the old bottom level (items = records moved).
    ResizeRehash,
    /// Resize phase 3: persist the level swap and retire the old region.
    ResizeSwap,
    /// Recovery: resuming an interrupted resize (items = records moved).
    RecoveryResume,
    /// Recovery: rebuilding the DRAM OCF + hot table (items = live records).
    RecoveryRebuild,
    /// Recovery end to end (items = live records).
    RecoveryTotal,
    /// Full integrity audit (items = live records).
    Verify,
    /// One crash-point exploration sweep (items = cases executed).
    FaultExplore,
    /// One scrub pass over both levels (items = live slots verified).
    Scrub,
    /// One value-log compaction pass (items = live records relocated).
    VlogGc,
}

impl Phase {
    /// Every phase, in exposition order.
    pub const ALL: [Phase; 10] = [
        Phase::ResizeAllocate,
        Phase::ResizeRehash,
        Phase::ResizeSwap,
        Phase::RecoveryResume,
        Phase::RecoveryRebuild,
        Phase::RecoveryTotal,
        Phase::Verify,
        Phase::FaultExplore,
        Phase::Scrub,
        Phase::VlogGc,
    ];

    /// Stable name used in exposition labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ResizeAllocate => "resize_allocate",
            Phase::ResizeRehash => "resize_rehash",
            Phase::ResizeSwap => "resize_swap",
            Phase::RecoveryResume => "recovery_resume",
            Phase::RecoveryRebuild => "recovery_rebuild",
            Phase::RecoveryTotal => "recovery_total",
            Phase::Verify => "verify",
            Phase::FaultExplore => "fault_explore",
            Phase::Scrub => "scrub",
            Phase::VlogGc => "vlog_gc",
        }
    }
}

const N_PHASES: usize = Phase::ALL.len();

// ---------------------------------------------------------------------------
// Global storage
// ---------------------------------------------------------------------------

struct CounterShard {
    vals: [AtomicU64; N_COUNTERS],
    // Pad each shard past a cacheline pair so neighbouring shards (and
    // therefore unrelated threads) never false-share.
    _pad: [u64; 3],
}

impl CounterShard {
    const fn new() -> Self {
        CounterShard {
            vals: [const { AtomicU64::new(0) }; N_COUNTERS],
            _pad: [0; 3],
        }
    }
}

static COUNTERS: [CounterShard; SHARDS] = [const { CounterShard::new() }; SHARDS];

static OP_HISTS: [[AtomicHistogram; N_OPS]; SHARDS] =
    [const { [const { AtomicHistogram::new() }; N_OPS] }; SHARDS];

static NET_HISTS: [[AtomicHistogram; N_NET]; SHARDS] =
    [const { [const { AtomicHistogram::new() }; N_NET] }; SHARDS];

struct PhaseCell {
    runs: AtomicU64,
    total_ns: AtomicU64,
    last_ns: AtomicU64,
    max_ns: AtomicU64,
    items: AtomicU64,
}

impl PhaseCell {
    const fn new() -> Self {
        PhaseCell {
            runs: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            last_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            items: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            last_ns: self.last_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.runs.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.last_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
    }
}

static PHASES: [PhaseCell; N_PHASES] = [const { PhaseCell::new() }; N_PHASES];

/// Slow-command log counters, one per wire command. Unsharded: entries are
/// rare by definition (each one crossed the slow threshold).
static SLOWLOG: [AtomicU64; N_NET] = [const { AtomicU64::new(0) }; N_NET];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard() -> usize {
    SHARD.with(|s| *s)
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Whether the registry is recording. One relaxed load — this is the whole
/// disabled-path cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Increments `c` by one (no-op while disabled).
#[inline]
pub fn count(c: Counter) {
    if !enabled() {
        return;
    }
    add_slow(c, 1);
}

/// Increments `c` by `n` (no-op while disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    add_slow(c, n);
}

#[cold]
fn add_slow(c: Counter, n: u64) {
    COUNTERS[shard()].vals[c as usize].fetch_add(n, Ordering::Relaxed);
    // A handful of counters are also timeline events: the flight recorder
    // wants *when* a corruption was found or a connection turned away, not
    // just how many. Mapping them here keeps every emission site DRY.
    let kind = match c {
        Counter::CorruptionDetected => trace::EventKind::CorruptionDetected,
        Counter::CorruptionRepaired => trace::EventKind::CorruptionRepaired,
        Counter::CorruptionQuarantined => trace::EventKind::CorruptionQuarantined,
        Counter::NetConnAccepted => trace::EventKind::ConnAccepted,
        Counter::NetConnRejected => trace::EventKind::ConnRejected,
        _ => return,
    };
    trace::emit(kind, 0, n);
}

thread_local! {
    /// The open lap chain's latest clock reading on this thread; `None`
    /// outside a chain.
    static LAP: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Clock reads the latency API made on this thread.
    #[cfg(test)]
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// The one place the latency API reads the clock, so a test can count.
#[inline]
fn clock() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    Instant::now()
}

/// A lap chain on the calling thread, open until dropped (see
/// [`lap_chain`]).
pub struct LapChain {
    /// Whether this guard stamped the thread (the registry was enabled
    /// when it was made). `*const ()` keeps the guard on its thread.
    open: bool,
    _this_thread: PhantomData<*const ()>,
}

/// Opens a lap chain: until the guard drops, latency measurements on this
/// thread share clock readings. [`op_start`] hands out the chain's latest
/// reading instead of taking one, and every completed measurement
/// ([`op_record`], [`net_record`]) leaves its end reading behind as the
/// next start. Back-to-back measurements therefore cost one clock read
/// each instead of two, and they tile the chain: each one runs from the
/// end of the one before it (the first from the guard's creation), so
/// their sum is the time the chain was open up to the last of them.
/// Nothing is sampled — every measurement is still recorded.
///
/// The guard exists to bound the chain: a reading left behind must never
/// start a measurement taken later, outside the chain. One chain per
/// thread; opening a second ends the first. While the registry is
/// disabled this is the usual single relaxed load.
#[inline]
pub fn lap_chain() -> LapChain {
    let open = enabled();
    if open {
        LAP.with(|l| l.set(Some(clock())));
    }
    LapChain {
        open,
        _this_thread: PhantomData,
    }
}

impl Drop for LapChain {
    fn drop(&mut self) {
        if self.open {
            LAP.with(|l| l.set(None));
        }
    }
}

/// Starts an op latency measurement; `None` while disabled, so the
/// disabled path never reads the clock. Inside a [`lap_chain`] the start
/// is the chain's latest reading, not a fresh one.
#[inline]
pub fn op_start() -> Option<Instant> {
    if enabled() {
        Some(LAP.with(Cell::get).unwrap_or_else(clock))
    } else {
        None
    }
}

/// Nanoseconds from `started` to now. Inside a [`lap_chain`], now becomes
/// the chain's latest reading.
fn lap_ns(started: Instant) -> u64 {
    let now = clock();
    LAP.with(|l| {
        if l.get().is_some() {
            l.set(Some(now));
        }
    });
    now.saturating_duration_since(started).as_nanos() as u64
}

/// Completes an op latency measurement started with [`op_start`].
#[inline]
pub fn op_record(op: OpKind, started: Option<Instant>) {
    if let Some(t) = started {
        op_record_slow(op, lap_ns(t));
    }
}

/// Records a pre-measured op latency in nanoseconds (no-op while disabled).
#[inline]
pub fn op_record_ns(op: OpKind, ns: u64) {
    if !enabled() {
        return;
    }
    op_record_slow(op, ns);
}

#[cold]
fn op_record_slow(op: OpKind, ns: u64) {
    OP_HISTS[shard()][op as usize].record(ns);
    trace::note_op_latency(op, ns);
}

/// Completes a wire-command service-latency measurement started with
/// [`op_start`] (the same clock gate applies).
#[inline]
pub fn net_record(cmd: NetCmd, started: Option<Instant>) {
    if let Some(t) = started {
        net_record_slow(cmd, lap_ns(t));
    }
}

/// Records a pre-measured wire-command service latency in nanoseconds
/// (no-op while disabled).
#[inline]
pub fn net_record_ns(cmd: NetCmd, ns: u64) {
    if !enabled() {
        return;
    }
    net_record_slow(cmd, ns);
}

#[cold]
fn net_record_slow(cmd: NetCmd, ns: u64) {
    NET_HISTS[shard()][cmd as usize].record(ns);
    if trace::note_cmd_latency(cmd, ns) {
        SLOWLOG[cmd as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts a phase span and stamps a [`trace::EventKind::PhaseEnter`]
/// event into the flight recorder, so the phase's position in the
/// timeline (not just its duration) is reconstructible; `None` while
/// disabled. Always a clock reading of its own: a phase is rare and long,
/// and is not part of a [`lap_chain`].
#[inline]
pub fn phase_enter(p: Phase) -> Option<Instant> {
    if !enabled() {
        return None;
    }
    trace::emit(trace::EventKind::PhaseEnter, p as u32, 0);
    Some(Instant::now())
}

/// Completes a phase span started with [`phase_enter`]. `items` is the
/// phase's work unit (records moved, cases run, …); pass 0 when
/// meaningless.
#[inline]
pub fn phase_record(p: Phase, started: Option<Instant>, items: u64) {
    if let Some(t) = started {
        phase_apply(p, t.elapsed().as_nanos() as u64, items);
    }
}

/// Records a pre-measured phase span (no-op while disabled). For callers
/// that already time the phase for their own reporting.
#[inline]
pub fn phase_record_ns(p: Phase, ns: u64, items: u64) {
    if !enabled() {
        return;
    }
    phase_apply(p, ns, items);
}

#[cold]
fn phase_apply(p: Phase, ns: u64, items: u64) {
    trace::emit(trace::EventKind::PhaseExit, p as u32, ns);
    let cell = &PHASES[p as usize];
    cell.runs.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    cell.last_ns.store(ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(ns, Ordering::Relaxed);
    cell.items.fetch_add(items, Ordering::Relaxed);
}

/// Zeroes every counter, histogram and phase cell.
pub fn reset() {
    for sh in &COUNTERS {
        for v in &sh.vals {
            v.store(0, Ordering::Relaxed);
        }
    }
    for row in &OP_HISTS {
        for h in row {
            h.reset();
        }
    }
    for row in &NET_HISTS {
        for h in row {
            h.reset();
        }
    }
    for s in &SLOWLOG {
        s.store(0, Ordering::Relaxed);
    }
    for p in &PHASES {
        p.reset();
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of one [`Phase`]'s span cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Completed runs of the phase.
    pub runs: u64,
    /// Total nanoseconds across all runs.
    pub total_ns: u64,
    /// Duration of the most recent run.
    pub last_ns: u64,
    /// Longest single run.
    pub max_ns: u64,
    /// Total work items across all runs.
    pub items: u64,
}

impl PhaseSnapshot {
    /// Span activity between `earlier` and `self`. `runs`, `total_ns` and
    /// `items` subtract exactly; `last_ns` is the latest run's duration and
    /// `max_ns` the all-time max (a window max is not derivable from two
    /// endpoints).
    pub fn since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        PhaseSnapshot {
            runs: self.runs.saturating_sub(earlier.runs),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            last_ns: self.last_ns,
            max_ns: self.max_ns,
            items: self.items.saturating_sub(earlier.items),
        }
    }

    /// Mean run duration in nanoseconds, 0.0 when no runs completed.
    pub fn mean_ns(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.runs as f64
        }
    }
}

/// A merged point-in-time copy of the whole registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    counters: Vec<u64>,
    ops: Vec<HistSnapshot>,
    net: Vec<HistSnapshot>,
    slowlog: Vec<u64>,
    phases: Vec<PhaseSnapshot>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot (baseline for deltas).
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: vec![0; N_COUNTERS],
            ops: (0..N_OPS).map(|_| HistSnapshot::empty()).collect(),
            net: (0..N_NET).map(|_| HistSnapshot::empty()).collect(),
            slowlog: vec![0; N_NET],
            phases: vec![PhaseSnapshot::default(); N_PHASES],
        }
    }

    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Latency histogram of one op kind.
    pub fn op(&self, op: OpKind) -> &HistSnapshot {
        &self.ops[op as usize]
    }

    /// Service-latency histogram of one wire command.
    pub fn net(&self, cmd: NetCmd) -> &HistSnapshot {
        &self.net[cmd as usize]
    }

    /// Slow-command log count of one wire command (commands that crossed
    /// the [`trace::set_slow_threshold_ns`] threshold).
    pub fn slowlog(&self, cmd: NetCmd) -> u64 {
        self.slowlog[cmd as usize]
    }

    /// Total slow-command log entries across all commands.
    pub fn total_slowlog(&self) -> u64 {
        self.slowlog.iter().sum()
    }

    /// Whether any monotonic quantity in `self` is *below* `earlier` — the
    /// signature of a registry reset between the two snapshots. A delta
    /// consumer observing this must rebase rather than trust a clamped
    /// (all-zero) difference.
    pub fn regressed_from(&self, earlier: &MetricsSnapshot) -> bool {
        self.counters.iter().zip(&earlier.counters).any(|(a, b)| a < b)
            || self
                .ops
                .iter()
                .zip(&earlier.ops)
                .any(|(a, b)| a.count() < b.count())
            || self
                .net
                .iter()
                .zip(&earlier.net)
                .any(|(a, b)| a.count() < b.count())
            || self.slowlog.iter().zip(&earlier.slowlog).any(|(a, b)| a < b)
            || self
                .phases
                .iter()
                .zip(&earlier.phases)
                .any(|(a, b)| a.runs < b.runs)
    }

    /// Total wire commands served across all command histograms — by
    /// construction the number of decoded frames dispatched to a known
    /// command (unknown commands are counted by
    /// [`Counter::NetUnknownCmd`] instead).
    pub fn total_net_cmds(&self) -> u64 {
        self.net.iter().map(|h| h.count()).sum()
    }

    /// Span cell of one phase.
    pub fn phase(&self, p: Phase) -> &PhaseSnapshot {
        &self.phases[p as usize]
    }

    /// Total operations across all four histograms — by construction equal
    /// to the number of completed public table ops recorded.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|h| h.count()).sum()
    }

    /// Fraction of OCF fingerprint matches whose NVM read found a
    /// different key: `false_positive / (false_positive + true_match)`.
    /// 0.0 when no matches occurred.
    pub fn ocf_false_positive_rate(&self) -> f64 {
        ratio(
            self.counter(Counter::OcfFalsePositive),
            self.counter(Counter::OcfFalsePositive) + self.counter(Counter::OcfTrueMatch),
        )
    }

    /// Fraction of hot-table searches that hit: `hit / (hit + miss)`.
    /// 0.0 when no searches occurred.
    pub fn hot_hit_rate(&self) -> f64 {
        ratio(
            self.counter(Counter::HotHit),
            self.counter(Counter::HotHit) + self.counter(Counter::HotMiss),
        )
    }

    /// Fraction of synchronous writes where the DRAM write finished under
    /// the NVM write: `win / (win + wait)`. 0.0 when none occurred.
    pub fn sync_overlap_win_rate(&self) -> f64 {
        ratio(
            self.counter(Counter::SyncOverlapWin),
            self.counter(Counter::SyncOverlapWin) + self.counter(Counter::SyncOverlapWait),
        )
    }

    /// Activity between `earlier` and `self` (see the `since` methods of
    /// the component types for exactness guarantees).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            ops: self
                .ops
                .iter()
                .zip(&earlier.ops)
                .map(|(a, b)| a.since(b))
                .collect(),
            net: self
                .net
                .iter()
                .zip(&earlier.net)
                .map(|(a, b)| a.since(b))
                .collect(),
            slowlog: self
                .slowlog
                .iter()
                .zip(&earlier.slowlog)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            phases: self
                .phases
                .iter()
                .zip(&earlier.phases)
                .map(|(a, b)| a.since(b))
                .collect(),
        }
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        expo::prometheus(self)
    }

    /// Renders the snapshot as one line of JSON.
    pub fn to_json(&self) -> String {
        json::object(|w| expo::json(self, w))
    }

    /// Writes the [`to_json`](Self::to_json) object as the next value of
    /// `w`, so a larger document can embed it.
    pub fn write_json(&self, w: &mut json::Writer) {
        w.object(|w| expo::json(self, w));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Merges every shard into one [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    let mut counters = vec![0u64; N_COUNTERS];
    for sh in &COUNTERS {
        for (acc, v) in counters.iter_mut().zip(&sh.vals) {
            *acc += v.load(Ordering::Relaxed);
        }
    }
    let ops = (0..N_OPS)
        .map(|i| {
            let mut merged = HistSnapshot::empty();
            for row in &OP_HISTS {
                merged.merge(&row[i].snapshot());
            }
            merged
        })
        .collect();
    let net = (0..N_NET)
        .map(|i| {
            let mut merged = HistSnapshot::empty();
            for row in &NET_HISTS {
                merged.merge(&row[i].snapshot());
            }
            merged
        })
        .collect();
    let slowlog = SLOWLOG.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    let phases = PHASES.iter().map(PhaseCell::snapshot).collect();
    MetricsSnapshot {
        counters,
        ops,
        net,
        slowlog,
        phases,
    }
}

/// Serialises every unit test of this crate that flips [`set_enabled`] or
/// calls a `reset`: the registry, the trace rings and the enable flag are
/// all process-global, so the tests of `lib.rs` and `trace.rs` must
/// exclude each other, not only their own module's tests.
#[cfg(test)]
pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = exclusive();
        reset();
        set_enabled(false);
        count(Counter::HotHit);
        add(Counter::HotMiss, 10);
        op_record_ns(OpKind::Get, 100);
        assert!(op_start().is_none());
        phase_record_ns(Phase::Verify, 1_000, 5);
        let s = snapshot();
        assert_eq!(s.counter(Counter::HotHit), 0);
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.phase(Phase::Verify).runs, 0);
    }

    #[test]
    fn counter_and_phase_roundtrip() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        count(Counter::OcfTrueMatch);
        add(Counter::OcfFalsePositive, 3);
        op_record_ns(OpKind::Insert, 500);
        op_record_ns(OpKind::Insert, 700);
        phase_record_ns(Phase::ResizeRehash, 10_000, 42);
        phase_record_ns(Phase::ResizeRehash, 20_000, 8);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counter(Counter::OcfTrueMatch), 1);
        assert_eq!(s.counter(Counter::OcfFalsePositive), 3);
        assert_eq!(s.op(OpKind::Insert).count(), 2);
        assert_eq!(s.op(OpKind::Insert).sum(), 1_200);
        assert_eq!(s.ocf_false_positive_rate(), 0.75);
        let ph = s.phase(Phase::ResizeRehash);
        assert_eq!(ph.runs, 2);
        assert_eq!(ph.total_ns, 30_000);
        assert_eq!(ph.last_ns, 20_000);
        assert_eq!(ph.max_ns, 20_000);
        assert_eq!(ph.items, 50);
        assert_eq!(ph.mean_ns(), 15_000.0);
        reset();
        assert_eq!(snapshot().total_ops(), 0);
    }

    #[test]
    fn since_diffs_counters_and_ops() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        count(Counter::HotHit);
        op_record_ns(OpKind::Get, 100);
        let base = snapshot();
        count(Counter::HotHit);
        count(Counter::HotMiss);
        op_record_ns(OpKind::Get, 200);
        op_record_ns(OpKind::Update, 300);
        let delta = snapshot().since(&base);
        set_enabled(false);
        assert_eq!(delta.counter(Counter::HotHit), 1);
        assert_eq!(delta.counter(Counter::HotMiss), 1);
        assert_eq!(delta.op(OpKind::Get).count(), 1);
        assert_eq!(delta.op(OpKind::Update).count(), 1);
        assert_eq!(delta.total_ops(), 2);
        assert_eq!(delta.hot_hit_rate(), 0.5);
        reset();
    }

    /// Satellite: N writer threads + concurrent snapshot merges. Counter
    /// totals must be exact and histogram populations conserved.
    #[test]
    fn concurrent_writers_and_snapshots_are_exact() {
        let _g = exclusive();
        reset();
        set_enabled(true);

        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            let c = Counter::ALL[(i as usize + t) % Counter::ALL.len()];
                            count(c);
                            let op = OpKind::ALL[(i as usize) % OpKind::ALL.len()];
                            // Deterministic pseudo-latencies spanning magnitudes.
                            op_record_ns(op, (i * 2654435761) % 1_000_000 + 1);
                        }
                    })
                })
                .collect();
            // Concurrent snapshotter: totals must be monotonic and never
            // exceed the final population.
            let stop_ref = &stop;
            s.spawn(move || {
                let mut prev_ops = 0u64;
                let mut prev_events: u64 = 0;
                while !stop_ref.load(Ordering::Relaxed) {
                    let snap = snapshot();
                    let ops = snap.total_ops();
                    let events: u64 = Counter::ALL.iter().map(|&c| snap.counter(c)).sum();
                    assert!(ops >= prev_ops, "op population went backwards");
                    assert!(events >= prev_events, "counter total went backwards");
                    assert!(ops <= THREADS as u64 * PER_THREAD);
                    assert!(events <= THREADS as u64 * PER_THREAD);
                    prev_ops = ops;
                    prev_events = events;
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        let snap = snapshot();
        set_enabled(false);

        // Counters: each thread spreads PER_THREAD increments round-robin
        // starting at its own offset, so the total per counter is exact.
        let mut expected = [0u64; Counter::ALL.len()];
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                expected[(i as usize + t) % Counter::ALL.len()] += 1;
            }
        }
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(snap.counter(c), expected[i], "counter {}", c.name());
        }

        // Histograms: population and value-sum conserved exactly.
        assert_eq!(snap.total_ops(), THREADS as u64 * PER_THREAD);
        let mut expected_per_op = [0u64; OpKind::ALL.len()];
        let mut expected_sum = [0u64; OpKind::ALL.len()];
        for _ in 0..THREADS {
            for i in 0..PER_THREAD {
                let k = (i as usize) % OpKind::ALL.len();
                expected_per_op[k] += 1;
                expected_sum[k] += (i * 2654435761) % 1_000_000 + 1;
            }
        }
        for (i, &op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(snap.op(op).count(), expected_per_op[i], "op {}", op.name());
            assert_eq!(snap.op(op).sum(), expected_sum[i], "sum {}", op.name());
        }
        reset();
    }

    #[test]
    fn a_lap_chain_shares_clock_readings_and_records_every_measurement() {
        let _g = exclusive();
        reset();
        set_enabled(true);
        let reads = || CLOCK_READS.with(Cell::get);

        // Outside a chain: a start and an end reading per measurement.
        let before = reads();
        let t = op_start();
        op_record(OpKind::Insert, t);
        assert_eq!(reads() - before, 2);

        // Inside: a command around a table op, twice over. Each nested pair
        // costs two reads (the two ends), the guard one.
        let before = reads();
        let chain = lap_chain();
        let opened = LAP.with(Cell::get).expect("an enabled chain is stamped");
        for _ in 0..2 {
            let cmd = op_start();
            let get = op_start();
            assert_eq!(cmd, get, "both start at the chain's latest reading");
            op_record(OpKind::Get, get);
            net_record(NetCmd::Get, cmd);
        }
        assert_eq!(reads() - before, 1 + 2 * 2);
        let last = LAP.with(Cell::get).unwrap();
        drop(chain);
        let s = snapshot();
        // Nothing is sampled, and the commands tile the chain: each starts
        // where the one before it ended.
        assert_eq!(s.op(OpKind::Get).count(), 2);
        assert_eq!(s.net(NetCmd::Get).count(), 2);
        assert_eq!(s.net(NetCmd::Get).sum(), (last - opened).as_nanos() as u64);
        assert!(s.op(OpKind::Get).sum() <= s.net(NetCmd::Get).sum());

        // The guard took its reading with it: a measurement after a pause
        // starts at its own reading, not at the chain's last one.
        assert!(LAP.with(Cell::get).is_none());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let t = op_start();
        op_record(OpKind::Remove, t);
        set_enabled(false);
        assert!(
            snapshot().op(OpKind::Remove).max() < 30_000_000,
            "a measurement outside a chain included the pause before it"
        );
        reset();
    }

    #[test]
    fn a_disabled_lap_chain_leaves_no_reading_behind() {
        let _g = exclusive();
        set_enabled(false);
        let chain = lap_chain();
        assert!(LAP.with(Cell::get).is_none());
        // Enabled mid-chain: measurements read the clock themselves.
        set_enabled(true);
        let before = CLOCK_READS.with(Cell::get);
        let t = op_start();
        op_record(OpKind::Get, t);
        assert_eq!(CLOCK_READS.with(Cell::get) - before, 2);
        drop(chain);
        set_enabled(false);
        reset();
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(OpKind::ALL.iter().map(|o| o.name()));
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        // NetCmd labels live in their own metric families (they may reuse
        // op names like "get") but must be unique among themselves.
        let mut net: Vec<&str> = NetCmd::ALL.iter().map(|c| c.name()).collect();
        let n = net.len();
        net.sort_unstable();
        net.dedup();
        assert_eq!(net.len(), n, "duplicate net command name");
    }

    #[test]
    fn net_histograms_roundtrip_and_diff() {
        let _g = exclusive();
        reset();
        set_enabled(false);
        net_record_ns(NetCmd::Get, 100);
        assert_eq!(snapshot().total_net_cmds(), 0, "disabled registry records nothing");
        set_enabled(true);
        net_record_ns(NetCmd::Get, 100);
        net_record_ns(NetCmd::Get, 300);
        net_record_ns(NetCmd::MSet, 900);
        let base = snapshot();
        net_record_ns(NetCmd::Set, 50);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.net(NetCmd::Get).count(), 2);
        assert_eq!(s.net(NetCmd::Get).sum(), 400);
        assert_eq!(s.net(NetCmd::MSet).count(), 1);
        assert_eq!(s.total_net_cmds(), 4);
        let delta = s.since(&base);
        assert_eq!(delta.net(NetCmd::Set).count(), 1);
        assert_eq!(delta.net(NetCmd::Get).count(), 0);
        assert_eq!(delta.total_net_cmds(), 1);
        reset();
        assert_eq!(snapshot().total_net_cmds(), 0);
    }
}
