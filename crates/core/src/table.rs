//! The HDNH table: hybrid DRAM-NVM hashing (paper §3).
//!
//! Composition (figure 2): key-value records persist in the two-level
//! [`Level`] structure in NVM; all probe metadata lives in the DRAM
//! [`Ocf`]; a DRAM [`HotTable`] absorbs skewed reads; writes run under the
//! synchronous write mechanism ([`SyncWriter`]); per-slot optimistic
//! concurrency (§3.6) replaces bucket locks.
//!
//! # Operation protocols (figures 9 & 10)
//!
//! Every write is one call of `write_with(key, decide)`: pin, hash, request
//! the probe's lines, search — locking the key's slot if it is there — and
//! ask `decide` about the old `(value, spilled)` pair, stable under that
//! lock, or about its absence. *Keep* releases the lock; a *put* with no
//! empty slot to go to releases it, drops the pin, resizes and asks again.
//!
//! | public operation | key present | key absent |
//! |---|---|---|
//! | `insert`, `insert_bytes` | `DuplicateKey` | put |
//! | `update`, `update_bytes` | put | `KeyNotFound` |
//! | `upsert_bytes`, `HashIndex::upsert` | put | put |
//! | `remove` | remove | keep |
//! | GC relocation | put if the pointer still matches (hot copy refreshed, not filled), else keep | keep |
//!
//! * **Put, absent** (figure 9) — lock an empty slot in the OCF (opmap CAS),
//!   check that no rival writer is placing the same key
//!   (`unchanged_since`), write the record to the NVM slot and persist it,
//!   atomically set the persisted bitmap bit (8-byte failure-atomic commit
//!   point), then one release store to the OCF entry publishes fingerprint
//!   and valid and version+1 and drops the lock. A crash before the
//!   bitmap commit leaves the slot invisible.
//! * **Put, present** (figure 10) — write the *new* record out-of-place
//!   into an empty slot of the **same bucket**, then flip both bitmap bits
//!   with a single 8-byte atomic store (figure 10c). If the bucket has no
//!   free slot, fall back to insert-elsewhere-then-delete (two atomic
//!   commits; the recovery scan deduplicates the crash window — see
//!   DESIGN.md).
//! * **Remove** — clear the bitmap bit atomically, invalidate the OCF entry.
//! * **Search** — hot table first; then OCF fingerprints; only a fingerprint
//!   match touches NVM, and the seqlock version re-check detects any
//!   concurrent writer. Completely lock-free: no NVM writes on the read
//!   path (the flaw the paper calls out in CCEH's reader locks). Every NVM
//!   record read is additionally verified against the 7-bit checksum packed
//!   into the bucket header; a seqlock-stable mismatch is media damage and
//!   is repaired or quarantined — never served (DESIGN.md §10).
//!
//! Resizing follows Level hashing's scheme (§3.7): a new top level with
//! twice the segments is allocated, bottom-level items are rehashed into it,
//! the old top becomes the new bottom. The `level number` state machine and
//! a per-bucket progress cursor are persisted so a crash at any point is
//! recoverable ([`crate::recovery`]).
//!
//! # Concurrency model (DESIGN.md §11)
//!
//! There is no table-wide lock on any operation path. The swappable state
//! ([`Inner`]: levels + OCFs + hot table) is published behind one
//! `AtomicPtr`; every operation pins the epoch ([`crate::epoch`]), loads the
//! pointer, and works on that snapshot. Readers validate the `generation`
//! counter after the probe and retry only across a concurrent resize;
//! writers additionally validate it *before* operating (an even, matching
//! generation) so a resize can exclude them by publishing an odd value and
//! draining the epoch. Only the maintenance paths — resize, scrub,
//! integrity audits, and the crash-simulation hooks — serialize on a rare
//! `maintenance` mutex, which the hot paths never touch (enforced by a
//! debug assertion).

use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{HashIndex, IndexError, IndexResult, Key, Record, Value};
use hdnh_nvm::fault;
use hdnh_nvm::StatsSnapshot;
use hdnh_obs as obs;
use parking_lot::{Mutex, MutexGuard};

use crate::epoch;
use crate::error::{CorruptionOutcome, HdnhError};
use crate::hot::{HotBuckets, HotTable};
use crate::meta::{Meta, ResizeState};
use crate::nvtable::{header_slot_spilled, header_slot_valid, slot_checksum_ok, slot_meta, Level};
use crate::ocf::{self, Backoff, LockOutcome, Ocf};
use crate::params::{HdnhParams, SyncMode, BUCKET_BYTES, SLOTS_PER_BUCKET};
use crate::sync::{HotOp, SyncWriter};
use crate::vlog::{self, Vlog, VlogPtr};

static RNG_SEED: AtomicU64 = AtomicU64::new(0x5EED);

thread_local! {
    static RAFL_RNG: RefCell<XorShift64Star> = RefCell::new(XorShift64Star::new(
        // Distinct per thread; exact value irrelevant.
        RNG_SEED.fetch_add(1, Ordering::Relaxed)
    ));
}

/// Number of candidate buckets per level under the 2-choice strategy.
pub(crate) const CANDIDATES_FULL: usize = 4;
/// Candidates per level with a single segment choice (ablation).
pub(crate) const CANDIDATES_ONE_CHOICE: usize = 2;

/// Table state that is swapped wholesale by a resize.
pub(crate) struct Inner {
    /// The (even) table generation this snapshot belongs to.
    pub(crate) generation: u64,
    pub(crate) top: Level,
    pub(crate) bottom: Level,
    /// OCFs are `Arc`-shared across snapshots: after a resize the old top's
    /// OCF *is* the new bottom's, so a reader still probing the pre-swap
    /// snapshot observes the same per-slot seqlock words new writers commit.
    pub(crate) ocf_top: Arc<Ocf>,
    pub(crate) ocf_bottom: Arc<Ocf>,
    pub(crate) hot: Option<Arc<HotTable>>,
}

impl Inner {
    #[inline]
    pub(crate) fn level(&self, li: usize) -> (&Level, &Ocf) {
        if li == 0 {
            (&self.top, &*self.ocf_top)
        } else {
            (&self.bottom, &*self.ocf_bottom)
        }
    }

    #[inline]
    fn total_slots(&self) -> usize {
        self.top.n_slots() + self.bottom.n_slots()
    }

    /// The address-first step of every operation (DESIGN.md §11): derives
    /// every DRAM location a probe for `h` can touch in this snapshot —
    /// the two hot buckets, the OCF entry group of each of the first `n`
    /// candidate buckets per level — and asks for all of them at once, so
    /// the walk that follows finds its lines in flight instead of missing
    /// on them one after another. Hints only, and DRAM only: no NVM region
    /// is touched, and nothing the walk decides depends on a hint.
    #[inline]
    fn probe(&self, h: &KeyHashes, n: usize) -> Probe<'_> {
        let hot = self.hot.as_ref().map(|hot| {
            let at = hot.buckets(h.h1, h.h2);
            hot.prefetch(at);
            (hot, at)
        });
        let candidates = [self.top.candidates(h), self.bottom.candidates(h)];
        for (li, buckets) in candidates.iter().enumerate() {
            let (_, ocf) = self.level(li);
            for &bucket in &buckets[..n] {
                ocf.prefetch_bucket(bucket);
            }
        }
        Probe { inner: self, h: *h, hot, candidates, n }
    }
}

/// Where one key's probe goes in one snapshot, computed once per operation
/// by [`Inner::probe`] and shared by the hot search, the filter walk, the
/// empty-slot scan and the hot-table write.
struct Probe<'a> {
    /// The snapshot probed, and the key's hashes.
    inner: &'a Inner,
    h: KeyHashes,
    /// The hot table and the key's bucket in each of its levels.
    hot: Option<(&'a Arc<HotTable>, HotBuckets)>,
    /// Candidate buckets per level; the first `n` are probed.
    candidates: [[usize; CANDIDATES_FULL]; 2],
    n: usize,
}

impl Probe<'_> {
    /// The candidate buckets of level `li`, in probe order.
    #[inline]
    fn buckets(&self, li: usize) -> &[usize] {
        &self.candidates[li][..self.n]
    }

    /// Releases the lock held on `loc`'s slot, leaving the slot as it was.
    fn unlock(&self, loc: &Located) {
        self.inner.level(loc.li).1.abort(loc.bucket, loc.slot, loc.entry);
    }

    /// Locks the first empty slot among the candidate buckets — the bucket
    /// of the key's `old` slot, if it has one, before the others — as the
    /// place `value` is going to.
    fn claim_empty(&self, old: Option<&Located>, value: Value, spilled: bool) -> Option<Located> {
        let home = old.map(|o| (o.li, o.bucket));
        let rest = (0..2).flat_map(|li| self.buckets(li).iter().map(move |&b| (li, b)));
        for (li, bucket) in home.into_iter().chain(rest.filter(|&b| Some(b) != home)) {
            let (_, ocf) = self.inner.level(li);
            for slot in 0..SLOTS_PER_BUCKET {
                if old.is_some_and(|o| (o.li, o.bucket, o.slot) == (li, bucket, slot)) {
                    continue;
                }
                // A slot that is taken, or being taken, is passed over even
                // if the rival is placing this very key: for an absent key
                // `unchanged_since` catches that.
                if let LockOutcome::Locked(entry) = ocf.try_lock_empty(bucket, slot) {
                    return Some(Located { li, bucket, slot, entry, value, spilled });
                }
            }
        }
        None
    }

    /// The uniqueness check of an absent key's placement (DESIGN.md §11,
    /// "claim, then re-validate"): `true` when no candidate slot but `own`
    /// — just claimed — has changed since the probe that missed read it. A
    /// rival placing the same key holds or has published one of those
    /// slots: its entry is busy, or a version on. Of two claimers the later
    /// always sees the earlier — each re-loads after its own claim CAS,
    /// sequentially consistent both ([`Ocf::load_after_claim`]) — so at
    /// most one places. DRAM only, exact: no lock, no NVM access.
    fn unchanged_since(&self, seen: &Witness, own: &Located) -> bool {
        let own = (own.li, own.bucket, own.slot);
        (0..2).all(|li| {
            let (_, ocf) = self.inner.level(li);
            self.buckets(li).iter().zip(&seen[li]).all(|(&bucket, then)| {
                let mut slots = ocf.load_after_claim(bucket).zip(then).enumerate();
                slots.all(|(slot, (now, &was))| now == was || (li, bucket, slot) == own)
            })
        })
    }
}

/// Outcome of one named integrity invariant from
/// [`Hdnh::verify_integrity_report`].
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Stable invariant identifier (see `verify_integrity_report` docs).
    pub name: &'static str,
    /// Whether every check under this invariant passed.
    pub ok: bool,
    /// The first few violations, human-readable (capped).
    pub violations: Vec<String>,
}

/// Machine-readable outcome of one [`Hdnh::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live slots whose record was checksum-verified.
    pub scanned: usize,
    /// Slots whose bytes failed the checksum committed with them.
    pub detected: usize,
    /// Detected slots rebuilt in place from a clean DRAM hot-table copy.
    pub repaired: usize,
    /// Detected slots with no clean copy: valid bit cleared, record lost.
    pub quarantined: usize,
    /// Per-slot detail for each detection (capped at [`ScrubReport::ERRORS_CAP`]).
    pub errors: Vec<HdnhError>,
}

impl ScrubReport {
    /// Cap on retained per-slot errors so a badly damaged pool stays
    /// reportable.
    pub const ERRORS_CAP: usize = 64;

    /// `true` when the pass found no corruption.
    pub fn clean(&self) -> bool {
        self.detected == 0
    }

    /// One-line JSON summary for tooling and CI artifacts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scanned\":{},\"detected\":{},\"repaired\":{},\"quarantined\":{}}}",
            self.scanned, self.detected, self.repaired, self.quarantined
        )
    }
}

/// A bytes-API payload made ready for a slot: the slot's value bytes, and
/// — when they are a pointer — the log record already appended for them.
/// The ticket is held until the write has published (or given up), as the
/// compactor requires.
struct StagedValue {
    value: Value,
    appended: Option<(VlogPtr, vlog::AppendTicket)>,
}

/// A record's located position in the table.
struct Located {
    li: usize,
    bucket: usize,
    slot: usize,
    /// OCF entry snapshot taken when the record was matched.
    entry: u16,
    value: Value,
    /// The header's spill flag for the slot, from the header load the
    /// entry's seqlock validated: `value` is a packed value-log pointer.
    spilled: bool,
}

/// The final OCF entry a writer's probe read for each slot of each candidate
/// bucket of each level: what ruled the key out there (see
/// [`Probe::unchanged_since`]). On the writer's stack; readers keep none.
type Witness = [[[u16; SLOTS_PER_BUCKET]; CANDIDATES_FULL]; 2];

/// What a write does about a key, answered under the key's slot lock — or,
/// for an absent key, after a validated miss.
enum Decision {
    /// Leave the table as it is.
    Keep,
    /// Store `value`. `spilled`: the 15 bytes are a packed value-log
    /// pointer (committed into the header's spill flag). `refresh_only`
    /// limits the hot-table half to rewriting a copy already cached.
    Put { value: Value, spilled: bool, refresh_only: bool },
    /// Remove the key (nothing to do when it is absent).
    Remove,
}

/// Which of a key's two states a store accepts.
#[derive(Clone, Copy)]
pub(crate) enum Accept {
    /// Insert: a present key is `DuplicateKey`.
    Absent,
    /// Update: an absent key is `KeyNotFound`.
    Present,
    /// Upsert.
    Either,
}

/// The HDNH hash table.
pub struct Hdnh {
    params: HdnhParams,
    pub(crate) meta: Meta,
    /// The live snapshot, swapped wholesale by a resize. Hot paths pin the
    /// epoch and load this pointer; they never take a lock.
    pub(crate) current: AtomicPtr<Inner>,
    /// Serializes the maintainers (resize, scrub, integrity audits, crash
    /// hooks). Never touched by `get`/`insert`/`update`/`remove`.
    maintenance: Mutex<()>,
    /// In-flight resize level, surfaced to `into_pool` after a mid-resize
    /// crash (an unwind out of `perform_resize`).
    pub(crate) pending_new_top: Mutex<Option<(Level, Ocf)>>,
    count: AtomicUsize,
    /// Even = stable; odd = a maintainer is excluding writers. Advances by
    /// 2 per completed resize and always matches `current`'s snapshot
    /// generation when even.
    generation: AtomicU64,
    /// Bumped by every out-of-place update *between* committing the new
    /// copy and clearing the old one. A reader that misses can only have
    /// raced such a move if this changed during its probe (the proof in
    /// `get_inner`); an unchanged counter makes the miss authoritative.
    relocations: AtomicU64,
    resizes: AtomicUsize,
    sync: Option<SyncWriter>,
    /// The value log holding spilled (over-inline-budget) values. Lives
    /// outside [`Inner`] because log segments survive level resizes
    /// unchanged — only the slot pointers move with their records.
    pub(crate) vlog: Arc<Vlog>,
}

impl Drop for Hdnh {
    fn drop(&mut self) {
        let p = *self.current.get_mut();
        if !p.is_null() {
            // Safety: `current` exclusively owns the snapshot; `into_pool`
            // nulls the pointer after taking ownership.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// A probe missed while an out-of-place update was moving a record: the
/// miss proves nothing and the probe must be retried.
struct ProbeRaced;

/// A pinned snapshot: the epoch pin (taken *before* the pointer load) keeps
/// a concurrent resize from freeing the `Inner` this borrows.
struct PinnedInner<'a> {
    _pin: epoch::Pin,
    inner: &'a Inner,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Set while `get` runs. [`Hdnh::maintenance_lock`] asserts against it,
    /// proving the read path never serializes on the maintainers' mutex.
    static ON_READ_PATH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(debug_assertions)]
struct ReadPathGuard;

#[cfg(debug_assertions)]
impl ReadPathGuard {
    fn enter() -> Self {
        ON_READ_PATH.with(|f| f.set(true));
        ReadPathGuard
    }
}

#[cfg(debug_assertions)]
impl Drop for ReadPathGuard {
    fn drop(&mut self) {
        ON_READ_PATH.with(|f| f.set(false));
    }
}

/// Restores the generation word on unwind. Arms the writer-exclusion phase
/// of a maintainer: if the maintainer panics (fault-injection crashes), the
/// even pre-maintenance generation is restored so subsequent operations on
/// the untouched old snapshot don't spin on a forever-odd value.
struct GenRestore<'a> {
    gen: &'a AtomicU64,
    value: u64,
    armed: bool,
}

impl Drop for GenRestore<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.gen.store(self.value, Ordering::SeqCst);
        }
    }
}

impl Hdnh {
    /// Pins the epoch and loads the live snapshot: the entire read-side
    /// synchronization cost — one uncontended `fetch_add` and one load.
    #[inline]
    fn pinned(&self) -> PinnedInner<'_> {
        let pin = epoch::pin();
        // Safety: the pointer is never null while `&self` is reachable, and
        // the pin taken before the load keeps resize's reclamation drain
        // from freeing the target until this guard drops.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        PinnedInner { _pin: pin, inner }
    }

    /// Pins and validates for a writer: the snapshot must carry the current
    /// *even* generation. A maintainer excludes new writers by publishing an
    /// odd value; in-flight validated writers finish under their pin before
    /// the maintainer's `drain` returns.
    #[inline]
    fn pin_for_write(&self) -> (PinnedInner<'_>, u64) {
        loop {
            let snap = self.pinned();
            let gen = self.generation.load(Ordering::SeqCst);
            if gen & 1 == 0 && gen == snap.inner.generation {
                return (snap, gen);
            }
            drop(snap);
            std::thread::yield_now();
        }
    }

    /// Takes the maintainers' mutex (resize, scrub, audits, crash hooks).
    pub(crate) fn maintenance_lock(&self) -> MutexGuard<'_, ()> {
        #[cfg(debug_assertions)]
        ON_READ_PATH.with(|f| {
            debug_assert!(!f.get(), "maintenance lock taken on the read path")
        });
        obs::count(obs::Counter::MaintenanceLock);
        self.maintenance.lock()
    }
    /// Creates an empty table. Panics on backend allocation failure;
    /// fallible construction (pool files) is [`Hdnh::try_new`].
    pub fn new(params: HdnhParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("table allocation failed: {e}"))
    }

    /// Creates an empty table, surfacing backend (pool-file) failures as
    /// typed errors instead of panicking.
    pub fn try_new(params: HdnhParams) -> Result<Self, HdnhError> {
        params.validate();
        let bps = params.segment_bytes / BUCKET_BYTES;
        let bottom_segments = params.initial_bottom_segments;
        let top_segments = bottom_segments * 2;
        let top = Level::try_new(top_segments, bps, &params.nvm)?;
        let bottom = Level::try_new(bottom_segments, bps, &params.nvm)?;
        let ocf_top = Ocf::new(top.n_buckets(), SLOTS_PER_BUCKET);
        let ocf_bottom = Ocf::new(bottom.n_buckets(), SLOTS_PER_BUCKET);
        let meta =
            Meta::try_create(&params.nvm, top_segments, bottom_segments, params.segment_bytes)?;
        let hot = params
            .enable_hot_table
            .then(|| Arc::new(Self::make_hot(&params, top.n_slots() + bottom.n_slots())));
        let sync = (params.sync_mode == SyncMode::Background && params.enable_hot_table)
            .then(|| SyncWriter::new(params.background_writers));
        let vlog = Arc::new(Vlog::new(params.nvm.clone(), params.vlog_segment_bytes));
        Ok(Self::assemble(
            params,
            meta,
            Inner {
                generation: 0,
                top,
                bottom,
                ocf_top: Arc::new(ocf_top),
                ocf_bottom: Arc::new(ocf_bottom),
                hot,
            },
            sync,
            vlog,
        ))
    }

    /// Assembles a table from recovered parts (see [`crate::recovery`]).
    pub(crate) fn assemble(
        params: HdnhParams,
        meta: Meta,
        inner: Inner,
        sync: Option<SyncWriter>,
        vlog: Arc<Vlog>,
    ) -> Self {
        let generation = inner.generation;
        Hdnh {
            params,
            meta,
            current: AtomicPtr::new(Box::into_raw(Box::new(inner))),
            maintenance: Mutex::new(()),
            pending_new_top: Mutex::new(None),
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(generation),
            relocations: AtomicU64::new(0),
            resizes: AtomicUsize::new(0),
            sync,
            vlog,
        }
    }

    pub(crate) fn make_hot(params: &HdnhParams, nv_slots: usize) -> HotTable {
        let hot_slots =
            ((nv_slots as f64 * params.hot_capacity_ratio) as usize).max(params.hot_slots_per_bucket * 2);
        HotTable::new(hot_slots, params.hot_slots_per_bucket, params.hot_policy)
    }

    /// The configuration in force.
    pub fn params(&self) -> &HdnhParams {
        &self.params
    }

    /// How many resizes have completed.
    pub fn resize_count(&self) -> usize {
        self.resizes.load(Ordering::Relaxed)
    }

    /// Aggregated media counters across the table's NVM regions.
    pub fn nvm_stats(&self) -> StatsSnapshot {
        let snap = self.pinned();
        let inner = snap.inner;
        let mut acc = StatsSnapshot::default();
        let mut snaps = vec![
            self.meta.region().stats().snapshot(),
            inner.top.region().stats().snapshot(),
            inner.bottom.region().stats().snapshot(),
        ];
        for (_, region) in self.vlog.regions() {
            snaps.push(region.stats().snapshot());
        }
        for snap in snaps {
            acc.reads += snap.reads;
            acc.read_bytes += snap.read_bytes;
            acc.read_blocks += snap.read_blocks;
            acc.writes += snap.writes;
            acc.write_bytes += snap.write_bytes;
            acc.write_lines += snap.write_lines;
            acc.flushes += snap.flushes;
            acc.fences += snap.fences;
        }
        acc
    }

    /// Handle to the hot table (None when disabled).
    pub fn hot_table(&self) -> Option<Arc<HotTable>> {
        self.pinned().inner.hot.clone()
    }

    /// A sticky flush-path I/O fault, if the file backend has recorded
    /// one (a failed `msync` on the fence path). `None` on the heap
    /// backend or while the pool is healthy. Callers that acknowledge
    /// durability (the RESP server) check this before acking.
    pub fn io_fault(&self) -> Option<HdnhError> {
        self.params
            .nvm
            .backend
            .pool()
            .and_then(|p| p.fault())
            .map(HdnhError::from)
    }

    /// Which storage backend holds the NVM regions: `"pool"` for the
    /// mmap-backed file pool, `"heap"` for the in-process simulator.
    /// Operational surfaces (`INFO`, `/varz`) report this so an operator
    /// can tell a durable deployment from a volatile one at a glance.
    pub fn backend_kind(&self) -> &'static str {
        if self.params.nvm.backend.pool().is_some() {
            "pool"
        } else {
            "heap"
        }
    }

    /// Paths of every pool file currently reachable from the table
    /// (meta + live levels + any in-flight resize target). Empty on the
    /// heap backend. Used by the orphan sweep after recovery.
    pub fn region_file_paths(&self) -> Vec<std::path::PathBuf> {
        let _m = self.maintenance_lock();
        self.region_file_paths_locked()
    }

    /// [`region_file_paths`](Self::region_file_paths) body for callers that
    /// already hold the maintenance lock (the lock is not re-entrant).
    pub(crate) fn region_file_paths_locked(&self) -> Vec<std::path::PathBuf> {
        let snap = self.pinned();
        let inner = snap.inner;
        let mut out = Vec::new();
        for region in [self.meta.region(), inner.top.region(), inner.bottom.region()] {
            if let Some(p) = region.file_path() {
                out.push(p.to_path_buf());
            }
        }
        for (_, region) in self.vlog.regions() {
            if let Some(p) = region.file_path() {
                out.push(p.to_path_buf());
            }
        }
        if let Some((level, _)) = self.pending_new_top.lock().as_ref() {
            if let Some(p) = level.region().file_path() {
                out.push(p.to_path_buf());
            }
        }
        out
    }

    /// `msync(MS_SYNC)`+`fsync` every region reachable from the table
    /// without consuming it (pool creation, checkpoint-style callers).
    /// No-op on the heap backend.
    pub fn sync_regions_to_disk(&self) -> Result<(), HdnhError> {
        let _m = self.maintenance_lock();
        self.sync_regions_to_disk_locked()
    }

    /// [`sync_regions_to_disk`](Self::sync_regions_to_disk) body for
    /// callers that already hold the maintenance lock.
    pub(crate) fn sync_regions_to_disk_locked(&self) -> Result<(), HdnhError> {
        let snap = self.pinned();
        let inner = snap.inner;
        for region in [self.meta.region(), inner.top.region(), inner.bottom.region()] {
            region.sync_to_disk().map_err(HdnhError::from)?;
        }
        for (_, region) in self.vlog.regions() {
            region.sync_to_disk().map_err(HdnhError::from)?;
        }
        if let Some((level, _)) = self.pending_new_top.lock().as_ref() {
            level.region().sync_to_disk().map_err(HdnhError::from)?;
        }
        Ok(())
    }

    /// Runs `f` with the maintenance lock held and writers excluded: the
    /// generation is made odd and the epoch drained, so no mutator is
    /// mid-operation while `f` runs. Readers keep running throughout (the
    /// lock-free read path never touches the generation). The snapshot
    /// machinery uses this to get a single crash-consistent point in time.
    pub(crate) fn with_writers_paused<R>(&self, f: impl FnOnce() -> R) -> R {
        let _m = self.maintenance_lock();
        let gen = self.generation.load(Ordering::SeqCst);
        self.generation.store(gen + 1, Ordering::SeqCst);
        let _pause = GenRestore {
            gen: &self.generation,
            value: gen,
            armed: true,
        };
        epoch::drain();
        f()
    }

    /// Number of bottom-level buckets (the rehash cursor range; exposed for
    /// crash-point enumeration in tests and tools).
    pub fn meta_bottom_buckets(&self) -> usize {
        self.pinned().inner.bottom.n_buckets()
    }

    /// Full-table audit of invariant I2: for every slot, the OCF entry's
    /// valid bit must equal the persisted bitmap bit, and a valid entry's
    /// fingerprint must match the stored key's. Also verifies that `len()`
    /// equals the number of valid slots and that no key appears twice.
    /// Pauses writers (odd generation + epoch drain) for the scan; readers
    /// keep running. Intended for tests and tooling. Returns the number of
    /// live records on success, or the first failing invariant as a typed
    /// [`HdnhError::Integrity`].
    pub fn verify_integrity(&self) -> Result<usize, HdnhError> {
        let (reports, live) = self.verify_integrity_report();
        match reports.into_iter().find(|r| !r.ok) {
            Some(r) => Err(HdnhError::Integrity {
                invariant: r.name,
                violations: r.violations,
            }),
            None => Ok(live),
        }
    }

    /// Per-invariant variant of [`verify_integrity`]: audits every named
    /// invariant independently (one failing check does not hide the others)
    /// and returns the reports plus the scanned live-record count.
    ///
    /// Invariants:
    /// * `no-locks-at-rest` — no OCF slot is BUSY while the table is idle.
    /// * `ocf-bitmap-agreement` — every OCF valid bit equals the persisted
    ///   bitmap bit (I2).
    /// * `fingerprint-match` — every valid OCF entry carries the stored
    ///   key's fingerprint.
    /// * `no-duplicate-keys` — no key is bitmap-valid in two slots (the
    ///   update-fallback double-copy window must have been repaired).
    /// * `hot-consistency` — a hot-table hit for a live key returns the
    ///   authoritative NVM value.
    /// * `checksum-match` — every bitmap-valid record's bytes match the
    ///   7-bit checksum committed with its valid bit (media integrity).
    /// * `vlog-pointer-valid` — every spill-flagged slot's value bytes
    ///   decode to a pointer that resolves to a CRC-valid value-log record
    ///   carrying the slot's key.
    /// * `count-consistency` — `len()` equals the number of valid slots.
    /// * `meta-quiescent` — the metadata block is stable (no resize state,
    ///   no rehash cursor) and its geometry matches the live levels.
    pub fn verify_integrity_report(&self) -> (Vec<InvariantReport>, usize) {
        /// Cap per invariant so a badly corrupted table stays readable.
        const MAX_VIOLATIONS: usize = 8;
        fn push(v: &mut Vec<String>, msg: String) {
            if v.len() < MAX_VIOLATIONS {
                v.push(msg);
            }
        }
        let _m = self.maintenance_lock();
        // Writer pause: publish an odd generation and drain the epoch so no
        // writer is mid-operation during the scan. Readers keep running —
        // the scan is read-only and reader-side corruption repairs defer
        // themselves while the generation is odd.
        let gen = self.generation.load(Ordering::SeqCst);
        self.generation.store(gen + 1, Ordering::SeqCst);
        let _pause = GenRestore {
            gen: &self.generation,
            value: gen,
            armed: true,
        };
        epoch::drain();
        // Safety: the maintenance lock is held — the pointer cannot swap.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        let mut locks = Vec::new();
        let mut agree = Vec::new();
        let mut fps = Vec::new();
        let mut dups = Vec::new();
        let mut hots = Vec::new();
        let mut cks = Vec::new();
        let mut vlogs = Vec::new();
        let mut counts = Vec::new();
        let mut metas = Vec::new();
        let mut live = 0usize;
        let mut seen = std::collections::HashSet::new();
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    let e = ocf.load(bucket, slot);
                    let nv_valid = header & (1 << slot) != 0;
                    if ocf::is_busy(e) {
                        push(&mut locks, format!("slot L{li}/{bucket}/{slot} locked at rest"));
                    }
                    if ocf::is_valid(e) != nv_valid {
                        push(
                            &mut agree,
                            format!(
                                "OCF/bitmap disagree at L{li}/{bucket}/{slot}: ocf={} nv={}",
                                ocf::is_valid(e),
                                nv_valid
                            ),
                        );
                    }
                    if nv_valid {
                        let rec = level.read_record(bucket, slot);
                        if !slot_checksum_ok(header, slot, &rec) {
                            push(
                                &mut cks,
                                format!("checksum mismatch at L{li}/{bucket}/{slot}"),
                            );
                        }
                        if header_slot_spilled(header, slot) {
                            let resolves = VlogPtr::from_value(&rec.value)
                                .is_some_and(|ptr| self.vlog.verify(&ptr, &rec.key));
                            if !resolves {
                                push(
                                    &mut vlogs,
                                    format!(
                                        "spill pointer at L{li}/{bucket}/{slot} does not resolve \
                                         to a valid log record"
                                    ),
                                );
                            }
                        }
                        let h = KeyHashes::of(&rec.key);
                        if self.params.enable_ocf && ocf::fp(e) != h.fp {
                            push(&mut fps, format!("fingerprint mismatch at L{li}/{bucket}/{slot}"));
                        }
                        if !seen.insert(rec.key) {
                            push(&mut dups, format!("duplicate key at L{li}/{bucket}/{slot}"));
                        }
                        if let Some(hot) = &inner.hot {
                            if let Some(v) = hot.search(&rec.key, h.h1, h.h2, h.fp) {
                                if v != rec.value {
                                    push(
                                        &mut hots,
                                        format!(
                                            "hot table stale at L{li}/{bucket}/{slot}: cached {} nvm {}",
                                            v.as_u64(),
                                            rec.value.as_u64()
                                        ),
                                    );
                                }
                            }
                        }
                        live += 1;
                    }
                }
            }
        }
        if live != self.len() {
            push(&mut counts, format!("count drift: scanned {live}, len() {}", self.len()));
        }
        if self.meta.state() != ResizeState::Stable {
            push(&mut metas, format!("resize state {:?} at rest", self.meta.state()));
        }
        if let Some(cursor) = self.meta.rehash_progress() {
            push(&mut metas, format!("dangling rehash cursor {cursor}"));
        }
        if self.meta.top_segments() != inner.top.n_segments()
            || self.meta.bottom_segments() != inner.bottom.n_segments()
        {
            push(
                &mut metas,
                format!(
                    "meta geometry {}/{} != live levels {}/{}",
                    self.meta.top_segments(),
                    self.meta.bottom_segments(),
                    inner.top.n_segments(),
                    inner.bottom.n_segments()
                ),
            );
        }
        if self.pending_new_top.lock().is_some() {
            push(&mut metas, "in-flight resize level leaked past quiescence".into());
        }
        let mk = |name: &'static str, violations: Vec<String>| InvariantReport {
            name,
            ok: violations.is_empty(),
            violations,
        };
        (
            vec![
                mk("no-locks-at-rest", locks),
                mk("ocf-bitmap-agreement", agree),
                mk("fingerprint-match", fps),
                mk("no-duplicate-keys", dups),
                mk("hot-consistency", hots),
                mk("checksum-match", cks),
                mk("vlog-pointer-valid", vlogs),
                mk("count-consistency", counts),
                mk("meta-quiescent", metas),
            ],
            live,
        )
    }

    /// On-demand media scrub (DESIGN.md §10): walks every live slot of both
    /// levels, re-verifies each record against the checksum committed with
    /// its valid bit, and handles every mismatch — rebuilt in place when the
    /// DRAM hot table still holds a clean copy (and the OCF fingerprint
    /// vouches for the damaged record's key bytes), quarantined otherwise.
    /// Holds only the maintenance mutex: readers *and writers* keep running,
    /// because every repair goes through the per-slot lock protocol
    /// ([`handle_corruption`](Self::handle_corruption)). After it returns,
    /// [`verify_integrity_report`](Hdnh::verify_integrity_report) is clean
    /// with respect to `checksum-match`.
    pub fn scrub(&self) -> ScrubReport {
        let span = obs::phase_enter(obs::Phase::Scrub);
        let _m = self.maintenance_lock();
        // Safety: the maintenance lock is held — the pointer cannot swap.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        let mut report = ScrubReport::default();
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                for slot in 0..SLOTS_PER_BUCKET {
                    let header = level.load_header(bucket);
                    if !header_slot_valid(header, slot) {
                        continue;
                    }
                    report.scanned += 1;
                    let rec = level.read_record(bucket, slot);
                    if slot_checksum_ok(header, slot, &rec) {
                        // The slot's own bytes are clean; a spill-flagged
                        // slot must additionally resolve to a CRC-valid log
                        // record (the damage may live in the value log).
                        if header_slot_spilled(header, slot) {
                            let resolves = VlogPtr::from_value(&rec.value)
                                .is_some_and(|ptr| self.vlog.verify(&ptr, &rec.key));
                            if !resolves {
                                if let Some(err) =
                                    self.quarantine_dangling_pointer(inner, li, bucket, slot)
                                {
                                    report.detected += 1;
                                    report.quarantined += 1;
                                    if report.errors.len() < ScrubReport::ERRORS_CAP {
                                        report.errors.push(err);
                                    }
                                }
                            }
                        }
                        continue;
                    }
                    let entry = ocf.load(bucket, slot);
                    // A mismatch seen while a writer holds the slot resolves
                    // under the slot lock: `handle_corruption` re-verifies
                    // and reports `None` (transient or superseded — media is
                    // fine) when the writer superseded it.
                    if let Some(err) = self.handle_corruption(inner, li, bucket, slot, entry) {
                        report.detected += 1;
                        if let HdnhError::Corruption { outcome, .. } = &err {
                            match outcome {
                                CorruptionOutcome::Repaired => report.repaired += 1,
                                CorruptionOutcome::Quarantined => report.quarantined += 1,
                            }
                        }
                        if report.errors.len() < ScrubReport::ERRORS_CAP {
                            report.errors.push(err);
                        }
                    }
                }
            }
        }
        obs::phase_record(obs::Phase::Scrub, span, report.scanned as u64);
        report
    }

    /// Fault-injection hook: XORs `mask` into byte `byte` (0-based within
    /// the 31-byte record) of `key`'s persisted record, bypassing the write
    /// path — simulating in-place media decay. Returns `None` when the key
    /// has no live NVM slot, otherwise whether the damage is *detectable*
    /// (the 7-bit checksum admits a 1/128 false-accept; deterministic tests
    /// must check this and pick a different mask on collision).
    ///
    /// Test/diagnostics support only — not part of the stable API.
    #[doc(hidden)]
    pub fn corrupt_record_for_test(&self, key: &Key, byte: usize, mask: u8) -> Option<bool> {
        let _m = self.maintenance_lock();
        // Safety: the maintenance lock is held — the pointer cannot swap.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        for li in 0..2 {
            let (level, _) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    if header_slot_valid(header, slot)
                        && level.read_record(bucket, slot).key == *key
                    {
                        level.region().corrupt(level.slot_off(bucket, slot) + byte, &[mask]);
                        let damaged = level.read_record(bucket, slot);
                        return Some(!slot_checksum_ok(header, slot, &damaged));
                    }
                }
            }
        }
        None
    }

    /// DRAM footprint of the OCF in bytes.
    pub fn ocf_footprint_bytes(&self) -> usize {
        let snap = self.pinned();
        snap.inner.ocf_top.footprint_bytes() + snap.inner.ocf_bottom.footprint_bytes()
    }

    // =================================================================
    // Probing
    // =================================================================

    /// Candidate buckets probed per level (4, or 2 in the 1-choice
    /// ablation).
    #[inline]
    fn n_candidates(&self) -> usize {
        if self.params.two_choice_segments {
            CANDIDATES_FULL
        } else {
            CANDIDATES_ONE_CHOICE
        }
    }

    /// Searches both levels; returns the located record. `writer` marks a
    /// generation-validated writer probe (see the corruption gate below);
    /// `saw` is told every entry the walk loads, as `(level, candidate,
    /// slot)` — a writer keeps the last one per slot, a reader none.
    ///
    /// A miss can be trusted: it is `Err(ProbeRaced)`, to be retried, when
    /// it overlapped an out-of-place update. A miss is only authoritative
    /// if no out-of-place update moved a record mid-probe. Missing both
    /// copies requires the new-slot read to precede the new commit and the
    /// old-slot read to follow the old clear; the writer bumps
    /// `relocations` strictly between those two stores, so the re-load is
    /// guaranteed to observe it (the old-slot load acquires the clearing
    /// release-store, which the bump is sequenced before). Readers and
    /// writers share this: a writer that trusted a raced miss would report
    /// a spurious `KeyNotFound`, or admit a duplicate insert.
    fn find(
        &self,
        key: &Key,
        probe: &Probe,
        writer: bool,
        mut saw: impl FnMut((usize, usize, usize), u16),
    ) -> Result<Option<Located>, ProbeRaced> {
        let (inner, h) = (probe.inner, &probe.h);
        let reloc0 = self.relocations.load(Ordering::SeqCst);
        // Slots the fingerprint filter answered without a media read are
        // tallied locally and recorded once per probe: bumping the shared
        // counter per slot would be up to 64 locked RMWs on a miss.
        let mut short_circuits = 0u64;
        let mut backoff = Backoff::new();
        let found = 'walk: {
            for li in 0..2 {
                let (level, ocf) = inner.level(li);
                for (ci, &bucket) in probe.buckets(li).iter().enumerate() {
                    'slot: for slot in 0..SLOTS_PER_BUCKET {
                        loop {
                            let e = ocf.load(bucket, slot);
                            saw((li, ci, slot), e);
                            if !ocf::is_valid(e) && !ocf::is_busy(e) {
                                continue 'slot;
                            }
                            if ocf::is_busy(e) {
                                // A writer may be materialising this very key;
                                // wait for it to settle.
                                backoff.wait();
                                continue;
                            }
                            // The OCF fingerprint filter (§3.2): a mismatch
                            // proves the slot cannot hold the key — no NVM read.
                            // With the filter disabled (ablation) every valid
                            // slot costs a media read, like Level hashing.
                            if self.params.enable_ocf && ocf::fp(e) != h.fp {
                                short_circuits += 1;
                                continue 'slot;
                            }
                            let rec = level.read_record(bucket, slot);
                            // Header load is uncharged: the 256 B media block
                            // fetched for the record read already holds it.
                            let header = level.load_header_cached(bucket);
                            if !ocf.revalidate(bucket, slot, e) {
                                obs::count(obs::Counter::SeqlockReadRetry);
                                continue; // concurrent writer: retry this slot
                            }
                            // The version was stable across both loads, so a
                            // checksum mismatch cannot be a racing writer — it
                            // is media damage. Never serve the bytes (§ media
                            // errors, DESIGN.md §10): repair or quarantine,
                            // then treat the slot as a miss.
                            if header_slot_valid(header, slot) && !slot_checksum_ok(header, slot, &rec)
                            {
                                // Repair gate: a reader on a snapshot whose
                                // generation no longer matches may be racing a
                                // resize migration or an integrity pause —
                                // mutating the old levels then could lose the
                                // repaired record or corrupt the audit. Defer
                                // (miss this slot); a later probe on the fresh
                                // snapshot repairs it. Validated writers are
                                // always pre-drain (the maintainer waits on
                                // their pin), so they repair unconditionally.
                                if !writer
                                    && self.generation.load(Ordering::SeqCst) != inner.generation
                                {
                                    continue 'slot;
                                }
                                self.handle_corruption(inner, li, bucket, slot, e);
                                continue; // re-probe: repaired slots re-match
                            }
                            if rec.key == *key {
                                if self.params.enable_ocf {
                                    obs::count(obs::Counter::OcfTrueMatch);
                                }
                                break 'walk Some(Located {
                                    li,
                                    bucket,
                                    slot,
                                    entry: e,
                                    value: rec.value,
                                    spilled: header_slot_spilled(header, slot),
                                });
                            }
                            // Fingerprint matched but the key differs: the NVM
                            // read above was wasted (the 1/256 false-positive
                            // cost the paper budgets for).
                            if self.params.enable_ocf {
                                obs::count(obs::Counter::OcfFalsePositive);
                            }
                            continue 'slot;
                        }
                    }
                }
            }
            None
        };
        if short_circuits != 0 {
            obs::add(obs::Counter::OcfNegativeShortCircuit, short_circuits);
        }
        if found.is_none() && self.relocations.load(Ordering::SeqCst) != reloc0 {
            obs::count(obs::Counter::SnapshotRetry);
            return Err(ProbeRaced);
        }
        Ok(found)
    }

    /// A generation-validated writer's probe: searches and write-locks the
    /// key's slot, retrying raced misses in place (the writer's pin keeps
    /// the snapshot current). `Some(..)` holds the lock; the pre-lock entry
    /// is inside. `None` is a validated miss, and leaves in `seen` the
    /// entry that ruled each candidate slot out.
    fn find_and_lock(&self, key: &Key, probe: &Probe, seen: &mut Witness) -> Option<Located> {
        let mut backoff = Backoff::new();
        loop {
            let found = self.find(key, probe, true, |(li, ci, slot), e| seen[li][ci][slot] = e);
            let Ok(found) = found else { continue };
            let loc = found?;
            let (_, ocf) = probe.inner.level(loc.li);
            match ocf.try_lock_at(loc.bucket, loc.slot, loc.entry) {
                LockOutcome::Locked(_) => return Some(loc),
                // Entry changed: the record may have moved or been deleted;
                // rescan from scratch.
                LockOutcome::Contended | LockOutcome::Mismatch => backoff.wait(),
            }
        }
    }

    /// Handles a seqlock-stable checksum mismatch at `(li, bucket, slot)`:
    /// the persisted record no longer matches the checksum committed with
    /// it. Locks the slot, re-verifies under the lock (a transient device
    /// read error heals itself and needs no repair), then either rewrites
    /// the record from the clean DRAM hot-table copy (**repair**) or clears
    /// the valid bit so the damaged bytes can never be served again
    /// (**quarantine**). Returns what was done, or `None` when a concurrent
    /// writer superseded the damaged bytes first.
    ///
    /// Repair is gated on the OCF fingerprint — a DRAM-held witness of the
    /// true key — still matching the damaged record's key bytes: if the
    /// damage hit the key, the fingerprint disagrees with probability
    /// 255/256 and the slot is quarantined rather than rebuilt under a
    /// forged key.
    fn handle_corruption(
        &self,
        inner: &Inner,
        li: usize,
        bucket: usize,
        slot: usize,
        entry: u16,
    ) -> Option<HdnhError> {
        obs::count(obs::Counter::CorruptionDetected);
        let (level, ocf) = inner.level(li);
        let LockOutcome::Locked(pre) = ocf.try_lock_at(bucket, slot, entry) else {
            return None;
        };
        let rec = level.read_record(bucket, slot);
        let header = level.load_header_cached(bucket);
        if !header_slot_valid(header, slot) || slot_checksum_ok(header, slot, &rec) {
            ocf.abort(bucket, slot, pre);
            return None;
        }
        let h = KeyHashes::of(&rec.key);
        let hot_copy = inner.hot.as_ref().and_then(|hot| {
            (h.fp == ocf::fp(pre))
                .then(|| hot.search(&rec.key, h.h1, h.h2, h.fp))
                .flatten()
        });
        let outcome = if let Some(value) = hot_copy {
            let clean = Record::new(rec.key, value);
            // The hot table caches the slot's 15 value bytes verbatim —
            // for a spilled slot that is the packed value-log pointer — so
            // the repair must re-commit the *old header's* spill flag, not
            // re-derive it from the bytes.
            let spilled = header_slot_spilled(header, slot);
            level.write_record(bucket, slot, &clean);
            level.commit_slot_valid(bucket, slot, slot_meta(&clean, spilled));
            ocf.commit(bucket, slot, pre, true, h.fp);
            obs::count(obs::Counter::CorruptionRepaired);
            CorruptionOutcome::Repaired
        } else {
            level.commit_slot_invalid(bucket, slot);
            ocf.commit(bucket, slot, pre, false, 0);
            self.count.fetch_sub(1, Ordering::Relaxed);
            obs::count(obs::Counter::CorruptionQuarantined);
            CorruptionOutcome::Quarantined
        };
        Some(HdnhError::Corruption {
            level: li,
            bucket,
            slot,
            outcome,
        })
    }

    /// Quarantines a spill-flagged slot whose pointer no longer resolves to
    /// a CRC-valid log record carrying its key. The slot bytes themselves
    /// checksum clean — the damage lives in the value log — so there is
    /// nothing to repair from: the hot table caches the pointer, not the
    /// payload. Locks the slot, re-verifies under the lock (a concurrent
    /// overwrite or GC relocation may have superseded the stale pointer),
    /// then clears the valid bit. `None` when the slot healed.
    fn quarantine_dangling_pointer(
        &self,
        inner: &Inner,
        li: usize,
        bucket: usize,
        slot: usize,
    ) -> Option<HdnhError> {
        let (level, ocf) = inner.level(li);
        let entry = ocf.load(bucket, slot);
        let LockOutcome::Locked(pre) = ocf.try_lock_at(bucket, slot, entry) else {
            return None;
        };
        let header = level.load_header_cached(bucket);
        let rec = level.read_record(bucket, slot);
        let still_dangling = header_slot_valid(header, slot)
            && header_slot_spilled(header, slot)
            && !VlogPtr::from_value(&rec.value)
                .is_some_and(|ptr| self.vlog.verify(&ptr, &rec.key));
        if !still_dangling {
            ocf.abort(bucket, slot, pre);
            return None;
        }
        obs::count(obs::Counter::CorruptionDetected);
        if let Some(hot) = &inner.hot {
            let h = KeyHashes::of(&rec.key);
            hot.delete(&rec.key, h.h1, h.h2, h.fp);
        }
        level.commit_slot_invalid(bucket, slot);
        ocf.commit(bucket, slot, pre, false, 0);
        self.count.fetch_sub(1, Ordering::Relaxed);
        obs::count(obs::Counter::CorruptionQuarantined);
        Some(HdnhError::Corruption {
            level: li,
            bucket,
            slot,
            outcome: CorruptionOutcome::Quarantined,
        })
    }

    // =================================================================
    // Hot-table dispatch (synchronous write mechanism, §3.4)
    // =================================================================

    /// Starts the hot-table half of a write. Returns a waiter to invoke
    /// after the NVM half committed.
    fn begin_hot_write<'a>(
        &self,
        probe: &Probe<'a>,
        op: impl FnOnce(HotBuckets) -> HotOp,
    ) -> HotWrite<'a> {
        match (probe.hot, &self.sync) {
            (Some((hot, at)), Some(pool)) => {
                fault::point("hot.dispatched");
                HotWrite::Pending(pool.dispatch(hot, op(at)))
            }
            (Some((hot, at)), None) => HotWrite::Inline(hot, op(at)),
            (None, _) => HotWrite::None,
        }
    }

    fn finish_hot_write(w: HotWrite) {
        match w {
            HotWrite::Pending(handle) => {
                fault::point("hot.wait_completed");
                handle.wait()
            }
            HotWrite::Inline(hot, op) => RAFL_RNG.with(|r| op.apply(hot, &mut r.borrow_mut())),
            HotWrite::None => {}
        }
    }

    // =================================================================
    // Public operations
    // =================================================================

    /// Point lookup (§3.5, figure 8): hot table → OCF fingerprints → NVM.
    /// Lock-free: one epoch pin and a generation validation; retries only
    /// across a concurrent resize. The error channel is reserved for future
    /// system-level failures — today's miss is `Ok(None)`.
    pub fn get(&self, key: &Key) -> Result<Option<Value>, HdnhError> {
        let t = obs::op_start();
        #[cfg(debug_assertions)]
        let _read_path = ReadPathGuard::enter();
        let out = self.get_inner(key);
        obs::op_record(obs::OpKind::Get, t);
        Ok(out)
    }

    fn get_inner(&self, key: &Key) -> Option<Value> {
        let h = KeyHashes::of(key);
        loop {
            let snap = self.pinned();
            let inner = snap.inner;
            let probe = inner.probe(&h, self.n_candidates());
            if let Some((hot, at)) = probe.hot {
                if let Some(v) = hot.search_at(key, at, h.fp) {
                    return Some(v);
                }
            }
            let found = self.find(key, &probe, false, |_, _| {});
            // Validate after the probe: an unchanged generation (or the
            // odd writer-exclusion value, under which nothing can commit)
            // proves the snapshot answered consistently. Otherwise a
            // resize swapped the levels mid-probe — retry on the fresh
            // snapshot.
            let now = self.generation.load(Ordering::SeqCst);
            if now != inner.generation && now != inner.generation + 1 {
                obs::count(obs::Counter::SnapshotRetry);
                continue;
            }
            let loc = match found {
                Ok(Some(loc)) => loc,
                Ok(None) => return None,
                Err(ProbeRaced) => continue,
            };
            // Cache-miss promotion: "the items can be inserted to the hot
            // table again when these items are searched next time" (§3.3).
            // Done under the slot's busy bit so it serializes with any
            // writer of this key: writers update the hot copy while holding
            // the same lock, so a promotion can never overwrite a newer hot
            // value with the stale one we just read. A failed lock means a
            // writer superseded the slot — its own hot write covers us.
            if let Some((hot, at)) = probe.hot {
                let (_, ocf) = inner.level(loc.li);
                if let LockOutcome::Locked(pre) = ocf.try_lock_at(loc.bucket, loc.slot, loc.entry)
                {
                    RAFL_RNG.with(|r| {
                        hot.put_at(&Record::new(*key, loc.value), at, h.fp, &mut r.borrow_mut())
                    });
                    ocf.abort(loc.bucket, loc.slot, pre);
                }
            }
            return Some(loc.value);
        }
    }

    /// Inserts a new record (figure 9). Reports
    /// [`HdnhError::DuplicateKey`] when the key is already present.
    pub fn insert(&self, key: &Key, value: &Value) -> Result<(), HdnhError> {
        let t = obs::op_start();
        let out = self.store(key, value, false, Accept::Absent);
        obs::op_record(obs::OpKind::Insert, t);
        out.map(|_| ())
    }

    /// Replaces the value of an existing key (figure 10). Reports
    /// [`HdnhError::KeyNotFound`] when the key is absent.
    pub fn update(&self, key: &Key, value: &Value) -> Result<(), HdnhError> {
        let t = obs::op_start();
        let out = self.store(key, value, false, Accept::Present);
        obs::op_record(obs::OpKind::Update, t);
        // Overwriting a spilled value orphans its log entry.
        Self::tombstone_old(&self.vlog, out?);
        Ok(())
    }

    /// Removes a key. Returns `Ok(true)` if it was present. A spilled
    /// value's log entry is tombstoned for the compactor to reclaim.
    pub fn remove(&self, key: &Key) -> Result<bool, HdnhError> {
        let t = obs::op_start();
        let out = self.write_with(key, |old| {
            old.inspect(|_| fault::point("remove.old_locked"));
            Ok(Decision::Remove)
        });
        obs::op_record(obs::OpKind::Remove, t);
        let old = out?;
        Self::tombstone_old(&self.vlog, old);
        Ok(old.is_some())
    }

    /// The fixed-value writes: stores `value` if the key is in a state
    /// `accept` takes. `spilled` marks the value bytes as a packed
    /// value-log pointer. Returns the replaced `(value, spilled)` pair so
    /// callers can tombstone a spilled old value's log entry.
    pub(crate) fn store(
        &self,
        key: &Key,
        value: &Value,
        spilled: bool,
        accept: Accept,
    ) -> Result<Option<(Value, bool)>, HdnhError> {
        self.write_with(key, |old| match (old, accept) {
            (Some(_), Accept::Absent) => Err(HdnhError::DuplicateKey),
            (None, Accept::Present) => Err(HdnhError::KeyNotFound),
            _ => {
                old.inspect(|_| fault::point("update.old_locked"));
                Ok(Decision::Put { value: *value, spilled, refresh_only: false })
            }
        })
    }

    /// The value-log compactor's relocation of one live record, in a
    /// single probe (DESIGN.md §17): lock `key`'s slot through the writer
    /// probe; compare the slot's pointer with `old` under the lock; only
    /// on a match append `image` (the record's verified bytes, carrying a
    /// `payload_len`-byte payload) and swap the new pointer in out of
    /// place. Returns the new pointer, or `None` when the slot no longer
    /// names `old` — final, since a log pointer is published once: the
    /// record was overwritten or removed, nothing was appended and there
    /// is nothing to orphan.
    ///
    /// The hot table is refreshed, not filled: a cached copy of the old
    /// pointer is rewritten, but a record nobody read is not promoted for
    /// being moved.
    pub(crate) fn relocate_spilled(
        &self,
        key: &Key,
        old: &VlogPtr,
        image: &[u8],
        payload_len: usize,
    ) -> Result<Option<VlogPtr>, HdnhError> {
        let expect = old.to_value();
        // Appended at most once; the ticket outlives the publish. Kept
        // across a retry: a full bucket sends the write through a resize
        // and back under a fresh lock, where the guard is checked again.
        let mut appended = None;
        let swapped = self.write_with(key, |old| {
            old.inspect(|_| fault::point("update.old_locked"));
            if old != Some((expect, true)) {
                return Ok(Decision::Keep);
            }
            let (ptr, _ticket) = match &appended {
                Some(once) => once,
                None => appended.insert(self.vlog.append_image(image, payload_len)?),
            };
            Ok(Decision::Put { value: ptr.to_value(), spilled: true, refresh_only: true })
        });
        match (appended, swapped) {
            (Some((ptr, _ticket)), Ok(Some(_))) => Ok(Some(ptr)),
            // Absent, superseded, or the append itself failed — or appended
            // before a resize and superseded (or failed) after it: that
            // copy was never published.
            (appended, not_swapped) => {
                if let Some((ptr, _ticket)) = &appended {
                    self.vlog.mark_garbage(ptr);
                }
                not_swapped.map(|_| None)
            }
        }
    }

    /// The write protocol (figures 9 & 10; module docs), once for every
    /// operation: one pin, one hash, one address-first probe, one
    /// search-and-lock, then `decide` — shown the key's old
    /// `(value, spilled)` pair, stable under the slot lock, or `None` after
    /// a validated miss — says what to do. Returns the pair the write
    /// replaced or removed: `None` when the key was absent or kept.
    /// `decide` runs again whenever the attempt starts over: after growing
    /// a table with no room for the record, or after backing off from a
    /// rival writer of the same absent key.
    fn write_with(
        &self,
        key: &Key,
        mut decide: impl FnMut(Option<(Value, bool)>) -> Result<Decision, HdnhError>,
    ) -> Result<Option<(Value, bool)>, HdnhError> {
        let h = KeyHashes::of(key);
        let mut backoff = Backoff::new();
        'attempt: loop {
            let gen = 'pinned: {
                let (snap, gen) = self.pin_for_write();
                let probe = snap.inner.probe(&h, self.n_candidates());
                let mut seen = Witness::default();
                let found = self.find_and_lock(key, &probe, &mut seen);
                let old = found.as_ref();
                let replaced = old.map(|o| (o.value, o.spilled));
                match (decide(replaced), old) {
                    (Ok(Decision::Put { value, spilled, refresh_only }), _) => {
                        let Some(new) = probe.claim_empty(old, value, spilled) else {
                            // Every candidate bucket full in both levels: grow.
                            old.inspect(|o| probe.unlock(o));
                            break 'pinned gen;
                        };
                        if old.is_none() && !probe.unchanged_since(&seen, &new) {
                            // A rival is placing this key: give way, look again.
                            probe.unlock(&new);
                            backoff.wait();
                            continue 'attempt;
                        }
                        self.place(&probe, key, old, &new, refresh_only);
                    }
                    (Ok(Decision::Remove), Some(o)) => {
                        let (level, ocf) = probe.inner.level(o.li);
                        let hot = self.begin_hot_write(&probe, |at| HotOp::Delete {
                            key: *key,
                            at,
                            fp: h.fp,
                        });
                        level.commit_slot_invalid(o.bucket, o.slot);
                        fault::point("remove.bitmap_cleared");
                        ocf.commit(o.bucket, o.slot, o.entry, false, 0);
                        fault::point("remove.published");
                        Self::finish_hot_write(hot);
                        self.count.fetch_sub(1, Ordering::Relaxed);
                    }
                    (declined, _) => {
                        old.inspect(|o| probe.unlock(o));
                        return declined.map(|_| None);
                    }
                }
                return Ok(replaced);
            }; // pin dropped here: the resize drain must not wait on us
            self.resize(gen)?;
        }
    }

    /// Figure 9 and figure 10 from where they are the same: writes the
    /// record into `new`, a claimed empty slot, commits and publishes it,
    /// and retires `old`, the key's locked slot, if it had one.
    ///
    /// The hot-table half starts once the slot is held, overlapping the
    /// NVM write, and always completes BEFORE the OCF publish: the moment
    /// the new slot is visible another writer can claim the key and write
    /// its own hot copy, which a hot write finishing later would overwrite
    /// with this, by then stale, one.
    fn place(
        &self,
        probe: &Probe,
        key: &Key,
        old: Option<&Located>,
        new: &Located,
        refresh_only: bool,
    ) {
        let (level, ocf) = probe.inner.level(new.li);
        // Same bucket: both bitmap bits flip in ONE atomic store (figure
        // 10c). Another bucket: two atomic commits.
        let swap = old.is_some_and(|o| (o.li, o.bucket) == (new.li, new.bucket));
        let [written, committed, published] = match old {
            None => ["insert.record_written", "insert.bitmap_committed", "insert.published"],
            Some(_) if swap => ["update.new_written", "update.swap_committed", "update.published"],
            Some(_) => [
                "update.fallback.new_written",
                "update.fallback.new_committed",
                "update.fallback.published",
            ],
        };
        if old.is_none() {
            fault::point("insert.slot_locked");
        }
        let rec = Record::new(*key, new.value);
        let (ck, fp) = (slot_meta(&rec, new.spilled), probe.h.fp);
        let hot = self.begin_hot_write(probe, |at| match refresh_only {
            true => HotOp::Refresh { rec, at, fp },
            false => HotOp::Put { rec, at, fp },
        });
        // The record is persisted while invisible.
        level.write_record(new.bucket, new.slot, &rec);
        fault::point(written);
        let Some(old) = old else {
            // The failure-atomic commit: valid bit and record checksum in
            // one store. Then publish in DRAM, releasing the lock.
            level.commit_slot_valid(new.bucket, new.slot, ck);
            fault::point(committed);
            Self::finish_hot_write(hot);
            ocf.commit(new.bucket, new.slot, new.entry, true, fp);
            fault::point(published);
            self.count.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let (old_level, old_ocf) = probe.inner.level(old.li);
        Self::finish_hot_write(hot);
        if swap {
            level.commit_slot_swap(new.bucket, old.slot, new.slot, ck);
        } else {
            // The double-copy window: both versions are bitmap-valid until
            // the old slot is cleared below; recovery dedupes it.
            level.commit_slot_valid(new.bucket, new.slot, ck);
        }
        fault::point(committed);
        ocf.commit(new.bucket, new.slot, new.entry, true, fp);
        // Bumped strictly between publishing the new copy and retiring the
        // old one: a reader that missed the new slot (read before the line
        // above) and the old slot (read after the commit below) observes
        // the bump and retries.
        self.relocations.fetch_add(1, Ordering::SeqCst);
        if !swap {
            old_level.commit_slot_invalid(old.bucket, old.slot);
            fault::point("update.fallback.old_cleared");
        }
        old_ocf.commit(old.bucket, old.slot, old.entry, false, 0);
        fault::point(published);
    }

    // =================================================================
    // Variable-length values (DESIGN.md §17)
    // =================================================================

    /// Tombstones the log entry behind a replaced or removed slot value.
    fn tombstone_old(vlog: &Vlog, old: Option<(Value, bool)>) {
        if let Some((old, true)) = old {
            if let Some(ptr) = VlogPtr::from_value(&old) {
                vlog.mark_garbage(&ptr);
            }
        }
    }

    /// Makes `payload` ready for a slot. Payloads up to the configured
    /// inline budget become the slot's 15 value bytes — the paper-faithful
    /// fast path, unchanged in cost; larger ones are appended (and
    /// persisted) to the value log *first* and become a packed pointer,
    /// committed under the header's spill bit, so a crash between the two
    /// leaves at worst an unreferenced log record.
    fn stage_bytes(&self, key: &Key, payload: &[u8]) -> Result<StagedValue, HdnhError> {
        if payload.len() <= self.params.vlog_inline_max {
            obs::count(obs::Counter::VlogInlineWrites);
            return Ok(StagedValue {
                value: vlog::encode_inline(payload),
                appended: None,
            });
        }
        obs::count(obs::Counter::VlogSpillWrites);
        let (ptr, ticket) = self.vlog.append_ticketed(key, payload)?;
        Ok(StagedValue {
            value: ptr.to_value(),
            appended: Some((ptr, ticket)),
        })
    }

    /// Closes a staged write: a log record whose publish failed was never
    /// referenced, so it is orphaned on the spot.
    fn settle<T>(&self, staged: StagedValue, out: Result<T, HdnhError>) -> Result<T, HdnhError> {
        if let (Err(_), Some((ptr, _ticket))) = (&out, &staged.appended) {
            self.vlog.mark_garbage(ptr);
        }
        out
    }

    /// The bytes writes: `payload` is staged once — inline in the slot when
    /// it fits, otherwise in the value log with the slot holding its
    /// pointer — and stored if the key is in a state `accept` takes. The
    /// old value's log entry, if spilled, is tombstoned.
    fn store_bytes(&self, key: &Key, payload: &[u8], accept: Accept) -> Result<(), HdnhError> {
        let staged = self.stage_bytes(key, payload)?;
        let out = self.store(key, &staged.value, staged.appended.is_some(), accept);
        Self::tombstone_old(&self.vlog, self.settle(staged, out)?);
        Ok(())
    }

    /// Stores `payload` under `key` (insert semantics): inline in the slot
    /// when it fits, otherwise in the value log with the slot holding its
    /// pointer.
    pub fn insert_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Absent)
    }

    /// Replaces `key`'s value with `payload` (update semantics). The old
    /// value's log entry, if spilled, is tombstoned.
    pub fn update_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Present)
    }

    /// Insert-or-replace in one call (the RESP `SET` semantics), in one
    /// probe: whether the key turns out present or absent, the one staged
    /// record is what gets published.
    pub fn upsert_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Either)
    }

    /// Fetches `key`'s value as bytes. Inline values decode from the slot;
    /// spilled values are read (and CRC-verified) from the value log. A
    /// pointer into a segment the compactor retired mid-read re-probes the
    /// index — the relocated pointer is already published before a segment
    /// disappears — so readers never block on (or race destructively with)
    /// the GC. A pointer that keeps naming an unmapped segment is dangling
    /// and surfaces as [`HdnhError::VlogCorruption`] rather than a spin.
    pub fn get_bytes(&self, key: &Key) -> Result<Option<Vec<u8>>, HdnhError> {
        // Each legitimate retry needs a whole compaction pass to retire
        // the freshly re-probed segment in the gap between probe and read.
        const RETIRED_SEGMENT_RETRIES: usize = 64;
        let mut retries = 0;
        loop {
            let Some(v) = self.get(key)? else { return Ok(None) };
            if let Some(ptr) = VlogPtr::from_value(&v) {
                match self.vlog.read(&ptr, key)? {
                    Some(payload) => return Ok(Some(payload)),
                    // Segment retired between the index probe and the log
                    // read: the GC already republished the pointer.
                    None if retries < RETIRED_SEGMENT_RETRIES => {
                        retries += 1;
                        std::thread::yield_now();
                        continue;
                    }
                    None => {
                        return Err(HdnhError::VlogCorruption {
                            segment: ptr.segment,
                            offset: ptr.offset,
                        })
                    }
                }
            }
            return Ok(Some(match vlog::decode_inline(&v) {
                Some(p) => p.to_vec(),
                // Not written through the bytes API (a fixed 15-byte value
                // whose first byte exceeds the inline budget): surface the
                // raw slot bytes rather than guessing at an encoding.
                None => v.0.to_vec(),
            }));
        }
    }

    /// Handle to the value log (spilled-value storage).
    pub fn vlog(&self) -> &Arc<Vlog> {
        &self.vlog
    }

    /// Value-log occupancy and last-GC statistics.
    pub fn vlog_stats(&self) -> vlog::VlogStats {
        self.vlog.stats()
    }

    /// Recovery pass: walks every live spill-flagged slot, verifies its
    /// pointer resolves to a CRC-valid log record, quarantines danglers
    /// (a pointer published without its log record is a torn pre-ack
    /// write — §15's model never acks it), and installs per-segment
    /// live-byte accounting into the value log. Runs once, before the
    /// recovered table serves traffic. Returns the quarantined count.
    pub(crate) fn rebuild_vlog_index(&self) -> usize {
        use std::collections::BTreeMap;
        let _m = self.maintenance_lock();
        // Safety: the maintenance lock is held — the pointer cannot swap.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        let mut live: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut quarantined = 0usize;
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    if !header_slot_valid(header, slot) || !header_slot_spilled(header, slot) {
                        continue;
                    }
                    let rec = level.read_record(bucket, slot);
                    let resolved = VlogPtr::from_value(&rec.value)
                        .filter(|ptr| self.vlog.verify(ptr, &rec.key));
                    match resolved {
                        Some(ptr) => {
                            let fp = vlog::segment::footprint(ptr.len as usize) as u64;
                            let end = ptr.offset as u64 + fp;
                            let e = live.entry(ptr.segment).or_insert((0, 0));
                            e.0 += fp;
                            e.1 = e.1.max(end);
                        }
                        None => {
                            obs::count(obs::Counter::CorruptionDetected);
                            obs::count(obs::Counter::CorruptionQuarantined);
                            if let Some(hot) = &inner.hot {
                                let h = KeyHashes::of(&rec.key);
                                hot.delete(&rec.key, h.h1, h.h2, h.fp);
                            }
                            level.commit_slot_invalid(bucket, slot);
                            ocf.install(bucket, slot, false, 0);
                            self.count.fetch_sub(1, Ordering::Relaxed);
                            quarantined += 1;
                        }
                    }
                }
            }
        }
        self.vlog.finish_recovery(&live);
        quarantined
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupied fraction of all NVM slots.
    pub fn load_factor(&self) -> f64 {
        let total = self.pinned().inner.total_slots();
        self.len() as f64 / total as f64
    }

    pub(crate) fn set_count(&self, n: usize) {
        self.count.store(n, Ordering::Relaxed);
    }

    // =================================================================
    // Resizing (§3.7)
    // =================================================================

    fn resize(&self, observed_gen: u64) -> Result<(), HdnhError> {
        let _m = self.maintenance_lock();
        if self.generation.load(Ordering::SeqCst) != observed_gen {
            return Ok(()); // someone else already grew the table
        }
        // Writer-exclusion phase: publish the odd generation, then drain
        // the epoch. New writers spin in `pin_for_write`; in-flight pinned
        // operations finish before `drain` returns, so migration reads a
        // quiescent pair of levels. (Readers pinned during migration keep
        // running — the old levels are only ever *copied from*.)
        self.generation.store(observed_gen + 1, Ordering::SeqCst);
        let mut unwind = GenRestore {
            gen: &self.generation,
            value: observed_gen,
            armed: true,
        };
        epoch::drain();
        // Safety: the maintenance lock is held — no other thread swaps or
        // frees the pointer.
        let old: &Inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        // The retiring bottom level's pool file becomes garbage once the
        // swap publishes; remember it so it can be unlinked afterwards.
        let retired_file = old.bottom.region().file_path().map(|p| p.to_path_buf());
        let next = self.perform_resize(old, observed_gen + 2)?;
        let old_ptr = self
            .current
            .swap(Box::into_raw(Box::new(next)), Ordering::SeqCst);
        unwind.armed = false;
        self.generation.store(observed_gen + 2, Ordering::SeqCst);
        self.resizes.fetch_add(1, Ordering::Relaxed);
        // The migrated level is now reachable from `current`; stop
        // surfacing it to `into_pool` separately.
        *self.pending_new_top.lock() = None;
        // Wait out readers still probing the old snapshot, then free it.
        epoch::drain();
        // Safety: the pointer was unpublished above and every pin that
        // could have loaded it has since been observed quiescent.
        drop(unsafe { Box::from_raw(old_ptr) });
        // Safe to unlink only now: the post-swap Stable state is persisted,
        // so no recovery will look for this region. Best-effort — a leaked
        // file is caught by the orphan sweep on the next pool open.
        if let Some(path) = retired_file {
            let _ = std::fs::remove_file(&path);
            hdnh_nvm::shadow::remove_sidecar(&path);
        }
        Ok(())
    }

    /// Full resize under the maintenance lock: builds and returns the
    /// successor snapshot (the caller publishes it). A pool-file
    /// allocation failure rolls the persisted state machine back to
    /// `Stable` (nothing was migrated yet) and surfaces as `Io`.
    fn perform_resize(&self, old: &Inner, new_generation: u64) -> Result<Inner, HdnhError> {
        let bps = self.params.segment_bytes / BUCKET_BYTES;
        let new_top_segments = old.top.n_segments() * 2;

        // Phase 1 — "apply for a new level" (level number 2). The planned
        // size is persisted first so recovery can always re-allocate.
        let span = obs::phase_enter(obs::Phase::ResizeAllocate);
        self.meta.set_new_top_segments(new_top_segments);
        fault::point("resize.planned");
        self.meta.set_state(ResizeState::Allocating);
        fault::point("resize.allocating");
        let new_top = match Level::try_new(new_top_segments, bps, &self.params.nvm) {
            Ok(l) => l,
            Err(e) => {
                self.meta.set_state(ResizeState::Stable);
                return Err(e);
            }
        };
        let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
        // Keep the new level reachable from the table while migration runs:
        // a crash (unwind) anywhere before the pointer swap must surface
        // its region to `into_pool`, exactly as a real NVM allocation would
        // survive. `resize` clears this after publishing the snapshot.
        *self.pending_new_top.lock() = Some((new_top.clone(), Ocf::new(0, SLOTS_PER_BUCKET)));
        fault::point("resize.allocated");
        obs::phase_record(obs::Phase::ResizeAllocate, span, new_top.n_slots() as u64);

        // Phase 2 — rehash bottom-level items into the new top (level 3).
        let span = obs::phase_enter(obs::Phase::ResizeRehash);
        self.meta.set_state(ResizeState::Rehashing);
        self.meta.set_rehash_progress(Some(0));
        fault::point("resize.rehashing");
        let (moved, dropped) = Self::migrate(
            &old.bottom,
            &new_top,
            &new_ocf,
            0,
            false,
            &self.meta,
            self.n_candidates(),
        );
        if dropped > 0 {
            // Quarantined-by-omission records leave the table with the level.
            self.count.fetch_sub(dropped, Ordering::Relaxed);
        }
        obs::phase_record(obs::Phase::ResizeRehash, span, moved as u64);

        // Phase 3 — swap levels, publish geometry, return to stable.
        let span = obs::phase_enter(obs::Phase::ResizeSwap);
        let next = self.finalize_swap(old, new_top, new_ocf, new_generation);
        obs::phase_record(obs::Phase::ResizeSwap, span, 0);
        Ok(next)
    }

    /// Moves every valid record in `from` buckets `[start..]` into `to`,
    /// updating the persisted progress cursor per bucket. With `dup_check`
    /// (recovery resume), records already present in `to` are skipped.
    /// Every record is checksum-verified before it moves: damaged slots
    /// are dropped (the old level is discarded after the swap, so omission
    /// quarantines them) and counted in the second return value. Returns
    /// `(moved, dropped)`.
    pub(crate) fn migrate(
        from: &Level,
        to: &Level,
        to_ocf: &Ocf,
        start: usize,
        dup_check: bool,
        meta: &Meta,
        candidates: usize,
    ) -> (usize, usize) {
        let mut moved = 0usize;
        let mut dropped = 0usize;
        for b in start..from.n_buckets() {
            let (header, recs) = from.read_bucket(b);
            for (slot, rec) in recs.iter().enumerate() {
                if header & (1 << slot) == 0 {
                    continue;
                }
                if !slot_checksum_ok(header, slot, rec) {
                    // Never propagate damaged bytes into the new level.
                    obs::count(obs::Counter::CorruptionDetected);
                    obs::count(obs::Counter::CorruptionQuarantined);
                    dropped += 1;
                    continue;
                }
                let h = KeyHashes::of(&rec.key);
                if dup_check && Self::find_in_level(to, to_ocf, &rec.key, &h, candidates).is_some() {
                    continue;
                }
                // Carry the source header's spill flag — the value bytes of
                // a spilled record are a value-log pointer and must stay
                // flagged as one in the new level.
                Self::insert_into_level(
                    to,
                    to_ocf,
                    rec,
                    &h,
                    candidates,
                    header_slot_spilled(header, slot),
                );
                moved += 1;
                fault::point("resize.record_migrated");
            }
            // Paper: record the migrated bucket index so a crash resumes at
            // the next bucket.
            meta.set_rehash_progress(Some(b + 1));
            fault::point("resize.bucket_migrated");
        }
        (moved, dropped)
    }

    /// Single-threaded insert used by resize/recovery (same persistence
    /// ordering as the concurrent path).
    pub(crate) fn insert_into_level(
        level: &Level,
        ocf: &Ocf,
        rec: &Record,
        h: &KeyHashes,
        candidates: usize,
        spilled: bool,
    ) {
        for bucket in level.candidates(h).into_iter().take(candidates) {
            for slot in 0..SLOTS_PER_BUCKET {
                if let LockOutcome::Locked(pre) = ocf.try_lock_empty(bucket, slot) {
                    level.write_record(bucket, slot, rec);
                    fault::point("migrate.record_written");
                    level.commit_slot_valid(bucket, slot, slot_meta(rec, spilled));
                    fault::point("migrate.slot_committed");
                    ocf.commit(bucket, slot, pre, true, h.fp);
                    return;
                }
            }
        }
        // 2× growth leaves the target at <1/6 load; overflowing all 32
        // candidate slots is not a reachable state.
        unreachable!("resize target level overflowed");
    }

    pub(crate) fn find_in_level(
        level: &Level,
        ocf: &Ocf,
        key: &Key,
        h: &KeyHashes,
        candidates: usize,
    ) -> Option<(usize, usize)> {
        for bucket in level.candidates(h).into_iter().take(candidates) {
            for slot in 0..SLOTS_PER_BUCKET {
                let e = ocf.load(bucket, slot);
                if !ocf::is_valid(e) || ocf::fp(e) != h.fp {
                    continue;
                }
                if level.read_record(bucket, slot).key == *key {
                    return Some((bucket, slot));
                }
            }
        }
        None
    }

    /// Phase-3 swap shared by resize and recovery-resume.
    ///
    /// Persistent commit order after the in-DRAM swap: geometry, then
    /// cursor, then state. Recovery distinguishes every intermediate
    /// window: a crash with the swap done but `Stable` unwritten is
    /// detected either by `top_segments == new_top_segments` (geometry
    /// already published — only this code writes that combination) or by
    /// the pool's region sizes matching the post-swap arrangement.
    fn finalize_swap(&self, old: &Inner, new_top: Level, new_ocf: Ocf, generation: u64) -> Inner {
        let old_top_segments = old.top.n_segments();
        let new_top_segments = new_top.n_segments();
        // The demoted level keeps its *existing* OCF (`Arc::clone`): readers
        // still probing the previous snapshot observe post-swap writers'
        // seqlock commits on those buckets instead of a stale copy.
        let mut next = Inner {
            generation,
            top: new_top,
            ocf_top: Arc::new(new_ocf),
            bottom: old.top.clone(),
            ocf_bottom: Arc::clone(&old.ocf_top),
            hot: old.hot.clone(),
        };
        fault::point("resize.swapped");
        self.meta.set_geometry(new_top_segments, old_top_segments);
        fault::point("resize.geometry_published");
        self.meta.set_rehash_progress(None);
        fault::point("resize.progress_cleared");
        self.meta.set_state(ResizeState::Stable);
        fault::point("resize.finalized");
        // The hot table scales with the table (§3.3 "dynamically adjusted"):
        // re-allocate at the new capacity; heat re-accumulates on reads.
        if self.params.enable_hot_table {
            next.hot = Some(Arc::new(Self::make_hot(&self.params, next.total_slots())));
        }
        next
    }
}

enum HotWrite<'a> {
    Pending(crate::sync::SyncHandle),
    Inline(&'a HotTable, HotOp),
    None,
}

// Thin adapter from the unified `Result<_, HdnhError>` surface back to the
// narrow trait vocabulary the baselines and bench harness compile against.
impl HashIndex for Hdnh {
    fn insert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        Hdnh::insert(self, key, value).map_err(IndexError::from)
    }

    fn get(&self, key: &Key) -> Option<Value> {
        // `get` only errors on unreadable media; the trait has no channel
        // for that, so it degrades to "absent" exactly as quarantine does.
        Hdnh::get(self, key).unwrap_or(None)
    }

    fn update(&self, key: &Key, value: &Value) -> IndexResult<()> {
        Hdnh::update(self, key, value).map_err(IndexError::from)
    }

    fn remove(&self, key: &Key) -> bool {
        Hdnh::remove(self, key).unwrap_or(false)
    }

    /// One probe, recorded as the update or the insert it turned out to be.
    fn upsert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        let t = obs::op_start();
        let out = self.store(key, value, false, Accept::Either);
        let kind = match out {
            Ok(Some(_)) => obs::OpKind::Update,
            _ => obs::OpKind::Insert,
        };
        obs::op_record(kind, t);
        Self::tombstone_old(&self.vlog, out?);
        Ok(())
    }

    fn len(&self) -> usize {
        Hdnh::len(self)
    }

    fn load_factor(&self) -> f64 {
        Hdnh::load_factor(self)
    }

    fn scheme_name(&self) -> &'static str {
        "HDNH"
    }
}

impl std::fmt::Debug for Hdnh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hdnh")
            .field("len", &self.len())
            .field("load_factor", &self.load_factor())
            .field("resizes", &self.resize_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Hdnh {
        // Small: 1024-byte segments (4 buckets), bottom 2 segs → 24 buckets
        // total, 192 slots. Forces early resizes.
        Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .build()
        .unwrap())
    }

    fn k(id: u64) -> Key {
        Key::from_u64(id)
    }
    fn v(x: u64) -> Value {
        Value::from_u64(x)
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = table();
        for i in 0..100 {
            t.insert(&k(i), &v(i * 2)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i * 2, "key {i}");
        }
        assert_eq!(t.get(&k(1000)).unwrap(), None);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let t = table();
        t.insert(&k(1), &v(1)).unwrap();
        assert_eq!(t.insert(&k(1), &v(2)), Err(HdnhError::DuplicateKey));
        assert_eq!(t.get(&k(1)).unwrap().unwrap().as_u64(), 1);
    }

    #[test]
    fn update_changes_value() {
        let t = table();
        t.insert(&k(7), &v(70)).unwrap();
        t.update(&k(7), &v(71)).unwrap();
        assert_eq!(t.get(&k(7)).unwrap().unwrap().as_u64(), 71);
        assert_eq!(t.len(), 1);
        assert_eq!(t.update(&k(8), &v(1)), Err(HdnhError::KeyNotFound));
    }

    #[test]
    fn repeated_updates_do_not_leak_slots() {
        let t = table();
        t.insert(&k(3), &v(0)).unwrap();
        for i in 1..200 {
            t.update(&k(3), &v(i)).unwrap();
            assert_eq!(t.get(&k(3)).unwrap().unwrap().as_u64(), i);
        }
        assert_eq!(t.len(), 1);
        // Only one valid NVM slot for the key.
        let snap = t.pinned();
        let inner = snap.inner;
        let total_valid: usize = inner.top.count_valid() + inner.bottom.count_valid();
        assert_eq!(total_valid, 1);
    }

    #[test]
    fn remove_works() {
        let t = table();
        for i in 0..50 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..50 {
            assert!(t.remove(&k(i)).unwrap(), "remove {i}");
            assert_eq!(t.get(&k(i)).unwrap(), None);
            assert!(!t.remove(&k(i)).unwrap());
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn resize_triggered_and_data_survives() {
        let t = table();
        let n = 2_000u64;
        for i in 0..n {
            t.insert(&k(i), &v(i + 1)).unwrap();
        }
        assert!(t.resize_count() > 0, "expected at least one resize");
        for i in 0..n {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i + 1, "key {i} after resize");
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.load_factor() <= 1.0);
    }

    #[test]
    fn meta_tracks_geometry_across_resizes() {
        let t = table();
        for i in 0..2_000u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let snap = t.pinned();
        let inner = snap.inner;
        assert_eq!(t.meta.top_segments(), inner.top.n_segments());
        assert_eq!(t.meta.bottom_segments(), inner.bottom.n_segments());
        assert_eq!(t.meta.state(), ResizeState::Stable);
        assert_eq!(inner.top.n_segments(), 2 * inner.bottom.n_segments());
    }

    #[test]
    fn reads_do_no_nvm_writes() {
        // The headline concurrency claim: lock-free search never writes NVM.
        let t = table();
        for i in 0..100 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let before = t.nvm_stats();
        for i in 0..100 {
            let _ = t.get(&k(i));
            let _ = t.get(&k(10_000 + i)); // negative
        }
        let delta = t.nvm_stats().since(&before);
        assert_eq!(delta.writes, 0, "reads wrote to NVM");
        assert_eq!(delta.flushes, 0);
    }

    #[test]
    fn negative_search_reads_no_nvm_blocks() {
        // OCF claim (§3.2): fingerprint misses answer negatives in DRAM.
        // With 1-byte fingerprints a false positive costs one block read;
        // over 200 negatives expect ≪ 200 block reads.
        let t = table();
        for i in 0..150 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let before = t.nvm_stats();
        for i in 0..200 {
            assert!(t.get(&k(1_000_000 + i)).unwrap().is_none());
        }
        let delta = t.nvm_stats().since(&before);
        // Each negative search scans ≤64 OCF entries; at a 1/256 per-entry
        // false-positive rate that is ≈0.25 block reads per search. Without
        // the filter every valid candidate slot would be a media read
        // (hundreds of blocks here).
        assert!(
            delta.read_blocks < 120,
            "negative searches read {} blocks; OCF is not filtering",
            delta.read_blocks
        );
    }

    #[test]
    fn hot_table_absorbs_repeated_reads() {
        // Oversized hot table (§3.5 "hot table has not been overflowed"):
        // once warm, repeated reads must be NVM-free.
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .hot_capacity_ratio(2.0)
        .build()
        .unwrap());
        for i in 0..30 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        // First read promotes; subsequent reads must hit DRAM.
        for i in 0..30 {
            let _ = t.get(&k(i));
        }
        let before = t.nvm_stats();
        for _ in 0..10 {
            for i in 0..30 {
                assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i);
            }
        }
        let delta = t.nvm_stats().since(&before);
        assert_eq!(delta.read_blocks, 0, "hot reads still touch NVM");
    }

    #[test]
    fn works_without_hot_table() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_hot_table(false)
        .build()
        .unwrap());
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..500 {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i);
        }
        assert!(t.hot_table().is_none());
    }

    #[test]
    fn works_without_ocf_filtering() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_ocf(false)
        .build()
        .unwrap());
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..500 {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i);
        }
        assert_eq!(t.get(&k(9999)).unwrap(), None);
    }

    #[test]
    fn background_sync_mode_correctness() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .sync_mode(SyncMode::Background)
        .build()
        .unwrap());
        for i in 0..1000 {
            t.insert(&k(i), &v(i * 3)).unwrap();
        }
        for i in 0..1000 {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i * 3);
        }
        for i in 0..1000 {
            t.update(&k(i), &v(i * 5)).unwrap();
            assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i * 5, "hot table stale after update");
        }
        for i in (0..1000).step_by(2) {
            assert!(t.remove(&k(i)).unwrap());
            assert_eq!(t.get(&k(i)).unwrap(), None, "hot table resurrects deleted key");
        }
    }

    #[test]
    fn upsert_via_trait() {
        let t = table();
        let idx: &dyn HashIndex = &t;
        idx.upsert(&k(1), &v(1)).unwrap();
        idx.upsert(&k(1), &v(2)).unwrap();
        assert_eq!(idx.get(&k(1)).unwrap().as_u64(), 2);
        assert_eq!(idx.scheme_name(), "HDNH");
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(4)
        .sync_mode(SyncMode::Background)
        .build()
        .unwrap()));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let id = tid * 1_000_000 + i;
                    t.insert(&k(id), &v(id ^ 0xABCD)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 16_000);
        for tid in 0..8u64 {
            for i in (0..2_000u64).step_by(97) {
                let id = tid * 1_000_000 + i;
                assert_eq!(t.get(&k(id)).unwrap().unwrap().as_u64(), id ^ 0xABCD);
            }
        }
    }

    #[test]
    fn concurrent_readers_and_writers_see_consistent_values() {
        // Writers update keys with values derived from the key; readers
        // must never observe a torn/foreign value (invariant I3).
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(8)
        .build()
        .unwrap()));
        const KEYS: u64 = 256;
        for i in 0..KEYS {
            t.insert(&k(i), &v(i << 32)).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for tid in 0..2u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut seq = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = (seq * 31 + tid * 7) % KEYS;
                    // Writers own disjoint halves of the key space.
                    let id = if tid == 0 { id / 2 * 2 } else { id / 2 * 2 + 1 };
                    let _ = t.update(&k(id), &v((id << 32) | seq));
                    seq += 1;
                }
            }));
        }
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = n % KEYS;
                    if let Some(val) = t.get(&k(id)).unwrap() {
                        assert_eq!(
                            val.as_u64() >> 32,
                            id,
                            "torn value for key {id}: {:#x}",
                            val.as_u64()
                        );
                    }
                    n += 1;
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_inserts_during_resize() {
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(1)
        .build()
        .unwrap()));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..3_000u64 {
                    t.insert(&k(tid * 1_000_000 + i), &v(i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 12_000);
        assert!(t.resize_count() >= 1);
        for tid in 0..4u64 {
            for i in (0..3_000u64).step_by(131) {
                assert_eq!(t.get(&k(tid * 1_000_000 + i)).unwrap().unwrap().as_u64(), i);
            }
        }
    }

    #[test]
    fn one_choice_ablation_works_and_resizes_earlier() {
        let two = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .two_choice_segments(true)
        .build()
        .unwrap());
        let one = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .two_choice_segments(false)
        .build()
        .unwrap());
        for i in 0..3_000u64 {
            two.insert(&k(i), &v(i)).unwrap();
            one.insert(&k(i), &v(i)).unwrap();
        }
        for i in (0..3_000u64).step_by(11) {
            assert_eq!(one.get(&k(i)).unwrap().unwrap().as_u64(), i);
            assert_eq!(two.get(&k(i)).unwrap().unwrap().as_u64(), i);
        }
        // Fewer candidates -> earlier overflow -> at least as many resizes.
        assert!(
            one.resize_count() >= two.resize_count(),
            "one-choice {} vs two-choice {}",
            one.resize_count(),
            two.resize_count()
        );
        assert!(one.verify_integrity().is_ok());
    }

    /// Every operation, a resize and a compaction under each ablation and
    /// at the smallest geometries: the address-first step must request
    /// lines for whatever subset of structures exists, up to and including
    /// the last bucket of every array, and change no answer.
    #[test]
    fn address_first_probe_under_every_ablation() {
        let base = || {
            HdnhParams::builder()
                .segment_bytes(512) // two buckets per segment
                .initial_bottom_segments(1)
                .vlog_segment_bytes(1024)
        };
        let configs = [
            ("defaults", base()),
            ("no hot table", base().enable_hot_table(false)),
            ("no filter", base().enable_ocf(false)),
            ("one-choice segments", base().two_choice_segments(false)),
            ("one bucket per segment", base().segment_bytes(256)),
            ("two-bucket hot table", base().hot_capacity_ratio(1e-6)),
            ("background hot writes", base().sync_mode(SyncMode::Background)),
        ];
        let payload =
            |i: u64, ver: u8| vec![ver ^ i as u8; if i.is_multiple_of(2) { 9 } else { 100 }];
        for (name, builder) in configs {
            let t = Hdnh::new(builder.build().unwrap());
            for i in 0..600 {
                t.insert_bytes(&k(i), &payload(i, 0)).unwrap();
            }
            assert!(t.resize_count() > 0, "{name}: the script must force a resize");
            for i in (0..700).step_by(2) {
                t.upsert_bytes(&k(i), &payload(i, 1)).unwrap();
            }
            for i in (0..600).step_by(3) {
                assert!(t.remove(&k(i)).unwrap(), "{name}: remove {i}");
            }
            // The native upsert of a fresh key is one probe: it reads what a
            // miss reads (with no filter, every valid candidate slot).
            for i in 700..720 {
                let (before, resizes) = (t.nvm_stats(), t.resize_count());
                assert_eq!(t.get(&k(i)).unwrap(), None);
                let miss = t.nvm_stats().since(&before).reads;
                HashIndex::upsert(&t, &k(i), &v(i)).unwrap();
                if t.resize_count() == resizes {
                    assert_eq!(t.nvm_stats().since(&before).reads, 2 * miss, "{name}: key {i}");
                }
                HashIndex::upsert(&t, &k(i), &v(i + 1)).unwrap();
                assert_eq!(t.get(&k(i)).unwrap(), Some(v(i + 1)), "{name}: key {i}");
            }
            let expected = |i: u64| match i {
                _ if i < 600 && i.is_multiple_of(3) => None,
                _ if i.is_multiple_of(2) => Some(payload(i, 1)),
                _ if i < 600 => Some(payload(i, 0)),
                _ => None,
            };
            let read_back = |when: &str| {
                for i in 0..700 {
                    assert_eq!(t.get_bytes(&k(i)).unwrap(), expected(i), "{name}: key {i} {when}");
                }
            };
            read_back("before compaction");
            let gc = t.compact().unwrap();
            assert!(gc.segments_retired > 0 && gc.records_relocated > 0, "{name}: {gc:?}");
            read_back("after compaction");
            t.verify_integrity().unwrap_or_else(|e| panic!("{name}: {e}"));

            // The keys above reached the first and the last bucket of both
            // filter arrays (the hot levels' ends: `hot::tests`).
            let snap = t.pinned();
            let inner = snap.inner;
            let (mut first, mut last) = ([false; 2], [false; 2]);
            for i in 0..700 {
                let probe = inner.probe(&KeyHashes::of(&k(i)), t.n_candidates());
                assert_eq!(probe.hot.is_some(), t.params().enable_hot_table, "{name}");
                for li in 0..2 {
                    let n = inner.level(li).0.n_buckets();
                    first[li] |= probe.buckets(li).contains(&0);
                    last[li] |= probe.buckets(li).contains(&(n - 1));
                }
            }
            assert_eq!((first, last), ([true; 2], [true; 2]), "{name}");
        }
    }

    #[test]
    fn verify_integrity_passes_after_heavy_churn() {
        let t = table();
        for i in 0..800u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..400u64 {
            t.update(&k(i), &v(i + 9_000)).unwrap();
        }
        for i in 600..800u64 {
            assert!(t.remove(&k(i)).unwrap());
        }
        assert_eq!(t.verify_integrity().unwrap(), 600);
    }

    #[test]
    fn fingerprint_filter_does_not_alias_segment_bits() {
        // Regression: with ≥256 segments, deriving the segment index from
        // h1's low byte would make every h1-routed resident share the
        // search key's fingerprint, silently disabling the OCF at scale.
        // Pin the false-positive rate to the 1/256 theory at a geometry
        // with 512 top-level segments.
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(16 * 1024)
        .initial_bottom_segments(256)
        .enable_hot_table(false)
        .build()
        .unwrap());
        let n = 60_000u64;
        for i in 0..n {
            t.insert(&k(i), &v(i)).unwrap();
        }
        assert_eq!(t.resize_count(), 0);
        let before = t.nvm_stats();
        let probes = 20_000u64;
        for i in 0..probes {
            assert!(t.get(&k(10_000_000 + i)).unwrap().is_none());
        }
        let d = t.nvm_stats().since(&before);
        let per_op = d.read_blocks as f64 / probes as f64;
        // Theory: 64 entries × load × 1/256 ≈ 0.04; allow ≤ 0.5.
        assert!(per_op < 0.5, "negative search reads {per_op:.3} blocks/op — fp aliasing?");
    }

    /// Locates a key's live NVM slot by exhaustive scan (tests only).
    fn locate(t: &Hdnh, key: &Key) -> (usize, usize, usize) {
        let snap = t.pinned();
        let inner = snap.inner;
        for li in 0..2 {
            let (level, _) = inner.level(li);
            for b in 0..level.n_buckets() {
                let header = level.load_header(b);
                for s in 0..SLOTS_PER_BUCKET {
                    if header_slot_valid(header, s) && level.read_record(b, s).key == *key {
                        return (li, b, s);
                    }
                }
            }
        }
        panic!("key not persisted");
    }

    /// XORs `mask` into one byte of the key's persisted record.
    fn corrupt_record_byte(t: &Hdnh, key: &Key, byte: usize, mask: u8) {
        let (li, b, s) = locate(t, key);
        let snap = t.pinned();
        let inner = snap.inner;
        let (level, _) = inner.level(li);
        level.region().corrupt(level.slot_off(b, s) + byte, &[mask]);
    }

    #[test]
    fn corrupted_record_is_never_served_and_quarantined_without_hot_copy() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_hot_table(false)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i + 100)).unwrap();
        }
        // Flip one bit in the value bytes of key 7's persisted record.
        corrupt_record_byte(&t, &k(7), hdnh_common::KEY_LEN + 3, 0x10);
        // The damaged bytes must never reach the caller: with no clean
        // copy the slot is quarantined and the lookup misses.
        assert_eq!(t.get(&k(7)).unwrap(), None);
        assert_eq!(t.len(), 49);
        // The table stays fully consistent and the other keys are intact.
        assert!(t.verify_integrity().is_ok());
        for i in 0..50 {
            if i != 7 {
                assert_eq!(t.get(&k(i)).unwrap().unwrap().as_u64(), i + 100);
            }
        }
    }

    #[test]
    fn corrupted_record_is_repaired_from_hot_copy() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .hot_capacity_ratio(2.0)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i + 100)).unwrap();
        }
        // Damage key 9's value bytes in NVM; its clean copy is in the hot
        // table (inserts cache through it).
        corrupt_record_byte(&t, &k(9), hdnh_common::KEY_LEN + 1, 0x80);
        // A write-path probe reads the NVM record even when the key is hot:
        // the duplicate check detects the damage and repairs it in place.
        assert_eq!(t.insert(&k(9), &v(1)), Err(HdnhError::DuplicateKey));
        let (li, b, s) = locate(&t, &k(9));
        let snap = t.pinned();
        let inner = snap.inner;
        let (level, _) = inner.level(li);
        let rec = level.read_record(b, s);
        assert_eq!(rec.value.as_u64(), 109, "record not rebuilt from hot copy");
        assert!(slot_checksum_ok(level.load_header(b), s, &rec));
        drop(snap);
        assert_eq!(t.len(), 50, "repair must not change the live count");
        assert!(t.verify_integrity().is_ok());
    }

    #[test]
    fn corrupted_key_bytes_are_quarantined_not_forged() {
        // Damage to the key bytes makes the record's fingerprint disagree
        // with the DRAM-held OCF witness: repair must refuse to rebuild
        // under a forged key even though a hot copy of the true key exists.
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_hot_table(false)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let (li, b, s) = locate(&t, &k(3));
        corrupt_record_byte(&t, &k(3), 0, 0x04);
        {
            // Guard against the 7-bit checksum's documented 1/128
            // false-accept: this particular (byte, mask) pair must be
            // detectable or the assertions below are vacuous.
            let snap = t.pinned();
            let inner = snap.inner;
            let (level, _) = inner.level(li);
            assert!(
                !slot_checksum_ok(level.load_header(b), s, &level.read_record(b, s)),
                "chosen corruption collides in the 7-bit checksum; pick another mask"
            );
        }
        assert_eq!(t.get(&k(3)).unwrap(), None);
        assert_eq!(t.len(), 49);
        assert!(t.verify_integrity().is_ok());
    }

    #[test]
    fn scrub_repairs_hot_backed_slots_and_quarantines_the_rest() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .hot_capacity_ratio(2.0)
        .build()
        .unwrap());
        for i in 0..80 {
            t.insert(&k(i), &v(i + 500)).unwrap();
        }
        assert!(t.scrub().clean(), "fresh table must scrub clean");
        // Three value corruptions (hot copies exist → repair) and two key
        // corruptions (fingerprint witness disagrees → quarantine).
        for key in [11u64, 22, 33] {
            corrupt_record_byte(&t, &k(key), hdnh_common::KEY_LEN + 2, 0x40);
        }
        for key in [44u64, 55] {
            corrupt_record_byte(&t, &k(key), 1, 0x02);
        }
        let report = t.scrub();
        assert_eq!(report.detected, 5, "{report:?}");
        assert_eq!(report.repaired, 3, "{report:?}");
        assert_eq!(report.quarantined, 2, "{report:?}");
        assert_eq!(report.scanned, 80);
        assert_eq!(report.errors.len(), 5);
        assert!(!report.clean());
        let json = report.to_json();
        assert!(json.contains("\"detected\":5") && json.contains("\"repaired\":3"));
        // Post-scrub the table is consistent; repaired keys read back.
        assert!(t.verify_integrity().is_ok());
        assert_eq!(t.len(), 78);
        for key in [11u64, 22, 33] {
            assert_eq!(t.get(&k(key)).unwrap().unwrap().as_u64(), key + 500);
        }
        // A second pass finds nothing left to do.
        assert!(t.scrub().clean());
    }

    #[test]
    fn contended_writers_count_backoff_rounds() {
        obs::set_enabled(true);
        let before = obs::snapshot().counter(obs::Counter::OpmapBackoffRound);
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .build()
        .unwrap()));
        t.insert(&k(1), &v(0)).unwrap();
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..3_000u64 {
                    t.update(&k(1), &v(tid * 100_000 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rounds = obs::snapshot().counter(obs::Counter::OpmapBackoffRound) - before;
        assert!(
            rounds > 0,
            "8 writers hammering one key never took a backoff round"
        );
        assert_eq!(t.len(), 1);
        assert!(t.verify_integrity().is_ok());
    }

    #[test]
    fn ocf_footprint_is_two_bytes_per_slot() {
        let t = table();
        let inner_slots = t.pinned().inner.total_slots();
        assert_eq!(t.ocf_footprint_bytes(), inner_slots * 2);
    }

    #[test]
    fn readers_race_resizes_without_missing_keys() {
        // Readers hammer a stable key set while writers force repeated
        // snapshot swaps; every read must succeed (retrying across the
        // generation bump, never observing a half-migrated table).
        obs::set_enabled(true);
        let t = Arc::new(
            Hdnh::new(
                HdnhParams::builder()
                    .segment_bytes(1024)
                    .initial_bottom_segments(1)
                    .build()
                    .unwrap(),
            ),
        );
        const STABLE: u64 = 128;
        for i in 0..STABLE {
            t.insert(&k(i), &v(i + 7)).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = n % STABLE;
                    assert_eq!(
                        t.get(&k(id)).unwrap().expect("stable key vanished").as_u64(),
                        id + 7
                    );
                    n += 1;
                }
            }));
        }
        let base_resizes = t.resize_count();
        // Filler inserts drive load past the threshold repeatedly.
        for i in 0..20_000u64 {
            t.insert(&k(1_000_000 + i), &v(i)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(t.resize_count() > base_resizes, "no resize was exercised");
        assert!(t.verify_integrity().is_ok());
    }
}
