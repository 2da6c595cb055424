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
//! A public write that has settled returns a sticky pool I/O fault, if
//! there is one, as `HdnhError::Io`: applied, but not acknowledged.
//!
//! The plain operations are the *word level*: a slot's 15 value bytes as
//! they are. The `_bytes` ones are the one encoding layered on it; which
//! kind a word is travels with it as the spill bit (`bytes.rs`).
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
//! draining the epoch. Only the maintainers — resize, snapshot, scrub,
//! integrity audits, the crash-simulation hooks and the region listings —
//! serialize, each through the one guard [`Hdnh::maintain`], which the hot
//! paths never take (enforced by a debug assertion).

mod audit;
mod bytes;
mod probe;
mod resize;
mod write;

pub use audit::{InvariantReport, ScrubReport};
pub(crate) use write::Accept;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hdnh_common::rng::XorShift64Star;
use hdnh_nvm::StatsSnapshot;
use hdnh_obs as obs;
use parking_lot::{Mutex, MutexGuard};

use crate::epoch;
use crate::error::HdnhError;
use crate::hot::HotTable;
use crate::meta::Meta;
use crate::nvtable::Level;
use crate::ocf::Ocf;
use crate::params::{HdnhParams, SyncMode, BUCKET_BYTES, SLOTS_PER_BUCKET};
use crate::recovery::PersistentPool;
use crate::sync::SyncWriter;
use crate::vlog::Vlog;
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

}

/// The HDNH hash table.
pub struct Hdnh {
    params: HdnhParams,
    pub(crate) meta: Meta,
    /// The live snapshot, swapped wholesale by a resize. Hot paths pin the
    /// epoch and load this pointer; they never take a lock.
    current: AtomicPtr<Inner>,
    /// Serializes the maintainers; taken only by [`Hdnh::maintain`]. Never
    /// touched by `get`/`insert`/`update`/`remove`.
    maintenance: Mutex<()>,
    /// In-flight resize level, surfaced to `into_pool` after a mid-resize
    /// crash (an unwind out of `resize`).
    pending_new_top: Mutex<Option<Level>>,
    /// Set once the `io_fault` trace event is out: the fault is sticky, and
    /// one event marks it without flooding the ring on every refused ack.
    io_fault_traced: AtomicBool,
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

/// A pinned snapshot: the epoch pin (taken *before* the pointer load) keeps
/// a concurrent resize from freeing the `Inner` this borrows.
struct PinnedInner<'a> {
    _pin: epoch::Pin,
    inner: &'a Inner,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Set while `get` runs. [`Hdnh::maintain`] asserts against it,
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

/// The one way in for a maintainer ([`Hdnh::maintain`]; DESIGN.md §11
/// "Maintenance"): holds the maintainers' mutex, is the only reader of the
/// live snapshot without a pin, pauses writers on request until it drops
/// (error returns and unwinds included), and publishes a resize's result.
pub(crate) struct Maintenance<'a> {
    table: &'a Hdnh,
    _lock: MutexGuard<'a, ()>,
    /// The even generation writers were paused at, restored on drop.
    paused: Option<u64>,
}

impl Maintenance<'_> {
    /// The live snapshot.
    pub(crate) fn inner(&self) -> &Inner {
        // SAFETY: the pointer is never null while the table lives. Only a
        // maintainer swaps or frees it, in `publish`, which takes this guard
        // mutably, so no reference handed out here is alive when it runs;
        // no other maintainer runs while the mutex is held.
        unsafe { &*self.table.current.load(Ordering::SeqCst) }
    }

    /// Excludes writers: an odd generation makes new writers wait in
    /// `pin_for_write`, and the drain outlasts every writer that validated
    /// before. Readers never touch the generation and keep running.
    pub(crate) fn pause_writers(&mut self) {
        let gen = self.table.generation.load(Ordering::SeqCst);
        debug_assert!(gen & 1 == 0 && self.paused.is_none());
        self.table.generation.store(gen + 1, Ordering::SeqCst);
        self.paused = Some(gen);
        epoch::drain();
    }

    /// Ends a resize: `next`, built for the generation after the paused
    /// one, becomes the live snapshot and writers resume on it. The old
    /// snapshot is freed once no reader can still be probing it.
    pub(crate) fn publish(&mut self, next: Inner) {
        let (t, gen) = (self.table, self.paused.take().expect("publish follows a pause"));
        debug_assert_eq!(next.generation, gen + 2);
        let old = t.current.swap(Box::into_raw(Box::new(next)), Ordering::SeqCst);
        t.generation.store(gen + 2, Ordering::SeqCst);
        t.resizes.fetch_add(1, Ordering::Relaxed);
        // The migrated level is now reachable from `current`; stop
        // surfacing it to `into_pool` separately.
        *t.pending_new_top.lock() = None;
        epoch::drain();
        // SAFETY: the pointer was unpublished above and every pin that
        // could have loaded it has since been observed quiescent.
        drop(unsafe { Box::from_raw(old) });
    }

    /// Paths of every pool file reachable from the table.
    pub(crate) fn region_file_paths(&self) -> Vec<PathBuf> {
        self.table
            .live_pool()
            .regions()
            .filter_map(|region| region.file_path().map(|p| p.to_path_buf()))
            .collect()
    }

    /// `msync(MS_SYNC)`+`fsync` of every region reachable from the table.
    pub(crate) fn sync_regions_to_disk(&self) -> Result<(), HdnhError> {
        for region in self.table.live_pool().regions() {
            region.sync_to_disk()?;
        }
        Ok(())
    }
}

impl Drop for Maintenance<'_> {
    fn drop(&mut self) {
        if let Some(gen) = self.paused {
            self.table.generation.store(gen, Ordering::SeqCst);
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

    /// Enters maintenance: takes the maintainers' mutex ([`Maintenance`]).
    pub(crate) fn maintain(&self) -> Maintenance<'_> {
        #[cfg(debug_assertions)]
        ON_READ_PATH.with(|f| {
            debug_assert!(!f.get(), "maintenance lock taken on the read path")
        });
        obs::count(obs::Counter::MaintenanceLock);
        Maintenance {
            table: self,
            _lock: self.maintenance.lock(),
            paused: None,
        }
    }

    /// Creates an empty table. Panics on backend allocation failure;
    /// fallible construction (pool files) is `Hdnh::try_new`.
    pub fn new(params: HdnhParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("table allocation failed: {e}"))
    }

    /// Creates an empty table, surfacing bad params
    /// ([`HdnhError::Config`]) and backend (pool-file) failures as typed
    /// errors instead of panicking.
    pub(crate) fn try_new(params: HdnhParams) -> Result<Self, HdnhError> {
        params.check().map_err(HdnhError::Config)?;
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
        let vlog = Vlog::new(params.nvm.clone(), params.vlog_segment_bytes);
        let inner = Inner {
            generation: 0,
            top,
            bottom,
            ocf_top: Arc::new(ocf_top),
            ocf_bottom: Arc::new(ocf_bottom),
            hot,
        };
        Ok(Self::assemble(params, meta, inner, vlog, 0))
    }

    /// Assembles a table holding `count` live records from its parts, new
    /// or recovered (see [`crate::recovery`]).
    pub(crate) fn assemble(
        params: HdnhParams,
        meta: Meta,
        inner: Inner,
        vlog: Vlog,
        count: usize,
    ) -> Self {
        let generation = inner.generation;
        let sync = (params.sync_mode == SyncMode::Background && params.enable_hot_table)
            .then(SyncWriter::new);
        Hdnh {
            params,
            meta,
            current: AtomicPtr::new(Box::into_raw(Box::new(inner))),
            maintenance: Mutex::new(()),
            pending_new_top: Mutex::new(None),
            io_fault_traced: AtomicBool::new(false),
            count: AtomicUsize::new(count),
            generation: AtomicU64::new(generation),
            relocations: AtomicU64::new(0),
            resizes: AtomicUsize::new(0),
            sync,
            vlog: Arc::new(vlog),
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
        let mut acc = StatsSnapshot::default();
        for region in self.live_pool().regions() {
            let snap = region.stats().snapshot();
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
    /// backend or while the pool is healthy. While it is set every write
    /// returns it instead of acknowledging (DESIGN.md §13).
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

    /// Paths of every pool file currently reachable from the table (meta,
    /// live levels, any in-flight resize target, log segments). Empty on
    /// the heap backend. Used by the orphan sweep after recovery.
    pub(crate) fn region_file_paths(&self) -> Vec<PathBuf> {
        self.maintain().region_file_paths()
    }

    /// `msync(MS_SYNC)`+`fsync` every region reachable from the table
    /// without consuming it (pool creation, checkpoint-style callers).
    /// No-op on the heap backend.
    pub(crate) fn sync_regions_to_disk(&self) -> Result<(), HdnhError> {
        self.maintain().sync_regions_to_disk()
    }

    /// Every region reachable from the table, as the pool a crash now
    /// would leave: meta, the live levels, the in-flight level of a resize
    /// under way, and the log segments. The one list of a table's regions;
    /// iterate it with [`PersistentPool::regions`].
    pub(crate) fn live_pool(&self) -> PersistentPool {
        let snap = self.pinned();
        PersistentPool {
            meta: Arc::clone(self.meta.region()),
            top: Arc::clone(snap.inner.top.region()),
            bottom: Arc::clone(snap.inner.bottom.region()),
            new_top: self.pending_new_top.lock().as_ref().map(|l| Arc::clone(l.region())),
            vlog: self.vlog.regions(),
        }
    }

    /// Number of bottom-level buckets (the rehash cursor range; exposed for
    /// crash-point enumeration in tests and tools).
    pub fn meta_bottom_buckets(&self) -> usize {
        self.pinned().inner.bottom.n_buckets()
    }

    /// DRAM footprint of the OCF in bytes.
    pub fn ocf_footprint_bytes(&self) -> usize {
        let snap = self.pinned();
        snap.inner.ocf_top.footprint_bytes() + snap.inner.ocf_bottom.footprint_bytes()
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
    use hdnh_common::{HashIndex, Key, Value};

    pub(super) fn table() -> Hdnh {
        // Small: 1024-byte segments (4 buckets), bottom 2 segs → 24 buckets
        // total, 192 slots. Forces early resizes.
        Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .build()
        .unwrap())
    }

    pub(super) fn k(id: u64) -> Key {
        Key::from_u64(id)
    }
    pub(super) fn v(x: u64) -> Value {
        Value::from_u64(x)
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
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i);
        }
        assert!(t.hot_table().is_none());
    }

    #[test]
    fn works_without_ocf_filtering() {
        let t = Hdnh::new(HdnhParams {
            segment_bytes: 1024,
            initial_bottom_segments: 2,
            enable_ocf: false,
            ..Default::default()
        });
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..500 {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i);
        }
        assert_eq!(t.get(&k(9999)), None);
    }

    #[test]
    fn counters_return_while_a_maintainer_holds_the_guard() {
        let t = table();
        for i in 0..100 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut m = t.maintain();
                m.pause_writers();
                held.wait();
                release.wait();
            });
            held.wait();
            let (tx, rx) = std::sync::mpsc::channel();
            let t = &t;
            s.spawn(move || {
                let _ = tx.send((t.nvm_stats().writes, t.len(), t.load_factor()));
            });
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            release.wait();
            let (writes, len, load) = got.expect("a counter waited for the maintenance guard");
            assert!(writes > 0);
            assert_eq!(len, 100);
            assert!(load > 0.0);
        });
    }

    #[test]
    fn ocf_footprint_is_two_bytes_per_slot() {
        let t = table();
        let inner_slots = t.pinned().inner.total_slots();
        assert_eq!(t.ocf_footprint_bytes(), inner_slots * 2);
    }
}
