//! Shutdown, crash simulation hooks and recovery (paper §3.7).
//!
//! In a real deployment the non-volatile table lives in DAX-mapped files;
//! after a restart, recovery re-opens them and rebuilds the two DRAM
//! structures (OCF and hot table) with one multi-threaded scan. In this
//! reproduction the "files" are [`NvmRegion`]s: [`Hdnh::into_pool`] plays
//! the role of unmapping (only the persistent parts survive), the strict
//! regions' `crash()` plays the power failure, and [`Hdnh::recover`]
//! re-opens the pool:
//!
//! * **After a normal shutdown / crash in stable state** — rebuild OCF and
//!   hot table by scanning the levels once, in parallel batches of buckets
//!   (the paper's multi-threaded recovery).
//! * **Crash while `level number = 2` (allocating)** — the new level may or
//!   may not exist; recovery "applies for the new level again" and restarts
//!   the rehash from bucket 0 (re-migrating is idempotent thanks to the
//!   duplicate check).
//! * **Crash while `level number = 3` (rehashing)** — resume migration at
//!   the persisted bucket cursor with duplicate checking (a crash mid-bucket
//!   may have moved only part of it), then finalize the level swap.
//!
//! The scan also repairs the documented update-fallback window: if a crash
//! left two valid copies of one key, the first one found wins and the other
//! bit is cleared.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdnh_common::hash::KeyHashes;
use hdnh_common::rng::XorShift64Star;
use hdnh_common::Key;
use hdnh_nvm::{fault, NvmRegion};
use hdnh_obs as obs;

use crate::hot::HotTable;
use crate::meta::{Meta, ResizeState};
use crate::nvtable::{header_slot_spilled, slot_checksum_ok, Level};
use crate::ocf::Ocf;
use crate::params::{HdnhParams, SyncMode, BUCKET_BYTES, SLOTS_PER_BUCKET};
use crate::table::{CANDIDATES_FULL, CANDIDATES_ONE_CHOICE};
use crate::sync::SyncWriter;
use crate::table::{Hdnh, Inner};

/// The persistent half of an HDNH instance: what survives a power cycle.
pub struct PersistentPool {
    /// Metadata block.
    pub meta: Arc<NvmRegion>,
    /// Top-level region.
    pub top: Arc<NvmRegion>,
    /// Bottom-level region.
    pub bottom: Arc<NvmRegion>,
    /// In-flight new top level, present iff a resize was interrupted.
    pub new_top: Option<Arc<NvmRegion>>,
    /// Value-log segment regions, keyed by segment id.
    pub vlog: Vec<(u32, Arc<NvmRegion>)>,
}

impl PersistentPool {
    /// Simulates a power failure across every region of the pool (strict
    /// regions only). Returns the number of dropped words.
    pub fn crash(&self, seed: u64) -> usize {
        let mut rng = XorShift64Star::new(seed);
        let mut dropped = self.meta.crash(&mut rng);
        dropped += self.top.crash(&mut rng);
        dropped += self.bottom.crash(&mut rng);
        if let Some(nt) = &self.new_top {
            dropped += nt.crash(&mut rng);
        }
        for (_, region) in &self.vlog {
            dropped += region.crash(&mut rng);
        }
        dropped
    }
}

/// Wall-clock breakdown of one recovery (table 1's three rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryTiming {
    /// Time to rebuild the OCF alone.
    pub ocf: Duration,
    /// Time to rebuild the hot table alone.
    pub hot: Duration,
    /// Time for the merged single-scan rebuild (what recovery actually
    /// does); includes resize-resume work if any.
    pub total: Duration,
}

impl Hdnh {
    /// Normal shutdown: drops all DRAM state and returns the persistent
    /// pool. (The DRAM structures die with the process either way; this
    /// models unmapping the pool files.)
    pub fn into_pool(self) -> PersistentPool {
        // Detach the published snapshot (Drop then sees null and skips it).
        let inner =
            unsafe { Box::from_raw(self.current.swap(std::ptr::null_mut(), Ordering::SeqCst)) };
        let pending = self.pending_new_top.lock().take();
        PersistentPool {
            meta: Arc::clone(self.meta.region()),
            top: Arc::clone(inner.top.region()),
            bottom: Arc::clone(inner.bottom.region()),
            new_top: pending.as_ref().map(|(l, _)| Arc::clone(l.region())),
            vlog: self.vlog.regions(),
        }
    }

    /// Re-opens a pool: completes any interrupted resize, then rebuilds the
    /// OCF and hot table with `threads` parallel scan threads.
    pub fn recover(params: HdnhParams, pool: PersistentPool, threads: usize) -> Hdnh {
        Self::recover_timed(params, pool, threads).0
    }

    /// [`Hdnh::recover`] plus the table-1 timing breakdown. Panics on
    /// backend I/O failure (which heap regions never have); the fallible
    /// form is [`Hdnh::try_recover_timed`].
    pub fn recover_timed(
        params: HdnhParams,
        pool: PersistentPool,
        threads: usize,
    ) -> (Hdnh, RecoveryTiming) {
        Self::try_recover_timed(params, pool, threads)
            .unwrap_or_else(|e| panic!("recovery failed: {e}"))
    }

    /// [`Hdnh::recover_timed`] with pool-file allocation failures and
    /// geometry mismatches surfaced as typed errors
    /// ([`HdnhError::Recovery`](crate::HdnhError::Recovery)) instead of
    /// panics, so a pool created with different parameters is reported
    /// rather than aborting the process.
    pub fn try_recover_timed(
        params: HdnhParams,
        pool: PersistentPool,
        threads: usize,
    ) -> Result<(Hdnh, RecoveryTiming), crate::HdnhError> {
        params.validate();
        obs::trace::milestone(obs::trace::Milestone::RecoveryStart);
        let t0 = Instant::now();
        let meta = Meta::open(pool.meta);
        if meta.segment_bytes() != params.segment_bytes {
            return Err(crate::HdnhError::Recovery(format!(
                "params disagree with the persisted pool geometry: \
                 persisted segment_bytes {} vs configured {}",
                meta.segment_bytes(),
                params.segment_bytes
            )));
        }
        let bps = params.segment_bytes / BUCKET_BYTES;
        // Level geometry comes from the *actual region sizes* (a real pool
        // knows the sizes of its DAX files), not from the metadata block: a
        // crash inside the level-swap window leaves `meta`'s geometry one
        // store behind the regions that really survived, and recovery must
        // adopt what is there.
        let seg_bytes = bps * BUCKET_BYTES;
        if !pool.top.len().is_multiple_of(seg_bytes)
            || !pool.bottom.len().is_multiple_of(seg_bytes)
        {
            return Err(crate::HdnhError::Recovery(format!(
                "pool regions are not whole segments: top {} B, bottom {} B, \
                 segment {} B",
                pool.top.len(),
                pool.bottom.len(),
                seg_bytes
            )));
        }
        let mut top_region = pool.top;
        let mut bottom_region = pool.bottom;
        let mut new_top_region = pool.new_top;
        // The converse skew is possible too: a crash *after* the swap's
        // metadata stores but before the next clean shutdown leaves the
        // pool files still labeled by their pre-swap roles while `meta`
        // already records the post-swap geometry. Levels double in size at
        // every resize, so the role of each surviving file is recoverable
        // from its size alone — promote the migrated level and demote the
        // old top (the old bottom's records all live in the new level).
        if meta.state() == ResizeState::Stable
            && (top_region.len() / seg_bytes != meta.top_segments()
                || bottom_region.len() / seg_bytes != meta.bottom_segments())
        {
            let nt = new_top_region.take().ok_or_else(|| {
                crate::HdnhError::Recovery(
                    "meta geometry disagrees with the pool regions and no in-flight \
                     level survived"
                        .to_string(),
                )
            })?;
            if nt.len() / seg_bytes != meta.top_segments()
                || top_region.len() / seg_bytes != meta.bottom_segments()
            {
                return Err(crate::HdnhError::Recovery(
                    "no role assignment of the surviving regions matches the \
                     persisted geometry"
                        .to_string(),
                ));
            }
            bottom_region = std::mem::replace(&mut top_region, nt);
            fault::point("recover.relabeled");
        }
        let top_segments = top_region.len() / seg_bytes;
        let bottom_segments = bottom_region.len() / seg_bytes;
        let mut top = Level::from_region(top_region, top_segments, bps);
        let mut bottom = Level::from_region(bottom_region, bottom_segments, bps);
        fault::point("recover.opened");

        // ---- resize state machine ----
        let resume_state = meta.state();
        let resume_span = if resume_state != ResizeState::Stable {
            obs::phase_enter(obs::Phase::RecoveryResume)
        } else {
            None
        };
        let mut resumed_moved = 0u64;
        match resume_state {
            ResizeState::Stable => {}
            ResizeState::Allocating => {
                // Level number 2: the new level was never published. Apply
                // for it again and run the whole rehash (idempotent: after
                // the header wipe the new level is empty, duplicates
                // impossible). Re-adopting a surviving in-flight region
                // (rather than allocating afresh) matters when *recovery*
                // crashes later: the migrated records and the persisted
                // rehash cursor must land in the region the next recovery
                // will find, not in one that dies with this process.
                fault::point("recover.alloc.entered");
                let new_top = match new_top_region.take() {
                    Some(region) if region.len() == meta.new_top_segments() * seg_bytes => {
                        let l = Level::from_region(region, meta.new_top_segments(), bps);
                        l.wipe_headers();
                        l
                    }
                    _ => Level::try_new(meta.new_top_segments(), bps, &params.nvm)?,
                };
                let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
                meta.set_state(ResizeState::Rehashing);
                meta.set_rehash_progress(Some(0));
                fault::point("recover.alloc.restarted");
                resumed_moved =
                    Self::migrate(&bottom, &new_top, &new_ocf, 0, false, &meta, candidates(&params))
                        .0 as u64;
                Self::swap_levels_for_recovery(&meta, &mut top, &mut bottom, new_top);
            }
            ResizeState::Rehashing => {
                fault::point("recover.rehash.entered");
                let nts = meta.new_top_segments();
                if top.n_segments() == nts {
                    // The crash hit the finalize/swap window *after* the
                    // fully-migrated new level already became the pool's top
                    // (and the old top was demoted to bottom), but before
                    // the geometry / progress / state metadata stores all
                    // landed. Nothing to migrate — re-issue the remaining
                    // idempotent metadata stores.
                    meta.set_geometry(top.n_segments(), bottom.n_segments());
                    fault::point("recover.finalize.geometry");
                    meta.set_rehash_progress(None);
                    meta.set_state(ResizeState::Stable);
                    fault::point("recover.finalize.stable");
                } else {
                    // Level number 3: resume at the persisted cursor with
                    // duplicate checks (the cursor bucket may be half-moved).
                    // If the in-flight level's region did not survive the
                    // crash, the cursor is meaningless — the records behind
                    // it died with the region — so the rehash restarts from
                    // bucket 0 into a fresh level (the migration only ever
                    // copies, so every source record is still in `bottom`).
                    let (new_top, start) = match new_top_region.take() {
                        Some(region) => {
                            let l = Level::from_region(region, nts, bps);
                            (l, meta.rehash_progress().unwrap_or(0))
                        }
                        None => (Level::try_new(nts, bps, &params.nvm)?, 0),
                    };
                    fault::point("recover.rehash.resumed");
                    // Rebuild the new top's OCF from its persisted headers so
                    // the duplicate check and further inserts see prior work.
                    let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
                    rebuild_ocf_serial(&new_top, &new_ocf);
                    // The paper's "resizing threads … continue rehashing":
                    // remaining buckets are migrated in parallel stripes. The
                    // dup-checked migration is idempotent, so no finer-grained
                    // progress persistence is needed during recovery — if
                    // recovery itself crashes, the next one redoes the same
                    // idempotent work.
                    resumed_moved = migrate_parallel_dupcheck(
                        &bottom,
                        &new_top,
                        &new_ocf,
                        start,
                        candidates(&params),
                        threads,
                    ) as u64;
                    fault::point("recover.rehash.migrated");
                    Self::swap_levels_for_recovery(&meta, &mut top, &mut bottom, new_top);
                }
            }
        }
        if resume_state != ResizeState::Stable {
            obs::phase_record(obs::Phase::RecoveryResume, resume_span, resumed_moved);
        }

        // ---- rebuild DRAM structures (merged single scan) ----
        let rebuild_span = obs::phase_enter(obs::Phase::RecoveryRebuild);
        let ocf_top = Ocf::new(top.n_buckets(), SLOTS_PER_BUCKET);
        let ocf_bottom = Ocf::new(bottom.n_buckets(), SLOTS_PER_BUCKET);
        let hot = params
            .enable_hot_table
            .then(|| Arc::new(Self::make_hot(&params, top.n_slots() + bottom.n_slots())));
        let count = rebuild_parallel(
            &[(&top, &ocf_top), (&bottom, &ocf_bottom)],
            hot.as_deref(),
            threads,
        );
        obs::phase_record(obs::Phase::RecoveryRebuild, rebuild_span, count as u64);
        fault::point("recover.rebuilt");
        let total = t0.elapsed();
        obs::phase_record_ns(obs::Phase::RecoveryTotal, total.as_nanos() as u64, count as u64);
        obs::trace::milestone(obs::trace::Milestone::RecoveryDone);

        // ---- separate timings for table 1 (measurement-only passes) ----
        let t1 = Instant::now();
        let scratch_top = Ocf::new(top.n_buckets(), SLOTS_PER_BUCKET);
        let scratch_bottom = Ocf::new(bottom.n_buckets(), SLOTS_PER_BUCKET);
        rebuild_parallel(
            &[(&top, &scratch_top), (&bottom, &scratch_bottom)],
            None,
            threads,
        );
        let ocf_time = t1.elapsed();
        let t2 = Instant::now();
        if let Some(h) = hot.as_deref() {
            rebuild_hot_only(&[&top, &bottom], h, threads);
        }
        let hot_time = t2.elapsed();

        let sync = (params.sync_mode == SyncMode::Background && params.enable_hot_table)
            .then(|| SyncWriter::new(params.background_writers));
        // Re-open the value log: per-segment tail scan (stops at the first
        // torn record), then the index walk below recomputes live bytes
        // and quarantines pointers whose log record never became durable.
        let vlog = Arc::new(crate::vlog::Vlog::from_recovered(
            params.nvm.clone(),
            params.vlog_segment_bytes,
            pool.vlog,
        ));
        let table = Hdnh::from_parts(
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
        );
        table.set_count(count);
        table.rebuild_vlog_index();
        Ok((
            table,
            RecoveryTiming {
                ocf: ocf_time,
                hot: hot_time,
                total,
            },
        ))
    }

    fn swap_levels_for_recovery(meta: &Meta, top: &mut Level, bottom: &mut Level, new_top: Level) {
        let old_top = std::mem::replace(top, new_top);
        let old_top_segments = old_top.n_segments();
        *bottom = old_top;
        meta.set_geometry(top.n_segments(), old_top_segments);
        fault::point("recover.swap.geometry");
        meta.set_rehash_progress(None);
        fault::point("recover.swap.progress");
        meta.set_state(ResizeState::Stable);
        fault::point("recover.swap.stable");
    }

    /// Runs a resize but "crashes" after migrating `stop_after_buckets`
    /// bottom-level buckets, returning the pool exactly as a power failure
    /// during rehashing would leave it. Crash-consistency tests only.
    #[doc(hidden)]
    pub fn into_crashed_mid_resize(self, stop_after_buckets: usize) -> PersistentPool {
        let _m = self.maintenance_lock();
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        let bps = self.params().segment_bytes / BUCKET_BYTES;
        let new_top_segments = inner.top.n_segments() * 2;
        self.meta.set_new_top_segments(new_top_segments);
        self.meta.set_state(ResizeState::Allocating);
        let new_top = Level::new(new_top_segments, bps, &self.params().nvm);
        let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
        self.meta.set_state(ResizeState::Rehashing);
        self.meta.set_rehash_progress(Some(0));
        let stop = stop_after_buckets.min(inner.bottom.n_buckets());
        for b in 0..stop {
            let (header, recs) = inner.bottom.read_bucket(b);
            for (slot, rec) in recs.iter().enumerate() {
                if header & (1 << slot) != 0 {
                    let h = KeyHashes::of(&rec.key);
                    Self::insert_into_level(
                        &new_top,
                        &new_ocf,
                        rec,
                        &h,
                        candidates(self.params()),
                        header_slot_spilled(header, slot),
                    );
                }
            }
            self.meta.set_rehash_progress(Some(b + 1));
        }
        let pool = PersistentPool {
            meta: Arc::clone(self.meta.region()),
            top: Arc::clone(inner.top.region()),
            bottom: Arc::clone(inner.bottom.region()),
            new_top: Some(Arc::clone(new_top.region())),
            vlog: self.vlog.regions(),
        };
        *self.pending_new_top.lock() = Some((new_top, new_ocf));
        pool
    }

    /// Crashes after requesting a new level but before it becomes visible
    /// (the paper's level-number-2 scenario). Crash-consistency tests only.
    #[doc(hidden)]
    pub fn into_crashed_while_allocating(self) -> PersistentPool {
        let _m = self.maintenance_lock();
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        self.meta.set_new_top_segments(inner.top.n_segments() * 2);
        self.meta.set_state(ResizeState::Allocating);
        PersistentPool {
            meta: Arc::clone(self.meta.region()),
            top: Arc::clone(inner.top.region()),
            bottom: Arc::clone(inner.bottom.region()),
            new_top: None,
            vlog: self.vlog.regions(),
        }
    }

    pub(crate) fn from_parts(
        params: HdnhParams,
        meta: Meta,
        inner: Inner,
        sync: Option<SyncWriter>,
        vlog: Arc<crate::vlog::Vlog>,
    ) -> Hdnh {
        Hdnh::assemble(params, meta, inner, sync, vlog)
    }
}

/// Candidate buckets per level for the given configuration.
fn candidates(params: &HdnhParams) -> usize {
    if params.two_choice_segments {
        CANDIDATES_FULL
    } else {
        CANDIDATES_ONE_CHOICE
    }
}

/// Parallel, idempotent continuation of an interrupted rehash: every
/// remaining bottom-level bucket (from `start`) is migrated into `to`,
/// skipping records that already arrived before the crash. Source buckets
/// are disjoint across stripes and every key lives in exactly one source
/// bucket, so threads never race on the same key; slot allocation in the
/// target goes through the OCF's CAS locks. Returns the number of records
/// actually moved (dup-checked records already present are not counted).
fn migrate_parallel_dupcheck(
    from: &Level,
    to: &Level,
    to_ocf: &Ocf,
    start: usize,
    cands: usize,
    threads: usize,
) -> usize {
    let n = from.n_buckets();
    if start >= n {
        return 0;
    }
    let threads = threads.max(1).min(n - start);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut moved = 0usize;
                    let remaining = n - start;
                    let per = remaining.div_ceil(threads);
                    let (lo, hi) = (start + t * per, (start + (t + 1) * per).min(n));
                    for b in lo..hi {
                        let (header, recs) = from.read_bucket(b);
                        for (slot, rec) in recs.iter().enumerate() {
                            if header & (1 << slot) == 0 {
                                continue;
                            }
                            if !slot_checksum_ok(header, slot, rec) {
                                // Damaged source record: drop it here (the
                                // source level dies with the swap).
                                obs::count(obs::Counter::CorruptionDetected);
                                obs::count(obs::Counter::CorruptionQuarantined);
                                continue;
                            }
                            let h = KeyHashes::of(&rec.key);
                            if Hdnh::find_in_level(to, to_ocf, &rec.key, &h, cands).is_none() {
                                Hdnh::insert_into_level(
                                    to,
                                    to_ocf,
                                    rec,
                                    &h,
                                    cands,
                                    header_slot_spilled(header, slot),
                                );
                                moved += 1;
                            }
                        }
                    }
                    moved
                })
            })
            .collect();
        // Re-raise worker panics with their original payload: the fault
        // explorer discriminates injected crashes by downcasting it, and
        // scope's own "a scoped thread panicked" message would hide it.
        let mut moved = 0usize;
        for h in handles {
            match h.join() {
                Ok(m) => moved += m,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        moved
    })
}

/// Scans one level serially and installs OCF entries (used for the new top
/// during a rehash resume). Checksum-verifies each record; damaged slots
/// are quarantined (valid bit cleared, no OCF entry) so the dup-checked
/// migration re-copies the clean source copy instead.
fn rebuild_ocf_serial(level: &Level, ocf: &Ocf) {
    for b in 0..level.n_buckets() {
        let (header, recs) = level.read_bucket(b);
        for (slot, rec) in recs.iter().enumerate() {
            if header & (1 << slot) != 0 {
                if !slot_checksum_ok(header, slot, rec) {
                    obs::count(obs::Counter::CorruptionDetected);
                    obs::count(obs::Counter::CorruptionQuarantined);
                    level.commit_slot_invalid(b, slot);
                    continue;
                }
                let h = KeyHashes::of(&rec.key);
                ocf.install(b, slot, true, h.fp);
            }
        }
    }
}

/// The merged parallel rebuild: one scan fills OCF + hot table, counts live
/// records, and repairs duplicate keys (update-fallback crash window).
/// Returns the live count.
fn rebuild_parallel(
    levels: &[(&Level, &Ocf)],
    hot: Option<&HotTable>,
    threads: usize,
) -> usize {
    let threads = threads.max(1);
    // Pass 1 (parallel): per-batch scan installing OCF entries and caching
    // into the hot table; collect (key, location) lists for dedupe.
    let per_thread: Vec<Vec<(Key, usize, usize, usize)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut rng = XorShift64Star::new(0xEC0_0000 + t as u64);
                    for (li, (level, ocf)) in levels.iter().enumerate() {
                        let n = level.n_buckets();
                        let per = n.div_ceil(threads);
                        let (lo, hi) = (t * per, ((t + 1) * per).min(n));
                        for b in lo..hi {
                            let (header, recs) = level.read_bucket(b);
                            for (slot, rec) in recs.iter().enumerate() {
                                if header & (1 << slot) == 0 {
                                    continue;
                                }
                                if !slot_checksum_ok(header, slot, rec) {
                                    // Media damage found by the recovery
                                    // scan: quarantine — the damaged bytes
                                    // never reach the OCF, the hot table,
                                    // or the live count.
                                    obs::count(obs::Counter::CorruptionDetected);
                                    obs::count(obs::Counter::CorruptionQuarantined);
                                    level.commit_slot_invalid(b, slot);
                                    continue;
                                }
                                let h = KeyHashes::of(&rec.key);
                                ocf.install(b, slot, true, h.fp);
                                if let Some(hot) = hot {
                                    let spilled = header_slot_spilled(header, slot);
                                    let at = hot.buckets(h.h1, h.h2);
                                    hot.put_at(rec, spilled, at, h.fp, &mut rng);
                                }
                                seen.push((rec.key, li, b, slot));
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });

    // Pass 2 (serial): dedupe. First occurrence wins; later duplicates are
    // invalidated in both NVM and OCF.
    let mut first: HashMap<Key, ()> = HashMap::new();
    let mut count = 0usize;
    for (key, li, b, slot) in per_thread.into_iter().flatten() {
        if first.insert(key, ()).is_none() {
            count += 1;
        } else {
            let (level, ocf) = levels[li];
            fault::point("recover.dedup.clearing");
            level.commit_slot_invalid(b, slot);
            ocf.install(b, slot, false, 0);
            if let Some(hot) = hot {
                let h = KeyHashes::of(&key);
                // The cached copy may be the loser's value; drop it and let
                // the next search re-promote the authoritative one.
                hot.delete(&key, h.h1, h.h2, h.fp);
            }
        }
    }
    count
}

/// Hot-table-only rebuild (timing instrumentation for table 1).
fn rebuild_hot_only(levels: &[&Level], hot: &HotTable, threads: usize) {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut rng = XorShift64Star::new(0x407_0000 + t as u64);
                for level in levels {
                    let n = level.n_buckets();
                    let per = n.div_ceil(threads);
                    let (lo, hi) = (t * per, ((t + 1) * per).min(n));
                    for b in lo..hi {
                        let (header, recs) = level.read_bucket(b);
                        for (slot, rec) in recs.iter().enumerate() {
                            if header & (1 << slot) != 0 {
                                let h = KeyHashes::of(&rec.key);
                                let spilled = header_slot_spilled(header, slot);
                                hot.put_at(rec, spilled, hot.buckets(h.h1, h.h2), h.fp, &mut rng);
                            }
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BUCKET_HEADER;
    use hdnh_common::Value;
    use hdnh_nvm::NvmOptions;

    fn strict_params() -> HdnhParams {
        HdnhParams::builder()
            .segment_bytes(1024)
            .initial_bottom_segments(2)
            .nvm(NvmOptions::strict())
            .build()
            .unwrap()
    }

    fn k(id: u64) -> Key {
        Key::from_u64(id)
    }
    fn v(x: u64) -> Value {
        Value::from_u64(x)
    }

    #[test]
    fn recover_after_normal_shutdown() {
        let t = Hdnh::new(strict_params());
        for i in 0..300 {
            t.insert(&k(i), &v(i * 7)).unwrap();
        }
        let pool = t.into_pool();
        let r = Hdnh::recover(strict_params(), pool, 4);
        assert_eq!(r.len(), 300);
        for i in 0..300 {
            assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i * 7, "key {i}");
        }
        // Hot table was warmed during recovery.
        assert!(!r.hot_table().unwrap().is_empty());
    }

    #[test]
    fn recover_after_crash_preserves_acknowledged_inserts() {
        for seed in 0..10 {
            let t = Hdnh::new(strict_params());
            for i in 0..200 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            let pool = t.into_pool();
            pool.crash(seed);
            let r = Hdnh::recover(strict_params(), pool, 2);
            assert_eq!(r.len(), 200, "seed {seed}");
            for i in 0..200 {
                assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i, "seed {seed} key {i}");
            }
        }
    }

    #[test]
    fn recover_after_crash_preserves_updates_and_deletes() {
        for seed in 0..10 {
            let t = Hdnh::new(strict_params());
            for i in 0..200 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            for i in 0..100 {
                t.update(&k(i), &v(i + 10_000)).unwrap();
            }
            for i in 150..200 {
                t.remove(&k(i)).unwrap();
            }
            let pool = t.into_pool();
            pool.crash(1000 + seed);
            let r = Hdnh::recover(strict_params(), pool, 2);
            assert_eq!(r.len(), 150, "seed {seed}");
            for i in 0..100 {
                assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i + 10_000, "seed {seed} key {i}");
            }
            for i in 100..150 {
                assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i);
            }
            for i in 150..200 {
                assert_eq!(r.get(&k(i)).unwrap(), None, "deleted key {i} resurrected");
            }
        }
    }

    #[test]
    fn seeded_pool_crash_replays_the_same_recovery() {
        // In-flight stores over every record of both levels, never flushed:
        // the seed decides, word by word, which of them reach media, and a
        // record passes recovery's checksum only if none of its words did.
        // Which keys come back is therefore a function of the seed alone.
        let recovered = |seed: u64| {
            let t = Hdnh::new(strict_params());
            for i in 0..300 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            let pool = t.into_pool();
            for level in [&pool.top, &pool.bottom] {
                for bucket in 0..level.len() / BUCKET_BYTES {
                    level.write_bytes(
                        bucket * BUCKET_BYTES + BUCKET_HEADER,
                        &[0x5A; BUCKET_BYTES - BUCKET_HEADER],
                    );
                }
            }
            let dropped = pool.crash(seed);
            let r = Hdnh::recover(strict_params(), pool, 1);
            let map: Vec<(u64, u64)> = (0..300)
                .filter_map(|i| r.get(&k(i)).unwrap().map(|got| (i, got.as_u64())))
                .collect();
            (dropped, map)
        };
        let first = recovered(7);
        assert!(
            !first.1.is_empty() && first.1.len() < 300,
            "{} of 300 keys back: the crash decided nothing",
            first.1.len()
        );
        assert_eq!(recovered(7), first, "same ops, same seed, different recovery");
        assert_ne!(recovered(8), first, "the seed does not reach the loss engine");
    }

    #[test]
    fn unacknowledged_insert_never_half_visible() {
        // Write records without commit and crash: the slot must be
        // invisible (I1). Exercised via the public API by crashing right
        // after a batch — every *acknowledged* op is visible, and len()
        // equals the scan count (no torn extras).
        for seed in 0..20 {
            let t = Hdnh::new(strict_params());
            for i in 0..50 {
                t.insert(&k(i), &v(i)).unwrap();
            }
            let pool = t.into_pool();
            pool.crash(31_337 + seed);
            let r = Hdnh::recover(strict_params(), pool, 1);
            // Exactly the 50 acknowledged records, none torn.
            assert_eq!(r.len(), 50);
            for i in 0..50 {
                assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i);
            }
        }
    }

    #[test]
    fn recover_resumes_interrupted_rehash() {
        let params = strict_params();
        let t = Hdnh::new(params.clone());
        for i in 0..400 {
            t.insert(&k(i), &v(i + 1)).unwrap();
        }
        let n_bottom_buckets = t.meta_bottom_buckets();
        for stop in [0, 1, n_bottom_buckets / 2, n_bottom_buckets] {
            let t = Hdnh::new(params.clone());
            for i in 0..400 {
                t.insert(&k(i), &v(i + 1)).unwrap();
            }
            let before_len = t.len();
            let pool = t.into_crashed_mid_resize(stop);
            pool.crash(42 + stop as u64);
            let r = Hdnh::recover(params.clone(), pool, 2);
            assert_eq!(r.len(), before_len, "stop={stop}");
            for i in 0..400 {
                assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i + 1, "stop={stop} key={i}");
            }
            // Table is back in stable state with consistent geometry.
            assert_eq!(r.meta.state(), ResizeState::Stable);
        }
    }

    #[test]
    fn recover_from_allocating_state() {
        let params = strict_params();
        let t = Hdnh::new(params.clone());
        for i in 0..300 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let pool = t.into_crashed_while_allocating();
        pool.crash(7);
        let r = Hdnh::recover(params.clone(), pool, 2);
        assert_eq!(r.len(), 300);
        for i in 0..300 {
            assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i);
        }
        // The interrupted resize completed during recovery: geometry grew.
        assert_eq!(r.meta.state(), ResizeState::Stable);
        assert!(r.meta.top_segments() > params.initial_bottom_segments * 2);
    }

    #[test]
    fn recovered_table_accepts_new_operations() {
        let t = Hdnh::new(strict_params());
        for i in 0..100 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let pool = t.into_pool();
        pool.crash(99);
        let r = Hdnh::recover(strict_params(), pool, 2);
        for i in 100..1500 {
            r.insert(&k(i), &v(i)).unwrap();
        }
        assert!(r.resize_count() > 0 || r.len() == 1500);
        for i in 0..1500 {
            assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i);
        }
    }

    #[test]
    fn recovery_timing_reports_nonzero() {
        let t = Hdnh::new(strict_params());
        for i in 0..500 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let pool = t.into_pool();
        let (r, timing) = Hdnh::recover_timed(strict_params(), pool, 2);
        assert_eq!(r.len(), 500);
        assert!(timing.total >= Duration::ZERO);
        assert!(timing.ocf <= timing.total + timing.hot + timing.ocf); // sanity
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn recover_with_wrong_geometry_panics() {
        let t = Hdnh::new(strict_params());
        let pool = t.into_pool();
        let wrong = HdnhParams {
            segment_bytes: 2048,
            ..strict_params()
        };
        let _ = Hdnh::recover(wrong, pool, 1);
    }
}
