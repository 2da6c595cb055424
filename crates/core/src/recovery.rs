//! Shutdown, crash simulation hooks and recovery (paper §3.7).
//!
//! In a real deployment the non-volatile table lives in DAX-mapped files;
//! after a restart, recovery re-opens them and rebuilds the two DRAM
//! structures (OCF and hot table) with one multi-threaded scan. In this
//! reproduction the "files" are [`NvmRegion`]s: [`Hdnh::into_pool`] plays
//! the role of unmapping (only the persistent parts survive), the strict
//! regions' `crash()` plays the power failure, and [`Hdnh::try_recover`]
//! re-opens the pool:
//!
//! * **First, the persisted state decides** — [`Meta::open`] reads the meta
//!   block (a bad one is a typed error) and `Meta::assign_roles` names the
//!   top, bottom and in-flight level by matching region sizes against the
//!   persisted geometry. The labels a heap pool arrives with are only a
//!   preference order, so a heap pool and a pool directory holding the same
//!   bytes take the same branch below; `open_pool` runs the same function
//!   over its files.
//! * **Crash while `level number = 2` (allocating)** — the new level may or
//!   may not exist; recovery "applies for the new level again" (wiping the
//!   headers of a surviving one) and reruns the whole rehash.
//! * **Crash while `level number = 3` (rehashing)** — rebuild the new
//!   level's OCF with the scan below (no hot table, no log), resume
//!   migration at the persisted bucket cursor with duplicate checking (a
//!   crash mid-bucket may have moved only part of it), then finalize the
//!   level swap.
//! * **Then, whatever the state** — reopen the value log and scan both
//!   levels once, in parallel stripes of buckets (the paper's
//!   multi-threaded recovery). Every bucket is read once; each live slot
//!   is checksum-verified, its spilled value's pointer resolved against the
//!   log, and only then installed in the OCF and cached in the hot table.
//!   A slot that fails either check is quarantined on the spot.
//!
//! A serial pass then repairs the documented update-fallback window — if a
//! crash left two valid copies of one key, the first one scanned wins and
//! the other's bit is cleared; a copy whose pointer did not resolve is
//! already gone, so it never wins — and rebuilds the log's live-byte
//! accounting from the winners.
//!
//! Every rehash, live or resumed, moves a bucket through one body,
//! `Hdnh::migrate_bucket` (`table/resize.rs`).

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hdnh_common::hash::KeyHashes;
use hdnh_common::rng::XorShift64Star;
use hdnh_common::Key;
use hdnh_nvm::{fault, LossMode, NvmRegion};
use hdnh_obs as obs;

use crate::error::HdnhError;
use crate::hot::HotTable;
use crate::meta::{Meta, ResizeState};
use crate::nvtable::{header_slot_spilled, slot_checksum_ok, Level};
use crate::ocf::Ocf;
use crate::params::{HdnhParams, BUCKET_BYTES, SLOTS_PER_BUCKET};
use crate::table::{Hdnh, Inner, CANDIDATES_FULL, CANDIDATES_ONE_CHOICE};
use crate::vlog::{self, Vlog, VlogPtr};

/// The persistent half of an HDNH instance: what survives a power cycle.
/// A clone shares the regions, as a second mapping of the same files would.
#[derive(Clone)]
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
    /// Every region of the pool: meta, top, bottom, the in-flight level
    /// when present, then each log segment.
    pub fn regions(&self) -> impl Iterator<Item = &Arc<NvmRegion>> {
        [&self.meta, &self.top, &self.bottom]
            .into_iter()
            .chain(self.new_top.as_ref())
            .chain(self.vlog.iter().map(|(_, region)| region))
    }

    /// Simulates a power failure across every region of the pool (strict
    /// regions, either backend): the seed picks the loss mode
    /// ([`LossMode::from_seed`]) and one RNG walks the regions in their
    /// fixed order, so one seed is one crash. Returns the number of
    /// dropped words.
    pub fn crash(&self, seed: u64) -> usize {
        let mode = LossMode::from_seed(seed);
        let mut rng = XorShift64Star::new(seed);
        self.regions().map(|region| region.crash(&mut rng, mode)).sum()
    }
}

impl Hdnh {
    /// Normal shutdown: drops all DRAM state and returns the persistent
    /// pool. (The DRAM structures die with the process either way; this
    /// models unmapping the pool files.)
    pub fn into_pool(self) -> PersistentPool {
        self.live_pool()
    }

    /// Re-opens a pool: completes any interrupted resize, then rebuilds the
    /// OCF and hot table with `threads` parallel scan threads. Panics on
    /// every error [`Hdnh::try_recover`] reports.
    pub fn recover(params: HdnhParams, pool: PersistentPool, threads: usize) -> Hdnh {
        Self::try_recover(params, pool, threads).unwrap_or_else(|e| panic!("recovery failed: {e}"))
    }

    /// [`Hdnh::recover`] with every failure a typed error instead of a
    /// panic: bad params are [`HdnhError::Config`]; a meta block
    /// [`Meta::open`] refuses, a pool created with other parameters, or a
    /// region set the persisted geometry cannot place is
    /// [`HdnhError::Recovery`]; a pool-file allocation failure is
    /// [`HdnhError::Io`].
    pub fn try_recover(
        params: HdnhParams,
        pool: PersistentPool,
        threads: usize,
    ) -> Result<Hdnh, HdnhError> {
        params.check().map_err(HdnhError::Config)?;
        obs::trace::milestone(obs::trace::Milestone::RecoveryStart);
        let t0 = Instant::now();
        let meta = Meta::open(pool.meta, params.segment_bytes)?;
        let bps = params.segment_bytes / BUCKET_BYTES;
        // The persisted geometry, not the labels the regions arrive with,
        // decides which region is which: a heap pool and the same bytes in
        // pool files take the same branch below.
        let levels = [Some(pool.top), Some(pool.bottom), pool.new_top];
        let roles = meta.assign_roles(levels.into_iter().flatten().map(|r| (r.len() as u64, r)))?;
        let level = |region: Arc<NvmRegion>| {
            let segments = region.len() / params.segment_bytes;
            Level::from_region(region, segments, bps)
        };
        let mut top = level(roles.top);
        let mut bottom = level(roles.bottom);
        let mut new_top_region = roles.new_top;
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
                    Some(region) => {
                        let l = level(region);
                        l.wipe_headers();
                        l
                    }
                    None => Level::try_new(meta.new_top_segments(), bps, &params.nvm)?,
                };
                let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
                meta.set_state(ResizeState::Rehashing);
                meta.set_rehash_progress(Some(0));
                fault::point("recover.alloc.restarted");
                let all = 0..bottom.n_buckets();
                resumed_moved =
                    Self::migrate(&bottom, &new_top, &new_ocf, all, &meta, candidates(&params)).0
                        as u64;
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
                        Some(region) => (level(region), meta.rehash_progress().unwrap_or(0)),
                        None => (Level::try_new(nts, bps, &params.nvm)?, 0),
                    };
                    fault::point("recover.rehash.resumed");
                    // Rebuild the new top's OCF from its persisted headers so
                    // the duplicate check and further inserts see prior work:
                    // the one scan, with no hot table and no log. A damaged
                    // slot is quarantined, so the dup-checked migration
                    // re-copies the clean source copy instead.
                    let new_ocf = Ocf::new(new_top.n_buckets(), SLOTS_PER_BUCKET);
                    scan(&[(&new_top, &new_ocf)], None, None, threads);
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

        // ---- rebuild: one scan, one serial pass ----
        let rebuild_span = obs::phase_enter(obs::Phase::RecoveryRebuild);
        // Per-segment tail scan (stops at the first torn record); the scan
        // resolves every spilled pointer against the reopened log.
        let vlog = Vlog::from_recovered(params.nvm.clone(), params.vlog_segment_bytes, pool.vlog);
        let ocf_top = Ocf::new(top.n_buckets(), SLOTS_PER_BUCKET);
        let ocf_bottom = Ocf::new(bottom.n_buckets(), SLOTS_PER_BUCKET);
        let hot = params
            .enable_hot_table
            .then(|| Arc::new(Self::make_hot(&params, top.n_slots() + bottom.n_slots())));
        let levels = [(&top, &ocf_top), (&bottom, &ocf_bottom)];
        let found = scan(&levels, hot.as_deref(), Some(&vlog), threads);
        let count = dedupe(&levels, &found, hot.as_deref(), &vlog);
        obs::phase_record(obs::Phase::RecoveryRebuild, rebuild_span, count as u64);
        fault::point("recover.rebuilt");

        let inner = Inner {
            generation: 0,
            top,
            bottom,
            ocf_top: Arc::new(ocf_top),
            ocf_bottom: Arc::new(ocf_bottom),
            hot,
        };
        let table = Hdnh::assemble(params, meta, inner, vlog, count);
        obs::phase_record_ns(
            obs::Phase::RecoveryTotal,
            t0.elapsed().as_nanos() as u64,
            count as u64,
        );
        obs::trace::milestone(obs::trace::Milestone::RecoveryDone);
        Ok(table)
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
        let m = self.maintain();
        let inner = m.inner();
        let (new_top, new_ocf) =
            self.begin_resize(inner).unwrap_or_else(|e| panic!("resize allocation failed: {e}"));
        let stop = stop_after_buckets.min(inner.bottom.n_buckets());
        let cands = candidates(self.params());
        Self::migrate(&inner.bottom, &new_top, &new_ocf, 0..stop, &self.meta, cands);
        self.live_pool()
    }

    /// Crashes after requesting a new level but before it becomes visible
    /// (the paper's level-number-2 scenario). Crash-consistency tests only.
    #[doc(hidden)]
    pub fn into_crashed_while_allocating(self) -> PersistentPool {
        let m = self.maintain();
        self.meta.set_new_top_segments(m.inner().top.n_segments() * 2);
        self.meta.set_state(ResizeState::Allocating);
        self.live_pool()
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

/// Runs `work(t)` for every `t` in `0..threads` on scoped threads and
/// returns the results in thread order. A worker's panic is re-raised with
/// its original payload: the fault explorer discriminates injected crashes
/// by downcasting it, and scope's own "a scoped thread panicked" message
/// would hide it.
fn in_parallel<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || work(t))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Thread `t`'s contiguous share of `range` when `threads` threads split it.
fn stripe(range: Range<usize>, t: usize, threads: usize) -> Range<usize> {
    let per = range.len().div_ceil(threads);
    let lo = (range.start + t * per).min(range.end);
    lo..(lo + per).min(range.end)
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
    let remaining = start.min(from.n_buckets())..from.n_buckets();
    let threads = threads.max(1).min(remaining.len());
    in_parallel(threads, |t| {
        stripe(remaining.clone(), t, threads)
            .map(|b| Hdnh::migrate_bucket(from, b, to, to_ocf, true, cands, None).0)
            .sum::<usize>()
    })
    .into_iter()
    .sum()
}

/// A live slot the scan kept: where it is, its key, and — for a spilled
/// value checked against the log — the record its pointer resolved to.
struct Found {
    key: Key,
    level: usize,
    bucket: usize,
    slot: usize,
    spill: Option<VlogPtr>,
}

/// The recovery scan: every bucket of `levels` is read once, in `threads`
/// parallel stripes. Each live slot is verified — its checksum, then, given
/// a `vlog`, a spilled value's pointer against the log — and only then
/// installed in its level's OCF and cached in `hot`. A slot that fails
/// either check is quarantined on the spot: damaged bytes, or a pointer
/// whose log record never became durable (a torn pre-ack write, which
/// §15's model never acks). Neither reaches the OCF, the hot table or the
/// count. Returns the kept slots, per thread in scan order.
fn scan(
    levels: &[(&Level, &Ocf)],
    hot: Option<&HotTable>,
    vlog: Option<&Vlog>,
    threads: usize,
) -> Vec<Vec<Found>> {
    let threads = threads.max(1);
    in_parallel(threads, |t| {
        let mut found = Vec::new();
        let mut rng = XorShift64Star::new(0xEC0_0000 + t as u64);
        for (li, (level, ocf)) in levels.iter().enumerate() {
            for b in stripe(0..level.n_buckets(), t, threads) {
                let (header, recs) = level.read_bucket(b);
                for (slot, rec) in recs.iter().enumerate() {
                    if header & (1 << slot) == 0 {
                        continue;
                    }
                    let spilled = header_slot_spilled(header, slot);
                    let verified = slot_checksum_ok(header, slot, rec)
                        .then(|| match vlog {
                            Some(log) if spilled => log.resolve(rec).map(Some),
                            _ => Some(None),
                        })
                        .flatten();
                    let Some(spill) = verified else {
                        obs::count(obs::Counter::CorruptionDetected);
                        obs::count(obs::Counter::CorruptionQuarantined);
                        level.commit_slot_invalid(b, slot);
                        continue;
                    };
                    let h = KeyHashes::of(&rec.key);
                    ocf.install(b, slot, true, h.fp);
                    if let Some(hot) = hot {
                        hot.put_at(rec, spilled, hot.buckets(h.h1, h.h2), h.fp, &mut rng);
                    }
                    found.push(Found {
                        key: rec.key,
                        level: li,
                        bucket: b,
                        slot,
                        spill,
                    });
                }
            }
        }
        found
    })
}

/// The serial pass after [`scan`]: repairs the update-fallback window —
/// of two copies of one key the first scanned wins, the other is cleared
/// in NVM and the OCF, and the hot table drops the key (its cached copy
/// may be the loser's; the next search re-promotes the winner) — then
/// hands the value log the footprint and end of every winner's record per
/// segment, so everything else in the log counts as garbage. Returns the
/// live count.
fn dedupe(
    levels: &[(&Level, &Ocf)],
    found: &[Vec<Found>],
    hot: Option<&HotTable>,
    vlog: &Vlog,
) -> usize {
    let mut winners = HashSet::new();
    let mut live: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    // Borrowed, not consumed: moving each `Found` out of the flattened
    // vectors made this loop twice as slow at 2 M records (`table1`).
    for f in found.iter().flatten() {
        if winners.insert(f.key) {
            if let Some(ptr) = f.spill {
                let fp = vlog::footprint(ptr.len as usize) as u64;
                let (bytes, end) = live.entry(ptr.segment).or_default();
                *bytes += fp;
                *end = (*end).max(ptr.offset as u64 + fp);
            }
            continue;
        }
        let (level, ocf) = levels[f.level];
        fault::point("recover.dedup.clearing");
        level.commit_slot_invalid(f.bucket, f.slot);
        ocf.install(f.bucket, f.slot, false, 0);
        if let Some(hot) = hot {
            let h = KeyHashes::of(&f.key);
            hot.delete(&f.key, h.h1, h.h2, h.fp);
        }
    }
    vlog.finish_recovery(&live);
    winners.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvtable::slot_meta;
    use crate::params::BUCKET_HEADER;
    use crate::vlog::VlogStats;
    use hdnh_common::{Record, Value};
    use hdnh_nvm::NvmOptions;
    use std::sync::atomic::Ordering;

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
    fn try_recover_reports_wrong_geometry_as_a_typed_error() {
        let t = Hdnh::new(strict_params());
        let pool = t.into_pool();
        let wrong = HdnhParams {
            segment_bytes: 2048,
            ..strict_params()
        };
        match Hdnh::try_recover(wrong, pool, 1) {
            Err(HdnhError::Recovery(msg)) => assert!(msg.contains("disagree"), "{msg}"),
            other => panic!(
                "expected a recovery error, got {:?}",
                other.map(|t| t.len())
            ),
        }
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

    #[test]
    fn a_meta_block_recovery_cannot_trust_is_a_typed_error() {
        let zeroed = {
            let pool = Hdnh::new(strict_params()).into_pool();
            pool.meta.write_bytes(0, &[0; crate::meta::META_BYTES]);
            pool
        };
        let unknown_state = {
            let pool = Hdnh::new(strict_params()).into_pool();
            // The resize state word: the meta block's second 8-byte word.
            pool.meta.atomic_store_u64(8, 7, Ordering::Release);
            pool
        };
        for (pool, why) in [(zeroed, "bad magic"), (unknown_state, "state word 7")] {
            match Hdnh::try_recover(strict_params(), pool, 1) {
                Err(HdnhError::Recovery(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a recovery error naming {why:?}, got {:?}", other.map(|t| t.len())),
            }
        }
    }

    /// A crash between `set_geometry`'s two stores: the top word already
    /// names the migrated level, the bottom word still the old bottom.
    #[test]
    fn recover_from_a_half_published_geometry() {
        let params = strict_params();
        let t = Hdnh::new(params.clone());
        for i in 0..400 {
            t.insert(&k(i), &v(i + 1)).unwrap();
        }
        let (top, bottom) = (t.meta.top_segments(), t.meta.bottom_segments());
        let pool = t.into_crashed_mid_resize(usize::MAX);
        Meta::open(Arc::clone(&pool.meta), params.segment_bytes)
            .unwrap()
            .set_geometry(top * 2, bottom);
        let r = Hdnh::recover(params, pool, 2);
        assert_eq!(r.len(), 400);
        for i in 0..400 {
            assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i + 1, "key {i}");
        }
        assert_eq!((r.meta.top_segments(), r.meta.bottom_segments()), (top * 2, top));
        assert!(r.verify_integrity().is_ok());
    }

    /// The labels a heap pool's level regions arrive with change nothing:
    /// every way of handing the same regions to recovery gives the same
    /// table, mid-resize and mid-allocation alike.
    #[test]
    fn recovery_ignores_how_the_levels_are_labelled() {
        let params = strict_params();
        let crashed = |allocating: bool| {
            let t = Hdnh::new(params.clone());
            for i in 0..300 {
                t.insert(&k(i), &v(i + 1)).unwrap();
            }
            if allocating {
                t.into_crashed_while_allocating()
            } else {
                let half = t.meta_bottom_buckets() / 2;
                t.into_crashed_mid_resize(half)
            }
        };
        for allocating in [false, true] {
            let n = if allocating { 2 } else { 3 };
            for labels in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
                if labels[..2].iter().any(|&l| l >= n) {
                    continue;
                }
                let pool = crashed(allocating);
                let levels: Vec<Arc<NvmRegion>> =
                    [Some(pool.top.clone()), Some(pool.bottom.clone()), pool.new_top.clone()]
                        .into_iter()
                        .flatten()
                        .collect();
                let relabelled = PersistentPool {
                    top: Arc::clone(&levels[labels[0]]),
                    bottom: Arc::clone(&levels[labels[1]]),
                    new_top: levels.get(labels[2]).cloned(),
                    ..pool
                };
                let r = Hdnh::recover(params.clone(), relabelled, 2);
                assert_eq!(r.len(), 300, "allocating {allocating}, labels {labels:?}");
                for i in 0..300 {
                    assert_eq!(r.get(&k(i)).unwrap().unwrap().as_u64(), i + 1, "key {i}");
                }
                assert!(r.verify_integrity().is_ok(), "labels {labels:?}");
            }
        }
    }

    #[test]
    fn recovery_reads_each_bucket_once() {
        // A `Stable` pool with inline and spilled values and log garbage:
        // spilled values overwritten by smaller spilled ones, and removed.
        let params = HdnhParams {
            vlog_segment_bytes: 2048,
            ..strict_params()
        };
        let t = Hdnh::new(params.clone());
        for i in 0..120u64 {
            let len = if i % 3 == 0 { 200 } else { 5 };
            t.insert_bytes(&k(i), &vec![i as u8; len]).unwrap();
        }
        for i in (0..120u64).step_by(6) {
            t.update_bytes(&k(i), &[0xAB; 40]).unwrap();
        }
        for i in (3..120u64).step_by(9) {
            assert!(t.remove(&k(i)).unwrap());
        }
        let pool = t.into_pool();
        let levels = [Arc::clone(&pool.top), Arc::clone(&pool.bottom)];
        let reads = |r: &NvmRegion| r.stats().snapshot().reads;
        let before: Vec<u64> = levels.iter().map(|r| reads(r)).collect();
        let r = Hdnh::recover(params, pool, 2);
        for (region, before) in levels.iter().zip(before) {
            // One charged read per bucket: the scan's. The value log is
            // read through its own regions.
            assert_eq!(reads(region) - before, (region.len() / BUCKET_BYTES) as u64);
        }
        assert_eq!(r.len(), 107);
        // The same accounting the separate value-log walk rebuilt.
        assert_eq!(
            r.vlog_stats(),
            VlogStats {
                segments: 6,
                capacity_bytes: 12_288,
                used_bytes: 10_240,
                garbage_bytes: 6_432,
                live_bytes: 3_808,
                last_gc: None,
            }
        );
        for i in (1..120u64).filter(|i| i % 3 != 0) {
            assert_eq!(
                r.get_bytes(&k(i)).unwrap(),
                Some(vec![i as u8; 5]),
                "key {i}"
            );
        }
    }

    #[test]
    fn dedupe_keeps_the_copy_whose_pointer_resolves() {
        // An update-fallback window (two committed copies of one key) met a
        // lost log page: the copy scanned first names a log record in a
        // segment that does not exist; the second, a durable 200-byte value.
        let key = k(7);
        let t = Hdnh::new(strict_params());
        t.insert_bytes(&key, &[0x5A; 200]).unwrap();
        let durable = t.spill_pointer(&key).unwrap();
        let pool = t.into_pool();
        let bps = strict_params().segment_bytes / BUCKET_BYTES;
        let level = |r: &Arc<NvmRegion>| {
            Level::from_region(Arc::clone(r), r.len() / (bps * BUCKET_BYTES), bps)
        };
        let (top, bottom) = (level(&pool.top), level(&pool.bottom));
        for l in [&top, &bottom] {
            for b in 0..l.n_buckets() {
                let (header, recs) = l.read_bucket(b);
                for (slot, rec) in recs.iter().enumerate() {
                    if header & (1 << slot) != 0 && rec.key == key {
                        l.commit_slot_invalid(b, slot);
                    }
                }
            }
        }
        // Both copies in the key's first top-level candidate bucket, the
        // dangling one in the slot scanned first.
        let bucket = top.candidates(&KeyHashes::of(&key))[0];
        let lost = VlogPtr {
            segment: 999,
            ..durable
        };
        for (slot, ptr) in [(0, lost), (1, durable)] {
            let rec = Record::new(key, ptr.to_value());
            top.write_record(bucket, slot, &rec);
            top.commit_slot_valid(bucket, slot, slot_meta(&rec, true));
        }
        let r = Hdnh::recover(strict_params(), pool, 1);
        assert_eq!(r.get_bytes(&key).unwrap(), Some(vec![0x5A; 200]));
        assert_eq!(r.len(), 1);
        assert!(r.verify_integrity().is_ok());
    }
}
