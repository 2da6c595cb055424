//! Resizing (§3.7): the generation flip, the rehash and the swap.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Key, Record};
use hdnh_nvm::{fault, PoolDir};
use hdnh_obs as obs;

use super::{Hdnh, Inner};
use crate::error::HdnhError;
use crate::meta::{Meta, ResizeState};
use crate::nvtable::{header_slot_spilled, slot_checksum_ok, slot_meta, Level};
use crate::ocf::{self, LockOutcome, Ocf};
use crate::params::{BUCKET_BYTES, SLOTS_PER_BUCKET};
impl Hdnh {
    /// Grows the table with writers paused, unless a resize since
    /// `observed_gen` already did: phases 1–3, then the successor snapshot
    /// is published.
    pub(super) fn resize(&self, observed_gen: u64) -> Result<(), HdnhError> {
        let mut m = self.maintain();
        if self.generation.load(Ordering::SeqCst) != observed_gen {
            return Ok(()); // someone else already grew the table
        }
        // Migration reads a quiescent pair of levels. Readers keep running
        // throughout: the old levels are only ever *copied from*.
        m.pause_writers();
        let old = m.inner();
        // The retiring bottom level's pool file becomes garbage once the
        // swap publishes; remember it so it can be unlinked afterwards.
        let retired_file = old.bottom.region().file_path().map(|p| p.to_path_buf());
        let (new_top, new_ocf) = self.begin_resize(old)?;

        // Phase 2 — rehash bottom-level items into the new top (level 3).
        let span = obs::phase_enter(obs::Phase::ResizeRehash);
        let (moved, dropped) = Self::migrate(
            &old.bottom,
            &new_top,
            &new_ocf,
            0..old.bottom.n_buckets(),
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
        let next = self.finalize_swap(old, new_top, new_ocf, observed_gen + 2);
        obs::phase_record(obs::Phase::ResizeSwap, span, 0);
        m.publish(next);
        // Safe to unlink only now: the post-swap Stable state is persisted,
        // so no recovery will look for this region. Best-effort — a leaked
        // file is caught by the orphan sweep on the next pool open.
        if let Some(path) = retired_file {
            let _ = PoolDir::remove_region(&path);
        }
        Ok(())
    }

    /// Phase 1 — "apply for a new level" (level number 2), up to entering
    /// level number 3 with the rehash cursor at bucket 0. The planned size
    /// is persisted first so recovery can always re-allocate, and the new
    /// level stays reachable from the table until the swap publishes it. A
    /// pool-file allocation failure rolls the persisted state machine back
    /// to `Stable` (nothing was migrated yet) and surfaces as `Io`.
    /// Returns the empty new level and its OCF.
    pub(crate) fn begin_resize(&self, old: &Inner) -> Result<(Level, Ocf), HdnhError> {
        let bps = self.params.segment_bytes / BUCKET_BYTES;
        let new_top_segments = old.top.n_segments() * 2;
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
        // survive. Publishing the successor snapshot clears this.
        *self.pending_new_top.lock() = Some(new_top.clone());
        fault::point("resize.allocated");
        obs::phase_record(obs::Phase::ResizeAllocate, span, new_top.n_slots() as u64);
        self.meta.set_state(ResizeState::Rehashing);
        self.meta.set_rehash_progress(Some(0));
        fault::point("resize.rehashing");
        Ok((new_top, new_ocf))
    }

    /// Moves every valid record of `from`'s `buckets` into `to`, one
    /// bucket at a time, updating the persisted progress cursor after each
    /// bucket. Returns `(moved, dropped)`, summed over
    /// [`migrate_bucket`](Self::migrate_bucket).
    pub(crate) fn migrate(
        from: &Level,
        to: &Level,
        to_ocf: &Ocf,
        buckets: Range<usize>,
        meta: &Meta,
        candidates: usize,
    ) -> (usize, usize) {
        let (mut moved, mut dropped) = (0, 0);
        for b in buckets {
            let (m, d) = Self::migrate_bucket(
                from,
                b,
                to,
                to_ocf,
                false,
                candidates,
                Some("resize.record_migrated"),
            );
            moved += m;
            dropped += d;
            // Paper: record the migrated bucket index so a crash resumes at
            // the next bucket.
            meta.set_rehash_progress(Some(b + 1));
            fault::point("resize.bucket_migrated");
        }
        (moved, dropped)
    }

    /// The one body that migrates a bucket: every valid record of `from`'s
    /// bucket `b` is copied into `to` with its spill flag — the value bytes
    /// of a spilled record are a value-log pointer and must stay flagged
    /// as one. Every record is checksum-verified first: a damaged one is
    /// dropped, never propagated (the old level is discarded after the
    /// swap, so omission quarantines it). With `dup_check` (a resumed
    /// rehash) a record `to` already holds is skipped. `moved_site`, if
    /// any, is the crash site hit after each record that moves. Returns
    /// `(moved, dropped)`.
    pub(crate) fn migrate_bucket(
        from: &Level,
        b: usize,
        to: &Level,
        to_ocf: &Ocf,
        dup_check: bool,
        candidates: usize,
        moved_site: Option<&'static str>,
    ) -> (usize, usize) {
        let (mut moved, mut dropped) = (0, 0);
        let (header, recs) = from.read_bucket(b);
        for (slot, rec) in recs.iter().enumerate() {
            if header & (1 << slot) == 0 {
                continue;
            }
            if !slot_checksum_ok(header, slot, rec) {
                obs::count(obs::Counter::CorruptionDetected);
                obs::count(obs::Counter::CorruptionQuarantined);
                dropped += 1;
                continue;
            }
            let h = KeyHashes::of(&rec.key);
            if dup_check && Self::find_in_level(to, to_ocf, &rec.key, &h, candidates).is_some() {
                continue;
            }
            let spilled = header_slot_spilled(header, slot);
            Self::insert_into_level(to, to_ocf, rec, &h, candidates, spilled);
            moved += 1;
            if let Some(site) = moved_site {
                fault::point(site);
            }
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
    /// window from the persisted words alone: `Rehashing` with
    /// `top_segments == new_top_segments` (only this code writes that
    /// combination) is the swap done but `Stable` unwritten, and
    /// `Meta::assign_roles` finds each level at its persisted size.
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

#[cfg(test)]
mod tests {
    use super::super::tests::{k, table, v};
    use super::*;
    use crate::params::HdnhParams;

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
