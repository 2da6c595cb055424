//! Probing: where a key's probe goes, the search both readers and
//! writers run over it, and the lock-free read path built on it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Key, Record, Value};
use hdnh_obs as obs;

use super::{Hdnh, Inner, CANDIDATES_FULL, CANDIDATES_ONE_CHOICE, RAFL_RNG};
#[cfg(debug_assertions)]
use super::ReadPathGuard;
use crate::hot::{HotBuckets, HotTable};
use crate::nvtable::{header_slot_spilled, header_slot_valid, slot_checksum_ok};
use crate::ocf::{self, Backoff, LockOutcome};
use crate::params::SLOTS_PER_BUCKET;
impl Inner {
    /// The address-first step of every operation (DESIGN.md §11): derives
    /// every DRAM location a probe for `h` can touch in this snapshot —
    /// the two hot buckets, the OCF entry group of each of the first `n`
    /// candidate buckets per level — and asks for all of them at once, so
    /// the walk that follows finds its lines in flight instead of missing
    /// on them one after another. Hints only, and DRAM only: no NVM region
    /// is touched, and nothing the walk decides depends on a hint.
    #[inline]
    pub(super) fn probe(&self, h: &KeyHashes, n: usize) -> Probe<'_> {
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
pub(super) struct Probe<'a> {
    /// The snapshot probed, and the key's hashes.
    pub(super) inner: &'a Inner,
    pub(super) h: KeyHashes,
    /// The hot table and the key's bucket in each of its levels.
    pub(super) hot: Option<(&'a Arc<HotTable>, HotBuckets)>,
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
    pub(super) fn unlock(&self, loc: &Located) {
        self.inner.level(loc.li).1.abort(loc.bucket, loc.slot, loc.entry);
    }

    /// Locks the first empty slot among the candidate buckets — the bucket
    /// of the key's `old` slot, if it has one, before the others — as the
    /// place `value` is going to.
    pub(super) fn claim_empty(&self, old: Option<&Located>, value: Value, spilled: bool) -> Option<Located> {
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
    pub(super) fn unchanged_since(&self, seen: &Witness, own: &Located) -> bool {
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

/// A record's located position in the table.
pub(super) struct Located {
    pub(super) li: usize,
    pub(super) bucket: usize,
    pub(super) slot: usize,
    /// OCF entry snapshot taken when the record was matched.
    pub(super) entry: u16,
    pub(super) value: Value,
    /// The header's spill flag for the slot, from the header load the
    /// entry's seqlock validated: `value` is a packed value-log pointer.
    pub(super) spilled: bool,
}

/// The final OCF entry a writer's probe read for each slot of each candidate
/// bucket of each level: what ruled the key out there (see
/// [`Probe::unchanged_since`]). On the writer's stack; readers keep none.
pub(super) type Witness = [[[u16; SLOTS_PER_BUCKET]; CANDIDATES_FULL]; 2];

/// A probe missed while an out-of-place update was moving a record: the
/// miss proves nothing and the probe must be retried.
struct ProbeRaced;

impl Hdnh {
    /// Candidate buckets probed per level (4, or 2 in the 1-choice
    /// ablation).
    #[inline]
    pub(super) fn n_candidates(&self) -> usize {
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
    pub(super) fn find_and_lock(&self, key: &Key, probe: &Probe, seen: &mut Witness) -> Option<Located> {
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

    /// Whether `key` is present, whichever level wrote it: one lookup
    /// (§3.5, figure 8), with no value-log read.
    pub fn contains(&self, key: &Key) -> bool {
        self.get_word(key).is_some()
    }

    /// Point lookup (§3.5, figure 8): hot table → OCF fingerprints → NVM.
    /// Lock-free: one epoch pin and a generation validation; retries only
    /// across a concurrent resize. Returns the value bytes and the spill
    /// bit they were committed under, from the NVM header or from the hot
    /// entry that carries it along. What they are is never read off the
    /// bytes.
    pub(super) fn get_word(&self, key: &Key) -> Option<(Value, bool)> {
        let t = obs::op_start();
        #[cfg(debug_assertions)]
        let _read_path = ReadPathGuard::enter();
        let out = self.get_inner(key);
        obs::op_record(obs::OpKind::Get, t);
        out
    }

    fn get_inner(&self, key: &Key) -> Option<(Value, bool)> {
        let h = KeyHashes::of(key);
        loop {
            let snap = self.pinned();
            let inner = snap.inner;
            let probe = inner.probe(&h, self.n_candidates());
            if let Some((hot, at)) = probe.hot {
                if let Some(word) = hot.search_at(key, at, h.fp) {
                    return Some(word);
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
                    let rec = Record::new(*key, loc.value);
                    RAFL_RNG.with(|r| hot.put_at(&rec, loc.spilled, at, h.fp, &mut r.borrow_mut()));
                    ocf.abort(loc.bucket, loc.slot, pre);
                }
            }
            return Some((loc.value, loc.spilled));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{k, table, v};
    use super::*;
    use crate::params::{HdnhParams, SyncMode};
    use hdnh_common::HashIndex;

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
            assert!(t.get(&k(1_000_000 + i)).is_none());
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
                assert_eq!(t.get(&k(i)).unwrap().as_u64(), i);
            }
        }
        let delta = t.nvm_stats().since(&before);
        assert_eq!(delta.read_blocks, 0, "hot reads still touch NVM");
    }

    #[test]
    fn one_choice_ablation_works_and_resizes_earlier() {
        let base = HdnhParams {
            segment_bytes: 1024,
            initial_bottom_segments: 2,
            ..Default::default()
        };
        let two = Hdnh::new(HdnhParams { two_choice_segments: true, ..base.clone() });
        let one = Hdnh::new(HdnhParams { two_choice_segments: false, ..base });
        for i in 0..3_000u64 {
            two.insert(&k(i), &v(i)).unwrap();
            one.insert(&k(i), &v(i)).unwrap();
        }
        for i in (0..3_000u64).step_by(11) {
            assert_eq!(one.get(&k(i)).unwrap().as_u64(), i);
            assert_eq!(two.get(&k(i)).unwrap().as_u64(), i);
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
        let base = || HdnhParams {
            segment_bytes: 512, // two buckets per segment
            initial_bottom_segments: 1,
            vlog_segment_bytes: 1024,
            ..Default::default()
        };
        let configs = [
            ("defaults", base()),
            ("no hot table", HdnhParams { enable_hot_table: false, ..base() }),
            ("no filter", HdnhParams { enable_ocf: false, ..base() }),
            ("one-choice segments", HdnhParams { two_choice_segments: false, ..base() }),
            ("one bucket per segment", HdnhParams { segment_bytes: 256, ..base() }),
            ("two-bucket hot table", HdnhParams { hot_capacity_ratio: 1e-6, ..base() }),
            ("background hot writes", HdnhParams { sync_mode: SyncMode::Background, ..base() }),
        ];
        let payload =
            |i: u64, ver: u8| vec![ver ^ i as u8; if i.is_multiple_of(2) { 9 } else { 100 }];
        for (name, params) in configs {
            let t = Hdnh::new(params);
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
                assert_eq!(t.get(&k(i)), None);
                let miss = t.nvm_stats().since(&before).reads;
                HashIndex::upsert(&t, &k(i), &v(i)).unwrap();
                if t.resize_count() == resizes {
                    assert_eq!(t.nvm_stats().since(&before).reads, 2 * miss, "{name}: key {i}");
                }
                HashIndex::upsert(&t, &k(i), &v(i + 1)).unwrap();
                assert_eq!(t.get(&k(i)), Some(v(i + 1)), "{name}: key {i}");
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
            assert!(t.get(&k(10_000_000 + i)).is_none());
        }
        let d = t.nvm_stats().since(&before);
        let per_op = d.read_blocks as f64 / probes as f64;
        // Theory: 64 entries × load × 1/256 ≈ 0.04; allow ≤ 0.5.
        assert!(per_op < 0.5, "negative search reads {per_op:.3} blocks/op — fp aliasing?");
    }
}
