//! The DRAM hot table with RAFL replacement (paper §3.3, figures 5–6).
//!
//! Structurally a shrunken copy of the non-volatile table: two levels, but
//! with **one** candidate bucket per level (single hash per level — the
//! paper trades associativity for cache-miss cost, figure 11b) and fewer
//! slots per bucket (default 4). Each slot carries the figure-5 metadata —
//! bitmap, opmap, version — plus the `hotmap` bit:
//!
//! * a slot's **hot bit is set when a search hits it** ("the item has been
//!   searched after it was added"),
//! * on insertion into a full bucket, **RAFL** evicts a cold slot if one
//!   exists (figure 6a); if every slot is hot it evicts a random slot *and
//!   clears every hot bit in the bucket* (figure 6b), preventing long-term
//!   squatters.
//!
//! A slot also carries the cached word's **spill bit** — the NVM header's,
//! brought along so that a hit says what the 15 value bytes are (inline
//! payload or value-log pointer, DESIGN.md §17) as an NVM read would.
//!
//! An LRU variant ([`crate::HotPolicy::Lru`]) exists solely for figure 12's
//! RAFL-vs-LRU comparison. It is the design the paper compares against
//! (Rewo-style cached table): a **global doubly-linked recency list** over
//! all cached slots, protected by one mutex. Every hit pays the lock plus a
//! move-to-front (several dependent pointer writes), and the list costs
//! 24 bytes per slot — exactly the two drawbacks the paper charges LRU with
//! (§1: "LRU list consumes a lot of memory" / "cannot cope with
//! random-access workloads"). RAFL's hit path is a single relaxed
//! `fetch_or` on metadata already in cache. Victims are chosen inside the
//! candidate bucket by least recency stamp.
//!
//! Concurrency follows the same per-slot optimistic protocol as the OCF
//! (§3.6): writers CAS the busy bit, readers are seqlock-validated. All
//! eviction/insertion is best-effort — this is a cache; under contention an
//! operation may simply skip, never block. Concurrent `put`s of the *same*
//! key may transiently duplicate a cached entry; the non-volatile table is
//! always authoritative and the cache converges on later puts/evictions.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use hdnh_common::prefetch::prefetch_read;
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{Key, Record, Value};
use hdnh_obs as obs;
use parking_lot::Mutex;

use crate::params::HotPolicy;

/// Slot metadata word (u32): VALID | BUSY | HOT | version(6) | SPILLED |
/// 6 spare | fp(8) | 8 spare.
const M_VALID: u32 = 1;
const M_BUSY: u32 = 1 << 1;
const M_HOT: u32 = 1 << 2;
const VER_SHIFT: u32 = 3;
const VER_MASK: u32 = 0x3F << VER_SHIFT;
/// The cached value bytes are a packed value-log pointer.
const M_SPILLED: u32 = 1 << 9;
const FP_SHIFT: u32 = 16;
const FP_MASK: u32 = 0xFF << FP_SHIFT;
/// Readers ignore the hot bit when revalidating: setting it on a hit must
/// not invalidate concurrent readers of the same slot.
const SNAPSHOT_MASK: u32 = !M_HOT;

#[inline]
fn m_pack(valid: bool, busy: bool, hot: bool, ver: u32, spilled: bool, fp: u8) -> u32 {
    (valid as u32)
        | ((busy as u32) << 1)
        | ((hot as u32) << 2)
        | ((ver & 0x3F) << VER_SHIFT)
        | (spilled as u32 * M_SPILLED)
        | ((fp as u32) << FP_SHIFT)
}

#[inline]
fn m_valid(m: u32) -> bool {
    m & M_VALID != 0
}
#[inline]
fn m_busy(m: u32) -> bool {
    m & M_BUSY != 0
}
#[inline]
fn m_hot(m: u32) -> bool {
    m & M_HOT != 0
}
#[inline]
fn m_ver(m: u32) -> u32 {
    (m & VER_MASK) >> VER_SHIFT
}
#[inline]
fn m_spilled(m: u32) -> bool {
    m & M_SPILLED != 0
}
#[inline]
fn m_fp(m: u32) -> u8 {
    ((m & FP_MASK) >> FP_SHIFT) as u8
}

/// Record payload storage: 4 atomic words = 32 bytes ≥ 31-byte record.
const WORDS_PER_SLOT: usize = 4;

const LRU_NONE: u32 = u32::MAX;

/// The global recency list (LRU policy only): an intrusive doubly-linked
/// list over global slot ids, plus a monotonic stamp per slot for in-bucket
/// victim selection. One mutex guards the whole list — the serialization a
/// list-based LRU imposes on every hit.
struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    clock: u64,
}

impl LruList {
    fn new(n: usize) -> Self {
        LruList {
            prev: vec![LRU_NONE; n],
            next: vec![LRU_NONE; n],
            head: LRU_NONE,
            tail: LRU_NONE,
            clock: 1,
        }
    }

    fn unlink(&mut self, id: u32) {
        let (p, n) = (self.prev[id as usize], self.next[id as usize]);
        if p != LRU_NONE {
            self.next[p as usize] = n;
        } else if self.head == id {
            self.head = n;
        }
        if n != LRU_NONE {
            self.prev[n as usize] = p;
        } else if self.tail == id {
            self.tail = p;
        }
        self.prev[id as usize] = LRU_NONE;
        self.next[id as usize] = LRU_NONE;
    }

    fn push_front(&mut self, id: u32) -> u64 {
        self.next[id as usize] = self.head;
        self.prev[id as usize] = LRU_NONE;
        if self.head != LRU_NONE {
            self.prev[self.head as usize] = id;
        }
        self.head = id;
        if self.tail == LRU_NONE {
            self.tail = id;
        }
        self.clock += 1;
        self.clock
    }

    fn touch(&mut self, id: u32) -> u64 {
        if self.head == id {
            self.clock += 1;
            return self.clock;
        }
        self.unlink(id);
        self.push_front(id)
    }
}

struct HotLevel {
    n_buckets: usize,
    slots: usize,
    meta: Box<[AtomicU32]>,
    data: Box<[AtomicU64]>,
}

impl HotLevel {
    fn new(n_buckets: usize, slots: usize) -> Self {
        let n = n_buckets * slots;
        let mut meta = Vec::with_capacity(n);
        meta.resize_with(n, || AtomicU32::new(0));
        let mut data = Vec::with_capacity(n * WORDS_PER_SLOT);
        data.resize_with(n * WORDS_PER_SLOT, || AtomicU64::new(0));
        HotLevel {
            n_buckets,
            slots,
            meta: meta.into_boxed_slice(),
            data: data.into_boxed_slice(),
        }
    }

    #[inline]
    fn slot_idx(&self, bucket: usize, slot: usize) -> usize {
        bucket * self.slots + slot
    }

    fn read_data(&self, idx: usize) -> Record {
        let mut bytes = [0u8; WORDS_PER_SLOT * 8];
        for w in 0..WORDS_PER_SLOT {
            bytes[w * 8..w * 8 + 8].copy_from_slice(
                &self.data[idx * WORDS_PER_SLOT + w]
                    .load(Ordering::Relaxed)
                    .to_le_bytes(),
            );
        }
        Record::from_bytes(bytes[..hdnh_common::RECORD_LEN].try_into().unwrap())
    }

    fn write_data(&self, idx: usize, rec: &Record) {
        let mut bytes = [0u8; WORDS_PER_SLOT * 8];
        bytes[..hdnh_common::RECORD_LEN].copy_from_slice(&rec.to_bytes());
        for w in 0..WORDS_PER_SLOT {
            self.data[idx * WORDS_PER_SLOT + w].store(
                u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap()),
                Ordering::Relaxed,
            );
        }
    }
}

/// A key's candidate bucket in each level (top, bottom): everything the
/// hot table derives from the key's hashes. An operation computes it once
/// ([`HotTable::buckets`]) and hands it to the prefetch, the search and
/// every phase of a put, instead of reducing the hashes again at each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HotBuckets([usize; 2]);

/// The hot table: two levels, single candidate bucket per level.
///
/// ```
/// use hdnh::{HotPolicy, HotTable};
/// use hdnh_common::hash::KeyHashes;
/// use hdnh_common::{Key, Record, Value};
/// use hdnh_common::rng::XorShift64Star;
///
/// let hot = HotTable::new(256, 4, HotPolicy::Rafl);
/// let key = Key::from_u64(7);
/// let h = KeyHashes::of(&key);
/// let mut rng = XorShift64Star::new(1);
/// hot.put(&Record::new(key, Value::from_u64(70)), h.h1, h.h2, h.fp, &mut rng);
/// assert_eq!(hot.search(&key, h.h1, h.h2, h.fp).unwrap().as_u64(), 70);
/// assert_eq!(hot.is_hot(&key, h.h1, h.h2, h.fp), Some(true), "hit set the hotmap bit");
/// ```
pub struct HotTable {
    levels: [HotLevel; 2],
    policy: HotPolicy,
    /// Global recency list (LRU policy only).
    lru: Option<Mutex<LruList>>,
    /// Per-slot recency stamps, indexed by global slot id (LRU only).
    stamps: Box<[AtomicU64]>,
}

impl HotTable {
    /// Builds a hot table holding roughly `total_slots` records in buckets
    /// of `slots_per_bucket`, split 2:1 between the levels like the
    /// non-volatile table.
    pub fn new(total_slots: usize, slots_per_bucket: usize, policy: HotPolicy) -> Self {
        assert!((1..=8).contains(&slots_per_bucket));
        let total_buckets = (total_slots / slots_per_bucket).max(2);
        let top = (total_buckets * 2 / 3).max(1);
        let bottom = (total_buckets - top).max(1);
        let n_slots = (top + bottom) * slots_per_bucket;
        let lru = policy == HotPolicy::Lru;
        let mut stamps = Vec::new();
        if lru {
            stamps.resize_with(n_slots, || AtomicU64::new(0));
        }
        HotTable {
            levels: [
                HotLevel::new(top, slots_per_bucket),
                HotLevel::new(bottom, slots_per_bucket),
            ],
            policy,
            lru: lru.then(|| Mutex::new(LruList::new(n_slots))),
            stamps: stamps.into_boxed_slice(),
        }
    }

    /// Global slot id of `(level, idx)` — indexes the LRU bookkeeping.
    #[inline]
    fn gid(&self, level: usize, idx: usize) -> u32 {
        (if level == 0 {
            idx
        } else {
            self.levels[0].n_buckets * self.levels[0].slots + idx
        }) as u32
    }

    /// LRU hit/insert path: global list move-to-front + stamp store — the
    /// maintenance overhead figure 12 measures.
    #[inline]
    fn lru_touch(&self, level: usize, idx: usize) {
        let gid = self.gid(level, idx);
        let stamp = self.lru.as_ref().expect("LRU policy").lock().touch(gid);
        self.stamps[gid as usize].store(stamp, Ordering::Relaxed);
    }

    fn lru_remove(&self, level: usize, idx: usize) {
        let gid = self.gid(level, idx);
        self.lru.as_ref().expect("LRU policy").lock().unlink(gid);
        self.stamps[gid as usize].store(0, Ordering::Relaxed);
    }

    /// Replacement policy in force.
    pub fn policy(&self) -> HotPolicy {
        self.policy
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.levels.iter().map(|l| l.n_buckets * l.slots).sum()
    }

    /// Live records (linear scan; diagnostics only).
    pub fn len(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.meta
                    .iter()
                    .filter(|m| m_valid(m.load(Ordering::Relaxed)))
                    .count()
            })
            .sum()
    }

    /// `true` when no records are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate DRAM footprint in bytes, including LRU bookkeeping —
    /// makes the paper's "LRU consumes a lot of memory space" measurable.
    pub fn footprint_bytes(&self) -> usize {
        let base: usize = self
            .levels
            .iter()
            .map(|l| l.meta.len() * 4 + l.data.len() * 8)
            .sum();
        // LRU bookkeeping: prev + next (4 B each) + stamp (8 B) per slot.
        base + self.stamps.len() * 16 + if self.lru.is_some() { self.stamps.len() * 8 } else { 0 }
    }

    #[inline]
    fn bucket_of(&self, level: usize, h1: u64, h2: u64) -> usize {
        // One hash per level (paper §3.3): h1 addresses the top level, h2
        // the bottom level. h1's low byte is the fingerprint, so shift it
        // out of the index (see `Level::candidates` for the bit budget).
        let h = if level == 0 { h1 >> 8 } else { h2 };
        (h % self.levels[level].n_buckets as u64) as usize
    }

    /// The key's candidate bucket in each level.
    #[inline]
    pub(crate) fn buckets(&self, h1: u64, h2: u64) -> HotBuckets {
        HotBuckets([self.bucket_of(0, h1, h2), self.bucket_of(1, h1, h2)])
    }

    /// Hints that both candidate buckets are about to be walked: asks for
    /// their metadata words and record payloads. Changes nothing.
    #[inline]
    pub(crate) fn prefetch(&self, at: HotBuckets) {
        for (lv, &bucket) in self.levels.iter().zip(&at.0) {
            let first = lv.slot_idx(bucket, 0);
            prefetch_read(&lv.meta, first..first + lv.slots);
            let payload = first * WORDS_PER_SLOT;
            prefetch_read(&lv.data, payload..payload + lv.slots * WORDS_PER_SLOT);
        }
    }

    #[inline]
    fn touch(&self, level: usize, idx: usize) {
        match self.policy {
            HotPolicy::Rafl => {
                // RAFL hit path: one relaxed RMW. Readers mask this bit out
                // so no one is invalidated.
                self.levels[level].meta[idx].fetch_or(M_HOT, Ordering::Relaxed);
            }
            HotPolicy::Lru => self.lru_touch(level, idx),
        }
    }

    /// Point lookup. A hit marks the slot hot (RAFL) or refreshes its
    /// recency (LRU).
    pub fn search(&self, key: &Key, h1: u64, h2: u64, fp: u8) -> Option<Value> {
        self.search_at(key, self.buckets(h1, h2), fp).map(|(value, _)| value)
    }

    /// [`search`](Self::search) at precomputed buckets, returning the word
    /// as it was cached: the value bytes and their spill bit.
    pub(crate) fn search_at(&self, key: &Key, at: HotBuckets, fp: u8) -> Option<(Value, bool)> {
        for level in 0..2 {
            let lv = &self.levels[level];
            let bucket = at.0[level];
            for slot in 0..lv.slots {
                let idx = lv.slot_idx(bucket, slot);
                let m1 = lv.meta[idx].load(Ordering::Acquire);
                if !m_valid(m1) || m_busy(m1) || m_fp(m1) != fp {
                    continue;
                }
                let rec = lv.read_data(idx);
                fence(Ordering::Acquire);
                let m2 = lv.meta[idx].load(Ordering::Relaxed);
                if (m1 & SNAPSHOT_MASK) != (m2 & SNAPSHOT_MASK) {
                    continue; // concurrent writer; treat as miss (cache!)
                }
                if rec.key == *key {
                    self.touch(level, idx);
                    obs::count(obs::Counter::HotHit);
                    return Some((rec.value, m_spilled(m1)));
                }
            }
        }
        obs::count(obs::Counter::HotMiss);
        None
    }

    /// Insert-or-update. Best-effort: under lock contention the write is
    /// skipped (the cache self-heals on the next search miss).
    ///
    /// Matches the paper's background-thread behaviour: update in place if
    /// the key is cached, otherwise insert, evicting per RAFL/LRU when the
    /// candidate bucket is full.
    ///
    /// Caches `rec` as an inline word. A table caching one of its slots
    /// passes the slot's spill bit along: `put_at`.
    pub fn put(&self, rec: &Record, h1: u64, h2: u64, fp: u8, rng: &mut XorShift64Star) {
        self.put_at(rec, false, self.buckets(h1, h2), fp, rng)
    }

    /// [`put`](Self::put) at precomputed buckets. `spilled`: the value
    /// bytes are a packed value-log pointer (the NVM header's spill bit).
    pub(crate) fn put_at(
        &self,
        rec: &Record,
        spilled: bool,
        at: HotBuckets,
        fp: u8,
        rng: &mut XorShift64Star,
    ) {
        // Phase 1: in-place update if present.
        if self.refresh_at(rec, spilled, at, fp) {
            return;
        }
        // Phase 2: empty slot in either candidate bucket.
        for level in 0..2 {
            let lv = &self.levels[level];
            let bucket = at.0[level];
            for slot in 0..lv.slots {
                let idx = lv.slot_idx(bucket, slot);
                let m = lv.meta[idx].load(Ordering::Relaxed);
                if m_valid(m) || m_busy(m) {
                    continue;
                }
                if let Some(locked) = self.try_lock(level, idx, m) {
                    lv.write_data(idx, rec);
                    self.publish(level, idx, locked, spilled, fp, false);
                    if self.policy == HotPolicy::Lru {
                        self.lru_touch(level, idx);
                    }
                    return;
                }
            }
        }
        // Phase 3: evict in the top-level candidate bucket.
        self.evict_and_insert(0, rec, spilled, at.0[0], fp, rng);
    }

    /// Overwrites the key's cached copy with `rec` if there is one, and
    /// reports whether there was: [`put`](Self::put) without the insert.
    /// What a writer uses when the record must not go stale in the cache
    /// but has not earned a place in it (the value-log compactor moving a
    /// record nobody asked for).
    ///
    /// A slot whose fingerprint matches must be settled, not skipped:
    /// walking past the key's live copy (because a search's hot-bit RMW
    /// broke our CAS, or an eviction holds the slot) would let a put
    /// insert a second copy below and leave a stale duplicate that search
    /// could serve forever.
    pub(crate) fn refresh_at(&self, rec: &Record, spilled: bool, at: HotBuckets, fp: u8) -> bool {
        for level in 0..2 {
            let lv = &self.levels[level];
            let bucket = at.0[level];
            for slot in 0..lv.slots {
                let idx = lv.slot_idx(bucket, slot);
                loop {
                    let m = lv.meta[idx].load(Ordering::Acquire);
                    if !m_valid(m) || m_fp(m) != fp {
                        break; // cannot be this key's copy — next slot
                    }
                    if m_busy(m) {
                        std::hint::spin_loop();
                        continue; // short DRAM critical section; wait it out
                    }
                    if let Some(locked) = self.try_lock(level, idx, m) {
                        if lv.read_data(idx).key == rec.key {
                            lv.write_data(idx, rec);
                            self.publish(level, idx, locked, spilled, fp, m_hot(locked));
                            if self.policy == HotPolicy::Lru {
                                self.lru_touch(level, idx);
                            }
                            return true;
                        }
                        self.unlock_restore(level, idx, locked);
                        break; // fingerprint collision with another key
                    }
                    // CAS lost to a toucher or writer: reload and retry.
                }
            }
        }
        false
    }

    fn evict_and_insert(
        &self,
        level: usize,
        rec: &Record,
        spilled: bool,
        bucket: usize,
        fp: u8,
        rng: &mut XorShift64Star,
    ) {
        let lv = &self.levels[level];

        let (slot, reset_hot) = match self.policy {
            HotPolicy::Rafl => {
                // Figure 6(a): any cold slot.
                let cold = (0..lv.slots).find(|&s| {
                    let m = lv.meta[lv.slot_idx(bucket, s)].load(Ordering::Relaxed);
                    m_valid(m) && !m_busy(m) && !m_hot(m)
                });
                match cold {
                    Some(s) => (s, false),
                    // Figure 6(b): all hot — random victim, then reset the
                    // bucket's hot bits.
                    None => (rng.next_below(lv.slots as u32) as usize, true),
                }
            }
            HotPolicy::Lru => {
                // Least recency stamp among usable slots of the bucket.
                let victim = (0..lv.slots)
                    .filter(|&s| {
                        let m = lv.meta[lv.slot_idx(bucket, s)].load(Ordering::Relaxed);
                        m_valid(m) && !m_busy(m)
                    })
                    .min_by_key(|&s| {
                        self.stamps[self.gid(level, lv.slot_idx(bucket, s)) as usize]
                            .load(Ordering::Relaxed)
                    });
                match victim {
                    Some(s) => (s, false),
                    None => {
                        obs::count(obs::Counter::HotPutSkip);
                        return; // everything busy: skip
                    }
                }
            }
        };

        let idx = lv.slot_idx(bucket, slot);
        let m = lv.meta[idx].load(Ordering::Relaxed);
        if m_busy(m) {
            obs::count(obs::Counter::HotPutSkip);
            return; // contended: skip, stay best-effort
        }
        if let Some(locked) = self.try_lock(level, idx, m) {
            lv.write_data(idx, rec);
            self.publish(level, idx, locked, spilled, fp, false);
            match self.policy {
                HotPolicy::Rafl => {
                    if reset_hot {
                        obs::count(obs::Counter::HotEvictRandom);
                        // "After that we set all hotmaps of the bucket to 0"
                        // — stop hot squatters monopolising the bucket.
                        for s in 0..lv.slots {
                            lv.meta[lv.slot_idx(bucket, s)].fetch_and(!M_HOT, Ordering::Relaxed);
                        }
                        obs::count(obs::Counter::HotHotmapClear);
                    } else {
                        obs::count(obs::Counter::HotEvictCold);
                    }
                }
                HotPolicy::Lru => self.lru_touch(level, idx),
            }
        } else {
            obs::count(obs::Counter::HotPutSkip);
        }
    }

    /// Removes `key` from the cache if present. Like `put`'s phase 1, a
    /// fingerprint-matching slot is settled rather than skipped: leaving
    /// the copy behind on CAS contention would resurrect a removed key.
    pub fn delete(&self, key: &Key, h1: u64, h2: u64, fp: u8) {
        self.delete_at(key, self.buckets(h1, h2), fp)
    }

    /// [`delete`](Self::delete) at precomputed buckets.
    pub(crate) fn delete_at(&self, key: &Key, at: HotBuckets, fp: u8) {
        for level in 0..2 {
            let lv = &self.levels[level];
            let bucket = at.0[level];
            for slot in 0..lv.slots {
                let idx = lv.slot_idx(bucket, slot);
                loop {
                    let m = lv.meta[idx].load(Ordering::Acquire);
                    if !m_valid(m) || m_fp(m) != fp {
                        break;
                    }
                    if m_busy(m) {
                        std::hint::spin_loop();
                        continue;
                    }
                    if let Some(locked) = self.try_lock(level, idx, m) {
                        if lv.read_data(idx).key == *key {
                            self.clear(level, idx, locked);
                            if self.policy == HotPolicy::Lru {
                                self.lru_remove(level, idx);
                            }
                            return;
                        }
                        self.unlock_restore(level, idx, locked);
                        break;
                    }
                }
            }
        }
    }

    // ---------------- slot lock protocol ----------------

    fn try_lock(&self, level: usize, idx: usize, expected: u32) -> Option<u32> {
        if m_busy(expected) {
            return None;
        }
        match self.levels[level].meta[idx].compare_exchange(
            expected,
            expected | M_BUSY,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                fence(Ordering::Release);
                Some(expected)
            }
            Err(_) => None,
        }
    }

    /// Unlocks a slot whose payload was just written, as a valid entry.
    fn publish(&self, level: usize, idx: usize, locked: u32, spilled: bool, fp: u8, hot: bool) {
        let next = m_pack(true, false, hot, m_ver(locked).wrapping_add(1), spilled, fp);
        self.levels[level].meta[idx].store(next, Ordering::Release);
    }

    /// Unlocks a slot as an empty one.
    fn clear(&self, level: usize, idx: usize, locked: u32) {
        let next = m_pack(false, false, false, m_ver(locked).wrapping_add(1), false, 0);
        self.levels[level].meta[idx].store(next, Ordering::Release);
    }

    fn unlock_restore(&self, level: usize, idx: usize, locked: u32) {
        // Nothing was written; bump the version anyway (cheap, safe).
        let next = m_pack(
            m_valid(locked),
            false,
            m_hot(locked),
            m_ver(locked).wrapping_add(1),
            m_spilled(locked),
            m_fp(locked),
        );
        self.levels[level].meta[idx].store(next, Ordering::Release);
    }

    /// Whether a cached slot for `key` currently has its hot bit set
    /// (test hook for the RAFL state machine; always `Some(false)` under
    /// LRU when present).
    pub fn is_hot(&self, key: &Key, h1: u64, h2: u64, fp: u8) -> Option<bool> {
        for level in 0..2 {
            let lv = &self.levels[level];
            let bucket = self.bucket_of(level, h1, h2);
            for slot in 0..lv.slots {
                let idx = lv.slot_idx(bucket, slot);
                let m = lv.meta[idx].load(Ordering::Acquire);
                if m_valid(m) && !m_busy(m) && m_fp(m) == fp && lv.read_data(idx).key == *key {
                    return Some(m_hot(m));
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for HotTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotTable")
            .field("capacity", &self.capacity())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_common::hash::KeyHashes;

    fn hashes(id: u64) -> (Key, KeyHashes) {
        let k = Key::from_u64(id);
        let h = KeyHashes::of(&k);
        (k, h)
    }

    fn put(t: &HotTable, id: u64, val: u64, rng: &mut XorShift64Star) {
        let (k, h) = hashes(id);
        t.put(&Record::new(k, Value::from_u64(val)), h.h1, h.h2, h.fp, rng);
    }

    fn get(t: &HotTable, id: u64) -> Option<u64> {
        let (k, h) = hashes(id);
        t.search(&k, h.h1, h.h2, h.fp).map(|v| v.as_u64())
    }

    #[test]
    fn put_then_search() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(1);
        put(&t, 1, 10, &mut rng);
        put(&t, 2, 20, &mut rng);
        assert_eq!(get(&t, 1), Some(10));
        assert_eq!(get(&t, 2), Some(20));
        assert_eq!(get(&t, 3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn put_updates_in_place() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(1);
        put(&t, 5, 50, &mut rng);
        put(&t, 5, 51, &mut rng);
        assert_eq!(get(&t, 5), Some(51));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(1);
        put(&t, 9, 90, &mut rng);
        let (k, h) = hashes(9);
        t.delete(&k, h.h1, h.h2, h.fp);
        assert_eq!(get(&t, 9), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn search_sets_hot_bit() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(1);
        put(&t, 7, 70, &mut rng);
        let (k, h) = hashes(7);
        assert_eq!(t.is_hot(&k, h.h1, h.h2, h.fp), Some(false), "cold on insert");
        assert_eq!(get(&t, 7), Some(70));
        assert_eq!(t.is_hot(&k, h.h1, h.h2, h.fp), Some(true), "hot after a hit");
    }

    #[test]
    fn rafl_prefers_cold_victims() {
        // Saturate a tiny table, heat one resident, then force evictions in
        // its bucket: the heated item must survive the first eviction.
        let t = HotTable::new(8, 2, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(2);
        let mut id = 0u64;
        while t.len() < t.capacity() && id < 100_000 {
            put(&t, id, id, &mut rng);
            id += 1;
        }
        // Find a level-0 resident and heat it.
        let resident = (0..id).find(|&i| {
            let (_, h) = hashes(i);
            let _ = get(&t, i); // heat the key; residency is checked structurally
            // resident in level 0?
            let b0 = t.bucket_of(0, h.h1, h.h2);
            let lv = &t.levels[0];
            (0..lv.slots).any(|s| {
                let m = lv.meta[lv.slot_idx(b0, s)].load(Ordering::Relaxed);
                m_valid(m) && lv.read_data(lv.slot_idx(b0, s)).key == Key::from_u64(i)
            })
        });
        let Some(hot_id) = resident else { return };
        assert!(get(&t, hot_id).is_some()); // heats it
        let (_, hh) = hashes(hot_id);
        let hot_bucket = t.bucket_of(0, hh.h1, hh.h2);
        // One insert targeting that bucket: must evict a COLD slot, not ours.
        let mut probe = 1_000_000u64;
        loop {
            let (_, h) = hashes(probe);
            if t.bucket_of(0, h.h1, h.h2) == hot_bucket {
                // Ensure phases 1/2 cannot place it elsewhere: only run the
                // eviction directly.
                let (k, _) = hashes(probe);
                t.evict_and_insert(
                    0,
                    &Record::new(k, Value::from_u64(1)),
                    false,
                    hot_bucket,
                    h.fp,
                    &mut rng,
                );
                break;
            }
            probe += 1;
        }
        assert_eq!(get(&t, hot_id), Some(hot_id), "hot item was evicted while cold existed");
    }

    #[test]
    fn rafl_all_hot_random_eviction_resets_hotmap() {
        let t = HotTable::new(8, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(3);
        // Saturate and heat everything.
        let mut id = 0u64;
        while t.len() < t.capacity() && id < 100_000 {
            put(&t, id, id, &mut rng);
            id += 1;
        }
        for probe in 0..id {
            let _ = get(&t, probe);
        }
        // Force an eviction in level 0, bucket of a fresh key.
        let newcomer = 5_000_000u64;
        let (k, h) = hashes(newcomer);
        let bucket = t.bucket_of(0, h.h1, h.h2);
        // Precondition: every valid slot in that bucket is hot.
        let lv = &t.levels[0];
        let all_hot = (0..lv.slots).all(|s| {
            let m = lv.meta[lv.slot_idx(bucket, s)].load(Ordering::Relaxed);
            !m_valid(m) || m_hot(m)
        });
        if !all_hot {
            return; // saturation raced; nothing to assert
        }
        t.evict_and_insert(0, &Record::new(k, Value::from_u64(1)), false, bucket, h.fp, &mut rng);
        // Postcondition (figure 6b): no slot in the bucket is hot.
        for s in 0..lv.slots {
            let m = lv.meta[lv.slot_idx(bucket, s)].load(Ordering::Relaxed);
            assert!(!m_hot(m), "hotmap not reset after all-hot eviction");
        }
        assert_eq!(get(&t, newcomer), Some(1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single bucket per level, 4 slots: deterministic recency order.
        let t = HotTable::new(8, 4, HotPolicy::Lru);
        let mut rng = XorShift64Star::new(4);
        // Find 4 ids all mapping to level-0 bucket 0… with 1-2 buckets in
        // L0 that's easy; insert until bucket 0 of level 0 is full.
        let lv0_buckets = t.levels[0].n_buckets;
        let mut captives = Vec::new();
        let mut id = 0u64;
        while captives.len() < 4 && id < 100_000 {
            let (_, h) = hashes(id);
            if t.bucket_of(0, h.h1, h.h2) == 0 {
                // Put directly through eviction path to pin level 0.
                let (k, _) = hashes(id);
                t.evict_and_insert(0, &Record::new(k, Value::from_u64(id)), false, 0, h.fp, &mut rng);
                if get(&t, id).is_some() {
                    captives.push(id);
                }
            }
            id += 1;
        }
        let _ = lv0_buckets;
        if captives.len() < 4 {
            return;
        }
        // Touch all but captives[0] → it becomes the LRU victim.
        for &c in &captives[1..] {
            let _ = get(&t, c);
        }
        // Insert a new key into bucket 0 via eviction.
        let mut probe = 9_000_000u64;
        loop {
            let (_, h) = hashes(probe);
            if t.bucket_of(0, h.h1, h.h2) == 0 {
                let (k, _) = hashes(probe);
                t.evict_and_insert(0, &Record::new(k, Value::from_u64(7)), false, 0, h.fp, &mut rng);
                break;
            }
            probe += 1;
        }
        assert_eq!(get(&t, captives[0]), None, "LRU item should be the victim");
        for &c in &captives[1..] {
            assert!(get(&t, c).is_some(), "recently used item evicted");
        }
    }

    #[test]
    fn lru_list_struct_behaviour() {
        let mut l = LruList::new(4);
        let s0 = l.push_front(0);
        let s1 = l.push_front(1);
        let s2 = l.push_front(2);
        assert!(s0 < s1 && s1 < s2, "stamps are monotonic");
        assert_eq!(l.head, 2);
        assert_eq!(l.tail, 0);
        let s0b = l.touch(0); // refresh: 0 becomes MRU
        assert!(s0b > s2);
        assert_eq!(l.head, 0);
        assert_eq!(l.tail, 1);
        l.unlink(1);
        assert_eq!(l.tail, 2);
        l.unlink(0);
        l.unlink(2);
        assert_eq!(l.head, LRU_NONE);
        assert_eq!(l.tail, LRU_NONE);
    }

    #[test]
    fn lru_touch_head_is_cheap_and_consistent() {
        let mut l = LruList::new(2);
        l.push_front(0);
        let a = l.touch(0);
        let b = l.touch(0);
        assert!(b > a);
        assert_eq!(l.head, 0);
        assert_eq!(l.tail, 0);
    }

    #[test]
    fn footprint_lru_exceeds_rafl() {
        let r = HotTable::new(1024, 4, HotPolicy::Rafl);
        let l = HotTable::new(1024, 4, HotPolicy::Lru);
        assert!(l.footprint_bytes() > r.footprint_bytes());
    }

    #[test]
    fn concurrent_puts_and_searches_are_safe_and_consistent() {
        use std::sync::Arc;
        let t = Arc::new(HotTable::new(256, 4, HotPolicy::Rafl));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(tid);
                for i in 0..20_000u64 {
                    let id = (i * 7 + tid) % 512;
                    // value encodes the key id; readers validate.
                    put(&t, id, id * 1000, &mut rng);
                    if let Some(v) = get(&t, id) {
                        assert_eq!(v, id * 1000, "torn or foreign value");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_lru_is_safe() {
        use std::sync::Arc;
        let t = Arc::new(HotTable::new(64, 4, HotPolicy::Lru));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(tid + 100);
                for i in 0..20_000u64 {
                    let id = (i * 13 + tid) % 256;
                    put(&t, id, id * 3, &mut rng);
                    if let Some(v) = get(&t, id) {
                        assert_eq!(v, id * 3);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn single_slot_buckets_work_under_both_policies() {
        for policy in [HotPolicy::Rafl, HotPolicy::Lru] {
            let t = HotTable::new(16, 1, policy);
            let mut rng = XorShift64Star::new(11);
            for id in 0..200u64 {
                put(&t, id, id * 2, &mut rng);
            }
            // Whatever remains cached must be correct.
            let mut hits = 0;
            for id in 0..200u64 {
                if let Some(v) = get(&t, id) {
                    assert_eq!(v, id * 2, "{policy:?}");
                    hits += 1;
                }
            }
            assert!(hits > 0, "{policy:?}: cache completely empty");
        }
    }

    #[test]
    fn delete_of_absent_key_is_noop() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let (k, h) = hashes(12345);
        t.delete(&k, h.h1, h.h2, h.fp); // must not panic or corrupt
        assert_eq!(t.len(), 0);
        assert_eq!(t.is_hot(&k, h.h1, h.h2, h.fp), None);
    }

    #[test]
    fn saturated_table_keeps_serving_under_both_policies() {
        for policy in [HotPolicy::Rafl, HotPolicy::Lru] {
            let t = HotTable::new(32, 4, policy);
            let mut rng = XorShift64Star::new(13);
            for id in 0..10_000u64 {
                put(&t, id, id, &mut rng);
                if id % 7 == 0 {
                    let _ = get(&t, id);
                }
            }
            assert!(t.len() <= t.capacity(), "{policy:?}");
            assert!(!t.is_empty(), "{policy:?}");
        }
    }

    #[test]
    fn buckets_computed_once_equal_bucket_of() {
        let mut rng = XorShift64Star::new(0xB0C4E7);
        for (total, slots) in [(2, 1), (8, 4), (96, 4), (1000, 8), (12_345, 3)] {
            let t = HotTable::new(total, slots, HotPolicy::Rafl);
            for _ in 0..2_000 {
                let (h1, h2) = (rng.next_u64(), rng.next_u64());
                let at = t.buckets(h1, h2);
                assert_eq!(at.0, [t.bucket_of(0, h1, h2), t.bucket_of(1, h1, h2)]);
                assert!(at.0[0] < t.levels[0].n_buckets && at.0[1] < t.levels[1].n_buckets);
            }
        }
    }

    #[test]
    fn precomputed_buckets_reach_the_same_slots_as_the_hashes() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(5);
        for id in 0..200u64 {
            let (k, h) = hashes(id);
            let at = t.buckets(h.h1, h.h2);
            t.prefetch(at);
            t.put_at(&Record::new(k, Value::from_u64(id)), false, at, h.fp, &mut rng);
            // Whatever one addressing finds, the other finds.
            assert_eq!(t.search(&k, h.h1, h.h2, h.fp), t.search_at(&k, at, h.fp).map(|(v, _)| v));
            if id % 3 == 0 {
                t.delete_at(&k, at, h.fp);
                assert_eq!(get(&t, id), None);
            }
        }
    }

    #[test]
    fn refresh_rewrites_a_cached_copy_and_inserts_nothing() {
        let t = HotTable::new(64, 4, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(6);
        let (k, h) = hashes(1);
        let at = t.buckets(h.h1, h.h2);
        assert!(!t.refresh_at(&Record::new(k, Value::from_u64(10)), false, at, h.fp));
        assert!(t.is_empty(), "a refresh of an uncached key must not insert");
        put(&t, 1, 10, &mut rng);
        assert!(get(&t, 1).is_some()); // sets the hot bit
        assert!(t.refresh_at(&Record::new(k, Value::from_u64(11)), false, at, h.fp));
        assert_eq!(get(&t, 1), Some(11));
        assert_eq!(t.len(), 1);
        assert_eq!(t.is_hot(&k, h.h1, h.h2, h.fp), Some(true), "refresh keeps the hot bit");
    }

    #[test]
    fn a_cached_word_keeps_its_spill_bit() {
        for policy in [HotPolicy::Rafl, HotPolicy::Lru] {
            let t = HotTable::new(8, 2, policy);
            let mut rng = XorShift64Star::new(7);
            // More keys than slots: inserts, evictions under both RAFL
            // branches, in-place refreshes and hot-bit touches.
            for round in 0..4u64 {
                for id in 0..40u64 {
                    let (k, h) = hashes(id);
                    let at = t.buckets(h.h1, h.h2);
                    let spilled = (id + round) % 3 == 0;
                    t.put_at(&Record::new(k, Value::from_u64(id)), spilled, at, h.fp, &mut rng);
                    for _touch in 0..2 {
                        let word = (Value::from_u64(id), spilled);
                        assert_eq!(t.search_at(&k, at, h.fp), Some(word), "{policy:?} {id}");
                    }
                    assert!(t.refresh_at(&Record::new(k, Value::from_u64(id)), !spilled, at, h.fp));
                    assert_eq!(t.search_at(&k, at, h.fp), Some((Value::from_u64(id), !spilled)));
                }
            }
            // The hash-addressed `put` caches an inline word.
            put(&t, 99, 1, &mut rng);
            let (k, h) = hashes(99);
            assert_eq!(t.search_at(&k, t.buckets(h.h1, h.h2), h.fp), Some((Value::from_u64(1), false)));
        }
    }

    #[test]
    fn prefetch_accepts_every_bucket_including_the_last_of_each_level() {
        for slots in 1..=8 {
            for total in [2, 2 * slots, 7 * slots, 96] {
                let t = HotTable::new(total, slots, HotPolicy::Rafl);
                let last = [t.levels[0].n_buckets - 1, t.levels[1].n_buckets - 1];
                for at in [[0, 0], last, [last[0], 0], [0, last[1]]] {
                    t.prefetch(HotBuckets(at));
                }
                assert!(t.is_empty(), "a hint writes nothing");
            }
        }
    }

    #[test]
    fn capacity_split_is_two_to_one() {
        let t = HotTable::new(96, 4, HotPolicy::Rafl);
        assert_eq!(t.levels[0].n_buckets, 16);
        assert_eq!(t.levels[1].n_buckets, 8);
        assert_eq!(t.capacity(), 96);
    }
}
