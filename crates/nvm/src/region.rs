//! The simulated persistent-memory region.
//!
//! A region is a zero-initialized, offset-addressed byte range backed by an
//! array of `AtomicU64` words. Backing the region with atomics (rather than
//! raw bytes) makes every concurrent access *defined behaviour*: full words
//! are plain relaxed loads/stores, and sub-word writes merge via a CAS loop
//! so two threads writing adjacent packed slots can never clobber each
//! other's bytes. This mirrors real persistent-memory programming, where the
//! data structure's own concurrency control — not the memory — provides
//! ordering, while keeping the simulator free of UB.
//!
//! In **strict mode** the region additionally keeps a shadow *media* image
//! in memory and per-cacheline dirty/staged tracking implementing the ADR
//! persistence model, on either backend; see [`NvmOptions::strict`] and
//! [`NvmRegion::crash`].

use std::mem::{size_of, MaybeUninit};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use hdnh_common::rng::XorShift64Star;
use parking_lot::Mutex;

use crate::bandwidth::{BandwidthLimiter, BandwidthModel};
use crate::fault;
use crate::latency::LatencyModel;
use crate::mapfile::{FileMap, NvmIoError};
use crate::pod::Pod;
use crate::pool::PoolDir;
use crate::shadow::{self, LineState, LossMode, MediaTracker};
use crate::stats::NvmStats;

/// CPU cacheline size: flush granularity.
pub(crate) const CACHELINE: usize = 64;
/// Optane AEP internal access granularity (XPLine): read-latency granularity.
pub(crate) const NVM_BLOCK: usize = 256;

/// Where region bytes live.
#[derive(Clone, Debug, Default)]
pub enum Backend {
    /// Heap-allocated simulator (the default): fast, dies with the
    /// process.
    #[default]
    Heap,
    /// `MAP_SHARED` files inside a pool directory: survives real process
    /// death, flushes via `msync`.
    Pool(Arc<PoolDir>),
}

impl Backend {
    /// The pool directory, when file-backed.
    pub fn pool(&self) -> Option<&Arc<PoolDir>> {
        match self {
            Backend::Heap => None,
            Backend::Pool(p) => Some(p),
        }
    }
}

/// When `fence()` may acknowledge durability on a file-backed region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `msync(MS_ASYNC)`: schedule writeback and return immediately. Fast,
    /// survives process death (the page cache keeps the bytes), but **not
    /// power-loss safe** — nothing guarantees the bytes reached media when
    /// the write was acknowledged.
    #[default]
    Async,
    /// `msync(MS_SYNC)`: block until the flushed range is durably on media
    /// before the fence returns. The only power-loss-safe policy.
    Sync,
}

impl SyncPolicy {
    /// Stable name used in flags/exposition.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Async => "async",
            SyncPolicy::Sync => "sync",
        }
    }
}

/// Configuration for a region.
#[derive(Clone, Debug)]
pub struct NvmOptions {
    /// Latency surcharge profile.
    pub latency: LatencyModel,
    /// Shared bandwidth ceiling. Regions built from clones of the same
    /// options share the limiter, modeling DIMMs behind one controller.
    pub bandwidth: Option<Arc<BandwidthLimiter>>,
    /// Track what media holds: a shadow media image plus dirty/staged
    /// cacheline sets, on whichever backend the options name — the image
    /// is a heap buffer on both, and either loses power with
    /// [`NvmRegion::crash`]. Costs a mutex per write and a heap copy of
    /// every region, so it is meant for (mostly single-threaded)
    /// consistency tests, not benchmarks.
    pub strict: bool,
    /// Storage backend: heap simulator (default) or file-backed pool.
    pub backend: Backend,
    /// Whether `fence()` blocks until flushed ranges are durable
    /// (file-backed regions only; ignored on the heap).
    pub sync_policy: SyncPolicy,
}

impl NvmOptions {
    /// Functional testing: no latency, no bandwidth ceiling, no shadow
    /// tracking.
    pub fn fast() -> Self {
        NvmOptions {
            latency: LatencyModel::off(),
            bandwidth: None,
            strict: false,
            backend: Backend::Heap,
            sync_policy: SyncPolicy::Async,
        }
    }

    /// Benchmarking: AEP latency profile and a shared AEP bandwidth
    /// ceiling, no shadow tracking.
    pub fn bench() -> Self {
        NvmOptions {
            latency: LatencyModel::aep(),
            bandwidth: Some(Arc::new(BandwidthLimiter::new(BandwidthModel::aep()))),
            strict: false,
            backend: Backend::Heap,
            sync_policy: SyncPolicy::Async,
        }
    }

    /// Crash-consistency testing: shadow media, no latency.
    pub fn strict() -> Self {
        NvmOptions {
            latency: LatencyModel::off(),
            bandwidth: None,
            strict: true,
            backend: Backend::Heap,
            sync_policy: SyncPolicy::Async,
        }
    }

    /// Durable storage: no latency model (the real file I/O *is* the
    /// latency), file-backed regions in `pool`.
    pub fn pooled(pool: Arc<PoolDir>) -> Self {
        NvmOptions {
            latency: LatencyModel::off(),
            bandwidth: None,
            strict: false,
            backend: Backend::Pool(pool),
            sync_policy: SyncPolicy::Async,
        }
    }
}

impl Default for NvmOptions {
    fn default() -> Self {
        NvmOptions::fast()
    }
}

/// A simulated persistent-memory region.
///
/// ```
/// use hdnh_nvm::{NvmOptions, NvmRegion};
///
/// let region = NvmRegion::new(4096, NvmOptions::strict());
/// region.write_bytes(100, b"hello");
/// region.persist(100, 5); // clwb + sfence: survives any crash
/// region.crash_with(|_| false); // power failure, all caches lost
/// let mut buf = [0u8; 5];
/// region.read_into(100, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
pub struct NvmRegion {
    backing: Backing,
    len: usize,
    stats: NvmStats,
    latency: LatencyModel,
    bandwidth: Option<Arc<BandwidthLimiter>>,
    sync_policy: SyncPolicy,
    /// What media holds (strict mode); `None` when tracking is off.
    tracker: Option<Mutex<MediaTracker>>,
}

/// The storage behind a region's word array.
enum Backing {
    /// Plain heap allocation (simulator).
    Heap(Box<[AtomicU64]>),
    /// A `MAP_SHARED` pool file. `pending` accumulates the flushed-but-not-
    /// fenced byte range; `fence()` msyncs it. Errors go to `pool` (sticky).
    File {
        map: FileMap,
        pool: Arc<PoolDir>,
        pending: Mutex<Option<(usize, usize)>>,
    },
}

impl Backing {
    fn file(map: FileMap, pool: &Arc<PoolDir>) -> Self {
        Backing::File {
            map,
            pool: Arc::clone(pool),
            pending: Mutex::new(None),
        }
    }
}

impl NvmRegion {
    /// Allocates a zero-filled heap region of `len` bytes. Panics if the
    /// options name a pool backend — fallible construction is
    /// [`NvmRegion::alloc`]; this infallible form exists for the simulator
    /// paths that predate the backend split.
    pub fn new(len: usize, options: NvmOptions) -> Self {
        assert!(
            matches!(options.backend, Backend::Heap),
            "NvmRegion::new is heap-only; use NvmRegion::alloc for pool backends"
        );
        Self::alloc(len, &options, "seg").expect("heap region allocation is infallible")
    }

    /// Allocates a zero-filled region of `len` bytes on the backend the
    /// options name. `name_hint` picks the file name inside a pool
    /// (`"meta"` → `meta.dat`, anything else → a fresh `seg-<id>.dat`);
    /// ignored for heap regions.
    pub fn alloc(
        len: usize,
        options: &NvmOptions,
        name_hint: &str,
    ) -> Result<Self, NvmIoError> {
        let backing = match &options.backend {
            Backend::Heap => {
                let n_words = len.div_ceil(8);
                let mut words = Vec::with_capacity(n_words);
                words.resize_with(n_words, || AtomicU64::new(0));
                Backing::Heap(words.into_boxed_slice())
            }
            Backend::Pool(pool) => {
                let path = pool.new_region_path(name_hint)?;
                Backing::file(FileMap::create(&path, len)?, pool)
            }
        };
        // A fresh region's durable image is all zeroes on either backend.
        let tracker = options.strict.then(|| MediaTracker::new(vec![0u8; len]));
        Ok(Self::over(backing, len, tracker, options))
    }

    fn over(
        backing: Backing,
        len: usize,
        tracker: Option<MediaTracker>,
        options: &NvmOptions,
    ) -> Self {
        NvmRegion {
            backing,
            len,
            stats: NvmStats::new(),
            latency: options.latency,
            bandwidth: options.bandwidth.clone(),
            sync_policy: options.sync_policy,
            tracker: tracker.map(Mutex::new),
        }
    }

    /// Maps an existing pool file as a region, preserving its contents.
    /// The options must name a pool backend (for fault routing); the
    /// region length is the file length.
    pub fn open_file(path: &Path, options: &NvmOptions) -> Result<Self, NvmIoError> {
        let pool = match &options.backend {
            Backend::Pool(p) => Arc::clone(p),
            Backend::Heap => {
                return Err(NvmIoError::msg(
                    "open",
                    path,
                    "open_file requires a pool backend in NvmOptions",
                ));
            }
        };
        let (map, len) = FileMap::open(path)?;
        let mut region = Self::over(Backing::file(map, &pool), len, None, options);
        if options.strict {
            // A reopen is a fresh boot: whatever the file holds *is* what
            // media presented, so the media image starts as the mapping.
            let mut media = vec![0u8; len];
            region.copy_out(0, &mut media);
            region.tracker = Some(Mutex::new(MediaTracker::new(media)));
        }
        Ok(region)
    }

    /// The word array behind the region, whichever backend owns it.
    #[inline]
    fn words(&self) -> &[AtomicU64] {
        match &self.backing {
            Backing::Heap(words) => words,
            Backing::File { map, .. } => map.words(self.len.div_ceil(8)),
        }
    }

    /// The backing file's path, when file-backed.
    pub fn file_path(&self) -> Option<&Path> {
        match &self.backing {
            Backing::Heap(_) => None,
            Backing::File { map, .. } => Some(map.path()),
        }
    }

    /// Blocking full-strength sync (`msync(MS_SYNC)` + `fsync`) of a
    /// file-backed region; no-op on the heap. The clean-shutdown path.
    pub fn sync_to_disk(&self) -> Result<(), NvmIoError> {
        match &self.backing {
            Backing::Heap(_) => Ok(()),
            Backing::File { map, pending, .. } => {
                *pending.lock() = None;
                map.sync_all()?;
                if let Some(tracker) = &self.tracker {
                    // MS_SYNC + fsync covered the whole mapping: everything
                    // is on media now.
                    tracker.lock().commit_all(|off, buf| self.copy_out(off, buf));
                }
                Ok(())
            }
        }
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length region.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Media access counters for this region.
    #[inline]
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    #[inline]
    fn check(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "NVM access out of bounds: off={off} len={len} region={}",
            self.len
        );
    }

    #[inline]
    fn blocks_spanned(off: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (off + len - 1) / NVM_BLOCK - off / NVM_BLOCK + 1
    }

    #[inline]
    fn lines_spanned(off: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (off + len - 1) / CACHELINE - off / CACHELINE + 1
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Reads `out.len()` bytes starting at `off`. Charges read latency for
    /// every 256-byte media block the range spans (one block for any access
    /// inside a single bucket).
    pub fn read_into(&self, off: usize, out: &mut [u8]) {
        self.check(off, out.len());
        let blocks = Self::blocks_spanned(off, out.len());
        self.stats.on_read(out.len(), blocks);
        self.latency.charge_read(blocks);
        if let Some(bw) = &self.bandwidth {
            // Media moves whole blocks regardless of the request size.
            bw.charge_read(blocks * NVM_BLOCK);
        }
        self.copy_out(off, out);
        fault::corrupt_point("nvm.read", out);
    }

    /// Reads a `Pod` value at `off` (unaligned allowed).
    pub fn read_pod<T: Pod>(&self, off: usize) -> T {
        let mut out = MaybeUninit::<T>::uninit();
        // SAFETY: Pod guarantees any bit pattern is valid and the type is
        // plain bytes; we fully initialize all size_of::<T>() bytes below.
        unsafe {
            let dst =
                std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, size_of::<T>());
            self.read_into(off, dst);
            out.assume_init()
        }
    }

    /// Raw copy without stats/latency (recovery scans use
    /// [`read_into`](Self::read_into); this is for test assertions and the
    /// crash simulator itself).
    pub fn peek(&self, off: usize, out: &mut [u8]) {
        self.check(off, out.len());
        self.copy_out(off, out);
    }

    /// Unaligned head, whole-word body, tail: one relaxed load per word
    /// touched, so an 8-byte-aligned word is never observed torn.
    fn copy_out(&self, off: usize, out: &mut [u8]) {
        let words = self.words();
        let mut w = off / 8;
        let shift = off % 8;
        let head_len = if shift == 0 { 0 } else { (8 - shift).min(out.len()) };
        let (head, rest) = out.split_at_mut(head_len);
        if !head.is_empty() {
            let word = words[w].load(Ordering::Relaxed).to_le_bytes();
            head.copy_from_slice(&word[shift..shift + head_len]);
            w += 1;
        }
        let mut body = rest.chunks_exact_mut(8);
        for chunk in &mut body {
            chunk.copy_from_slice(&words[w].load(Ordering::Relaxed).to_le_bytes());
            w += 1;
        }
        let tail = body.into_remainder();
        if !tail.is_empty() {
            let word = words[w].load(Ordering::Relaxed).to_le_bytes();
            tail.copy_from_slice(&word[..tail.len()]);
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Writes `data` at `off`. Sub-word edges merge with a CAS loop so
    /// concurrent writers of adjacent byte ranges never interfere.
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        fault::point("nvm.write");
        self.check(off, data.len());
        let lines = Self::lines_spanned(off, data.len());
        self.stats.on_write(data.len(), lines);
        self.latency.charge_write(lines);
        if let Some(bw) = &self.bandwidth {
            // Write bandwidth drains at cacheline granularity.
            bw.charge_write(lines * CACHELINE);
        }
        self.copy_in(off, data);
        self.mark_dirty(off, data.len());
    }

    /// Writes a `Pod` value at `off` (unaligned allowed).
    pub fn write_pod<T: Pod>(&self, off: usize, v: &T) {
        // SAFETY: Pod types are plain bytes.
        let src =
            unsafe { std::slice::from_raw_parts(v as *const T as *const u8, size_of::<T>()) };
        self.write_bytes(off, src);
    }

    /// Same shape as [`copy_out`](Self::copy_out): whole words are plain
    /// relaxed stores (the 8-byte failure-atomicity unit); the sub-word
    /// head and tail merge with a CAS loop so a concurrent writer of the
    /// neighbouring bytes in the same word is never clobbered.
    fn copy_in(&self, off: usize, data: &[u8]) {
        let words = self.words();
        let merge = |word: &AtomicU64, shift: usize, bytes: &[u8]| {
            let mut mask = 0u64;
            let mut val = 0u64;
            for (j, &b) in bytes.iter().enumerate() {
                mask |= 0xFFu64 << ((shift + j) * 8);
                val |= (b as u64) << ((shift + j) * 8);
            }
            let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old & !mask) | val)
            });
        };
        let mut w = off / 8;
        let shift = off % 8;
        let head_len = if shift == 0 { 0 } else { (8 - shift).min(data.len()) };
        let (head, rest) = data.split_at(head_len);
        if !head.is_empty() {
            merge(&words[w], shift, head);
            w += 1;
        }
        let mut body = rest.chunks_exact(8);
        for chunk in &mut body {
            let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            words[w].store(v, Ordering::Relaxed);
            w += 1;
        }
        let tail = body.remainder();
        if !tail.is_empty() {
            merge(&words[w], 0, tail);
        }
    }

    #[inline]
    fn mark_dirty(&self, off: usize, len: usize) {
        if let Some(tracker) = &self.tracker {
            tracker.lock().mark_dirty(off, len);
        }
    }

    // ------------------------------------------------------------------
    // 8-byte atomics (the failure-atomicity unit of persistent memory)
    // ------------------------------------------------------------------

    #[inline]
    fn word_at(&self, off: usize) -> &AtomicU64 {
        self.check(off, 8);
        assert_eq!(off % 8, 0, "atomic access must be 8-byte aligned: {off}");
        &self.words()[off / 8]
    }

    /// Atomic 64-bit load. Charged as a one-block read.
    #[inline]
    pub fn atomic_load_u64(&self, off: usize, order: Ordering) -> u64 {
        self.stats.on_read(8, 1);
        self.latency.charge_read(1);
        fault::corrupt_word("nvm.load", self.word_at(off).load(order))
    }

    /// Atomic 64-bit load with **no** latency/stat charge. Models a load
    /// that is expected to hit the CPU cache (e.g. re-reading a header word
    /// the thread just wrote). Use sparingly and only with a justification
    /// at the call site.
    #[inline]
    pub fn atomic_load_u64_cached(&self, off: usize, order: Ordering) -> u64 {
        self.word_at(off).load(order)
    }

    /// Atomic 64-bit store — the paper's "atomic write" for bitmap commits.
    #[inline]
    pub fn atomic_store_u64(&self, off: usize, val: u64, order: Ordering) {
        fault::point("nvm.atomic_store");
        self.stats.on_write(8, 1);
        self.latency.charge_write(1);
        self.word_at(off).store(val, order);
        self.mark_dirty(off, 8);
    }

    /// Atomic compare-exchange on a 64-bit word.
    #[inline]
    pub fn atomic_cas_u64(
        &self,
        off: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        fault::point("nvm.cas");
        self.stats.on_write(8, 1);
        self.latency.charge_write(1);
        let r = self.word_at(off).compare_exchange(current, new, success, failure);
        if r.is_ok() {
            self.mark_dirty(off, 8);
        }
        r
    }

    /// Atomic fetch-or on a 64-bit word (set bitmap bits).
    #[inline]
    pub fn atomic_fetch_or_u64(&self, off: usize, bits: u64, order: Ordering) -> u64 {
        fault::point("nvm.fetch_or");
        self.stats.on_write(8, 1);
        self.latency.charge_write(1);
        let r = self.word_at(off).fetch_or(bits, order);
        self.mark_dirty(off, 8);
        r
    }

    /// Atomic fetch-and on a 64-bit word (clear bitmap bits).
    #[inline]
    pub fn atomic_fetch_and_u64(&self, off: usize, bits: u64, order: Ordering) -> u64 {
        fault::point("nvm.fetch_and");
        self.stats.on_write(8, 1);
        self.latency.charge_write(1);
        let r = self.word_at(off).fetch_and(bits, order);
        self.mark_dirty(off, 8);
        r
    }

    /// Atomic xor on a 64-bit word (flip old+new bitmap bits in one shot —
    /// the paper's figure-10 update commit).
    #[inline]
    pub fn atomic_fetch_xor_u64(&self, off: usize, bits: u64, order: Ordering) -> u64 {
        fault::point("nvm.fetch_xor");
        self.stats.on_write(8, 1);
        self.latency.charge_write(1);
        let r = self.word_at(off).fetch_xor(bits, order);
        self.mark_dirty(off, 8);
        r
    }

    // ------------------------------------------------------------------
    // Persistence: clwb / sfence
    // ------------------------------------------------------------------

    /// `clwb` every cacheline covering `[off, off+len)`. Lines become
    /// *staged*: they reach media at the next [`fence`](Self::fence).
    /// On a file-backed region the line range is accumulated instead,
    /// and the fence `msync`s it.
    pub(crate) fn flush(&self, off: usize, len: usize) {
        fault::point("nvm.flush");
        self.check(off, len);
        let lines = Self::lines_spanned(off, len);
        self.stats.on_flush(lines);
        self.latency.charge_flush(lines);
        if len == 0 {
            return;
        }
        if let Some(tracker) = &self.tracker {
            tracker.lock().stage(off, len);
        }
        if let Backing::File { pending, .. } = &self.backing {
            // Accumulate at cacheline granularity (msync itself rounds to
            // pages); one merged range keeps the hot path to a min/max.
            let lo = (off / CACHELINE) * CACHELINE;
            let hi = off + len;
            let mut p = pending.lock();
            *p = Some(match *p {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }

    /// `sfence`. On the heap every fence is the durability point: staged
    /// lines reach the media image. On a file-backed region the fence
    /// `msync`s the accumulated flush range — under [`SyncPolicy::Async`]
    /// that only *schedules* write-back (fast, not power-loss safe, and
    /// the tracker keeps the lines at risk on purpose); under
    /// [`SyncPolicy::Sync`] the call blocks until the range is durable, and
    /// only then do the staged lines count as on media. A failure is
    /// recorded as a sticky pool fault (surfaced before the next ack)
    /// rather than panicking mid-write.
    pub(crate) fn fence(&self) {
        fault::point("nvm.fence");
        self.stats.on_fence();
        self.latency.charge_fence();
        let durable = match &self.backing {
            Backing::Heap(_) => true,
            Backing::File { map, pool, pending } => {
                let blocking = self.sync_policy == SyncPolicy::Sync;
                let range = pending.lock().take();
                match range.map(|(lo, hi)| map.sync_range(lo, hi - lo, blocking)) {
                    Some(Ok(())) => blocking,
                    Some(Err(e)) => {
                        pool.record_fault(e);
                        false
                    }
                    // Nothing flushed since the last fence: nothing to sync.
                    None => false,
                }
            }
        };
        if let (true, Some(tracker)) = (durable, &self.tracker) {
            tracker.lock().commit_staged(|off, buf| self.copy_out(off, buf));
        }
    }

    /// Convenience: flush + fence.
    pub fn persist(&self, off: usize, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    // ------------------------------------------------------------------
    // Media-corruption simulation
    // ------------------------------------------------------------------

    /// XORs `mask` into the bytes at `[off, off+mask.len())`, modelling
    /// in-place media decay (a stuck cell, radiation upset, firmware bug).
    /// The damage lands on the *persisted* image too in strict mode, so it
    /// survives crashes and is visible to recovery scans — unlike
    /// `fault::corrupt_point` plans, which falsify a single read in
    /// flight. Bytes whose mask is zero are untouched. Uncharged (the
    /// decay is not an access). Test/diagnostic API.
    pub fn corrupt(&self, off: usize, mask: &[u8]) {
        self.check(off, mask.len());
        let mut cur = vec![0u8; mask.len()];
        self.copy_out(off, &mut cur);
        for (b, m) in cur.iter_mut().zip(mask) {
            *b ^= m;
        }
        self.copy_in(off, &cur);
        if let Some(tracker) = &self.tracker {
            tracker.lock().corrupt(off, mask);
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation (strict mode only)
    // ------------------------------------------------------------------

    fn tracker(&self, caller: &str) -> parking_lot::MutexGuard<'_, MediaTracker> {
        match &self.tracker {
            Some(tracker) => tracker.lock(),
            None => panic!("{caller} requires strict mode"),
        }
    }

    /// Number of lines that are dirty or staged (i.e. would be at risk in a
    /// crash). Zero after a well-placed `persist` — on a pool, under a
    /// blocking sync policy. Requires strict mode.
    pub fn at_risk_lines(&self) -> usize {
        self.tracker("at_risk_lines").at_risk()
    }

    /// Ack-without-persist lint: asserts that every byte of
    /// `[off, off+len)` has actually reached the media image — i.e. no
    /// covering cacheline is still dirty (never flushed) or merely staged
    /// (flushed but not yet fenced). Called where an operation is about to
    /// acknowledge durability for those bytes; catches a missing `fence`
    /// after a `flush` (or a missing `flush` altogether) deterministically
    /// instead of relying on a randomized crash to land in the window.
    ///
    /// Debug builds only, and only when [`fault::set_lint_persists`] is
    /// enabled: the check assumes a single mutating thread (a concurrent
    /// writer sharing a cacheline would re-dirty it legitimately).
    /// No-op outside strict mode. (On a strict pool under
    /// [`SyncPolicy::Async`] every ack trips the lint — by design: async
    /// fences are not power-loss durable.)
    #[inline]
    pub fn assert_persisted(&self, off: usize, len: usize) {
        if !cfg!(debug_assertions) || !fault::lint_persists() {
            return;
        }
        let Some(tracker) = &self.tracker else { return };
        if let Some((line, state)) = tracker.lock().first_unpersisted(off, len) {
            let why = match state {
                LineState::Dirty => "dirty (missing flush)",
                _ => "staged (flush without fence)",
            };
            panic!(
                "ack-without-persist: bytes {off}..{} acknowledged durable but \
                 line {line} is {why}",
                off + len
            );
        }
    }

    /// Simulates a power failure and reboot of the region, on either
    /// backend.
    ///
    /// Every line that was **staged** (flushed, fence pending) or **dirty**
    /// (never flushed) is at risk; `mode` says how the at-risk lines are
    /// damaged — torn per 8-byte word ([`LossMode::TearLines`], AEP's
    /// failure-atomicity unit, so partially-persisted lines are
    /// observable), or dropped or reordered a page at a time, as a page
    /// cache writes a file back. Every decision is drawn from `rng`, with
    /// the lines visited in ascending order: one seed replays one outcome.
    ///
    /// Afterwards the working image equals the media image — on a pool, so
    /// does the region file — and all tracking is cleared, exactly like a
    /// fresh boot mapping the same pool. Returns the number of words
    /// dropped.
    ///
    /// Must not race with other accessors (callers quiesce their threads
    /// first, as a real crash test harness would).
    pub fn crash(&self, rng: &mut XorShift64Star, mode: LossMode) -> usize {
        self.power_fail("crash", |working, media, at_risk| {
            shadow::apply_loss(working, media, at_risk, rng, mode)
        })
    }

    /// Deterministic crash: `survive(line)` decides per line whether an
    /// at-risk line reaches media (whole). Used by tests that target one
    /// specific crash point.
    pub fn crash_with(&self, mut survive: impl FnMut(usize) -> bool) {
        self.power_fail("crash_with", |working, media, at_risk| {
            for &line in at_risk {
                if survive(line) {
                    shadow::salvage_line(working, media, line);
                }
            }
        })
    }

    /// `lose(working, media, at_risk)` settles what media keeps; then the
    /// reboot: working image = media image, nothing in flight.
    fn power_fail<R>(
        &self,
        caller: &str,
        lose: impl FnOnce(&[u8], &mut [u8], &[usize]) -> R,
    ) -> R {
        let mut tracker = self.tracker(caller);
        let mut working = vec![0u8; self.len];
        self.copy_out(0, &mut working);
        if let Backing::File { pending, .. } = &self.backing {
            *pending.lock() = None;
        }
        tracker.power_fail(|media, at_risk| {
            let r = lose(&working, media, at_risk);
            self.copy_in(0, media);
            r
        })
    }
}

impl std::fmt::Debug for NvmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmRegion")
            .field("len", &self.len)
            .field("strict", &self.tracker.is_some())
            .field("file", &self.file_path())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> NvmRegion {
        NvmRegion::new(len, NvmOptions::fast())
    }

    #[test]
    fn new_region_is_zeroed() {
        let r = region(1024);
        let mut buf = [1u8; 1024];
        r.read_into(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let r = region(256);
        let data: Vec<u8> = (0..64).collect();
        r.write_bytes(64, &data);
        let mut out = vec![0u8; 64];
        r.read_into(64, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let r = region(256);
        let data: Vec<u8> = (10..41).collect(); // 31 bytes, like a record
        r.write_bytes(13, &data);
        let mut out = vec![0u8; 31];
        r.read_into(13, &mut out);
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        r.read_into(12, &mut edge);
        assert_eq!(edge[0], 0);
        r.read_into(44, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn pod_roundtrip() {
        let r = region(128);
        r.write_pod(3, &0xDEAD_BEEFu64);
        assert_eq!(r.read_pod::<u64>(3), 0xDEAD_BEEF);
        r.write_pod(40, &[7u8; 31]);
        assert_eq!(r.read_pod::<[u8; 31]>(40), [7u8; 31]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let r = region(64);
        let mut buf = [0u8; 8];
        r.read_into(60, &mut buf);
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn misaligned_atomic_panics() {
        let r = region(64);
        r.atomic_load_u64(3, Ordering::Relaxed);
    }

    #[test]
    fn atomics_work() {
        let r = region(64);
        r.atomic_store_u64(8, 5, Ordering::Release);
        assert_eq!(r.atomic_load_u64(8, Ordering::Acquire), 5);
        assert_eq!(
            r.atomic_cas_u64(8, 5, 9, Ordering::AcqRel, Ordering::Acquire),
            Ok(5)
        );
        assert_eq!(
            r.atomic_cas_u64(8, 5, 11, Ordering::AcqRel, Ordering::Acquire),
            Err(9)
        );
        r.atomic_fetch_or_u64(8, 0b100, Ordering::AcqRel);
        assert_eq!(r.atomic_load_u64(8, Ordering::Acquire), 13);
        r.atomic_fetch_and_u64(8, !0b1000, Ordering::AcqRel);
        assert_eq!(r.atomic_load_u64(8, Ordering::Acquire), 5);
        r.atomic_fetch_xor_u64(8, 0b110, Ordering::AcqRel);
        assert_eq!(r.atomic_load_u64(8, Ordering::Acquire), 3);
    }

    #[test]
    fn stats_count_blocks_and_lines() {
        let r = region(4096);
        let before = r.stats().snapshot();
        let mut buf = [0u8; 31];
        r.read_into(0, &mut buf); // 1 block
        r.read_into(250, &mut buf); // spans blocks 0 and 1
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.reads, 2);
        assert_eq!(d.read_blocks, 3);

        let before = r.stats().snapshot();
        r.write_bytes(60, &[1u8; 10]); // spans 2 cachelines
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.write_lines, 2);

        let before = r.stats().snapshot();
        r.flush(0, 256); // 4 lines
        r.fence();
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.flushes, 4);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn concurrent_adjacent_byte_writes_do_not_clobber() {
        use std::sync::Arc;
        let r = Arc::new(region(64));
        // Two threads write interleaved odd/even bytes of the same words.
        let r1 = Arc::clone(&r);
        let t1 = std::thread::spawn(move || {
            for _ in 0..1000 {
                for i in (0..64).step_by(2) {
                    r1.write_bytes(i, &[0xAA]);
                }
            }
        });
        let r2 = Arc::clone(&r);
        let t2 = std::thread::spawn(move || {
            for _ in 0..1000 {
                for i in (1..64).step_by(2) {
                    r2.write_bytes(i, &[0xBB]);
                }
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut buf = [0u8; 64];
        r.peek(0, &mut buf);
        for (i, &b) in buf.iter().enumerate() {
            assert_eq!(b, if i % 2 == 0 { 0xAA } else { 0xBB }, "byte {i}");
        }
    }

    #[test]
    fn zero_length_region_is_inert() {
        let r = NvmRegion::new(0, NvmOptions::fast());
        assert!(r.is_empty());
        let mut buf = [];
        r.read_into(0, &mut buf); // len 0 at off 0 is in bounds
        r.write_bytes(0, &[]);
        r.flush(0, 0);
        r.fence();
    }

    #[test]
    fn one_byte_region_roundtrips() {
        let r = NvmRegion::new(1, NvmOptions::fast());
        r.write_bytes(0, &[0xAB]);
        let mut b = [0u8];
        r.read_into(0, &mut b);
        assert_eq!(b[0], 0xAB);
    }

    #[test]
    fn peek_is_uncharged() {
        let r = region(256);
        r.write_bytes(0, &[1; 64]);
        let before = r.stats().snapshot();
        let mut buf = [0u8; 64];
        r.peek(0, &mut buf);
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.reads, 0);
        assert_eq!(d.read_blocks, 0);
    }

    #[test]
    fn write_crossing_line_boundary_counts_two_lines() {
        let r = region(256);
        let before = r.stats().snapshot();
        r.write_bytes(63, &[9, 9]); // bytes 63 and 64: lines 0 and 1
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.write_lines, 2);
    }

    #[test]
    fn fence_with_nothing_staged_is_harmless() {
        let r = strict_region(256);
        r.fence();
        assert_eq!(r.at_risk_lines(), 0);
        r.write_bytes(0, &[1]);
        r.fence(); // dirty but never flushed: still at risk
        assert_eq!(r.at_risk_lines(), 1);
    }

    #[test]
    fn crash_on_pristine_region_keeps_zeroes() {
        let r = strict_region(256);
        let mut rng = XorShift64Star::new(5);
        assert_eq!(r.crash(&mut rng, LossMode::TearLines), 0);
        let mut buf = [1u8; 256];
        r.peek(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    // ---------------- strict mode ----------------

    fn strict_region(len: usize) -> NvmRegion {
        NvmRegion::new(len, NvmOptions::strict())
    }

    #[test]
    fn unflushed_write_is_lost_when_unlucky() {
        let r = strict_region(256);
        r.write_bytes(0, &[0xFF; 8]);
        // Force "lost" for every line.
        r.crash_with(|_| false);
        let mut buf = [0u8; 8];
        r.peek(0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn unflushed_write_may_survive_eviction() {
        let r = strict_region(256);
        r.write_bytes(0, &[0xFF; 8]);
        r.crash_with(|_| true);
        let mut buf = [0u8; 8];
        r.peek(0, &mut buf);
        assert_eq!(buf, [0xFF; 8]);
    }

    #[test]
    fn persisted_write_survives_any_crash() {
        let r = strict_region(256);
        r.write_bytes(0, &[0xAB; 16]);
        r.persist(0, 16);
        assert_eq!(r.at_risk_lines(), 0);
        r.crash_with(|_| false);
        let mut buf = [0u8; 16];
        r.peek(0, &mut buf);
        assert_eq!(buf, [0xAB; 16]);
    }

    #[test]
    fn flush_without_fence_is_still_at_risk() {
        let r = strict_region(256);
        r.write_bytes(0, &[0xCD; 8]);
        r.flush(0, 8);
        assert_eq!(r.at_risk_lines(), 1);
        r.crash_with(|_| false);
        let mut buf = [0u8; 8];
        r.peek(0, &mut buf);
        assert_eq!(buf, [0u8; 8], "staged line must be allowed to be lost");
    }

    #[test]
    fn rewrite_after_flush_is_dirty_again() {
        let r = strict_region(256);
        r.write_bytes(0, &[1; 8]);
        r.flush(0, 8);
        r.write_bytes(0, &[2; 8]); // staged -> dirty again
        r.fence(); // nothing staged: the second write is NOT persisted
        r.crash_with(|_| false);
        let mut buf = [0u8; 8];
        r.peek(0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn randomized_crash_keeps_subset() {
        let r = strict_region(4096);
        for line in 0..64 {
            r.write_bytes(line * 64, &[line as u8 + 1; 64]);
        }
        // Persist the first 32 lines only.
        r.persist(0, 32 * 64);
        let mut rng = XorShift64Star::new(42);
        r.crash(&mut rng, LossMode::TearLines);
        let mut buf = [0u8; 64];
        for line in 0..32 {
            r.peek(line * 64, &mut buf);
            assert_eq!(buf, [line as u8 + 1; 64], "persisted line {line}");
        }
        // The unpersisted half: each 8-byte word is either all-old (0) or
        // all-new; count survivors at word granularity.
        let mut surviving_words = 0;
        let mut lost_words = 0;
        for line in 32..64 {
            r.peek(line * 64, &mut buf);
            for word in buf.chunks(8) {
                if word.iter().all(|&b| b == line as u8 + 1) {
                    surviving_words += 1;
                } else {
                    assert!(word.iter().all(|&b| b == 0), "torn inside a word");
                    lost_words += 1;
                }
            }
        }
        // 256 words at ~50% survival: both extremes are astronomically
        // unlikely.
        assert!(surviving_words > 0 && lost_words > 0, "{surviving_words}/{lost_words}");
    }

    #[test]
    fn torn_line_possible_at_word_granularity() {
        let r = strict_region(256);
        // One full line, never flushed.
        r.write_bytes(0, &[0xEE; 64]);
        let mut torn_seen = false;
        for seed in 0..200 {
            let r = strict_region(256);
            r.write_bytes(0, &[0xEE; 64]);
            let mut rng = XorShift64Star::new(seed);
            r.crash(&mut rng, LossMode::TearLines);
            let mut buf = [0u8; 64];
            r.peek(0, &mut buf);
            let words: Vec<bool> = buf.chunks(8).map(|w| w.iter().all(|&b| b == 0xEE)).collect();
            if words.iter().any(|&x| x) && words.iter().any(|&x| !x) {
                torn_seen = true;
                break;
            }
        }
        assert!(torn_seen, "expected at least one torn line in 200 crashes");
        let _ = r;
    }

    #[test]
    fn crash_resets_tracking() {
        let r = strict_region(256);
        r.write_bytes(0, &[1; 64]);
        let mut rng = XorShift64Star::new(7);
        r.crash(&mut rng, LossMode::TearLines);
        assert_eq!(r.at_risk_lines(), 0);
    }

    #[test]
    fn atomic_store_participates_in_persistence() {
        let r = strict_region(256);
        r.atomic_store_u64(0, 77, Ordering::Release);
        r.persist(0, 8);
        r.crash_with(|_| false);
        assert_eq!(r.atomic_load_u64(0, Ordering::Acquire), 77);
    }

    // ---------------- media corruption ----------------

    #[test]
    fn corrupt_flips_exactly_masked_bits() {
        let r = region(256);
        r.write_bytes(10, &[0xF0; 4]);
        r.corrupt(10, &[0x0F, 0x00, 0xFF, 0x00]);
        let mut buf = [0u8; 4];
        r.peek(10, &mut buf);
        assert_eq!(buf, [0xFF, 0xF0, 0x0F, 0xF0]);
        // Applying the same mask again undoes the damage (XOR).
        r.corrupt(10, &[0x0F, 0x00, 0xFF, 0x00]);
        r.peek(10, &mut buf);
        assert_eq!(buf, [0xF0; 4]);
    }

    #[test]
    fn corrupt_survives_crash_in_strict_mode() {
        let r = strict_region(256);
        r.write_bytes(0, &[0xAA; 8]);
        r.persist(0, 8);
        r.corrupt(0, &[0x01]);
        r.crash_with(|_| false);
        let mut buf = [0u8; 8];
        r.peek(0, &mut buf);
        assert_eq!(buf[0], 0xAB, "decay must land on the media image");
        assert_eq!(buf[1], 0xAA);
    }

    #[test]
    fn corrupt_is_uncharged() {
        let r = region(256);
        let before = r.stats().snapshot();
        r.corrupt(0, &[0xFF; 16]);
        let d = r.stats().snapshot().since(&before);
        assert_eq!(d.reads + d.writes, 0);
    }

    // The test that arms the `nvm.read` corruption site has a process of
    // its own (`tests/read_corruption.rs`): every read in this binary passes
    // that site, and any of them would consume the armed hit.

    // ---------------- ack-without-persist lint ----------------

    /// Serializes lint tests: the lint gate is process-global.
    static LINT_LOCK: Mutex<()> = Mutex::new(());

    fn with_lint(f: impl FnOnce()) {
        let _g = LINT_LOCK.lock();
        let prev = crate::fault::set_lint_persists(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        crate::fault::set_lint_persists(prev);
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn lint_accepts_persisted_bytes() {
        with_lint(|| {
            let r = strict_region(256);
            r.write_bytes(0, &[1; 16]);
            r.persist(0, 16);
            r.assert_persisted(0, 16);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lint_catches_missing_flush() {
        with_lint(|| {
            let r = strict_region(256);
            r.write_bytes(0, &[1; 16]);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.assert_persisted(0, 16)
            }))
            .expect_err("dirty line must trip the lint");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("missing flush"), "{msg}");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lint_catches_flush_without_fence() {
        with_lint(|| {
            let r = strict_region(256);
            r.write_bytes(0, &[1; 16]);
            r.flush(0, 16);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.assert_persisted(0, 16)
            }))
            .expect_err("staged line must trip the lint");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("flush without fence"), "{msg}");
        });
    }

    #[test]
    fn lint_disabled_is_silent() {
        let _g = LINT_LOCK.lock();
        let prev = crate::fault::set_lint_persists(false);
        let r = strict_region(256);
        r.write_bytes(0, &[1; 16]);
        r.assert_persisted(0, 16); // gate off: no panic
        crate::fault::set_lint_persists(prev);
    }

    // ---------------- byte-array model ----------------

    /// One scripted access: `(kind, off, len, fill)`, clamped to the region.
    type ModelOp = (u8, usize, usize, u8);

    fn model_ops() -> impl proptest::strategy::Strategy<Value = Vec<ModelOp>> {
        proptest::collection::vec((0u8..5, 0usize..300, 0usize..90, 0u8..255), 1..60)
    }

    /// Replays `ops` on `r` and on a plain model — working bytes, media
    /// bytes, dirty/staged line sets — and checks after every op that they
    /// never differ: unaligned heads, whole-word bodies and tails must read
    /// and write exactly the addressed bytes and touch exactly the spanned
    /// lines, and a fence moves exactly the staged lines to media.
    /// (An untracked region is checked for bytes alone.)
    fn check_against_byte_model(r: &NvmRegion, ops: &[ModelOp]) {
        use std::collections::BTreeSet;
        let n = r.len();
        let mut model = vec![0u8; n];
        let mut media = vec![0u8; n];
        let mut dirty = BTreeSet::new();
        let mut staged = BTreeSet::new();
        for &(kind, off, len, fill) in ops {
            let off = off % n;
            let len = len.min(n - off);
            let lines = if len == 0 {
                0..0
            } else {
                off / CACHELINE..(off + len - 1) / CACHELINE + 1
            };
            match kind {
                0 | 1 => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    r.write_bytes(off, &data);
                    model[off..off + len].copy_from_slice(&data);
                    for line in lines {
                        staged.remove(&line);
                        dirty.insert(line);
                    }
                }
                2 => {
                    let mut out = vec![0xEEu8; len];
                    r.read_into(off, &mut out);
                    assert_eq!(out, &model[off..off + len], "read_into({off}, {len})");
                }
                3 => {
                    r.flush(off, len);
                    for line in lines {
                        if dirty.remove(&line) {
                            staged.insert(line);
                        }
                    }
                }
                _ => {
                    r.fence();
                    for line in std::mem::take(&mut staged) {
                        shadow::salvage_line(&model, &mut media, line);
                    }
                }
            }
            let mut image = vec![0u8; n];
            r.peek(0, &mut image);
            assert_eq!(image, model, "bytes after {kind} at ({off}, {len})");
            if let Some(tracker) = &r.tracker {
                assert_eq!(r.at_risk_lines(), dirty.len() + staged.len());
                let tracker = tracker.lock();
                for line in 0..n.div_ceil(CACHELINE) {
                    let want = if dirty.contains(&line) {
                        LineState::Dirty
                    } else if staged.contains(&line) {
                        LineState::Staged
                    } else {
                        LineState::Persisted
                    };
                    assert_eq!(
                        tracker.line_state(line),
                        want,
                        "line {line} after {kind} at ({off}, {len})"
                    );
                }
                assert_eq!(tracker.media(), media, "media after {kind} at ({off}, {len})");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn heap_region_matches_byte_model(ops in model_ops()) {
            // 301 bytes: the last word is partial, the last line short.
            check_against_byte_model(&region(301), &ops);
        }

        /// The persistence model on both backends: the heap, and a pool
        /// under the sync policy whose fences are durable.
        #[test]
        fn strict_region_matches_byte_model_and_line_sets(ops in model_ops()) {
            check_against_byte_model(&strict_region(301), &ops);
            let (d, mut opts) = file_backend::pool_dir("strictmodel");
            opts.strict = true;
            opts.sync_policy = SyncPolicy::Sync;
            let r = NvmRegion::alloc(301, &opts, "seg").unwrap();
            check_against_byte_model(&r, &ops);
            assert!(!opts.backend.pool().unwrap().has_fault());
            drop(r);
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    // ---------------- seeded crashes replay ----------------

    /// 512 lines: every third flushed, a fence every 64 — so the crash
    /// finds dirty, staged and persisted lines — then a second round of
    /// stores over a quarter of them.
    fn scripted_strict_region() -> NvmRegion {
        let r = strict_region(512 * CACHELINE);
        for line in 0..512 {
            r.write_bytes(line * CACHELINE, &[line as u8 | 1; CACHELINE]);
            if line % 3 == 0 {
                r.flush(line * CACHELINE, CACHELINE);
            }
            if line % 64 == 63 {
                r.fence();
            }
        }
        for line in (0..512).step_by(4) {
            r.write_bytes(line * CACHELINE + 8, &[0xFE; 16]);
        }
        r
    }

    #[test]
    fn seeded_crash_replays_the_same_image() {
        for mode in LossMode::ALL {
            let image_after = |seed: u64| {
                let r = scripted_strict_region();
                assert!(r.at_risk_lines() >= 256, "{} at risk", r.at_risk_lines());
                let dropped = r.crash(&mut XorShift64Star::new(seed), mode);
                let mut image = vec![0u8; r.len()];
                r.peek(0, &mut image);
                (dropped, image)
            };
            let first = image_after(7);
            assert!(first.0 > 0, "{}: nothing dropped", mode.name());
            for _ in 0..3 {
                assert!(image_after(7) == first, "{}: same seed, different crash", mode.name());
            }
            assert!(image_after(8) != first, "{}: the seed does not reach the loss engine", mode.name());
        }
    }

    // ---------------- file backend ----------------

    mod file_backend {
        use super::*;
        use std::path::PathBuf;

        pub(super) fn pool_dir(name: &str) -> (PathBuf, NvmOptions) {
            let d = std::env::temp_dir()
                .join(format!("hdnh_region_file_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            let pool = Arc::new(PoolDir::create(&d).unwrap());
            (d, NvmOptions::pooled(pool))
        }

        /// Plain, then strict under the blocking sync policy: there the
        /// reopen is a fresh boot whose media image is the file.
        #[test]
        fn pooled_region_roundtrips_and_reopens() {
            for strict in [false, true] {
                let (d, mut opts) = pool_dir(&format!("roundtrip_{strict}"));
                if strict {
                    opts.strict = true;
                    opts.sync_policy = SyncPolicy::Sync;
                }
                let r = NvmRegion::alloc(512, &opts, "seg").unwrap();
                let path = r.file_path().unwrap().to_path_buf();
                r.write_bytes(13, &[0xAB; 31]);
                r.persist(13, 31);
                r.atomic_store_u64(64, 0x1234, Ordering::Release);
                r.sync_to_disk().unwrap();
                drop(r);

                let r2 = NvmRegion::open_file(&path, &opts).unwrap();
                assert_eq!(r2.len(), 512);
                let mut buf = [0u8; 31];
                r2.read_into(13, &mut buf);
                assert_eq!(buf, [0xAB; 31]);
                assert_eq!(r2.atomic_load_u64(64, Ordering::Acquire), 0x1234);
                if strict {
                    let image = |r: &NvmRegion| {
                        let mut bytes = vec![0u8; r.len()];
                        r.peek(0, &mut bytes);
                        bytes
                    };
                    let booted = image(&r2);
                    assert_eq!(r2.at_risk_lines(), 0, "a reopen has nothing in flight");
                    for mode in LossMode::ALL {
                        assert_eq!(r2.crash(&mut XorShift64Star::new(1), mode), 0, "{}", mode.name());
                        assert!(image(&r2) == booted, "{}: a cut changed the bytes", mode.name());
                    }
                    // From here an unfenced write is all a cut can take.
                    r2.write_bytes(256, &[0xCD; 64]);
                    assert_eq!(r2.at_risk_lines(), 1);
                    r2.crash_with(|_| false);
                    assert!(image(&r2) == booted, "the cut took more than the unfenced write");
                }
                drop(r2);
                std::fs::remove_dir_all(&d).unwrap();
            }
        }

        #[test]
        fn unsynced_pooled_write_survives_drop() {
            // Process-death durability: no persist/sync at all, the bytes
            // still come back (page cache keeps them).
            let (d, opts) = pool_dir("unsynced");
            let r = NvmRegion::alloc(256, &opts, "seg").unwrap();
            let path = r.file_path().unwrap().to_path_buf();
            r.write_bytes(0, &[0x77; 64]);
            drop(r);
            let r2 = NvmRegion::open_file(&path, &opts).unwrap();
            let mut buf = [0u8; 64];
            r2.peek(0, &mut buf);
            assert_eq!(buf, [0x77; 64]);
            drop(r2);
            std::fs::remove_dir_all(&d).unwrap();
        }

        proptest::proptest! {
            #[test]
            fn pooled_region_matches_byte_model(ops in model_ops()) {
                let (d, opts) = pool_dir("model");
                let r = NvmRegion::alloc(301, &opts, "seg").unwrap();
                check_against_byte_model(&r, &ops);
                drop(r);
                std::fs::remove_dir_all(&d).unwrap();
            }
        }

        #[test]
        fn heap_constructor_rejects_pool_backend() {
            let (d, opts) = pool_dir("newpanics");
            let r = std::panic::catch_unwind(|| NvmRegion::new(256, opts.clone()));
            assert!(r.is_err());
            std::fs::remove_dir_all(&d).unwrap();
        }

        #[test]
        fn flush_fence_msyncs_without_fault() {
            let (d, opts) = pool_dir("fence");
            let r = NvmRegion::alloc(4096, &opts, "seg").unwrap();
            r.write_bytes(100, &[1; 200]);
            r.flush(100, 200);
            r.write_bytes(3000, &[2; 50]);
            r.flush(3000, 50);
            r.fence();
            let pool = opts.backend.pool().unwrap();
            assert!(!pool.has_fault());
            drop(r);
            std::fs::remove_dir_all(&d).unwrap();
        }

        #[test]
        fn heap_region_has_no_file_path_and_syncs_trivially() {
            let r = region(64);
            assert!(r.file_path().is_none());
            r.sync_to_disk().unwrap();
        }
    }
}
