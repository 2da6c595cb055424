//! The persistence model: what media is guaranteed to hold.
//!
//! A region built with [`NvmOptions::strict`](crate::NvmOptions) keeps, next
//! to its working bytes, one [`MediaTracker`]: a *media image* (the bytes a
//! power cut is guaranteed to leave behind) and two cacheline sets — `dirty`
//! (written, not flushed) and `staged` (flushed, not yet covered by a fence
//! that reached the durability point). The image lives where the backend
//! puts it: a heap `Vec<u8>` for [`Backend::Heap`](crate::Backend), a
//! `seg-N.dat.shadow` file beside `seg-N.dat` for
//! [`Backend::Pool`](crate::Backend). Everything else — marking, staging,
//! committing, decay, the ack lint, the power cut — is the same code on both.
//!
//! The one backend-specific fact is *when a fence is durable*, and the
//! region decides it: every fence on the heap (ADR: `clwb` + `sfence`), only
//! a fence whose `msync(MS_SYNC)` returned — or a full `sync_to_disk` — on a
//! pool. Under [`SyncPolicy::Async`](crate::SyncPolicy) fenced lines stay at
//! risk: `MS_ASYNC` only schedules writeback, which is exactly why that
//! policy is documented as not power-loss safe.
//!
//! One loss engine, [`apply_loss`], settles the fate of the at-risk lines,
//! and it has one caller: [`NvmRegion::crash`](crate::NvmRegion::crash),
//! which cuts a live region by handle on either backend, in any
//! [`LossMode`] — torn lines (the ADR failure unit is the 8-byte word), or
//! the dropped and reordered pages a page cache can leave behind. The
//! at-risk lines are the tracker's own (dirty ∪ staged), walked in
//! ascending order, so one seed replays one outcome.

use std::collections::{BTreeSet, HashSet};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use hdnh_common::rng::XorShift64Star;

use crate::mapfile::NvmIoError;
use crate::region::CACHELINE;

/// OS page size: the granularity at which writeback drops/reorders.
const PAGE: usize = 4096;

/// How the un-fenced portion of a region is damaged at the crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossMode {
    /// Each page holding at-risk lines independently persists or vanishes.
    DropPages,
    /// Each at-risk cacheline independently persists or vanishes, torn at
    /// 8-byte granularity inside the line (AEP's failure-atomicity unit).
    TearLines,
    /// At-risk pages are written back in a random order and power fails at
    /// a random point in that stream: a prefix persists, the rest is lost —
    /// persistence order bears no relation to program order.
    ReorderPages,
}

impl LossMode {
    /// All modes, for matrix sweeps.
    pub const ALL: [LossMode; 3] = [LossMode::DropPages, LossMode::TearLines, LossMode::ReorderPages];

    /// Deterministic mode choice for seeded schedules.
    pub fn from_seed(seed: u64) -> LossMode {
        Self::ALL[(seed % 3) as usize]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LossMode::DropPages => "drop_pages",
            LossMode::TearLines => "tear_lines",
            LossMode::ReorderPages => "reorder_pages",
        }
    }
}

/// The cachelines covering `[off, off+len)`.
fn lines_of(off: usize, len: usize) -> Range<usize> {
    if len == 0 {
        return 0..0;
    }
    off / CACHELINE..(off + len - 1) / CACHELINE + 1
}

/// The bytes of `line` in an image of `len` bytes (the last line may be
/// short).
fn line_span(line: usize, len: usize) -> Range<usize> {
    let start = line * CACHELINE;
    start..(start + CACHELINE).min(len)
}

/// Copies one whole line from the working image to media.
pub(crate) fn salvage_line(working: &[u8], media: &mut [u8], line: usize) {
    let span = line_span(line, working.len());
    media[span.clone()].copy_from_slice(&working[span]);
}

/// The loss engine: decides which of the `at_risk` lines (ascending) make it
/// from `working` to `media`, per `mode`, drawing every decision from `rng`.
/// Returns the number of 8-byte words dropped.
pub(crate) fn apply_loss(
    working: &[u8],
    media: &mut [u8],
    at_risk: &[usize],
    rng: &mut XorShift64Star,
    mode: LossMode,
) -> usize {
    let mut dropped = 0;
    let page_of = |line: usize| line * CACHELINE / PAGE;
    let at_risk_pages = || {
        let mut pages: Vec<usize> = at_risk.iter().map(|&l| page_of(l)).collect();
        pages.dedup();
        pages
    };
    let surviving_pages: HashSet<usize> = match mode {
        LossMode::TearLines => {
            for &line in at_risk {
                let span = line_span(line, working.len());
                for woff in span.clone().step_by(8) {
                    let wend = (woff + 8).min(span.end);
                    if rng.next_u64() & 1 == 0 {
                        media[woff..wend].copy_from_slice(&working[woff..wend]);
                    } else {
                        dropped += 1;
                    }
                }
            }
            return dropped;
        }
        LossMode::DropPages => at_risk_pages()
            .into_iter()
            .filter(|_| rng.next_u64() & 1 == 0)
            .collect(),
        LossMode::ReorderPages => {
            let mut pages = at_risk_pages();
            // Fisher-Yates: the device writes pages back in arbitrary order.
            for i in (1..pages.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                pages.swap(i, j);
            }
            // Power fails somewhere in that stream: a prefix made it.
            let cut = if pages.is_empty() {
                0
            } else {
                (rng.next_u64() % (pages.len() as u64 + 1)) as usize
            };
            pages[..cut].iter().copied().collect()
        }
    };
    for &line in at_risk {
        if surviving_pages.contains(&page_of(line)) {
            salvage_line(working, media, line);
        } else {
            dropped += line_span(line, working.len()).len().div_ceil(8);
        }
    }
    dropped
}

/// The sidecar path holding a region file's guaranteed-persisted image.
fn sidecar_path(region: &Path) -> PathBuf {
    let mut os = region.as_os_str().to_os_string();
    os.push(".shadow");
    PathBuf::from(os)
}

/// Best-effort removal of a region file's sidecar.
pub(crate) fn remove_sidecar(region: &Path) {
    let _ = std::fs::remove_file(sidecar_path(region));
}

/// Where the media image lives; the backend picks.
enum MediaImage {
    Heap(Vec<u8>),
    Sidecar { file: File, path: PathBuf },
}

impl MediaImage {
    fn read_at(&self, off: usize, out: &mut [u8]) -> Result<(), NvmIoError> {
        match self {
            MediaImage::Heap(media) => out.copy_from_slice(&media[off..off + out.len()]),
            MediaImage::Sidecar { file, path } => {
                file.read_exact_at(out, off as u64).map_err(|e| NvmIoError::new("read", path, e))?
            }
        }
        Ok(())
    }

    fn write_at(&mut self, off: usize, bytes: &[u8]) -> Result<(), NvmIoError> {
        match self {
            MediaImage::Heap(media) => media[off..off + bytes.len()].copy_from_slice(bytes),
            MediaImage::Sidecar { file, path } => {
                file.write_all_at(bytes, off as u64).map_err(|e| NvmIoError::new("write", path, e))?
            }
        }
        Ok(())
    }
}

/// How far one cacheline has got towards media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Media holds the working content.
    Persisted,
    /// Written, never flushed.
    Dirty,
    /// Flushed, not yet covered by a durable fence.
    Staged,
}

/// The media image of one live region plus which cachelines of the working
/// image it does not yet cover. A line is in at most one of the two sets.
pub(crate) struct MediaTracker {
    image: MediaImage,
    len: usize,
    dirty: BTreeSet<usize>,
    staged: BTreeSet<usize>,
}

impl MediaTracker {
    /// Tracking for a fresh heap region: media holds zeroes.
    pub(crate) fn heap(len: usize) -> Self {
        Self::over(MediaImage::Heap(vec![0u8; len]), len)
    }

    /// Tracking for a pool region: creates (or resets) the sidecar so it
    /// holds exactly `image` — the content that is already durable when the
    /// region comes up: all zeroes for a fresh allocation, the current file
    /// bytes for a reopen (a fresh boot finds on media whatever the file
    /// holds).
    pub(crate) fn sidecar(region_path: &Path, image: &[u8]) -> Result<Self, NvmIoError> {
        let path = sidecar_path(region_path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| NvmIoError::new("open", &path, e))?;
        file.write_all_at(image, 0).map_err(|e| NvmIoError::new("write", &path, e))?;
        file.sync_all().map_err(|e| NvmIoError::new("fsync", &path, e))?;
        Ok(Self::over(MediaImage::Sidecar { file, path }, image.len()))
    }

    fn over(image: MediaImage, len: usize) -> Self {
        MediaTracker {
            image,
            len,
            dirty: BTreeSet::new(),
            staged: BTreeSet::new(),
        }
    }

    /// A store landed on `[off, off+len)`.
    pub(crate) fn mark_dirty(&mut self, off: usize, len: usize) {
        for line in lines_of(off, len) {
            // A line that was staged but is written again becomes dirty
            // again: the new store is not covered by the earlier flush.
            self.staged.remove(&line);
            self.dirty.insert(line);
        }
    }

    /// `[off, off+len)` was flushed: its dirty lines wait for a fence.
    pub(crate) fn stage(&mut self, off: usize, len: usize) {
        for line in lines_of(off, len) {
            if self.dirty.remove(&line) {
                self.staged.insert(line);
            }
        }
    }

    /// A fence reached the durability point: every staged line's working
    /// bytes are on media. `copy` reads the working image.
    pub(crate) fn commit_staged(
        &mut self,
        copy: impl Fn(usize, &mut [u8]),
    ) -> Result<(), NvmIoError> {
        let staged = std::mem::take(&mut self.staged);
        self.commit(staged, copy)
    }

    /// Everything is on media, dirty lines included: a whole-mapping sync.
    pub(crate) fn commit_all(&mut self, copy: impl Fn(usize, &mut [u8])) -> Result<(), NvmIoError> {
        let mut all = std::mem::take(&mut self.dirty);
        all.append(&mut self.staged);
        self.commit(all, copy)
    }

    fn commit(
        &mut self,
        lines: BTreeSet<usize>,
        copy: impl Fn(usize, &mut [u8]),
    ) -> Result<(), NvmIoError> {
        let mut buf = [0u8; CACHELINE];
        for line in lines {
            let span = line_span(line, self.len);
            let bytes = &mut buf[..span.len()];
            copy(span.start, bytes);
            self.image.write_at(span.start, bytes)?;
        }
        Ok(())
    }

    /// Media decay: XORs `mask` into the persisted image at `off`.
    pub(crate) fn corrupt(&mut self, off: usize, mask: &[u8]) -> Result<(), NvmIoError> {
        let mut cur = vec![0u8; mask.len()];
        self.image.read_at(off, &mut cur)?;
        for (b, m) in cur.iter_mut().zip(mask) {
            *b ^= m;
        }
        self.image.write_at(off, &cur)
    }

    /// Lines a power cut could take: dirty or staged.
    pub(crate) fn at_risk(&self) -> usize {
        self.dirty.len() + self.staged.len()
    }

    /// The first line of `[off, off+len)` media does not hold yet, if any.
    pub(crate) fn first_unpersisted(&self, off: usize, len: usize) -> Option<(usize, LineState)> {
        lines_of(off, len)
            .map(|line| (line, self.line_state(line)))
            .find(|&(_, state)| state != LineState::Persisted)
    }

    pub(crate) fn line_state(&self, line: usize) -> LineState {
        if self.dirty.contains(&line) {
            LineState::Dirty
        } else if self.staged.contains(&line) {
            LineState::Staged
        } else {
            LineState::Persisted
        }
    }

    /// Power failure by handle. `reboot` settles the fate of the at-risk
    /// lines, handed over in ascending order, on the whole media image and
    /// boots the working bytes from it; a sidecar image is read first and
    /// written back after. Tracking is cleared: a fresh boot has nothing
    /// in flight.
    pub(crate) fn power_fail<R>(
        &mut self,
        reboot: impl FnOnce(&mut [u8], &[usize]) -> R,
    ) -> Result<R, NvmIoError> {
        // The sets are disjoint, so their union walks every line once.
        let at_risk: Vec<usize> = self.dirty.union(&self.staged).copied().collect();
        self.dirty.clear();
        self.staged.clear();
        match &mut self.image {
            MediaImage::Heap(media) => Ok(reboot(media, &at_risk)),
            MediaImage::Sidecar { .. } => {
                let mut media = vec![0u8; self.len];
                self.image.read_at(0, &mut media)?;
                let r = reboot(&mut media, &at_risk);
                self.image.write_at(0, &media)?;
                Ok(r)
            }
        }
    }

    /// The whole media image (test assertions).
    #[cfg(test)]
    pub(crate) fn media(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.image.read_at(0, &mut out).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NvmOptions, NvmRegion, PoolDir, SyncPolicy};
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hdnh_shadow_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A fresh strict pool region under the blocking sync policy, alone in
    /// its directory: fenced lines are on media, everything else at risk.
    fn pool_region(name: &str, len: usize) -> (PathBuf, NvmRegion) {
        let d = tmp(name);
        let options = NvmOptions {
            strict: true,
            sync_policy: SyncPolicy::Sync,
            ..NvmOptions::pooled(Arc::new(PoolDir::create(&d).unwrap()))
        };
        let r = NvmRegion::alloc(len, &options, "seg").unwrap();
        (d, r)
    }

    /// [`pool_region`] with every byte written `fill` and nothing fenced.
    fn unfenced_region(name: &str, len: usize, fill: u8) -> (PathBuf, NvmRegion) {
        let (d, r) = pool_region(name, len);
        r.write_bytes(0, &vec![fill; len]);
        assert_eq!(r.at_risk_lines(), len / CACHELINE);
        (d, r)
    }

    /// What a cut region booted into. The mapping, the region file and its
    /// `.shadow` must hold the same bytes: the next open finds on media
    /// exactly what the live region was rebooted to.
    fn rebooted_image(r: &NvmRegion) -> Vec<u8> {
        let path = r.file_path().unwrap();
        let mut mapping = vec![0u8; r.len()];
        r.peek(0, &mut mapping);
        assert!(std::fs::read(path).unwrap() == mapping, "region file != mapping");
        assert!(std::fs::read(sidecar_path(path)).unwrap() == mapping, "shadow != mapping");
        mapping
    }

    fn cleanup(d: &Path, r: NvmRegion) {
        drop(r);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn sidecar_path_appends_extension() {
        assert_eq!(
            sidecar_path(Path::new("/p/seg-1.dat")),
            Path::new("/p/seg-1.dat.shadow")
        );
    }

    #[test]
    fn committed_lines_survive_any_mode() {
        for mode in LossMode::ALL {
            let (d, r) = pool_region(&format!("commit_{}", mode.name()), 8192);
            let working = vec![0xAB; 8192];
            r.write_bytes(0, &working);
            r.persist(0, working.len());
            assert_eq!(r.at_risk_lines(), 0);
            assert_eq!(r.crash(&mut XorShift64Star::new(9), mode), 0);
            assert!(rebooted_image(&r) == working);
            cleanup(&d, r);
        }
    }

    #[test]
    fn unfenced_lines_can_be_lost_in_every_mode() {
        for mode in LossMode::ALL {
            let mut lost_seen = false;
            for seed in 0..64 {
                let (d, r) = unfenced_region(&format!("lose_{}", mode.name()), 16384, 0xEE);
                let dropped = r.crash(&mut XorShift64Star::new(seed), mode);
                assert_eq!(r.at_risk_lines(), 0, "a reboot has nothing in flight");
                let lost = rebooted_image(&r).chunks(8).filter(|w| *w != [0xEE; 8]).count();
                assert_eq!(dropped, lost, "dropped words are the words media lacks");
                cleanup(&d, r);
                if dropped > 0 {
                    lost_seen = true;
                    break;
                }
            }
            assert!(lost_seen, "mode {} never lost anything", mode.name());
        }
    }

    #[test]
    fn tear_mode_tears_at_word_granularity() {
        let mut torn_seen = false;
        for seed in 0..128 {
            let (d, r) = unfenced_region("tear", 4096, 0xEE);
            r.crash(&mut XorShift64Star::new(seed), LossMode::TearLines);
            for line in rebooted_image(&r).chunks(CACHELINE) {
                let words: Vec<bool> =
                    line.chunks(8).map(|w| w.iter().all(|&b| b == 0xEE)).collect();
                for w in line.chunks(8) {
                    assert!(
                        w.iter().all(|&b| b == 0xEE) || w.iter().all(|&b| b == 0),
                        "torn inside an 8-byte word"
                    );
                }
                if words.iter().any(|&x| x) && words.iter().any(|&x| !x) {
                    torn_seen = true;
                }
            }
            cleanup(&d, r);
            if torn_seen {
                break;
            }
        }
        assert!(torn_seen, "expected at least one torn line");
    }

    #[test]
    fn reorder_mode_drops_whole_page_suffix_sometimes() {
        let len = PAGE * 4;
        let mut partial_seen = false;
        for seed in 0..64 {
            let (d, r) = unfenced_region("reorder", len, 0xCD);
            r.crash(&mut XorShift64Star::new(seed), LossMode::ReorderPages);
            let img = rebooted_image(&r);
            cleanup(&d, r);
            let live_pages = img
                .chunks(PAGE)
                .filter(|p| p.iter().all(|&b| b == 0xCD))
                .count();
            let dead_pages = img.chunks(PAGE).filter(|p| p.iter().all(|&b| b == 0)).count();
            assert_eq!(live_pages + dead_pages, 4, "pages must be all-or-nothing");
            if live_pages > 0 && dead_pages > 0 {
                partial_seen = true;
                break;
            }
        }
        assert!(partial_seen, "expected a partial page stream at least once");
    }

    #[test]
    fn crash_with_reboots_mapping_file_and_shadow_alike() {
        let (d, r) = unfenced_region("crash_with", 4096, 0x5A);
        r.persist(0, 64);
        r.flush(64, 64);
        // Line 0 is fenced; of the at-risk lines (line 1 staged, the rest
        // dirty) the odd ones survive.
        r.crash_with(|line| line % 2 == 1);
        let img = rebooted_image(&r);
        for (line, bytes) in img.chunks(CACHELINE).enumerate() {
            let want = if line == 0 || line % 2 == 1 { 0x5A } else { 0 };
            assert!(bytes.iter().all(|&b| b == want), "line {line}");
        }
        cleanup(&d, r);
    }

    #[test]
    fn remove_region_takes_the_sidecar_along() {
        let d = tmp("rm");
        std::fs::create_dir_all(&d).unwrap();
        let region = d.join("seg-0.dat");
        std::fs::write(&region, [0u8; 64]).unwrap();
        let _sh = MediaTracker::sidecar(&region, &[0u8; 64]).unwrap();
        assert!(sidecar_path(&region).exists());
        crate::PoolDir::remove_region(&region).unwrap();
        assert!(!region.exists() && !sidecar_path(&region).exists());
        // Gone already: the region file's error, nothing else disturbed.
        assert!(crate::PoolDir::remove_region(&region).is_err());
        // An untracked region has no sidecar to take.
        std::fs::write(&region, [0u8; 64]).unwrap();
        crate::PoolDir::remove_region(&region).unwrap();
        let _ = std::fs::remove_dir_all(&d);
    }
}
