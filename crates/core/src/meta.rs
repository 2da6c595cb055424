//! Persistent metadata block (paper §3.7).
//!
//! A small NVM region holding everything recovery needs that cannot be
//! recomputed from the levels: the resize state machine (`level number` in
//! the paper's terms), level geometry and the rehash progress cursor. Every
//! field is an 8-byte word updated with a failure-atomic store + persist.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hdnh_nvm::{NvmOptions, NvmRegion};

use crate::HdnhError;

/// Magic value identifying an HDNH pool ("HDNH" ASCII, versioned).
pub const MAGIC: u64 = 0x4844_4E48_0000_0001;

/// Resize state machine. The values mirror the paper's "level number":
/// 2 = a new level is being allocated, 3 = rehashing is in progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeState {
    /// Normal two-level operation.
    Stable,
    /// New top level requested but the level pointer is not yet published
    /// (the paper's level number 2).
    Allocating,
    /// Bottom-level items are being rehashed into the new top (level
    /// number 3).
    Rehashing,
}

impl ResizeState {
    fn to_u64(self) -> u64 {
        match self {
            ResizeState::Stable => 1,
            ResizeState::Allocating => 2,
            ResizeState::Rehashing => 3,
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(ResizeState::Stable),
            2 => Some(ResizeState::Allocating),
            3 => Some(ResizeState::Rehashing),
            _ => None,
        }
    }
}

const OFF_MAGIC: usize = 0;
const OFF_STATE: usize = 8;
const OFF_TOP_SEGMENTS: usize = 16;
const OFF_BOTTOM_SEGMENTS: usize = 24;
const OFF_REHASH_PROGRESS: usize = 32;
const OFF_NEW_TOP_SEGMENTS: usize = 40;
const OFF_SEGMENT_BYTES: usize = 48;
/// Region size (one cacheline is enough; round to a block).
pub const META_BYTES: usize = 256;

/// Typed accessor over the metadata region.
#[derive(Clone, Debug)]
pub struct Meta {
    region: Arc<NvmRegion>,
}

impl Meta {
    /// Formats a fresh metadata block. Panics on backend allocation
    /// failure; fallible construction is [`Meta::try_create`].
    pub fn create(
        opts: &NvmOptions,
        top_segments: usize,
        bottom_segments: usize,
        segment_bytes: usize,
    ) -> Self {
        Self::try_create(opts, top_segments, bottom_segments, segment_bytes)
            .unwrap_or_else(|e| panic!("meta allocation failed: {e}"))
    }

    /// Formats a fresh metadata block, surfacing backend (pool-file)
    /// failures as [`HdnhError::Io`].
    pub fn try_create(
        opts: &NvmOptions,
        top_segments: usize,
        bottom_segments: usize,
        segment_bytes: usize,
    ) -> Result<Self, HdnhError> {
        let region = Arc::new(NvmRegion::alloc(META_BYTES, opts, "meta")?);
        let m = Meta { region };
        m.store(OFF_STATE, ResizeState::Stable.to_u64());
        m.store(OFF_TOP_SEGMENTS, top_segments as u64);
        m.store(OFF_BOTTOM_SEGMENTS, bottom_segments as u64);
        m.store(OFF_REHASH_PROGRESS, u64::MAX);
        m.store(OFF_NEW_TOP_SEGMENTS, 0);
        m.store(OFF_SEGMENT_BYTES, segment_bytes as u64);
        // Magic last: a pool is valid only once fully formatted.
        m.store(OFF_MAGIC, MAGIC);
        Ok(m)
    }

    /// Adopts an existing metadata region (recovery): the one reader of
    /// a persisted meta block. A region of the wrong length, a bad magic,
    /// a resize state word other than 1, 2 or 3, or a segment size other
    /// than `segment_bytes` (the caller's params) is a typed
    /// [`HdnhError::Recovery`] — never a panic, and never a guess.
    pub fn open(region: Arc<NvmRegion>, segment_bytes: usize) -> Result<Self, HdnhError> {
        let bad = |msg: String| Err(HdnhError::Recovery(format!("meta block: {msg}")));
        if region.len() != META_BYTES {
            return bad(format!("{} bytes, expected {META_BYTES}", region.len()));
        }
        let m = Meta { region };
        let magic = m.load(OFF_MAGIC);
        if magic != MAGIC {
            return bad(format!("not an HDNH pool (bad magic {magic:#018x})"));
        }
        let state = m.load(OFF_STATE);
        if ResizeState::from_u64(state).is_none() {
            return bad(format!("unknown resize state word {state}"));
        }
        if m.segment_bytes() != segment_bytes {
            return Err(HdnhError::Recovery(format!(
                "params disagree with the persisted pool geometry: \
                 persisted segment_bytes {} vs configured {segment_bytes}",
                m.segment_bytes()
            )));
        }
        Ok(m)
    }

    /// The backing region.
    pub fn region(&self) -> &Arc<NvmRegion> {
        &self.region
    }

    #[inline]
    fn store(&self, off: usize, v: u64) {
        self.region.atomic_store_u64(off, v, Ordering::Release);
        self.region.persist(off, 8);
        self.region.assert_persisted(off, 8);
    }

    #[inline]
    fn load(&self, off: usize) -> u64 {
        // Metadata is tiny and hot; model it as cache-resident.
        self.region.atomic_load_u64_cached(off, Ordering::Acquire)
    }

    /// Current resize state.
    pub fn state(&self) -> ResizeState {
        ResizeState::from_u64(self.load(OFF_STATE))
            .expect("the state word is checked by `Meta::open` and written only by `set_state`")
    }

    /// Persists a state transition.
    pub fn set_state(&self, s: ResizeState) {
        self.store(OFF_STATE, s.to_u64());
    }

    /// Top-level segment count.
    pub fn top_segments(&self) -> usize {
        self.load(OFF_TOP_SEGMENTS) as usize
    }

    /// Bottom-level segment count.
    pub fn bottom_segments(&self) -> usize {
        self.load(OFF_BOTTOM_SEGMENTS) as usize
    }

    /// Segment size in bytes.
    pub fn segment_bytes(&self) -> usize {
        self.load(OFF_SEGMENT_BYTES) as usize
    }

    /// Publishes the post-resize geometry (called at resize finalization).
    pub fn set_geometry(&self, top_segments: usize, bottom_segments: usize) {
        self.store(OFF_TOP_SEGMENTS, top_segments as u64);
        self.store(OFF_BOTTOM_SEGMENTS, bottom_segments as u64);
    }

    /// Planned size of the in-flight new top level.
    pub fn new_top_segments(&self) -> usize {
        self.load(OFF_NEW_TOP_SEGMENTS) as usize
    }

    /// Records the planned new-top size (persisted *before* entering
    /// [`ResizeState::Allocating`], so recovery always knows the size).
    pub fn set_new_top_segments(&self, n: usize) {
        self.store(OFF_NEW_TOP_SEGMENTS, n as u64);
    }

    /// Next bottom-level bucket to migrate (`u64::MAX` = no rehash active).
    pub fn rehash_progress(&self) -> Option<usize> {
        match self.load(OFF_REHASH_PROGRESS) {
            u64::MAX => None,
            v => Some(v as usize),
        }
    }

    /// Persists the migration cursor (paper: "records the indexes of
    /// segment and bucket … when successfully rehashing items in a bucket").
    pub fn set_rehash_progress(&self, bucket: Option<usize>) {
        self.store(
            OFF_REHASH_PROGRESS,
            bucket.map(|b| b as u64).unwrap_or(u64::MAX),
        );
    }

    /// Assigns level roles to `candidates` — `(length in bytes, handle)`,
    /// most preferred first — by matching lengths against the persisted
    /// geometry: the first candidate of the top level's size is the top,
    /// the first remaining one of the bottom's size the bottom, and outside
    /// `Stable` the first remaining one of the planned new top's size the
    /// in-flight level. The rest get no role (orphans, stale twins). The
    /// one place roles are assigned, for pool files and heap regions
    /// alike, so the recovery branch depends on persisted state only.
    pub(crate) fn assign_roles<T>(
        &self,
        candidates: impl IntoIterator<Item = (u64, T)>,
    ) -> Result<Roles<T>, HdnhError> {
        let seg = self.segment_bytes() as u64;
        let state = self.state();
        let (top_segments, new_top_segments) = (self.top_segments(), self.new_top_segments());
        // A crash between `set_geometry`'s two stores leaves the bottom
        // word one store behind the top; the demoted level is always half
        // the new top.
        let bottom_segments = if state == ResizeState::Rehashing && top_segments == new_top_segments
        {
            top_segments / 2
        } else {
            self.bottom_segments()
        };
        let mut rest: Vec<(u64, T)> = candidates.into_iter().collect();
        let mut take = |role: &str, segments: usize| {
            let want = segments as u64 * seg;
            match rest.iter().position(|(len, _)| *len == want) {
                Some(i) => Ok(rest.remove(i).1),
                None => Err(HdnhError::Recovery(format!(
                    "no region of the {role} level's size ({want} bytes) survives"
                ))),
            }
        };
        let top = take("top", top_segments)?;
        let bottom = take("bottom", bottom_segments)?;
        let new_top = (state != ResizeState::Stable && new_top_segments > 0)
            .then(|| take("new top", new_top_segments).ok())
            .flatten();
        Ok(Roles { top, bottom, new_top })
    }
}

/// What [`Meta::assign_roles`] found each candidate to be.
pub(crate) struct Roles<T> {
    pub(crate) top: T,
    pub(crate) bottom: T,
    /// The in-flight level of an interrupted resize, when one survives.
    pub(crate) new_top: Option<T>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_open_roundtrip() {
        let m = Meta::create(&NvmOptions::fast(), 8, 4, 16384);
        assert_eq!(m.state(), ResizeState::Stable);
        assert_eq!(m.top_segments(), 8);
        assert_eq!(m.bottom_segments(), 4);
        assert_eq!(m.segment_bytes(), 16384);
        assert_eq!(m.rehash_progress(), None);
        let m2 = Meta::open(Arc::clone(m.region()), 16384).unwrap();
        assert_eq!(m2.top_segments(), 8);
    }

    #[test]
    fn open_rejects_what_it_cannot_trust() {
        let rejects = |region: &Arc<NvmRegion>, segment_bytes, why: &str| {
            match Meta::open(Arc::clone(region), segment_bytes) {
                Err(HdnhError::Recovery(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a recovery error naming {why:?}, got {other:?}"),
            }
        };
        let fast = NvmOptions::fast;
        rejects(&Arc::new(NvmRegion::new(META_BYTES, fast())), 16384, "bad magic");
        rejects(&Arc::new(NvmRegion::new(META_BYTES / 2, fast())), 16384, "128 bytes");
        let m = Meta::create(&fast(), 8, 4, 16384);
        for word in [0, 4, 7, u64::MAX] {
            m.region().atomic_store_u64(OFF_STATE, word, Ordering::Release);
            rejects(m.region(), 16384, &format!("state word {word}"));
        }
        m.set_state(ResizeState::Stable);
        rejects(m.region(), 8192, "disagree");
        assert!(Meta::open(Arc::clone(m.region()), 16384).is_ok());
    }

    /// Every ordering of `items`.
    fn orders<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in orders(&rest) {
                tail.insert(0, first.clone());
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn every_resize_window_gets_the_same_roles_in_every_order() {
        use ResizeState::*;
        // Bottom 2, top 4 and planned new top 8 segments of 1 KiB.
        let at = |state, top, bottom, progress| {
            let m = Meta::create(&NvmOptions::fast(), 4, 2, 1024);
            m.set_new_top_segments(8);
            m.set_state(state);
            m.set_geometry(top, bottom);
            m.set_rehash_progress(progress);
            m
        };
        let (old, all, twin) = (&[4, 2][..], &[4, 2, 8][..], &[4, 4, 2][..]);
        // (window, meta, region sizes, (top, bottom, new top, no role)),
        // sizes in segments.
        let windows = [
            ("stable", at(Stable, 4, 2, None), old, (4, 2, None, vec![])),
            ("stable beside a stale in-flight level", at(Stable, 4, 2, None), all, (4, 2, None, vec![8])),
            ("allocating, nothing allocated yet", at(Allocating, 4, 2, None), old, (4, 2, None, vec![])),
            ("allocating", at(Allocating, 4, 2, None), all, (4, 2, Some(8), vec![])),
            ("rehashing mid-migration", at(Rehashing, 4, 2, Some(3)), all, (4, 2, Some(8), vec![])),
            ("between set_geometry's two stores", at(Rehashing, 8, 2, Some(8)), all, (8, 4, None, vec![2])),
            ("finalize, after set_geometry", at(Rehashing, 8, 4, Some(8)), all, (8, 4, None, vec![2])),
            ("finalize, cursor cleared", at(Rehashing, 8, 4, None), all, (8, 4, None, vec![2])),
            ("stable, before the pointer swap", at(Stable, 8, 4, None), all, (8, 4, None, vec![2])),
            ("a stale twin of the top", at(Stable, 4, 2, None), twin, (4, 2, None, vec![4])),
        ];
        for (window, meta, sizes, want) in &windows {
            // Handles are indices into `sizes`.
            let candidates: Vec<(u64, usize)> =
                sizes.iter().enumerate().map(|(id, s)| (*s as u64 * 1024, id)).collect();
            for order in orders(&candidates) {
                let roles = meta.assign_roles(order.clone()).unwrap();
                let claimed = [Some(roles.top), Some(roles.bottom), roles.new_top];
                let size = |id: usize| sizes[id];
                let got = (
                    size(roles.top),
                    size(roles.bottom),
                    roles.new_top.map(size),
                    order
                        .iter()
                        .filter(|(_, id)| !claimed.contains(&Some(*id)))
                        .map(|(_, id)| size(*id))
                        .collect::<Vec<_>>(),
                );
                assert_eq!(&got, want, "{window}, order {order:?}");
                // Of two candidates of one size, the first in order wins.
                let first = order.iter().find(|(len, _)| *len == want.0 as u64 * 1024).unwrap();
                assert_eq!(roles.top, first.1, "{window}, order {order:?}");
            }
        }
    }

    #[test]
    fn a_missing_level_is_a_typed_error() {
        let m = Meta::create(&NvmOptions::fast(), 4, 2, 1024);
        match m.assign_roles([(4096u64, "top")]) {
            Err(HdnhError::Recovery(msg)) => assert!(msg.contains("bottom level"), "{msg}"),
            Err(e) => panic!("expected a recovery error, got {e:?}"),
            Ok(_) => panic!("a pool without a bottom level got roles"),
        }
    }

    #[test]
    fn state_machine_roundtrip() {
        let m = Meta::create(&NvmOptions::fast(), 2, 1, 1024);
        for s in [
            ResizeState::Allocating,
            ResizeState::Rehashing,
            ResizeState::Stable,
        ] {
            m.set_state(s);
            assert_eq!(m.state(), s);
        }
    }

    #[test]
    fn progress_cursor_roundtrip() {
        let m = Meta::create(&NvmOptions::fast(), 2, 1, 1024);
        m.set_rehash_progress(Some(17));
        assert_eq!(m.rehash_progress(), Some(17));
        m.set_rehash_progress(None);
        assert_eq!(m.rehash_progress(), None);
    }

    #[test]
    fn metadata_survives_crash_because_every_store_persists() {
        let m = Meta::create(&NvmOptions::strict(), 2, 1, 1024);
        m.set_state(ResizeState::Rehashing);
        m.set_rehash_progress(Some(5));
        m.region().crash_with(|_| false);
        let m2 = Meta::open(Arc::clone(m.region()), 1024).unwrap();
        assert_eq!(m2.state(), ResizeState::Rehashing);
        assert_eq!(m2.rehash_progress(), Some(5));
    }
}
