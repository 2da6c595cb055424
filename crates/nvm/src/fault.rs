//! Deterministic crash-point injection.
//!
//! Every durability-relevant step in the system is annotated with a named
//! *crash site* via [`point`]. When injection is disabled (the default and
//! the benchmark configuration) a site costs one relaxed atomic load.
//! When enabled, the registry either *records* how often each site is hit
//! by a workload, or is *armed* with a [`FaultPlan`]: at the k-th hit of
//! the planned site the calling thread unwinds with an [`InjectedCrash`]
//! panic payload, simulating the CPU dying at exactly that instruction.
//! The harness catches the unwind, cuts power with
//! [`NvmRegion::crash`](crate::NvmRegion::crash), and runs recovery.
//!
//! The registry is process-global (crash sites are free functions deep in
//! the write paths), so explorers and tests that use it must not run
//! concurrently with each other; each driver serializes its own runs.
//!
//! The same module hosts the strict-mode *ack-without-persist lint* gate:
//! when [`set_lint_persists`] is on, [`NvmRegion::assert_persisted`](crate::NvmRegion::assert_persisted)
//! (called where an operation acknowledges durability) fails fast if any
//! acknowledged byte still sits on a dirty or merely-staged cacheline.
//! The lint assumes a single mutating thread (concurrent writers sharing
//! a cacheline would trip it spuriously), so drivers enable it only for
//! single-threaded phases.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

/// Panic payload thrown by [`point`] when an armed plan triggers.
#[derive(Debug, Clone)]
pub struct InjectedCrash {
    /// The crash site that fired.
    pub site: &'static str,
    /// Which hit of that site fired (1-based).
    pub hit: u64,
}

/// "Crash at the `hit`-th time site `site` is reached" (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Name of the crash site to trigger at.
    pub site: String,
    /// 1-based hit count at which to crash.
    pub hit: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Count hits per site without crashing.
    Record,
    /// Crash at the planned (site, hit).
    Armed,
}

struct FaultState {
    mode: Mode,
    plan: Option<FaultPlan>,
    counts: BTreeMap<&'static str, u64>,
    fired: Option<InjectedCrash>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static LINT_PERSISTS: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

/// Declares a crash site. One relaxed load when injection is disabled.
#[inline]
pub fn point(site: &'static str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    point_slow(site);
}

#[cold]
fn point_slow(site: &'static str) {
    let crash = {
        let mut guard = STATE.lock();
        let Some(st) = guard.as_mut() else {
            return;
        };
        let n = st.counts.entry(site).or_insert(0);
        *n += 1;
        let n = *n;
        match (&st.mode, &st.plan) {
            (Mode::Armed, Some(plan)) if plan.site == site && plan.hit == n => {
                let info = InjectedCrash { site, hit: n };
                st.fired = Some(info.clone());
                // Disarm so the unwind (and any later recovery pass) runs
                // to completion instead of re-firing.
                st.mode = Mode::Record;
                st.plan = None;
                Some(info)
            }
            _ => None,
        }
    };
    if let Some(info) = crash {
        quiet_injected_crashes();
        std::panic::panic_any(info);
    }
}

/// Puts a panic hook in front of the one in place, once per process, that
/// drops [`InjectedCrash`] payloads: explorers unwind through them by the
/// thousand and record each one anyway. Every other panic still reaches
/// the previous hook.
fn quiet_injected_crashes() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if injected(info.payload()).is_none() {
                prev(info);
            }
        }));
    });
}

/// Starts counting hits per site (no crashing). Clears previous counts.
pub fn start_recording() {
    let mut guard = STATE.lock();
    *guard = Some(FaultState {
        mode: Mode::Record,
        plan: None,
        counts: BTreeMap::new(),
        fired: None,
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Arms a crash plan. Hit counting restarts from zero.
pub fn arm(plan: FaultPlan) {
    let mut guard = STATE.lock();
    *guard = Some(FaultState {
        mode: Mode::Armed,
        plan: Some(plan),
        counts: BTreeMap::new(),
        fired: None,
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Re-arms with a follow-up plan (e.g. a second crash during recovery)
/// *without* clearing the record of what already fired. Hit counting
/// restarts from zero so the plan's count is relative to the new phase.
pub fn rearm(plan: FaultPlan) {
    let mut guard = STATE.lock();
    match guard.as_mut() {
        Some(st) => {
            st.mode = Mode::Armed;
            st.plan = Some(plan);
            st.counts.clear();
        }
        None => {
            *guard = Some(FaultState {
                mode: Mode::Armed,
                plan: Some(plan),
                counts: BTreeMap::new(),
                fired: None,
            });
        }
    }
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Disables injection entirely and returns the recorded per-site hit
/// counts of the finished phase.
pub fn disarm() -> BTreeMap<&'static str, u64> {
    ACTIVE.store(false, Ordering::Relaxed);
    let mut guard = STATE.lock();
    guard.take().map(|st| st.counts).unwrap_or_default()
}

/// The injected crash that fired since the last [`arm`], if any.
pub fn fired() -> Option<InjectedCrash> {
    STATE.lock().as_ref().and_then(|st| st.fired.clone())
}

/// Interprets a `catch_unwind` payload: `Some` if the panic was an
/// injected crash, `None` for a genuine failure that must propagate.
pub fn injected(payload: &(dyn std::any::Any + Send)) -> Option<&InjectedCrash> {
    payload.downcast_ref::<InjectedCrash>()
}

// ---------------------------------------------------------------------------
// Media-corruption injection
// ---------------------------------------------------------------------------

/// How an armed [`CorruptionPlan`] mutates the bytes it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// XOR `mask` into one byte of the read (a single poisoned cell).
    /// The byte index is chosen deterministically from `seed`.
    BitFlip,
    /// Overwrite the whole read with pseudo-random bytes from `seed`
    /// (a poisoned line returned by the media controller).
    Poison,
    /// Zero the tail half of the read, as if an 8-byte store to the line
    /// tore and only the leading words reached the media.
    TornLine,
}

/// "Corrupt the bytes returned by the `hit`-th read at `site`" (1-based).
///
/// Unlike crash plans, corruption plans do not unwind: they silently
/// falsify the data a read returns, modelling media that serves poisoned
/// or torn lines. The consumer is expected to *detect* the damage via
/// its integrity bytes, not to be warned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionPlan {
    /// Name of the read site to corrupt at (e.g. `"nvm.read"`).
    pub site: String,
    /// 1-based hit count at which the corruption fires.
    pub hit: u64,
    /// The damage model.
    pub kind: CorruptionKind,
    /// Byte mask XORed in by [`CorruptionKind::BitFlip`]; ignored
    /// otherwise. A zero mask is promoted to `0x01` so an armed plan
    /// always changes at least one bit.
    pub mask: u8,
    /// Seed for byte selection / poison bytes.
    pub seed: u64,
}

/// Record of a corruption plan that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// The read site that served corrupted bytes.
    pub site: &'static str,
    /// Which hit of that site fired (1-based).
    pub hit: u64,
    /// The damage model applied.
    pub kind: CorruptionKind,
}

struct CorruptState {
    plan: Option<CorruptionPlan>,
    counts: BTreeMap<&'static str, u64>,
    fired: Option<CorruptionEvent>,
}

static CORRUPT_ACTIVE: AtomicBool = AtomicBool::new(false);
static CORRUPT_STATE: Mutex<Option<CorruptState>> = Mutex::new(None);

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Declares a corruptible read site over a freshly read buffer. One
/// relaxed load when corruption injection is disabled. When an armed plan
/// matches (site, hit), `buf` is mutated in place per the plan's
/// [`CorruptionKind`] before the caller ever sees it.
#[inline]
pub(crate) fn corrupt_point(site: &'static str, buf: &mut [u8]) {
    if !CORRUPT_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    corrupt_slow(site, buf);
}

/// Word-sized variant of [`corrupt_point`] for atomic u64 loads.
#[inline]
pub(crate) fn corrupt_word(site: &'static str, v: u64) -> u64 {
    if !CORRUPT_ACTIVE.load(Ordering::Relaxed) {
        return v;
    }
    let mut b = v.to_le_bytes();
    corrupt_slow(site, &mut b);
    u64::from_le_bytes(b)
}

#[cold]
fn corrupt_slow(site: &'static str, buf: &mut [u8]) {
    let mut guard = CORRUPT_STATE.lock();
    let Some(st) = guard.as_mut() else {
        return;
    };
    let n = st.counts.entry(site).or_insert(0);
    *n += 1;
    let n = *n;
    let Some(plan) = st.plan.as_ref() else {
        return;
    };
    if plan.site != site || plan.hit != n || buf.is_empty() {
        return;
    }
    let mut rng = plan.seed ^ 0xc0ff_ee00_dead_1234;
    match plan.kind {
        CorruptionKind::BitFlip => {
            let idx = (splitmix64(&mut rng) as usize) % buf.len();
            let mask = if plan.mask == 0 { 0x01 } else { plan.mask };
            buf[idx] ^= mask;
        }
        CorruptionKind::Poison => {
            for b in buf.iter_mut() {
                *b = splitmix64(&mut rng) as u8;
            }
        }
        CorruptionKind::TornLine => {
            let half = buf.len() / 2;
            for b in &mut buf[half..] {
                *b = 0;
            }
        }
    }
    st.fired = Some(CorruptionEvent {
        site,
        hit: n,
        kind: plan.kind,
    });
    // One plan, one corruption: disarm so later reads are clean.
    st.plan = None;
}

/// Arms a corruption plan. Hit counting restarts from zero.
pub fn arm_corruption(plan: CorruptionPlan) {
    let mut guard = CORRUPT_STATE.lock();
    *guard = Some(CorruptState {
        plan: Some(plan),
        counts: BTreeMap::new(),
        fired: None,
    });
    CORRUPT_ACTIVE.store(true, Ordering::Relaxed);
}

/// Disables corruption injection and returns the per-site read counts of
/// the finished phase.
pub fn disarm_corruption() -> BTreeMap<&'static str, u64> {
    CORRUPT_ACTIVE.store(false, Ordering::Relaxed);
    let mut guard = CORRUPT_STATE.lock();
    guard.take().map(|st| st.counts).unwrap_or_default()
}

/// The corruption event that fired since the last [`arm_corruption`],
/// if any.
pub fn corruption_fired() -> Option<CorruptionEvent> {
    CORRUPT_STATE
        .lock()
        .as_ref()
        .and_then(|st| st.fired.clone())
}

/// Enables or disables the strict-mode ack-without-persist lint. Returns
/// the previous setting. Only honoured in debug builds.
pub fn set_lint_persists(on: bool) -> bool {
    LINT_PERSISTS.swap(on, Ordering::Relaxed)
}

/// Whether the ack-without-persist lint is currently enabled.
#[inline]
pub(crate) fn lint_persists() -> bool {
    LINT_PERSISTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; keep these tests on one lock so
    // they do not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_points_are_inert() {
        let _g = TEST_LOCK.lock();
        let _ = disarm();
        point("test.site");
        assert!(disarm().is_empty());
    }

    #[test]
    fn recording_counts_hits() {
        let _g = TEST_LOCK.lock();
        start_recording();
        point("test.a");
        point("test.a");
        point("test.b");
        let counts = disarm();
        assert_eq!(counts.get("test.a"), Some(&2));
        assert_eq!(counts.get("test.b"), Some(&1));
    }

    #[test]
    fn armed_plan_fires_at_kth_hit() {
        let _g = TEST_LOCK.lock();
        arm(FaultPlan {
            site: "test.x".into(),
            hit: 3,
        });
        point("test.x");
        point("test.x");
        let r = std::panic::catch_unwind(|| point("test.x"));
        let err = r.expect_err("third hit must crash");
        let info = injected(&*err).expect("payload must be InjectedCrash");
        assert_eq!(info.site, "test.x");
        assert_eq!(info.hit, 3);
        assert_eq!(fired().unwrap().site, "test.x");
        // Disarmed after firing: the same site no longer crashes.
        point("test.x");
        let _ = disarm();
    }

    #[test]
    fn other_sites_do_not_fire() {
        let _g = TEST_LOCK.lock();
        arm(FaultPlan {
            site: "test.only".into(),
            hit: 1,
        });
        point("test.other");
        assert!(fired().is_none());
        let _ = disarm();
    }

    // Corruption state is likewise process-global; serialize on the same
    // lock as the crash tests for simplicity.

    #[test]
    fn disabled_corruption_points_are_inert() {
        let _g = TEST_LOCK.lock();
        let _ = disarm_corruption();
        let mut buf = [0xAAu8; 8];
        corrupt_point("test.read", &mut buf);
        assert_eq!(buf, [0xAAu8; 8]);
        assert!(corruption_fired().is_none());
    }

    #[test]
    fn bit_flip_fires_once_at_kth_hit() {
        let _g = TEST_LOCK.lock();
        arm_corruption(CorruptionPlan {
            site: "test.read".into(),
            hit: 2,
            kind: CorruptionKind::BitFlip,
            mask: 0x40,
            seed: 7,
        });
        let clean = [0x11u8; 16];
        let mut first = clean;
        corrupt_point("test.read", &mut first);
        assert_eq!(first, clean, "hit 1 must be clean");
        let mut second = clean;
        corrupt_point("test.read", &mut second);
        let flipped: Vec<usize> = (0..16).filter(|&i| second[i] != clean[i]).collect();
        assert_eq!(flipped.len(), 1, "exactly one byte flipped");
        assert_eq!(second[flipped[0]] ^ clean[flipped[0]], 0x40);
        let ev = corruption_fired().expect("event recorded");
        assert_eq!(ev.site, "test.read");
        assert_eq!(ev.hit, 2);
        // Disarmed after firing: later reads come back clean.
        let mut third = clean;
        corrupt_point("test.read", &mut third);
        assert_eq!(third, clean);
        let counts = disarm_corruption();
        assert_eq!(counts.get("test.read"), Some(&3));
    }

    #[test]
    fn poison_rewrites_whole_buffer_deterministically() {
        let _g = TEST_LOCK.lock();
        let mut bufs = Vec::new();
        for _ in 0..2 {
            arm_corruption(CorruptionPlan {
                site: "test.read".into(),
                hit: 1,
                kind: CorruptionKind::Poison,
                mask: 0,
                seed: 99,
            });
            let mut buf = [0u8; 32];
            corrupt_point("test.read", &mut buf);
            let _ = disarm_corruption();
            bufs.push(buf);
        }
        assert_ne!(bufs[0], [0u8; 32], "poison must change the bytes");
        assert_eq!(bufs[0], bufs[1], "same seed, same poison");
    }

    #[test]
    fn torn_line_zeroes_tail_half_of_word() {
        let _g = TEST_LOCK.lock();
        arm_corruption(CorruptionPlan {
            site: "test.load".into(),
            hit: 1,
            kind: CorruptionKind::TornLine,
            mask: 0,
            seed: 0,
        });
        let v = corrupt_word("test.load", u64::MAX);
        let _ = disarm_corruption();
        assert_eq!(v, 0x0000_0000_FFFF_FFFF, "little-endian tail bytes zeroed");
    }
}
