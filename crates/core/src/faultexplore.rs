//! Exhaustive crash-point exploration (the fault-injection driver).
//!
//! The write paths and the NVM primitives are annotated with named crash
//! sites ([`hdnh_nvm::fault`]). This module turns those annotations into a
//! systematic robustness check:
//!
//! 1. **Record** — run a deterministic scripted op mix once with the
//!    registry in recording mode, learning how often each site fires.
//! 2. **Explore** — for every `(site, hit)` sample and every crash seed,
//!    re-run the same mix with the registry armed. The k-th hit of the site
//!    panics with an [`InjectedCrash`](hdnh_nvm::InjectedCrash); the
//!    explorer catches the unwind, cuts power by handle
//!    ([`PersistentPool::crash`]: the seed picks the loss mode and which
//!    unfenced lines survive) and reboots — through `Hdnh::try_recover` on
//!    the heap, through [`Hdnh::open_pool`] on a pool directory
//!    ([`CaseBackend`]).
//! 3. **Check** — the recovered table must match the *acknowledged-state
//!    oracle* (every op completed before the crash is visible; the one op
//!    in flight may be fully applied or fully absent, never half) and every
//!    invariant of [`Hdnh::verify_integrity_report`] must hold.
//!
//! Recovery has crash sites of its own (`recover.*`); with
//! [`ExploreConfig::explore_recovery`] the driver additionally re-arms the
//! registry *during* recovery, crashes a second time, and verifies that the
//! follow-up recovery still converges.
//!
//! Every failure is reported as a `[pool:]mix:site:hit:seed` tuple from
//! which [`run_single`] reproduces the exact scenario. Armed runs are
//! single-threaded (one foreground mutator, recovery with one worker) so
//! the k-th hit of a site is always the same machine state.
//!
//! The fault registry is process-global: nothing in this module may run
//! concurrently with another exploration or registry-using test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hdnh_common::{HashIndex, Key, Value};
use hdnh_nvm::{fault, FaultPlan, LossMode, NvmOptions, SyncPolicy};

use crate::params::{HdnhParams, SyncMode};
use crate::recovery::PersistentPool;
use crate::table::Hdnh;

/// One scripted table operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert a fresh key.
    Insert(u64, u64),
    /// Update an existing key.
    Update(u64, u64),
    /// Remove an existing key.
    Remove(u64),
    /// Insert a fresh key with an over-inline payload derived from the
    /// seed (spills to the value log).
    InsertBig(u64, u64),
    /// Update an existing key with an over-inline payload (tombstones
    /// the old log entry, appends a fresh one).
    UpdateBig(u64, u64),
}

/// Deterministic over-inline payload for the bytes-API ops: length in
/// `[25, 174]`, contents an LCG stream seeded by `v` — long enough to
/// spill, short enough that the tiny exploration segments rotate often.
pub fn big_payload(v: u64) -> Vec<u8> {
    let n = 25 + (v % 150) as usize;
    let mut x = v | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// A named deterministic op sequence.
#[derive(Debug, Clone)]
pub struct OpMix {
    /// Mix name, part of every reproduction tuple.
    pub name: &'static str,
    /// The operations, executed in order by one thread.
    pub ops: Vec<Op>,
}

impl OpMix {
    /// The built-in mixes, chosen to reach every site category on the
    /// exploration geometry: plain inserts, update-heavy churn (the
    /// same-bucket fast path *and* the fallback double-copy window),
    /// removes, and a fill that triggers a live resize.
    pub fn builtin() -> Vec<OpMix> {
        let mut mixes = Vec::new();

        mixes.push(OpMix {
            name: "insert-light",
            ops: (0..40).map(|i| Op::Insert(i, i * 3 + 1)).collect(),
        });

        // Fill enough that buckets run out of free slots, then rewrite every
        // key repeatedly: early updates take the same-bucket swap, late ones
        // are forced into the fallback path; finish with deletes and
        // re-inserts over the holes.
        let mut churn = Vec::new();
        for i in 0..56 {
            churn.push(Op::Insert(i, i + 100));
        }
        for round in 0..3 {
            for i in 0..56 {
                churn.push(Op::Update(i, i + 200 + round * 56));
            }
        }
        for i in 40..56 {
            churn.push(Op::Remove(i));
        }
        for i in 60..76 {
            churn.push(Op::Insert(i, i + 900));
        }
        mixes.push(OpMix {
            name: "churn",
            ops: churn,
        });

        // Enough inserts to overflow the initial geometry and run a full
        // resize (allocate, migrate, swap) in the middle of the mix.
        let mut fill = Vec::new();
        for i in 0..400 {
            fill.push(Op::Insert(i, i ^ 0xABCD));
        }
        for i in 0..40 {
            fill.push(Op::Update(i, i + 7));
        }
        for i in 300..320 {
            fill.push(Op::Remove(i));
        }
        mixes.push(OpMix {
            name: "fill-resize",
            ops: fill,
        });

        // Spill-heavy traffic for the value log: over-inline inserts,
        // re-spills (tombstone + fresh append), inline↔spill transitions
        // and removes. With the tiny exploration segments the log rotates
        // several times, so sampled crashes land between the log append
        // and the index publish, inside rotation, and on tombstoned
        // state. Appended last so the earlier mixes keep their indices.
        let mut spill = Vec::new();
        for i in 0..24 {
            spill.push(Op::InsertBig(i, i + 500));
        }
        for i in 24..40 {
            spill.push(Op::Insert(i, i + 100));
        }
        for i in 0..24 {
            spill.push(Op::UpdateBig(i, i + 700));
        }
        for i in 24..32 {
            spill.push(Op::UpdateBig(i, i + 900)); // inline → spill
        }
        for i in 0..8 {
            spill.push(Op::Update(i, i + 40)); // spill → inline
        }
        for i in 16..24 {
            spill.push(Op::Remove(i)); // tombstone by delete
        }
        mixes.push(OpMix {
            name: "vlog-spill",
            ops: spill,
        });

        mixes
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Op mixes to drive ([`OpMix::builtin`] by default).
    pub mixes: Vec<OpMix>,
    /// Crash seeds tried per `(site, hit)` — each seed picks a loss mode
    /// and a different random subset of the unflushed lines to keep.
    pub crash_seeds: Vec<u64>,
    /// Worker threads for the final (unarmed) recovery of each case.
    pub threads: usize,
    /// Also inject crashes into recovery itself (two-phase cases).
    pub explore_recovery: bool,
}

impl ExploreConfig {
    /// Full matrix: all built-in mixes, two seeds, recovery exploration on.
    pub fn full() -> Self {
        ExploreConfig {
            mixes: OpMix::builtin(),
            crash_seeds: vec![1, 2],
            threads: 2,
            explore_recovery: true,
        }
    }

    /// Bounded smoke configuration (`faultrun quick`): one seed, no
    /// recovery phase two.
    pub fn quick() -> Self {
        ExploreConfig {
            mixes: OpMix::builtin(),
            crash_seeds: vec![1],
            threads: 2,
            explore_recovery: false,
        }
    }
}

/// Where a case's table lives, and so how it reboots after the power cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseBackend {
    /// The heap simulator: the cut pool is handed to `Hdnh::try_recover`.
    Heap,
    /// A pool directory: the cut pool is unmapped and the directory
    /// reopened through [`Hdnh::open_pool`] (superblock, size
    /// classification, orphan sweep).
    Pool,
}

/// Outcome of one injected-crash case.
#[derive(Debug, Clone)]
pub struct FaultCaseResult {
    /// Where the table lived.
    pub backend: CaseBackend,
    /// Mix that drove the table.
    pub mix: String,
    /// Crash site that fired.
    pub site: String,
    /// 1-based hit of the site at which the crash fired.
    pub hit: u64,
    /// Crash seed (selects the loss mode and which unflushed lines survive).
    pub seed: u64,
    /// For two-phase cases: the `(site, hit)` injected into recovery.
    pub recovery_site: Option<(String, u64)>,
    /// Whether the oracle and every integrity invariant passed.
    pub pass: bool,
    /// Failure explanation (empty when passing).
    pub detail: String,
}

impl FaultCaseResult {
    /// The reproduction tuple `faultrun repro` replays:
    /// `mix:site:hit:seed[:rsite:rhit]`, prefixed `pool:` for a pool case.
    pub fn repro(&self) -> String {
        let backend = match self.backend {
            CaseBackend::Heap => "",
            CaseBackend::Pool => "pool:",
        };
        let case = format!("{backend}{}:{}:{}:{}", self.mix, self.site, self.hit, self.seed);
        match &self.recovery_site {
            None => case,
            Some((rs, rh)) => format!("{case}:{rs}:{rh}"),
        }
    }
}

/// Aggregate result of an exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Every site observed in recording passes, with total hit counts
    /// summed over all mixes.
    pub sites_seen: BTreeMap<String, u64>,
    /// Every executed case.
    pub cases: Vec<FaultCaseResult>,
}

impl ExploreReport {
    /// The failing cases.
    pub fn failures(&self) -> Vec<&FaultCaseResult> {
        self.cases.iter().filter(|c| !c.pass).collect()
    }
}

/// The geometry every exploration case uses, on either backend: small
/// strict levels so a few hundred ops exercise bucket overflow, the update
/// fallback and a resize. The blocking sync policy only matters once
/// [`Hdnh::open_pool`] injects the pool backend: it is the one policy whose
/// acks are power-loss safe, and therefore the only one the acked-state
/// oracle is sound against.
pub fn explore_params() -> HdnhParams {
    HdnhParams {
        segment_bytes: 1024,
        initial_bottom_segments: 2,
        // Tiny log segments: the spill mix rotates several times, so
        // crash sites inside rotation are reachable.
        vlog_segment_bytes: 2048,
        nvm: NvmOptions {
            sync_policy: SyncPolicy::Sync,
            ..NvmOptions::strict()
        },
        sync_mode: SyncMode::Background,
        ..Default::default()
    }
}

fn apply_model(model: &mut BTreeMap<u64, (u64, bool)>, op: &Op) {
    match op {
        Op::Insert(k, v) | Op::Update(k, v) => {
            model.insert(*k, (*v, false));
        }
        Op::InsertBig(k, v) | Op::UpdateBig(k, v) => {
            model.insert(*k, (*v, true));
        }
        Op::Remove(k) => {
            model.remove(k);
        }
    }
}

/// Runs the mix on `table`, bumping `applied` after each completed op.
/// Ops must individually succeed — the mixes are scripted against the
/// model, so an `Err` is a real bug, not an injected crash.
fn run_mix(table: &Hdnh, ops: &[Op], applied: &AtomicUsize) {
    for op in ops {
        match op {
            Op::Insert(k, v) => table
                .insert(&Key::from_u64(*k), &Value::from_u64(*v))
                .expect("scripted insert"),
            Op::Update(k, v) => table
                .update(&Key::from_u64(*k), &Value::from_u64(*v))
                .expect("scripted update"),
            Op::Remove(k) => {
                assert!(
                    table.remove(&Key::from_u64(*k)).expect("scripted remove"),
                    "scripted remove hit a missing key"
                );
            }
            Op::InsertBig(k, v) => table
                .insert_bytes(&Key::from_u64(*k), &big_payload(*v))
                .expect("scripted spill insert"),
            Op::UpdateBig(k, v) => table
                .update_bytes(&Key::from_u64(*k), &big_payload(*v))
                .expect("scripted spill update"),
        }
        applied.fetch_add(1, Ordering::Relaxed);
    }
}

/// Checks the recovered table against one candidate model state.
fn table_matches(table: &Hdnh, model: &BTreeMap<u64, (u64, bool)>) -> Result<(), String> {
    if table.len() != model.len() {
        return Err(format!(
            "live count {} != expected {}",
            table.len(),
            model.len()
        ));
    }
    for (k, (v, big)) in model {
        if *big {
            match table.get_bytes(&Key::from_u64(*k)) {
                Ok(Some(got)) if got == big_payload(*v) => {}
                Ok(Some(got)) => {
                    return Err(format!(
                        "key {k}: spilled payload ({} bytes) != expected seed {v}",
                        got.len()
                    ))
                }
                Ok(None) => return Err(format!("key {k} lost (expected spilled seed {v})")),
                Err(e) => return Err(format!("key {k}: read error {e}")),
            }
            continue;
        }
        match table.get(&Key::from_u64(*k)) {
            Some(got) if got.as_u64() == *v => {}
            Some(got) => return Err(format!("key {k}: value {} != expected {v}", got.as_u64())),
            None => return Err(format!("key {k} lost (expected {v})")),
        }
    }
    Ok(())
}

/// Oracle + deep integrity check after recovery. `applied` ops completed
/// before the crash; op `applied` (if any) was in flight and may be fully
/// applied or fully absent.
fn check_recovered(table: &Hdnh, ops: &[Op], applied: usize) -> Result<(), String> {
    let mut without = BTreeMap::new();
    for op in &ops[..applied.min(ops.len())] {
        apply_model(&mut without, op);
    }
    let matched = match table_matches(table, &without) {
        Ok(()) => Ok(()),
        Err(e1) => {
            if applied < ops.len() {
                let mut with = without.clone();
                apply_model(&mut with, &ops[applied]);
                table_matches(table, &with).map_err(|e2| {
                    format!("neither pre-op state ({e1}) nor post-op state ({e2}) matches")
                })
            } else {
                Err(e1)
            }
        }
    };
    matched?;
    let (reports, _) = table.verify_integrity_report();
    let broken: Vec<String> = reports
        .iter()
        .filter(|r| !r.ok)
        .map(|r| format!("{}: {}", r.name, r.violations.join("; ")))
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("integrity: {}", broken.join(" | ")))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The scratch directory a pool case lives in (none for a heap case),
/// removed when the case ends.
struct CaseDir(Option<PathBuf>);

impl CaseDir {
    fn new(backend: CaseBackend) -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        CaseDir((backend == CaseBackend::Pool).then(|| {
            let n = N.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("hdnh-faultpool-{}-{n}", std::process::id()))
        }))
    }

    fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the case's table — on the heap, or as a fresh pool in `dir` —
/// and runs the mix, catching an injected crash anywhere in between.
/// Returns the table plus how many ops completed, or `Ok(None)` when the
/// crash hit table *construction*: the meta block's magic word (and a
/// pool's superblock) is written last, so a half-formatted store is never
/// adopted and nothing was ever acknowledged.
fn run_phase_one(mix: &OpMix, dir: Option<&Path>) -> Result<Option<(Hdnh, usize)>, String> {
    let applied = AtomicUsize::new(0);
    let mut table: Option<Hdnh> = None;
    let mut build_err: Option<String> = None;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let built = match dir {
            None => Ok(Hdnh::new(explore_params())),
            Some(dir) => Hdnh::open_pool(explore_params(), dir, 1).map(|(t, _)| t),
        };
        match built {
            Ok(t) => run_mix(table.insert(t), &mix.ops, &applied),
            Err(e) => build_err = Some(format!("pool creation failed: {e}")),
        }
    }));
    if let Err(payload) = outcome {
        if fault::injected(&*payload).is_none() {
            return Err(format!(
                "genuine panic during mix (not an injected crash): {}",
                panic_message(&*payload)
            ));
        }
    }
    if let Some(e) = build_err {
        return Err(e);
    }
    Ok(table.map(|t| (t, applied.load(Ordering::Relaxed))))
}

/// The reboot after a power cut: a heap pool goes to recovery as it is; a
/// pool directory's regions are unmapped and the directory reopened, as a
/// fresh boot finds it.
fn reboot(pool: PersistentPool, dir: Option<&Path>, threads: usize) -> Result<Hdnh, String> {
    let reopened = match dir {
        None => Hdnh::try_recover(explore_params(), pool, threads),
        Some(dir) => {
            drop(pool);
            Hdnh::open_pool(explore_params(), dir, threads).map(|(t, _)| t)
        }
    };
    reopened.map_err(|e| format!("recovery failed: {e}"))
}

/// Executes one fully-specified case. `plan` arms the mix phase;
/// `recovery_plan` (optional, heap only) re-arms during recovery for a
/// second crash. This is the reproduction entry point: the same arguments
/// always replay the same machine states.
pub fn run_single(
    mix: &OpMix,
    plan: &FaultPlan,
    seed: u64,
    recovery_plan: Option<&FaultPlan>,
    threads: usize,
    backend: CaseBackend,
) -> FaultCaseResult {
    let mut result = FaultCaseResult {
        backend,
        mix: mix.name.to_string(),
        site: plan.site.clone(),
        hit: plan.hit,
        seed,
        recovery_site: recovery_plan.map(|p| (p.site.clone(), p.hit)),
        pass: false,
        detail: String::new(),
    };
    if backend == CaseBackend::Pool && recovery_plan.is_some() {
        result.detail = "a recovery plan runs on the heap only: a pool reboots through \
                         open_pool, which the plan does not arm"
            .into();
        return result;
    }
    let dir = CaseDir::new(backend);

    fault::arm(plan.clone());
    let lint_was = fault::set_lint_persists(true);
    let phase_one = run_phase_one(mix, dir.path());
    fault::set_lint_persists(lint_was);
    let (table, applied) = match phase_one {
        Ok(Some(v)) => v,
        Ok(None) => {
            // Crash during pool formatting: the magic word is written last,
            // so no application state was ever acknowledged.
            fault::disarm();
            result.pass = true;
            result.detail = "injected crash during table construction (no pool formatted)".into();
            return result;
        }
        Err(detail) => {
            fault::disarm();
            result.detail = detail;
            return result;
        }
    };
    if fault::fired().is_none() {
        // The plan's hit count exceeds what this mix produces — vacuous.
        fault::disarm();
        result.pass = true;
        result.detail = "site/hit not reached by mix".into();
        return result;
    }

    // Power fails under every region the table reaches. The regions
    // survive a crash *inside* recovery too (real NVM does): a clone
    // shares them, so a second recovery can follow.
    let mut pool = table.into_pool();
    let backup = recovery_plan.map(|_| pool.clone());
    pool.crash(seed);

    // Optionally crash a second time inside recovery. Armed recoveries run
    // single-threaded so the k-th hit is deterministic.
    if let (Some(rp), Some(backup)) = (recovery_plan, backup) {
        fault::rearm(rp.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Hdnh::recover(explore_params(), pool, 1)
        }));
        match outcome {
            Ok(table) => {
                // The recovery plan never fired (hit count not reached):
                // this table is already the final state.
                fault::disarm();
                match check_recovered(&table, &mix.ops, applied) {
                    Ok(()) => result.pass = true,
                    Err(e) => result.detail = format!("(recovery plan unreached) {e}"),
                }
                return result;
            }
            Err(payload) => {
                if fault::injected(&*payload).is_none() {
                    fault::disarm();
                    result.detail = format!(
                        "genuine panic during armed recovery: {}",
                        panic_message(&*payload)
                    );
                    return result;
                }
                pool = backup;
                pool.crash(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            }
        }
    }

    fault::disarm();
    let mode = LossMode::from_seed(seed).name();
    match catch_unwind(AssertUnwindSafe(|| reboot(pool, dir.path(), threads.max(1)))) {
        Ok(Ok(table)) => match check_recovered(&table, &mix.ops, applied) {
            Ok(()) => result.pass = true,
            Err(e) => result.detail = format!("[{mode}] {e}"),
        },
        Ok(Err(e)) => result.detail = format!("[{mode}] {e}"),
        Err(payload) => {
            result.detail = format!("[{mode}] recovery panicked: {}", panic_message(&*payload));
        }
    }
    result
}

/// Records per-site hit counts of one unarmed pass of `mix` on `backend`
/// (the matrix test and `faultrun sites`).
pub fn record_sites(
    mix: &OpMix,
    backend: CaseBackend,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let dir = CaseDir::new(backend);
    fault::start_recording();
    let phase = run_phase_one(mix, dir.path());
    let counts = fault::disarm();
    phase.map(|_| counts)
}

/// The crash-site inventory `faultrun sites` prints and
/// `tests/fixtures/faultrun-sites.txt` holds: every site each built-in mix
/// hits, with its hit count — recorded on the heap, and the same on a pool
/// (`tests/fault_matrix.rs` holds the two equal).
pub fn render_sites() -> String {
    let mut out = String::new();
    for mix in OpMix::builtin() {
        match record_sites(&mix, CaseBackend::Heap) {
            Ok(counts) => {
                let _ = writeln!(out, "mix {} ({} ops):", mix.name, mix.ops.len());
                write_counts(&mut out, &counts);
            }
            Err(e) => {
                let _ = writeln!(out, "mix {}: recording failed: {e}", mix.name);
            }
        }
    }
    out
}

/// The recovery-phase inventory `tests/fixtures/recovery-sites.txt` holds:
/// for each of the five `recovery_bases` on the `fill-resize` mix (seed 1),
/// every site the recovery that follows the crash hits, with its count.
pub fn render_recovery_sites() -> String {
    let mix = OpMix::builtin().remove(2);
    let mut out = String::new();
    for base in recovery_bases() {
        match record_recovery(&mix, &base, 1) {
            Ok(counts) => {
                let _ = writeln!(out, "{} crash {}:{} seed 1:", mix.name, base.site, base.hit);
                write_counts(&mut out, &counts);
            }
            Err(e) => {
                let _ = writeln!(out, "{} crash {}: recording failed: {e}", mix.name, base.site);
            }
        }
    }
    out
}

fn write_counts(out: &mut String, counts: &BTreeMap<&'static str, u64>) {
    for (site, n) in counts {
        let _ = writeln!(out, "  {site:<32} {n:>8} hits");
    }
}

/// Hit samples for a site observed `n` times: first, middle, last.
pub fn hit_samples(n: u64) -> Vec<u64> {
    let mut v = vec![1, n / 2 + 1, n];
    v.sort_unstable();
    v.dedup();
    v
}

/// Records per-site hit counts of a *recovery* that follows a crash at
/// `base` during the mix.
fn record_recovery(mix: &OpMix, base: &FaultPlan, seed: u64) -> Result<BTreeMap<&'static str, u64>, String> {
    fault::arm(base.clone());
    let phase = run_phase_one(mix, None);
    match phase {
        Ok(None) => {
            fault::disarm();
            Ok(BTreeMap::new())
        }
        Ok(Some((table, _))) => {
            if fault::fired().is_none() {
                fault::disarm();
                return Ok(BTreeMap::new());
            }
            let pool = table.into_pool();
            pool.crash(seed);
            fault::start_recording();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Hdnh::recover(explore_params(), pool, 1)
            }));
            let counts = fault::disarm();
            match outcome {
                Ok(_) => Ok(counts),
                Err(payload) => Err(format!(
                    "recovery panicked while recording: {}",
                    panic_message(&*payload)
                )),
            }
        }
        Err(e) => {
            fault::disarm();
            Err(e)
        }
    }
}

/// Base crashes used to seed the recovery-injection phase: a stable-state
/// crash plus the three resize phases, so every `recover.*` branch runs.
fn recovery_bases() -> Vec<FaultPlan> {
    [
        "insert.published",
        "resize.allocated",
        "resize.bucket_migrated",
        "resize.swapped",
        "update.fallback.new_committed",
    ]
    .into_iter()
    .map(|site| FaultPlan {
        site: site.to_string(),
        hit: 1,
    })
    .collect()
}

/// Runs the full crash-point matrix. Progress (and failures) accumulate in
/// the returned report; `on_case` is invoked after every case (CLI progress
/// reporting — pass `|_| ()` when unused).
pub fn explore(cfg: &ExploreConfig, mut on_case: impl FnMut(&FaultCaseResult)) -> ExploreReport {
    let mut report = ExploreReport::default();

    for mix in &cfg.mixes {
        let counts = match record_sites(mix, CaseBackend::Heap) {
            Ok(c) => c,
            Err(e) => {
                let r = FaultCaseResult {
                    backend: CaseBackend::Heap,
                    mix: mix.name.to_string(),
                    site: "<recording>".into(),
                    hit: 0,
                    seed: 0,
                    recovery_site: None,
                    pass: false,
                    detail: e,
                };
                on_case(&r);
                report.cases.push(r);
                continue;
            }
        };
        for (site, n) in &counts {
            *report.sites_seen.entry(site.to_string()).or_insert(0) += n;
        }
        for (site, n) in &counts {
            for hit in hit_samples(*n) {
                for &seed in &cfg.crash_seeds {
                    let plan = FaultPlan {
                        site: site.to_string(),
                        hit,
                    };
                    let r = run_single(mix, &plan, seed, None, cfg.threads, CaseBackend::Heap);
                    on_case(&r);
                    report.cases.push(r);
                }
            }
        }
    }

    if cfg.explore_recovery {
        // Phase two: crash during recovery. Use the resize-heavy mix so
        // recovery has real migration work to interrupt.
        let mix = cfg
            .mixes
            .iter()
            .find(|m| m.name == "fill-resize")
            .cloned()
            .unwrap_or_else(|| OpMix::builtin().remove(2));
        let seed = *cfg.crash_seeds.first().unwrap_or(&1);
        for base in recovery_bases() {
            let rcounts = match record_recovery(&mix, &base, seed) {
                Ok(c) => c,
                Err(e) => {
                    let r = FaultCaseResult {
                        backend: CaseBackend::Heap,
                        mix: mix.name.to_string(),
                        site: base.site.clone(),
                        hit: base.hit,
                        seed,
                        recovery_site: Some(("<recording>".into(), 0)),
                        pass: false,
                        detail: e,
                    };
                    on_case(&r);
                    report.cases.push(r);
                    continue;
                }
            };
            for (site, n) in &rcounts {
                *report.sites_seen.entry(site.to_string()).or_insert(0) += n;
                // Only inject at recovery-specific sites in phase two; the
                // NVM primitives were already swept in phase one and fire
                // thousands of times during migration.
                if !site.starts_with("recover.") {
                    continue;
                }
                for hit in hit_samples(*n) {
                    let rp = FaultPlan {
                        site: site.to_string(),
                        hit,
                    };
                    let r = run_single(&mix, &base, seed, Some(&rp), cfg.threads, CaseBackend::Heap);
                    on_case(&r);
                    report.cases.push(r);
                }
            }
        }
    }

    report
}

// No unit tests here: arming the process-global registry with live site
// names would crash unrelated lib tests running ops concurrently in the
// same binary. All driver coverage lives in `tests/fault_matrix.rs`, which
// is its own process.
