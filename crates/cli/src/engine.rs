//! Command execution against a live HDNH table.

use std::fmt::Write as _;
use std::time::Instant;

use hdnh::faultexplore::{self, CaseBackend, ExploreConfig, OpMix};
use hdnh::{Hdnh, HdnhError, HdnhParams};
use hdnh_common::Key;
use hdnh_nvm::{FaultPlan, NvmOptions, StatsSnapshot};
use hdnh_obs as obs;
use hdnh_server::client::{op_requests, ReplyDecoder};
use hdnh_server::resp::{enc_request, DEFAULT_MAX_FRAME};
use hdnh_server::{Decoder, Reply};
use hdnh_ycsb::{generate_ops, WorkloadSpec};

use crate::command::{
    Command, FaultRunMode, MetricsFormat, MetricsMode, StatsMode, TraceMode, HELP,
};

/// The table the shell and `serve` open (mapped from CLI flags by the
/// binary; see [`open_table`]).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Strict NVM (enables `crash`); slower writes.
    pub strict: bool,
    /// AEP latency model on.
    pub latency: bool,
    /// Initial capacity hint in records.
    pub capacity: usize,
    /// Pool directory for the file-backed persistent backend (`--pool`).
    /// `None` keeps the default heap simulator.
    pub pool: Option<String>,
    /// Pool fence policy: [`SyncPolicy::Sync`](hdnh_nvm::SyncPolicy) blocks
    /// write acks on `msync(MS_SYNC)` and is the only power-loss-safe
    /// setting; `Async` (default) is faster but an acked write may be lost
    /// if power fails before the kernel writes the page back.
    pub sync_policy: hdnh_nvm::SyncPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strict: false,
            latency: false,
            capacity: 10_000,
            pool: None,
            sync_policy: hdnh_nvm::SyncPolicy::Async,
        }
    }
}

/// Opens the table `config` describes, the one way the shell and `serve`
/// both do: builds its parameters, then creates a heap table, or opens
/// (creating it if need be, recovering it if the last run died) the pool
/// at `config.pool`. Returns the parameters as built (heap-backed), the
/// table, and for a pool a one-line banner saying how it was opened.
pub fn open_table(
    config: &EngineConfig,
) -> Result<(HdnhParams, Hdnh, Option<String>), HdnhError> {
    let nvm = if config.strict {
        NvmOptions::strict()
    } else if config.latency {
        NvmOptions::bench()
    } else {
        NvmOptions::fast()
    };
    let params = HdnhParams::builder()
        .capacity(config.capacity)
        .nvm(nvm)
        .sync_policy(config.sync_policy)
        .build()
        .map_err(|e| HdnhError::Config(e.to_string()))?;
    let Some(dir) = &config.pool else {
        return Ok((params.clone(), Hdnh::new(params), None));
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let (table, report) = Hdnh::open_pool(params.clone(), std::path::Path::new(dir), threads)?;
    let banner = if report.created {
        format!("created pool {dir} (layout epoch {})", report.layout_epoch)
    } else {
        format!(
            "opened pool {dir}: {} records, layout epoch {}, {}{}",
            table.len(),
            report.layout_epoch,
            if report.was_clean {
                "clean shutdown"
            } else {
                "recovered after unclean shutdown"
            },
            if report.removed_orphans > 0 {
                format!(", {} orphan file(s) removed", report.removed_orphans)
            } else {
                String::new()
            },
        )
    };
    Ok((params, table, Some(banner)))
}

/// Inserts `ids` as records RESP can name: key `id`, value its decimal
/// digits — the prefill of the shell's `fill` and of `serve --fill`. A
/// key already present counts as present (a reopened pool may hold the
/// range). Returns how many were new, or the first failing id and its
/// error.
pub fn fill(table: &Hdnh, ids: std::ops::Range<u64>) -> Result<u64, (u64, HdnhError)> {
    let mut inserted = 0;
    for id in ids {
        match table.insert_bytes(&Key::from_u64(id), id.to_string().as_bytes()) {
            Ok(()) => inserted += 1,
            Err(HdnhError::DuplicateKey) => {}
            Err(e) => return Err((id, e)),
        }
    }
    Ok(inserted)
}

/// A live table plus the state the shell needs.
pub struct Engine {
    table: Option<Hdnh>,
    params: HdnhParams,
    /// Next id for `fill` continuation and workload inserts.
    next_fill_id: u64,
    /// Baseline for `stats delta` (moved by `stats reset`).
    stats_base: StatsSnapshot,
    /// Baseline for `metrics delta` (moved by `metrics reset`).
    metrics_base: obs::MetricsSnapshot,
    /// What the table was opened from: with a pool directory, `quit` must
    /// close the pool to mark it clean, and `crash` reopens it.
    config: EngineConfig,
    /// One-line description of how the pool was opened, for the shell to
    /// print at startup.
    open_banner: Option<String>,
}

/// Outcome of executing one command.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Printable response.
    Text(String),
    /// Printable response for a command that found a failure (integrity
    /// violation, corruption, failed fault case, i/o problem). The shell
    /// prints it like [`Outcome::Text`] but exits nonzero.
    Failure(String),
    /// The shell should exit.
    Quit,
}

impl Engine {
    /// Builds an engine with a fresh table. Panics on pool-open failure;
    /// fallible construction is [`Engine::try_new`].
    pub fn new(config: EngineConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("engine construction failed: {e}"))
    }

    /// Builds an engine, surfacing configuration and pool-open problems as
    /// typed errors (the binary prints them and exits nonzero).
    pub fn try_new(config: EngineConfig) -> Result<Self, HdnhError> {
        // The shell is an observability surface: the registry is always on
        // here (library users opt in via `hdnh_obs::set_enabled`).
        obs::set_enabled(true);
        let (params, table, open_banner) = open_table(&config)?;
        Ok(Engine {
            table: Some(table),
            params,
            next_fill_id: 0,
            stats_base: StatsSnapshot::default(),
            metrics_base: obs::MetricsSnapshot::empty(),
            config,
            open_banner,
        })
    }

    /// One-line description of how the pool was opened (pool-backed engines
    /// only); the shell prints it at startup.
    pub fn open_banner(&self) -> Option<&str> {
        self.open_banner.as_deref()
    }

    /// The live table, as a typed error instead of a panic when a prior
    /// crash/recovery cycle failed to hand one back.
    fn table(&self) -> Result<&Hdnh, HdnhError> {
        self.table.as_ref().ok_or_else(|| {
            HdnhError::Recovery("no live table (a previous crash/recovery did not complete)".into())
        })
    }

    /// Executes one command, returning the response text. Engine-level
    /// errors ([`HdnhError`]) and RESP error replies become
    /// [`Outcome::Failure`] so the shell can exit nonzero; a miss stays
    /// plain text (`(not found)`).
    pub fn execute(&mut self, cmd: Command) -> Outcome {
        match self.execute_inner(cmd) {
            Ok(outcome) => outcome,
            Err(e) => Outcome::Failure(format!("error: {e}")),
        }
    }

    fn execute_inner(&mut self, cmd: Command) -> Result<Outcome, HdnhError> {
        match cmd {
            Command::Resp(words) => self.resp(&words),
            Command::Fill(n) => {
                let start_id = self.next_fill_id;
                let t0 = Instant::now();
                let inserted = match fill(self.table()?, start_id..start_id + n) {
                    Ok(inserted) => inserted,
                    Err((id, e)) => return Ok(Outcome::Failure(format!("error at id {id}: {e}"))),
                };
                self.next_fill_id = start_id + n;
                Ok(Outcome::Text(format!(
                    "inserted {inserted} records (ids {start_id}..{}) in {:.1} ms",
                    start_id + n,
                    t0.elapsed().as_secs_f64() * 1e3
                )))
            }
            Command::Workload(mix, ops) => self.run_workload(mix, ops),
            Command::Stats(mode) => {
                let now = self.table()?.nvm_stats();
                let s = match mode {
                    StatsMode::Absolute => now,
                    StatsMode::Delta => now.since(&self.stats_base),
                    StatsMode::Reset => {
                        self.stats_base = now;
                        return Ok(Outcome::Text("stats baseline reset".to_string()));
                    }
                };
                let mut out = String::new();
                if mode == StatsMode::Delta {
                    let _ = writeln!(out, "(since last 'stats reset')");
                }
                let _ = writeln!(out, "reads        {:>12}  ({} blocks)", s.reads, s.read_blocks);
                let _ = writeln!(out, "writes       {:>12}  ({} lines)", s.writes, s.write_lines);
                let _ = writeln!(out, "flushes      {:>12}", s.flushes);
                let _ = write!(out, "fences       {:>12}", s.fences);
                Ok(Outcome::Text(out))
            }
            Command::Metrics(mode) => {
                let now = obs::snapshot();
                let (s, format) = match mode {
                    MetricsMode::Reset => {
                        self.metrics_base = now;
                        return Ok(Outcome::Text("metrics baseline reset".to_string()));
                    }
                    MetricsMode::Show { format, delta } => {
                        // If the registry was globally reset (`obs::reset`)
                        // after our baseline was captured, the baseline is
                        // *ahead* of the live counters and a naive subtract
                        // would go negative (or, with saturating math,
                        // silently report zeros for real work). Detect the
                        // regression, drop the stale baseline, and leave an
                        // auditable counter tick behind.
                        let s = if delta {
                            if now.regressed_from(&self.metrics_base) {
                                obs::count(obs::Counter::DeltaBaselineReset);
                                self.metrics_base = obs::MetricsSnapshot::empty();
                            }
                            now.since(&self.metrics_base)
                        } else {
                            now
                        };
                        (s, format)
                    }
                };
                let out = match format {
                    MetricsFormat::Both => {
                        format!("{}{}", s.to_prometheus(), s.to_json())
                    }
                    MetricsFormat::Json => s.to_json(),
                    MetricsFormat::Prom => {
                        let mut p = s.to_prometheus();
                        p.pop(); // drop trailing newline for println
                        p
                    }
                };
                Ok(Outcome::Text(out))
            }
            Command::Trace(mode) => Ok(match mode {
                TraceMode::Dump => Outcome::Text(obs::trace::dump_json()),
                TraceMode::Reset => {
                    obs::trace::reset();
                    Outcome::Text("trace rings cleared".to_string())
                }
                TraceMode::Slow(us) => {
                    let ns = us.saturating_mul(1_000);
                    obs::trace::set_slow_threshold_ns(ns);
                    Outcome::Text(if ns == 0 {
                        "slow-op recording disabled".to_string()
                    } else {
                        format!("recording ops and commands slower than {us} µs")
                    })
                }
            }),
            Command::Info => {
                let t = self.table()?;
                let hot = t
                    .hot_table()
                    .map(|h| format!("{} / {} slots, {:?}", h.len(), h.capacity(), h.policy()))
                    .unwrap_or_else(|| "disabled".to_string());
                Ok(Outcome::Text(format!(
                    "records      {}\nload factor  {:.3}\nresizes      {}\nocf bytes    {}\nhot table    {hot}",
                    t.len(),
                    t.load_factor(),
                    t.resize_count(),
                    t.ocf_footprint_bytes(),
                )))
            }
            Command::Verify => {
                let span = obs::phase_enter(obs::Phase::Verify);
                let (reports, live) = self.table()?.verify_integrity_report();
                obs::phase_record(obs::Phase::Verify, span, live as u64);
                let ms = obs::snapshot().phase(obs::Phase::Verify).last_ns as f64 / 1e6;
                let failed = reports.iter().filter(|r| !r.ok).count();
                let mut out = String::new();
                if failed == 0 {
                    let _ = writeln!(out, "integrity ok: {live} live records ({ms:.1} ms)");
                } else {
                    let _ = writeln!(out, "INTEGRITY VIOLATION: {failed} invariant(s) failed");
                }
                for r in &reports {
                    let _ = writeln!(out, "  {:<22} {}", r.name, if r.ok { "ok" } else { "FAIL" });
                    for v in &r.violations {
                        let _ = writeln!(out, "      {v}");
                    }
                }
                out.pop();
                if failed == 0 {
                    Ok(Outcome::Text(out))
                } else {
                    Ok(Outcome::Failure(out))
                }
            }
            Command::Scrub => {
                let report = self.table()?.scrub();
                let mut out = report.to_json();
                for err in &report.errors {
                    let _ = write!(out, "\n  {err}");
                }
                if report.detected > report.errors.len() {
                    let _ = write!(
                        out,
                        "\n  ... ({} more not retained)",
                        report.detected - report.errors.len()
                    );
                }
                if report.clean() {
                    Ok(Outcome::Text(out))
                } else {
                    Ok(Outcome::Failure(out))
                }
            }
            Command::Vlog => {
                let s = self.table()?.vlog_stats();
                let mut out = format!(
                    "segments     {}\ncapacity     {} bytes\nused         {} bytes\ngarbage      {} bytes\nlive         {} bytes",
                    s.segments, s.capacity_bytes, s.used_bytes, s.garbage_bytes, s.live_bytes
                );
                if let Some(gc) = s.last_gc {
                    let _ = write!(
                        out,
                        "\nlast gc      {} victim(s), {} retired, {} relocated, {} bytes reclaimed",
                        gc.victims, gc.segments_retired, gc.records_relocated, gc.bytes_reclaimed
                    );
                }
                Ok(Outcome::Text(out))
            }
            Command::Crash(seed) => {
                if !self.params.nvm.strict {
                    return Ok(Outcome::Text(
                        "crash requires strict mode (run with --strict)".to_string(),
                    ));
                }
                let table = self.table.take().ok_or_else(|| {
                    HdnhError::Recovery(
                        "no live table (a previous crash/recovery did not complete)".into(),
                    )
                })?;
                let pool = table.into_pool();
                let dropped = pool.crash(seed);
                // A heap table reboots in place; a pool's regions are
                // unmapped and the directory reopened, as after a real cut.
                let recovered = match &self.config.pool {
                    None => {
                        let threads =
                            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
                        Hdnh::recover(self.params.clone(), pool, threads)
                    }
                    Some(_) => {
                        drop(pool);
                        open_table(&self.config)?.1
                    }
                };
                let len = recovered.len();
                self.table = Some(recovered);
                // Recovery time comes from the registry's recovery_total
                // span (recorded inside `recover` itself), not a wrapper
                // clock, so the shell and `metrics` report the same number.
                let ms = obs::snapshot().phase(obs::Phase::RecoveryTotal).last_ns as f64 / 1e6;
                Ok(Outcome::Text(format!(
                    "crashed ({dropped} words dropped), recovered {len} records in {ms:.1} ms"
                )))
            }
            Command::FaultRun(mode) => Ok(Self::fault_run(mode)),
            Command::Restore(snap, dest) => {
                let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
                let (table, report) = Hdnh::restore_snapshot(
                    self.params.clone(),
                    std::path::Path::new(&snap),
                    std::path::Path::new(&dest),
                    threads,
                )?;
                let records = table.len();
                // The restored pool is validated, closed clean, and left in
                // place; reopen it with `--pool <dest>`.
                table.close_pool()?;
                Ok(Outcome::Text(format!(
                    "restored {snap} into {dest}: {records} records, layout epoch {}",
                    report.layout_epoch
                )))
            }
            Command::Help => Ok(Outcome::Text(HELP.to_string())),
            Command::Quit => {
                if self.config.pool.is_some() {
                    // A clean quit must mark the pool clean-shutdown; a
                    // failed close leaves it dirty (next open recovers) and
                    // the shell exits nonzero.
                    if let Some(table) = self.table.take() {
                        table.close_pool()?;
                    }
                }
                Ok(Outcome::Quit)
            }
        }
    }

    /// Runs one line as a RESP request through the server's executor and
    /// renders the reply: the shell is a RESP front end, as `redis-cli`
    /// is. An error reply fails the line, as `error: CODE msg`.
    fn resp(&self, words: &[String]) -> Result<Outcome, HdnhError> {
        let args: Vec<&[u8]> = words.iter().map(|w| w.as_bytes()).collect();
        Ok(match call(self.table()?, &args) {
            Ok(None) => Outcome::Failure(format!("unknown command '{}' (try 'help')", words[0])),
            Ok(Some(Reply::Error(e))) | Err(e) => Outcome::Failure(format!("error: {e}")),
            Ok(Some(reply)) => Outcome::Text(render(&reply)),
        })
    }

    /// Runs the crash-point injection matrix. Independent of the shell's
    /// table — the explorer builds small strict tables of its own. Any
    /// failing case yields [`Outcome::Failure`] (nonzero shell exit).
    fn fault_run(mode: FaultRunMode) -> Outcome {
        match mode {
            FaultRunMode::Sites => {
                let mut out = faultexplore::render_sites();
                out.pop();
                Outcome::Text(out)
            }
            FaultRunMode::Repro(tuple) => match Self::parse_repro(&tuple) {
                Err(e) => Outcome::Failure(format!("error: {e}")),
                Ok((backend, mix, plan, seed, rplan)) => {
                    let r =
                        faultexplore::run_single(&mix, &plan, seed, rplan.as_ref(), 2, backend);
                    match (r.pass, r.detail.is_empty()) {
                        (true, true) => Outcome::Text(format!("PASS {}", r.repro())),
                        (true, false) => {
                            Outcome::Text(format!("PASS {} ({})", r.repro(), r.detail))
                        }
                        (false, _) => {
                            Outcome::Failure(format!("FAIL {}\n  {}", r.repro(), r.detail))
                        }
                    }
                }
            },
            FaultRunMode::Full | FaultRunMode::Quick => {
                let cfg = if mode == FaultRunMode::Quick {
                    ExploreConfig::quick()
                } else {
                    ExploreConfig::full()
                };
                let span = obs::phase_enter(obs::Phase::FaultExplore);
                let report = faultexplore::explore(&cfg, |_| ());
                obs::phase_record(obs::Phase::FaultExplore, span, report.cases.len() as u64);
                let secs =
                    obs::snapshot().phase(obs::Phase::FaultExplore).last_ns as f64 / 1e9;
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "explored {} crash sites, {} cases in {:.1} s",
                    report.sites_seen.len(),
                    report.cases.len(),
                    secs
                );
                // Per-site rollup.
                let mut per_site: std::collections::BTreeMap<&str, (usize, usize)> =
                    std::collections::BTreeMap::new();
                for c in &report.cases {
                    let e = per_site.entry(c.site.as_str()).or_insert((0, 0));
                    e.0 += 1;
                    if c.pass {
                        e.1 += 1;
                    }
                }
                for (site, (cases, passes)) in &per_site {
                    let _ = writeln!(
                        out,
                        "  {site:<32} {passes:>4}/{cases:<4} {}",
                        if passes == cases { "ok" } else { "FAIL" }
                    );
                }
                let failures = report.failures();
                if failures.is_empty() {
                    let _ = write!(out, "all cases passed");
                    Outcome::Text(out)
                } else {
                    let _ = writeln!(out, "{} FAILURES (repro with 'faultrun repro <tuple>'):", failures.len());
                    for f in &failures {
                        let _ = writeln!(out, "  {}\n    {}", f.repro(), f.detail);
                    }
                    out.pop();
                    Outcome::Failure(out)
                }
            }
        }
    }

    /// Parses `[pool:]mix:site:hit:seed[:recovery_site:recovery_hit]`; the
    /// `pool:` prefix replays the case on a pool directory.
    #[allow(clippy::type_complexity)]
    fn parse_repro(
        tuple: &str,
    ) -> Result<(CaseBackend, OpMix, FaultPlan, u64, Option<FaultPlan>), String> {
        let (backend, case) = match tuple.strip_prefix("pool:") {
            Some(case) => (CaseBackend::Pool, case),
            None => (CaseBackend::Heap, tuple),
        };
        let parts: Vec<&str> = case.split(':').collect();
        if parts.len() != 4 && parts.len() != 6 {
            return Err("tuple must be [pool:]mix:site:hit:seed[:rsite:rhit]".into());
        }
        let mix = OpMix::builtin()
            .into_iter()
            .find(|m| m.name == parts[0])
            .ok_or_else(|| format!("unknown mix '{}'", parts[0]))?;
        let hit: u64 = parts[2].parse().map_err(|_| "hit must be an integer".to_string())?;
        let seed: u64 = parts[3].parse().map_err(|_| "seed must be an integer".to_string())?;
        let plan = FaultPlan {
            site: parts[1].to_string(),
            hit,
        };
        let rplan = if parts.len() == 6 {
            Some(FaultPlan {
                site: parts[4].to_string(),
                hit: parts[5]
                    .parse()
                    .map_err(|_| "recovery hit must be an integer".to_string())?,
            })
        } else {
            None
        };
        Ok((backend, mix, plan, seed, rplan))
    }

    fn spec_for(mix: char) -> WorkloadSpec {
        match mix {
            'a' => WorkloadSpec::ycsb_a(),
            'b' => WorkloadSpec::ycsb_b(),
            'c' => WorkloadSpec::ycsb_c(),
            'f' => WorkloadSpec::ycsb_f(),
            _ => unreachable!("parser filters mixes"),
        }
    }

    /// Runs `n_ops` ops of a YCSB mix over the filled ids, each as the
    /// RESP requests netbench sends for it ([`op_requests`]), through
    /// [`call`]: the time includes encoding and decoding them in process.
    /// The first error reply fails the command.
    fn run_workload(&mut self, mix: char, n_ops: usize) -> Result<Outcome, HdnhError> {
        let spec = Self::spec_for(mix);
        let preloaded = self.next_fill_id.max(1);
        let table = self.table()?;
        if table.is_empty() {
            return Ok(Outcome::Text("table is empty — run 'fill <n>' first".to_string()));
        }
        let ops = generate_ops(&spec, preloaded, self.next_fill_id, n_ops, 0xC11);
        // `fill`'s values for version 0, the version's digits after it.
        let value = |id: u64, seq: u64| if seq == 0 { id } else { seq }.to_string().into_bytes();
        let mut failed = None;
        let t0 = Instant::now();
        for op in &ops {
            op_requests(op, value, |args| match call(table, args) {
                Ok(Some(Reply::Error(e))) | Err(e) => {
                    failed.get_or_insert(e);
                }
                _ => {}
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        if let Some(e) = failed {
            return Ok(Outcome::Failure(format!("error: {e}")));
        }
        Ok(Outcome::Text(format!(
            "YCSB-{}: {} ops in {:.1} ms ({:.3} Mops/s)",
            mix.to_ascii_uppercase(),
            n_ops,
            secs * 1e3,
            n_ops as f64 / secs / 1e6
        )))
    }
}

/// Runs one RESP request through the server's executor, the code a RESP
/// client's request runs, and decodes its reply: `Ok(None)` for a command
/// the executor does not know, `Err` for a request the decoder refuses.
fn call(table: &Hdnh, args: &[&[u8]]) -> Result<Option<Reply>, String> {
    let mut buf = Vec::new();
    enc_request(&mut buf, args);
    let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
    dec.feed(&buf);
    let frame = dec
        .next()
        .map_err(|e| e.to_string())?
        .expect("an encoded request is one whole frame");
    buf.clear();
    if hdnh_server::execute(table, &dec, &frame, &mut buf).is_none() {
        return Ok(None);
    }
    let mut replies = ReplyDecoder::new();
    replies.feed(&buf);
    match replies.next() {
        Ok(Some(reply)) => Ok(Some(reply)),
        other => unreachable!("the executor appends one whole reply: {other:?}"),
    }
}

/// A reply as the shell prints it: a bulk as its bytes, an integer as its
/// digits, a simple string as it is, nil as `(not found)`, and an array
/// one element a line.
fn render(reply: &Reply) -> String {
    match reply {
        Reply::Bulk(b) => String::from_utf8_lossy(b).into_owned(),
        Reply::Int(n) => n.to_string(),
        Reply::Simple(s) | Reply::Error(s) => s.clone(),
        Reply::Nil => "(not found)".to_string(),
        Reply::Array(items) => items.iter().map(render).collect::<Vec<_>>().join("\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::parse;

    fn run(engine: &mut Engine, line: &str) -> String {
        match engine.execute(parse(line).unwrap().unwrap()) {
            Outcome::Text(t) | Outcome::Failure(t) => t,
            Outcome::Quit => "<quit>".to_string(),
        }
    }

    /// The flight recorder is process-global: a test that reads it back
    /// holds this lock, so no other test resets it in between.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn crud_session() {
        let mut e = Engine::new(EngineConfig::default());
        assert_eq!(run(&mut e, "set 1 42"), "OK");
        assert_eq!(run(&mut e, "get 1"), "42");
        assert_eq!(run(&mut e, "SET 1 43"), "OK");
        assert_eq!(run(&mut e, "get 1"), "43");
        assert_eq!(run(&mut e, "del 1"), "1");
        assert_eq!(run(&mut e, "get 1"), "(not found)");
        assert_eq!(run(&mut e, "del 1"), "0");
        // `set` stores an absent key, as RESP `SET` does.
        assert_eq!(run(&mut e, "set 5 x"), "OK");
        assert_eq!(run(&mut e, "get 5"), "x");
        assert_eq!(run(&mut e, "mset 1 a 2 b"), "OK");
        assert_eq!(run(&mut e, "del 1 2"), "2");
        assert_eq!(run(&mut e, "ping"), "PONG");
    }

    #[test]
    fn exists_and_mget() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "set 10 100");
        run(&mut e, "set 20 200");
        assert_eq!(run(&mut e, "exists 10"), "1");
        assert_eq!(run(&mut e, "exists 11"), "0");
        assert_eq!(run(&mut e, "exists 10 11 20"), "2");
        assert_eq!(run(&mut e, "mget 10 11 20"), "100\n(not found)\n200");
        assert_eq!(run(&mut e, "mget 20"), "200");
    }

    #[test]
    fn error_replies_and_unknown_words_fail_the_line() {
        let mut e = Engine::new(EngineConfig::default());
        for (line, want) in [
            ("get x", "error: ERR value is not an unsigned integer or out of range"),
            ("get 1 2", "error: ERR wrong number of arguments for 'get'"),
            ("frobnicate 1", "unknown command 'frobnicate' (try 'help')"),
            // The server's own commands are not the shell's.
            ("SHUTDOWN", "unknown command 'SHUTDOWN' (try 'help')"),
        ] {
            let out = e.execute(parse(line).unwrap().unwrap());
            assert_eq!(out, Outcome::Failure(want.to_string()), "{line}");
        }
    }

    #[test]
    fn fill_then_workload_then_verify() {
        let mut e = Engine::new(EngineConfig::default());
        let out = run(&mut e, "fill 2000");
        assert!(out.starts_with("inserted 2000 records"), "{out}");
        let out = run(&mut e, "workload a 3000");
        assert!(out.starts_with("YCSB-A: 3000 ops"), "{out}");
        let out = run(&mut e, "verify");
        assert!(out.starts_with("integrity ok"), "{out}");
        let out = run(&mut e, "info");
        assert!(out.contains("records"), "{out}");
    }

    #[test]
    fn stats_move_with_work() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 100");
        let out = run(&mut e, "stats");
        assert!(out.contains("writes"), "{out}");
    }

    #[test]
    fn stats_delta_and_reset() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 200");
        let absolute = run(&mut e, "stats");
        assert!(!absolute.contains("(0 lines)"), "{absolute}");
        assert_eq!(run(&mut e, "stats reset"), "stats baseline reset");
        // Nothing touched the table since the reset: the delta is zero even
        // though the absolute counters still show the fill.
        let out = run(&mut e, "stats delta");
        assert!(out.starts_with("(since last 'stats reset')"), "{out}");
        assert!(out.contains("(0 lines)"), "{out}");
        run(&mut e, "fill 100");
        let out = run(&mut e, "stats delta");
        assert!(!out.contains("(0 lines)"), "{out}");
    }

    #[test]
    fn metrics_exposition_forms() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 200");
        let out = run(&mut e, "metrics json");
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(out.contains("\"insert\"") && out.contains("\"derived\""), "{out}");
        let out = run(&mut e, "metrics prom");
        assert!(out.contains("hdnh_ops_total"), "{out}");
        assert!(!out.starts_with('{'), "{out}");
        let both = run(&mut e, "metrics");
        assert!(both.contains("hdnh_ops_total"), "{both}");
        assert!(both.lines().last().unwrap().starts_with('{'), "{both}");
        assert_eq!(run(&mut e, "metrics reset"), "metrics baseline reset");
        // Delta form stays parseable (exact zeros can't be asserted here:
        // the registry is process-global and tests run concurrently).
        let out = run(&mut e, "metrics delta json");
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
    }

    #[test]
    fn metrics_delta_survives_registry_reset_between_calls() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 300");
        assert_eq!(run(&mut e, "metrics reset"), "metrics baseline reset");
        // A registry-wide reset (another test, an operator, a bench run)
        // leaves our baseline ahead of the live counters.
        obs::reset();
        run(&mut e, "fill 100");
        let out = run(&mut e, "metrics delta json");
        // The delta must stay well-formed, never report pre-reset zeros
        // for post-reset work, and record that the baseline was dropped.
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(
            out.contains("\"insert\":{\"count\":"),
            "delta still carries op data: {out}"
        );
        let after = obs::snapshot();
        assert!(
            after.counter(obs::Counter::DeltaBaselineReset) >= 1,
            "stale-baseline detection must be auditable"
        );
        // A second delta right away does not re-trigger the detector.
        let before = after.counter(obs::Counter::DeltaBaselineReset);
        run(&mut e, "metrics delta json");
        assert_eq!(obs::snapshot().counter(obs::Counter::DeltaBaselineReset), before);
    }

    #[test]
    fn trace_commands_drive_the_flight_recorder() {
        let _g = trace_lock();
        let mut e = Engine::new(EngineConfig::default());
        obs::trace::reset();
        assert_eq!(
            run(&mut e, "trace slow 0"),
            "slow-op recording disabled"
        );
        let out = run(&mut e, "trace slow 1000");
        assert!(out.contains("1000 µs"), "{out}");
        assert_eq!(run(&mut e, "trace reset"), "trace rings cleared");
        let out = run(&mut e, "trace");
        assert!(out.starts_with("{\"anchor_unix_ns\":"), "{out}");
        assert!(out.contains("\"slow_threshold_ns\":1000000"), "{out}");
        run(&mut e, "trace slow 0");
    }

    #[test]
    fn verify_enters_its_phase_in_the_trace() {
        let _g = trace_lock();
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 100");
        assert!(run(&mut e, "verify").starts_with("integrity ok"));
        let out = run(&mut e, "trace");
        assert!(out.contains("\"kind\":\"phase_enter\",\"what\":\"verify\""), "{out}");
        assert!(out.contains("\"kind\":\"phase_exit\",\"what\":\"verify\""), "{out}");
    }

    #[test]
    fn crash_requires_strict() {
        let mut e = Engine::new(EngineConfig::default());
        let out = run(&mut e, "crash 1");
        assert!(out.contains("requires strict"), "{out}");
    }

    #[test]
    fn crash_and_recover_in_strict_mode() {
        let mut e = Engine::new(EngineConfig {
            strict: true,
            ..Default::default()
        });
        run(&mut e, "fill 500");
        let out = run(&mut e, "crash 7");
        assert!(out.contains("recovered 500 records"), "{out}");
        // Table is usable after recovery.
        assert_eq!(run(&mut e, "set 999999 1"), "OK");
        let out = run(&mut e, "verify");
        assert!(out.starts_with("integrity ok: 501"), "{out}");
    }

    #[test]
    fn scrub_on_clean_table_reports_clean_json() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 300");
        let out = e.execute(parse("scrub").unwrap().unwrap());
        match out {
            Outcome::Text(t) => {
                assert!(t.starts_with("{\"scanned\":300"), "{t}");
                assert!(t.contains("\"detected\":0"), "{t}");
            }
            other => panic!("clean scrub must not be a Failure: {other:?}"),
        }
    }

    #[test]
    fn vlog_and_compact_commands_run() {
        let mut e = Engine::new(EngineConfig::default());
        run(&mut e, "fill 50");
        // `fill` writes short decimal values, all inline, so the log is
        // empty and compaction is a clean no-op — the commands still
        // round-trip.
        let out = run(&mut e, "vlog");
        assert!(out.starts_with("segments"), "{out}");
        assert!(out.contains("garbage"), "{out}");
        let out = run(&mut e, "compact");
        assert!(out.starts_with("victims:0 "), "{out}");
    }

    #[test]
    fn quit_propagates() {
        let mut e = Engine::new(EngineConfig::default());
        assert_eq!(e.execute(Command::Quit), Outcome::Quit);
    }

    #[test]
    fn crash_cuts_a_strict_pool_and_reopens_it() {
        let dir = std::env::temp_dir().join(format!("hdnh-cli-engine-strict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // `sync` acks are the power-loss-safe ones: every one comes back.
        let mut e = Engine::try_new(EngineConfig {
            strict: true,
            pool: Some(dir.to_str().unwrap().to_string()),
            sync_policy: hdnh_nvm::SyncPolicy::Sync,
            ..Default::default()
        })
        .unwrap();
        run(&mut e, "fill 500");
        let out = run(&mut e, "crash 7");
        assert!(out.contains("recovered 500 records"), "{out}");
        let out = run(&mut e, "verify");
        assert!(out.starts_with("integrity ok: 500"), "{out}");
        assert_eq!(run(&mut e, "get 3"), "3", "a filled id reads back its value");
        assert_eq!(e.execute(Command::Quit), Outcome::Quit);
        // The media image lives in memory: the directory holds only the pool.
        for name in file_names(&dir) {
            let pool_file = name == "superblock"
                || name == "meta.dat"
                || ["seg-", "vlog-"].iter().any(|p| name.starts_with(p) && name.ends_with(".dat"));
            assert!(pool_file, "{name} is not a pool file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The names of the files in `dir`, sorted.
    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn restore_rebuilds_a_pool_that_opens_and_scrubs_clean() {
        for strict in [false, true] {
            let work = std::env::temp_dir()
                .join(format!("hdnh-cli-engine-restore-{}-{strict}", std::process::id()));
            let _ = std::fs::remove_dir_all(&work);
            let (pool, snap, dest) = (work.join("pool"), work.join("snap"), work.join("dest"));
            let config = |dir: &std::path::Path| EngineConfig {
                strict,
                capacity: 100_000,
                pool: Some(dir.to_str().unwrap().to_string()),
                ..Default::default()
            };
            let mut e = Engine::try_new(config(&pool)).unwrap();
            run(&mut e, "fill 20000");
            let out = run(&mut e, &format!("backup {}", snap.display()));
            assert!(out.starts_with("files:"), "{out}");
            let out = run(&mut e, &format!("restore {} {}", snap.display(), dest.display()));
            assert!(out.contains("20000 records"), "strict={strict}: {out}");
            assert_eq!(e.execute(Command::Quit), Outcome::Quit);
            let mut want = file_names(&snap);
            want.retain(|name| name != hdnh::SNAPSHOT_MANIFEST_FILE);
            assert_eq!(file_names(&dest), want, "strict={strict}");

            let mut e = Engine::try_new(config(&dest)).unwrap();
            let banner = e.open_banner().unwrap().to_string();
            assert!(banner.contains("clean shutdown"), "strict={strict}: {banner}");
            let out = run(&mut e, "scrub");
            assert!(out.contains("\"detected\":0"), "strict={strict}: {out}");
            assert_eq!(e.execute(Command::Quit), Outcome::Quit);
            let _ = std::fs::remove_dir_all(&work);
        }
    }

    #[test]
    fn pool_backed_engine_persists_across_quit() {
        let dir = std::env::temp_dir().join(format!("hdnh-cli-engine-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            pool: Some(dir.to_str().unwrap().to_string()),
            capacity: 4_000,
            ..Default::default()
        };
        let mut e = Engine::try_new(cfg.clone()).unwrap();
        let banner = e.open_banner().unwrap().to_string();
        assert!(banner.starts_with("created pool"), "{banner}");
        assert_eq!(run(&mut e, "set 7 77"), "OK");
        assert_eq!(e.execute(Command::Quit), Outcome::Quit);

        let mut e = Engine::try_new(cfg).unwrap();
        let banner = e.open_banner().unwrap().to_string();
        assert!(banner.contains("clean shutdown"), "{banner}");
        assert_eq!(run(&mut e, "get 7"), "77");
        assert_eq!(e.execute(Command::Quit), Outcome::Quit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_over_a_sticky_io_fault_is_not_acked() {
        let dir = std::env::temp_dir().join(format!("hdnh-cli-engine-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Engine::try_new(EngineConfig {
            pool: Some(dir.to_str().unwrap().to_string()),
            capacity: 1_000,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(run(&mut e, "set 2 x"), "OK");
        let pool = e.table().unwrap().params().nvm.backend.pool().unwrap().clone();
        pool.record_fault(hdnh_nvm::NvmIoError {
            op: "msync",
            path: dir.clone(),
            msg: "injected write-back failure".into(),
        });
        for line in ["set 1 x", "set 2 y", "mset 3 z", "del 2"] {
            match e.execute(parse(line).unwrap().unwrap()) {
                Outcome::Failure(t) => {
                    assert!(t.contains("msync") && t.contains("injected write-back failure"), "{line}: {t}")
                }
                other => panic!("{line} was acked over a sticky i/o fault: {other:?}"),
            }
        }
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_on_empty_table_is_guarded() {
        let mut e = Engine::new(EngineConfig::default());
        let out = run(&mut e, "workload c 100");
        assert!(out.contains("fill"), "{out}");
    }
}
