//! `run <workload>`: one workload in this process, start to finish.
//!
//! Order matters for the memory metric: the operation generator, the
//! shadow model and the reference kernel are built first, the resident
//! set is read, and only then does a table exist.

use std::sync::Arc;
use std::time::Instant;

use hdnh::Hdnh;
use hdnh_common::Key;
use hdnh_nvm::StatsSnapshot;
use hdnh_server::ServerHandle;

use crate::alloc;
use crate::harness::{self, build_table, measure, median, Measured, System};
use crate::json::Json;
use crate::kv::{Kv, Reference};
use crate::ladder;
use crate::net::{start_server, NetMixed};
use crate::spec;
use crate::workload::{scaled_ops, value_matches, OpGen, Shadow, Which};

/// Set-up runs this many times in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;

pub struct Args {
    pub which: Which,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in the order of the tables in `spec`.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// What was run and how, for the reader; not part of the contract.
    pub details: Json,
}

/// Either kind of workload, so the code below is written once.
pub enum Sys {
    Kv(Kv),
    Net(NetMixed),
}

impl Sys {
    pub fn shadow(&self) -> &Shadow {
        match self {
            Sys::Kv(kv) => &kv.shadow,
            Sys::Net(net) => &net.shadow,
        }
    }

    pub fn measure(&mut self, gen: &mut OpGen, which: Which, seconds: f64) -> Measured {
        match self {
            Sys::Kv(kv) => measure(kv, gen, which, seconds),
            Sys::Net(net) => measure(net, gen, which, seconds),
        }
    }

    pub fn table(&self) -> &Arc<Hdnh> {
        match self {
            Sys::Kv(kv) => kv.table(),
            Sys::Net(net) => net.table(),
        }
    }
}

/// Table construction, preload and (for the network workload) server
/// start — what `setup_s` times.
fn set_up(which: Which) -> (Arc<Hdnh>, Option<ServerHandle>) {
    let table = build_table(which);
    let server = (which == Which::NetMixed).then(|| start_server(&table));
    (table, server)
}

/// What a fresh process holds once set-up is done.
pub struct Ready {
    pub sys: Sys,
    pub gen: OpGen,
    pub setup_s: f64,
    pub rss_base: u64,
    /// NVM events of the preload, counted from the table's creation.
    pub preload_nvm: StatsSnapshot,
}

/// Builds inputs, reference and table for a run of `total_ops`
/// operations, setting up `setups` times and keeping the last.
pub fn get_ready(which: Which, seed: u64, total_ops: u64, obs_on: bool, setups: usize) -> Ready {
    let gen = OpGen::new(which, seed);
    let id_space = which.id_space(total_ops);
    let shadow = Shadow::preloaded(id_space, which.preload(), which.model());
    let reference = (which != Which::NetMixed)
        .then(|| Reference::new(id_space, which.preload(), which.model()));
    let rss_base = alloc::proc_status_bytes("VmRSS");

    // The library leaves obs off; `hdnh-cli serve` turns it on, so the
    // network workload runs with it on. Traced runs read its counters.
    hdnh_obs::set_enabled(obs_on);
    let mut times = Vec::with_capacity(setups);
    let (table, server) = loop {
        let t = Instant::now();
        let built = set_up(which);
        times.push(t.elapsed().as_secs_f64());
        if times.len() == setups {
            break built;
        }
        if let (_, Some(server)) = built {
            server.shutdown_and_join();
        }
    };
    // A resize during preload would have dropped a level and its counters.
    assert_eq!(
        table.resize_count(),
        0,
        "preload must fit the table it was sized for"
    );
    let preload_nvm = table.nvm_stats();
    let sys = match (reference, server) {
        (Some(reference), _) => Sys::Kv(Kv::new(table, shadow, reference)),
        (None, Some(server)) => Sys::Net(NetMixed::new(table, server, shadow)),
        (None, None) => unreachable!("the network workload starts a server"),
    };
    Ready {
        sys,
        gen,
        setup_s: median(&mut times),
        rss_base,
        preload_nvm,
    }
}

/// Reads every id the model covers straight from the table: live ids
/// must hold their current value, all others must be absent. Returns
/// `(checked, wrong)`.
pub fn sweep(table: &Hdnh, shadow: &Shadow) -> (u64, u64) {
    let mut wrong = (table.len() as u64 != shadow.live_bytes().0) as u64;
    for id in 0..shadow.ids() {
        let ok = match (table.get_bytes(&Key::from_u64(id as u64)), shadow.live(id)) {
            (Ok(Some(got)), Some(v)) => value_matches(&got, shadow.model.len(id, v), id, v),
            (Ok(None), None) => true,
            _ => false,
        };
        wrong += !ok as u64;
    }
    (shadow.ids() as u64 + 1, wrong)
}

pub fn total_ops(which: Which, seconds: f64) -> u64 {
    which.phases().iter().map(|p| scaled_ops(p, seconds)).sum()
}

/// The harness's own numbers: what the host did during the run.
pub fn harness_metrics(m: &Measured) -> Vec<(&'static str, f64)> {
    let measured_s = m.timing.hdnh_ns as f64 / 1e9;
    vec![
        ("harness.ops_per_s", m.ops as f64 / measured_s),
        (
            "harness.ref_ops_per_s",
            m.ops as f64 / (m.timing.ref_ns as f64 / 1e9),
        ),
        ("harness.window_cv", m.timing.window_cv()),
        ("harness.measured_s", measured_s),
    ]
}

pub fn run(args: &Args) -> Outcome {
    // Before any thread is spawned: they inherit the restriction.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = alloc::pin_to_one_cpu();
    let mut outcome = if args.trace {
        ladder::run(args)
    } else {
        untraced(args)
    };
    outcome
        .details
        .push("available_parallelism", Json::Num(cpus as f64));
    outcome.details.push(
        "pinned_to_cpu",
        pinned.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
    );
    outcome
}

fn untraced(args: &Args) -> Outcome {
    let which = args.which;
    let Ready {
        mut sys,
        mut gen,
        setup_s,
        rss_base,
        preload_nvm,
    } = get_ready(
        which,
        args.seed,
        total_ops(which, args.seconds),
        which == Which::NetMixed,
        SETUPS,
    );
    let m = sys.measure(&mut gen, which, args.seconds);

    let table = Arc::clone(sys.table());
    let (swept, wrong) = sweep(&table, sys.shadow());
    let (live_ids, live_bytes) = sys.shadow().live_bytes();

    // Whole-life NVM counts: the preload's inserts are operations too, so
    // the write-side counts are never zero on the read-only workloads.
    let counted_ops = (which.preload() as u64 + m.nvm_ops) as f64;
    let per_op = |preload: u64, measured: u64| (preload + measured) as f64 / counted_ops;
    let slots = table.len() as f64 / table.load_factor();
    let table_bytes = slots * (hdnh::params::BUCKET_BYTES / hdnh::params::SLOTS_PER_BUCKET) as f64;
    let dram =
        table.ocf_footprint_bytes() + table.hot_table().map_or(0, |hot| hot.footprint_bytes());
    let peak = alloc::proc_status_bytes("VmHWM").saturating_sub(rss_base);
    let metrics = vec![
        ("rel_speed", m.timing.rel_speed()),
        ("smooth_share", m.timing.smooth_share()),
        ("setup_s", setup_s),
        (
            "nvm_read_blocks_per_op",
            per_op(preload_nvm.read_blocks, m.nvm.read_blocks),
        ),
        (
            "nvm_write_lines_per_op",
            per_op(preload_nvm.write_lines, m.nvm.write_lines),
        ),
        (
            "nvm_flushes_per_op",
            per_op(preload_nvm.flushes, m.nvm.flushes),
        ),
        (
            "nvm_fences_per_op",
            per_op(preload_nvm.fences, m.nvm.fences),
        ),
        ("allocs_per_op", m.allocs as f64 / m.ops as f64),
        ("alloc_bytes_per_op", m.alloc_bytes as f64 / m.ops as f64),
        (
            "space_amp",
            (table_bytes + table.vlog_stats().used_bytes as f64) / live_bytes as f64,
        ),
        ("dram_bytes_per_key", dram as f64 / live_ids as f64),
        ("peak_rss_mb", peak as f64 / (1024.0 * 1024.0)),
    ];
    let details = details(args, &m, &[("swept_ids", swept as f64)]);
    Outcome {
        metrics,
        attempted: m.ops + swept,
        failed: m.failed + wrong,
        details,
    }
}

/// The line printed before the result: what ran, on what, how the host
/// behaved. Raw throughput lives here and in the per-layer metrics — it
/// drifts with the host, so no change is judged on it.
pub fn details(args: &Args, m: &Measured, extra: &[(&'static str, f64)]) -> Json {
    let mut harness = harness_metrics(m);
    harness.extend_from_slice(extra);
    harness.push(("resizes", m.resizes as f64));
    harness.push((
        "resize_stall_ms_total",
        m.resize_stall_ns_total as f64 / 1e6,
    ));
    harness.push(("gc_ms", m.gc_ns as f64 / 1e6));
    harness.push(("ops_in_counted_windows", m.nvm_ops as f64));
    Json::obj([
        ("workload", Json::str(args.which.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("ops", Json::Num(m.ops as f64)),
        ("config", Json::str(harness::CONFIG)),
        ("obs", Json::Bool(hdnh_obs::enabled())),
        (
            "threads",
            Json::str(if args.which == Which::NetMixed {
                "one client thread, one reactor loop, one echo thread that runs only while the loop is idle"
            } else {
                "one client thread"
            }),
        ),
        (
            "harness",
            Json::Obj(
                harness
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
    ])
}

/// The contract's result line. The outcome must hold exactly the
/// metrics `spec` lists for its kind of run, in order.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let listed: Vec<(&str, &str)> = if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert!(
        listed
            .iter()
            .map(|l| l.0)
            .eq(outcome.metrics.iter().map(|m| m.0)),
        "the run's metrics are not the spec's"
    );
    let rows = listed
        .iter()
        .zip(&outcome.metrics)
        .map(|(&(name, unit), &(_, value))| {
            let row = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name.to_string(), row)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(rows)),
    ])
    .line()
}
