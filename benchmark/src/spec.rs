//! The benchmark's contract as data: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`benchmark -- spec`), and `run` prints exactly these names, so the two
//! cannot drift apart; a test compares them.

use crate::json::Json;

/// Seconds of HDNH work one run is sized for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "kv-read-skew",
        why: "zipfian 0.99 reads whose working set fits the hot table: hot does the work, ocf/nvtable little; spilled ids still pay a log read",
    },
    WorkloadSpec {
        name: "kv-read-uniform",
        why: "uniform reads over 4x the hot table plus 10% absent keys: ocf probe, nvtable read, vlog read do the work; the hot-tier bypass",
    },
    WorkloadSpec {
        name: "kv-write-grow",
        why: "40% insert, 30% upsert, 25% get, 5% remove from a small table: flush/fence cost, double probe, log append, GC and resize stalls",
    },
    WorkloadSpec {
        name: "net-mixed",
        why: "90% GET / 10% SET over loopback RESP at depth 16 then 1: codec, reactor and socket dominate; a table-only change should not move it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds for the metrics that repeat exactly for a fixed seed: they only
/// have to cover what a change of seed does. For allocations, space and
/// DRAM that is a tenth of a percent.
const COUNT: f64 = 0.01;
/// The NVM counts move more between seeds: by half a percent on
/// `net-mixed` (the share of SETs) and by up to two percent on
/// `kv-write-grow`, where the seed decides which removes free which
/// slots, so when each resize strikes and how long the hot table stays
/// cold after it.
const NVM_COUNT: f64 = 0.03;

const fn gate(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    // The two timed ratios are bounded by what was measured, not by what
    // was hoped for: over ten runs of one binary `rel_speed` spread by up
    // to 8.3 % (kv-read-skew) and `smooth_share` by up to 4.4 %
    // (kv-write-grow, where it is the share of time not spent compacting).
    // A bound the benchmark itself can exceed would reject good changes.
    gate("rel_speed", "ratio", true, 0.20),
    gate("smooth_share", "ratio", true, 0.10),
    gate("setup_s", "s", false, 0.25),
    gate("nvm_read_blocks_per_op", "blocks/op", false, NVM_COUNT),
    gate("nvm_write_lines_per_op", "lines/op", false, NVM_COUNT),
    gate("nvm_flushes_per_op", "flushes/op", false, NVM_COUNT),
    gate("nvm_fences_per_op", "fences/op", false, NVM_COUNT),
    gate("allocs_per_op", "allocs/op", false, COUNT),
    gate("alloc_bytes_per_op", "B/op", false, COUNT),
    gate("space_amp", "ratio", false, COUNT),
    gate("dram_bytes_per_key", "B/key", false, COUNT),
    gate("peak_rss_mb", "MiB", false, 0.05),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    lower("common.hash_ns", "ns"),
    lower("ocf.probe_ns", "ns"),
    lower("ocf.false_positive_rate", "ratio"),
    higher("ocf.negative_short_circuit_rate", "ratio"),
    lower("hot.search_ns", "ns"),
    lower("hot.put_ns", "ns"),
    higher("hot.hit_rate", "ratio"),
    lower("hot.evictions_per_op", "evictions/op"),
    lower("nvtable.read_record_ns", "ns"),
    lower("nvtable.write_record_ns", "ns"),
    lower("nvm.reads_per_op", "reads/op"),
    lower("nvm.read_bytes_per_op", "B/op"),
    lower("nvm.writes_per_op", "writes/op"),
    lower("nvm.write_bytes_per_op", "B/op"),
    lower("vlog.append_ns", "ns"),
    lower("vlog.read_ns", "ns"),
    lower("vlog.reads_per_op", "reads/op"),
    lower("vlog.appends_per_op", "appends/op"),
    lower("vlog.gc_ms", "ms"),
    higher("vlog.gc_bytes_reclaimed", "B"),
    lower("vlog.garbage_ratio_end", "ratio"),
    lower("table.get_ns", "ns"),
    lower("table.get_dram_ns", "ns"),
    lower("table.get_nvm_ns", "ns"),
    lower("table.get_absent_ns", "ns"),
    lower("table.upsert_ns", "ns"),
    lower("table.remove_ns", "ns"),
    lower("table.get_self_ns", "ns"),
    lower("table.seqlock_retries_per_op", "retries/op"),
    lower("table.resize_count", "count"),
    lower("table.resize_stall_ms_max", "ms"),
    lower("table.resize_stall_ms_total", "ms"),
    higher("table.load_factor_end", "ratio"),
    lower("resp.decode_ns", "ns"),
    lower("resp.encode_ns", "ns"),
    lower("reactor.conn_ns", "ns"),
    lower("reactor.conn_self_ns", "ns"),
    lower("reactor.engine_ns", "ns"),
    lower("reactor.bytes_in_per_req", "B/req"),
    lower("reactor.bytes_out_per_req", "B/req"),
    lower("net.batch_p50_us", "us"),
    lower("net.rtt_p50_us", "us"),
    lower("net.rtt_p99_us", "us"),
    lower("net.echo_rtt_p50_us", "us"),
    lower("net.socket_ns_per_op", "ns"),
    higher("harness.ops_per_s", "1/s"),
    higher("harness.ref_ops_per_s", "1/s"),
    lower("harness.window_cv", "ratio"),
    lower("harness.measured_s", "s"),
    lower("harness.trace_overhead", "ratio"),
];

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let doc = Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark -- spec`"
        );
        let doc = Json::parse(&committed).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }
}
