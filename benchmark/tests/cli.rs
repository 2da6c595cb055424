//! The command line, run as the benchmark's consumer runs it: fresh
//! processes of the real binary (one process runs one workload — the
//! allocator switch and the obs, epoch and fault registries are global).

use std::process::Command;

use hdnh_benchmark::json::Json;
use hdnh_benchmark::spec::{END_TO_END, PER_LAYER};

/// A run short enough for a debug build, long enough to resize and to
/// compact.
const SECONDS: &str = "0.4";

struct Run {
    exit_ok: bool,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            SECONDS,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    Run {
        exit_ok: out.status.success(),
        result,
    }
}

fn value(run: &Run, metric: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|row| row.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {metric}"))
}

fn verified(run: &Run) {
    assert!(run.exit_ok);
    assert_eq!(run.result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(run.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
}

/// Metric names and units of a result line, in order.
fn printed(run: &Run) -> Vec<(String, String)> {
    let Some(Json::Obj(rows)) = run.result.get("metrics") else {
        panic!("no metrics object");
    };
    rows.iter()
        .map(|(name, row)| {
            (
                name.clone(),
                row.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn same_seed_repeats_every_count_and_another_seed_still_verifies() {
    let first = run("kv-write-grow", 3, false);
    let again = run("kv-write-grow", 3, false);
    let other = run("kv-write-grow", 4, false);
    for r in [&first, &again, &other] {
        verified(r);
    }
    let exact = [
        "nvm_read_blocks_per_op",
        "nvm_write_lines_per_op",
        "nvm_flushes_per_op",
        "nvm_fences_per_op",
        "allocs_per_op",
        "alloc_bytes_per_op",
        "space_amp",
        "dram_bytes_per_key",
    ];
    for metric in exact {
        assert_eq!(value(&first, metric), value(&again, metric), "{metric}");
        assert!(value(&first, metric) > 0.0, "{metric}");
    }
    // The seed reaches the operations: another seed, other counts.
    assert_ne!(
        value(&first, "nvm_read_blocks_per_op"),
        value(&other, "nvm_read_blocks_per_op")
    );
}

#[test]
fn run_prints_exactly_the_metrics_benchmark_json_names() {
    let untraced = run("kv-write-grow", 1, false);
    verified(&untraced);
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(printed(&untraced), want);

    let traced = run("kv-write-grow", 1, true);
    verified(&traced);
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(printed(&traced), want);
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-kv-write-grow.json");
    let spans =
        Json::parse(&std::fs::read_to_string(file).expect("trace file")).expect("valid JSON");
    assert!(!spans
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans")
        .is_empty());
}

#[test]
fn the_network_workload_verifies_every_reply() {
    verified(&run("net-mixed", 2, false));
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .expect("spawn the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
