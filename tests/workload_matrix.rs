//! Workload matrix: every YCSB preset × every scheme × several thread
//! counts, with spot value validation. This is the harness-level smoke
//! net: if any scheme mishandles a mix (e.g. upsert semantics, negative
//! reads, rmw), it fails here before it can corrupt a benchmark.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hdnh_bench::schemes::{build, Scheme};
use hdnh_common::HashIndex;
use hdnh_nvm::NvmOptions;
use hdnh_ycsb::{execute, generate_ops, KeySpace, Mix, Op, WorkloadSpec};

const PRELOAD: u64 = 2_000;
const OPS_PER_THREAD: usize = 2_500;

fn schemes() -> Vec<Box<dyn HashIndex>> {
    let capacity = PRELOAD as usize + 4 * OPS_PER_THREAD;
    Scheme::paper_set()
        .map(|s| build(s, capacity, NvmOptions::fast()))
        .into()
}

fn mixes() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("A", WorkloadSpec::ycsb_a()),
        ("B", WorkloadSpec::ycsb_b()),
        ("C", WorkloadSpec::ycsb_c()),
        ("F", WorkloadSpec::ycsb_f()),
        ("insert", WorkloadSpec::insert_only()),
        ("neg", WorkloadSpec::negative_search_only()),
        ("mix50", WorkloadSpec::mixed_insert_search()),
        ("latest", WorkloadSpec::search_only(Mix::Latest { s: 0.99 })),
    ]
}

/// Executes a stream, validating what can be validated without per-key
/// version tracking: a negative read finds nothing, and every other read
/// returns a canonical value for its id.
fn run_stream(idx: &dyn HashIndex, ks: &KeySpace, ops: &[Op], violations: &AtomicUsize) {
    for op in ops {
        let valid = match (op, execute(idx, ks, op)) {
            (Op::ReadAbsent(_), read) => read.is_none(),
            (Op::Read(id) | Op::ReadModifyWrite(id, _), Some(v)) => ks.validate(*id, &v).is_some(),
            _ => true,
        };
        if !valid {
            violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn every_mix_on_every_scheme_single_thread() {
    let ks = KeySpace::default();
    for idx in schemes() {
        for id in 0..PRELOAD {
            idx.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
        }
        for (name, spec) in mixes() {
            let ops = generate_ops(&spec, PRELOAD, PRELOAD + 100_000, OPS_PER_THREAD, 0xA11);
            let violations = AtomicUsize::new(0);
            run_stream(idx.as_ref(), &ks, &ops, &violations);
            assert_eq!(
                violations.load(Ordering::Relaxed),
                0,
                "{} failed mix {name}",
                idx.scheme_name()
            );
        }
    }
}

#[test]
fn ycsb_a_on_every_scheme_multithreaded() {
    let ks = KeySpace::default();
    for idx in schemes() {
        let idx: Arc<Box<dyn HashIndex>> = Arc::new(idx);
        for id in 0..PRELOAD {
            idx.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
        }
        let violations = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let idx = Arc::clone(&idx);
                let violations = Arc::clone(&violations);
                s.spawn(move || {
                    // Note: concurrent upserts of the same id make strict
                    // version checks impossible; validation only checks that
                    // values are *canonical for their id* (torn/foreign
                    // detection), which must hold under any interleaving.
                    let ops = generate_ops(
                        &WorkloadSpec::ycsb_a(),
                        PRELOAD,
                        PRELOAD + t * OPS_PER_THREAD as u64,
                        OPS_PER_THREAD,
                        0xB22 ^ t,
                    );
                    run_stream(idx.as_ref().as_ref(), &ks, &ops, &violations);
                });
            }
        });
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "{} returned non-canonical values under concurrency",
            idx.scheme_name()
        );
    }
}

#[test]
fn insert_heavy_mix_drives_growth_on_dynamic_schemes() {
    let ks = KeySpace::default();
    for idx in schemes() {
        if idx.scheme_name() == "PATH" {
            continue; // static
        }
        let before = idx.len();
        let ops = generate_ops(
            &WorkloadSpec::insert_only(),
            1,
            10_000_000,
            4 * OPS_PER_THREAD,
            7,
        );
        let violations = AtomicUsize::new(0);
        run_stream(idx.as_ref(), &ks, &ops, &violations);
        assert_eq!(idx.len(), before + 4 * OPS_PER_THREAD, "{}", idx.scheme_name());
    }
}
