//! Table 1: HDNH recovery time (OCF rebuild / hot-table rebuild / total)
//! after a crash, across data sizes.
//!
//! The paper preloads 2 M / 20 M / 200 M records, powers off, and times
//! single-node recovery. We preload at 1/100 of those sizes by default
//! (scale with `HDNH_SCALE`), drop the DRAM structures via `into_pool`
//! (the power-off: only NVM survives), and time the real multi-threaded
//! rebuild scan. Crash-*consistency* (torn state) is exercised separately
//! by the strict-mode test suite; the timing here is the same either way.
//!
//! Every column is the caller's clock around one whole [`Hdnh::recover`]
//! call, from entry to a table ready to serve; recovery itself runs one
//! scan and has no timing mode. The same pool is recovered twice: with the
//! hot table off ("OCF ms": the scan fills the OCF alone), then — after
//! `into_pool` again — with it on ("HDNH total ms"). The hot table's share
//! is the difference.

use std::time::Instant;

use hdnh::{Hdnh, HdnhParams, PersistentPool};
use hdnh_bench::report::{banner, expectation, Table};
use hdnh_bench::runner::preload;
use hdnh_bench::scaled;
use hdnh_bench::schemes::hdnh_params;
use hdnh_ycsb::KeySpace;

/// Recovers `pool`, asserting that no record was lost; returns the table
/// and the call's wall time in milliseconds.
fn timed_recover(
    params: HdnhParams,
    pool: PersistentPool,
    threads: usize,
    n: usize,
) -> (Hdnh, f64) {
    let t0 = Instant::now();
    let table = Hdnh::recover(params, pool, threads);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(table.len(), n, "recovery lost records");
    (table, ms)
}

/// A table of `n` preloaded records, built without the latency model:
/// recovery scans are not about media latency (sequential, batched), so
/// the numbers isolate scan work.
fn preloaded(ks: &KeySpace, n: usize, threads: usize) -> (HdnhParams, PersistentPool) {
    let params = HdnhParams {
        nvm: hdnh_nvm::NvmOptions::fast(),
        ..hdnh_params(n)
    };
    let t = Hdnh::new(params.clone());
    preload(&t, ks, n as u64, threads);
    (params, t.into_pool())
}

fn main() {
    let sizes = [scaled(20_000), scaled(200_000), scaled(2_000_000)];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    banner(
        "table1",
        "recovery time vs data size",
        &format!(
            "sizes {sizes:?} (paper: 2M/20M/200M); power-off modeled by \
             dropping DRAM state, then recovery with {threads} scan threads"
        ),
    );

    let ks = KeySpace::default();
    let mut table = Table::new(&["data size", "OCF ms", "hot table ms", "HDNH total ms"]);
    for &n in &sizes {
        let (params, pool) = preloaded(&ks, n, threads);
        let ocf_only = HdnhParams {
            enable_hot_table: false,
            ..params.clone()
        };
        let (recovered, ocf_ms) = timed_recover(ocf_only, pool, threads, n);
        let (_, total_ms) = timed_recover(params, recovered.into_pool(), threads, n);
        table.row(vec![
            n.to_string(),
            format!("{ocf_ms:.1}"),
            format!("{:.1}", total_ms - ocf_ms),
            format!("{total_ms:.1}"),
        ]);
    }
    table.print();
    expectation(
        "recovery time grows ~linearly with data size and stays far below \
         the workload's execution time (paper: 8.3ms at 2M, 60.5ms at 20M, \
         435.1ms at 200M); hot-table rebuild dominates at scale",
    );

    // Extension: the paper's recovery is multi-threaded ("divide buckets
    // into independent batches"); sweep the scan-thread count at the middle
    // size to show the parallel speedup.
    let n = sizes[1];
    if !hdnh_bench::report::csv() {
        println!("\n  recovery scan-thread sweep at {n} records:");
    }
    let mut sweep = Table::new(&["threads", "HDNH total ms"]);
    for t in [1usize, 2, 4] {
        let (params, pool) = preloaded(&ks, n, threads);
        let (_, ms) = timed_recover(params, pool, t, n);
        sweep.row(vec![t.to_string(), format!("{ms:.1}")]);
    }
    sweep.print();
    expectation("more scan threads shorten recovery until the core count caps it");
}
