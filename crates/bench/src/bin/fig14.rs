//! Figure 14: throughput vs thread count (1 → 16) for three workloads —
//! (a) 100 % insert, (b) 100 % search, (c) 50 % insert + 50 % search.
//!
//! This is the concurrency-control comparison: HDNH's per-slot optimistic
//! scheme against CCEH's NVM-resident segment locks, LEVEL's bucket locks
//! and PATH's global lock. Note: thread counts beyond the machine's cores
//! measure oversubscribed behaviour (the host the paper used had 32 cores);
//! the cross-scheme ordering is what the figure checks.

use hdnh_bench::report::{banner, expectation, mops, Table};
use hdnh_bench::runner::{preload, run_workload};
use hdnh_bench::schemes::{bench_nvm, build, Scheme};
use hdnh_bench::{max_threads, scaled};
use hdnh_ycsb::{KeySpace, Mix, WorkloadSpec};

fn main() {
    let preloaded = scaled(50_000) as u64;
    let total_ops = scaled(120_000);
    banner(
        "fig14",
        "concurrent throughput, 1..16 threads",
        &format!(
            "preload {preloaded}; {total_ops} total ops split across threads; \
             workloads: 100% insert / 100% search / 50-50 mix"
        ),
    );

    let threads_axis: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= max_threads())
        .collect();

    let workloads: [(&str, WorkloadSpec); 3] = [
        ("(a) 100% insert", WorkloadSpec::insert_only()),
        ("(b) 100% search", WorkloadSpec::search_only(Mix::Uniform)),
        ("(c) 50% insert + 50% search", WorkloadSpec::mixed_insert_search()),
    ];

    let ks = KeySpace::default();
    for (label, spec) in workloads {
        if !hdnh_bench::report::csv() {
            println!("\n  {label}");
        }
        let mut table = Table::new(&["threads", "PATH", "LEVEL", "CCEH", "HDNH"]);
        for &threads in &threads_axis {
            let ops_per_thread = total_ops / threads;
            let mut row = vec![threads.to_string()];
            for scheme in Scheme::paper_set() {
                let capacity = preloaded as usize + total_ops;
                let idx = build(scheme, capacity, bench_nvm());
                preload(idx.as_ref(), &ks, preloaded, 2);
                let r = run_workload(
                    idx.as_ref(),
                    &ks,
                    &spec,
                    preloaded,
                    ops_per_thread,
                    threads,
                    51,
                    false,
                );
                row.push(mops(r.mops()));
            }
            table.row(row);
        }
        table.print();
    }
    expectation(
        "HDNH scales best and wins at every thread count (paper: up to \
         1.6-6.9x on inserts, 1.9x/4.4x vs CCEH/LEVEL on search, 1.4x/4.3x \
         on the mix); PATH/LEVEL flatten earliest (coarse locks), CCEH \
         suffers from NVM lock traffic",
    );
}
