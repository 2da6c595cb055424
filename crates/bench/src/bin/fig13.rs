//! Figure 13: single-thread throughput of PATH, LEVEL, CCEH and HDNH on
//! four microbenchmarks — insert, positive search, negative search, delete.
//!
//! Methodology mirrors §4.1 at reduced scale: preload 1/10 of the keys,
//! then run the op stream (the paper preloads 20 M and runs 180 M; the
//! 1:9 ratio is preserved).

use hdnh_bench::report::{banner, expectation, mops, Table};
use hdnh_bench::runner::{preload, run_workload};
use hdnh_bench::schemes::{bench_nvm, build, Scheme};
use hdnh_bench::scaled;
use hdnh_ycsb::{KeySpace, Mix, WorkloadSpec};

fn main() {
    let preloaded = scaled(20_000) as u64;
    let ops = scaled(180_000);
    banner(
        "fig13",
        "single-thread performance (insert / pos. search / neg. search / delete)",
        &format!("preload {preloaded}, then {ops} ops of each kind"),
    );

    let ks = KeySpace::default();
    let mut table = Table::new(&["scheme", "insert", "pos search", "neg search", "delete"]);
    for scheme in Scheme::paper_set() {
        // Insert: preload then insert `ops` new records.
        let idx = build(scheme, (preloaded as usize) + ops, bench_nvm());
        preload(idx.as_ref(), &ks, preloaded, 2);
        let r_ins = run_workload(
            idx.as_ref(),
            &ks,
            &WorkloadSpec::insert_only(),
            preloaded,
            ops,
            1,
            41,
            false,
        );

        // Search/delete: preload the full dataset, then run each op kind.
        let full = preloaded + ops as u64;
        let idx = build(scheme, full as usize, bench_nvm());
        preload(idx.as_ref(), &ks, full, 2);
        let r_pos = run_workload(
            idx.as_ref(),
            &ks,
            &WorkloadSpec::search_only(Mix::Uniform),
            full,
            ops,
            1,
            42,
            false,
        );
        let r_neg = run_workload(
            idx.as_ref(),
            &ks,
            &WorkloadSpec::negative_search_only(),
            full,
            ops,
            1,
            43,
            false,
        );
        let r_del = run_workload(
            idx.as_ref(),
            &ks,
            &WorkloadSpec::delete_only(),
            full,
            ops,
            1,
            44,
            false,
        );

        table.row(vec![
            scheme.name().to_string(),
            mops(r_ins.mops()),
            mops(r_pos.mops()),
            mops(r_neg.mops()),
            mops(r_del.mops()),
        ]);
    }
    table.print();
    expectation(
        "HDNH wins every column; paper ratios vs CCEH/LEVEL: insert \
         1.9x/3.7x, positive search 1.57x/4.33x, negative search 2.2x/5.6x, \
         delete 1.7x/2.9x; PATH trails throughout",
    );
}
