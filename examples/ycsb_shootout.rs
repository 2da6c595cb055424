//! YCSB shootout: run the standard YCSB mixes (A, B, C, F) against all
//! four schemes and print a throughput matrix — a miniature of the paper's
//! evaluation you can rerun in seconds.
//!
//! ```text
//! cargo run --release --example ycsb_shootout [records] [ops] [threads]
//! ```

use hdnh_bench::runner::{preload, run_workload};
use hdnh_bench::schemes::{bench_nvm, build, Scheme};
use hdnh_ycsb::{KeySpace, WorkloadSpec};

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let total_ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    let ks = KeySpace::default();
    let mixes: [(&str, WorkloadSpec); 4] = [
        ("YCSB-A (50r/50u)", WorkloadSpec::ycsb_a()),
        ("YCSB-B (95r/5u)", WorkloadSpec::ycsb_b()),
        ("YCSB-C (100r)", WorkloadSpec::ycsb_c()),
        ("YCSB-F (50r/50rmw)", WorkloadSpec::ycsb_f()),
    ];

    println!("YCSB shootout: {records} records, {total_ops} ops, {threads} threads (Mops/s)");
    let mut header = format!("{:<20}", "workload");
    for scheme in Scheme::paper_set() {
        header.push_str(&format!(" {:>8}", scheme.name()));
    }
    println!("{header}");
    for (name, spec) in &mixes {
        let mut row = format!("{name:<20}");
        for scheme in Scheme::paper_set() {
            // Fresh table + preload per cell so mixes don't contaminate
            // each other.
            let index = build(scheme, records, bench_nvm());
            preload(index.as_ref(), &ks, records as u64, threads);
            let r = run_workload(
                index.as_ref(),
                &ks,
                spec,
                records as u64,
                total_ops / threads,
                threads,
                0xABC,
                false,
            );
            row.push_str(&format!(" {:>8.3}", r.mops()));
        }
        println!("{row}");
    }
    println!("\nExpected: HDNH dominates the read-dominant rows (B, C) through the");
    println!("hot table; on update-heavy A/F it gives some of that back because its");
    println!("updates are out-of-place and crash-consistent (two persists + atomic");
    println!("bitmap swap) while the baselines overwrite in place without failure");
    println!("atomicity. The paper evaluates YCSB-A for tail latency (fig 15), not");
    println!("throughput — run fig15 to see where HDNH's concurrency design wins.");
}
