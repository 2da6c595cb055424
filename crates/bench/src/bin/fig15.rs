//! Figure 15: tail-latency CDF under YCSB-A (50 % read / 50 % update,
//! zipfian 0.99) at 16 threads, for LEVEL, CCEH and HDNH.
//!
//! High-contention case: skewed updates hammer the hot keys, so lock
//! granularity decides the tail. Prints the quantile table and a CDF series
//! per scheme (plot latency on the x axis, cumulative fraction on y).

use hdnh_bench::report::{banner, csv, expectation, Table};
use hdnh_bench::runner::{preload, run_workload};
use hdnh_bench::schemes::{bench_nvm, build, Scheme};
use hdnh_bench::{max_threads, scaled};
use hdnh_ycsb::{KeySpace, WorkloadSpec};

fn main() {
    let preloaded = scaled(50_000) as u64;
    let threads = 16.min(max_threads());
    let ops_per_thread = scaled(120_000) / threads;
    banner(
        "fig15",
        "tail latency CDF, YCSB-A, 16 threads",
        &format!("preload {preloaded}; {threads} threads x {ops_per_thread} ops; per-op latency recorded"),
    );

    let ks = KeySpace::default();
    let schemes = [Scheme::Level, Scheme::Cceh, Scheme::Hdnh];
    let mut quants = Table::new(&["scheme", "p50 us", "p90 us", "p99 us", "p99.9 us", "max us"]);
    let mut cdfs = Vec::new();
    for scheme in schemes {
        let idx = build(scheme, preloaded as usize, bench_nvm());
        preload(idx.as_ref(), &ks, preloaded, 2);
        let r = run_workload(
            idx.as_ref(),
            &ks,
            &WorkloadSpec::ycsb_a(),
            preloaded,
            ops_per_thread,
            threads,
            61,
            true,
        );
        let h = r.hist.expect("latency requested");
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
        quants.row(vec![
            scheme.name().to_string(),
            us(h.quantile(0.5)),
            us(h.quantile(0.9)),
            us(h.quantile(0.99)),
            us(h.quantile(0.999)),
            us(h.max()),
        ]);
        cdfs.push((scheme.name(), h));
    }
    quants.print();

    if csv() {
        println!("scheme,latency_ns,cum_fraction");
    } else {
        println!("\n  CDF samples (latency_us cum_fraction), decimated:");
    }
    for (name, h) in &cdfs {
        let cdf = h.cdf();
        let step = (cdf.len() / 24).max(1);
        if !csv() {
            print!("  {name:>6}:");
        }
        for (i, (ns, f)) in cdf.iter().enumerate() {
            if i % step != 0 && *f < 0.999 {
                continue;
            }
            if csv() {
                println!("{name},{ns},{f:.5}");
            } else {
                print!(" {:.0}us@{:.0}%", *ns as f64 / 1000.0, f * 100.0);
            }
        }
        if !csv() {
            println!();
        }
    }
    expectation(
        "HDNH has the shortest tail; paper maxima: HDNH 19.2ms vs CCEH \
         56.8ms (2.96x) vs LEVEL 93.3ms (4.86x) — coarse locks under \
         contention stretch the CDF's tail right",
    );
}
