//! Figure 12: single-thread search throughput vs zipfian exponent `s`
//! (0.5 → 1.22) for LEVEL, CCEH, HDNH(RAFL) and HDNH(LRU).
//!
//! The skew axis is where the hot table earns its keep: LEVEL and CCEH are
//! oblivious to skew, while HDNH's throughput climbs as the hot set shrinks
//! into DRAM. RAFL-vs-LRU isolates the replacement policy's hit-path
//! overhead (a relaxed `fetch_or` vs a lock + list move per hit).

use hdnh_bench::report::{banner, expectation, mops, Table};
use hdnh_bench::runner::{preload, run_workload};
use hdnh_bench::schemes::{bench_nvm, build, Scheme};
use hdnh_bench::scaled;
use hdnh_ycsb::{KeySpace, Mix, WorkloadSpec};

fn main() {
    let preloaded = scaled(100_000) as u64;
    let ops = scaled(150_000);
    banner(
        "fig12",
        "search throughput vs access skewness (single thread)",
        &format!("{preloaded} records preloaded; {ops} scrambled-zipfian searches per point"),
    );

    let schemes = [Scheme::Level, Scheme::Cceh, Scheme::HdnhLru, Scheme::Hdnh];
    let ks = KeySpace::default();
    let mut table = Table::new(&["s", "LEVEL", "CCEH", "HDNH(LRU)", "HDNH(RAFL)"]);
    for s in [0.5, 0.7, 0.9, 0.99, 1.1, 1.22] {
        let mut row = vec![format!("{s:.2}")];
        for scheme in schemes {
            let idx = build(scheme, preloaded as usize, bench_nvm());
            preload(idx.as_ref(), &ks, preloaded, 2);
            let r = run_workload(
                idx.as_ref(),
                &ks,
                &WorkloadSpec::search_only(Mix::ScrambledZipfian { s }),
                preloaded,
                ops,
                1,
                31,
                false,
            );
            row.push(mops(r.mops()));
        }
        table.row(row);
    }
    table.print();
    expectation(
        "LEVEL/CCEH stay nearly flat across s; both HDNH variants climb \
         steeply with skew; RAFL beats LRU once s ≥ 0.9 (paper: 1.23x at \
         s=0.99, 1.4x at s=1.22)",
    );
}
