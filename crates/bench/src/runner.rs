//! Workload execution: preload + timed multi-threaded op replay.
//!
//! Mirrors the paper's methodology (§4.1): keys/ops are generated before
//! timing; threads replay disjoint streams against one shared index; the
//! metric is aggregate throughput (and per-op latency when requested).

use std::sync::Barrier;
use std::time::Instant;

use hdnh_common::HashIndex;
use hdnh_ycsb::{generate_ops, KeySpace, Op, WorkloadSpec};

use hdnh_obs::hist::HistSnapshot;

/// Outcome of one timed run.
pub struct RunResult {
    /// Operations executed.
    pub ops: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Latency histogram (present when requested).
    pub hist: Option<HistSnapshot>,
}

impl RunResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }
}

/// Inserts ids `0..n` (values at version 0), in parallel.
pub fn preload(index: &dyn HashIndex, ks: &KeySpace, n: u64, threads: usize) {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let per = n.div_ceil(threads as u64);
                let (lo, hi) = (t * per, ((t + 1) * per).min(n));
                for id in lo..hi {
                    index
                        .insert(&ks.key(id), &ks.value(id, 0))
                        .expect("preload insert failed");
                }
            });
        }
    });
}

/// Executes one op against the index. Returns `true` if the outcome was
/// plausible (used by correctness-mode runs; benchmarks ignore it).
#[inline]
pub fn execute(index: &dyn HashIndex, ks: &KeySpace, op: &Op) -> bool {
    match op {
        Op::Read(id) => index.get(&ks.key(*id)).is_some(),
        Op::ReadAbsent(id) => index.get(&ks.negative_key(*id)).is_none(),
        Op::Insert(id) => index.insert(&ks.key(*id), &ks.value(*id, 0)).is_ok(),
        Op::Update(id, seq) => index.upsert(&ks.key(*id), &ks.value(*id, *seq)).is_ok(),
        Op::ReadModifyWrite(id, seq) => {
            let _ = index.get(&ks.key(*id));
            index.upsert(&ks.key(*id), &ks.value(*id, *seq)).is_ok()
        }
        Op::Delete(id) => index.remove(&ks.key(*id)),
    }
}

/// Replays per-thread op streams under timing.
pub fn run_streams(
    index: &dyn HashIndex,
    ks: &KeySpace,
    streams: &[Vec<Op>],
    record_latency: bool,
) -> RunResult {
    let threads = streams.len();
    let barrier = &Barrier::new(threads + 1);
    let total_ops: usize = streams.iter().map(Vec::len).sum();
    let mut hists: Vec<HistSnapshot> = Vec::new();
    let mut start = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<HistSnapshot>();
    std::thread::scope(|s| {
        for stream in streams {
            let tx = tx.clone();
            s.spawn(move || {
                let mut hist = record_latency.then(HistSnapshot::empty);
                barrier.wait();
                for op in stream {
                    if let Some(h) = hist.as_mut() {
                        let t0 = Instant::now();
                        execute(index, ks, op);
                        h.record(t0.elapsed().as_nanos() as u64);
                    } else {
                        execute(index, ks, op);
                    }
                }
                if let Some(h) = hist {
                    let _ = tx.send(h);
                }
            });
        }
        drop(tx);
        // Timer starts *before* releasing the barrier: if it started after,
        // a descheduled main thread could time a fraction of the run. The
        // barrier wake-up cost (~µs) is noise at benchmark durations.
        start = Instant::now();
        barrier.wait();
        // The scope joins all workers on exit; drain histograms meanwhile.
        if record_latency {
            while let Ok(h) = rx.recv() {
                hists.push(h);
            }
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let hist = record_latency.then(|| {
        let mut merged = HistSnapshot::empty();
        for h in &hists {
            merged.merge(h);
        }
        merged
    });
    RunResult {
        ops: total_ops,
        secs,
        hist,
    }
}

/// Convenience: generate disjoint per-thread streams for `spec` and run.
///
/// Each thread gets `ops_per_thread` operations; inserts take ids from
/// disjoint ranges above `preloaded`.
#[allow(clippy::too_many_arguments)] // flat knob list mirrors the bench CLI
pub fn run_workload(
    index: &dyn HashIndex,
    ks: &KeySpace,
    spec: &WorkloadSpec,
    preloaded: u64,
    ops_per_thread: usize,
    threads: usize,
    seed: u64,
    record_latency: bool,
) -> RunResult {
    let streams: Vec<Vec<Op>> = (0..threads as u64)
        .map(|t| {
            generate_ops(
                spec,
                preloaded,
                preloaded + t * ops_per_thread as u64,
                ops_per_thread,
                seed ^ (t.wrapping_mul(0x9E37_79B9)),
            )
        })
        .collect();
    run_streams(index, ks, &streams, record_latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh::{Hdnh, HdnhParams};
    use hdnh_ycsb::Mix;

    #[test]
    fn preload_then_read_workload() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(4)
        .build()
        .unwrap());
        let ks = KeySpace::default();
        preload(&t, &ks, 2_000, 2);
        assert_eq!(t.len(), 2_000);
        let r = run_workload(
            &t,
            &ks,
            &WorkloadSpec::search_only(Mix::Uniform),
            2_000,
            1_000,
            2,
            7,
            false,
        );
        assert_eq!(r.ops, 2_000);
        assert!(r.secs > 0.0);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn insert_workload_grows_table() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(4)
        .build()
        .unwrap());
        let ks = KeySpace::default();
        let r = run_workload(&t, &ks, &WorkloadSpec::insert_only(), 0, 500, 4, 3, false);
        assert_eq!(r.ops, 2_000);
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn latency_capture_produces_histogram() {
        let t = Hdnh::new(HdnhParams::default());
        let ks = KeySpace::default();
        preload(&t, &ks, 500, 1);
        let r = run_workload(
            &t,
            &ks,
            &WorkloadSpec::ycsb_a(),
            500,
            500,
            2,
            1,
            true,
        );
        let h = r.hist.expect("histogram requested");
        assert_eq!(h.count(), 1_000);
        assert!(h.quantile(0.5) > 0);
    }

    #[test]
    fn execute_validates_op_outcomes() {
        let t = Hdnh::new(HdnhParams::default());
        let ks = KeySpace::default();
        assert!(execute(&t, &ks, &Op::Insert(1)));
        assert!(execute(&t, &ks, &Op::Read(1)));
        assert!(execute(&t, &ks, &Op::ReadAbsent(1)));
        assert!(execute(&t, &ks, &Op::Update(1, 1)));
        assert!(execute(&t, &ks, &Op::ReadModifyWrite(1, 2)));
        assert!(execute(&t, &ks, &Op::Delete(1)));
        assert!(!execute(&t, &ks, &Op::Read(1)), "deleted key still readable");
    }
}
