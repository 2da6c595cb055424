//! The measured loop and its estimators.
//!
//! A run is a closed loop with one client: a window of operations goes to
//! HDNH in timing units (64 operations in-process, one pipelined batch
//! over the network), then the same window goes to the reference kernel.
//! Operation counts are fixed by `--seed` and `--seconds`, never by the
//! clock, so every count repeats exactly; speed is reported as the ratio
//! of the two sides, which cancels most of what the shared host does to
//! raw throughput.

use std::sync::Arc;
use std::time::Instant;

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::Key;
use hdnh_nvm::StatsSnapshot;

use crate::alloc;
use crate::workload::{fill_value, scaled_ops, Op, OpGen, Which, MAX_VALUE};

/// A timing unit that takes this long or longer is a stall.
pub const SMOOTH_NS: u64 = 1_000_000;

/// The table a workload runs on, with the reference kernel beside it.
pub trait System {
    /// Untimed work the next window needs (the network side encodes its
    /// requests and expected replies here).
    fn prepare(&mut self, _ops: &[Op]) {}
    /// Runs `ops[at..at + len]` against HDNH, checks every reply against
    /// the shadow model, and returns how many were wrong.
    fn hdnh_unit(&mut self, ops: &[Op], at: usize, len: usize) -> u64;
    /// Runs the same operations against the reference kernel.
    fn ref_unit(&mut self, ops: &[Op], at: usize, len: usize);
    fn table(&self) -> &Arc<Hdnh>;
}

/// One window: the same operations on both sides.
#[derive(Clone, Copy)]
pub struct Window {
    pub hdnh_ns: u64,
    pub ref_ns: u64,
    pub ops: usize,
    /// A later phase has another timing unit and another cost per
    /// operation; spreads are taken over the first phase only.
    pub first_phase: bool,
}

/// Window and unit timings of one run, and the estimators over them.
#[derive(Default)]
pub struct Timing {
    pub hdnh_ns: u64,
    pub ref_ns: u64,
    /// HDNH time spent in units shorter than [`SMOOTH_NS`].
    pub smooth_ns: u64,
    pub windows: Vec<Window>,
}

impl Timing {
    pub fn unit(&mut self, ns: u64) {
        self.hdnh_ns += ns;
        if ns < SMOOTH_NS {
            self.smooth_ns += ns;
        }
    }

    pub fn window(&mut self, window: Window) {
        self.ref_ns += window.ref_ns;
        self.windows.push(window);
    }

    /// Reference time over HDNH time: 1.0 means HDNH is as fast as the
    /// reference kernel, 0.5 half as fast.
    pub fn rel_speed(&self) -> f64 {
        self.ref_ns as f64 / self.hdnh_ns as f64
    }

    /// Share of HDNH time spent in units that were not stalls.
    pub fn smooth_share(&self) -> f64 {
        self.smooth_ns as f64 / self.hdnh_ns as f64
    }

    /// Spread of HDNH ns/op across the first phase's windows (standard
    /// deviation over mean): how unsteady the host, or the workload, was
    /// during the run.
    pub fn window_cv(&self) -> f64 {
        let w: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.first_phase)
            .map(|w| w.hdnh_ns as f64 / w.ops as f64)
            .collect();
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        let var = w.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / w.len() as f64;
        var.sqrt() / mean
    }
}

/// Everything one pass over a workload's operations yields.
#[derive(Default)]
pub struct Measured {
    pub timing: Timing,
    pub ops: u64,
    pub failed: u64,
    /// NVM events in windows during which no region was freed, and the
    /// operations of those windows. `Hdnh::nvm_stats` sums the live
    /// regions only: the counters of a level dropped by a resize, or of a
    /// log segment retired by a compaction, go with it, so a window that
    /// spans one cannot be counted.
    pub nvm: StatsSnapshot,
    pub nvm_ops: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub resizes: u64,
    pub resize_stall_ns_max: u64,
    pub resize_stall_ns_total: u64,
    pub gc_ns: u64,
    pub gc_bytes_reclaimed: u64,
}

fn add(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.reads += d.reads;
    acc.read_bytes += d.read_bytes;
    acc.read_blocks += d.read_blocks;
    acc.writes += d.writes;
    acc.write_bytes += d.write_bytes;
    acc.write_lines += d.write_lines;
    acc.flushes += d.flushes;
    acc.fences += d.fences;
}

/// Replays the workload at the length `seconds` asks for.
pub fn measure<S: System>(sys: &mut S, gen: &mut OpGen, which: Which, seconds: f64) -> Measured {
    let table = Arc::clone(sys.table());
    let mut m = Measured::default();
    let mut ops = Vec::new();
    let resizes_at_start = table.resize_count();
    let mut resizes_seen = resizes_at_start;
    // The allocator counts only while the switch is on, and only this
    // function turns it on.
    let (calls_at_start, bytes_at_start) = alloc::counted();
    for (phase_index, phase) in which.phases().iter().enumerate() {
        let total = scaled_ops(phase, seconds);
        let compact_every = total.checked_div(which.compactions()).unwrap_or(u64::MAX);
        let mut next_compaction = compact_every;
        let mut done = 0u64;
        while done < total {
            let n = phase.window.min((total - done) as usize);
            gen.fill(&mut ops, n);
            sys.prepare(&ops);

            let nvm_before = table.nvm_stats();
            let resizes_before = resizes_seen;
            let mut window_ns = 0;
            alloc::counting(true);
            for at in (0..n).step_by(phase.unit) {
                let len = phase.unit.min(n - at);
                let t = Instant::now();
                m.failed += sys.hdnh_unit(&ops, at, len);
                let ns = t.elapsed().as_nanos() as u64;
                m.timing.unit(ns);
                window_ns += ns;
                let resizes = table.resize_count();
                if resizes != resizes_seen {
                    resizes_seen = resizes;
                    m.resize_stall_ns_max = m.resize_stall_ns_max.max(ns);
                    m.resize_stall_ns_total += ns;
                }
            }
            alloc::counting(false);
            if resizes_seen == resizes_before {
                add(&mut m.nvm, &table.nvm_stats().since(&nvm_before));
                m.nvm_ops += n as u64;
            }

            let t = Instant::now();
            for at in (0..n).step_by(phase.unit) {
                sys.ref_unit(&ops, at, phase.unit.min(n - at));
            }
            m.timing.window(Window {
                hdnh_ns: window_ns,
                ref_ns: t.elapsed().as_nanos() as u64,
                ops: n,
                first_phase: phase_index == 0,
            });
            done += n as u64;

            if done >= next_compaction {
                next_compaction += compact_every;
                alloc::counting(true);
                let t = Instant::now();
                let report = table.compact().expect("heap-backed compaction cannot fail");
                let ns = t.elapsed().as_nanos() as u64;
                alloc::counting(false);
                m.timing.unit(ns);
                m.gc_ns += ns;
                m.gc_bytes_reclaimed += report.bytes_reclaimed;
            }
        }
        m.ops += total;
    }
    m.resizes = (resizes_seen - resizes_at_start) as u64;
    let (calls, bytes) = alloc::counted();
    m.allocs = calls - calls_at_start;
    m.alloc_bytes = bytes - bytes_at_start;
    m
}

/// Builds the table the shipped way — `HdnhParams::builder().capacity(..)`
/// and nothing else — and preloads ids `0..which.preload()` at version 1.
pub fn build_table(which: Which) -> Arc<Hdnh> {
    let params = HdnhParams::builder()
        .capacity(which.capacity())
        .build()
        .expect("default parameters are valid");
    let table = Hdnh::new(params);
    let model = which.model();
    let mut buf = [0u8; MAX_VALUE];
    for id in 0..which.preload() {
        let value = fill_value(&mut buf, model.len(id, 1), id, 1);
        table
            .insert_bytes(&Key::from_u64(id as u64), value)
            .expect("preload inserts fresh ids");
    }
    Arc::new(table)
}

/// The configuration [`build_table`] produces, for the report.
pub const CONFIG: &str = "HdnhParams::builder().capacity(n) defaults: NvmOptions::fast(), \
heap backend, SyncMode::Inline, sync policy async, AEP latency model off";

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) of `sorted`, nearest rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(hdnh_ns: u64, ref_ns: u64, ops: usize, first_phase: bool) -> Window {
        Window {
            hdnh_ns,
            ref_ns,
            ops,
            first_phase,
        }
    }

    #[test]
    fn rel_speed_is_total_reference_time_over_total_hdnh_time() {
        let mut t = Timing::default();
        // Two windows: HDNH 300 + 100 ns, reference 100 + 100 ns.
        for ns in [100, 200] {
            t.unit(ns);
        }
        t.window(window(300, 100, 3, true));
        t.unit(100);
        t.window(window(100, 100, 1, true));
        assert_eq!(t.rel_speed(), 200.0 / 400.0);
        // Per-op cost was 100 ns in both windows: no spread.
        assert_eq!(t.window_cv(), 0.0);
    }

    #[test]
    fn smooth_share_drops_by_the_time_spent_in_stalls() {
        let mut t = Timing::default();
        for _ in 0..9 {
            t.unit(100_000);
        }
        assert_eq!(t.smooth_share(), 1.0);
        // A unit exactly at the limit already counts as a stall.
        t.unit(SMOOTH_NS);
        t.unit(100_000);
        assert_eq!(t.smooth_share(), 1_000_000.0 / 2_000_000.0);
    }

    #[test]
    fn window_cv_sees_a_slow_window() {
        let mut t = Timing::default();
        t.window(window(100, 1, 1, true));
        t.window(window(300, 1, 1, true));
        // A later phase's windows cost something else per operation.
        t.window(window(9000, 1, 1, false));
        // mean 200, standard deviation 100.
        assert_eq!(t.window_cv(), 0.5);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
