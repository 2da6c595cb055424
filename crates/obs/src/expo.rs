//! Exposition: Prometheus text format and JSON.
//!
//! Both renderers work from a [`MetricsSnapshot`], so absolute and delta
//! views use the same code path. JSON goes through [`crate::json`] and is
//! one line, so CLI consumers can grab it with a one-line match and feed
//! it straight to a JSON parser.
//!
//! The Prometheus output is lint-clean by contract (enforced by
//! `crates/obs/tests/prom_lint.rs`): every family carries a `# HELP` and
//! `# TYPE` pair, histogram families emit cumulative `_bucket` series with
//! ascending `le` bounds ending at `+Inf`, and the `+Inf` bucket equals
//! the family's `_count`.

use std::fmt::Write;

use crate::hist::HistSnapshot;
use crate::json::Writer;
use crate::{Counter, MetricsSnapshot, NetCmd, OpKind, Phase};

const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Histogram `le` bounds in nanoseconds. Powers of two are exact edges of
/// the log-linear bucket layout (see [`HistSnapshot::le_counts`]), spanning
/// 1 µs to ~2.1 s — the plausible latency range of a table op or a wire
/// command — with a terminal `+Inf`.
const LE_EDGES: [u64; 8] = [
    1 << 10, // ~1 µs
    1 << 13, // ~8 µs
    1 << 16, // ~65 µs
    1 << 19, // ~524 µs
    1 << 22, // ~4.2 ms
    1 << 25, // ~33 ms
    1 << 28, // ~268 ms
    1 << 31, // ~2.1 s
];

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Emits one labelled histogram series (`_bucket`+`+Inf`, `_sum`,
/// `_count`) for `h` under `name{label_key="label_val"}`.
fn hist_series(out: &mut String, name: &str, label_key: &str, label_val: &str, h: &HistSnapshot) {
    let le = h.le_counts(&LE_EDGES);
    for (edge, c) in LE_EDGES.iter().zip(&le) {
        let _ = writeln!(
            out,
            "{name}_bucket{{{label_key}=\"{label_val}\",le=\"{edge}\"}} {c}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{label_key}=\"{label_val}\",le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{label_key}=\"{label_val}\"}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{label_key}=\"{label_val}\"}} {}", h.count());
}

/// Prometheus text exposition format.
pub(crate) fn prometheus(s: &MetricsSnapshot) -> String {
    let mut out = String::new();

    family(&mut out, "hdnh_ops_total", "Completed table operations by kind.", "counter");
    for &op in &OpKind::ALL {
        let _ = writeln!(
            out,
            "hdnh_ops_total{{op=\"{}\"}} {}",
            op.name(),
            s.op(op).count()
        );
    }

    family(
        &mut out,
        "hdnh_op_latency_ns",
        "Table operation latency quantiles in nanoseconds.",
        "gauge",
    );
    for &op in &OpKind::ALL {
        let h = s.op(op);
        for &(q, label) in &QUANTILES {
            let _ = writeln!(
                out,
                "hdnh_op_latency_ns{{op=\"{}\",quantile=\"{label}\"}} {}",
                op.name(),
                h.quantile(q)
            );
        }
    }
    family(
        &mut out,
        "hdnh_op_latency_ns_max",
        "Largest observed table operation latency in nanoseconds.",
        "gauge",
    );
    for &op in &OpKind::ALL {
        let _ = writeln!(
            out,
            "hdnh_op_latency_ns_max{{op=\"{}\"}} {}",
            op.name(),
            s.op(op).max()
        );
    }

    family(
        &mut out,
        "hdnh_op_latency_hist_ns",
        "Table operation latency histogram in nanoseconds.",
        "histogram",
    );
    for &op in &OpKind::ALL {
        hist_series(&mut out, "hdnh_op_latency_hist_ns", "op", op.name(), s.op(op));
    }

    family(&mut out, "hdnh_net_cmds_total", "Wire commands served by kind.", "counter");
    for &cmd in &NetCmd::ALL {
        let _ = writeln!(
            out,
            "hdnh_net_cmds_total{{cmd=\"{}\"}} {}",
            cmd.name(),
            s.net(cmd).count()
        );
    }
    family(
        &mut out,
        "hdnh_net_cmd_latency_ns",
        "Wire command service latency quantiles in nanoseconds.",
        "gauge",
    );
    for &cmd in &NetCmd::ALL {
        let h = s.net(cmd);
        for &(q, label) in &QUANTILES {
            let _ = writeln!(
                out,
                "hdnh_net_cmd_latency_ns{{cmd=\"{}\",quantile=\"{label}\"}} {}",
                cmd.name(),
                h.quantile(q)
            );
        }
    }
    family(
        &mut out,
        "hdnh_net_cmd_latency_hist_ns",
        "Wire command service latency histogram in nanoseconds.",
        "histogram",
    );
    for &cmd in &NetCmd::ALL {
        hist_series(
            &mut out,
            "hdnh_net_cmd_latency_hist_ns",
            "cmd",
            cmd.name(),
            s.net(cmd),
        );
    }

    family(
        &mut out,
        "hdnh_slowlog_total",
        "Wire commands that crossed the slow-command threshold.",
        "counter",
    );
    for &cmd in &NetCmd::ALL {
        let _ = writeln!(
            out,
            "hdnh_slowlog_total{{cmd=\"{}\"}} {}",
            cmd.name(),
            s.slowlog(cmd)
        );
    }

    family(&mut out, "hdnh_events_total", "Internal path events by kind.", "counter");
    for &c in &Counter::ALL {
        let _ = writeln!(
            out,
            "hdnh_events_total{{event=\"{}\"}} {}",
            c.name(),
            s.counter(c)
        );
    }

    family(
        &mut out,
        "hdnh_snapshot_taken_total",
        "Crash-consistent snapshots completed.",
        "counter",
    );
    let _ = writeln!(out, "hdnh_snapshot_taken_total {}", s.counter(Counter::SnapshotTaken));
    family(
        &mut out,
        "hdnh_snapshot_failed_total",
        "Snapshot attempts that failed.",
        "counter",
    );
    let _ = writeln!(out, "hdnh_snapshot_failed_total {}", s.counter(Counter::SnapshotFailed));
    family(
        &mut out,
        "hdnh_snapshot_bytes_total",
        "Bytes copied into snapshot directories.",
        "counter",
    );
    let _ = writeln!(out, "hdnh_snapshot_bytes_total {}", s.counter(Counter::SnapshotBytes));
    family(
        &mut out,
        "hdnh_net_spurious_wakeups_total",
        "Reactor event-loop wakeups that found no ready I/O and no due timer.",
        "counter",
    );
    let _ = writeln!(
        out,
        "hdnh_net_spurious_wakeups_total {}",
        s.counter(Counter::NetSpuriousWakeup)
    );

    family(
        &mut out,
        "hdnh_ocf_false_positive_rate",
        "Fraction of OCF fingerprint matches that were false positives.",
        "gauge",
    );
    let _ = writeln!(out, "hdnh_ocf_false_positive_rate {:.6}", s.ocf_false_positive_rate());
    family(
        &mut out,
        "hdnh_hot_hit_rate",
        "Fraction of hot-table searches that hit.",
        "gauge",
    );
    let _ = writeln!(out, "hdnh_hot_hit_rate {:.6}", s.hot_hit_rate());
    family(
        &mut out,
        "hdnh_sync_overlap_win_rate",
        "Fraction of synchronous writes whose DRAM write hid under the NVM write.",
        "gauge",
    );
    let _ = writeln!(out, "hdnh_sync_overlap_win_rate {:.6}", s.sync_overlap_win_rate());

    family(&mut out, "hdnh_phase_runs_total", "Completed runs per maintenance phase.", "counter");
    for &p in &Phase::ALL {
        let _ = writeln!(
            out,
            "hdnh_phase_runs_total{{phase=\"{}\"}} {}",
            p.name(),
            s.phase(p).runs
        );
    }
    family(
        &mut out,
        "hdnh_phase_ns_total",
        "Total nanoseconds spent per maintenance phase.",
        "counter",
    );
    for &p in &Phase::ALL {
        let _ = writeln!(
            out,
            "hdnh_phase_ns_total{{phase=\"{}\"}} {}",
            p.name(),
            s.phase(p).total_ns
        );
    }
    family(
        &mut out,
        "hdnh_phase_last_ns",
        "Duration of the most recent run per maintenance phase.",
        "gauge",
    );
    for &p in &Phase::ALL {
        let _ = writeln!(
            out,
            "hdnh_phase_last_ns{{phase=\"{}\"}} {}",
            p.name(),
            s.phase(p).last_ns
        );
    }
    family(
        &mut out,
        "hdnh_phase_items_total",
        "Total work items processed per maintenance phase.",
        "counter",
    );
    for &p in &Phase::ALL {
        let _ = writeln!(
            out,
            "hdnh_phase_items_total{{phase=\"{}\"}} {}",
            p.name(),
            s.phase(p).items
        );
    }
    out
}

/// The snapshot's JSON members: ops, net commands, slowlog, events,
/// derived rates and phases.
pub(crate) fn json(s: &MetricsSnapshot, w: &mut Writer) {
    w.key("ops").object(|w| {
        for &op in &OpKind::ALL {
            let h = s.op(op);
            w.key(op.name()).object(|w| {
                h.write_summary(w);
                w.key("min_ns").u64(h.min());
            });
        }
    });
    w.key("net").object(|w| {
        for &cmd in &NetCmd::ALL {
            w.key(cmd.name()).object(|w| s.net(cmd).write_summary(w));
        }
    });
    w.key("slowlog").object(|w| {
        for &cmd in &NetCmd::ALL {
            w.key(cmd.name()).u64(s.slowlog(cmd));
        }
    });
    w.key("events").object(|w| {
        for &c in &Counter::ALL {
            w.key(c.name()).u64(s.counter(c));
        }
    });
    w.key("derived").object(|w| {
        w.key("total_ops").u64(s.total_ops()).key("total_slowlog").u64(s.total_slowlog());
        w.key("ocf_false_positive_rate").f64(s.ocf_false_positive_rate(), 6);
        w.key("hot_hit_rate").f64(s.hot_hit_rate(), 6);
        w.key("sync_overlap_win_rate").f64(s.sync_overlap_win_rate(), 6);
    });
    w.key("phases").object(|w| {
        for &p in &Phase::ALL {
            let ph = s.phase(p);
            w.key(p.name()).object(|w| {
                w.key("runs").u64(ph.runs).key("total_ns").u64(ph.total_ns);
                w.key("last_ns").u64(ph.last_ns).key("max_ns").u64(ph.max_ns);
                w.key("items").u64(ph.items);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::MetricsSnapshot;

    #[test]
    fn prometheus_covers_every_family() {
        let text = MetricsSnapshot::empty().to_prometheus();
        for family in [
            "hdnh_ops_total{op=\"get\"}",
            "hdnh_op_latency_ns{op=\"get\",quantile=\"0.5\"}",
            "hdnh_op_latency_ns{op=\"update\",quantile=\"0.99\"}",
            "hdnh_op_latency_ns_max{op=\"remove\"}",
            "hdnh_op_latency_hist_ns_bucket{op=\"get\",le=\"+Inf\"}",
            "hdnh_op_latency_hist_ns_count{op=\"insert\"}",
            "hdnh_net_cmd_latency_hist_ns_bucket{cmd=\"set\",le=\"1024\"}",
            "hdnh_slowlog_total{cmd=\"get\"}",
            "hdnh_events_total{event=\"ocf_false_positive\"}",
            "hdnh_events_total{event=\"seqlock_read_retry\"}",
            "hdnh_events_total{event=\"net_frame_decoded\"}",
            "hdnh_events_total{event=\"delta_baseline_reset\"}",
            "hdnh_net_cmds_total{cmd=\"mget\"}",
            "hdnh_net_cmd_latency_ns{cmd=\"set\",quantile=\"0.999\"}",
            "hdnh_ocf_false_positive_rate",
            "hdnh_hot_hit_rate",
            "hdnh_phase_runs_total{phase=\"resize_rehash\"}",
            "hdnh_phase_items_total{phase=\"recovery_total\"}",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn every_type_line_has_a_help_line() {
        let text = MetricsSnapshot::empty().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(i > 0, "TYPE line first: {line}");
                let prev = lines[i - 1];
                assert!(
                    prev.starts_with(&format!("# HELP {name} ")),
                    "TYPE for {name} not preceded by its HELP: {prev}"
                );
            }
        }
    }

    #[test]
    fn json_is_one_line_and_balanced() {
        let j = MetricsSnapshot::empty().to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"ops\":{"));
        assert!(j.ends_with("}}"));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces: {j}"
        );
        for key in ["\"get\"", "\"net\"", "\"mset\"", "\"slowlog\"", "\"events\"", "\"derived\"", "\"total_ops\"", "\"total_slowlog\"", "\"phases\"", "\"resize_allocate\""] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
