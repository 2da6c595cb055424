//! Lint-style conformance test for the Prometheus text exposition.
//!
//! Parses every emitted line against the exposition-format grammar rather
//! than spot-checking a few family names: metric-name/label charsets,
//! HELP/TYPE pairing and ordering, numeric sample values, and the
//! histogram contract (ascending `le` bounds, monotone cumulative bucket
//! counts, a terminal `+Inf` bucket equal to `_count`, and a `_sum` for
//! every series). A scraper that accepts this output will accept any
//! output this crate can produce.

use std::time::{Duration, Instant};

use hdnh_obs as obs;

fn metric_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            .unwrap()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `name{k="v",...} value` (labels optional). Returns
/// (name, sorted label pairs, value text).
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, String) {
    let (ident, value) = match line.find('}') {
        Some(close) => {
            let (head, rest) = line.split_at(close + 1);
            (head.to_string(), rest.trim().to_string())
        }
        None => {
            let mut it = line.splitn(2, ' ');
            (
                it.next().unwrap().to_string(),
                it.next().unwrap_or("").trim().to_string(),
            )
        }
    };
    let (name, labels) = match ident.find('{') {
        None => (ident.clone(), Vec::new()),
        Some(open) => {
            assert!(ident.ends_with('}'), "unterminated label set: {line}");
            let name = ident[..open].to_string();
            let body = &ident[open + 1..ident.len() - 1];
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or_else(|| {
                    panic!("label without '=': {pair} in {line}");
                });
                assert!(label_name_ok(k), "bad label name {k:?} in {line}");
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "unquoted label value {v:?} in {line}"
                );
                let val = &v[1..v.len() - 1];
                assert!(
                    !val.contains('"') && !val.contains('\\') && !val.contains('\n'),
                    "label value needs escaping we never emit: {line}"
                );
                labels.push((k.to_string(), val.to_string()));
            }
            (name, labels)
        }
    };
    assert!(metric_name_ok(&name), "bad metric name {name:?} in {line}");
    assert!(!value.is_empty(), "sample without value: {line}");
    (name, labels, value)
}

/// Strips a histogram-series suffix, returning (family, suffix).
fn hist_family(name: &str) -> Option<(&str, &str)> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(fam) = name.strip_suffix(suffix) {
            return Some((fam, suffix));
        }
    }
    None
}

#[test]
fn exposition_is_lint_clean() {
    // Populate every family with real traffic spanning magnitudes so the
    // lint exercises nonzero buckets, not just empty series.
    obs::reset();
    obs::trace::reset();
    obs::set_enabled(true);
    obs::trace::set_slow_threshold_ns(1_000);
    for i in 0..2_000u64 {
        // A measurement that started `ns` ago, 1 ns .. 80 ms.
        let ns = 1 + (i * 2654435761) % 80_000_000;
        let started = Instant::now().checked_sub(Duration::from_nanos(ns));
        obs::op_record(obs::OpKind::ALL[(i % 4) as usize], started);
        obs::net_record(obs::NetCmd::ALL[(i % 11) as usize], started);
    }
    obs::count(obs::Counter::HotHit);
    obs::add(obs::Counter::NetBytesIn, 12345);
    obs::phase_record_ns(obs::Phase::ResizeRehash, 5_000_000, 42);
    let text = obs::snapshot().to_prometheus();
    obs::trace::set_slow_threshold_ns(0);
    obs::set_enabled(false);

    let mut declared: Vec<(String, String)> = Vec::new(); // (family, type)
    let mut last_help: Option<String> = None;
    // (family, labels-minus-le) -> ascending (le, count) pairs.
    let mut buckets: std::collections::BTreeMap<(String, String), Vec<(f64, u64)>> =
        std::collections::BTreeMap::new();
    let mut sums: std::collections::BTreeMap<(String, String), f64> = Default::default();
    let mut counts: std::collections::BTreeMap<(String, String), u64> = Default::default();

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap();
            assert!(metric_name_ok(name), "bad HELP name: {line}");
            assert!(
                !it.next().unwrap_or("").is_empty(),
                "HELP without text: {line}"
            );
            last_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap();
            let kind = it.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind:?}: {line}"
            );
            assert_eq!(
                last_help.as_deref(),
                Some(name),
                "TYPE {name} not immediately preceded by its HELP"
            );
            assert!(
                !declared.iter().any(|(n, _)| n == name),
                "family {name} declared twice"
            );
            declared.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");

        let (name, labels, value) = parse_sample(line);
        let num: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value {value:?} in {line}");
        });
        assert!(num.is_finite() && num >= 0.0, "bad value in {line}");

        // Resolve the declaring family: exact, or histogram suffix of a
        // declared histogram family.
        let fam_entry = declared.iter().find(|(n, _)| *n == name).or_else(|| {
            hist_family(&name).and_then(|(fam, _)| {
                declared
                    .iter()
                    .find(|(n, k)| n == fam && k == "histogram")
            })
        });
        let (family, kind) = fam_entry.unwrap_or_else(|| {
            panic!("sample {name} has no TYPE declaration");
        });

        if kind == "histogram" {
            let (_, suffix) = hist_family(&name).unwrap_or(("", ""));
            let key_labels: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            let key = (family.clone(), key_labels);
            match suffix {
                "_bucket" => {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .expect("bucket sample without le label");
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or_else(|_| panic!("bad le {le:?}"))
                    };
                    buckets.entry(key).or_default().push((bound, num as u64));
                }
                "_sum" => {
                    sums.insert(key, num);
                }
                "_count" => {
                    counts.insert(key, num as u64);
                }
                other => panic!("histogram sample with suffix {other:?}: {line}"),
            }
        }
    }

    assert!(!declared.is_empty() && !buckets.is_empty(), "empty exposition");

    // Histogram contract per series.
    for (key, series) in &buckets {
        assert!(
            series.windows(2).all(|w| w[0].0 < w[1].0),
            "le bounds not ascending for {key:?}: {series:?}"
        );
        assert!(
            series.windows(2).all(|w| w[0].1 <= w[1].1),
            "bucket counts not cumulative for {key:?}: {series:?}"
        );
        let (last_le, last_count) = *series.last().unwrap();
        assert!(
            last_le.is_infinite(),
            "terminal bucket of {key:?} is not +Inf"
        );
        let count = *counts
            .get(key)
            .unwrap_or_else(|| panic!("histogram {key:?} missing _count"));
        let sum = *sums
            .get(key)
            .unwrap_or_else(|| panic!("histogram {key:?} missing _sum"));
        assert_eq!(
            last_count, count,
            "+Inf bucket disagrees with _count for {key:?}"
        );
        // Population sanity: a nonzero population has a nonzero sum of
        // nanosecond values (the smallest recordable latency is 1 ns).
        assert!(
            (count == 0) == (sum == 0.0),
            "_count/_sum not conserved together for {key:?}: count={count} sum={sum}"
        );
    }

    // The traffic above must have produced nonempty op and net histograms.
    let nonzero = buckets
        .iter()
        .filter(|((fam, _), s)| {
            (fam == "hdnh_op_latency_hist_ns" || fam == "hdnh_net_cmd_latency_hist_ns")
                && s.last().unwrap().1 > 0
        })
        .count();
    assert!(nonzero >= 10, "expected populated histograms, got {nonzero}");
    obs::reset();
    obs::trace::reset();
}
