//! `aa`: does the benchmark agree with itself?
//!
//! Runs every workload in two interleaved sets of N fresh processes of
//! this same binary — set A on seeds `1..=N`, set B on `N+1..=2N`, so the
//! comparison includes what a change of seed does — and checks each
//! end-to-end metric the way the benchmark's consumer does: the spread
//! inside each set (interquartile range over median, quartiles as
//! Python's `statistics.quantiles(values, n=4)` computes them) and the
//! distance between the two medians must both stay within the metric's
//! bound. `setup_s` is held to the second condition only.

use std::process::{Command, ExitCode};

use crate::harness::median;
use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};

/// First and third quartile, "exclusive" method, like Python's default.
fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = values.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let (q1, q3) = quartiles(&mut v);
    (q3 - q1) / median(&mut v)
}

/// One fresh process; returns its end-to-end metrics in spec order.
fn one_run(workload: &str, seed: usize, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "run",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}: {last}",
            out.status.code()
        ));
    }
    let doc = Json::parse(last)?;
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|row| row.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{workload} seed {seed}: no {}", m.name))
        })
        .collect()
}

pub fn run(runs: usize, seconds: f64) -> Result<ExitCode, String> {
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let mut all_pass = true;
    let mut report = Vec::new();
    for w in WORKLOADS {
        // sets[set][metric] = one value per run
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..runs {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = 1 + set * runs + i;
                eprintln!(
                    "aa: {} set {} run {}/{runs} (seed {seed})",
                    w.name,
                    ["A", "B"][set],
                    i + 1
                );
                for (slot, v) in values.iter_mut().zip(one_run(w.name, seed, seconds)?) {
                    slot.push(v);
                }
            }
        }
        println!("{}", w.name);
        println!(
            "  {:<24} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  result",
            "metric", "median A", "median B", "spread A", "spread B", "A vs B", "bound"
        );
        let mut rows = Vec::new();
        for (mi, m) in END_TO_END.iter().enumerate() {
            let med = [0, 1].map(|s| median(&mut sets[s][mi].clone()));
            let spr = [0, 1].map(|s| spread(&sets[s][mi]));
            let shift = (med[1] - med[0]).abs() / med[0];
            let steady = m.name == "setup_s" || (spr[0] <= m.bound && spr[1] <= m.bound);
            let pass = steady && shift <= m.bound;
            all_pass &= pass;
            println!(
                "  {:<24} {:>14.6} {:>14.6} {:>8.3}% {:>8.3}% {:>8.3}% {:>6.1}%  {}",
                m.name,
                med[0],
                med[1],
                spr[0] * 100.0,
                spr[1] * 100.0,
                shift * 100.0,
                m.bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
            rows.push(Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("bound", Json::Num(m.bound)),
                ("median_a", Json::Num(med[0])),
                ("median_b", Json::Num(med[1])),
                ("spread_a", Json::Num(spr[0])),
                ("spread_b", Json::Num(spr[1])),
                ("shift", Json::Num(shift)),
                ("pass", Json::Bool(pass)),
                (
                    "values_a",
                    Json::Arr(sets[0][mi].iter().map(|&v| Json::Num(v)).collect()),
                ),
                (
                    "values_b",
                    Json::Arr(sets[1][mi].iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]));
        }
        report.push(Json::obj([
            ("workload", Json::str(w.name)),
            ("metrics", Json::Arr(rows)),
        ]));
    }
    let doc = Json::obj([
        ("runs_per_set", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("pass", Json::Bool(all_pass)),
        ("workloads", Json::Arr(report)),
    ]);
    let file = doc.write_out("aa.json")?;
    println!(
        "{}: wrote {}",
        if all_pass { "PASS" } else { "FAIL" },
        file.display()
    );
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [10.0, 20.0]), (7.5, 22.5));
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }
}
