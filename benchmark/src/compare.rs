//! `benchmark compare <runs-A…> -- <runs-B…>`: one row per (workload,
//! end-to-end metric) with each side's median and quartiles and a verdict
//! against the metric's bound.

use crate::metrics::{Better, Gate, END_TO_END};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a regression of
    /// the bound's size could hide in it.
    Unresolved,
    /// A deterministic metric compared across different seeds.
    Skipped,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Skipped => "skipped (seeds differ)",
        }
    }
}

/// One side's runs of one workload: seeds and per-metric values.
#[derive(Default)]
struct Side {
    seeds: Vec<u64>,
    values: BTreeMap<String, Vec<f64>>,
}

fn load(paths: &[PathBuf]) -> Result<BTreeMap<String, Side>, String> {
    let mut by_workload: BTreeMap<String, Side> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a result file: {e}", path.display()))?;
        let workload = v["workload"]
            .as_str()
            .ok_or_else(|| format!("{} has no workload", path.display()))?;
        let side = by_workload.entry(workload.to_string()).or_default();
        side.seeds
            .push(v["provenance"]["seed"].as_f64().unwrap_or(-1.0) as u64);
        let metrics = v["end_to_end"]
            .as_object()
            .ok_or_else(|| format!("{} has no end_to_end metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(x) = m["value"].as_f64() {
                side.values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(by_workload)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a.abs() > 0.0 {
        delta / a.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Interquartile range over the median; 0 with fewer than two values.
fn spread(values: &[f64]) -> f64 {
    match stats::quartiles(values) {
        Some((q1, q2, q3)) if q2.abs() > 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

pub fn judge(better: Better, gate: Gate, same_seed: bool, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = worsening(better, ma, mb);
    match gate {
        // These three gates compare pure functions of code and seed.
        Gate::Exact | Gate::ExactWithin(_) | Gate::NoWorse if !same_seed => Verdict::Skipped,
        Gate::Exact => {
            if a.iter().chain(b).all(|&x| x == a[0]) {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Gate::ExactWithin(tol) => {
            if worse <= tol {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Gate::NoWorse => {
            if worse <= 0.0 {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Gate::Relative(bound) => {
            let b_always_better = a
                .iter()
                .all(|&x| b.iter().all(|&y| worsening(better, x, y) < 0.0));
            if b_always_better {
                Verdict::Ok
            } else if spread(a).max(spread(b)) > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

fn gate_name(gate: Gate) -> String {
    match gate {
        Gate::Relative(b) => format!("{:.0}%", 100.0 * b),
        Gate::Exact => "exact".into(),
        Gate::ExactWithin(t) => format!("det. {:.0}%", 100.0 * t),
        Gate::NoWorse => "no rise".into(),
    }
}

fn quart(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:.5} [{q1:.5}, {q3:.5}] n={}", values.len()),
        None => format!("{:.5} n={}", stats::median(values), values.len()),
    }
}

/// Prints the comparison; returns the number of regressed rows.
pub fn compare(a_paths: &[PathBuf], b_paths: &[PathBuf]) -> Result<usize, String> {
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut regressed = 0;
    println!(
        "{:<13} {:<26} {:<8} {:<38} {:<38} {:>8}  verdict",
        "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for (workload, sa) in &a {
        let Some(sb) = b.get(workload) else {
            println!("{workload:<13} (no runs on side B)");
            continue;
        };
        let same_seed = sa.seeds.iter().chain(&sb.seeds).all(|&s| s == sa.seeds[0]);
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (sa.values.get(def.name), sb.values.get(def.name)) else {
                continue;
            };
            let verdict = judge(def.better, def.gate, same_seed, va, vb);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{:<13} {:<26} {:<8} {:<38} {:<38} {:>+7.2}%  {}",
                workload,
                def.name,
                gate_name(def.gate),
                quart(va),
                quart(vb),
                100.0 * worsening(def.better, stats::median(va), stats::median(vb)),
                verdict.name()
            );
        }
    }
    println!("change = how much worse B's median is than A's, in the metric's bad direction");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: Gate = Gate::Relative(0.10);

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(Better::Lower, TEN, true, &a, &[10.5, 10.6, 10.4]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, TEN, true, &a, &[11.5, 11.6, 11.4]),
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(Better::Higher, TEN, true, &a, &[8.5, 8.6, 8.4]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, TEN, true, &a, &[11.5, 11.6, 11.4]),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_b_beats_every_a() {
        let noisy = [10.0, 14.0, 7.0, 12.0];
        assert_eq!(
            judge(Better::Lower, TEN, true, &noisy, &[10.0, 10.0, 10.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, TEN, true, &noisy, &[6.0, 6.5, 5.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn deterministic_metrics_must_repeat_exactly() {
        assert_eq!(
            judge(Better::Higher, Gate::Exact, true, &[2.28, 2.28], &[2.28]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, Gate::Exact, true, &[2.28, 2.28], &[2.27]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, Gate::Exact, false, &[2.28], &[1.9]),
            Verdict::Skipped
        );
        assert_eq!(
            judge(
                Better::Lower,
                Gate::ExactWithin(0.01),
                true,
                &[100.0],
                &[100.5]
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                Better::Lower,
                Gate::ExactWithin(0.01),
                true,
                &[100.0],
                &[102.0]
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn failure_share_may_not_rise_at_all() {
        assert_eq!(
            judge(Better::Lower, Gate::NoWorse, true, &[0.0], &[0.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, Gate::NoWorse, true, &[0.0], &[0.001]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, Gate::NoWorse, true, &[0.01], &[0.005]),
            Verdict::Ok
        );
    }
}
