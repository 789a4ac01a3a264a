//! Self-tests of the benchmark as a program: `BENCHMARK.json` agrees with
//! the metric tables, every workload prints exactly the listed metrics, and
//! a run leaves nothing behind outside `benchmark/out/`.
//!
//! They drive the built binary with `--quick`, which shrinks repetitions
//! (never shapes). Run them optimised: `cargo test --release`.

use at_benchmark::cli::DEFAULT_SECONDS;
use at_benchmark::metrics::{
    self, Better, Gate, DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS,
};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

/// The per-layer names `BENCHMARK.json` must list: the layer rows plus the
/// end-to-end metrics that only some workloads report.
fn expected_per_layer() -> Vec<(&'static str, &'static str, Better)> {
    let mut rows: Vec<_> = END_TO_END
        .iter()
        .filter(|m| !DRIVER_END_TO_END.contains(&m.name))
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    rows.extend(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
    rows
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let j = benchmark_json();
    let want: BTreeSet<String> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        keys(&j),
        want,
        "BENCHMARK.json has exactly the contract's keys"
    );
    assert_eq!(j["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
    let paths: Vec<&str> = j["paths"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);

    let listed = names(&j["workloads"]);
    let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, table);
    for (w, def) in j["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
        assert_eq!(w["why"].as_str(), Some(def.why));
        assert!(def.why.len() <= 200 && !def.why.contains('\n'));
    }

    assert_eq!(names(&j["end_to_end"]), DRIVER_END_TO_END);
    for m in j["end_to_end"].as_array().unwrap() {
        let def = metrics::end_to_end(m["name"].as_str().unwrap()).unwrap();
        assert_eq!(m["unit"].as_str(), Some(def.unit));
        assert_eq!(m["better"].as_str(), Some(def.better.name()));
        let Gate::Relative(bound) = def.gate else {
            panic!("{} needs a relative bound", def.name);
        };
        assert_eq!(m["bound"].as_f64(), Some(bound));
        assert!(bound > 0.0 && bound <= 0.25);
    }

    let expected = expected_per_layer();
    assert_eq!(
        names(&j["per_layer"]),
        expected.iter().map(|r| r.0).collect::<Vec<_>>()
    );
    assert!(expected.len() <= 128);
    for (m, (name, unit, better)) in j["per_layer"].as_array().unwrap().iter().zip(&expected) {
        assert_eq!(m["unit"].as_str(), Some(*unit), "{name}");
        assert_eq!(m["better"].as_str(), Some(better.name()), "{name}");
    }

    let mut seen = BTreeSet::new();
    for name in table
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(metrics::valid_name(name) && name.len() <= 64, "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for (_, unit, _) in &expected {
        assert!(valid_unit(unit), "{unit}");
    }
}

/// Runs the built benchmark; returns (exit ok, parsed last stdout line,
/// parsed result file).
fn run(workload: &str, traced: bool) -> (bool, Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }, "--quick"])
        // The benchmark must ignore the program's sizing knobs.
        .env("AT_SAMPLES", "3")
        .env("AT_BENCH_REQUESTS", "5")
        .env("RAYON_NUM_THREADS", "7")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let stderr = String::from_utf8_lossy(&out.stderr);
    let path = stderr
        .lines()
        .find_map(|l| l.strip_prefix("result file: "))
        .expect("the run names its result file");
    let result = std::fs::read_to_string(path).expect("the result file exists");
    (
        out.status.success(),
        serde_json::from_str(last).expect("the last stdout line is JSON"),
        serde_json::from_str(&result).expect("the result file is JSON"),
    )
}

fn check_workload(workload: &str) {
    let per_layer: BTreeSet<String> = expected_per_layer()
        .iter()
        .map(|r| r.0.to_string())
        .collect();
    let end_to_end: BTreeSet<String> = DRIVER_END_TO_END.iter().map(|s| s.to_string()).collect();
    for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
        let (ok, line, result) = run(workload, traced);
        assert!(ok, "{workload} exited non-zero");
        // The result file carries every end-to-end metric the workload
        // exercises and no other, whatever the trace flag.
        let exercised: BTreeSet<String> = END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(keys(&result["end_to_end"]), exercised, "{workload}");
        assert_eq!(result["provenance"]["seed"].as_f64(), Some(11.0));
        assert_eq!(result["provenance"]["rayon_threads"].as_f64(), Some(1.0));
        let want: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(keys(&line), want);
        assert_eq!(line["correct"], Value::Bool(true));
        assert!(line["attempted"].as_f64().unwrap() >= 1.0);
        assert_eq!(line["failed"].as_f64(), Some(0.0));
        assert_eq!(
            &keys(&line["metrics"]),
            expected,
            "{workload} trace={traced}"
        );
        for (name, m) in line["metrics"].as_object().unwrap() {
            assert!(metrics::valid_name(name), "{name}");
            let v = m["value"].as_f64().unwrap_or(f64::NAN);
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            assert!(m["unit"].as_str().is_some_and(valid_unit), "{name}");
            if !traced {
                assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
            }
        }
    }
}

#[test]
fn tune_conv_emits_exactly_the_listed_metrics() {
    check_workload("tune_conv");
}

#[test]
fn tune_small_emits_exactly_the_listed_metrics() {
    check_workload("tune_small");
}

#[test]
fn infer_ladder_emits_exactly_the_listed_metrics() {
    check_workload("infer_ladder");
}

#[test]
fn fleet_storm_emits_exactly_the_listed_metrics() {
    check_workload("fleet_storm");
}

#[test]
fn a_run_leaves_git_status_unchanged() {
    let root = repo_root();
    if !root.join(".git").exists() {
        return; // a plain source tree has no status to keep clean
    }
    let status = || {
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["status", "--porcelain"])
            .output()
            .expect("git runs");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let before = status();
    let (ok, _, _) = run("fleet_storm", true);
    assert!(ok);
    assert_eq!(
        before,
        status(),
        "a run changed the working tree outside benchmark/out/"
    );
    assert!(root.join("benchmark/out/trace-fleet_storm.json").exists());
}

#[test]
fn unknown_arguments_are_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
