//! Report-schema corpus test: every committed `results/*.json`, the
//! repo-root `BENCH_*.json` perf reports, and freshly built fleet and
//! kernel artifacts must all carry an integer `schema_version` at
//! the top level and contain only finite numbers — the class of bug where
//! a writer ships a bare array or a NaN flattens to `null` is caught here
//! for *all* writers at once, not ad hoc per artifact.

use at_bench::env::Sizing;
use at_bench::fleet_storm::FleetStorm;
use at_bench::report::{envelope, validate_artifact, RESULTS_SCHEMA_VERSION};
use at_core::chaos::ChaosPlan;
use at_core::fleet::RouterPolicy;
use serde::Value;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate must live two levels below the repo root")
        .to_path_buf()
}

fn load(path: &Path) -> Value {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("unreadable artifact {}: {e}", path.display()));
    serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("unparseable artifact {}: {e:?}", path.display()))
}

/// Every committed artifact under `results/` conforms to the schema.
#[test]
fn committed_results_corpus_conforms() {
    let dir = repo_root().join("results");
    let mut checked = 0usize;
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing results/ corpus at {}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let value = load(&path);
        validate_artifact(&value).unwrap_or_else(|e| {
            panic!("schema violation in {}: {e}", path.display());
        });
        checked += 1;
    }
    assert!(
        checked >= 17,
        "corpus shrank: expected ≥17 committed artifacts, found {checked}"
    );
}

/// Any `BENCH_*.json` perf reports at the repo root conform too (the
/// corpus is allowed to be empty on a fresh checkout — benches write these
/// locally and in CI).
#[test]
fn bench_reports_conform() {
    let root = repo_root();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("repo root must be readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let value = load(&path);
        validate_artifact(&value)
            .unwrap_or_else(|e| panic!("schema violation in {}: {e}", path.display()));
    }
}

/// Toy-scale sizing for the freshly built artifacts below.
fn small() -> Sizing {
    Sizing {
        requests: 2_000,
        replicas: 2,
        sdc_trials: 1,
        abft_dim: 32,
        ..Sizing::default()
    }
}

fn field<'a>(tree: &'a Value, key: &str) -> Option<&'a Value> {
    let pairs = tree.as_object().expect("artifacts are objects");
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The writer-side guarantee shared by every versioned artifact: it
/// validates, carries the current schema version, and the envelope is a
/// no-op on it (no double-wrapping under `data`).
fn assert_conforms(tree: Value) -> Value {
    let tree = envelope(tree);
    validate_artifact(&tree).expect("fresh artifact must conform");
    let version = field(&tree, "schema_version").and_then(Value::as_f64);
    assert_eq!(version, Some(f64::from(RESULTS_SCHEMA_VERSION)));
    assert!(
        field(&tree, "data").is_none(),
        "a versioned artifact must not get double-wrapped"
    );
    tree
}

/// A freshly built (small) `serve_fleet` artifact passes validation
/// before it is ever written — the writer-side guarantee, not just the
/// committed-corpus one.
#[test]
fn fresh_serve_fleet_artifact_conforms() {
    let storm = FleetStorm::brownout(&small());
    let body = at_bench::serve_fleet::build(&storm);
    assert_conforms(storm.artifact("serve_fleet", &body));
}

/// Same writer-side guarantee for the chaos campaign: a freshly built
/// (small) `fleet_chaos` artifact validates, is not double-wrapped, and
/// carries zero unaccounted requests even at toy scale.
#[test]
fn fresh_fleet_chaos_artifact_conforms() {
    let storm = FleetStorm::brownout(&small());
    let body = at_bench::fleet_chaos::build(&storm);
    let tree = assert_conforms(storm.artifact("fleet_chaos", &body));
    assert!(field(&tree, "availability_pct").is_some());
    let unaccounted = field(&tree, "requests_unaccounted").and_then(Value::as_f64);
    assert_eq!(unaccounted, Some(0.0));
}

/// Same writer-side guarantee for the kernel micro-benchmark: a freshly
/// built (tiny) artifact validates and carries the headline speedup fields.
#[test]
fn fresh_bench_kernels_artifact_conforms() {
    let artifact = at_bench::bench_kernels::build_artifact(16, 1);
    let tree = assert_conforms(serde_json::to_value(&artifact));
    assert!(field(&tree, "headline_matmul_speedup").is_some());
}

/// Same writer-side guarantee for the SDC campaign: a freshly built
/// (small) `fleet_sdc` artifact validates, is not double-wrapped, and
/// carries zero unaccounted requests and the headline coverage fields
/// even at toy scale.
#[test]
fn fresh_fleet_sdc_artifact_conforms() {
    let sizing = small();
    let storm = at_bench::fleet_sdc::storm(&sizing);
    let body = at_bench::fleet_sdc::build(&storm, &sizing);
    let tree = assert_conforms(storm.artifact("fleet_sdc", &body));
    for key in [
        "availability_pct",
        "fleet_detection_pct",
        "kernel",
        "overhead",
    ] {
        assert!(field(&tree, key).is_some(), "{key}");
    }
    let unaccounted = field(&tree, "requests_unaccounted").and_then(Value::as_f64);
    assert_eq!(unaccounted, Some(0.0));
}

/// The three fleet artifacts come from one fixture: at CI's smoke size
/// (30,000 requests × 4 replicas) they agree on the horizon and the tenant
/// roster, and none of them loses a request.
#[test]
fn fleet_artifacts_share_one_storm_and_account_for_every_request() {
    let sizing = Sizing {
        requests: 30_000,
        replicas: 4,
        ..small()
    };
    let brownout = FleetStorm::brownout(&sizing);
    let steady = at_bench::fleet_sdc::storm(&sizing);
    let trees = [
        brownout.artifact("serve_fleet", &at_bench::serve_fleet::build(&brownout)),
        brownout.artifact("fleet_chaos", &at_bench::fleet_chaos::build(&brownout)),
        steady.artifact("fleet_sdc", &at_bench::fleet_sdc::build(&steady, &sizing)),
    ];
    let encoded = |tree: &Value, key: &str| {
        let value = field(tree, key).unwrap_or_else(|| panic!("missing {key}"));
        serde_json::to_string(value).unwrap()
    };
    for tree in &trees[1..] {
        for key in ["horizon_s", "tenant_models", "requests_target", "replicas"] {
            assert_eq!(encoded(tree, key), encoded(&trees[0], key), "{key}");
        }
        assert_eq!(encoded(tree, "requests_unaccounted"), "0");
    }
    // `BENCH_serve.json` has no accounting field: ask the simulator.
    for policy in RouterPolicy::ALL {
        let (report, ..) = brownout.run(policy, &ChaosPlan::none());
        assert_eq!(report.requests_unaccounted, 0, "{}", report.policy);
    }
}
