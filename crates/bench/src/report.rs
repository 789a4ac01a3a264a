//! Result formatting: fixed-width console tables plus JSON artifacts under
//! `results/` and `BENCH_*.json` perf reports at the repo root — or, for a
//! run sized by any `AT_*` override, the same files under `target/bench/`,
//! so a smoke run never overwrites the committed full-scale artifacts.
//!
//! Every artifact that leaves this module is validated *before* encoding:
//! the top level must be an object carrying an integer `schema_version`
//! (writers emitting bare arrays or unversioned objects are wrapped in a
//! `{"schema_version": N, "data": ...}` envelope), and every float in the
//! tree must be finite — JSON renders NaN/inf as `null`, which silently
//! corrupts downstream parsing, so the check runs on the [`Value`] tree
//! where non-finite floats are still observable. Invalid artifacts are
//! reported and *not* written.

use serde::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped into every `results/*.json` artifact, so
/// downstream tooling can detect layout changes instead of guessing from
/// field shapes. Bump when an artifact's structure changes incompatibly.
pub const RESULTS_SCHEMA_VERSION: u32 = 1;

/// Checks a decoded artifact against the report schema: the top level is
/// an object whose `schema_version` is an integer ≥ 1, and every numeric
/// field in the tree is finite. Runs on the pre-encoding [`Value`] tree,
/// where NaN/inf have not yet been flattened to `null`.
pub fn validate_artifact(value: &Value) -> Result<(), String> {
    let Some(pairs) = value.as_object() else {
        return Err("top level must be a JSON object".to_string());
    };
    let version = pairs.iter().find(|(k, _)| k == "schema_version");
    match version {
        None => return Err("missing schema_version".to_string()),
        Some((_, v)) => match v {
            Value::I64(i) if *i >= 1 => {}
            Value::U64(_) => {}
            other => {
                return Err(format!(
                    "schema_version must be a positive integer, got {other:?}"
                ))
            }
        },
    }
    check_finite(value, "$")
}

fn check_finite(value: &Value, path: &str) -> Result<(), String> {
    match value {
        Value::F64(f) if !f.is_finite() => Err(format!("non-finite number at {path}: {f}")),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                check_finite(item, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        Value::Object(pairs) => {
            for (k, v) in pairs {
                check_finite(v, &format!("{path}.{k}"))?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Wraps a payload in the versioned envelope unless it already is a
/// schema-versioned object: bare arrays and unversioned objects become
/// `{"schema_version": RESULTS_SCHEMA_VERSION, "data": ...}`.
pub fn envelope(value: Value) -> Value {
    let versioned = value
        .as_object()
        .is_some_and(|pairs| pairs.iter().any(|(k, _)| k == "schema_version"));
    if versioned {
        value
    } else {
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::U64(u64::from(RESULTS_SCHEMA_VERSION)),
            ),
            ("data".to_string(), value),
        ])
    }
}

/// A simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Per column, the factors [`Table::factor_row`] recorded.
    factors: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            factors: vec![Vec::new(); header.len()],
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a row of `lead` cells followed by `factors`, rendered like
    /// `2.14x` and remembered per column for the closing `Geo-mean` row.
    pub(crate) fn factor_row(&mut self, lead: Vec<String>, factors: &[f64]) {
        for (i, &f) in factors.iter().enumerate() {
            self.factors[lead.len() + i].push(f);
        }
        let cells = lead.into_iter().chain(factors.iter().map(|&f| fx(f)));
        self.row(cells.collect());
    }

    /// Renders the table; one with factor columns closes with a `Geo-mean`
    /// row holding each such column's geometric mean.
    pub(crate) fn render(&self) -> String {
        let geomeans = self.factors.iter().any(|f| !f.is_empty()).then(|| {
            let cell = |(i, f): (usize, &Vec<f64>)| match i {
                0 => "Geo-mean".to_string(),
                _ if f.is_empty() => String::new(),
                _ => fx(crate::harness::geomean(f)),
            };
            self.factors.iter().enumerate().map(cell).collect()
        });
        let rows = || self.rows.iter().chain(&geomeans);
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in rows() {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in rows() {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// What an experiment hands the `repro` driver: the enveloped JSON tree
/// and where it belongs relative to the working directory.
pub struct Artifact {
    relative: String,
    /// The payload, already wrapped by [`envelope`].
    pub value: Value,
    pretty: bool,
}

impl Artifact {
    fn new(relative: String, value: &impl serde::Serialize, pretty: bool) -> Artifact {
        Artifact {
            relative,
            value: envelope(serde_json::to_value(value)),
            pretty,
        }
    }

    /// A pretty-printed artifact under `results/`.
    pub(crate) fn results(name: &str, value: &impl serde::Serialize) -> Artifact {
        Artifact::new(format!("results/{name}.json"), value, true)
    }

    /// A compact (single-line) artifact under `results/` — for artifacts
    /// carrying per-invocation traces, where pretty-printing multiplies
    /// the size several-fold.
    pub(crate) fn results_compact(name: &str, value: &impl serde::Serialize) -> Artifact {
        Artifact::new(format!("results/{name}.json"), value, false)
    }

    /// A perf report, `BENCH_<name>.json` at the repository root (the
    /// driver's working directory) — the measurable-perf-trajectory
    /// artifacts CI uploads alongside `results/`.
    pub(crate) fn bench(name: &str, value: &impl serde::Serialize) -> Artifact {
        Artifact::new(format!("BENCH_{name}.json"), value, true)
    }

    /// Validates, encodes and writes the artifact; returns whether the file
    /// was written.
    pub fn write(&self) -> bool {
        let path = &artifact_path(&self.relative, crate::env::overridden());
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = validate_artifact(&self.value) {
            eprintln!("[results] refusing to write {}: {e}", path.display());
            return false;
        }
        let encoded = if self.pretty {
            serde_json::to_string_pretty(&self.value)
        } else {
            serde_json::to_string(&self.value)
        };
        let written = encoded
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(path, s).map_err(|e| e.to_string()));
        match &written {
            Ok(()) => eprintln!("[results] wrote {}", path.display()),
            Err(e) => eprintln!("[results] failed to write {}: {e}", path.display()),
        }
        written.is_ok()
    }
}

/// Where an artifact named `relative` (to the working directory) goes: in
/// place for a default-sized run, under `target/bench/` for an overridden
/// one (`smoke`), whose numbers are not the committed artifact's.
pub(crate) fn artifact_path(relative: &str, smoke: bool) -> PathBuf {
    if smoke {
        Path::new("target/bench").join(relative)
    } else {
        PathBuf::from(relative)
    }
}

/// Formats a factor like `2.14x`.
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage like `89.41%`.
pub fn pct(v: f64) -> String {
    format!("{v:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.50x".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);

        // Factor columns close with their geometric mean; others stay blank.
        let mut t = Table::new(&["name", "seconds", "gain"]);
        t.factor_row(vec!["a".into(), "0.5".into()], &[1.0]);
        t.factor_row(vec!["b".into(), "0.7".into()], &[4.0]);
        let s = t.render();
        let last: Vec<&str> = s.lines().last().unwrap().split_whitespace().collect();
        assert_eq!(last, ["Geo-mean", "2.00x"]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fx(2.138), "2.14x");
        assert_eq!(pct(89.411), "89.41%");
    }

    #[test]
    fn envelope_wraps_bare_payloads_and_keeps_versioned_objects() {
        let bare = serde_json::to_value(&vec![1.0f64, 2.0]);
        let wrapped = envelope(bare);
        let pairs = wrapped.as_object().unwrap();
        assert_eq!(pairs[0].0, "schema_version");
        assert_eq!(pairs[1].0, "data");
        assert!(validate_artifact(&wrapped).is_ok());

        let versioned = Value::Object(vec![
            ("schema_version".to_string(), Value::I64(1)),
            ("x".to_string(), Value::F64(0.5)),
        ]);
        let same = envelope(versioned.clone());
        assert_eq!(
            serde_json::to_string(&same).unwrap(),
            serde_json::to_string(&versioned).unwrap(),
            "already-versioned objects pass through untouched"
        );
    }

    #[test]
    fn validate_rejects_missing_version_and_non_finite_numbers() {
        let unversioned = Value::Object(vec![("x".to_string(), Value::F64(1.0))]);
        assert!(validate_artifact(&unversioned)
            .unwrap_err()
            .contains("schema_version"));

        let bad_version = Value::Object(vec![(
            "schema_version".to_string(),
            Value::String("1".to_string()),
        )]);
        assert!(validate_artifact(&bad_version).is_err());

        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::Object(vec![
                ("schema_version".to_string(), Value::I64(1)),
                (
                    "rows".to_string(),
                    Value::Array(vec![Value::Object(vec![(
                        "speedup".to_string(),
                        Value::F64(poison),
                    )])]),
                ),
            ]);
            let err = validate_artifact(&v).unwrap_err();
            assert!(
                err.contains("$.rows[0].speedup"),
                "error must name the offending path: {err}"
            );
        }
    }

    #[test]
    fn overridden_runs_write_under_target_bench_not_over_committed_artifacts() {
        for name in ["BENCH_serve.json", "results/serve_storm.json"] {
            assert_eq!(artifact_path(name, false), Path::new(name));
            assert_eq!(
                artifact_path(name, true),
                Path::new("target/bench").join(name)
            );
        }
    }

    #[test]
    fn writers_refuse_non_finite_artifacts() {
        #[derive(serde::Serialize)]
        struct Bad {
            schema_version: u32,
            value: f64,
        }
        // The writers validate this exact tree before encoding; a failing
        // validation means the file is refused, not silently nulled.
        let tree = envelope(serde_json::to_value(&Bad {
            schema_version: RESULTS_SCHEMA_VERSION,
            value: f64::NAN,
        }));
        assert!(validate_artifact(&tree).is_err());
    }
}
