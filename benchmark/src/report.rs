//! Turns what a workload measured into the three outputs of a run: the
//! result file, the human-readable table, and the driver's result line.

use crate::metrics::{self, DRIVER_END_TO_END, END_TO_END, PER_LAYER};
use crate::provenance::{self, Provenance};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{Ctx, Measured, Pass};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A run's metrics, by name, with units.
pub struct Assembled {
    /// Every end-to-end metric this workload exercises.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Every per-layer metric (0 where the workload never enters the
    /// layer); empty on an untraced run.
    pub per_layer: BTreeMap<&'static str, f64>,
}

pub fn assemble(workload: &str, ctx: &Ctx, m: &Measured) -> Assembled {
    let mut end_to_end: BTreeMap<&'static str, f64> = BTreeMap::new();
    end_to_end.insert("setup_s", stats::median(&m.setup_s));
    end_to_end.insert("fixed_work_s", m.fixed_work_s());
    end_to_end.insert("wall_s", m.wall_s());
    end_to_end.insert("peak_rss_mb", provenance::peak_rss_mib());
    for def in &END_TO_END {
        if let Some(&v) = m.e2e.get(def.name) {
            debug_assert!(def.workloads.contains(&workload));
            end_to_end.insert(def.name, v);
        }
    }
    let mut per_layer = BTreeMap::new();
    if ctx.traced {
        for def in &PER_LAYER {
            per_layer.insert(def.name, m.layer.get(def.name).copied().unwrap_or(0.0));
        }
    }
    Assembled {
        end_to_end,
        per_layer,
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .map(|d| d.unit)
        .or_else(|| PER_LAYER.iter().find(|d| d.name == name).map(|d| d.unit))
        .unwrap_or("")
}

fn metric_map<'a>(values: impl Iterator<Item = (&'a &'static str, &'a f64)>) -> Value {
    Value::Object(
        values
            .map(|(name, v)| {
                (
                    name.to_string(),
                    json!({"value": *v, "unit": unit_of(name)}),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: `--trace 0` carries the end-to-end
/// metrics every workload reports; `--trace 1` carries every per-layer
/// metric plus the workload-specific end-to-end ones (0 where not run).
pub fn driver_line(ctx: &Ctx, m: &Measured, a: &Assembled) -> String {
    let metrics = if ctx.traced {
        let mut all: BTreeMap<&'static str, f64> = a.per_layer.clone();
        for def in &END_TO_END {
            if !DRIVER_END_TO_END.contains(&def.name) {
                all.insert(def.name, a.end_to_end.get(def.name).copied().unwrap_or(0.0));
            }
        }
        metric_map(all.iter())
    } else {
        metric_map(
            a.end_to_end
                .iter()
                .filter(|(name, _)| DRIVER_END_TO_END.contains(name)),
        )
    };
    let line = json!({
        "correct": m.correct(),
        "attempted": m.attempted.max(1),
        "failed": m.failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("a Value always serialises")
}

/// Wall of each pass: the sum of its timed blocks.
fn pass_walls(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.iter().map(|b| b.secs).sum())
        .collect()
}

fn layer_self_times(tracer: &Tracer) -> Value {
    Value::Object(
        trace::layer_self_s(tracer.spans())
            .into_iter()
            .map(|(layer, s)| (layer.to_string(), json!(s)))
            .collect(),
    )
}

pub fn result_json(
    workload: &str,
    ctx: &Ctx,
    prov: &Provenance,
    m: &Measured,
    a: &Assembled,
    tracer: &Tracer,
) -> Value {
    json!({
        "schema_version": provenance::SCHEMA_VERSION,
        "workload": workload,
        "traced": ctx.traced,
        "quick": ctx.quick,
        "seconds": ctx.seconds,
        "provenance": prov,
        "correct": m.correct(),
        "attempted": m.attempted,
        "failed": m.failed,
        "passes": json!({
            "untraced": m.plain.len(),
            "traced": m.traced.len(),
            "setups": m.setup_s.len(),
            "untraced_wall_s": pass_walls(&m.plain),
            "traced_wall_s": pass_walls(&m.traced),
        }),
        "end_to_end": metric_map(a.end_to_end.iter()),
        "per_layer": metric_map(a.per_layer.iter()),
        "samples": m.samples,
        "checks": m.checks,
        "notes": m.notes,
        "layer_self_time_s": layer_self_times(tracer),
    })
}

/// The trace file: a pretty-printed header, then every span on a line of
/// its own (a run records tens of thousands).
pub fn trace_json(workload: &str, prov: &Provenance, m: &Measured, tracer: &Tracer) -> String {
    let header = json!({
        "schema_version": provenance::SCHEMA_VERSION,
        "workload": workload,
        "provenance": prov,
        "traced_wall_s": trace::root_wall_s(tracer.spans()),
        "layer_self_time_s": layer_self_times(tracer),
        "notes": m.notes,
    });
    let header = serde_json::to_string_pretty(&header).expect("a Value always serialises");
    let spans: Vec<String> = tracer
        .spans()
        .iter()
        .map(|s| serde_json::to_string(s).expect("a span always serialises"))
        .collect();
    format!(
        "{{\n\"header\": {header},\n\"spans\": [\n{}\n]\n}}\n",
        spans.join(",\n")
    )
}

fn write(path: &Path, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the result file (and, traced, `trace-<workload>.json`) under
/// `out_dir`; returns the result file's path.
pub fn write_outputs(
    out_dir: &Path,
    workload: &str,
    ctx: &Ctx,
    result: &Value,
    trace: Option<String>,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    // Runs of one seed must not overwrite each other: `compare` needs sets.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = out_dir.join(format!(
        "result-{workload}-seed{}-trace{}-{stamp}-{}.json",
        ctx.seed,
        u8::from(ctx.traced),
        std::process::id()
    ));
    let text = serde_json::to_string_pretty(result).map_err(|e| e.to_string())?;
    write(&path, text + "\n")?;
    if let Some(trace) = trace {
        write(&out_dir.join(format!("trace-{workload}.json")), trace)?;
    }
    Ok(path)
}

/// The table a person reads: every metric by name with its unit, the
/// sample counts behind percentiles, and the correctness gate.
pub fn print_table(workload: &str, prov: &Provenance, m: &Measured, a: &Assembled) {
    eprintln!(
        "== {workload}  seed {}  {} untraced / {} traced passes  [{} · {} cores · rayon {} · {} · git {}{}]",
        prov.seed,
        m.plain.len(),
        m.traced.len(),
        prov.cpu_model,
        prov.logical_cores,
        prov.rayon_threads,
        prov.rustc,
        &prov.git_sha[..prov.git_sha.len().min(12)],
        if prov.git_dirty { "+dirty" } else { "" },
    );
    eprintln!("-- end to end (tracing off)");
    for (name, v) in &a.end_to_end {
        eprintln!("  {name:<44} {v:>16.6} {}", unit_of(name));
    }
    eprintln!(
        "  {:<44} {:>16} of {}",
        "failed / attempted operations", m.failed, m.attempted
    );
    for (name, s) in &m.samples {
        let tail = match (s.tail_percentile, s.tail_value) {
            (Some(p), Some(v)) => format!("p{p} {v:.4}"),
            _ => "no tail (fewer than 10 samples beyond p75)".into(),
        };
        eprintln!(
            "  {name:<44} n={:<6} p50 {:.4} {}  {tail}",
            s.n, s.p50, s.unit
        );
    }
    if !a.per_layer.is_empty() {
        eprintln!("-- per layer (traced passes and probes; 0 = layer not on this workload's path)");
        for (name, v) in &a.per_layer {
            eprintln!("  {name:<44} {v:>16.6} {}", unit_of(name));
        }
    }
    eprintln!("-- correctness gate");
    for c in &m.checks {
        eprintln!(
            "  [{}] {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for note in &m.notes {
        eprintln!("  note: {note}");
    }
}
