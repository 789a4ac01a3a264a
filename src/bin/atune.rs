//! `atune` — command-line driver for the ApproxTuner reproduction.
//!
//! ```text
//! atune list
//! atune tune <benchmark> [--qos-drop PP] [--model pi1|pi2] [--samples N]
//!                        [--iters N] [--out FILE]
//! atune inspect <artifact.json>
//! atune install <benchmark> <artifact.json> [--no-fp16] [--samples N]
//! ```
//!
//! `tune` runs development-time predictive tuning on a Table-1 benchmark
//! (synthetic teacher-calibrated dataset) and writes a shipped artifact;
//! `install` loads the artifact on the simulated TX2, verifies it matches
//! the program, and refines it: QoS re-measured, speedups from the TX2 GPU or
//! CPU device model.

use approxtuner::core::install::{EdgeDevice, InstallObjective};
use approxtuner::core::knobs::{KnobRegistry, KnobSet};
use approxtuner::core::perf::Pricing;
use approxtuner::core::predict::PredictionModel;
use approxtuner::core::qos::{QosMetric, QosReference};
use approxtuner::core::tuner::{PredictiveTuner, TunerParams};
use approxtuner::core::{Config, ShippedArtifact, TradeoffCurve};
use approxtuner::hw::{DeviceSpec, TimingModel};
use approxtuner::ir::{ApproxChoice, Graph};
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::Precision;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  atune list\n  atune tune <benchmark> [--qos-drop PP] [--model pi1|pi2] \
         [--samples N] [--iters N] [--out FILE]\n  atune inspect <artifact.json>\n  \
         atune install <benchmark> <artifact.json> [--no-fp16] [--samples N]"
    );
    ExitCode::from(2)
}

fn find_benchmark(name: &str) -> Option<BenchmarkId> {
    BenchmarkId::ALL
        .into_iter()
        .find(|id| id.name().eq_ignore_ascii_case(name))
}

struct Flags {
    qos_drop: f64,
    model: PredictionModel,
    samples: usize,
    iters: usize,
    out: Option<String>,
    fp16: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        qos_drop: 3.0,
        model: PredictionModel::Pi1,
        samples: 64,
        iters: 400,
        out: None,
        fp16: true,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--qos-drop" => {
                i += 1;
                f.qos_drop = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--qos-drop needs a number")?;
            }
            "--model" => {
                i += 1;
                f.model = match args.get(i).map(|s| s.as_str()) {
                    Some("pi1") => PredictionModel::Pi1,
                    Some("pi2") => PredictionModel::Pi2,
                    _ => return Err("--model needs pi1 or pi2".into()),
                };
            }
            "--samples" => {
                i += 1;
                f.samples = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--samples needs a number")?;
            }
            "--iters" => {
                i += 1;
                f.iters = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--iters needs a number")?;
            }
            "--out" => {
                i += 1;
                f.out = Some(args.get(i).ok_or("--out needs a path")?.clone());
            }
            "--no-fp16" => f.fp16 = false,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(f)
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<18} {:<10} {:>6}  {:>9}",
        "benchmark", "dataset", "layers", "paper-acc"
    );
    for id in BenchmarkId::ALL {
        println!(
            "{:<18} {:<10} {:>6}  {:>8.2}%",
            id.name(),
            id.dataset(),
            id.paper_layers(),
            id.paper_baseline_accuracy()
        );
    }
    ExitCode::SUCCESS
}

/// Whether any op of `config` runs at FP16.
fn uses_fp16(config: &Config, registry: &KnobRegistry, graph: &Graph) -> bool {
    config.decode(registry, graph).iter().any(|choice| {
        matches!(
            choice,
            ApproxChoice::Digital {
                precision: Precision::Fp16,
                ..
            }
        )
    })
}

fn cmd_tune(name: &str, flags: Flags) -> ExitCode {
    let Some(id) = find_benchmark(name) else {
        eprintln!("unknown benchmark {name} (try `atune list`)");
        return ExitCode::FAILURE;
    };
    let bench = build(id, ModelScale::Tiny);
    let ds = build_dataset(&bench, flags.samples, 16, 0xC11 ^ id as u64);
    let (cal, _) = ds.split();
    let registry = KnobRegistry::new();
    let reference = QosReference::Labels(cal.labels.clone());
    let tuner = PredictiveTuner {
        graph: &bench.graph,
        registry: &registry,
        inputs: &cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: cal.batches[0].shape(),
        promise_seed: 0,
    };
    // Baseline accuracy → absolute bound.
    let base = tuner
        .measure(&Config::baseline(&bench.graph))
        .expect("baseline runs");
    let params = TunerParams {
        qos_min: base - flags.qos_drop,
        max_iters: flags.iters,
        convergence_window: flags.iters / 2,
        model: flags.model,
        knob_set: KnobSet::HardwareIndependent,
        ..Default::default()
    };
    eprintln!(
        "tuning {} ({} ops) for QoS ≥ {:.2}% with {} …",
        id.name(),
        bench.graph.len(),
        params.qos_min,
        flags.model.name()
    );
    let profiles = tuner.collect(&params).expect("profile collection");
    eprintln!(
        "profiles: {} pairs in {:.1}s",
        profiles.pairs.len(),
        profiles.collection_time_s
    );
    let result = tuner.tune(&profiles, &params).expect("tuning");
    eprintln!(
        "search: {} iterations in {:.1}s (α = {:.3}); curve: {} points",
        result.iterations,
        result.tuning_time_s(),
        result.alpha,
        result.curve.len()
    );
    for p in result.curve.points() {
        println!("  qos {:6.2}%  predicted speedup {:5.2}x", p.qos, p.perf);
    }
    // Targets without FP16 units (`install --no-fp16`) select the second
    // slot: the tuned points that use no FP16 knob, Pareto-filtered again
    // since dropping points can leave dominated ones behind.
    let fp32_points: Vec<_> = result
        .curve
        .points()
        .iter()
        .filter(|p| !uses_fp16(&p.config, &registry, &bench.graph))
        .cloned()
        .collect();
    let curve_fp32_only =
        (!fp32_points.is_empty()).then(|| TradeoffCurve::from_points(fp32_points));
    match &curve_fp32_only {
        Some(c) => eprintln!("fp32-only curve: {} of the points above", c.len()),
        None => eprintln!(
            "fp32-only curve: absent (every tuned point uses an FP16 knob); \
             `atune install --no-fp16` will reject this artifact"
        ),
    }
    let artifact = ShippedArtifact::new(
        &bench.graph,
        QosMetric::Accuracy,
        params.qos_min,
        Some(result.curve.clone()),
        curve_fp32_only,
    );
    let path = flags
        .out
        .unwrap_or_else(|| format!("{}.artifact.json", id.name()));
    match std::fs::write(&path, artifact.to_json()) {
        Ok(()) => {
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_inspect(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let art = match ShippedArtifact::from_json(&json) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("artifact rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "program {:?}  fingerprint {:#018x}  schema v{}",
        art.program, art.fingerprint, art.version
    );
    println!(
        "metric {:?}, tuned for QoS ≥ {:.2}",
        art.metric, art.qos_min
    );
    for (tag, curve) in [
        ("fp16", &art.curve_fp16),
        ("fp32-only", &art.curve_fp32_only),
    ] {
        match curve {
            Some(c) => {
                println!("curve [{tag}]: {} points", c.len());
                for p in c.points() {
                    println!("  qos {:6.2}  perf {:5.2}x", p.qos, p.perf);
                }
            }
            None => println!("curve [{tag}]: absent"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_install(name: &str, path: &str, flags: Flags) -> ExitCode {
    let Some(id) = find_benchmark(name) else {
        eprintln!("unknown benchmark {name}");
        return ExitCode::FAILURE;
    };
    let bench = build(id, ModelScale::Tiny);
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = ShippedArtifact::from_json(&json).and_then(|art| {
        ShippedArtifact::load(&json, &bench.graph, flags.fp16).map(|c| (art.qos_min, c))
    });
    let (qos_min, curve) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("artifact rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ds = build_dataset(&bench, flags.samples, 16, 0xC11 ^ id as u64);
    let (cal, _) = ds.split();
    let registry = KnobRegistry::new();
    let reference = QosReference::Labels(cal.labels.clone());
    let device = if flags.fp16 {
        EdgeDevice::tx2()
    } else {
        EdgeDevice {
            timing: TimingModel::new(DeviceSpec::tx2_cpu()),
            ..EdgeDevice::tx2()
        }
    };
    let pricing = Pricing::Device {
        device: &device,
        objective: InstallObjective::Speedup,
    };
    let tuner = PredictiveTuner {
        graph: &bench.graph,
        registry: &registry,
        inputs: &cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: cal.batches[0].shape(),
        promise_seed: 0,
    };
    let refined = tuner.refine(&pricing, &curve, qos_min).expect("refinement");
    let target = if flags.fp16 { "tx2-gpu" } else { "tx2-cpu" };
    println!(
        "install-time curve on {target} ({} points), priced by the {target} device model:",
        refined.len()
    );
    for p in refined.points() {
        println!("  qos {:6.2}%  modelled speedup {:5.2}x", p.qos, p.perf);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("list") => cmd_list(),
        Some("tune") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            match parse_flags(&args[2..]) {
                Ok(f) => cmd_tune(name, f),
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
        Some("inspect") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            cmd_inspect(path)
        }
        Some("install") => {
            let (Some(name), Some(path)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            match parse_flags(&args[3..]) {
                Ok(f) => cmd_install(name, path, f),
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
        _ => usage(),
    }
}
