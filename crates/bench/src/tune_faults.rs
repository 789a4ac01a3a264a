//! Fault-tolerance sweep over the development-time tuner — the
//! `tune_faults` experiment.
//!
//! Injects deterministic faults (transient errors, panics, stalls,
//! poisoned QoS/perf readings) into every candidate evaluation at each of
//! the per-attempt fault [`RATES`], and reports how the supervised tuning
//! pipeline holds up: faults absorbed, retries spent, candidates
//! quarantined or skipped, and how close the final curve stays to the
//! zero-fault run. Also demonstrates crash recovery: the highest-rate run
//! is repeated with a checkpoint + forced halt + resume, and the resumed
//! result is compared bit-for-bit against the uninterrupted one. Results go
//! to `results/fault_tolerance.json`.

use crate::env::Sizing;
use crate::harness::Prepared;
use crate::report::{fx, Artifact, Table};
use at_core::checkpoint::{CheckpointPolicy, SearchCheckpoint};
use at_core::fault::{FaultMix, FaultPlan};
use at_core::predict::PredictionModel;
use at_core::supervise::FaultStats;
use at_core::tuner::{RobustnessParams, TunerParams, TuningResult};
use at_models::BenchmarkId;

/// One row of the fault-rate sweep.
#[derive(serde::Serialize)]
struct RateRow {
    fault_rate: f64,
    curve_points: usize,
    best_speedup: f64,
    best_vs_clean: f64,
    iterations: usize,
    search_time_s: f64,
    faults: FaultStats,
}

/// The crash-recovery demonstration at the highest sweep rate.
#[derive(serde::Serialize)]
struct ResumeDemo {
    fault_rate: f64,
    halted_after_rounds: usize,
    resume_bit_identical: bool,
}

/// The whole artifact written to `results/fault_tolerance.json`.
#[derive(serde::Serialize)]
struct Report {
    schema_version: u32,
    benchmark: String,
    qos_min: f64,
    fault_seed: u64,
    sweep: Vec<RateRow>,
    resume: ResumeDemo,
}

/// Per-attempt fault rates of the sweep; the last (highest) one also runs
/// the crash-recovery demonstration.
const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

fn robustness(rate: f64, seed: u64) -> RobustnessParams {
    RobustnessParams {
        fault_plan: (rate > 0.0).then(|| FaultPlan {
            rate,
            seed,
            mix: FaultMix::default(),
            stall_ms: 0,
        }),
        ..RobustnessParams::default()
    }
}

fn best_speedup(r: &TuningResult) -> f64 {
    r.curve.points().iter().map(|p| p.perf).fold(1.0, f64::max)
}

/// The `tune_faults` experiment: runs the sweep and the crash-recovery
/// demonstration, prints the summary table.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let fault_seed = sizing.fault_seed;
    let p = Prepared::single("tune_faults", sizing, BenchmarkId::LeNet);
    let base_params = p.params(3.0, PredictionModel::Pi1);

    let tune_at = |robust: RobustnessParams| -> TuningResult {
        let params = TunerParams {
            robustness: robust,
            ..base_params.clone()
        };
        p.tune(&params)
    };

    // The sweep.
    let mut sweep = Vec::new();
    let mut clean_best = 1.0;
    for rate in RATES {
        eprintln!("[tune_faults] tuning at fault rate {rate} …");
        let r = tune_at(robustness(rate, fault_seed));
        let best = best_speedup(&r);
        if rate == 0.0 {
            clean_best = best;
        }
        sweep.push(RateRow {
            fault_rate: rate,
            curve_points: r.curve.len(),
            best_speedup: best,
            best_vs_clean: best / clean_best.max(1e-12),
            iterations: r.iterations,
            search_time_s: r.search_time_s,
            faults: r.faults,
        });
    }

    // Crash recovery at the highest rate: checkpoint, halt mid-search,
    // resume from disk, and compare against the uninterrupted run.
    let demo_rate = RATES[RATES.len() - 1];
    let halt_after = 4usize;
    let ckpt_path = std::path::Path::new("target").join("tune_faults.ckpt.json");
    eprintln!("[tune_faults] crash-recovery demo at rate {demo_rate} …");
    let uninterrupted = tune_at(robustness(demo_rate, fault_seed));
    let halted = tune_at(RobustnessParams {
        checkpoint: Some(CheckpointPolicy::new(2, &ckpt_path)),
        halt_after_rounds: Some(halt_after),
        ..robustness(demo_rate, fault_seed)
    });
    let resumed = match SearchCheckpoint::load(&ckpt_path) {
        Ok(ckpt) => Some(tune_at(RobustnessParams {
            resume_from: Some(ckpt),
            ..robustness(demo_rate, fault_seed)
        })),
        Err(e) => {
            eprintln!("[tune_faults] checkpoint load failed: {e}");
            None
        }
    };
    let resume_bit_identical = resumed.as_ref().is_some_and(|r| {
        r.curve.to_json() == uninterrupted.curve.to_json()
            && r.telemetry == uninterrupted.telemetry
            && r.faults == uninterrupted.faults
            && r.iterations == uninterrupted.iterations
    });
    let _ = std::fs::remove_file(&ckpt_path);

    // Console summary.
    let mut t = Table::new(&[
        "rate", "absorbed", "retries", "quarant.", "skipped", "curve", "best", "vs clean", "iters",
    ]);
    for row in &sweep {
        t.row(vec![
            format!("{:.2}", row.fault_rate),
            row.faults.faults_absorbed().to_string(),
            row.faults.retries.to_string(),
            row.faults.quarantined.to_string(),
            row.faults.skipped.to_string(),
            row.curve_points.to_string(),
            fx(row.best_speedup),
            format!("{:.3}", row.best_vs_clean),
            row.iterations.to_string(),
        ]);
    }
    t.print();
    println!(
        "crash recovery at rate {:.2}: halted after {} rounds, resume bit-identical: {}",
        demo_rate,
        if halted.halted { halt_after } else { 0 },
        resume_bit_identical
    );

    let report = Report {
        schema_version: crate::report::RESULTS_SCHEMA_VERSION,
        benchmark: p.name().to_string(),
        qos_min: base_params.qos_min,
        fault_seed,
        sweep,
        resume: ResumeDemo {
            fault_rate: demo_rate,
            halted_after_rounds: if halted.halted { halt_after } else { 0 },
            resume_bit_identical,
        },
    };
    Artifact::results_compact("fault_tolerance", &report)
}
