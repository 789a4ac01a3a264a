//! Runtime adaptation (§5, evaluated in §6.4): the `runtime_adapt`
//! closed-loop experiment under injected hardware disturbances, and the
//! paper's own `fig6` frequency sweep. Both drive the
//! `at_core::closed_loop` driver, one invocation per batch, with the
//! run-time controller every serving replica runs: feed-forward on the
//! sensed clock, EWMA feedback under a ±10 % dead-band.
//!
//! `runtime_adapt` regenerates the paper's frequency-change adaptation
//! figure: a per-invocation time series of sensed frequency, selected
//! configuration, achieved speedup and QoS, under four scripted scenarios
//! against the simulated TX2 — the 12-step DVFS sweep, a
//! thermal-throttling ramp, a brownout plus load spike, and a sensor
//! dropout. Both control policies run over the same shipped curve; all
//! traces are deterministic (seeded) and written to
//! `results/runtime_adapt.json`.

use crate::env::Sizing;
use crate::harness::{sweep, Prepared};
use crate::report::{Artifact, Table};
use at_core::closed_loop::{run_closed_loop, ClosedLoopParams, ClosedLoopReport, TraceRow};
use at_core::install::{EdgeDevice, InstallObjective};
use at_core::perf::Pricing;
use at_core::predict::PredictionModel;
use at_core::runtime::Policy;
use at_core::TradeoffCurve;
use at_hw::{Disturbance, DisturbedDevice, FrequencyLadder, Scenario};
use at_models::BenchmarkId;

/// Per-ladder-step aggregate of the DVFS-sweep figure.
#[derive(serde::Serialize)]
struct SweepStepRow {
    freq_mhz: f64,
    static_norm_time: f64,
    static_norm_time_roofline: f64,
    dynamic_norm_time_p1: f64,
    dynamic_norm_time_p2: f64,
    qos_p1: f64,
    qos_p2: f64,
}

/// The whole artifact written to `results/runtime_adapt.json`.
#[derive(serde::Serialize)]
struct Report {
    schema_version: u32,
    benchmark: String,
    baseline_time_s: f64,
    baseline_qos: f64,
    curve_points: usize,
    curve_max_speedup: f64,
    sweep_figure: Vec<SweepStepRow>,
    runs: Vec<ClosedLoopReport>,
}

fn scenarios(batches_per_freq: usize) -> Vec<Scenario> {
    let ladder = FrequencyLadder::tx2_gpu();
    vec![
        Scenario::tx2_dvfs_sweep(batches_per_freq),
        Scenario::new("thermal-throttle", ladder.clone(), 240, 11).with(Disturbance::ThermalRamp {
            at: 40,
            len: 80,
            floor_idx: 8,
        }),
        Scenario::new("brownout-spike", ladder.clone(), 240, 12)
            .with(Disturbance::Brownout {
                at: 40,
                len: 60,
                frequency_factor: 0.65,
            })
            .with(Disturbance::LoadSpike {
                at: 140,
                len: 60,
                time_factor: 1.6,
            })
            .with(Disturbance::TimingJitter { amplitude: 0.01 }),
        Scenario::new("sensor-dropout", ladder, 240, 13)
            .with(Disturbance::SensorDropout { at: 40, len: 120 })
            .with(Disturbance::GovernorStep {
                at: 60,
                ladder_idx: 7,
            }),
    ]
}

/// Mean normalised time of the *static* (no adaptation) program under a
/// scenario — what Figure 6 plots as the growing dashed line.
fn static_mean_norm(device: &DisturbedDevice, baseline: f64) -> f64 {
    let n = device.scenario().invocations();
    (0..n)
        .map(|i| device.invocation_time(&device.state_at(i), baseline, 1.0) / baseline)
        .sum::<f64>()
        / n.max(1) as f64
}

/// Mean of `f` over a run of trace rows (one ladder step's invocations).
fn mean(rows: &[TraceRow], f: impl Fn(&TraceRow) -> f64) -> f64 {
    rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
}

/// Batches the DVFS sweeps dwell on each ladder step.
const BATCHES_PER_FREQ: usize = 20;

/// Development-time tuning at ΔQoS 3% (Π1), then install-time software-only
/// refinement: predicted performance is replaced by `device`-modelled
/// speedup.
fn refined_curve(p: &Prepared, device: &EdgeDevice) -> TradeoffCurve {
    let params = p.params(3.0, PredictionModel::Pi1);
    let objective = InstallObjective::Speedup;
    p.tuner()
        .refine(
            &Pricing::Device { device, objective },
            &p.tune(&params).curve,
            params.qos_min,
        )
        .expect("refinement succeeds")
}

/// The `runtime_adapt` experiment: tune + refine a curve, replay every
/// scenario under both policies, print the summary tables.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice::tx2();
    let p = Prepared::single("runtime_adapt", sizing, BenchmarkId::ResNet18);
    let curve = refined_curve(&p, &device);
    let baseline_qos = p.baseline_cal_accuracy();
    let base_time = p.base_time(&device);
    let max_speedup = curve.points().iter().map(|q| q.perf).fold(1.0, f64::max);
    eprintln!(
        "[runtime_adapt] curve: {} points, max speedup {max_speedup:.2}x, baseline {base_time:.4}s",
        curve.len()
    );

    let mut runs: Vec<ClosedLoopReport> = Vec::new();
    let mut summary = Table::new(&[
        "Scenario",
        "Policy",
        "Static time (norm)",
        "Dynamic time (norm)",
        "Hit rate (2%)",
        "Switches",
        "Breaches",
        "QoS drop (pp)",
    ]);
    for scenario in scenarios(BATCHES_PER_FREQ) {
        let disturbed = DisturbedDevice::new(scenario, device.power.clone());
        let static_norm = static_mean_norm(&disturbed, base_time);
        for policy in [Policy::EnforceEachInvocation, Policy::AverageOverTime] {
            let report = run_closed_loop(
                &curve,
                base_time,
                &disturbed,
                &ClosedLoopParams {
                    policy,
                    seed: 7,
                    baseline_qos,
                },
            );
            summary.row(vec![
                report.scenario.clone(),
                report.policy.clone(),
                format!("{static_norm:.2}"),
                format!("{:.3}", report.mean_norm_time),
                format!("{:.0}%", 100.0 * report.target_hit_rate(0.02)),
                format!("{}", report.switches),
                format!("{}", report.breaches),
                format!("{:.2}", baseline_qos - report.mean_qos),
            ]);
            runs.push(report);
        }
    }

    // Per-ladder-step aggregation of the sweep runs — the figure's x-axis.
    let ladder = FrequencyLadder::tx2_gpu();
    let (p1, p2) = (&runs[0], &runs[1]);
    let mut sweep_figure = Vec::new();
    let mut fig_table = Table::new(&[
        "Freq (MHz)",
        "Static (norm)",
        "Roofline (norm)",
        "P1 dyn (norm)",
        "P2 dyn (norm)",
        "P1 QoS",
        "P2 QoS",
    ]);
    for step in 0..ladder.len() {
        let lo = step * BATCHES_PER_FREQ;
        let hi = lo + BATCHES_PER_FREQ;
        // The roofline static time uses the full timing model at the step's
        // clock: memory-bound layers flatten the slowdown slightly below
        // the compute-bound `f_nominal / f` line.
        let mut throttled = device.clone();
        throttled.timing = device.timing.clone().with_frequency_mhz(ladder.at(step));
        let roofline = p.base_time(&throttled) / base_time;
        let row = SweepStepRow {
            freq_mhz: ladder.at(step),
            static_norm_time: ladder.slowdown(step),
            static_norm_time_roofline: roofline,
            dynamic_norm_time_p1: mean(&p1.trace[lo..hi], |r| r.norm_time),
            dynamic_norm_time_p2: mean(&p2.trace[lo..hi], |r| r.norm_time),
            qos_p1: mean(&p1.trace[lo..hi], |r| r.qos),
            qos_p2: mean(&p2.trace[lo..hi], |r| r.qos),
        };
        fig_table.row(vec![
            format!("{:.0}", row.freq_mhz),
            format!("{:.2}", row.static_norm_time),
            format!("{:.2}", row.static_norm_time_roofline),
            format!("{:.2}", row.dynamic_norm_time_p1),
            format!("{:.2}", row.dynamic_norm_time_p2),
            format!("{:.2}", row.qos_p1),
            format!("{:.2}", row.qos_p2),
        ]);
        sweep_figure.push(row);
    }

    println!("\n{}: closed loop under injected disturbances\n", p.name());
    summary.print();
    println!("\nDVFS sweep, per frequency step (dynamic stays near 1.0 while QoS degrades):\n");
    fig_table.print();

    Artifact::results_compact(
        "runtime_adapt",
        &Report {
            schema_version: crate::report::RESULTS_SCHEMA_VERSION,
            benchmark: p.name().to_string(),
            baseline_time_s: base_time,
            baseline_qos,
            curve_points: curve.len(),
            curve_max_speedup: max_speedup,
            sweep_figure,
            runs,
        },
    )
}

/// Figure 6: for ResNet-18, AlexNet-ImageNet and AlexNet2 the GPU frequency
/// is swept down the 12-step ladder. Without dynamic approximation the
/// normalized batch time grows like the slowdown; with the closed loop
/// (`AT_POLICY`, one invocation per batch) the time stays near 1.0 while
/// inference accuracy degrades gracefully.
pub(crate) fn fig6(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice::tx2();
    let ladder = FrequencyLadder::tx2_gpu();
    let swept = DisturbedDevice::new(
        Scenario::tx2_dvfs_sweep(BATCHES_PER_FREQ),
        device.power.clone(),
    );
    let default = [
        BenchmarkId::ResNet18,
        BenchmarkId::AlexNetImageNet,
        BenchmarkId::AlexNet2,
    ];
    let rows = sweep("fig6", sizing, &default, |p| {
        let curve = refined_curve(p, &device);
        if curve.is_empty() {
            eprintln!("[fig6] {}: empty curve, skipping", p.name());
            return vec![];
        }
        // Test accuracy of every curve point, measured once.
        let accuracies: Vec<f64> = curve
            .points()
            .iter()
            .map(|pt| p.accuracy(&pt.config, &p.test))
            .collect();
        let base_acc = p.baseline_test_accuracy();
        let run = run_closed_loop(
            &curve,
            p.base_time(&device),
            &swept,
            &ClosedLoopParams {
                policy: sizing.policy,
                seed: 7,
                baseline_qos: base_acc,
            },
        );

        let mut table = Table::new(&[
            "Freq (MHz)",
            "Static time (norm)",
            "Dynamic time (norm)",
            "Accuracy (%)",
            "Acc drop (pp)",
        ]);
        let mut rows = Vec::new();
        // Switches so far: rows whose selection differs from the previous
        // row's (the run starts on the baseline).
        let (mut switches, mut prev) = (0usize, None);
        for (step, batches) in run.trace.chunks(BATCHES_PER_FREQ).enumerate() {
            let slowdown = ladder.slowdown(step);
            let avg_dyn = mean(batches, |r| r.norm_time);
            let avg_acc = mean(batches, |r| r.selected.map_or(base_acc, |i| accuracies[i]));
            for r in batches {
                switches += usize::from(r.selected != prev);
                prev = r.selected;
            }
            table.row(vec![
                format!("{:.0}", ladder.at(step)),
                format!("{slowdown:.2}"),
                format!("{avg_dyn:.2}"),
                format!("{avg_acc:.2}"),
                format!("{:.2}", base_acc - avg_acc),
            ]);
            rows.push(serde_json::json!({
                "benchmark": p.name(), "freq_mhz": ladder.at(step),
                "static_norm_time": slowdown, "dynamic_norm_time": avg_dyn,
                "accuracy": avg_acc, "accuracy_drop": base_acc - avg_acc,
                "switches": switches,
            }));
        }
        println!("\n{}:\n", p.name());
        table.print();
        rows
    });
    Artifact::results("fig6", &rows)
}
