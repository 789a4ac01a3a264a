//! Trust-but-verify QoS guard under curve miscalibration — the `qos_guard`
//! experiment.
//!
//! Tunes a tradeoff curve for the selected benchmark, ships its promises
//! unchanged, then deploys it on a device where the aggressive (fast) half
//! of the curve delivers *more* QoS loss than the dev-time calibration
//! measured: for each severity `s` in [`SEVERITIES`] a
//! [`MiscalibratedExecutor`] delivers `s×` the promised loss (at least two
//! QoS points per severity unit, so the sweep is meaningful however tight
//! the tuned curve is). A guarded serving run under sustained overload
//! must canary the drift, quarantine every miscalibrated point, repair its
//! promise to the observed estimate, and never plan below the QoS floor —
//! severity 1.0 is the honest control and must convict nothing. A final
//! forced case degrades *every* point far below the floor, driving the
//! exact-fallback safety net. All runs are seeded and deterministic;
//! reports land in `results/qos_guard.json`.

use crate::env::Sizing;
use crate::harness::Prepared;
use crate::report::{pct, Artifact, Table};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::predict::PredictionModel;
use at_core::serve::{
    generate_arrivals, serve_guarded, GuardedServeReport, ServeParams, TrafficPattern,
};
use at_core::TradeoffCurve;
use at_hw::{DisturbedDevice, FrequencyLadder, Scenario};
use at_models::BenchmarkId;

/// One severity's summary row in the artifact.
#[derive(serde::Serialize)]
struct SeverityRow {
    severity: f64,
    lying_points: usize,
    quarantined: usize,
    canaries: usize,
    misses: usize,
    floor_breaches: usize,
    exact_fallback: bool,
    /// Worst absolute error of the repaired promises against the honest
    /// QoS, over the quarantined points (0 when nothing was convicted).
    max_repair_error: f64,
}

/// The whole artifact written to `results/qos_guard.json`.
#[derive(serde::Serialize)]
struct Report {
    schema_version: u32,
    benchmark: String,
    baseline_time_s: f64,
    baseline_qos: f64,
    curve_points: usize,
    qos_floor: f64,
    canary_fraction: f64,
    sweep: Vec<SeverityRow>,
    runs: Vec<GuardedServeReport>,
    forced_fallback: GuardedServeReport,
}

/// The miscalibration sweep; 1.0 is the honest control.
const SEVERITIES: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// The aggressive half of the curve: the faster points, whose promises the
/// sweep miscalibrates.
fn aggressive_indices(curve: &TradeoffCurve) -> Vec<usize> {
    let n = curve.len();
    (n / 2..n).collect()
}

/// What each rung truly delivers at miscalibration `severity`: the
/// aggressive rungs lose `(severity - 1)` extra units of their promised
/// loss — floored at two QoS points per unit, so even a near-lossless
/// tuned curve drifts measurably — while the conservative rungs stay
/// honest. Severity 1.0 is the honest control.
fn delivered_qos(shipped: &TradeoffCurve, baseline_qos: f64, severity: f64) -> Vec<f64> {
    let aggressive = aggressive_indices(shipped);
    shipped
        .points()
        .iter()
        .enumerate()
        .map(|(i, pt)| {
            if aggressive.contains(&i) {
                let promised_loss = baseline_qos - pt.qos;
                pt.qos - (severity - 1.0) * promised_loss.max(2.0)
            } else {
                pt.qos
            }
        })
        .collect()
}

/// The `qos_guard` experiment: tune a curve, sweep promise-inflation
/// severities through guarded overload serving, force the exact fallback,
/// print the summary table.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let p = Prepared::single("qos_guard", sizing, BenchmarkId::ResNet18);
    let honest_curve = p.tune(&p.params(3.0, PredictionModel::Pi1)).curve;
    let baseline_qos = p.baseline_cal_accuracy();
    let base_time = p.base_time(&at_core::install::EdgeDevice::tx2());
    eprintln!(
        "[qos_guard] curve: {} points, baseline {base_time:.4}s, baseline QoS {baseline_qos:.2}",
        honest_curve.len()
    );

    // The per-rung QoS the shipped curve promises.
    let promised = honest_curve.points().iter().map(|q| q.qos);
    let worst_promised = promised.fold(baseline_qos, f64::min);

    // Sustained 2× overload keeps the ladder on the aggressive rungs so
    // canaries reach every lie; all control timescales scale with the
    // service time.
    let capacity_rps = 1.0 / base_time.max(1e-9);
    let horizon_s = 600.0 * base_time;
    let trace = generate_arrivals(
        &TrafficPattern::Steady {
            rate_rps: 2.0 * capacity_rps,
        },
        horizon_s,
        0x6A4D,
    );
    let quiet = DisturbedDevice::tx2(Scenario::new(
        "quiet",
        FrequencyLadder::tx2_gpu(),
        usize::MAX / 2,
        1,
    ));
    // A tight deadline: with the queue saturated by the 2× overload the
    // ladder's required speedup exceeds the curve's top, so it clamps to
    // the fastest surviving rung — exactly the aggressive half under test,
    // cascading down as convictions land.
    let serve_params = ServeParams {
        deadline_s: 5.0 * base_time,
        cooldown_s: 25.0 * base_time,
        baseline_qos,
        ..ServeParams::default()
    };
    // Floor with headroom below the worst *promised* rung: the sweep's
    // breaches come from delivered drift, never from honest points
    // straddling the floor.
    let qos_floor = worst_promised - 5.0;
    let canary_fraction = 0.25;
    let guard_params = GuardParams {
        canary_fraction,
        canary_seed: 0xCA9A,
        tolerance: 1.0,
        strikes_to_quarantine: 3,
        qos_floor,
    };
    let mut table = Table::new(&[
        "Severity",
        "Lying",
        "Quarantined",
        "Canaries",
        "Misses",
        "Breaches",
        "Fallback",
        "RepairErr",
        "On-time",
    ]);
    let mut sweep: Vec<SeverityRow> = Vec::new();
    let mut runs: Vec<GuardedServeReport> = Vec::new();
    // One guarded run on a device whose rungs truly deliver `honest_qos`.
    let guarded = |honest_qos: Vec<f64>| {
        let exec = MiscalibratedExecutor {
            honest_qos,
            jitter: 0.2,
            seed: 0xB0B,
        };
        serve_guarded(
            &honest_curve,
            base_time,
            &quiet,
            &trace,
            &exec,
            &serve_params,
            &guard_params,
        )
    };

    for severity in SEVERITIES {
        let delivered = delivered_qos(&honest_curve, baseline_qos, severity);
        let lying_points = if severity > 1.0 {
            aggressive_indices(&honest_curve).len()
        } else {
            0
        };
        let r = guarded(delivered.clone());
        let max_repair_error = r
            .guard
            .quarantined
            .iter()
            .map(|&i| (r.guard.repaired_curve.points()[i].qos - delivered[i]).abs())
            .fold(0.0, f64::max);
        table.row(vec![
            format!("{severity:.2}x"),
            format!("{lying_points}"),
            format!("{}", r.guard.quarantined.len()),
            format!("{}", r.guard.canaries),
            format!("{}", r.guard.misses),
            format!("{}", r.guard.floor_breaches),
            format!("{}", r.guard.exact_fallback),
            format!("{max_repair_error:.3}"),
            pct(100.0 * r.serve.deadline_hit_rate()),
        ]);
        sweep.push(SeverityRow {
            severity,
            lying_points,
            quarantined: r.guard.quarantined.len(),
            canaries: r.guard.canaries,
            misses: r.guard.misses,
            floor_breaches: r.guard.floor_breaches,
            exact_fallback: r.guard.exact_fallback,
            max_repair_error,
        });
        runs.push(r);
    }

    // Forced fallback: every rung truly delivers far below a floor set
    // directly under the baseline, while the promises still claim honesty —
    // quarantine must exhaust the curve and clamp to exact.
    let forced = guarded(vec![qos_floor - 10.0; honest_curve.len()]);
    println!("\nTrust-but-verify QoS guard — curve miscalibration sweep\n");
    table.print();
    println!(
        "\nforced fallback: {} of {} points quarantined, exact_fallback={}, floor {qos_floor:.2}",
        forced.guard.quarantined.len() + forced.guard.premasked_below_floor.len(),
        honest_curve.len(),
        forced.guard.exact_fallback,
    );

    Artifact::results_compact(
        "qos_guard",
        &Report {
            schema_version: crate::report::RESULTS_SCHEMA_VERSION,
            benchmark: p.name().to_string(),
            baseline_time_s: base_time,
            baseline_qos,
            curve_points: honest_curve.len(),
            qos_floor,
            canary_fraction,
            sweep,
            runs,
            forced_fallback: forced,
        },
    )
}
