//! Overload-resilient serving under an adversarial storm — the
//! `serve_storm` experiment.
//!
//! Tunes a tradeoff curve for the selected benchmark, then drives the
//! `at_core::serve` discrete-event serving loop through three arrival
//! patterns against the simulated TX2: a steady control run, a bursty
//! duty-cycle, and the adversarial storm — a 5× traffic spike with a rail
//! brownout (plus sensor dropout) scripted across the same window and a
//! scripted executor-fault burst that trips the circuit breaker. Every run
//! is seeded and deterministic; all reports land in
//! `results/serve_storm.json`.

use crate::env::Sizing;
use crate::harness::Prepared;
use crate::report::{pct, Artifact, Table};
use at_core::predict::PredictionModel;
use at_core::serve::{
    generate_arrivals, serve, ScriptedFaultExecutor, ServeParams, ServeReport, TrafficPattern,
};
use at_hw::{DisturbedDevice, FrequencyLadder, Scenario};
use at_models::BenchmarkId;

/// The whole artifact written to `results/serve_storm.json`.
#[derive(serde::Serialize)]
struct Report {
    schema_version: u32,
    benchmark: String,
    baseline_time_s: f64,
    baseline_qos: f64,
    curve_points: usize,
    curve_max_speedup: f64,
    runs: Vec<ServeReport>,
}

/// The `serve_storm` experiment: tune a curve, serve the three arrival
/// patterns, print the summary table.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let p = Prepared::single("serve_storm", sizing, BenchmarkId::ResNet18);
    let curve = p.tune(&p.params(3.0, PredictionModel::Pi1)).curve;
    let baseline_qos = p.baseline_cal_accuracy();
    let base_time = p.base_time(&at_core::install::EdgeDevice::tx2());
    let max_speedup = curve.points().iter().map(|q| q.perf).fold(1.0, f64::max);
    eprintln!(
        "[serve_storm] curve: {} points, max speedup {max_speedup:.2}x, baseline {base_time:.4}s",
        curve.len()
    );

    // Rates are expressed relative to baseline service capacity so the
    // experiment is meaningful whatever the benchmark's absolute speed:
    // background load is half of capacity, over 400 baseline service times.
    let capacity_rps = 1.0 / base_time.max(1e-9);
    let base_rps = 0.5 * capacity_rps;
    let horizon_s = 4.0 * 100.0 * base_time;
    // All control timescales are multiples of the service time, so the
    // experiment behaves identically whether the benchmark serves in
    // microseconds or seconds.
    let serve_params = ServeParams {
        deadline_s: 15.0 * base_time,
        cooldown_s: 25.0 * base_time,
        baseline_qos,
        ..ServeParams::default()
    };

    let mut table = Table::new(&[
        "Case",
        "Pattern",
        "Arrivals",
        "Admitted",
        "On-time",
        "Late",
        "Faulted",
        "Shed q/d/b",
        "Trips",
        "Esc/De",
        "p99",
        "QoS",
    ]);
    let quiet = DisturbedDevice::tx2(Scenario::new(
        "quiet",
        FrequencyLadder::tx2_gpu(),
        usize::MAX / 2,
        1,
    ));
    // The storm: a 5× traffic spike over the middle of the horizon, a rail
    // brownout + sensor dropout scripted across the same window (mapped to
    // execution indices via the background rate), and a scripted
    // executor-fault burst inside the storm that trips the breaker.
    let spike_at = 0.4 * horizon_s;
    let spike_len = 0.25 * horizon_s;
    let exec_at = (base_rps * spike_at) as usize;
    let exec_len = (5.0 * base_rps * spike_len) as usize;
    let storm_device = DisturbedDevice::tx2(Scenario::brownout_storm(
        usize::MAX / 2,
        exec_at,
        exec_len,
        0.6,
        23,
    ));
    // (label, device, arrivals, executor-fault windows): a steady control
    // on a quiet device, a bursty duty-cycle at 3× background, the storm.
    let cases = [
        (
            "steady",
            &quiet,
            TrafficPattern::Steady { rate_rps: base_rps },
            vec![],
        ),
        (
            "bursty",
            &quiet,
            TrafficPattern::Bursty {
                base_rps,
                burst_rps: 3.0 * base_rps,
                period_s: horizon_s / 6.0,
                duty: 0.4,
            },
            vec![],
        ),
        (
            "storm",
            &storm_device,
            TrafficPattern::Spike {
                base_rps,
                spike_rps: 5.0 * base_rps,
                at_s: spike_at,
                len_s: spike_len,
            },
            vec![(exec_at + 20, 5)],
        ),
    ];
    let mut runs: Vec<ServeReport> = Vec::new();
    for (label, device, pattern, windows) in cases {
        let trace = generate_arrivals(&pattern, horizon_s, 0x5709 ^ label.len() as u64);
        let exec = ScriptedFaultExecutor { windows };
        let report = serve(&curve, base_time, device, &trace, &exec, &serve_params);
        table.row(vec![
            label.to_string(),
            report.pattern.clone(),
            format!("{}", report.arrivals),
            format!("{}", report.admitted),
            pct(100.0 * report.deadline_hit_rate()),
            format!("{}", report.served_late),
            format!("{}", report.faulted),
            format!(
                "{}/{}/{}",
                report.shed_queue_full, report.shed_deadline, report.shed_breaker
            ),
            format!("{}", report.breaker_trips),
            format!("{}/{}", report.escalations, report.deescalations),
            format!("{:.3}s", report.p99_latency_s),
            format!("{:.2}", report.mean_qos),
        ]);
        runs.push(report);
    }

    println!("\nOverload-resilient serving — admission, ladder, breaker\n");
    table.print();

    let storm = &runs[2];
    println!(
        "\nstorm: {} of {} admitted met the deadline ({}), breaker tripped {} time(s), final state {:?}",
        storm.served_on_time,
        storm.admitted,
        pct(100.0 * storm.deadline_hit_rate()),
        storm.breaker_trips,
        storm.final_breaker,
    );

    Artifact::results_compact(
        "serve_storm",
        &Report {
            schema_version: crate::report::RESULTS_SCHEMA_VERSION,
            benchmark: p.name().to_string(),
            baseline_time_s: base_time,
            baseline_qos,
            curve_points: curve.len(),
            curve_max_speedup: max_speedup,
            runs,
        },
    )
}
