//! Overload-resilient serving under an adversarial storm — the body of the
//! `serve_storm` binary.
//!
//! Tunes a tradeoff curve for the selected benchmark, then drives the
//! `at_core::serve` discrete-event serving loop through three arrival
//! patterns against the simulated TX2: a steady control run, a bursty
//! duty-cycle, and the adversarial storm — a 5× traffic spike with a rail
//! brownout (plus sensor dropout) scripted across the same window and a
//! scripted executor-fault burst that trips the circuit breaker. Every run
//! is seeded and deterministic; all reports land in
//! `results/serve_storm.json`.
//!
//! Environment: `AT_BENCH` selects the benchmark (`resnet18` default,
//! `alexnet`, `alexnet2`), `AT_SERVE_RPS` the background arrival rate as a
//! fraction of service capacity (default 0.5), `AT_SERVE_HORIZON` the
//! simulated horizon in multiples of 100 baseline service times (default
//! 4), plus the usual harness sizing variables (`AT_SAMPLES`, `AT_ITERS`,
//! …).

use crate::env;
use crate::harness::{Prepared, Sizing};
use crate::report::{pct, Table};
use at_core::predict::PredictionModel;
use at_core::serve::{
    generate_arrivals, serve, ScriptedFaultExecutor, ServeParams, ServeReport, TrafficPattern,
};
use at_core::TradeoffCurve;
use at_hw::{DisturbedDevice, FrequencyLadder, Scenario};
use at_models::BenchmarkId;

/// The whole artifact written to `results/serve_storm.json`.
#[derive(serde::Serialize)]
struct Artifact {
    schema_version: u32,
    benchmark: String,
    baseline_time_s: f64,
    baseline_qos: f64,
    curve_points: usize,
    curve_max_speedup: f64,
    runs: Vec<ServeReport>,
}

/// One serving run, returning the report and printing a summary row.
#[allow(clippy::too_many_arguments)]
fn run_case(
    table: &mut Table,
    label: &str,
    curve: &TradeoffCurve,
    base_time: f64,
    device: &DisturbedDevice,
    pattern: &TrafficPattern,
    horizon_s: f64,
    fault_windows: Vec<(usize, usize)>,
    params: &ServeParams,
) -> ServeReport {
    let trace = generate_arrivals(pattern, horizon_s, 0x5709 ^ label.len() as u64);
    let exec = ScriptedFaultExecutor {
        windows: fault_windows,
    };
    let report = serve(curve, base_time, device, &trace, &exec, params);
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
    report
}

/// Runs the whole experiment: tune a curve, serve the three arrival
/// patterns, print the summary table and write the JSON artifact.
pub fn run() {
    let sizing = Sizing::from_env();
    let id = match std::env::var("AT_BENCH").as_deref() {
        Ok("alexnet") => BenchmarkId::AlexNetImageNet,
        Ok("alexnet2") => BenchmarkId::AlexNet2,
        _ => BenchmarkId::ResNet18,
    };

    eprintln!("[serve_storm] preparing {} …", id.name());
    let p = Prepared::new(id, sizing);
    let profiles = p.profiles(at_core::knobs::KnobSet::HardwareIndependent);
    let params = p.params(3.0, PredictionModel::Pi1, sizing);
    let dev_result = p.tune(&profiles, &params);
    let curve = dev_result.curve.clone();
    let baseline_qos = p.baseline_cal_accuracy();

    let device = at_core::install::EdgeDevice::tx2();
    let perf = at_core::perf::PerfModel::new(&p.bench.graph, &p.registry, p.cal.batches[0].shape())
        .expect("perf model");
    let baseline_cfg = at_core::Config::baseline(&p.bench.graph);
    let base_time = perf.device_time(&baseline_cfg, &device.timing, &device.promise);
    let max_speedup = curve.points().iter().map(|q| q.perf).fold(1.0, f64::max);
    eprintln!(
        "[serve_storm] curve: {} points, max speedup {max_speedup:.2}x, baseline {base_time:.4}s",
        curve.len()
    );

    // Rates are expressed relative to baseline service capacity so the
    // experiment is meaningful whatever the benchmark's absolute speed.
    let capacity_rps = 1.0 / base_time.max(1e-9);
    let base_rps = env::f64_var("AT_SERVE_RPS", &[], 0.5) * capacity_rps;
    let horizon_s = env::f64_var("AT_SERVE_HORIZON", &[], 4.0) * 100.0 * base_time;
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
    let mut runs: Vec<ServeReport> = Vec::new();

    // Control: steady background load, quiet device.
    let quiet = DisturbedDevice::tx2(Scenario::new(
        "quiet",
        FrequencyLadder::tx2_gpu(),
        usize::MAX / 2,
        1,
    ));
    runs.push(run_case(
        &mut table,
        "steady",
        &curve,
        base_time,
        &quiet,
        &TrafficPattern::Steady { rate_rps: base_rps },
        horizon_s,
        vec![],
        &serve_params,
    ));

    // Bursty duty-cycle at 3× background.
    runs.push(run_case(
        &mut table,
        "bursty",
        &curve,
        base_time,
        &quiet,
        &TrafficPattern::Bursty {
            base_rps,
            burst_rps: 3.0 * base_rps,
            period_s: horizon_s / 6.0,
            duty: 0.4,
        },
        horizon_s,
        vec![],
        &serve_params,
    ));

    // The storm: a 5× traffic spike over the middle of the horizon, a rail
    // brownout + sensor dropout scripted across the same window (mapped to
    // execution indices via the background rate), and a scripted
    // executor-fault burst inside the storm that trips the breaker.
    let spike_at = 0.4 * horizon_s;
    let spike_len = 0.25 * horizon_s;
    let exec_at = (base_rps * spike_at) as usize;
    let exec_len = (5.0 * base_rps * spike_len) as usize;
    let storm_device = DisturbedDevice::tx2(
        Scenario::brownout_storm(usize::MAX / 2, exec_at, exec_len, 0.6, 23)
            .with_invocations(usize::MAX / 2),
    );
    runs.push(run_case(
        &mut table,
        "storm",
        &curve,
        base_time,
        &storm_device,
        &TrafficPattern::Spike {
            base_rps,
            spike_rps: 5.0 * base_rps,
            at_s: spike_at,
            len_s: spike_len,
        },
        horizon_s,
        vec![(exec_at + 20, 5)],
        &serve_params,
    ));

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

    crate::report::write_json_compact(
        "serve_storm",
        &Artifact {
            schema_version: crate::report::RESULTS_SCHEMA_VERSION,
            benchmark: id.name().to_string(),
            baseline_time_s: base_time,
            baseline_qos,
            curve_points: curve.len(),
            curve_max_speedup: max_speedup,
            runs,
        },
    );
}
