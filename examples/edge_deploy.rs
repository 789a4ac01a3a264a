//! The full three-phase ApproxTuner lifecycle on an "edge deployment":
//!
//! 1. **Development time** — predictive tuning with hardware-independent
//!    knobs produces a relaxed tradeoff curve, serialised to JSON ("shipped
//!    with the application binary").
//! 2. **Install time** — the shipped curve is deserialised on the (simulated)
//!    Jetson TX2-class device; a distributed predictive-tuning round adds
//!    the PROMISE analog accelerator's hardware-specific voltage knobs and
//!    produces the final device curve.
//! 3. **Run time** — the runtime controller uses the final curve to keep
//!    batch latency on target as the GPU clock is lowered.
//!
//! ```bash
//! cargo run --release --example edge_deploy
//! ```

use approxtuner::core::install::{EdgeDevice, InstallObjective};
use approxtuner::core::knobs::{KnobRegistry, KnobSet};
use approxtuner::core::perf::Pricing;
use approxtuner::core::predict::PredictionModel;
use approxtuner::core::qos::{QosMetric, QosReference};
use approxtuner::core::runtime::{Policy, RuntimeTuner};
use approxtuner::core::tuner::{PredictiveTuner, TunerParams};
use approxtuner::core::TradeoffCurve;
use approxtuner::hw::FrequencyLadder;
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};

fn main() {
    // The application: AlexNet2 at test scale, with its calibrated dataset.
    let bench = build(BenchmarkId::AlexNet2, ModelScale::Tiny);
    let ds = build_dataset(&bench, 48, 8, 7);
    let (cal, _test) = ds.split();
    let registry = KnobRegistry::new();
    let reference = QosReference::Labels(cal.labels.clone());
    let qos_min = 80.0;

    // --- Phase 1: development time. ---
    let tuner = PredictiveTuner {
        graph: &bench.graph,
        registry: &registry,
        inputs: &cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: cal.batches[0].shape(),
        promise_seed: 0,
    };
    let params = TunerParams {
        qos_min,
        max_iters: 300,
        convergence_window: 150,
        model: PredictionModel::Pi1,
        ..Default::default()
    };
    let profiles = tuner.collect(&params).expect("profiles");
    let dev = tuner.tune(&profiles, &params).expect("dev-time tuning");
    let shipped_json = dev.curve.to_json();
    println!(
        "phase 1 (dev time): shipped curve with {} points ({} bytes of JSON)",
        dev.curve.len(),
        shipped_json.len()
    );

    // --- Phase 2: install time, on the simulated TX2 + PROMISE SoC. ---
    let _shipped = TradeoffCurve::from_json(&shipped_json).expect("curve deserialises");
    let device = EdgeDevice::tx2();
    let labels = cal.labels.clone();
    let shard_ref = move |i: usize, n: usize| {
        QosReference::Labels(
            labels
                .iter()
                .enumerate()
                .filter(|(j, _)| j % n == i)
                .map(|(_, l)| l.clone())
                .collect(),
        )
    };
    let install = tuner
        .install_tune(
            &Pricing::Device {
                device: &device,
                objective: InstallObjective::Speedup,
            },
            &shard_ref,
            4, // simulated edge devices participating
            &TunerParams {
                knob_set: KnobSet::WithHardware,
                model: PredictionModel::Pi2,
                max_iters: 300,
                convergence_window: 150,
                qos_min,
                ..Default::default()
            },
        )
        .expect("install-time tuning");
    println!(
        "phase 2 (install time): {} devices; device curve with {} points; \
         profile {:.2}s/device, server tuning {:.2}s",
        install.active_devices,
        install.curve.len(),
        install.device_profile_time_s,
        install.server_tuning_time_s
    );
    for p in install.curve.points() {
        println!("   qos {:6.2}%  device speedup {:5.2}x", p.qos, p.perf);
    }

    // --- Phase 3: run time, under DVFS pressure. ---
    if install.curve.is_empty() {
        println!("phase 3 skipped: empty curve");
        return;
    }
    let ladder = FrequencyLadder::tx2_gpu();
    let base_time = 0.050; // seconds per batch at the top frequency
    let mut rt = RuntimeTuner::new(
        install.curve.clone(),
        Policy::AverageOverTime,
        1,
        base_time,
        3,
    );
    println!("phase 3 (run time): frequency sweep with dynamic adaptation");
    for step in [0, 4, 8, 11] {
        let slowdown = ladder.slowdown(step);
        // A few invocations at this frequency.
        for _ in 0..5 {
            let t = base_time * slowdown / rt.current_speedup();
            rt.record_invocation(t);
        }
        let eff = base_time * slowdown / rt.current_speedup();
        println!(
            "   {:7.1} MHz: env slowdown {:.2}x → config speedup {:.2}x → batch time {:.1} ms (target {:.1} ms)",
            ladder.at(step),
            slowdown,
            rt.current_speedup(),
            eff * 1e3,
            base_time * 1e3
        );
    }
    println!("   configuration switches: {}", rt.switches);
}
