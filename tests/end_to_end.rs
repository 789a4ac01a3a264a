//! Cross-crate integration test: the full three-phase ApproxTuner pipeline
//! (development-time → install-time → run-time) on a small CNN.

use approxtuner::core::config::single_op_configs;
use approxtuner::core::cost_table::ADMIT_MARGIN;
use approxtuner::core::install::{EdgeDevice, InstallObjective};
use approxtuner::core::knobs::{KnobRegistry, KnobSet};
use approxtuner::core::perf::{PerfModel, Pricing};
use approxtuner::core::predict::PredictionModel;
use approxtuner::core::qos::{QosMetric, QosReference};
use approxtuner::core::runtime::{Policy, RuntimeTuner};
use approxtuner::core::tuner::{PredictiveTuner, TunerParams};
use approxtuner::core::TradeoffCurve;
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};

struct Setup {
    bench: approxtuner::models::Benchmark,
    cal: approxtuner::models::Dataset,
    registry: KnobRegistry,
}

fn setup() -> Setup {
    let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
    let ds = build_dataset(&bench, 48, 12, 99);
    let (cal, _) = ds.split();
    Setup {
        bench,
        cal,
        registry: KnobRegistry::new(),
    }
}

fn params(qos_min: f64, model: PredictionModel) -> TunerParams {
    TunerParams {
        qos_min,
        n_calibrate: 4,
        max_iters: 120,
        convergence_window: 120,
        max_validated: 12,
        max_shipped: 8,
        model,
        ..Default::default()
    }
}

#[test]
fn three_phase_pipeline() {
    let s = setup();
    let reference = QosReference::Labels(s.cal.labels.clone());

    // --- Phase 1: development time. ---
    let tuner = PredictiveTuner {
        graph: &s.bench.graph,
        registry: &s.registry,
        inputs: &s.cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: s.cal.batches[0].shape(),
        promise_seed: 0,
    };
    let p = params(85.0, PredictionModel::Pi1);
    let profiles = tuner.collect(&p).expect("profiles");
    // Under the default CPU price exactly the pairs the model prices above
    // the admission margin are profiled (22 of LeNet-Tiny's 131).
    let perf = PerfModel::new(&s.bench.graph, &s.registry, tuner.input_shape).expect("perf");
    let all = single_op_configs(&s.bench.graph, &s.registry, KnobSet::HardwareIndependent);
    let admitted: Vec<_> = all
        .into_iter()
        .filter(|&(n, k)| perf.cpu_node_speedup(n, k).expect("price") > ADMIT_MARGIN)
        .collect();
    assert_eq!(profiles.pairs, admitted);
    assert_eq!(profiles.pairs.len(), 22);
    let dev = tuner.tune(&profiles, &p).expect("dev tuning");
    assert!(!dev.curve.is_empty(), "dev-time curve empty");

    // Ship and reload the curve (JSON roundtrip).
    let json = dev.curve.to_json();
    let shipped = TradeoffCurve::from_json(&json).expect("roundtrip");
    assert_eq!(shipped.len(), dev.curve.len());

    // --- Phase 2: install time, software-only refinement. ---
    let device = EdgeDevice::tx2();
    let refined = tuner
        .refine(
            &Pricing::Device {
                device: &device,
                objective: InstallObjective::Speedup,
            },
            &shipped,
            p.qos_min,
        )
        .expect("refinement");
    assert!(!refined.is_empty(), "refined curve empty");
    // Device-measured performance replaces the hardware-agnostic estimate;
    // every point satisfies the QoS bound.
    for pt in refined.points() {
        assert!(pt.qos > p.qos_min);
        assert!(pt.perf >= 1.0 - 1e-9, "device speedup {}", pt.perf);
    }

    // --- Phase 2b: hardware-specific (PROMISE) distributed round. ---
    let labels = s.cal.labels.clone();
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
                objective: InstallObjective::EnergyReduction,
            },
            &shard_ref,
            2,
            &TunerParams {
                knob_set: KnobSet::WithHardware,
                ..params(85.0, PredictionModel::Pi2)
            },
        )
        .expect("install tuning");
    assert_eq!(install.active_devices, 2);
    assert!(!install.curve.is_empty());

    // --- Phase 3: run time. ---
    let base_time = 0.02;
    let mut rt = RuntimeTuner::new(
        refined.clone(),
        Policy::EnforceEachInvocation,
        1,
        base_time,
        1,
    );
    // Environment slows everything down 2x.
    rt.record_invocation(base_time * 2.0);
    let sp = rt.current_speedup();
    // The tuner must have responded (picked something faster than baseline)
    // as long as the curve has any point above 1x.
    let max_curve = refined.points().iter().map(|p| p.perf).fold(1.0, f64::max);
    if max_curve > 1.05 {
        assert!(
            sp > 1.0,
            "runtime tuner did not react (curve max {max_curve})"
        );
    }
}

#[test]
fn impossible_qos_yields_baseline_only_curve() {
    // Failure injection: a QoS bound above what even the baseline achieves
    // must produce an empty curve (validation filters everything), and the
    // pipeline must not panic.
    let s = setup();
    let reference = QosReference::Labels(s.cal.labels.clone());
    let tuner = PredictiveTuner {
        graph: &s.bench.graph,
        registry: &s.registry,
        inputs: &s.cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: s.cal.batches[0].shape(),
        promise_seed: 0,
    };
    let p = params(100.5, PredictionModel::Pi2); // > 100% accuracy: impossible
    let profiles = tuner.collect(&p).expect("profiles");
    let dev = tuner.tune(&profiles, &p).expect("tuning still succeeds");
    assert!(dev.curve.is_empty());
    // And downstream consumers handle the empty curve gracefully.
    let mut rt = RuntimeTuner::new(dev.curve, Policy::AverageOverTime, 1, 0.01, 0);
    assert!(rt.record_invocation(1.0).is_none());
    assert_eq!(rt.current_speedup(), 1.0);
}

#[test]
fn predictive_and_empirical_agree_on_feasibility() {
    // Both tuners, same program and bound: both must ship only
    // constraint-satisfying configurations (measured on the calibration
    // inputs), though the exact curves may differ.
    let s = setup();
    let reference = QosReference::Labels(s.cal.labels.clone());
    let p = params(88.0, PredictionModel::Pi2);
    let tuner = PredictiveTuner {
        graph: &s.bench.graph,
        registry: &s.registry,
        inputs: &s.cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: s.cal.batches[0].shape(),
        promise_seed: 0,
    };
    let profiles = tuner.collect(&p).expect("profiles");
    let pr = tuner.tune(&profiles, &p).expect("predictive");
    let er = tuner.tune_empirical(&p).expect("empirical");
    for pt in pr.curve.points().iter().chain(er.curve.points()) {
        let q = tuner.measure(&pt.config).expect("measurement");
        assert!(q > p.qos_min, "shipped config violates the bound: {q}");
    }
}
