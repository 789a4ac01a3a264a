//! End-to-end fault-tolerance tests: a seeded tuning campaign under a 20%
//! injected fault rate (mixed transient errors, panics, stalls and
//! poisoned evaluations) must complete without aborting, report accurate
//! counters, stay deterministic, and land close to the zero-fault result.

use at_core::empirical::EmpiricalTuner;
use at_core::fault::{FaultMix, FaultPlan};
use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::predict::PredictionModel;
use at_core::qos::{QosMetric, QosReference};
use at_core::tuner::{PredictiveTuner, RobustnessParams, TunerParams, TuningResult};
use at_ir::{execute, ExecOptions, Graph, GraphBuilder};
use at_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Graph, Vec<Tensor>, QosReference) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = GraphBuilder::new("fault-t", Shape::nchw(16, 2, 8, 8), &mut rng);
    b.conv(4, 3, (1, 1), (1, 1))
        .relu()
        .max_pool(2, 2)
        .flatten()
        .dense(5)
        .softmax();
    let g = b.finish().unwrap();
    let mut rng2 = StdRng::seed_from_u64(6);
    let inputs: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(Shape::nchw(16, 2, 8, 8), -1.0, 1.0, &mut rng2))
        .collect();
    let mut labels = Vec::new();
    for bt in &inputs {
        let out = execute(&g, bt, &ExecOptions::baseline()).unwrap();
        let (rows, c) = out.shape().as_mat().unwrap();
        labels.push(
            (0..rows)
                .map(|r| {
                    let row = &out.data()[r * c..(r + 1) * c];
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0
                })
                .collect(),
        );
    }
    (g, inputs, QosReference::Labels(labels))
}

fn params(robustness: RobustnessParams) -> TunerParams {
    TunerParams {
        qos_min: 85.0,
        n_calibrate: 4,
        max_iters: 200,
        convergence_window: 200,
        max_validated: 16,
        max_shipped: 10,
        model: PredictionModel::Pi2,
        knob_set: KnobSet::HardwareIndependent,
        robustness,
        ..TunerParams::default()
    }
}

/// A 20% mixed-fault plan tuned for test speed (no real sleeps).
fn plan_20pct() -> FaultPlan {
    FaultPlan {
        rate: 0.2,
        seed: 0xFA157,
        mix: FaultMix::default(),
        stall_ms: 0,
    }
}

fn run(robustness: RobustnessParams) -> TuningResult {
    let (g, inputs, reference) = setup();
    let registry = KnobRegistry::new();
    let tuner = PredictiveTuner {
        graph: &g,
        registry: &registry,
        inputs: &inputs,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: inputs[0].shape(),
        promise_seed: 0,
    };
    let p = params(robustness);
    let profiles = tuner.collect(&p).unwrap();
    tuner.tune(&profiles, &p).unwrap()
}

fn best_perf(r: &TuningResult) -> f64 {
    r.curve
        .points()
        .iter()
        .map(|p| p.perf)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn clean_run_reports_zero_faults() {
    let r = run(RobustnessParams::default());
    assert!(!r.curve.is_empty());
    assert_eq!(r.faults.faults_absorbed(), 0);
    assert_eq!(r.faults.retries, 0);
    assert_eq!(r.faults.quarantined, 0);
    assert_eq!(r.faults.skipped, 0);
    assert!(!r.halted);
    // Every distinct evaluation ran exactly once.
    assert_eq!(r.faults.attempts as usize, r.cache.misses);
}

#[test]
fn survives_20pct_mixed_faults_and_stays_accurate() {
    let clean = run(RobustnessParams::default());
    let faulty = run(RobustnessParams {
        fault_plan: Some(plan_20pct()),
        ..RobustnessParams::default()
    });

    // The campaign completed and produced a usable curve.
    assert!(!faulty.curve.is_empty(), "faulted run produced no curve");
    assert!(!faulty.halted);

    // Counters reflect a real fault load: at a 20% per-attempt rate the
    // supervisor must have absorbed faults and retried.
    assert!(
        faulty.faults.faults_absorbed() > 0,
        "no faults absorbed at 20% rate: {:?}",
        faulty.faults
    );
    assert!(faulty.faults.retries > 0);
    assert!(faulty.faults.attempts > faulty.cache.misses as u64);
    // Counter consistency: what the driver skipped shows up per round.
    let skipped_in_rounds: usize = faulty.telemetry.iter().map(|t| t.failed).sum();
    assert_eq!(faulty.faults.skipped, skipped_in_rounds as u64);
    // Only final failures can quarantine, and each exhaustion is counted.
    assert!(faulty.faults.quarantined <= faulty.faults.exhausted);

    // Tuning quality: the faulted run converges to (nearly) the same best
    // speedup as the clean one. Retries clear almost all transient faults
    // (P[4 consecutive] ≈ 0.16%), so only rare quarantines can cost
    // candidates.
    let clean_best = best_perf(&clean);
    let faulty_best = best_perf(&faulty);
    assert!(
        faulty_best >= 0.9 * clean_best,
        "faulted best {faulty_best} too far below clean best {clean_best}"
    );
}

#[test]
fn faulted_runs_are_deterministic() {
    let robustness = || RobustnessParams {
        fault_plan: Some(plan_20pct()),
        ..RobustnessParams::default()
    };
    let a = run(robustness());
    let b = run(robustness());
    assert_eq!(a.curve.to_json(), b.curve.to_json());
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.telemetry, b.telemetry);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.cache, b.cache);
}

#[test]
fn empirical_tuner_survives_faults_too() {
    let (g, inputs, reference) = setup();
    let registry = KnobRegistry::new();
    let tuner = EmpiricalTuner {
        graph: &g,
        registry: &registry,
        inputs: &inputs,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: inputs[0].shape(),
        promise_seed: 0,
    };
    let p = TunerParams {
        qos_min: 85.0,
        max_iters: 60,
        convergence_window: 60,
        max_shipped: 8,
        robustness: RobustnessParams {
            fault_plan: Some(plan_20pct()),
            ..RobustnessParams::default()
        },
        ..TunerParams::default()
    };
    let r = tuner.tune(&p).unwrap();
    assert!(!r.curve.is_empty());
    assert!(r.faults.faults_absorbed() > 0);
}
