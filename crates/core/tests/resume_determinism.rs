//! Crash-at-round-k resume tests: a tuning run that checkpoints, "crashes"
//! (halts) after k rounds, and is resumed from the checkpoint must produce
//! results bit-identical to the same run left uninterrupted — with and
//! without injected faults.

use at_core::checkpoint::{CheckpointPolicy, SearchCheckpoint};
use at_core::fault::{FaultMix, FaultPlan};
use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::predict::PredictionModel;
use at_core::qos::{QosMetric, QosReference};
use at_core::supervise::SupervisionPolicy;
use at_core::tuner::{PredictiveTuner, RobustnessParams, TunerParams, TuningResult};
use at_ir::{execute, ExecOptions, Graph, GraphBuilder};
use at_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn setup() -> (Graph, Vec<Tensor>, QosReference) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = GraphBuilder::new("resume-t", Shape::nchw(16, 2, 8, 8), &mut rng);
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

fn base_params() -> TunerParams {
    TunerParams {
        qos_min: 85.0,
        n_calibrate: 4,
        max_iters: 160,
        convergence_window: 160,
        max_validated: 12,
        max_shipped: 8,
        model: PredictionModel::Pi2,
        knob_set: KnobSet::HardwareIndependent,
        ..TunerParams::default()
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
    let mut p = base_params();
    p.robustness = robustness;
    let profiles = tuner.collect(&p).unwrap();
    tuner.tune(&profiles, &p).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("at-resume-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("search.ckpt.json")
}

fn assert_identical(a: &TuningResult, b: &TuningResult) {
    assert_eq!(a.curve.to_json(), b.curve.to_json(), "curves differ");
    assert_eq!(a.telemetry, b.telemetry, "telemetry differs");
    assert_eq!(a.iterations, b.iterations, "iteration counts differ");
    assert_eq!(a.cache, b.cache, "cache stats differ");
    assert_eq!(a.faults, b.faults, "fault counters differ");
    assert_eq!(a.candidates, b.candidates);
}

/// Crash after `k` rounds, resume from the forced checkpoint, and check the
/// finished result against the uninterrupted reference run.
fn crash_and_resume(name: &str, k: usize, fault_plan: Option<FaultPlan>) {
    let path = scratch(name);
    let robustness = |ckpt, halt, resume| RobustnessParams {
        fault_plan: fault_plan.clone(),
        supervision: SupervisionPolicy::default(),
        checkpoint: ckpt,
        halt_after_rounds: halt,
        resume_from: resume,
    };

    // Reference: one uninterrupted run.
    let uninterrupted = run(robustness(None, None, None));
    assert!(!uninterrupted.halted);

    // Crash: checkpoint every 2 rounds, halt after k (forces a final save).
    let crashed = run(robustness(
        Some(CheckpointPolicy::new(2, &path)),
        Some(k),
        None,
    ));
    assert!(crashed.halted, "run did not halt at round {k}");
    assert!(path.exists(), "no checkpoint written at halt");

    // Resume from disk and finish.
    let ckpt = SearchCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.rounds, k);
    let resumed = run(robustness(None, None, Some(ckpt)));
    assert!(!resumed.halted);

    assert_identical(&uninterrupted, &resumed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_is_bit_identical_clean() {
    crash_and_resume("clean", 3, None);
}

#[test]
fn resume_is_bit_identical_under_faults() {
    // The harder case: injected faults draw per (config, attempt, seed), so
    // resume must also restore the per-config attempt cursors to replay the
    // identical fault stream.
    let plan = FaultPlan {
        rate: 0.2,
        seed: 0xC4A5,
        mix: FaultMix::default(),
        stall_ms: 0,
    };
    crash_and_resume("faulty", 4, Some(plan));
}

#[test]
fn resume_at_different_rounds_converges_identically() {
    // Crashing earlier or later must not change the final answer.
    crash_and_resume("early", 1, None);
    crash_and_resume("late", 8, None);
}

#[test]
fn checkpoint_survives_process_boundary_shape() {
    // The checkpoint is plain JSON on disk: reloading and re-serialising it
    // is lossless, which is what a fresh process would observe.
    let path = scratch("roundtrip");
    let robustness = RobustnessParams {
        checkpoint: Some(CheckpointPolicy::new(1, &path)),
        halt_after_rounds: Some(2),
        ..RobustnessParams::default()
    };
    let halted = run(robustness);
    assert!(halted.halted);
    let ckpt = SearchCheckpoint::load(&path).unwrap();
    let json = ckpt.to_json();
    let back = SearchCheckpoint::from_json(&json).unwrap();
    assert_eq!(back.to_json(), json);
    let _ = std::fs::remove_file(&path);
}
