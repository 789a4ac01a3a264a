//! The batched tuning loop is deterministic across thread counts.
//!
//! All bandit and RNG state advances only on the sequential propose/report
//! path, and evaluators are pure functions of the configuration — so the
//! same seed must produce bit-identical tradeoff curves whether candidates
//! are evaluated on one thread or a pool. The same holds one level down:
//! kernels partition whole output rows, planes and elements, never one
//! accumulation chain, so plain inference is bit-identical at any pool size.

use approxtuner::core::closed_loop::{run_closed_loop, ClosedLoopParams, ClosedLoopReport};
use approxtuner::core::config::Config;
use approxtuner::core::install::{EdgeDevice, InstallObjective};
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::core::pareto::{TradeoffCurve, TradeoffPoint};
use approxtuner::core::perf::Pricing;
use approxtuner::core::predict::PredictionModel;
use approxtuner::core::qos::{QosMetric, QosReference};
use approxtuner::core::runtime::Policy;
use approxtuner::core::tuner::{PredictiveTuner, TunerParams, TuningResult};
use approxtuner::hw::{Disturbance, DisturbedDevice, FrequencyLadder, Scenario};
use approxtuner::ir::{execute, ExecOptions, OpClass};
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, Benchmark, BenchmarkId, Dataset, ModelScale};

struct Setup {
    bench: Benchmark,
    cal: Dataset,
    registry: KnobRegistry,
    reference: QosReference,
}

fn setup() -> Setup {
    let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
    let ds = build_dataset(&bench, 48, 12, 99);
    let (cal, _) = ds.split();
    Setup {
        reference: QosReference::Labels(cal.labels.clone()),
        bench,
        cal,
        registry: KnobRegistry::new(),
    }
}

impl Setup {
    fn tuner(&self) -> PredictiveTuner<'_> {
        PredictiveTuner {
            graph: &self.bench.graph,
            registry: &self.registry,
            inputs: &self.cal.batches,
            metric: QosMetric::Accuracy,
            reference: &self.reference,
            input_shape: self.cal.batches[0].shape(),
            promise_seed: 0,
        }
    }
}

fn params(model: PredictionModel, max_iters: usize) -> TunerParams {
    TunerParams {
        qos_min: 85.0,
        n_calibrate: 4,
        max_iters,
        convergence_window: max_iters,
        max_validated: 12,
        max_shipped: 8,
        model,
        ..Default::default()
    }
}

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn predictive_run(s: &Setup, threads: usize) -> TuningResult {
    let tuner = s.tuner();
    let p = params(PredictionModel::Pi1, 120);
    in_pool(threads, || {
        let profiles = tuner.collect(&p).expect("profiles");
        tuner.tune(&profiles, &p).expect("tuning")
    })
}

fn empirical_run(s: &Setup, threads: usize) -> TuningResult {
    let p = params(PredictionModel::Pi2, 40);
    in_pool(threads, || s.tuner().tune_empirical(&p).expect("tuning"))
}

fn assert_identical(a: &TuningResult, b: &TuningResult) {
    assert_eq!(a.iterations, b.iterations, "iteration counts differ");
    assert_eq!(a.cache, b.cache, "cache counters differ");
    assert_eq!(a.telemetry.len(), b.telemetry.len(), "telemetry differs");
    assert_eq!(a.curve.len(), b.curve.len(), "curve lengths differ");
    // Bit-exact: the JSON writer roundtrips f64 exactly, so string equality
    // is value equality.
    assert_eq!(a.curve.to_json(), b.curve.to_json(), "curves differ");
}

#[test]
fn predictive_tuning_identical_across_thread_counts() {
    let s = setup();
    let single = predictive_run(&s, 1);
    let multi = predictive_run(&s, 4);
    assert_identical(&single, &multi);
    assert!(!single.curve.is_empty(), "tuning produced no curve");
}

#[test]
fn empirical_tuning_identical_across_thread_counts() {
    let s = setup();
    let single = empirical_run(&s, 1);
    let multi = empirical_run(&s, 4);
    assert_identical(&single, &multi);
}

/// Install-time refinement of `dev` and a three-device distributed round:
/// both measure QoS on the pool.
fn install_curves(s: &Setup, dev: &TradeoffCurve, threads: usize) -> [TradeoffCurve; 2] {
    let shard_ref = |i: usize, n: usize| {
        QosReference::Labels(s.cal.labels.iter().skip(i).step_by(n).cloned().collect())
    };
    let device = EdgeDevice::tx2();
    let tuner = s.tuner();
    in_pool(threads, || {
        let refined = tuner
            .refine(
                &Pricing::Device {
                    device: &device,
                    objective: InstallObjective::Speedup,
                },
                dev,
                85.0,
            )
            .expect("refinement");
        let installed = tuner
            .install_tune(
                &Pricing::Device {
                    device: &device,
                    objective: InstallObjective::EnergyReduction,
                },
                &shard_ref,
                3,
                &params(PredictionModel::Pi2, 60),
            )
            .expect("distributed install");
        [refined, installed.curve]
    })
}

#[test]
fn install_time_curves_identical_across_thread_counts() {
    let s = setup();
    let dev = predictive_run(&s, 1).curve;
    let single = install_curves(&s, &dev, 1);
    let multi = install_curves(&s, &dev, 4);
    for (what, a, b) in [
        ("refine", &single[0], &multi[0]),
        ("install_tune", &single[1], &multi[1]),
    ] {
        assert!(!a.is_empty(), "{what} produced no curve");
        assert_eq!(a.to_json(), b.to_json(), "{what} curves differ");
    }
}

/// A kitchen-sink scenario exercising every disturbance class at once.
fn kitchen_sink() -> Scenario {
    Scenario::new("kitchen-sink", FrequencyLadder::tx2_gpu(), 160, 21)
        .with(Disturbance::GovernorStep {
            at: 20,
            ladder_idx: 5,
        })
        .with(Disturbance::ThermalRamp {
            at: 50,
            len: 20,
            floor_idx: 9,
        })
        .with(Disturbance::Brownout {
            at: 90,
            len: 15,
            frequency_factor: 0.8,
        })
        .with(Disturbance::LoadSpike {
            at: 110,
            len: 20,
            time_factor: 1.5,
        })
        .with(Disturbance::SensorDropout { at: 120, len: 25 })
        .with(Disturbance::TimingJitter { amplitude: 0.02 })
}

fn adaptation_run(policy: Policy, threads: usize) -> ClosedLoopReport {
    let curve = TradeoffCurve::from_points(
        [1.15, 1.5, 2.0, 2.6, 3.3, 4.2]
            .iter()
            .enumerate()
            .map(|(i, &perf)| TradeoffPoint {
                qos: 98.0 - 2.0 * i as f64,
                perf,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    );
    let device = DisturbedDevice::tx2(kitchen_sink());
    let params = ClosedLoopParams {
        policy,
        ..ClosedLoopParams::default()
    };
    in_pool(threads, || run_closed_loop(&curve, 0.05, &device, &params))
}

#[test]
fn closed_loop_reports_identical_across_thread_counts() {
    // The closed loop is sequential by construction — device state is a
    // pure function of (scenario, seed, invocation) — so the full report
    // (trace + adaptation log) must be bit-identical JSON regardless of
    // the ambient rayon pool.
    for policy in [Policy::EnforceEachInvocation, Policy::AverageOverTime] {
        let single = adaptation_run(policy, 1);
        let multi = adaptation_run(policy, 4);
        assert!(!single.log.events().is_empty(), "scenario forced no events");
        assert_eq!(
            single.to_json(),
            multi.to_json(),
            "{policy:?} report differs across thread counts"
        );
    }
}

#[test]
fn adaptation_log_first_event_matches_golden_snapshot() {
    // Pins the serialised form of one adaptation event: the feed-forward
    // re-selection at the kitchen-sink scenario's first governor step.
    // Churn here means either the controller or the JSON encoding drifted.
    let r = adaptation_run(Policy::EnforceEachInvocation, 2);
    let first = serde_json::to_string(&r.log.events()[0]).expect("serialises");
    assert_eq!(first, GOLDEN_FIRST_EVENT, "golden adaptation event drifted");
}

const GOLDEN_FIRST_EVENT: &str = "{\"invocation\":20,\"required_speedup\":1.5223880597014925,\
     \"selected\":[94,2],\"kind\":{\"Clock\":\"Up\"}}";

#[test]
fn cache_counters_reconcile_with_iterations() {
    let s = setup();
    let r = predictive_run(&s, 2);
    // Every proposal (plus the seed configurations) goes through the cache
    // exactly once, so the counters must reconcile with the iteration count.
    assert_eq!(
        r.cache.hits + r.cache.misses + r.cache.dedup,
        r.iterations,
        "cache lookups must equal tuning iterations"
    );
    assert!(r.cache.hits > 0, "the ensemble never revisited a config");
    assert!(
        r.cache.misses <= r.iterations,
        "more evaluator invocations than iterations"
    );
}

/// The five knob rungs the benchmark's `infer_ladder` sets on every
/// convolution, each with the FNV-1a hash of the whole-graph output bits it
/// produces on `[AlexNet2, LeNet]` — the only pins that see an element-wise
/// kernel (`tanh`, pooling, softmax, the binary16 round-trip) change bits.
/// If one moves intentionally, re-pin it and say why in the commit.
const LADDER: [(&str, [u64; 2]); 5] = [
    ("fp32", [0x847ee7016ea987b4, 0x4b6c7a034d6c4aa3]),
    ("samp-50%-o0-fp32", [0x8ce26660180f7dfb, 0xfa1fd8fbd1e2d71c]),
    (
        "perf-50%-row-o0-fp32",
        [0x4a0daced9a4e3888, 0x0b20facca7ab7d23],
    ),
    ("fp16", [0x48c6046b10da8d01, 0xf98eeabfabb79bf1]),
    ("lutmul-8b", [0xa2e71aee3bef9b74, 0xd8d26cf6eda4dc0d]),
];

/// FNV-1a over the little-endian bit patterns.
fn fnv1a(bits: &[u32]) -> u64 {
    bits.iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

#[test]
fn inference_identical_across_thread_counts_on_every_ladder_rung() {
    // Batch 64 puts Alexnet2's 262 k-element activations at twice the
    // kernels' fork grain, so at 2 and 8 threads its element-wise maps and
    // quantisers really are split across workers, as are the conv GEMMs of
    // both models.
    let registry = KnobRegistry::new();
    let mut drifted = Vec::new();
    for (model, id) in [BenchmarkId::AlexNet2, BenchmarkId::LeNet]
        .into_iter()
        .enumerate()
    {
        let bench = build(id, ModelScale::Tiny);
        let input = &build_dataset(&bench, 64, 64, 7).batches[0];
        for (label, pins) in LADDER {
            let knob = registry
                .table(OpClass::Conv)
                .iter()
                .find(|k| k.label == label)
                .unwrap_or_else(|| panic!("no conv knob labelled {label}"))
                .id;
            let mut config = Config::baseline(&bench.graph);
            for node in bench.graph.nodes() {
                if node.op.class() == OpClass::Conv {
                    config.set_knob(node.id.0 as usize, knob);
                }
            }
            let opts = ExecOptions {
                config: config.decode(&registry, &bench.graph),
                promise_seed: 0,
            };
            let run = |threads| {
                let out = in_pool(threads, || execute(&bench.graph, input, &opts));
                let out = out.expect("inference");
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            let single = run(1);
            for threads in [2, 8] {
                assert_eq!(
                    run(threads),
                    single,
                    "{id:?} [{label}] differs at {threads} threads"
                );
            }
            let got = fnv1a(&single);
            if got != pins[model] {
                drifted.push(format!("{id:?} [{label}]: 0x{got:016x}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "whole-graph output pins drifted:\n{}",
        drifted.join("\n")
    );
}
