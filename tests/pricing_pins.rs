//! Exact prices: the bits of every model-priced number a configuration
//! gets, pinned on fixed inputs.
//!
//! Other suites check pricing only by rank or by thread-count equality; these
//! pins hold the values themselves, so a rewrite of the pricing code that
//! moves a single bit of an op-count cost, a device time, a device energy or
//! an install-time curve fails here. Run in both the debug and the release
//! profile. If a pin moves intentionally, re-pin it and say why in the
//! commit.

use approxtuner::core::config::{single_op_configs, Config};
use approxtuner::core::install::{EdgeDevice, InstallObjective};
use approxtuner::core::knobs::{KnobRegistry, KnobSet};
use approxtuner::core::pareto::TradeoffCurve;
use approxtuner::core::perf::{PerfModel, Pricing};
use approxtuner::core::predict::PredictionModel;
use approxtuner::core::qos::{QosMetric, QosReference};
use approxtuner::core::tuner::{PredictiveTuner, TunerParams};
use approxtuner::ir::{Graph, GraphBuilder};
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::Shape;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The two-conv graph of `crates/core/src/perf.rs`'s unit tests.
fn perf_graph() -> (Graph, Shape) {
    let shape = Shape::nchw(1, 32, 32, 32);
    let mut rng = StdRng::seed_from_u64(1);
    let mut b = GraphBuilder::new("t", shape, &mut rng);
    b.conv(32, 3, (1, 1), (1, 1))
        .relu()
        .conv(32, 3, (1, 1), (1, 1))
        .relu();
    b.flatten().dense(10).softmax();
    (b.finish().expect("graph builds"), shape)
}

/// The op-count cost, the TX2 device time and the TX2 device energy of
/// `config`.
fn prices(perf: &PerfModel, config: &Config, device: &EdgeDevice) -> [f64; 3] {
    let objectives = [InstallObjective::Speedup, InstallObjective::EnergyReduction];
    let [time, energy] = objectives.map(|objective| Pricing::Device { device, objective });
    [Pricing::OpCount, time, energy].map(|p| perf.price(config, &p).expect("model pricing"))
}

/// FNV-1a of the `f64::to_bits` of the op-count cost, the TX2 device time
/// and the TX2 device energy, over the baseline and then every single-knob
/// configuration under `KnobSet::WithHardware`.
const PRICE_PINS: [u64; 3] = [0xa6b847d702b4088c, 0xac12835e9442f337, 0xe00c654d7bd3078e];

#[test]
fn single_knob_prices_are_pinned() {
    let (graph, shape) = perf_graph();
    let registry = KnobRegistry::new();
    let perf = PerfModel::new(&graph, &registry, shape).expect("perf model");
    let device = EdgeDevice::tx2();
    let mut configs = vec![Config::baseline(&graph)];
    for (node, knob) in single_op_configs(&graph, &registry, KnobSet::WithHardware) {
        let mut c = Config::baseline(&graph);
        c.set_knob(node, knob);
        configs.push(c);
    }
    assert!(configs.len() > 40, "only {} configurations", configs.len());
    let all: Vec<[f64; 3]> = configs.iter().map(|c| prices(&perf, c, &device)).collect();
    let got: [u64; 3] =
        std::array::from_fn(|k| fnv1a(all.iter().flat_map(|p| p[k].to_bits().to_le_bytes())));
    assert_eq!(
        got, PRICE_PINS,
        "prices drifted (got {got:#018x?}); first configuration: {:?}",
        all[0]
    );
}

/// The install curves of `tests/determinism.rs`: the development-time
/// curve refined on the TX2 model under `Speedup`, and a three-device
/// distributed round under `EnergyReduction`.
fn install_curves() -> [TradeoffCurve; 2] {
    let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
    let (cal, _) = build_dataset(&bench, 48, 12, 99).split();
    let registry = KnobRegistry::new();
    let reference = QosReference::Labels(cal.labels.clone());
    let shard_ref = |i: usize, n: usize| {
        QosReference::Labels(cal.labels.iter().skip(i).step_by(n).cloned().collect())
    };
    let params = |model: PredictionModel, max_iters: usize| TunerParams {
        qos_min: 85.0,
        n_calibrate: 4,
        max_iters,
        convergence_window: max_iters,
        max_validated: 12,
        max_shipped: 8,
        model,
        ..Default::default()
    };
    let tuner = PredictiveTuner {
        graph: &bench.graph,
        registry: &registry,
        inputs: &cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: cal.batches[0].shape(),
        promise_seed: 0,
    };
    let p = params(PredictionModel::Pi1, 120);
    let profiles = tuner.collect(&p).expect("profiles");
    let dev = tuner.tune(&profiles, &p).expect("tuning").curve;
    let device = EdgeDevice::tx2();
    let refined = tuner
        .refine(
            &Pricing::Device {
                device: &device,
                objective: InstallObjective::Speedup,
            },
            &dev,
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
}

/// FNV-1a of each curve's `to_json` (the JSON writer round-trips `f64`
/// exactly, so the string pins every bit) and its length in bytes. Both
/// curves are tuned under the default development-time price, the CPU
/// model of `at_core::cost_table`: refitting it moves them.
const CURVE_PINS: [(u64, usize); 2] = [(0xf5c1bf5302839a6f, 871), (0xc150e6261c8d5962, 570)];

#[test]
fn install_curves_are_pinned() {
    let names = ["refine (Speedup)", "distributed (EnergyReduction)"];
    for ((what, curve), pin) in names.iter().zip(install_curves()).zip(CURVE_PINS) {
        let json = curve.to_json();
        let got = (fnv1a(json.bytes()), json.len());
        assert!(!curve.is_empty(), "{what} produced no curve");
        assert_eq!(
            got, pin,
            "{what} curve drifted (got {:#018x}):\n{json}",
            got.0
        );
    }
}
