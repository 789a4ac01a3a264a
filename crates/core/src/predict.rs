//! The QoS prediction models Π1 and Π2 (§3.3) with α calibration.
//!
//! Π1 (tensor composition): `QoS(T_base + α·Σ_op ΔT(op, knob), reference)` —
//! sums the per-op raw-output error tensors, adds them to the baseline raw
//! output and applies the QoS function.
//!
//! Π2 (scalar composition): `QoS_base + α·Σ_op ΔQ(op, knob)` — sums the
//! per-op end-to-end QoS losses. Cheaper than Π1 (no tensors) but less
//! precise.
//!
//! Both are linear-regression-style models with a single coefficient `α`
//! refined against a few tens of measured configurations
//! (`Predictor::calibrate`).

use crate::config::Config;
use crate::knobs::KnobId;
use crate::profile::{PairIndex, QosProfiles};
use crate::qos::{measure, QosMetric, QosReference};
use at_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Which composition model to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PredictionModel {
    /// Π1: tensor-level error composition.
    Pi1,
    /// Π2: scalar QoS-loss composition.
    Pi2,
}

impl PredictionModel {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PredictionModel::Pi1 => "Predictive-Π1",
            PredictionModel::Pi2 => "Predictive-Π2",
        }
    }
}

thread_local! {
    /// Π1's predicted outputs: overwritten with `T_base` by each prediction
    /// on this thread, so no prediction allocates them.
    static PREDICTED: RefCell<Vec<Tensor>> = const { RefCell::new(Vec::new()) };
}

/// A QoS predictor bound to collected profiles.
pub struct Predictor<'p> {
    profiles: &'p QosProfiles,
    index: PairIndex,
    model: PredictionModel,
    metric: QosMetric,
    /// The calibrated coefficient (1.0 until calibrated).
    pub alpha: f64,
}

impl<'p> Predictor<'p> {
    /// Creates a predictor over profiles (α = 1 until calibrated).
    pub fn new(profiles: &'p QosProfiles, model: PredictionModel, metric: QosMetric) -> Self {
        if model == PredictionModel::Pi1 {
            assert!(
                profiles.has_tensor_profiles(),
                "Π1 requires tensor (ΔT) profiles; collect with collect_tensors=true"
            );
        }
        Predictor {
            profiles,
            index: PairIndex::new(&profiles.pairs),
            model,
            metric,
            alpha: 1.0,
        }
    }

    /// Predicted QoS of a configuration at the current α.
    pub fn predict(&self, config: &Config, reference: &QosReference) -> f64 {
        self.predict_at(config, reference, self.alpha)
    }

    /// Predicted QoS at an explicit α (used during calibration).
    pub(crate) fn predict_at(&self, config: &Config, reference: &QosReference, alpha: f64) -> f64 {
        match self.model {
            PredictionModel::Pi2 => {
                let sum: f64 = config
                    .knobs()
                    .iter()
                    .enumerate()
                    .map(|(node, &k)| self.delta_q(node, k))
                    .sum();
                self.profiles.qos_base + alpha * sum
            }
            // Accumulate T_base + α·Σ ΔT per batch, node by node, in this
            // thread's buffer, then measure its QoS.
            PredictionModel::Pi1 => PREDICTED.with_borrow_mut(|predicted| {
                let base = &self.profiles.t_base;
                let same = |p: &[Tensor]| {
                    p.iter()
                        .map(Tensor::shape)
                        .eq(base.iter().map(Tensor::shape))
                };
                if same(predicted) {
                    for (p, b) in predicted.iter_mut().zip(base) {
                        p.data_mut().copy_from_slice(b.data());
                    }
                } else {
                    predicted.clone_from(base);
                }
                for (node, &k) in config.knobs().iter().enumerate() {
                    if k == KnobId::BASELINE {
                        continue;
                    }
                    for (p, dt) in predicted
                        .iter_mut()
                        .zip(self.delta_t(node, k).unwrap_or(&[]))
                    {
                        // Shapes match by construction of the profiles.
                        let _ = p.axpy(alpha as f32, dt);
                    }
                }
                measure(self.metric, predicted, reference)
            }),
        }
    }

    /// ΔQ for a pair; 0 for the baseline knob or unknown pairs.
    fn delta_q(&self, node: usize, knob: KnobId) -> f64 {
        self.index
            .get(node, knob)
            .map_or(0.0, |i| self.profiles.dq[i])
    }

    /// ΔT batches for a pair (None for baseline/unknown).
    fn delta_t(&self, node: usize, knob: KnobId) -> Option<&[Tensor]> {
        self.index
            .get(node, knob)
            .and_then(|i| self.profiles.dt.get(i))
            .map(|v| v.as_slice())
    }

    /// Calibrates α against measured (config, real QoS) samples
    /// (Algorithm 1, line 20).
    ///
    /// For Π2 the least-squares solution is closed-form; for Π1 the model
    /// is nonlinear in α, so a golden-section search over `[0, 2]` minimises
    /// the squared prediction error.
    pub(crate) fn calibrate(&mut self, samples: &[(Config, f64)], reference: &QosReference) -> f64 {
        if samples.is_empty() {
            return self.alpha;
        }
        match self.model {
            PredictionModel::Pi2 => {
                // real - qos_base ≈ α · Σ ΔQ: α* = Σ x·y / Σ x².
                let mut num = 0.0;
                let mut den = 0.0;
                for (config, real) in samples {
                    let x: f64 = config
                        .knobs()
                        .iter()
                        .enumerate()
                        .map(|(node, &k)| self.delta_q(node, k))
                        .sum();
                    let y = real - self.profiles.qos_base;
                    num += x * y;
                    den += x * x;
                }
                if den > 1e-12 {
                    // Clamp to a sane band: a negative α would mean errors
                    // *improve* QoS systematically.
                    self.alpha = (num / den).clamp(0.05, 4.0);
                }
            }
            PredictionModel::Pi1 => {
                let sse = |alpha: f64| -> f64 {
                    samples
                        .iter()
                        .map(|(c, real)| {
                            let p = self.predict_at(c, reference, alpha);
                            (p - real).powi(2)
                        })
                        .sum()
                };
                // Golden-section search on [0.05, 2.0].
                let (mut lo, mut hi) = (0.05f64, 2.0f64);
                let phi = 0.618_033_988_75;
                let mut x1 = hi - phi * (hi - lo);
                let mut x2 = lo + phi * (hi - lo);
                let mut f1 = sse(x1);
                let mut f2 = sse(x2);
                for _ in 0..24 {
                    if f1 < f2 {
                        hi = x2;
                        x2 = x1;
                        f2 = f1;
                        x1 = hi - phi * (hi - lo);
                        f1 = sse(x1);
                    } else {
                        lo = x1;
                        x1 = x2;
                        f1 = f2;
                        x2 = lo + phi * (hi - lo);
                        f2 = sse(x2);
                    }
                }
                self.alpha = 0.5 * (lo + hi);
            }
        }
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{KnobRegistry, KnobSet};
    use crate::tuner::{PredictiveTuner, TunerParams};
    use at_ir::{execute, ExecOptions, Graph, GraphBuilder};
    use at_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Vec<Tensor>, QosReference, KnobRegistry) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new("p", Shape::nchw(16, 2, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .conv(4, 3, (1, 1), (1, 1))
            .relu();
        b.max_pool(2, 2).flatten().dense(5).softmax();
        let g = b.finish().unwrap();
        let mut rng2 = StdRng::seed_from_u64(4);
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
        (g, inputs, QosReference::Labels(labels), KnobRegistry::new())
    }

    fn tuner<'a>(
        g: &'a Graph,
        r: &'a KnobRegistry,
        inputs: &'a [Tensor],
        reference: &'a QosReference,
    ) -> PredictiveTuner<'a> {
        PredictiveTuner {
            graph: g,
            registry: r,
            inputs,
            metric: QosMetric::Accuracy,
            reference,
            input_shape: inputs[0].shape(),
            promise_seed: 0,
        }
    }

    /// Profiles of the hardware-independent knobs, `ΔT` included when
    /// `model` is Π1.
    fn collect(t: &PredictiveTuner, model: PredictionModel) -> QosProfiles {
        let params = TunerParams {
            knob_set: KnobSet::HardwareIndependent,
            model,
            ..TunerParams::default()
        };
        t.collect(&params).unwrap()
    }

    fn profiles(
        g: &Graph,
        r: &KnobRegistry,
        inputs: &[Tensor],
        reference: &QosReference,
    ) -> QosProfiles {
        collect(&tuner(g, r, inputs, reference), PredictionModel::Pi1)
    }

    #[test]
    fn baseline_config_predicts_baseline_qos() {
        let (g, inputs, reference, r) = setup();
        let p = profiles(&g, &r, &inputs, &reference);
        let base = Config::baseline(&g);
        for model in [PredictionModel::Pi1, PredictionModel::Pi2] {
            let pred = Predictor::new(&p, model, QosMetric::Accuracy);
            let q = pred.predict(&base, &reference);
            assert!(
                (q - p.qos_base).abs() < 1e-9,
                "{model:?}: {q} vs base {}",
                p.qos_base
            );
        }
    }

    #[test]
    fn single_knob_prediction_exact_for_pi2_alpha1() {
        // For a single approximated op at α = 1, Π2 is exact by definition.
        let (g, inputs, reference, r) = setup();
        let p = profiles(&g, &r, &inputs, &reference);
        let (node, knob) = p.pairs[7];
        let mut config = Config::baseline(&g);
        config.set_knob(node, knob);
        let pred = Predictor::new(&p, PredictionModel::Pi2, QosMetric::Accuracy);
        let predicted = pred.predict(&config, &reference);
        let real = tuner(&g, &r, &inputs, &reference).measure(&config).unwrap();
        assert!((predicted - real).abs() < 1e-9);
    }

    #[test]
    fn single_knob_prediction_exact_for_pi1_alpha1() {
        // For a single op, T_base + ΔT(op,knob) IS the real output.
        let (g, inputs, reference, r) = setup();
        let p = profiles(&g, &r, &inputs, &reference);
        let (node, knob) = p.pairs[3];
        let mut config = Config::baseline(&g);
        config.set_knob(node, knob);
        let pred = Predictor::new(&p, PredictionModel::Pi1, QosMetric::Accuracy);
        let predicted = pred.predict(&config, &reference);
        let real = tuner(&g, &r, &inputs, &reference).measure(&config).unwrap();
        assert!((predicted - real).abs() < 1e-9);
    }

    #[test]
    fn calibration_improves_pi2_fit() {
        let (g, inputs, reference, r) = setup();
        let p = profiles(&g, &r, &inputs, &reference);
        // Sample multi-knob configs and measure real QoS.
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<(Config, f64)> = (0..12)
            .map(|_| {
                let c = Config::random(&nk, &mut rng);
                let q = tuner(&g, &r, &inputs, &reference).measure(&c).unwrap();
                (c, q)
            })
            .collect();
        let mut pred = Predictor::new(&p, PredictionModel::Pi2, QosMetric::Accuracy);
        let err = |pr: &Predictor, ss: &[(Config, f64)]| -> f64 {
            ss.iter()
                .map(|(c, real)| (pr.predict(c, &reference) - real).powi(2))
                .sum::<f64>()
        };
        let before = err(&pred, &samples);
        pred.calibrate(&samples, &reference);
        let after = err(&pred, &samples);
        assert!(
            after <= before + 1e-9,
            "calibration worsened fit: {before} → {after}"
        );
        assert!(pred.alpha > 0.0);
    }

    #[test]
    fn pi1_calibration_runs_and_bounds_alpha() {
        let (g, inputs, reference, r) = setup();
        let p = profiles(&g, &r, &inputs, &reference);
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<(Config, f64)> = (0..6)
            .map(|_| {
                let c = Config::random(&nk, &mut rng);
                let q = tuner(&g, &r, &inputs, &reference).measure(&c).unwrap();
                (c, q)
            })
            .collect();
        let mut pred = Predictor::new(&p, PredictionModel::Pi1, QosMetric::Accuracy);
        let a = pred.calibrate(&samples, &reference);
        assert!((0.05..=2.0).contains(&a));
    }

    /// Π1 as it was computed before the per-thread buffer: a clone of
    /// every `T_base` tensor, then each ΔT added in node order.
    fn pi1_by_clone(p: &Predictor, config: &Config, reference: &QosReference, alpha: f64) -> f64 {
        let mut predicted = p.profiles.t_base.clone();
        for (node, &k) in config.knobs().iter().enumerate() {
            if let Some(dts) = p.delta_t(node, k).filter(|_| k != KnobId::BASELINE) {
                for (t, dt) in predicted.iter_mut().zip(dts) {
                    t.axpy(alpha as f32, dt).unwrap();
                }
            }
        }
        measure(p.metric, &predicted, reference)
    }

    /// Over every (node, knob) pair of Alexnet2's and LeNet's spaces, with
    /// random ΔT profiles (Π1's arithmetic is all this compares, so nothing
    /// is executed), 1,000 random configurations at three α each predict
    /// the same bits through the reused buffer as through fresh clones —
    /// the buffer carrying the other model's, or another batch count's,
    /// leftovers from the previous prediction.
    #[test]
    fn pi1_buffer_matches_the_clone_path_bitwise() {
        use crate::config::single_op_configs;
        use at_models::{build, BenchmarkId, ModelScale};
        let r = KnobRegistry::new();
        let mut rng = StdRng::seed_from_u64(21);
        for (id, batches) in [(BenchmarkId::AlexNet2, 2), (BenchmarkId::LeNet, 3)] {
            let graph = build(id, ModelScale::Tiny).graph;
            let pairs = single_op_configs(&graph, &r, KnobSet::HardwareIndependent);
            let out = |rng: &mut StdRng, s: f32| Tensor::uniform(Shape::mat(16, 10), -s, s, rng);
            let t_base: Vec<Tensor> = (0..batches).map(|_| out(&mut rng, 4.0)).collect();
            let dt = pairs
                .iter()
                .map(|_| (0..batches).map(|_| out(&mut rng, 0.5)).collect())
                .collect();
            // PSNR against a golden output reads every bit of the
            // prediction, where accuracy reads only each row's argmax.
            let golden = (0..batches).map(|_| out(&mut rng, 4.0)).collect();
            let reference = QosReference::Golden(golden);
            let p = QosProfiles {
                dq: vec![0.0; pairs.len()],
                pairs,
                qos_base: 0.0,
                t_base,
                dt,
                collection_time_s: 0.0,
            };
            let pred = Predictor::new(&p, PredictionModel::Pi1, QosMetric::Psnr);
            let nk = r.node_knobs(&graph, KnobSet::HardwareIndependent);
            for i in 0..1000 {
                let c = Config::random(&nk, &mut rng);
                for alpha in [1.0, 0.37, 1.61] {
                    let got = pred.predict_at(&c, &reference, alpha);
                    let want = pi1_by_clone(&pred, &c, &reference, alpha);
                    assert_eq!(got.to_bits(), want.to_bits(), "{} config {i}", id.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires tensor")]
    fn pi1_requires_tensor_profiles() {
        let (g, inputs, reference, r) = setup();
        let p = collect(&tuner(&g, &r, &inputs, &reference), PredictionModel::Pi2);
        let _ = Predictor::new(&p, PredictionModel::Pi1, QosMetric::Accuracy);
    }
}
