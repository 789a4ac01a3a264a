//! Conventional empirical (measurement-based) autotuning — the paper's
//! comparison baseline.
//!
//! "conventional empirical autotuning evaluates a configuration by actually
//! running the program binary (e.g., CNN inference) which can be expensive"
//! (§3). The search engine and fitness shape are identical to the
//! predictive tuner; only the QoS estimate differs: every iteration runs
//! the program on the calibration inputs.

use crate::evaluate::{search, select, EmpiricalEvaluator};
use crate::pareto::TradeoffCurve;
use crate::perf::PerfModel;
use crate::search::SearchSpace;
use crate::tuner::{seed_configs, PredictiveTuner, TunerParams, TuningResult};
use at_tensor::TensorError;

impl PredictiveTuner<'_> {
    /// Runs measurement-based tuning with the same parameters as
    /// Algorithm 1 (`model` and `n_calibrate` are ignored — there is no
    /// predictor).
    pub fn tune_empirical(&self, params: &TunerParams) -> Result<TuningResult, TensorError> {
        let started = std::time::Instant::now();
        let perf = PerfModel::new(self.graph, self.registry, self.input_shape)?;
        let space = SearchSpace::new(self.registry.node_knobs(self.graph, params.knob_set));
        // Empirical: run the program for the QoS of every distinct
        // configuration. This is where batched evaluation pays — the
        // per-candidate program runs of one round execute concurrently, and
        // the cache spares re-proposed configs entirely.
        let evaluator = EmpiricalEvaluator {
            tuner: self,
            perf: &perf,
            pricing: params.pricing,
        };
        // Same feasible anchors as the predictive tuner (baseline, all-FP16).
        let outcome = search(
            space,
            &evaluator,
            &seed_configs(self.graph, self.registry),
            params,
        )?;
        let search_time_s = started.elapsed().as_secs_f64();

        // QoS already measured — only curve selection remains.
        let kept = select(&outcome.candidates, params.max_shipped);
        let curve = TradeoffCurve::from_points_eps(kept, f64::INFINITY);
        Ok(outcome.into_result(curve, search_time_s, 0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobRegistry;
    use crate::predict::PredictionModel;
    use crate::qos::{QosMetric, QosReference};
    use at_ir::{execute, ExecOptions, Graph, GraphBuilder};
    use at_tensor::{Shape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Vec<Tensor>, QosReference) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new("t", Shape::nchw(16, 2, 8, 8), &mut rng);
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

    #[test]
    fn empirical_tuning_finds_speedups() {
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
        // Eq. 3 pricing, the paper's: on this 8×8 graph no knob runs
        // faster than exact on the CPU, so the CPU price has none to find.
        let params = TunerParams {
            qos_min: 85.0,
            max_iters: 120,
            convergence_window: 120,
            max_shipped: 10,
            pricing: crate::perf::Pricing::OpCount,
            ..Default::default()
        };
        let r = tuner.tune_empirical(&params).unwrap();
        assert!(!r.curve.is_empty());
        let best = r
            .curve
            .points()
            .iter()
            .map(|p| p.perf)
            .fold(1.0f64, f64::max);
        assert!(best > 1.0);
        // All points genuinely satisfy the constraint (measured QoS).
        assert!(r.curve.points().iter().all(|p| p.qos > params.qos_min));
    }

    #[test]
    fn predictive_is_faster_than_empirical_per_iteration() {
        // The core speed claim of the paper, at matched iteration counts:
        // predictive tuning avoids running the program per iteration, so
        // its search loop is much cheaper.
        let (g, inputs, reference) = setup();
        let registry = KnobRegistry::new();
        let iters = 60;
        let params = TunerParams {
            qos_min: 85.0,
            n_calibrate: 0, // isolate the search loop
            max_iters: iters,
            convergence_window: iters,
            model: PredictionModel::Pi2,
            max_validated: 5,
            max_shipped: 5,
            ..Default::default()
        };
        let tuner = PredictiveTuner {
            graph: &g,
            registry: &registry,
            inputs: &inputs,
            metric: QosMetric::Accuracy,
            reference: &reference,
            input_shape: inputs[0].shape(),
            promise_seed: 0,
        };
        let profiles = tuner.collect(&params).unwrap();
        let pr = tuner.tune(&profiles, &params).unwrap();
        let er = tuner.tune_empirical(&params).unwrap();
        assert!(
            pr.search_time_s < er.search_time_s,
            "predictive search ({}s) should beat empirical ({}s)",
            pr.search_time_s,
            er.search_time_s
        );
    }
}
