//! Algorithm 1: predictive approximation tuning (development time, §3).

use crate::checkpoint::{CheckpointPolicy, SearchCheckpoint};
use crate::config::Config;
use crate::evaluate::{search, select, BatchTelemetry, CacheStats, PredictiveEvaluator};
use crate::fault::FaultPlan;
use crate::knobs::{KnobId, KnobRegistry, KnobSet};
use crate::pareto::{cap_points, eps_for_budget, pareto_set_eps, TradeoffCurve};
use crate::perf::{PerfModel, Pricing};
use crate::predict::{PredictionModel, Predictor};
use crate::profile::QosProfiles;
use crate::qos::{QosMetric, QosReference};
use crate::search::SearchSpace;
use crate::supervise::FaultStats;
use at_ir::Graph;
use at_tensor::{Shape, Tensor, TensorError};

/// Inputs of Algorithm 1 (plus engineering knobs).
#[derive(Clone, Debug)]
pub struct TunerParams {
    /// `QoS_min`: minimal acceptable QoS (same unit as the metric).
    pub qos_min: f64,
    /// `nCalibrate`: measured configurations used to refine α (the paper
    /// finds ~50 sufficient); `0` skips calibration (α = 1).
    pub n_calibrate: usize,
    /// `nIters`: maximum autotuning iterations (paper: 30 K).
    pub max_iters: usize,
    /// Convergence: stop after this many iterations without improvement
    /// (paper: 1 K).
    pub convergence_window: usize,
    /// Maximum configurations retained for QoS validation (`ε1` is derived
    /// per benchmark to honour this budget, §6.4).
    pub max_validated: usize,
    /// Maximum configurations shipped in the tradeoff curve (`ε2` budget;
    /// paper: at most 50).
    pub max_shipped: usize,
    /// Which knobs are in play.
    pub knob_set: KnobSet,
    /// Which QoS prediction model drives the search.
    pub model: PredictionModel,
    /// The development-time price of a configuration, the search's
    /// performance axis. Under [`Pricing::Cpu`] (the default) profile
    /// collection admits only the (op, knob) pairs the CPU model prices
    /// above [`crate::cost_table::ADMIT_MARGIN`] of exact, and the search
    /// runs over the admitted pairs; under [`Pricing::OpCount`] (Eq. 3,
    /// every paper reproduction) every pair is profiled and searched.
    pub pricing: Pricing<'static>,
    /// RNG seed for the search.
    pub seed: u64,
    /// Candidates proposed per batch-synchronous search round; unseen ones
    /// are evaluated concurrently ([`crate::evaluate`]). `1` recovers the
    /// classic one-at-a-time loop. For any value, a seeded run is
    /// deterministic regardless of the evaluation thread count.
    pub batch_size: usize,
    /// Fault-tolerance knobs: optional fault injection, checkpointing and
    /// resume.
    pub robustness: RobustnessParams,
}

/// Fault-tolerance configuration of a tuning run.
#[derive(Clone, Debug, Default)]
pub struct RobustnessParams {
    /// Inject deterministic faults into every evaluation (test harness;
    /// `None` in production runs).
    pub fault_plan: Option<FaultPlan>,
    /// Write a [`SearchCheckpoint`] every N rounds, if set.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Stop the search after this many total rounds with `halted = true`
    /// (a simulated crash; used by the resume-determinism tests).
    pub halt_after_rounds: Option<usize>,
    /// Resume the search from a previously written checkpoint. The
    /// checkpoint must match the run's `qos_min` and `batch_size`.
    pub resume_from: Option<SearchCheckpoint>,
}

impl Default for TunerParams {
    fn default() -> Self {
        TunerParams {
            qos_min: 0.0,
            n_calibrate: 12,
            max_iters: 3000,
            convergence_window: 600,
            max_validated: 50,
            max_shipped: 50,
            knob_set: KnobSet::HardwareIndependent,
            model: PredictionModel::Pi1,
            pricing: Pricing::Cpu,
            seed: 0xA99,
            batch_size: 16,
            robustness: RobustnessParams::default(),
        }
    }
}

/// Everything Algorithm 1 produced, plus timing breakdowns for Table 4.
#[derive(Clone, Debug)]
pub struct TuningResult {
    /// The final tradeoff curve (`PS_ε2` of the validated configs).
    pub curve: TradeoffCurve,
    /// Wall-clock seconds of the autotuning loop (steps 2–4).
    pub search_time_s: f64,
    /// Wall-clock seconds of QoS validation (step 5).
    pub validation_time_s: f64,
    /// Iterations the search ran.
    pub iterations: usize,
    /// Candidate configurations generated (pre-selection), §7.3.
    pub candidates: usize,
    /// The calibrated α.
    pub alpha: f64,
    /// Evaluation-cache counters of the search loop (hits, misses and
    /// in-batch dedups; `misses` equals the number of distinct
    /// configurations the evaluator actually scored).
    pub cache: CacheStats,
    /// Per-round search telemetry: batch size, cache hits, evaluator
    /// invocations and best-so-far fitness.
    pub telemetry: Vec<BatchTelemetry>,
    /// What supervision absorbed during the search: faults caught, retries,
    /// quarantines, skipped candidates.
    pub faults: FaultStats,
    /// `true` when the search stopped at a simulated crash
    /// (`halt_after_rounds`) rather than by convergence or budget; the
    /// curve then reflects only the rounds that ran.
    pub halted: bool,
}

impl TuningResult {
    /// Total tuning time excluding profile collection.
    pub fn tuning_time_s(&self) -> f64 {
        self.search_time_s + self.validation_time_s
    }

    /// Packages the tuned curve as the artifact that ships with the binary
    /// (§2.2) — the entry point of the ship → serve → guard-repair →
    /// re-ship round-trip. The curve lands in the FP32-only slot: the
    /// predictive tuner runs one knob set per call, and FP16-specific
    /// variants are added by a second tuning round
    /// ([`crate::ship::ShippedArtifact::new`] directly).
    pub fn to_artifact(
        &self,
        graph: &at_ir::Graph,
        metric: crate::qos::QosMetric,
        qos_min: f64,
    ) -> crate::ship::ShippedArtifact {
        crate::ship::ShippedArtifact::new(graph, metric, qos_min, None, Some(self.curve.clone()))
    }
}

/// One tuning run's program and calibration set: the handle every tuner
/// phase works through. Algorithm 1 is [`PredictiveTuner::collect`] then
/// [`PredictiveTuner::tune`]; the empirical baseline
/// ([`PredictiveTuner::tune_empirical`]) and install-time tuning
/// ([`PredictiveTuner::refine`], [`PredictiveTuner::install_tune`]) are
/// methods of the same handle, implemented beside their phase.
pub struct PredictiveTuner<'a> {
    /// The program under tuning.
    pub graph: &'a Graph,
    /// The knob registry.
    pub registry: &'a KnobRegistry,
    /// Calibration input batches (`C`).
    pub inputs: &'a [Tensor],
    /// The QoS metric.
    pub metric: QosMetric,
    /// The metric's reference data.
    pub reference: &'a QosReference,
    /// Per-sample input shape for the performance model.
    pub input_shape: Shape,
    /// PROMISE noise seed for measured runs.
    pub promise_seed: u64,
}

impl PredictiveTuner<'_> {
    /// Steps 2–5 of Algorithm 1 over pre-collected profiles.
    pub fn tune(
        &self,
        profiles: &QosProfiles,
        params: &TunerParams,
    ) -> Result<TuningResult, TensorError> {
        let search_started = std::time::Instant::now();
        let perf = PerfModel::new(self.graph, self.registry, self.input_shape)?;
        let mut predictor = Predictor::new(profiles, params.model, self.metric);

        // Step 2: refine α against a few measured configurations.
        let (space, anchors) = self.search_space(profiles, params);
        if params.n_calibrate > 0 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed ^ 0xCAFE);
            let mut samples = Vec::with_capacity(params.n_calibrate);
            for _ in 0..params.n_calibrate {
                let c = space.random(&mut rng);
                let q = self.measure(&c)?;
                samples.push((c, q));
            }
            predictor.calibrate(&samples, self.reference);
        }

        // Step 3: batched autotuning with the QoS and performance
        // prediction models. The search is seeded with the two
        // universally-sensible anchors — the exact baseline (always
        // feasible) and all-FP16, on the nodes where FP16 is in the space —
        // because random points in a
        // 56-knobs-per-conv space are almost surely infeasible, so without
        // anchors the ensemble spends its whole budget walking back to the
        // feasible region.
        let evaluator = PredictiveEvaluator {
            predictor: &predictor,
            perf: &perf,
            pricing: params.pricing,
            reference: self.reference,
        };
        let outcome = search(space, &evaluator, &anchors, params)?;

        // Step 4: keep configs within ε1 of the Pareto set, with ε1 chosen
        // per benchmark to bound validation work.
        let pareto_configs = select(&outcome.candidates, params.max_validated);
        let search_time_s = search_started.elapsed().as_secs_f64();

        // Step 5: validate — measure the real QoS of every retained config
        // and drop the violators.
        let validation_started = std::time::Instant::now();
        let validated = self.validate(&pareto_configs, params.qos_min)?;
        let eps2 = eps_for_budget(&validated, params.max_shipped);
        let shipped = cap_points(pareto_set_eps(&validated, eps2), params.max_shipped);
        let curve = TradeoffCurve::from_points_eps(shipped, f64::INFINITY);
        let validation_time_s = validation_started.elapsed().as_secs_f64();

        Ok(outcome.into_result(curve, search_time_s, validation_time_s, predictor.alpha))
    }

    /// The space steps 2–3 search and the anchors they start from: every
    /// knob of `params.knob_set`, or under [`Pricing::Cpu`] only the
    /// profiled pairs plus the baseline — an anchor's unprofiled knobs
    /// reset to the baseline, and an anchor that then repeats an earlier
    /// one is dropped.
    fn search_space(
        &self,
        profiles: &QosProfiles,
        params: &TunerParams,
    ) -> (SearchSpace, Vec<Config>) {
        let mut node_knobs = self.registry.node_knobs(self.graph, params.knob_set);
        let mut anchors = seed_configs(self.graph, self.registry);
        if matches!(params.pricing, Pricing::Cpu) {
            let profiled: std::collections::HashSet<(usize, KnobId)> =
                profiles.pairs.iter().copied().collect();
            let kept =
                |node: usize, k: KnobId| k == KnobId::BASELINE || profiled.contains(&(node, k));
            for (node, knobs) in node_knobs.iter_mut().enumerate() {
                knobs.retain(|&k| kept(node, k));
            }
            let mut masked: Vec<Config> = Vec::with_capacity(anchors.len());
            for mut anchor in anchors {
                for node in 0..self.graph.len() {
                    if !kept(node, anchor.knob(node)) {
                        anchor.set_knob(node, KnobId::BASELINE);
                    }
                }
                if !masked.contains(&anchor) {
                    masked.push(anchor);
                }
            }
            anchors = masked;
        }
        (SearchSpace::new(node_knobs), anchors)
    }
}

/// The search-seeding anchors: exact baseline and all-FP16 (the FP16 knob
/// id differs per op class).
pub(crate) fn seed_configs(graph: &Graph, registry: &KnobRegistry) -> Vec<Config> {
    let baseline = Config::baseline(graph);
    let mut fp16 = Config::baseline(graph);
    for node in graph.nodes() {
        let class = node.op.class();
        if let Some(k) = registry
            .table(class)
            .iter()
            .find(|k| k.choice == at_ir::ApproxChoice::FP16)
        {
            fp16.set_knob(node.id.0 as usize, k.id);
        }
    }
    vec![baseline, fp16]
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_ir::{execute, ExecOptions, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Vec<Tensor>, QosReference) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new("t", Shape::nchw(16, 2, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .conv(4, 3, (1, 1), (1, 1))
            .relu();
        b.max_pool(2, 2).flatten().dense(5).softmax();
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

    fn quick_params(model: PredictionModel) -> TunerParams {
        TunerParams {
            qos_min: 85.0,
            n_calibrate: 6,
            max_iters: 250,
            convergence_window: 250,
            max_validated: 20,
            max_shipped: 10,
            model,
            ..Default::default()
        }
    }

    #[test]
    fn predictive_tuning_produces_valid_curve() {
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
        for model in [PredictionModel::Pi1, PredictionModel::Pi2] {
            let params = quick_params(model);
            let profiles = tuner.collect(&params).unwrap();
            let result = tuner.tune(&profiles, &params).unwrap();
            assert!(
                !result.curve.is_empty(),
                "{model:?} produced an empty curve"
            );
            assert!(result.curve.len() <= params.max_shipped);
            // Every shipped point satisfies the (validated) QoS constraint
            // and reports a real speedup ≥ 1 … not guaranteed for every
            // point, but the best one should beat baseline.
            for p in result.curve.points() {
                assert!(p.qos > params.qos_min, "{model:?}: shipped QoS {}", p.qos);
            }
            let best = result
                .curve
                .points()
                .iter()
                .map(|p| p.perf)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(best > 1.0, "{model:?}: best predicted speedup {best}");
            assert!(result.iterations > 0);
        }
    }

    #[test]
    fn qos_constraint_respected_by_validation() {
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
        let params = quick_params(PredictionModel::Pi2);
        let profiles = tuner.collect(&params).unwrap();
        let result = tuner.tune(&profiles, &params).unwrap();
        // Re-measure every shipped config: real QoS must exceed QoS_min
        // (validation guarantees it on the calibration inputs).
        for p in result.curve.points() {
            assert!(tuner.measure(&p.config).unwrap() > params.qos_min);
        }
    }

    #[test]
    fn tighter_qos_gives_no_more_speedup() {
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
        let best_speedup = |qos_min: f64| -> f64 {
            let params = TunerParams {
                qos_min,
                ..quick_params(PredictionModel::Pi2)
            };
            let profiles = tuner.collect(&params).unwrap();
            let r = tuner.tune(&profiles, &params).unwrap();
            r.curve
                .points()
                .iter()
                .map(|p| p.perf)
                .fold(1.0f64, f64::max)
        };
        let strict = best_speedup(99.0);
        let loose = best_speedup(70.0);
        assert!(
            loose >= strict - 1e-9,
            "looser constraint must not reduce attainable speedup: strict {strict}, loose {loose}"
        );
    }
}
