//! Shared experiment setup: a prepared benchmark (model, datasets, cached
//! profiles and baselines, tuning and evaluation runs) and the
//! per-benchmark `sweep` the paper's tables and figures are rows of.

use crate::env::Sizing;
use at_core::install::{EdgeDevice, InstallObjective};
use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::perf::{PerfModel, Pricing};
use at_core::predict::PredictionModel;
use at_core::profile::QosProfiles;
use at_core::qos::{QosMetric, QosReference};
use at_core::ship::{graph_fingerprint, weights_fingerprint};
use at_core::tuner::{PredictiveTuner, TunerParams, TuningResult};
use at_core::{Config, TradeoffCurve};
use at_models::data::{build_dataset, Dataset};
use at_models::prune::{prune_filters, PruneReport};
use at_models::{build, Benchmark, BenchmarkId, ModelScale};
use serde::Value;
use std::cell::OnceCell;
use std::hash::{Hash, Hasher};

/// A fully prepared benchmark: graph, calibration/test datasets, registry,
/// and what is measured at most once per benchmark — the QoS profiles and
/// the exact baseline's accuracy on either split.
pub struct Prepared {
    /// The model.
    pub bench: Benchmark,
    /// Calibration split (used for profiling/tuning).
    pub cal: Dataset,
    /// Test split (used for reporting).
    pub test: Dataset,
    /// The knob registry.
    pub registry: KnobRegistry,
    /// QoS reference over the calibration labels.
    cal_reference: QosReference,
    sizing: Sizing,
    profiles: OnceCell<QosProfiles>,
    baseline_cal: OnceCell<f64>,
    baseline_test: OnceCell<f64>,
}

impl Prepared {
    /// Builds a benchmark with its synthetic dataset.
    ///
    /// # Panics
    ///
    /// When the sizing cannot fill both splits: the samples are cut into
    /// batches of `AT_BATCH` and the batches split 50/50, so fewer than two
    /// batches leaves the calibration split empty.
    pub fn new(id: BenchmarkId, sizing: &Sizing) -> Prepared {
        assert!(
            sizing.batch >= 1 && sizing.samples > sizing.batch,
            "AT_SAMPLES={} with AT_BATCH={} leaves the calibration split empty: the samples \
             are cut into batches of AT_BATCH and split 50/50 calibration/test, so AT_SAMPLES \
             must exceed AT_BATCH (and AT_BATCH must be at least 1)",
            sizing.samples,
            sizing.batch
        );
        let bench = build(id, ModelScale::Tiny);
        let ds = build_dataset(&bench, sizing.samples, sizing.batch, 0xD5EED ^ id as u64);
        let (cal, test) = ds.split();
        Prepared {
            cal_reference: QosReference::Labels(cal.labels.clone()),
            bench,
            cal,
            test,
            registry: KnobRegistry::new(),
            sizing: sizing.clone(),
            profiles: OnceCell::new(),
            baseline_cal: OnceCell::new(),
            baseline_test: OnceCell::new(),
        }
    }

    /// The benchmark of a single-model experiment: `AT_BENCH`, else the
    /// experiment's `default`.
    pub(crate) fn single(name: &str, sizing: &Sizing, default: BenchmarkId) -> Prepared {
        let id = sizing.bench.unwrap_or(default);
        eprintln!("[{name}] preparing {} …", id.name());
        Prepared::new(id, sizing)
    }

    /// Magnitude-prunes the model's filters in place and forgets what was
    /// measured on the unpruned weights.
    pub(crate) fn prune(&mut self, fraction: f64) -> PruneReport {
        (self.profiles, self.baseline_cal, self.baseline_test) = Default::default();
        prune_filters(&mut self.bench.graph, fraction)
    }

    /// The benchmark's name as the paper's figures render it.
    pub(crate) fn name(&self) -> &'static str {
        self.bench.id.name()
    }

    /// Per-batch input shape, as the performance model wants it.
    pub(crate) fn input_shape(&self) -> at_tensor::Shape {
        self.cal.batches[0].shape()
    }

    /// The tuning run over the calibration split: accuracy, PROMISE seed 0.
    pub(crate) fn tuner(&self) -> PredictiveTuner<'_> {
        PredictiveTuner {
            graph: &self.bench.graph,
            registry: &self.registry,
            inputs: &self.cal.batches,
            metric: QosMetric::Accuracy,
            reference: &self.cal_reference,
            input_shape: self.input_shape(),
            promise_seed: 0,
        }
    }

    /// Measured accuracy (%) of a configuration on one of the splits.
    pub(crate) fn accuracy(&self, config: &Config, split: &Dataset) -> f64 {
        let on_split = PredictiveTuner {
            inputs: &split.batches,
            reference: &QosReference::Labels(split.labels.clone()),
            ..self.tuner()
        };
        on_split
            .measure(config)
            .expect("the model runs on its own dataset")
    }

    /// Exact-baseline accuracy on the calibration split, measured once.
    pub fn baseline_cal_accuracy(&self) -> f64 {
        *self
            .baseline_cal
            .get_or_init(|| self.accuracy(&Config::baseline(&self.bench.graph), &self.cal))
    }

    /// Exact-baseline accuracy on the test split, measured once.
    pub(crate) fn baseline_test_accuracy(&self) -> f64 {
        *self
            .baseline_test
            .get_or_init(|| self.accuracy(&Config::baseline(&self.bench.graph), &self.test))
    }

    /// The hardware-independent QoS profiles, collected once per process
    /// and cached on disk across processes. Tensor (Π1) profiles are always
    /// collected so a single cache entry serves both predictors. The file
    /// name carries everything the tables depend on — the calibration
    /// split's size *and* batching (Π1's `ΔT` is per batch), the graph, its
    /// weights and the (node, knob) pairs the registry offers — so a stale
    /// entry is never loaded, only left behind.
    pub fn profiles(&self) -> &QosProfiles {
        self.profiles.get_or_init(|| {
            let (graph, set) = (&self.bench.graph, KnobSet::HardwareIndependent);
            let mut key = std::collections::hash_map::DefaultHasher::new();
            (
                graph_fingerprint(graph),
                weights_fingerprint(graph),
                self.registry.node_knobs(graph, set),
            )
                .hash(&mut key);
            let path = std::path::Path::new("target/at-profile-cache").join(format!(
                "{}-hwi-{}x{}-b{}-{:016x}.json",
                self.name(),
                self.cal.len(),
                self.cal.classes,
                self.sizing.batch,
                key.finish(),
            ));
            let cached = std::fs::read_to_string(&path).ok();
            if let Some(p) = cached.and_then(|s| serde_json::from_str(&s).ok()) {
                return p;
            }
            // Every pair, as Eq. 3 pricing (`Prepared::params`) searches them.
            let params = TunerParams {
                knob_set: set,
                model: PredictionModel::Pi1,
                pricing: Pricing::OpCount,
                ..TunerParams::default()
            };
            let profiles = self
                .tuner()
                .collect(&params)
                .expect("profile collection succeeds");
            if let (Some(dir), Ok(s)) = (path.parent(), serde_json::to_string(&profiles)) {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(&path, s);
            }
            profiles
        })
    }

    /// Default tuner parameters for a QoS-drop target (percentage points
    /// below the measured calibration baseline), priced by Eq. 3's
    /// operation count as the paper's development-time tuner is.
    pub fn params(&self, qos_drop: f64, model: PredictionModel) -> TunerParams {
        TunerParams {
            qos_min: self.baseline_cal_accuracy() - qos_drop,
            n_calibrate: 10,
            max_iters: self.sizing.max_iters,
            convergence_window: self.sizing.convergence,
            max_validated: self.sizing.max_cfg,
            max_shipped: self.sizing.max_cfg,
            knob_set: KnobSet::HardwareIndependent,
            model,
            pricing: Pricing::OpCount,
            seed: 0xA99 ^ self.bench.id as u64,
            batch_size: self.sizing.batch_size,
            robustness: at_core::tuner::RobustnessParams::default(),
        }
    }

    /// Runs development-time predictive tuning.
    pub fn tune(&self, params: &TunerParams) -> TuningResult {
        self.tuner()
            .tune(self.profiles(), params)
            .expect("tuning succeeds")
    }

    /// Runs conventional empirical tuning: every iteration executes the
    /// program on the calibration split (the `model` field is ignored).
    pub(crate) fn tune_empirical(&self, params: &TunerParams) -> TuningResult {
        self.tuner()
            .tune_empirical(params)
            .expect("empirical tuning succeeds")
    }

    /// The Eqn-3 performance model of the benchmark.
    pub(crate) fn perf_model(&self) -> PerfModel<'_> {
        PerfModel::new(&self.bench.graph, &self.registry, self.input_shape()).expect("perf model")
    }

    /// Simulated per-batch time of the exact baseline on `device`.
    pub(crate) fn base_time(&self, device: &EdgeDevice) -> f64 {
        let baseline = Config::baseline(&self.bench.graph);
        let objective = InstallObjective::Speedup;
        self.perf_model()
            .price(&baseline, &Pricing::Device { device, objective })
            .expect("device pricing")
    }

    /// Picks the curve point with the best device speedup under the
    /// calibration QoS bound, then evaluates it on the device model and the
    /// test split. Returns `None` when no curve point satisfies the bound.
    pub(crate) fn evaluate_best(
        &self,
        curve: &TradeoffCurve,
        qos_min: f64,
        device: &EdgeDevice,
    ) -> Option<Evaluated> {
        let perf = self.perf_model();
        let on_device = |config: &Config, objective| {
            perf.speedup(config, &Pricing::Device { device, objective })
                .expect("device pricing")
        };
        let (best, speedup) = curve
            .points()
            .iter()
            .filter(|p| p.qos >= qos_min)
            .map(|p| (p, on_device(&p.config, InstallObjective::Speedup)))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        Some(Evaluated {
            speedup,
            energy_reduction: on_device(&best.config, InstallObjective::EnergyReduction),
            test_drop: self.baseline_test_accuracy() - self.accuracy(&best.config, &self.test),
            histogram: best
                .config
                .coarse_histogram(&self.registry, &self.bench.graph),
        })
    }

    /// [`Prepared::evaluate_best`]'s device speedup, 1.0 when no point of
    /// the curve meets the bound.
    pub(crate) fn best_speedup(&self, curve: &TradeoffCurve, qos_min: f64, on: &EdgeDevice) -> f64 {
        self.evaluate_best(curve, qos_min, on)
            .map_or(1.0, |e| e.speedup)
    }
}

/// A curve point evaluated on the simulated device and the test split.
pub(crate) struct Evaluated {
    /// Device-model speedup over the FP32 baseline.
    pub(crate) speedup: f64,
    /// Device-model energy-reduction factor.
    pub(crate) energy_reduction: f64,
    /// Accuracy drop vs the test baseline (percentage points).
    pub(crate) test_drop: f64,
    /// Knob histogram of the selected configuration (Table 3 style).
    pub(crate) histogram: Vec<(String, usize)>,
}

/// Runs `row` once per benchmark of a sweep and concatenates the JSON rows
/// it returns. The benchmarks are the ones `AT_ONLY` names, else all ten
/// under `AT_FULL`, else the experiment's `default` subset.
pub(crate) fn sweep(
    name: &str,
    sizing: &Sizing,
    default: &[BenchmarkId],
    mut row: impl FnMut(&mut Prepared) -> Vec<Value>,
) -> Vec<Value> {
    let mut rows = Vec::new();
    for id in selected(sizing, default) {
        eprintln!("[{name}] {} …", id.name());
        rows.extend(row(&mut Prepared::new(id, sizing)));
    }
    rows
}

fn selected(sizing: &Sizing, default: &[BenchmarkId]) -> Vec<BenchmarkId> {
    match &sizing.only {
        Some(names) => BenchmarkId::ALL
            .into_iter()
            .filter(|id| names.contains(&id.name().to_lowercase()))
            .collect(),
        None if sizing.full => BenchmarkId::ALL.to_vec(),
        None => default.to_vec(),
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized(samples: usize, batch: usize) -> Sizing {
        Sizing {
            samples,
            batch,
            max_iters: 30,
            convergence: 30,
            ..Sizing::default()
        }
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "AT_SAMPLES=16 with AT_BATCH=16")]
    fn a_sizing_that_empties_the_calibration_split_is_refused_by_name() {
        Prepared::new(BenchmarkId::LeNet, &sized(16, 16));
    }

    #[test]
    fn prepared_lenet_smoke() {
        let p = Prepared::new(BenchmarkId::LeNet, &sized(24, 12));
        assert_eq!(p.cal.len(), 12);
        assert_eq!(p.test.len(), 12);
        let acc = p.baseline_cal_accuracy();
        assert!(acc > 50.0, "calibrated baseline accuracy {acc}");
    }

    /// Both sizings leave 12 calibration samples, so a cache keyed on the
    /// sample count alone hands the second run the first run's tables:
    /// one `ΔT` batch of 12 rows for inputs that come as two batches of 6.
    #[test]
    fn profile_cache_is_not_reused_across_batch_sizes() {
        for batch in [12, 6] {
            let p = Prepared::new(BenchmarkId::LeNet, &sized(24, batch));
            let profiles = p.profiles();
            assert_eq!(p.cal.len(), 12);
            assert_eq!(profiles.t_base.len(), p.cal.batches.len());
            assert_eq!(profiles.t_base[0].shape().dims()[0], batch);
            assert!(profiles.dt.iter().all(|dt| dt.len() == p.cal.batches.len()));
        }
    }

    #[test]
    fn sweeps_honour_only_then_full_then_the_default_subset() {
        let default = [BenchmarkId::LeNet];
        assert_eq!(selected(&Sizing::default(), &default), default);
        let full = Sizing {
            full: true,
            ..Sizing::default()
        };
        assert_eq!(selected(&full, &default), BenchmarkId::ALL);
        let only = Sizing {
            only: Some(vec!["alexnet2".to_string()]),
            ..full
        };
        assert_eq!(selected(&only, &default), [BenchmarkId::AlexNet2]);
    }
}
