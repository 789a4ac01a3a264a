//! Shared experiment setup: benchmarks, datasets, profiles and tuning runs.

use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::predict::PredictionModel;
use at_core::profile::{collect_profiles, QosProfiles};
use at_core::qos::{QosMetric, QosReference};
use at_core::tuner::{PredictiveTuner, TunerParams, TuningResult};
use at_models::data::{build_dataset, Dataset};
use at_models::{build, Benchmark, BenchmarkId, ModelScale};

/// Harness-wide experiment sizing, controlled by `AT_SAMPLES` / `AT_BATCH`
/// / `AT_ITERS` / `AT_CONV` environment variables so every figure binary
/// can be scaled up without recompiling.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Total synthetic samples per benchmark (split 50/50 calibration/test,
    /// as in §6).
    pub samples: usize,
    /// Batch size.
    pub batch: usize,
    /// Maximum autotuning iterations.
    pub max_iters: usize,
    /// Convergence window (iterations without improvement).
    pub convergence: usize,
}

impl Sizing {
    /// Reads the sizing from the environment with quick defaults.
    pub fn from_env() -> Sizing {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Sizing {
            samples: get("AT_SAMPLES", 64),
            batch: get("AT_BATCH", 16),
            max_iters: get("AT_ITERS", 400),
            convergence: get("AT_CONV", 150),
        }
    }
}

/// A fully prepared benchmark: graph, calibration/test datasets, registry.
pub struct Prepared {
    /// The model.
    pub bench: Benchmark,
    /// Calibration split (used for profiling/tuning).
    pub cal: Dataset,
    /// Test split (used for reporting).
    pub test: Dataset,
    /// The knob registry.
    pub registry: KnobRegistry,
}

impl Prepared {
    /// Builds a benchmark with its synthetic dataset.
    ///
    /// # Panics
    ///
    /// When the sizing cannot fill both splits: the samples are cut into
    /// batches of `AT_BATCH` and the batches split 50/50, so fewer than two
    /// batches leaves the calibration split empty.
    pub fn new(id: BenchmarkId, sizing: Sizing) -> Prepared {
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
            bench,
            cal,
            test,
            registry: KnobRegistry::new(),
        }
    }

    /// QoS reference over the calibration labels.
    pub fn cal_reference(&self) -> QosReference {
        QosReference::Labels(self.cal.labels.clone())
    }

    /// QoS reference over the test labels.
    pub fn test_reference(&self) -> QosReference {
        QosReference::Labels(self.test.labels.clone())
    }

    /// Measured baseline accuracy on the calibration split.
    pub fn baseline_cal_accuracy(&self) -> f64 {
        let reference = self.cal_reference();
        at_core::profile::measure_config(
            &self.bench.graph,
            &self.registry,
            &at_core::Config::baseline(&self.bench.graph),
            &self.cal.batches,
            QosMetric::Accuracy,
            &reference,
            0,
        )
        .expect("baseline runs")
    }

    /// Collects (or loads from the on-disk cache) the QoS profiles for a
    /// knob set. Tensor (Π1) profiles are always collected so a single
    /// cache entry serves both predictors.
    pub fn profiles(&self, set: KnobSet) -> QosProfiles {
        let tag = match set {
            KnobSet::HardwareIndependent => "hwi",
            KnobSet::WithHardware => "hw",
        };
        let dir = std::path::Path::new("target/at-profile-cache");
        let path = dir.join(format!(
            "{}-{}-{}x{}.json",
            self.bench.id.name(),
            tag,
            self.cal.len(),
            self.cal.classes,
        ));
        if let Ok(s) = std::fs::read_to_string(&path) {
            if let Ok(p) = serde_json::from_str::<CachedProfiles>(&s) {
                return p.into();
            }
        }
        let reference = self.cal_reference();
        let profiles = collect_profiles(
            &self.bench.graph,
            &self.registry,
            set,
            &self.cal.batches,
            QosMetric::Accuracy,
            &reference,
            true,
            0,
        )
        .expect("profile collection succeeds");
        let _ = std::fs::create_dir_all(dir);
        if let Ok(s) = serde_json::to_string(&CachedProfiles::from(&profiles)) {
            let _ = std::fs::write(&path, s);
        }
        profiles
    }

    /// Default tuner parameters for a QoS-drop target (percentage points
    /// below the measured calibration baseline).
    pub fn params(&self, qos_drop: f64, model: PredictionModel, sizing: Sizing) -> TunerParams {
        TunerParams {
            qos_min: self.baseline_cal_accuracy() - qos_drop,
            n_calibrate: 10,
            max_iters: sizing.max_iters,
            convergence_window: sizing.convergence,
            max_validated: std::env::var("AT_MAXCFG")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(30),
            max_shipped: std::env::var("AT_MAXCFG")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(30),
            knob_set: KnobSet::HardwareIndependent,
            model,
            calibrate: true,
            seed: 0xA99 ^ self.bench.id as u64,
            batch_size: std::env::var("AT_BATCH_SIZE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(16),
            robustness: at_core::tuner::RobustnessParams::default(),
        }
    }

    /// Runs development-time predictive tuning.
    pub fn tune(&self, profiles: &QosProfiles, params: &TunerParams) -> TuningResult {
        let reference = self.cal_reference();
        let tuner = PredictiveTuner {
            graph: &self.bench.graph,
            registry: &self.registry,
            inputs: &self.cal.batches,
            metric: QosMetric::Accuracy,
            reference: &reference,
            input_shape: self.cal.batches[0].shape(),
            promise_seed: 0,
        };
        tuner.tune(profiles, params).expect("tuning succeeds")
    }
}

/// Serialisable mirror of [`QosProfiles`] for the disk cache.
#[derive(serde::Serialize, serde::Deserialize)]
struct CachedProfiles {
    pairs: Vec<(usize, at_core::knobs::KnobId)>,
    qos_base: f64,
    t_base: Vec<at_tensor::Tensor>,
    dq: Vec<f64>,
    dt: Vec<Vec<at_tensor::Tensor>>,
    collection_time_s: f64,
}

impl From<&QosProfiles> for CachedProfiles {
    fn from(p: &QosProfiles) -> Self {
        CachedProfiles {
            pairs: p.pairs.clone(),
            qos_base: p.qos_base,
            t_base: p.t_base.clone(),
            dq: p.dq.clone(),
            dt: p.dt.clone(),
            collection_time_s: p.collection_time_s,
        }
    }
}

impl From<CachedProfiles> for QosProfiles {
    fn from(c: CachedProfiles) -> Self {
        QosProfiles {
            pairs: c.pairs,
            qos_base: c.qos_base,
            t_base: c.t_base,
            dq: c.dq,
            dt: c.dt,
            collection_time_s: c.collection_time_s,
        }
    }
}

/// A curve point evaluated on the simulated device and the test split.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Evaluated {
    /// Device-model speedup over the FP32 baseline.
    pub speedup: f64,
    /// Device-model energy-reduction factor.
    pub energy_reduction: f64,
    /// Accuracy on the held-out test split (%).
    pub test_accuracy: f64,
    /// Accuracy drop vs the test baseline (percentage points).
    pub test_drop: f64,
    /// Knob histogram of the selected configuration (Table 3 style).
    pub histogram: Vec<(String, usize)>,
}

impl Prepared {
    /// Picks the best point of a tradeoff curve under the calibration QoS
    /// bound, then evaluates it on the device model (`device`) and the test
    /// split. Returns `None` when no curve point satisfies the bound.
    pub fn evaluate_best(
        &self,
        curve: &at_core::TradeoffCurve,
        qos_min: f64,
        device: &at_core::install::EdgeDevice,
    ) -> Option<Evaluated> {
        let perf = at_core::perf::PerfModel::new(
            &self.bench.graph,
            &self.registry,
            self.cal.batches[0].shape(),
        )
        .ok()?;
        // Best device speedup among constraint-satisfying points.
        let best = curve
            .points()
            .iter()
            .filter(|p| p.qos >= qos_min)
            .max_by(|a, b| {
                let sa = perf.device_speedup(&a.config, &device.timing, &device.promise);
                let sb = perf.device_speedup(&b.config, &device.timing, &device.promise);
                sa.partial_cmp(&sb).unwrap()
            })?;
        let speedup = perf.device_speedup(&best.config, &device.timing, &device.promise);
        let energy_reduction = perf.device_energy_reduction(
            &best.config,
            &device.timing,
            &device.promise,
            &device.power,
        );
        let test_ref = self.test_reference();
        let test_accuracy = at_core::profile::measure_config(
            &self.bench.graph,
            &self.registry,
            &best.config,
            &self.test.batches,
            QosMetric::Accuracy,
            &test_ref,
            0,
        )
        .ok()?;
        let base_test = at_core::profile::measure_config(
            &self.bench.graph,
            &self.registry,
            &at_core::Config::baseline(&self.bench.graph),
            &self.test.batches,
            QosMetric::Accuracy,
            &test_ref,
            0,
        )
        .ok()?;
        Some(Evaluated {
            speedup,
            energy_reduction,
            test_accuracy,
            test_drop: base_test - test_accuracy,
            histogram: best
                .config
                .coarse_histogram(&self.registry, &self.bench.graph),
        })
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

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "AT_SAMPLES=16 with AT_BATCH=16")]
    fn a_sizing_that_empties_the_calibration_split_is_refused_by_name() {
        let sizing = Sizing {
            samples: 16,
            batch: 16,
            max_iters: 30,
            convergence: 30,
        };
        Prepared::new(BenchmarkId::LeNet, sizing);
    }

    #[test]
    fn prepared_lenet_smoke() {
        let sizing = Sizing {
            samples: 24,
            batch: 12,
            max_iters: 30,
            convergence: 30,
        };
        let p = Prepared::new(BenchmarkId::LeNet, sizing);
        assert_eq!(p.cal.len(), 12);
        assert_eq!(p.test.len(), 12);
        let acc = p.baseline_cal_accuracy();
        assert!(acc > 50.0, "calibrated baseline accuracy {acc}");
    }
}
