//! Install-time tuning (§4): curve refinement with device measurements and
//! distributed predictive tuning with hardware-specific knobs.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::config::Config;
use crate::knobs::{KnobRegistry, KnobSet};
use crate::pareto::TradeoffCurve;
use crate::perf::{PerfModel, Pricing};
use crate::profile::QosProfiles;
use crate::qos::{QosMetric, QosReference};
use crate::tuner::{PredictiveTuner, TunerParams};
use at_hw::{PowerModel, TimingModel};
use at_ir::Graph;
use at_promise::PromiseModel;
use at_tensor::{Tensor, TensorError};

/// The simulated edge device: timing, accelerator and power models.
#[derive(Clone)]
pub struct EdgeDevice {
    /// Digital-unit timing model.
    pub timing: TimingModel,
    /// PROMISE accelerator model.
    pub promise: PromiseModel,
    /// Rail power model.
    pub power: PowerModel,
}

impl EdgeDevice {
    /// The paper's evaluation SoC: TX2 GPU + PROMISE.
    pub fn tx2() -> EdgeDevice {
        EdgeDevice {
            timing: TimingModel::new(at_hw::DeviceSpec::tx2_gpu()),
            promise: PromiseModel::paper(),
            power: PowerModel::tx2(),
        }
    }
}

/// What the install-time curve's performance axis measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstallObjective {
    /// Execution-time speedup vs the FP32 baseline.
    Speedup,
    /// Energy-reduction factor vs the FP32 baseline (Figure 4's axis).
    EnergyReduction,
}

/// Empirical wall-clock time of one program invocation under a
/// configuration on the host CPU: the median over `reps` runs of the summed
/// seconds of the per-node records from [`at_ir::execute_with_records`]. This is
/// the empirical counterpart of the analytical device models — on a CPU
/// target the install-time tuner can replace predicted performance with
/// real measured kernel time (the fast tiled/SIMD kernels make the
/// approximate configs genuinely faster, not just modelled faster).
pub fn measured_cpu_time_s(
    graph: &Graph,
    registry: &KnobRegistry,
    config: &Config,
    input: &Tensor,
    reps: usize,
    promise_seed: u64,
) -> Result<f64, TensorError> {
    let opts = at_ir::ExecOptions {
        config: config.decode(registry, graph),
        promise_seed,
    };
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let (_, records) = at_ir::execute_with_records(graph, input, &opts)?;
        samples.push(records.iter().map(|r| r.seconds).sum::<f64>());
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[samples.len() / 2])
}

/// The first calibration input: the one [`Pricing::Measured`] times and
/// whose shape the cost model is built for.
fn first_input(inputs: &[Tensor]) -> Result<&Tensor, TensorError> {
    inputs.first().ok_or_else(|| TensorError::ShapeMismatch {
        op: "install::refine",
        detail: "need at least one calibration input".into(),
    })
}

/// [`PredictiveTuner::refine`] against the host CPU itself:
/// [`Pricing::Measured`] on the first input, `reps` runs per configuration.
/// Kept only for the frozen `benchmark/` harness; ROADMAP item 4 deletes it.
#[allow(clippy::too_many_arguments)]
pub fn refine_measured_cpu(
    graph: &Graph,
    registry: &KnobRegistry,
    shipped: &TradeoffCurve,
    inputs: &[Tensor],
    metric: QosMetric,
    reference: &QosReference,
    qos_min: f64,
    reps: usize,
    promise_seed: u64,
) -> Result<TradeoffCurve, TensorError> {
    let input = first_input(inputs)?;
    let tuner = PredictiveTuner {
        graph,
        registry,
        inputs,
        metric,
        reference,
        input_shape: input.shape(),
        promise_seed,
    };
    let pricing = Pricing::Measured {
        input,
        reps,
        promise_seed,
    };
    tuner.refine(&pricing, shipped, qos_min)
}

/// Result of a distributed install-time tuning round.
#[derive(Clone, Debug)]
pub struct InstallResult {
    /// The final device curve: the strict Pareto set of the server's
    /// validated points, priced on the device.
    pub curve: TradeoffCurve,
    /// Largest per-device profile-collection time, seconds: each device
    /// works on its own shard, so the slowest one bounds the phase.
    pub device_profile_time_s: f64,
    /// Server-side autotuning time, seconds.
    pub server_tuning_time_s: f64,
    /// Number of simulated devices that held calibration data.
    pub active_devices: usize,
}

impl PredictiveTuner<'_> {
    /// Install-time refinement (§4): runs the shipped curve's
    /// configurations on the calibration inputs, keeps those whose
    /// re-measured QoS meets `qos_min`, replaces their performance with the
    /// speedup `pricing` gives them over the baseline, and returns the
    /// strict Pareto curve `PS(S*)`. The survivors are priced one at a
    /// time, after all QoS measurement has finished.
    pub fn refine(
        &self,
        pricing: &Pricing,
        shipped: &TradeoffCurve,
        qos_min: f64,
    ) -> Result<TradeoffCurve, TensorError> {
        let perf = PerfModel::new(self.graph, self.registry, self.input_shape)?;
        perf.curve(self.validate(shipped.points(), qos_min)?, pricing)
    }

    /// Distributed predictive install-time tuning (§4, hardware-specific
    /// knobs):
    ///
    /// 1. each of `n_edge` devices collects QoS profiles on its shard of
    ///    the calibration inputs, against `reference_for_shard(i, n_edge)`
    ///    (simulated one device after another, each collection parallel on
    ///    the pool);
    /// 2. the server merges the profiles (mean ΔQ, concatenated ΔT) and
    ///    runs a fresh predictive-tuning round over the *combined*
    ///    software + hardware knob space (approximation choices cannot be
    ///    decoupled, so the development-time curve is not reused); its step
    ///    5 validates every candidate on the full calibration set;
    /// 3. the validated curve is re-priced under `pricing`, and its strict
    ///    Pareto set is the device curve.
    pub fn install_tune(
        &self,
        pricing: &Pricing,
        reference_for_shard: &dyn Fn(usize, usize) -> QosReference,
        n_edge: usize,
        params: &TunerParams,
    ) -> Result<InstallResult, TensorError> {
        let params = TunerParams {
            knob_set: KnobSet::WithHardware,
            ..params.clone()
        };

        // Step 1: per-device profile collection over input shards. Device
        // `i` holds batches i, i + n_edge, …; devices past the last batch
        // hold none and sit out (with no device, nothing is collected).
        let active_devices = n_edge.min(self.inputs.len());
        let shard_profiles = (0..active_devices)
            .filter_map(|i| {
                let shard: Vec<Tensor> = self
                    .inputs
                    .iter()
                    .skip(i)
                    .step_by(n_edge)
                    .cloned()
                    .collect();
                let device = PredictiveTuner {
                    inputs: &shard,
                    reference: &reference_for_shard(i, n_edge),
                    promise_seed: self.promise_seed ^ (i as u64),
                    ..*self
                };
                device.collect(&params).ok()
            })
            .collect();
        let merged =
            QosProfiles::merge(shard_profiles).ok_or_else(|| TensorError::ShapeMismatch {
                op: "install::merge",
                detail: format!("none of {n_edge} devices produced profiles"),
            })?;
        let device_profile_time_s = merged.collection_time_s;

        // Step 2: fresh server-side predictive tuning over software +
        // hardware knobs.
        let server_started = std::time::Instant::now();
        let result = self.tune(&merged, &params)?;
        let server_tuning_time_s = server_started.elapsed().as_secs_f64();

        // Step 3: the server's step 5 already measured every point's QoS on
        // these inputs with this reference and seed; only the performance
        // axis changes.
        let perf = PerfModel::new(self.graph, self.registry, self.input_shape)?;
        Ok(InstallResult {
            curve: perf.curve(result.curve.points().to_vec(), pricing)?,
            device_profile_time_s,
            server_tuning_time_s,
            active_devices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;
    use crate::predict::PredictionModel;
    use at_ir::{execute, ExecOptions, GraphBuilder};
    use at_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Vec<Tensor>, Vec<Vec<usize>>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new("t", Shape::nchw(8, 2, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .max_pool(2, 2)
            .flatten()
            .dense(5)
            .softmax();
        let g = b.finish().unwrap();
        let mut rng2 = StdRng::seed_from_u64(6);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::uniform(Shape::nchw(8, 2, 8, 8), -1.0, 1.0, &mut rng2))
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
                    .collect::<Vec<usize>>(),
            );
        }
        (g, inputs, labels)
    }

    fn tuner<'a>(
        g: &'a Graph,
        registry: &'a KnobRegistry,
        inputs: &'a [Tensor],
        reference: &'a QosReference,
    ) -> PredictiveTuner<'a> {
        PredictiveTuner {
            graph: g,
            registry,
            inputs,
            metric: QosMetric::Accuracy,
            reference,
            input_shape: inputs[0].shape(),
            promise_seed: 0,
        }
    }

    #[test]
    fn distributed_tuning_produces_device_curve() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let device = EdgeDevice::tx2();
        let reference_full = QosReference::Labels(labels.clone());
        let labels2 = labels.clone();
        let shard_ref = move |i: usize, n: usize| {
            QosReference::Labels(
                labels2
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % n == i)
                    .map(|(_, l)| l.clone())
                    .collect(),
            )
        };
        let params = TunerParams {
            qos_min: 80.0,
            n_calibrate: 4,
            max_iters: 150,
            convergence_window: 150,
            max_validated: 12,
            max_shipped: 8,
            model: PredictionModel::Pi2,
            ..Default::default()
        };
        let r = tuner(&g, &registry, &inputs, &reference_full)
            .install_tune(
                &Pricing::Device {
                    device: &device,
                    objective: InstallObjective::EnergyReduction,
                },
                &shard_ref,
                3,
                &params,
            )
            .unwrap();
        assert_eq!(r.active_devices, 3);
        assert!(!r.curve.is_empty(), "install-time curve empty");
        // Energy objective: best point should save energy.
        let best = r
            .curve
            .points()
            .iter()
            .map(|p| p.perf)
            .fold(1.0f64, f64::max);
        assert!(best > 1.0, "best energy reduction {best}");
    }

    #[test]
    fn more_devices_than_batches_is_fine() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let device = EdgeDevice::tx2();
        let reference_full = QosReference::Labels(labels.clone());
        let labels2 = labels.clone();
        let shard_ref = move |i: usize, n: usize| {
            QosReference::Labels(
                labels2
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % n == i)
                    .map(|(_, l)| l.clone())
                    .collect(),
            )
        };
        let params = TunerParams {
            qos_min: 80.0,
            n_calibrate: 0,
            max_iters: 40,
            convergence_window: 40,
            max_validated: 6,
            max_shipped: 4,
            model: PredictionModel::Pi2,
            ..Default::default()
        };
        // 10 devices, 4 batches: 6 devices hold no data and are skipped.
        let r = tuner(&g, &registry, &inputs, &reference_full)
            .install_tune(
                &Pricing::Device {
                    device: &device,
                    objective: InstallObjective::Speedup,
                },
                &shard_ref,
                10,
                &params,
            )
            .unwrap();
        assert_eq!(r.active_devices, 4);
    }

    #[test]
    fn zero_devices_is_a_typed_error() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let reference = QosReference::Labels(labels);
        let shard_ref = |_: usize, _: usize| reference.clone();
        let r = tuner(&g, &registry, &inputs, &reference).install_tune(
            &Pricing::OpCount,
            &shard_ref,
            0,
            &TunerParams::default(),
        );
        assert!(matches!(
            r,
            Err(TensorError::ShapeMismatch {
                op: "install::merge",
                ..
            })
        ));
    }

    #[test]
    fn refining_without_inputs_is_a_typed_error() {
        let (g, _, labels) = setup();
        let registry = KnobRegistry::new();
        let shipped = TradeoffCurve::from_points(vec![TradeoffPoint {
            qos: 100.0,
            perf: 1.0,
            config: Config::baseline(&g),
        }]);
        let r = refine_measured_cpu(
            &g,
            &registry,
            &shipped,
            &[],
            QosMetric::Accuracy,
            &QosReference::Labels(labels),
            50.0,
            3,
            0,
        );
        assert!(matches!(
            r,
            Err(TensorError::ShapeMismatch {
                op: "install::refine",
                ..
            })
        ));
    }

    #[test]
    fn measured_cpu_time_positive_and_stable() {
        let (g, inputs, _) = setup();
        let registry = KnobRegistry::new();
        let base = Config::baseline(&g);
        let t = measured_cpu_time_s(&g, &registry, &base, &inputs[0], 3, 0).unwrap();
        assert!(t > 0.0 && t.is_finite(), "measured time {t}");
    }

    #[test]
    fn measured_cpu_refinement_builds_pareto_curve() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let reference = QosReference::Labels(labels);
        // A tiny hand-built "shipped curve": baseline plus one perforated
        // conv config.
        let perf_knob = registry
            .table(at_ir::OpClass::Conv)
            .iter()
            .find(|k| k.label == "perf-50%-row-o0-fp32")
            .unwrap()
            .id;
        let mut approx = Config::baseline(&g);
        approx.set_knob(1, perf_knob);
        let shipped = TradeoffCurve::from_points(vec![
            TradeoffPoint {
                qos: 100.0,
                perf: 1.0,
                config: Config::baseline(&g),
            },
            TradeoffPoint {
                qos: 99.0,
                perf: 1.5,
                config: approx,
            },
        ]);
        let refined = refine_measured_cpu(
            &g,
            &registry,
            &shipped,
            &inputs,
            QosMetric::Accuracy,
            &reference,
            50.0,
            3,
            0,
        )
        .unwrap();
        assert!(!refined.is_empty());
        for p in refined.points() {
            assert!(p.perf > 0.0 && p.perf.is_finite());
        }
    }

    #[test]
    fn refine_prices_on_the_handle_input_shape() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let reference = QosReference::Labels(labels);
        // One image per invocation, though the calibration batches hold 8:
        // the CPU price has a per-call term, so the two shapes price the
        // same configuration differently.
        let one = Shape::nchw(1, 2, 8, 8);
        let tuner = PredictiveTuner {
            input_shape: one,
            ..tuner(&g, &registry, &inputs, &reference)
        };
        let sampled = registry
            .table(at_ir::OpClass::Conv)
            .iter()
            .find(|k| k.label == "samp-50%-o0-fp32")
            .unwrap()
            .id;
        let mut config = Config::baseline(&g);
        config.set_knob(1, sampled);
        let shipped = TradeoffCurve::from_points(vec![TradeoffPoint {
            qos: 100.0,
            perf: 1.0,
            config: config.clone(),
        }]);
        let refined = tuner.refine(&Pricing::Cpu, &shipped, 0.0).unwrap();
        let at = |shape| {
            PerfModel::new(&g, &registry, shape)
                .unwrap()
                .speedup(&config, &Pricing::Cpu)
                .unwrap()
        };
        let (want, batch) = (at(one), at(inputs[0].shape()));
        assert_ne!(want.to_bits(), batch.to_bits());
        assert_eq!(refined.points()[0].perf.to_bits(), want.to_bits());
    }

    #[test]
    fn software_refinement_replaces_perf_axis() {
        let (g, inputs, labels) = setup();
        let registry = KnobRegistry::new();
        let device = EdgeDevice::tx2();
        let reference = QosReference::Labels(labels);
        // Build a small dev-time curve first.
        let tuner = tuner(&g, &registry, &inputs, &reference);
        let params = TunerParams {
            qos_min: 80.0,
            n_calibrate: 2,
            max_iters: 80,
            convergence_window: 80,
            max_validated: 8,
            max_shipped: 6,
            model: PredictionModel::Pi2,
            ..Default::default()
        };
        let profiles = tuner.collect(&params).unwrap();
        let dev = tuner.tune(&profiles, &params).unwrap();
        assert!(!dev.curve.is_empty());
        let refined = tuner
            .refine(
                &Pricing::Device {
                    device: &device,
                    objective: InstallObjective::Speedup,
                },
                &dev.curve,
                params.qos_min,
            )
            .unwrap();
        // The refined curve is a strict Pareto set.
        for (i, p) in refined.points().iter().enumerate() {
            for (j, q) in refined.points().iter().enumerate() {
                if i != j {
                    assert!(!p.strictly_dominated_by(q), "refined curve not Pareto");
                }
            }
        }
    }
}
