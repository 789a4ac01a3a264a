//! Performance and energy prediction (§3.4, Eqn 3) plus the install-time
//! device models.
//!
//! At development time the tuner uses the hardware-agnostic operation-count
//! cost `Cost(op, knob) = N_m/R_m + N_c/R_c` — it "ranks configurations
//! correctly by their speedup, which suffices for autotuning purposes". At
//! install time the same per-op descriptors are fed through the device
//! timing model (`at-hw`) and the PROMISE model (`at-promise`) to produce
//! simulated *measurements* of time and energy on the target SoC.

use crate::config::Config;
use crate::knobs::KnobRegistry;
use at_hw::{LutMulPoint, PowerModel, TimingModel};
use at_ir::{ApproxChoice, Graph};
use at_promise::PromiseModel;
use at_tensor::cost::{self, OpCounts, ReductionFactors};
use at_tensor::{MulApprox, Precision, Shape, TensorError};

/// Per-program performance/energy estimator.
pub struct PerfModel<'a> {
    graph: &'a Graph,
    registry: &'a KnobRegistry,
    counts: Vec<OpCounts>,
}

/// Decomposes an execution choice into (algorithmic reduction factors,
/// precision, multiplier) for the digital paths.
fn digital_factors(choice: ApproxChoice) -> (ReductionFactors, Precision, MulApprox) {
    match choice {
        ApproxChoice::Digital {
            conv,
            reduce,
            precision,
            mul,
        } => {
            // The op applies at most one algorithmic mechanism; take the
            // stronger reduction of the set (the others are Exact → 1.0).
            // The multiplier knob's hardware-independent effect is the
            // narrower-operand memory saving; its compute-rate advantage is
            // hardware-specific and applied by the device paths below.
            let fc = cost::conv_reduction_factors(conv, Precision::Fp32);
            let fr = cost::reduce_reduction_factors(reduce, Precision::Fp32);
            let fm = cost::mul_reduction_factors(mul);
            (
                ReductionFactors {
                    compute: fc.compute.max(fr.compute).max(fm.compute),
                    memory: fc.memory.max(fr.memory).max(fm.memory),
                },
                precision,
                mul,
            )
        }
        ApproxChoice::Promise(_) => (ReductionFactors::NONE, Precision::Fp32, MulApprox::Exact),
    }
}

/// Folds the hardware mul-cell's compute-rate advantage into the
/// algorithmic factors (identity for the exact multiplier).
fn with_mul_cell(alg: ReductionFactors, mul: MulApprox) -> ReductionFactors {
    match mul {
        MulApprox::Exact => alg,
        MulApprox::Lut { bits } => {
            let speedup = LutMulPoint::for_bits(bits).map_or(1.0, |p| p.compute_speedup);
            ReductionFactors {
                compute: alg.compute * speedup,
                memory: alg.memory,
            }
        }
    }
}

impl<'a> PerfModel<'a> {
    /// Builds the model, computing baseline per-op counts analytically.
    pub fn new(
        graph: &'a Graph,
        registry: &'a KnobRegistry,
        input: Shape,
    ) -> Result<Self, TensorError> {
        Ok(PerfModel {
            graph,
            registry,
            counts: at_ir::exec::node_costs(graph, input)?,
        })
    }

    /// Eqn 3: hardware-agnostic predicted cost of a configuration (lower is
    /// better). PROMISE knobs — which should not appear at development
    /// time — are credited with their level's digital-relative speedup.
    pub fn predicted_cost(&self, config: &Config) -> f64 {
        let choices = config.decode(self.registry, self.graph);
        self.counts
            .iter()
            .zip(&choices)
            .map(|(&c, &choice)| match choice {
                ApproxChoice::Promise(level) => (c.memory + c.compute) / level.speedup_vs_digital(),
                _ => {
                    let (alg, precision, _) = digital_factors(choice);
                    let f = ReductionFactors {
                        compute: alg.compute,
                        memory: alg.memory
                            * match precision {
                                Precision::Fp32 => 1.0,
                                Precision::Fp16 => 2.0,
                            },
                    };
                    cost::predicted_cost(c, f)
                }
            })
            .sum()
    }

    /// Predicted speedup of a configuration over the baseline (Eqn 3 cost
    /// ratio).
    pub fn predicted_speedup(&self, config: &Config) -> f64 {
        let base = self.predicted_cost(&Config::baseline(self.graph));
        let c = self.predicted_cost(config);
        if c <= 0.0 {
            1.0
        } else {
            base / c
        }
    }

    /// Simulated execution time (seconds per invocation) on the target
    /// device: digital ops through the roofline timing model, PROMISE ops
    /// through the accelerator model.
    pub fn device_time(
        &self,
        config: &Config,
        timing: &TimingModel,
        promise: &PromiseModel,
    ) -> f64 {
        let choices = config.decode(self.registry, self.graph);
        self.counts
            .iter()
            .zip(&choices)
            .map(|(&c, &choice)| match choice {
                ApproxChoice::Promise(level) => promise.op_time(c, level),
                _ => {
                    let (alg, precision, mul) = digital_factors(choice);
                    timing.op_time(c, with_mul_cell(alg, mul), precision)
                }
            })
            .sum()
    }

    /// Simulated device speedup of a configuration.
    pub fn device_speedup(
        &self,
        config: &Config,
        timing: &TimingModel,
        promise: &PromiseModel,
    ) -> f64 {
        let base = self.device_time(&Config::baseline(self.graph), timing, promise);
        let t = self.device_time(config, timing, promise);
        if t <= 0.0 {
            1.0
        } else {
            base / t
        }
    }

    /// Simulated *compute* energy (joules per invocation): GPU-rail energy
    /// for digital ops (FP16 units draw a small power premium while active)
    /// plus PROMISE energy for offloaded ops, matching the paper's
    /// GPU+PROMISE energy accounting of Figure 4.
    pub(crate) fn device_energy(
        &self,
        config: &Config,
        timing: &TimingModel,
        promise: &PromiseModel,
        power: &PowerModel,
    ) -> f64 {
        let choices = config.decode(self.registry, self.graph);
        let gpu_power = power.rails(timing.frequency_mhz(), 1.0).gpu;
        self.counts
            .iter()
            .zip(&choices)
            .map(|(&c, &choice)| match choice {
                ApproxChoice::Promise(level) => {
                    // Energy of the digital-equivalent op scaled by the
                    // level's calibrated advantage.
                    let t_digital = timing.op_time(c, ReductionFactors::NONE, Precision::Fp32);
                    t_digital * gpu_power / promise.energy_advantage(level)
                }
                _ => {
                    let (alg, precision, mul) = digital_factors(choice);
                    let t = timing.op_time(c, with_mul_cell(alg, mul), precision);
                    // Double-rate FP16 units draw more dynamic power while
                    // active, so FP16's energy gain trails its speedup
                    // (paper: 2.14× speedup vs 1.99× energy at 1%).
                    let premium = match precision {
                        Precision::Fp32 => 1.0,
                        Precision::Fp16 => 1.12,
                    };
                    // Approximate-multiplier cells run faster at a fraction
                    // of the exact pipeline's power.
                    let mul_factor = match mul {
                        MulApprox::Exact => 1.0,
                        MulApprox::Lut { bits } => {
                            LutMulPoint::for_bits(bits).map_or(1.0, |p| p.power_factor())
                        }
                    };
                    t * gpu_power * premium * mul_factor
                }
            })
            .sum()
    }

    /// Simulated energy-reduction factor vs the baseline.
    pub fn device_energy_reduction(
        &self,
        config: &Config,
        timing: &TimingModel,
        promise: &PromiseModel,
        power: &PowerModel,
    ) -> f64 {
        let base = self.device_energy(&Config::baseline(self.graph), timing, promise, power);
        let e = self.device_energy(config, timing, promise, power);
        if e <= 0.0 {
            1.0
        } else {
            base / e
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{KnobId, KnobSet};
    use at_hw::DeviceSpec;
    use at_ir::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn in_shape() -> Shape {
        Shape::nchw(1, 32, 32, 32)
    }

    fn setup() -> (Graph, KnobRegistry) {
        let mut rng = StdRng::seed_from_u64(1);
        // Large enough that convolutions dominate launch overheads.
        let mut b = GraphBuilder::new("t", in_shape(), &mut rng);
        b.conv(32, 3, (1, 1), (1, 1))
            .relu()
            .conv(32, 3, (1, 1), (1, 1))
            .relu();
        b.flatten().dense(10).softmax();
        (b.finish().unwrap(), KnobRegistry::new())
    }

    fn fp16_sampling_config(g: &Graph, r: &KnobRegistry) -> Config {
        // Find the fp16 50%-sampling knob by label.
        let table = r.table(at_ir::OpClass::Conv);
        let knob = table
            .iter()
            .find(|k| k.label == "samp-50%-o0-fp16")
            .unwrap()
            .id;
        let mut c = Config::baseline(g);
        c.set_knob(1, knob);
        c.set_knob(3, knob);
        c
    }

    #[test]
    fn baseline_speedup_is_one() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let s = m.predicted_speedup(&Config::baseline(&g));
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approximations_predicted_faster() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let c = fp16_sampling_config(&g, &r);
        let s = m.predicted_speedup(&c);
        assert!(s > 1.2, "predicted speedup {s}");
    }

    #[test]
    fn device_speedup_tracks_prediction_rank() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let timing = TimingModel::new(DeviceSpec::tx2_gpu());
        let promise = PromiseModel::paper();
        // Two configs with different aggressiveness must rank the same
        // under the abstract and device models (the paper's ranking claim).
        let mild = {
            let mut c = Config::baseline(&g);
            c.set_knob(1, KnobId(1)); // fp16 on one conv
            c
        };
        let aggressive = fp16_sampling_config(&g, &r);
        let pm = m.predicted_speedup(&mild);
        let pa = m.predicted_speedup(&aggressive);
        let dm = m.device_speedup(&mild, &timing, &promise);
        let da = m.device_speedup(&aggressive, &timing, &promise);
        assert!(pa > pm);
        assert!(da > dm, "device model must preserve ranking: {da} vs {dm}");
    }

    #[test]
    fn promise_offload_saves_energy() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let timing = TimingModel::new(DeviceSpec::tx2_gpu());
        let promise = PromiseModel::paper();
        let power = PowerModel::tx2();
        // Map both convs to PROMISE P1.
        let p1 = r
            .table(at_ir::OpClass::Conv)
            .iter()
            .find(|k| k.label == "promise-P1")
            .unwrap()
            .id;
        let mut c = Config::baseline(&g);
        c.set_knob(1, p1);
        c.set_knob(3, p1);
        let red = m.device_energy_reduction(&c, &timing, &promise, &power);
        assert!(red > 1.5, "energy reduction {red}");
        // And it can't exceed the P1 advantage itself.
        assert!(red <= promise.energy_advantage(at_promise::VoltageLevel::P1) + 1e-9);
    }

    #[test]
    fn energy_reduction_trails_speedup_for_fp16() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let timing = TimingModel::new(DeviceSpec::tx2_gpu());
        let promise = PromiseModel::paper();
        let power = PowerModel::tx2();
        let mut c = Config::baseline(&g);
        for node in [1usize, 3] {
            c.set_knob(node, KnobId(1)); // fp16
        }
        let s = m.device_speedup(&c, &timing, &promise);
        let e = m.device_energy_reduction(&c, &timing, &promise, &power);
        assert!(s > 1.0 && e > 1.0);
        assert!(e < s, "energy reduction {e} should trail speedup {s}");
    }

    #[test]
    fn lut_multiplier_knob_speeds_up_device_and_saves_energy() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let timing = TimingModel::new(DeviceSpec::tx2_gpu());
        let promise = PromiseModel::paper();
        let power = PowerModel::tx2();
        let lut8 = r
            .table(at_ir::OpClass::Conv)
            .iter()
            .find(|k| k.label == "lutmul-8b")
            .unwrap()
            .id;
        let mut c = Config::baseline(&g);
        c.set_knob(1, lut8);
        c.set_knob(3, lut8);
        // Hardware-agnostic model sees the narrower-operand memory saving.
        assert!(m.predicted_cost(&c) < m.predicted_cost(&Config::baseline(&g)));
        let s = m.device_speedup(&c, &timing, &promise);
        assert!(s > 1.0, "device speedup {s}");
        // Mul cells' energy advantage exceeds their rate advantage, so —
        // unlike FP16 — energy reduction leads speedup.
        let e = m.device_energy_reduction(&c, &timing, &promise, &power);
        assert!(e > s, "energy reduction {e} should lead speedup {s}");
    }

    #[test]
    fn more_aggressive_knob_costs_less() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        // All single-knob configs on node 1 must cost <= baseline.
        let base_cost = m.predicted_cost(&Config::baseline(&g));
        for &k in &nk[1] {
            let mut c = Config::baseline(&g);
            c.set_knob(1, k);
            assert!(m.predicted_cost(&c) <= base_cost + 1e-9);
        }
    }
}
