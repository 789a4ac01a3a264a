//! Performance and energy prediction (§3.4, Eqn 3) plus the install-time
//! device models.
//!
//! At development time the paper's tuner uses the hardware-agnostic
//! operation-count cost `Cost(op, knob) = N_m/R_m + N_c/R_c` — it "ranks
//! configurations correctly by their speedup, which suffices for autotuning
//! purposes" ([`Pricing::OpCount`]). On this repository's CPU kernels it
//! does not (half the approximate knobs run slower than exact), so the
//! default development-time price is [`Pricing::Cpu`]: each node's kernel
//! work counters (`at_ir::exec::node_counters`, computed from shapes and
//! knobs) weighed by the committed fit of [`crate::cost_table`]. At
//! install time the same per-op descriptors are fed through the device
//! timing model (`at-hw`) and the PROMISE model (`at-promise`) to produce
//! simulated *measurements* of time and energy on the target SoC, or the
//! host times the program itself: each source is one [`Pricing`].

use crate::config::Config;
use crate::cost_table;
use crate::install::{measured_cpu_time_s, EdgeDevice, InstallObjective};
use crate::knobs::{KnobId, KnobRegistry};
use crate::pareto::{TradeoffCurve, TradeoffPoint};
use at_hw::LutMulPoint;
use at_ir::exec::CounterTwin;
use at_ir::{ApproxChoice, ExecOptions, Graph};
use at_tensor::cost::{self, OpCounts, ReductionFactors};
use at_tensor::instrument::Counters;
use at_tensor::{MulApprox, Precision, Shape, Tensor, TensorError};
use std::sync::OnceLock;

/// How a configuration is priced: lower is better, and a speedup is the
/// baseline's price over the configuration's.
#[derive(Clone, Copy)]
pub enum Pricing<'a> {
    /// Eqn 3's operation-count cost (the paper's development-time price).
    OpCount,
    /// This CPU's modelled seconds: every node's kernel work counters
    /// weighed by the committed fit of [`crate::cost_table`], plus a call
    /// cost per kernel that runs. The default development-time price; a
    /// configuration's price is the baseline's plus one lookup per node.
    Cpu,
    /// The `at-hw` roofline for digital ops and the PROMISE model for
    /// offloaded ones: seconds, or compute joules, per invocation.
    Device {
        /// The simulated SoC.
        device: &'a EdgeDevice,
        /// Time or energy.
        objective: InstallObjective,
    },
    /// Host wall-clock seconds per invocation ([`measured_cpu_time_s`]).
    Measured {
        /// The input batch to time.
        input: &'a Tensor,
        /// Runs per configuration; the median is the price.
        reps: usize,
        /// PROMISE noise seed of the timed runs.
        promise_seed: u64,
    },
}

impl std::fmt::Debug for Pricing<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Pricing::OpCount => "OpCount",
            Pricing::Cpu => "Cpu",
            Pricing::Device { .. } => "Device",
            Pricing::Measured { .. } => "Measured",
        })
    }
}

/// Per-program performance/energy estimator.
pub struct PerfModel<'a> {
    graph: &'a Graph,
    registry: &'a KnobRegistry,
    input: Shape,
    counts: Vec<OpCounts>,
    /// The baseline's [`Pricing::OpCount`] price, computed once.
    op_count_base: f64,
    /// The [`Pricing::Cpu`] tables, computed on first use.
    cpu: OnceLock<CpuPrices>,
}

/// [`Pricing::Cpu`] per (node, knob), computed once per model.
struct CpuPrices {
    /// The baseline's modelled seconds.
    base: f64,
    /// `delta[node][knob]`: seconds the knob on that node alone adds to the
    /// baseline's (negative when it saves).
    delta: Vec<Vec<f64>>,
    /// `touched[node]`: baseline seconds of the nodes a knob on `node` can
    /// change — the node, its operands' producers and its consumers (a
    /// fused activation moves between a convolution and its consumer).
    touched: Vec<f64>,
}

/// One node's modelled CPU seconds: the call cost plus its weighted
/// counters, or nothing where no kernel ran.
fn cpu_seconds(c: &Counters) -> f64 {
    if c.is_zero() {
        return 0.0;
    }
    let work: f64 = c
        .values()
        .iter()
        .zip(&cost_table::WEIGHTS)
        .map(|(&v, &w)| v as f64 * w)
        .sum();
    cost_table::C_CALL + work
}

impl CpuPrices {
    fn new(graph: &Graph, registry: &KnobRegistry, input: Shape) -> Result<CpuPrices, TensorError> {
        let n = graph.len();
        // The shapes and the baseline plan once; each (node, knob) counts
        // only the nodes it touches.
        let twin = CounterTwin::new(graph, input)?;
        let mut opts = ExecOptions::baseline();
        let all: Vec<usize> = (0..n).collect();
        let base_s: Vec<f64> = twin
            .counters_of(&opts, &all)?
            .iter()
            .map(cpu_seconds)
            .collect();
        opts.config = vec![ApproxChoice::BASELINE; n];
        let mut consumers = vec![Vec::new(); n];
        for node in graph.nodes() {
            for v in &node.inputs {
                consumers[v.0 as usize].push(node.id.0 as usize);
            }
        }
        let (mut delta, mut touched) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for node in graph.nodes() {
            let i = node.id.0 as usize;
            let mut ids: Vec<usize> = node.inputs.iter().map(|v| v.0 as usize).collect();
            ids.push(i);
            ids.extend(&consumers[i]);
            ids.sort_unstable();
            ids.dedup();
            let before: f64 = ids.iter().map(|&v| base_s[v]).sum();
            let table = registry.table(node.op.class());
            let mut d = Vec::with_capacity(table.len());
            for knob in table {
                opts.config[i] = knob.choice;
                let after: f64 = twin.counters_of(&opts, &ids)?.iter().map(cpu_seconds).sum();
                d.push(after - before);
            }
            opts.config[i] = ApproxChoice::BASELINE;
            delta.push(d);
            touched.push(before);
        }
        Ok(CpuPrices {
            base: base_s.iter().sum(),
            delta,
            touched,
        })
    }

    fn price(&self, config: &Config) -> f64 {
        let knob = |node: usize| usize::from(config.knob(node).0);
        let deltas = self.delta.iter().enumerate();
        self.base
            + deltas
                .map(|(node, d)| d.get(knob(node)).copied().unwrap_or(0.0))
                .sum::<f64>()
    }
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

/// The hardware mul-cell of an approximate multiplier (none for exact).
fn mul_cell(mul: MulApprox) -> Option<LutMulPoint> {
    match mul {
        MulApprox::Exact => None,
        MulApprox::Lut { bits } => LutMulPoint::for_bits(bits),
    }
}

/// One node's Eqn 3 cost. PROMISE knobs — which should not appear at
/// development time — are credited with their level's digital-relative
/// speedup.
fn op_count_cost(c: OpCounts, choice: ApproxChoice) -> f64 {
    match choice {
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
    }
}

/// One node's device price: its modelled seconds, or the compute joules of
/// those same seconds — GPU-rail energy for digital ops plus PROMISE energy
/// for offloaded ones, the paper's GPU+PROMISE accounting of Figure 4.
fn device_cost(
    device: &EdgeDevice,
    objective: InstallObjective,
    gpu_power: f64,
    c: OpCounts,
    choice: ApproxChoice,
) -> f64 {
    let timing = &device.timing;
    match (choice, objective) {
        (ApproxChoice::Promise(level), InstallObjective::Speedup) => {
            device.promise.op_time(c, level)
        }
        // Energy of the digital-equivalent op scaled by the level's
        // calibrated advantage.
        (ApproxChoice::Promise(level), InstallObjective::EnergyReduction) => {
            timing.op_time(c, ReductionFactors::NONE, Precision::Fp32) * gpu_power
                / device.promise.energy_advantage(level)
        }
        _ => {
            let (alg, precision, mul) = digital_factors(choice);
            let cell = mul_cell(mul);
            let f = ReductionFactors {
                compute: alg.compute * cell.map_or(1.0, |p| p.compute_speedup),
                memory: alg.memory,
            };
            let t = timing.op_time(c, f, precision);
            if objective == InstallObjective::Speedup {
                return t;
            }
            // Double-rate FP16 units draw more dynamic power while active,
            // so FP16's energy gain trails its speedup (paper: 2.14× speedup
            // vs 1.99× energy at 1%); mul cells run faster at a fraction of
            // the exact pipeline's power.
            let premium = match precision {
                Precision::Fp32 => 1.0,
                Precision::Fp16 => 1.12,
            };
            t * gpu_power * premium * cell.map_or(1.0, |p| p.power_factor())
        }
    }
}

/// `base / price`, or 1.0 for a price that is not positive.
fn ratio(base: f64, price: f64) -> f64 {
    if price <= 0.0 {
        1.0
    } else {
        base / price
    }
}

impl<'a> PerfModel<'a> {
    /// Builds the model, computing baseline per-op counts analytically.
    pub fn new(
        graph: &'a Graph,
        registry: &'a KnobRegistry,
        input: Shape,
    ) -> Result<Self, TensorError> {
        let mut model = PerfModel {
            graph,
            registry,
            input,
            counts: at_ir::exec::node_costs(graph, input)?,
            op_count_base: 0.0,
            cpu: OnceLock::new(),
        };
        model.op_count_base = model.sum_nodes(&Config::baseline(graph), op_count_cost);
        Ok(model)
    }

    /// Sums `node` over the configuration's per-node choices.
    fn sum_nodes(&self, config: &Config, node: impl Fn(OpCounts, ApproxChoice) -> f64) -> f64 {
        let choices = config.decode(self.registry, self.graph);
        self.counts
            .iter()
            .zip(&choices)
            .map(|(&c, &choice)| node(c, choice))
            .sum()
    }

    /// The [`Pricing::Cpu`] tables, built on first use.
    fn cpu(&self) -> Result<&CpuPrices, TensorError> {
        if let Some(p) = self.cpu.get() {
            return Ok(p);
        }
        let built = CpuPrices::new(self.graph, self.registry, self.input)?;
        Ok(self.cpu.get_or_init(|| built))
    }

    /// The modelled [`Pricing::Cpu`] speedup over exact of the nodes the
    /// `knob` on `node` alone changes: what decides whether profile
    /// collection admits the pair ([`cost_table::ADMIT_MARGIN`]).
    pub fn cpu_node_speedup(&self, node: usize, knob: KnobId) -> Result<f64, TensorError> {
        let p = self.cpu()?;
        let d = p.delta[node]
            .get(usize::from(knob.0))
            .copied()
            .unwrap_or(0.0);
        let t = p.touched[node];
        Ok(ratio(t, t + d))
    }

    /// The price of one invocation of `config` (lower is better). Only
    /// [`Pricing::Measured`] can fail at run time; [`Pricing::Cpu`] fails
    /// only where the graph's shapes do.
    pub fn price(&self, config: &Config, pricing: &Pricing) -> Result<f64, TensorError> {
        match *pricing {
            Pricing::OpCount => Ok(self.sum_nodes(config, op_count_cost)),
            Pricing::Cpu => Ok(self.cpu()?.price(config)),
            Pricing::Device { device, objective } => {
                let gpu_power = device.power.rails(device.timing.frequency_mhz(), 1.0).gpu;
                Ok(self.sum_nodes(config, |c, choice| {
                    device_cost(device, objective, gpu_power, c, choice)
                }))
            }
            Pricing::Measured {
                input,
                reps,
                promise_seed,
            } => measured_cpu_time_s(self.graph, self.registry, config, input, reps, promise_seed),
        }
    }

    fn baseline_price(&self, pricing: &Pricing) -> Result<f64, TensorError> {
        match pricing {
            Pricing::OpCount => Ok(self.op_count_base),
            Pricing::Cpu => Ok(self.cpu()?.base),
            _ => self.price(&Config::baseline(self.graph), pricing),
        }
    }

    /// The baseline's price over the configuration's (1.0 for a price that
    /// is not positive): a speedup, or an energy-reduction factor.
    pub fn speedup(&self, config: &Config, pricing: &Pricing) -> Result<f64, TensorError> {
        let base = self.baseline_price(pricing)?;
        Ok(ratio(base, self.price(config, pricing)?))
    }

    /// The strict Pareto curve of `points` with each point's performance
    /// replaced by its [`PerfModel::speedup`] under `pricing`. The baseline
    /// is priced once, before the points, which are priced in order.
    pub fn curve(
        &self,
        points: Vec<TradeoffPoint>,
        pricing: &Pricing,
    ) -> Result<TradeoffCurve, TensorError> {
        let base = self.baseline_price(pricing)?;
        points
            .into_iter()
            .map(|p| {
                Ok(TradeoffPoint {
                    perf: ratio(base, self.price(&p.config, pricing)?),
                    ..p
                })
            })
            .collect::<Result<_, _>>()
            .map(TradeoffCurve::from_points)
    }

    /// [`PerfModel::speedup`] under [`Pricing::OpCount`], which cannot fail.
    /// Kept only for the frozen `benchmark/` harness; ROADMAP item 4 deletes
    /// it.
    pub fn predicted_speedup(&self, config: &Config) -> f64 {
        ratio(self.op_count_base, self.sum_nodes(config, op_count_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{KnobId, KnobSet};
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

    fn tx2(device: &EdgeDevice, objective: InstallObjective) -> Pricing<'_> {
        Pricing::Device { device, objective }
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
        let s = m.speedup(&c, &Pricing::OpCount).unwrap();
        assert!(s > 1.2, "predicted speedup {s}");
        assert_eq!(m.predicted_speedup(&c).to_bits(), s.to_bits());
    }

    #[test]
    fn device_speedup_tracks_prediction_rank() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let device = EdgeDevice::tx2();
        let time = tx2(&device, InstallObjective::Speedup);
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
        let dm = m.speedup(&mild, &time).unwrap();
        let da = m.speedup(&aggressive, &time).unwrap();
        assert!(pa > pm);
        assert!(da > dm, "device model must preserve ranking: {da} vs {dm}");
    }

    #[test]
    fn promise_offload_saves_energy() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let device = EdgeDevice::tx2();
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
        let red = m
            .speedup(&c, &tx2(&device, InstallObjective::EnergyReduction))
            .unwrap();
        assert!(red > 1.5, "energy reduction {red}");
        // And it can't exceed the P1 advantage itself.
        assert!(
            red <= device
                .promise
                .energy_advantage(at_promise::VoltageLevel::P1)
                + 1e-9
        );
    }

    #[test]
    fn energy_reduction_trails_speedup_for_fp16() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let device = EdgeDevice::tx2();
        let time = tx2(&device, InstallObjective::Speedup);
        let energy = tx2(&device, InstallObjective::EnergyReduction);
        let mut c = Config::baseline(&g);
        for node in [1usize, 3] {
            c.set_knob(node, KnobId(1)); // fp16
        }
        let s = m.speedup(&c, &time).unwrap();
        let e = m.speedup(&c, &energy).unwrap();
        assert!(s > 1.0 && e > 1.0);
        assert!(e < s, "energy reduction {e} should trail speedup {s}");
    }

    #[test]
    fn lut_multiplier_knob_speeds_up_device_and_saves_energy() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let device = EdgeDevice::tx2();
        let time = tx2(&device, InstallObjective::Speedup);
        let energy = tx2(&device, InstallObjective::EnergyReduction);
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
        assert!(m.speedup(&c, &Pricing::OpCount).unwrap() > 1.0);
        let s = m.speedup(&c, &time).unwrap();
        assert!(s > 1.0, "device speedup {s}");
        // Mul cells' energy advantage exceeds their rate advantage, so —
        // unlike FP16 — energy reduction leads speedup.
        let e = m.speedup(&c, &energy).unwrap();
        assert!(e > s, "energy reduction {e} should lead speedup {s}");
    }

    #[test]
    fn more_aggressive_knob_costs_less() {
        let (g, r) = setup();
        let m = PerfModel::new(&g, &r, in_shape()).unwrap();
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        // All single-knob configs on node 1 must cost <= baseline.
        let base_cost = m.price(&Config::baseline(&g), &Pricing::OpCount).unwrap();
        for &k in &nk[1] {
            let mut c = Config::baseline(&g);
            c.set_knob(1, k);
            assert!(m.price(&c, &Pricing::OpCount).unwrap() <= base_cost + 1e-9);
        }
    }
}
