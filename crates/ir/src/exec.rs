//! Reference executor: runs a dataflow graph on the tensor substrate,
//! applying each node's approximation choice, and computes the per-node
//! analytical cost descriptors consumed by the timing/energy models.
//!
//! Besides plain execution, the module supports *suffix re-execution*
//! ([`execute_suffix`]): given the cached node outputs of a previous run,
//! only the nodes from a given position onward are recomputed. ApproxTuner's
//! profile collection approximates one operation at a time (Algorithm 1,
//! lines 12–15), so re-running only the perturbed node's suffix makes
//! profile collection dramatically cheaper without changing its result.

use crate::approx::ApproxChoice;
use crate::error::GraphError;
use crate::graph::{Graph, Node, NodeId, OpKind};
use crate::shapes::infer_shapes;
use at_promise::{promise_conv2d, promise_matmul};
use at_tensor::cost::{self, OpCounts};
use at_tensor::ops::{self, conv::Conv2dParams, UnaryOp};
use at_tensor::{MulApprox, Precision, ReduceApprox, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options controlling one execution of a graph.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Approximation choice per node (indexed by node id). Nodes beyond the
    /// vector's length run at the baseline. Use `vec![]` for a fully exact
    /// run.
    pub config: Vec<ApproxChoice>,
    /// Seed for the PROMISE noise source. Executions with equal seeds and
    /// configs are bit-identical.
    pub promise_seed: u64,
}

impl ExecOptions {
    /// The exact FP32 baseline execution.
    pub fn baseline() -> ExecOptions {
        ExecOptions::default()
    }

    /// The exact (knob-free) counterpart of these options: the same PROMISE
    /// seed with every approximation choice cleared. This is the shadow
    /// re-execution path of the runtime QoS guard — a canaried request runs
    /// once approximated and once through this variant, and the difference
    /// is the true per-request QoS loss.
    pub fn exact_variant(&self) -> ExecOptions {
        ExecOptions {
            config: Vec::new(),
            promise_seed: self.promise_seed,
        }
    }

    /// The choice for a given node.
    pub(crate) fn choice(&self, id: NodeId) -> ApproxChoice {
        self.config
            .get(id.0 as usize)
            .copied()
            .unwrap_or(ApproxChoice::BASELINE)
    }
}

/// A node's first operand: borrowed from wherever the value lives, or — when
/// this node is its last consumer and the executor owns it — the tensor
/// itself, to overwrite or move.
enum Operand<'a> {
    Shared(&'a Tensor),
    Owned(Tensor),
}

impl Operand<'_> {
    fn get(&self) -> &Tensor {
        match self {
            Operand::Shared(t) => t,
            Operand::Owned(t) => t,
        }
    }
}

/// The element-wise ops that may overwrite their operand, as the tensor
/// crate's map.
fn unary_op(op: &OpKind) -> Option<UnaryOp> {
    match *op {
        OpKind::Relu => Some(UnaryOp::Relu),
        OpKind::ClippedRelu { lo, hi } => Some(UnaryOp::ClippedRelu(lo, hi)),
        OpKind::Tanh => Some(UnaryOp::Tanh),
        OpKind::Abs => Some(UnaryOp::Abs),
        _ => None,
    }
}

/// Evaluates a single non-`Input` node. `first` is operand 0 and `arg(i)`
/// any operand; `fused` is the activation a convolution applies in its
/// epilogue on behalf of its only consumer (see [`Plan`]).
fn eval_node<'a>(
    graph: &Graph,
    node: &Node,
    first: Operand<'_>,
    arg: impl Fn(usize) -> Result<&'a Tensor, GraphError>,
    choice: ApproxChoice,
    promise_seed: u64,
    fused: Option<UnaryOp>,
) -> Result<Tensor, GraphError> {
    let (conv_approx, reduce_approx, precision, mul_approx) = match choice {
        ApproxChoice::Digital {
            conv,
            reduce,
            precision,
            mul,
        } => (conv, reduce, precision, mul),
        ApproxChoice::Promise(_) => (
            at_tensor::ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Exact,
        ),
    };
    let x = first.get();
    let out = match &node.op {
        OpKind::Input => {
            return Err(GraphError::Internal {
                detail: format!("Input node {} reached the kernel dispatch", node.id.0),
            })
        }
        OpKind::Conv2d {
            weight,
            bias,
            pad,
            stride,
            groups,
        } => {
            let w = graph.param(*weight);
            let b = bias.map(|p| graph.param(p));
            let params = Conv2dParams {
                pad: *pad,
                stride: *stride,
                groups: *groups,
                approx: conv_approx,
                precision,
                mul: mul_approx,
            };
            match (choice, fused) {
                // PROMISE path (dense convolutions only; grouped convs fall
                // back to the digital exact kernel).
                (ApproxChoice::Promise(level), _) if *groups == 1 => {
                    let mut rng = StdRng::seed_from_u64(promise_seed ^ ((node.id.0 as u64) << 17));
                    promise_conv2d(x, w, b, *pad, *stride, level, &mut rng)?
                }
                (_, Some(act)) => ops::conv2d_fused(x, w, b, params, act)?,
                (_, None) => ops::conv2d(x, w, b, params)?,
            }
        }
        OpKind::Dense { weight, bias } => {
            let w = graph.param(*weight);
            if let ApproxChoice::Promise(level) = choice {
                let mut rng = StdRng::seed_from_u64(promise_seed ^ ((node.id.0 as u64) << 17));
                let out = promise_matmul(x, w, level, &mut rng)?;
                match bias {
                    Some(b) => ops::bias_add_rows(&out, graph.param(*b), precision)?,
                    None => out,
                }
            } else {
                // Fused GEMM+bias epilogue; bit-identical to the unfused
                // matmul → bias_add_rows pair at every precision.
                let b = bias.map(|p| graph.param(p));
                ops::matmul_ex(x, w, b, precision, mul_approx)?
            }
        }
        OpKind::Relu | OpKind::ClippedRelu { .. } | OpKind::Tanh | OpKind::Abs => {
            let op = unary_op(&node.op).ok_or_else(|| GraphError::Internal {
                detail: format!("node {} is not an element-wise map", node.id.0),
            })?;
            match first {
                Operand::Owned(mut t) => {
                    ops::map_unary_in_place(&mut t, op, precision);
                    t
                }
                Operand::Shared(t) => ops::map_unary(t, op, precision)?,
            }
        }
        OpKind::MaxPool2d {
            window,
            pad,
            stride,
        } => ops::max_pool2d(x, *window, *pad, *stride, precision)?,
        OpKind::AvgPool2d {
            window,
            pad,
            stride,
        } => ops::avg_pool2d(x, *window, *pad, *stride, reduce_approx, precision)?,
        OpKind::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } => ops::batchnorm2d(
            x,
            graph.param(*gamma),
            graph.param(*beta),
            graph.param(*mean),
            graph.param(*var),
            *eps,
            precision,
        )?,
        OpKind::Softmax => ops::softmax_rows(x, precision)?,
        OpKind::Add => {
            let sum = x.add(arg(1)?)?;
            if precision == Precision::Fp16 {
                sum.to_f16()
            } else {
                sum
            }
        }
        OpKind::Flatten => {
            let d = x.shape();
            let d = d.dims();
            let flat = Shape::mat(d[0], d[1..].iter().product());
            match first {
                Operand::Owned(t) => t.into_reshaped(flat)?,
                Operand::Shared(t) => t.reshape(flat)?,
            }
        }
        OpKind::Reduce { axis, kind } => ops::reduce(x, *axis, *kind, reduce_approx, precision)?,
    };
    Ok(out)
}

/// Executes the graph on `input`, returning the output tensor of the final
/// node.
pub fn execute(graph: &Graph, input: &Tensor, opts: &ExecOptions) -> Result<Tensor, GraphError> {
    graph.validate()?;
    let values = run(graph, input, opts, &[], 0, Keep::Live, None)?;
    take_output(graph, values)
}

/// Where a node's output is while the graph runs.
enum Value<'a> {
    /// Not computed yet, released after its last consumer, or moved into
    /// the node that consumed it.
    Gone,
    /// Produced by this run: the executor may release it, overwrite it or
    /// move it.
    Owned(Tensor),
    /// The program input or an entry of the caller's cache: read, never
    /// written, whatever the plan says.
    Shared(&'a Tensor),
}

/// Whether a run keeps every node's output or only what is still to be
/// read.
#[derive(Clone, Copy, PartialEq)]
enum Keep {
    /// [`execute_all`]: every output survives the run untouched, so nothing
    /// is released, overwritten, moved or fused.
    All,
    /// Release each value after its last consumer.
    Live,
}

/// What one run may do with each value, decided from the graph and the
/// configuration before any kernel runs.
struct Plan {
    /// `last_use[v]`: the last node that reads `v`, if any node does. The
    /// program output has none — it is the last node — and is never
    /// released.
    last_use: Vec<Option<usize>>,
    /// `fused[c]`: the activation convolution `c` applies in its epilogue,
    /// its only consumer then being a move.
    ///
    /// Fusion is bit-invisible (the epilogue applies the node's own scalar
    /// function exactly where the standalone FP32 node would), so it is
    /// planned only when that holds: the activation's sole input is a
    /// digitally-executed convolution of this run that nobody else reads,
    /// and the activation itself runs digitally at FP32.
    fused: Vec<Option<UnaryOp>>,
}

impl Plan {
    /// Plans the run of nodes `start..`.
    fn new(graph: &Graph, opts: &ExecOptions, start: usize, keep: Keep) -> Plan {
        let mut last_use = vec![None; graph.len()];
        let mut fused = vec![None; graph.len()];
        if keep == Keep::All {
            return Plan { last_use, fused };
        }
        let mut readers = vec![0usize; graph.len()];
        for node in &graph.nodes()[start..] {
            for inp in &node.inputs {
                last_use[inp.0 as usize] = Some(node.id.0 as usize);
                readers[inp.0 as usize] += 1;
            }
        }
        for node in &graph.nodes()[start..] {
            let (Some(act), Some(&cid)) = (unary_op(&node.op), node.inputs.first()) else {
                continue;
            };
            let c = cid.0 as usize;
            let act_fp32 = matches!(
                opts.choice(node.id),
                ApproxChoice::Digital {
                    precision: Precision::Fp32,
                    ..
                }
            );
            if c >= start
                && readers[c] == 1
                && act_fp32
                && matches!(graph.node(cid).op, OpKind::Conv2d { .. })
                && matches!(opts.choice(cid), ApproxChoice::Digital { .. })
            {
                fused[c] = Some(act);
            }
        }
        Plan { last_use, fused }
    }
}

/// The one node-evaluation loop behind every entry point: runs nodes
/// `start..` in order, reading earlier nodes from `cache`, and returns
/// where every value ended up. With `times`, each node's wall-clock seconds
/// are recorded.
///
/// A value produced here is released the moment its last consumer has run;
/// an element-wise node or `Flatten` whose operand dies there takes the
/// tensor and overwrites or moves it; an activation fused into its
/// convolution reduces to that move. `input` and `cache` are only ever
/// borrowed.
fn run<'a>(
    graph: &Graph,
    input: &'a Tensor,
    opts: &ExecOptions,
    cache: &'a [Tensor],
    start: usize,
    keep: Keep,
    mut times: Option<&mut [f64]>,
) -> Result<Vec<Value<'a>>, GraphError> {
    let plan = Plan::new(graph, opts, start, keep);
    let mut values: Vec<Value<'a>> = cache[..start].iter().map(Value::Shared).collect();
    values.resize_with(graph.len(), || Value::Gone);
    for node in &graph.nodes()[start..] {
        let started = times.is_some().then(std::time::Instant::now);
        let idx = node.id.0 as usize;
        values[idx] = if matches!(node.op, OpKind::Input) {
            Value::Shared(input)
        } else {
            let operand = |i: usize| {
                node.inputs
                    .get(i)
                    .map(|id| id.0 as usize)
                    .ok_or_else(|| GraphError::Internal {
                        detail: format!("node {idx} has no input #{i}"),
                    })
            };
            let v0 = operand(0)?;
            // Taking the operand is what lets the node write it: only a
            // value this run produced, at its last read, by a node that
            // can use the storage (or whose work the producer already did).
            let reuses = plan.fused[v0].is_some()
                || unary_op(&node.op).is_some()
                || matches!(node.op, OpKind::Flatten);
            let take = reuses && plan.last_use[v0] == Some(idx);
            let taken = match &mut values[v0] {
                slot @ Value::Owned(_) if take => std::mem::replace(slot, Value::Gone),
                _ => Value::Gone,
            };
            let read = |v: usize| match &values[v] {
                Value::Owned(t) => Ok(t),
                Value::Shared(t) => Ok(*t),
                Value::Gone => Err(GraphError::Internal {
                    detail: format!("input {v} of node {idx} is not available"),
                }),
            };
            let first = match taken {
                Value::Owned(t) => Operand::Owned(t),
                _ => Operand::Shared(read(v0)?),
            };
            let out = match (plan.fused[v0], first) {
                // The producing convolution already applied this node.
                (Some(_), Operand::Owned(t)) => t,
                (Some(_), Operand::Shared(_)) => {
                    return Err(GraphError::Internal {
                        detail: format!("fused convolution {v0} is not node {idx}'s to take"),
                    })
                }
                (None, first) => eval_node(
                    graph,
                    node,
                    first,
                    |i| read(operand(i)?),
                    opts.choice(node.id),
                    opts.promise_seed,
                    plan.fused[idx],
                )?,
            };
            Value::Owned(out)
        };
        for inp in &node.inputs {
            let v = inp.0 as usize;
            if plan.last_use[v] == Some(idx) {
                values[v] = Value::Gone;
            }
        }
        if let (Some(times), Some(started)) = (times.as_deref_mut(), started) {
            times[idx] = started.elapsed().as_secs_f64();
        }
    }
    Ok(values)
}

/// The program output of a finished run (cloned when it is the caller's own
/// tensor: a graph that is only its input, or a suffix that starts past the
/// output).
fn take_output(graph: &Graph, mut values: Vec<Value<'_>>) -> Result<Tensor, GraphError> {
    let out = graph.output().ok_or(GraphError::EmptyGraph)?.0 as usize;
    match values.swap_remove(out) {
        Value::Owned(t) => Ok(t),
        Value::Shared(t) => Ok(t.clone()),
        Value::Gone => Err(GraphError::Internal {
            detail: "output node was not computed".into(),
        }),
    }
}

/// Executes the graph and additionally returns per-node wall-clock kernel
/// times in seconds (host measurements; used for the empirical CPU results
/// and for tuning-time accounting). A convolution's time includes the
/// activation fused into it, whose own node then reads as a move.
pub fn execute_with_trace(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<(Tensor, Vec<f64>), GraphError> {
    graph.validate()?;
    let mut times = vec![0.0f64; graph.len()];
    let values = run(graph, input, opts, &[], 0, Keep::Live, Some(&mut times))?;
    Ok((take_output(graph, values)?, times))
}

/// Executes the graph and returns *all* node outputs — the cache consumed by
/// [`execute_suffix`].
pub fn execute_all(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<Vec<Tensor>, GraphError> {
    graph.validate()?;
    run(graph, input, opts, &[], 0, Keep::All, None)?
        .into_iter()
        .enumerate()
        .map(|(i, v)| match v {
            Value::Owned(t) => Ok(t),
            Value::Shared(t) => Ok(t.clone()),
            Value::Gone => Err(GraphError::Internal {
                detail: format!("node {i} was not computed"),
            }),
        })
        .collect()
}

/// Recomputes only the nodes at positions `from..` of the graph, reading
/// earlier nodes' outputs from `cache` (a previous [`execute_all`] result),
/// which is left untouched. Returns the program output.
///
/// Used by profile collection: approximating a single op leaves its prefix
/// unchanged, so only the suffix needs re-execution.
pub fn execute_suffix(
    graph: &Graph,
    input: &Tensor,
    cache: &[Tensor],
    from: NodeId,
    opts: &ExecOptions,
) -> Result<Tensor, GraphError> {
    graph.validate()?;
    if cache.len() != graph.len() {
        return Err(GraphError::CacheMismatch {
            expected: graph.len(),
            got: cache.len(),
        });
    }
    let start = (from.0 as usize).min(graph.len());
    take_output(
        graph,
        run(graph, input, opts, cache, start, Keep::Live, None)?,
    )
}

/// Baseline analytical cost of every node (paper §3.4), given the program
/// input shape. Indexed by node id; the `Input` node costs zero.
pub fn node_costs(graph: &Graph, input: Shape) -> Result<Vec<OpCounts>, GraphError> {
    let shapes = infer_shapes(graph, input)?;
    let mut counts = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let in_shape = |i: usize| shapes[node.inputs[i].0 as usize];
        let c = match &node.op {
            OpKind::Input => OpCounts::ZERO,
            OpKind::Conv2d {
                weight,
                pad,
                stride,
                ..
            } => cost::conv2d_counts(in_shape(0), graph.param(*weight).shape(), *pad, *stride),
            OpKind::Dense { weight, .. } => {
                let (m, k) = in_shape(0).as_mat()?;
                let (_, n) = graph.param(*weight).shape().as_mat()?;
                cost::matmul_counts(m, k, n)
            }
            OpKind::Relu | OpKind::ClippedRelu { .. } | OpKind::Abs => {
                cost::map_counts(in_shape(0).volume(), 1.0)
            }
            // 8 is the hardware-agnostic charge for one transcendental, not a
            // count of this CPU's kernel: `at-tensor`'s rational `tanh` runs
            // 29 flops per element (11 FMAs, 3 multiplies, a divide, 4
            // min/max/selects) and measures ≈ 13 GEMM-flop times. Left at 8
            // so predicted speedups — every shipped curve's `perf` — do not
            // move with a kernel change; re-fitting the weights against
            // wall-clock is ROADMAP item 1's calibration study.
            OpKind::Tanh => cost::map_counts(in_shape(0).volume(), 8.0),
            OpKind::MaxPool2d {
                window,
                pad,
                stride,
            }
            | OpKind::AvgPool2d {
                window,
                pad,
                stride,
            } => cost::pool2d_counts(in_shape(0), *window, *pad, *stride),
            OpKind::BatchNorm { .. } => cost::batchnorm_counts(in_shape(0)),
            OpKind::Softmax => {
                let (m, n) = in_shape(0).as_mat()?;
                cost::softmax_counts(m, n)
            }
            OpKind::Add => cost::map_counts(in_shape(0).volume(), 1.0),
            OpKind::Flatten => OpCounts::ZERO,
            OpKind::Reduce { axis, .. } => {
                let s = in_shape(0);
                let len = s.dim(*axis)?;
                cost::reduce_counts(s.volume() / len.max(1), len)
            }
        };
        counts.push(c);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use at_tensor::ConvApprox;

    fn tiny_cnn() -> (Graph, Tensor) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new("tiny", Shape::nchw(2, 3, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .max_pool(2, 2)
            .flatten()
            .dense(10)
            .softmax();
        let g = b.finish().unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        let x = Tensor::uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, &mut rng2);
        (g, x)
    }

    #[test]
    fn baseline_execution_produces_probabilities() {
        let (g, x) = tiny_cnn();
        let out = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        assert_eq!(out.shape(), Shape::mat(2, 10));
        for r in 0..2 {
            let s: f32 = out.data()[r * 10..(r + 1) * 10].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn approximation_changes_output() {
        let (g, x) = tiny_cnn();
        let base = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        // Node 1 is the conv.
        config[1] = ApproxChoice::digital(
            ConvApprox::FilterSampling { k: 2, offset: 0 },
            ReduceApprox::Exact,
            Precision::Fp32,
        );
        let approx = execute(
            &g,
            &x,
            &ExecOptions {
                config,
                promise_seed: 0,
            },
        )
        .unwrap();
        assert!(base.mse(&approx).unwrap() > 0.0);
    }

    #[test]
    fn promise_execution_deterministic_per_seed() {
        let (g, x) = tiny_cnn();
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[1] = ApproxChoice::Promise(at_promise::VoltageLevel::P4);
        let o1 = execute(
            &g,
            &x,
            &ExecOptions {
                config: config.clone(),
                promise_seed: 42,
            },
        )
        .unwrap();
        let o2 = execute(
            &g,
            &x,
            &ExecOptions {
                config: config.clone(),
                promise_seed: 42,
            },
        )
        .unwrap();
        let o3 = execute(
            &g,
            &x,
            &ExecOptions {
                config,
                promise_seed: 43,
            },
        )
        .unwrap();
        assert_eq!(o1.data(), o2.data());
        assert!(o1.mse(&o3).unwrap() > 0.0);
    }

    #[test]
    fn costs_positive_for_compute_nodes() {
        let (g, _) = tiny_cnn();
        let costs = node_costs(&g, Shape::nchw(2, 3, 8, 8)).unwrap();
        assert_eq!(costs[0], OpCounts::ZERO); // input
        assert!(costs[1].compute > 0.0); // conv
    }

    #[test]
    fn conv_relu_fusion_is_bit_invisible() {
        let (g, x) = tiny_cnn();
        // execute() fuses conv→relu; execute_all() never does. The program
        // output must stay bitwise identical under every digital conv knob.
        assert_eq!(
            Plan::new(&g, &ExecOptions::baseline(), 0, Keep::Live).fused[1],
            Some(UnaryOp::Relu)
        );
        let conv_choices = [
            ApproxChoice::BASELINE,
            ApproxChoice::FP16,
            ApproxChoice::digital(
                ConvApprox::Perforation {
                    dim: at_tensor::PerforationDim::Col,
                    k: 2,
                    offset: 1,
                },
                ReduceApprox::Exact,
                Precision::Fp32,
            ),
            ApproxChoice::digital_mul(
                ConvApprox::Exact,
                ReduceApprox::Exact,
                Precision::Fp32,
                MulApprox::Lut { bits: 8 },
            ),
        ];
        for choice in conv_choices {
            let mut config = vec![ApproxChoice::BASELINE; g.len()];
            config[1] = choice; // node 1 is the conv
            let opts = ExecOptions {
                config,
                promise_seed: 0,
            };
            let fused = execute(&g, &x, &opts).unwrap();
            let unfused = execute_all(&g, &x, &opts).unwrap();
            let last = unfused.last().unwrap();
            assert_eq!(
                fused.data(),
                last.data(),
                "fusion changed bits under {choice:?}"
            );
        }
    }

    #[test]
    fn fusion_skipped_when_relu_not_fp32() {
        let (g, x) = tiny_cnn();
        // FP16 ReLU re-quantises its input; the fused kernel must not be
        // used there, and the unfused path must agree with execute_all.
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[2] = ApproxChoice::FP16; // node 2 is the relu
        let opts = ExecOptions {
            config,
            promise_seed: 0,
        };
        let out = execute(&g, &x, &opts).unwrap();
        let all = execute_all(&g, &x, &opts).unwrap();
        assert_eq!(out.data(), all.last().unwrap().data());
    }

    #[test]
    fn lut_multiplier_executes_on_conv_and_dense() {
        let (g, x) = tiny_cnn();
        let base = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        let lut = ApproxChoice::digital_mul(
            ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Lut { bits: 4 },
        );
        for node in [1usize, 5] {
            // conv, dense
            let mut config = vec![ApproxChoice::BASELINE; g.len()];
            config[node] = lut;
            let opts = ExecOptions {
                config,
                promise_seed: 0,
            };
            let out = execute(&g, &x, &opts).unwrap();
            assert!(
                base.mse(&out).unwrap() > 0.0,
                "LUT multiplier on node {node} should perturb the output"
            );
            // Deterministic across runs (integer accumulation).
            let again = execute(&g, &x, &opts).unwrap();
            assert_eq!(out.data(), again.data());
        }
    }

    #[test]
    fn trace_times_populated() {
        let (g, x) = tiny_cnn();
        let (_, times) = execute_with_trace(&g, &x, &ExecOptions::baseline()).unwrap();
        assert_eq!(times.len(), g.len());
        assert!(times.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn suffix_matches_full_execution() {
        let (g, x) = tiny_cnn();
        let cache = execute_all(&g, &x, &ExecOptions::baseline()).unwrap();
        // Perturb node 1 (conv) and compare suffix vs full execution.
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[1] = ApproxChoice::FP16;
        let opts = ExecOptions {
            config,
            promise_seed: 0,
        };
        let full = execute(&g, &x, &opts).unwrap();
        let suffix = execute_suffix(&g, &x, &cache, NodeId(1), &opts).unwrap();
        assert_eq!(full.data(), suffix.data());
    }

    #[test]
    fn suffix_from_last_node() {
        let (g, x) = tiny_cnn();
        let cache = execute_all(&g, &x, &ExecOptions::baseline()).unwrap();
        let last = g.output().unwrap();
        let out = execute_suffix(&g, &x, &cache, last, &ExecOptions::baseline()).unwrap();
        assert_eq!(out.data(), cache[last.0 as usize].data());
    }

    /// A random DAG over one `[2, 8]` value: element-wise maps, `Flatten`
    /// (a no-op reshape here) and `Add`, each reading any earlier node —
    /// so values fan out, die at different times, and some are never read.
    fn random_dag(seed: u64, nodes: usize) -> (Graph, Tensor) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new("dag");
        g.add_node(OpKind::Input, vec![], "in");
        for i in 1..=nodes {
            let a = NodeId(rng.gen_range(0..i as u32));
            let (op, inputs) = match rng.gen_range(0..7) {
                0 => (OpKind::Tanh, vec![a]),
                1 => (OpKind::Abs, vec![a]),
                2 => (OpKind::Relu, vec![a]),
                3 => (OpKind::ClippedRelu { lo: -0.3, hi: 0.4 }, vec![a]),
                4 => (OpKind::Flatten, vec![a]),
                _ => (OpKind::Add, vec![a, NodeId(rng.gen_range(0..i as u32))]),
            };
            g.add_node(op, inputs, "");
        }
        let x = Tensor::uniform(Shape::mat(2, 8), -1.0, 1.0, &mut rng);
        (g, x)
    }

    proptest::proptest! {
        /// No node takes (overwrites or moves) its operand while another
        /// consumer of it is still pending, from any suffix start; and with
        /// every value's lifetime decided that way, the run still computes
        /// what the keep-everything run computes.
        #[test]
        fn in_place_never_races_a_pending_consumer(
            seed in 0u64..1 << 32,
            nodes in 1usize..16,
            fp16_every in 2usize..5,
        ) {
            let (g, x) = random_dag(seed, nodes);
            g.validate().unwrap();
            let config = (0..g.len())
                .map(|i| if i > 0 && i % fp16_every == 0 { ApproxChoice::FP16 } else { ApproxChoice::BASELINE })
                .collect();
            let opts = ExecOptions { config, promise_seed: 0 };
            let all = execute_all(&g, &x, &opts).unwrap();
            let want: Vec<u32> = all.last().unwrap().data().iter().map(|v| v.to_bits()).collect();
            for start in 0..g.len() {
                let plan = Plan::new(&g, &opts, start, Keep::Live);
                for node in &g.nodes()[start..] {
                    let i = node.id.0 as usize;
                    for v in node.inputs.iter().map(|id| id.0 as usize) {
                        let later = g.nodes()[i + 1..].iter().any(|n| n.inputs.contains(&NodeId(v as u32)));
                        if plan.last_use[v] == Some(i) {
                            proptest::prop_assert!(!later, "node {i} takes {v}, read again later");
                        } else {
                            proptest::prop_assert!(later, "{v} outlives its last reader {i}");
                        }
                    }
                }
                let out = execute_suffix(&g, &x, &all, NodeId(start as u32), &opts).unwrap();
                let got: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(&got, &want, "suffix from {}", start);
            }
            let got: Vec<u32> = execute(&g, &x, &opts).unwrap().data().iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
