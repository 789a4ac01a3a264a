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
use crate::graph::{Graph, Node, NodeId, OpClass, OpKind};
use crate::shapes::infer_shapes;
use at_promise::{promise_conv2d, promise_matmul};
use at_tensor::cost::{self, OpCounts};
use at_tensor::ops::{self, conv::Conv2dParams};
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
    pub fn choice(&self, id: NodeId) -> ApproxChoice {
        self.config
            .get(id.0 as usize)
            .copied()
            .unwrap_or(ApproxChoice::BASELINE)
    }
}

/// Evaluates a single node given access to its input tensors.
fn eval_node<'a>(
    graph: &Graph,
    node: &Node,
    arg: impl Fn(usize) -> Result<&'a Tensor, GraphError>,
    choice: ApproxChoice,
    promise_seed: u64,
    program_input: &Tensor,
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
    let out = match &node.op {
        OpKind::Input => program_input.clone(),
        OpKind::Conv2d {
            weight,
            bias,
            pad,
            stride,
            groups,
        } => {
            let w = graph.param(*weight);
            let b = bias.map(|p| graph.param(p));
            if let ApproxChoice::Promise(level) = choice {
                // PROMISE path (dense convolutions only; grouped convs fall
                // back to the digital exact kernel).
                if *groups == 1 {
                    let mut rng = StdRng::seed_from_u64(promise_seed ^ ((node.id.0 as u64) << 17));
                    promise_conv2d(arg(0)?, w, b, *pad, *stride, level, &mut rng)?
                } else {
                    ops::conv2d(
                        arg(0)?,
                        w,
                        b,
                        Conv2dParams {
                            pad: *pad,
                            stride: *stride,
                            groups: *groups,
                            ..Default::default()
                        },
                    )?
                }
            } else {
                ops::conv2d(
                    arg(0)?,
                    w,
                    b,
                    Conv2dParams {
                        pad: *pad,
                        stride: *stride,
                        groups: *groups,
                        approx: conv_approx,
                        precision,
                        mul: mul_approx,
                    },
                )?
            }
        }
        OpKind::Dense { weight, bias } => {
            let w = graph.param(*weight);
            if let ApproxChoice::Promise(level) = choice {
                let mut rng = StdRng::seed_from_u64(promise_seed ^ ((node.id.0 as u64) << 17));
                let out = promise_matmul(arg(0)?, w, level, &mut rng)?;
                match bias {
                    Some(b) => ops::bias_add_rows(&out, graph.param(*b), precision)?,
                    None => out,
                }
            } else {
                // Fused GEMM+bias epilogue; bit-identical to the unfused
                // matmul → bias_add_rows pair at every precision.
                let b = bias.map(|p| graph.param(p));
                ops::matmul_ex(arg(0)?, w, b, precision, mul_approx)?
            }
        }
        OpKind::Relu => ops::relu(arg(0)?, precision)?,
        OpKind::ClippedRelu { lo, hi } => ops::clipped_relu(arg(0)?, *lo, *hi, precision)?,
        OpKind::Tanh => ops::tanh_op(arg(0)?, precision)?,
        OpKind::Abs => ops::map_unary(arg(0)?, at_tensor::ops::UnaryOp::Abs, precision)?,
        OpKind::MaxPool2d {
            window,
            pad,
            stride,
        } => ops::max_pool2d(arg(0)?, *window, *pad, *stride, precision)?,
        OpKind::AvgPool2d {
            window,
            pad,
            stride,
        } => ops::avg_pool2d(arg(0)?, *window, *pad, *stride, reduce_approx, precision)?,
        OpKind::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } => ops::batchnorm2d(
            arg(0)?,
            graph.param(*gamma),
            graph.param(*beta),
            graph.param(*mean),
            graph.param(*var),
            *eps,
            precision,
        )?,
        OpKind::Softmax => ops::softmax_rows(arg(0)?, precision)?,
        OpKind::Add => {
            let sum = arg(0)?.add(arg(1)?)?;
            if precision == Precision::Fp16 {
                sum.to_f16()
            } else {
                sum
            }
        }
        OpKind::Flatten => {
            let t = arg(0)?;
            let dims = t.shape();
            let d = dims.dims();
            t.reshape(Shape::mat(d[0], d[1..].iter().product()))?
        }
        OpKind::Reduce { axis, kind } => {
            ops::reduce(arg(0)?, *axis, *kind, reduce_approx, precision)?
        }
    };
    Ok(out)
}

/// Looks up input `i` of `node` in the per-node output cache, as a typed
/// error rather than a panic when the invariant "topological order
/// guarantees inputs are computed" is violated by a corrupt graph.
fn fetch<'a>(
    outputs: &'a [Option<Tensor>],
    node: &Node,
    i: usize,
) -> Result<&'a Tensor, GraphError> {
    let id = node.inputs.get(i).ok_or_else(|| GraphError::Internal {
        detail: format!("node {} has no input #{i}", node.id.0),
    })?;
    outputs
        .get(id.0 as usize)
        .and_then(|o| o.as_ref())
        .ok_or_else(|| GraphError::Internal {
            detail: format!("input {} of node {} not computed", id.0, node.id.0),
        })
}

/// Executes the graph on `input`, returning the output tensor of the final
/// node.
pub fn execute(graph: &Graph, input: &Tensor, opts: &ExecOptions) -> Result<Tensor, GraphError> {
    let (out, _) = execute_with_trace(graph, input, opts)?;
    Ok(out)
}

/// Conv→ReLU fusion plan for one execution: `plan[r] == Some(c)` means ReLU
/// node `r` is satisfied by evaluating Conv2d node `c` with the fused
/// conv+bias+ReLU kernel and moving the tensor into `r`'s slot.
///
/// Fusion is bit-invisible (the fused kernel applies `max(0.0)` in its
/// epilogue exactly where the standalone FP32 ReLU would), so it is only
/// planned when that holds: the ReLU's sole input is a digitally-executed
/// Conv2d consumed by nobody else, the ReLU itself runs digitally at FP32,
/// and the conv is not the program output.
fn relu_fusion_plan(graph: &Graph, opts: &ExecOptions) -> Vec<Option<NodeId>> {
    let mut consumers = vec![0usize; graph.len()];
    for node in graph.nodes() {
        for inp in &node.inputs {
            consumers[inp.0 as usize] += 1;
        }
    }
    let out_id = graph.output();
    let mut plan = vec![None; graph.len()];
    for node in graph.nodes() {
        if !matches!(node.op, OpKind::Relu) {
            continue;
        }
        let Some(&cid) = node.inputs.first() else {
            continue;
        };
        if !matches!(graph.node(cid).op, OpKind::Conv2d { .. })
            || consumers[cid.0 as usize] != 1
            || Some(cid) == out_id
        {
            continue;
        }
        let relu_fp32 = matches!(
            opts.choice(node.id),
            ApproxChoice::Digital {
                precision: Precision::Fp32,
                ..
            }
        );
        if relu_fp32 && matches!(opts.choice(cid), ApproxChoice::Digital { .. }) {
            plan[node.id.0 as usize] = Some(cid);
        }
    }
    plan
}

/// Evaluates a Conv2d node with the fused conv+bias+ReLU kernel (digital
/// choices only; callers guarantee this via [`relu_fusion_plan`]).
fn eval_conv_fused<'a>(
    graph: &Graph,
    node: &Node,
    arg: impl Fn(usize) -> Result<&'a Tensor, GraphError>,
    choice: ApproxChoice,
) -> Result<Tensor, GraphError> {
    let OpKind::Conv2d {
        weight,
        bias,
        pad,
        stride,
        groups,
    } = &node.op
    else {
        return Err(GraphError::Internal {
            detail: format!("fused-ReLU plan points at non-conv node {}", node.id.0),
        });
    };
    let ApproxChoice::Digital {
        conv,
        precision,
        mul,
        ..
    } = choice
    else {
        return Err(GraphError::Internal {
            detail: format!("fused-ReLU plan on non-digital node {}", node.id.0),
        });
    };
    let w = graph.param(*weight);
    let b = bias.map(|p| graph.param(p));
    Ok(ops::conv2d_fused_relu(
        arg(0)?,
        w,
        b,
        Conv2dParams {
            pad: *pad,
            stride: *stride,
            groups: *groups,
            approx: conv,
            precision,
            mul,
        },
    )?)
}

/// Executes the graph and additionally returns per-node wall-clock kernel
/// times in seconds (host measurements; used for the empirical CPU results
/// and for tuning-time accounting).
pub fn execute_with_trace(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<(Tensor, Vec<f64>), GraphError> {
    graph.validate()?;
    let plan = relu_fusion_plan(graph, opts);
    let mut fused_conv = vec![false; graph.len()];
    for cid in plan.iter().flatten() {
        fused_conv[cid.0 as usize] = true;
    }
    let mut outputs: Vec<Option<Tensor>> = vec![None; graph.len()];
    let mut times = vec![0.0f64; graph.len()];
    for node in graph.nodes() {
        let started = std::time::Instant::now();
        let idx = node.id.0 as usize;
        let out = if let Some(cid) = plan[idx] {
            // ReLU was already applied by the conv's fused epilogue: this
            // node reduces to moving the tensor (the conv has no other
            // consumer, so its slot can be vacated).
            outputs[cid.0 as usize]
                .take()
                .ok_or_else(|| GraphError::Internal {
                    detail: format!("fused conv {} not computed before its ReLU", cid.0),
                })?
        } else if fused_conv[idx] {
            eval_conv_fused(
                graph,
                node,
                |i| fetch(&outputs, node, i),
                opts.choice(node.id),
            )?
        } else {
            eval_node(
                graph,
                node,
                |i| fetch(&outputs, node, i),
                opts.choice(node.id),
                opts.promise_seed,
                input,
            )?
        };
        times[idx] = started.elapsed().as_secs_f64();
        outputs[idx] = Some(out);
    }
    let out_id = graph.output().ok_or(GraphError::EmptyGraph)?;
    let out = outputs[out_id.0 as usize]
        .take()
        .ok_or_else(|| GraphError::Internal {
            detail: "output node was not computed".into(),
        })?;
    Ok((out, times))
}

/// Executes the graph and returns *all* node outputs — the cache consumed by
/// [`execute_suffix`].
pub fn execute_all(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<Vec<Tensor>, GraphError> {
    graph.validate()?;
    let mut outputs: Vec<Option<Tensor>> = vec![None; graph.len()];
    for node in graph.nodes() {
        let out = eval_node(
            graph,
            node,
            |i| fetch(&outputs, node, i),
            opts.choice(node.id),
            opts.promise_seed,
            input,
        )?;
        outputs[node.id.0 as usize] = Some(out);
    }
    outputs
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.ok_or_else(|| GraphError::Internal {
                detail: format!("node {i} was not computed"),
            })
        })
        .collect()
}

/// Recomputes only the nodes at positions `from..` of the graph, reading
/// earlier nodes' outputs from `cache` (a previous [`execute_all`] result).
/// Returns the program output.
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
    let start = from.0 as usize;
    let mut outputs: Vec<Option<Tensor>> = vec![None; graph.len()];
    for node in &graph.nodes()[start..] {
        let out = eval_node(
            graph,
            node,
            |i| {
                let id = node.inputs.get(i).ok_or_else(|| GraphError::Internal {
                    detail: format!("node {} has no input #{i}", node.id.0),
                })?;
                let idx = id.0 as usize;
                if idx < start {
                    Ok(&cache[idx])
                } else {
                    outputs[idx].as_ref().ok_or_else(|| GraphError::Internal {
                        detail: format!("suffix input {idx} not computed in order"),
                    })
                }
            },
            opts.choice(node.id),
            opts.promise_seed,
            input,
        )?;
        outputs[node.id.0 as usize] = Some(out);
    }
    let out_id = graph.output().ok_or(GraphError::EmptyGraph)?;
    let idx = out_id.0 as usize;
    Ok(if idx < start {
        cache[idx].clone()
    } else {
        outputs[idx].take().ok_or_else(|| GraphError::Internal {
            detail: "suffix output was not computed".into(),
        })?
    })
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

/// Total baseline cost of the program (sum over nodes).
pub fn total_cost(graph: &Graph, input: Shape) -> Result<OpCounts, GraphError> {
    Ok(node_costs(graph, input)?
        .into_iter()
        .fold(OpCounts::ZERO, OpCounts::plus))
}

/// Returns true when `choice` is legal for the node's op class (e.g.
/// PROMISE only accepts convolutions and dense layers; perforation only
/// applies to convolutions).
pub fn choice_is_valid(graph: &Graph, id: NodeId, choice: ApproxChoice) -> bool {
    let class = graph.node(id).op.class();
    match choice {
        ApproxChoice::Promise(_) => matches!(class, OpClass::Conv | OpClass::Dense),
        ApproxChoice::Digital {
            conv, reduce, mul, ..
        } => {
            let conv_ok = conv == at_tensor::ConvApprox::Exact || class == OpClass::Conv;
            let reduce_ok = reduce == ReduceApprox::Exact || class == OpClass::Reduction;
            let mul_ok = mul == MulApprox::Exact || matches!(class, OpClass::Conv | OpClass::Dense);
            let not_input = class != OpClass::Input || choice == ApproxChoice::BASELINE;
            conv_ok && reduce_ok && mul_ok && not_input
        }
    }
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
        let total = total_cost(&g, Shape::nchw(2, 3, 8, 8)).unwrap();
        assert!(total.compute >= costs[1].compute);
    }

    #[test]
    fn validity_rules() {
        let (g, _) = tiny_cnn();
        // Node 1 = conv, node 2 = relu, node 5 = dense.
        let perf = ApproxChoice::digital(
            ConvApprox::Perforation {
                dim: at_tensor::PerforationDim::Row,
                k: 2,
                offset: 0,
            },
            ReduceApprox::Exact,
            Precision::Fp32,
        );
        assert!(choice_is_valid(&g, NodeId(1), perf));
        assert!(!choice_is_valid(&g, NodeId(2), perf));
        assert!(choice_is_valid(
            &g,
            NodeId(5),
            ApproxChoice::Promise(at_promise::VoltageLevel::P1)
        ));
        assert!(!choice_is_valid(
            &g,
            NodeId(2),
            ApproxChoice::Promise(at_promise::VoltageLevel::P1)
        ));
        assert!(choice_is_valid(&g, NodeId(2), ApproxChoice::FP16));
    }

    #[test]
    fn conv_relu_fusion_is_bit_invisible() {
        let (g, x) = tiny_cnn();
        // execute() fuses conv→relu; execute_all() never does. The program
        // output must stay bitwise identical under every digital conv knob.
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
    fn lut_multiplier_validity_follows_op_class() {
        let (g, _) = tiny_cnn();
        let lut = ApproxChoice::digital_mul(
            ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Lut { bits: 6 },
        );
        assert!(choice_is_valid(&g, NodeId(1), lut)); // conv
        assert!(choice_is_valid(&g, NodeId(5), lut)); // dense
        assert!(!choice_is_valid(&g, NodeId(2), lut)); // relu
        assert!(!choice_is_valid(&g, NodeId(3), lut)); // pool
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
}
