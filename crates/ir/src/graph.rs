//! The dataflow-graph program representation.

use crate::error::GraphError;
use at_tensor::ops::{ReduceKind, UnaryOp};
use at_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a node within a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a parameter tensor held by the graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ParamId(pub u32);

/// The predefined tensor operations of ApproxHPVM that this reproduction
/// supports (§2.1 and Sharif et al. [57, Table 1]).
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Graph input placeholder (exactly one per graph).
    Input,
    /// 2-D convolution with weights `[K, C/groups, R, S]` and optional bias.
    Conv2d {
        /// Weight parameter.
        weight: ParamId,
        /// Optional bias parameter `[K]`.
        bias: Option<ParamId>,
        /// Symmetric padding.
        pad: (usize, usize),
        /// Stride.
        stride: (usize, usize),
        /// Channel groups (1 = dense, C = depthwise).
        groups: usize,
    },
    /// Fully-connected layer: `x · Wᵀ…` expressed as matmul with weight
    /// `[in, out]` plus optional bias `[out]`.
    Dense {
        /// Weight parameter `[in, out]`.
        weight: ParamId,
        /// Optional bias `[out]`.
        bias: Option<ParamId>,
    },
    /// ReLU activation.
    Relu,
    /// Clipped ReLU (`clamp(x, lo, hi)`).
    ClippedRelu {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Tanh activation.
    Tanh,
    /// Elementwise absolute value (used by the image-processing pipeline's
    /// L1 gradient magnitude).
    Abs,
    /// Max pooling.
    MaxPool2d {
        /// Pooling window.
        window: (usize, usize),
        /// Symmetric padding.
        pad: (usize, usize),
        /// Stride.
        stride: (usize, usize),
    },
    /// Average pooling (a *reduction* in the paper's taxonomy: reduction
    /// sampling applies).
    AvgPool2d {
        /// Pooling window.
        window: (usize, usize),
        /// Symmetric padding.
        pad: (usize, usize),
        /// Stride.
        stride: (usize, usize),
    },
    /// Inference batch normalisation.
    BatchNorm {
        /// Scale parameter.
        gamma: ParamId,
        /// Shift parameter.
        beta: ParamId,
        /// Running mean.
        mean: ParamId,
        /// Running variance.
        var: ParamId,
        /// Numerical epsilon.
        eps: f32,
    },
    /// Row-wise softmax (the terminal op of the CNNs).
    Softmax,
    /// Elementwise addition of two inputs (residual connections).
    Add,
    /// Flatten NCHW → `[N, C·H·W]`.
    Flatten,
    /// Reduction along an axis (reduction sampling applies).
    Reduce {
        /// Reduced axis.
        axis: usize,
        /// Reduction operator.
        kind: ReduceKind,
    },
}

/// Coarse classification of an op for knob assignment (§2.3: convolutions
/// get 63 knobs, reductions 8, everything else 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OpClass {
    /// Convolutions (and dense layers, which PROMISE also accelerates).
    Conv,
    /// Dense / matrix-multiplication layers.
    Dense,
    /// Reductions (average pooling, reduce).
    Reduction,
    /// Ops with only a precision knob.
    Other,
    /// The input placeholder: never approximated.
    Input,
}

impl OpKind {
    /// The op's class.
    pub fn class(&self) -> OpClass {
        match self {
            OpKind::Input => OpClass::Input,
            OpKind::Conv2d { .. } => OpClass::Conv,
            OpKind::Dense { .. } => OpClass::Dense,
            OpKind::AvgPool2d { .. } | OpKind::Reduce { .. } => OpClass::Reduction,
            _ => OpClass::Other,
        }
    }

    /// Short mnemonic used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Dense { .. } => "dense",
            OpKind::Relu => "relu",
            OpKind::ClippedRelu { .. } => "clipped_relu",
            OpKind::Tanh => "tanh",
            OpKind::Abs => "abs",
            OpKind::MaxPool2d { .. } => "max_pool2d",
            OpKind::AvgPool2d { .. } => "avg_pool2d",
            OpKind::BatchNorm { .. } => "batchnorm",
            OpKind::Softmax => "softmax",
            OpKind::Add => "add",
            OpKind::Flatten => "flatten",
            OpKind::Reduce { .. } => "reduce",
        }
    }
}

/// One node of the dataflow graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The operation.
    pub op: OpKind,
    /// Dataflow predecessors (tensor-valued inputs), in argument order.
    pub inputs: Vec<NodeId>,
    /// Optional human-readable label (e.g. "conv1").
    pub label: String,
}

/// A graph's identity as a compiled configuration keys it
/// ([`crate::exec::Compiled`]): drawn fresh when the graph is made and
/// again by every `&mut` accessor, so two graphs share one only while one
/// is an unchanged clone of the other.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct GraphId(u64);

impl Default for GraphId {
    fn default() -> GraphId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        GraphId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A dataflow-graph tensor program.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    params: Vec<Tensor>,
    name: String,
    /// Renewed by every `&mut` method.
    pub(crate) id: GraphId,
}

impl Graph {
    /// An empty graph with a program name.
    pub fn new(name: impl Into<String>) -> Graph {
        Graph {
            name: name.into(),
            ..Graph::default()
        }
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a parameter tensor, returning its id.
    pub fn add_param(&mut self, t: Tensor) -> ParamId {
        self.id = GraphId::default();
        self.params.push(t);
        ParamId(self.params.len() as u32 - 1)
    }

    /// A parameter by id.
    pub fn param(&self, id: ParamId) -> &Tensor {
        &self.params[id.0 as usize]
    }

    /// All parameter tensors, in [`ParamId`] order (weight-integrity
    /// fingerprints hash these).
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable parameter access (used by the pruning study).
    pub fn param_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.id = GraphId::default();
        &mut self.params[id.0 as usize]
    }

    /// Adds a node with the given op and inputs, returning its id.
    pub fn add_node(
        &mut self,
        op: OpKind,
        inputs: Vec<NodeId>,
        label: impl Into<String>,
    ) -> NodeId {
        self.id = GraphId::default();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            op,
            inputs,
            label: label.into(),
        });
        id
    }

    /// All nodes in insertion (= topological, enforced by validation) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The final node (program output), if any.
    pub(crate) fn output(&self) -> Option<NodeId> {
        self.nodes.last().map(|n| n.id)
    }

    /// Structural validation:
    /// * exactly one `Input` node, and it is node 0;
    /// * node inputs reference earlier nodes only (topological order);
    /// * arity matches the op (Add takes 2 inputs, others 1, Input 0);
    /// * parameter ids are in range.
    pub fn validate(&self) -> Result<(), GraphError> {
        let fail = |detail: String| GraphError::InvalidStructure {
            op: "graph::validate",
            detail,
        };
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        if self.nodes[0].op != OpKind::Input {
            return Err(fail("node 0 must be the Input placeholder".into()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.0 as usize != i {
                return Err(fail(format!("node id {:?} at position {i}", n.id)));
            }
            let arity = match n.op {
                OpKind::Input => 0,
                OpKind::Add => 2,
                _ => 1,
            };
            if n.inputs.len() != arity {
                return Err(fail(format!(
                    "node {} ({}) has {} inputs, expected {arity}",
                    i,
                    n.op.name(),
                    n.inputs.len()
                )));
            }
            if matches!(n.op, OpKind::Input) && i != 0 {
                return Err(fail(format!("extra Input node at position {i}")));
            }
            for &inp in &n.inputs {
                if inp.0 as usize >= i {
                    return Err(fail(format!(
                        "node {i} references non-earlier node {:?}",
                        inp
                    )));
                }
            }
            let check_param = |p: ParamId| -> Result<(), GraphError> {
                if (p.0 as usize) < self.params.len() {
                    Ok(())
                } else {
                    Err(fail(format!("node {i} references missing param {:?}", p)))
                }
            };
            match n.op {
                OpKind::Conv2d { weight, bias, .. } | OpKind::Dense { weight, bias } => {
                    check_param(weight)?;
                    if let Some(b) = bias {
                        check_param(b)?;
                    }
                }
                OpKind::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    ..
                } => {
                    check_param(gamma)?;
                    check_param(beta)?;
                    check_param(mean)?;
                    check_param(var)?;
                }
                OpKind::ClippedRelu { lo, hi } => UnaryOp::ClippedRelu(lo, hi)
                    .validate()
                    .map_err(|e| fail(format!("node {i}: {e}")))?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Total number of parameter elements (model size).
    pub fn param_count(&self) -> usize {
        self.params.iter().map(|t| t.len()).sum()
    }

    /// Checks every parameter tensor referenced by a node for NaN/infinite
    /// values. A corrupt artifact (truncated download, bit-flipped weights)
    /// would otherwise poison activations silently; the serving runtime
    /// runs this once at registration rather than per request.
    pub fn validate_params_finite(&self) -> Result<(), GraphError> {
        let check = |node: &Node, p: ParamId| -> Result<(), GraphError> {
            let count = self
                .param(p)
                .data()
                .iter()
                .filter(|x| !x.is_finite())
                .count();
            if count == 0 {
                Ok(())
            } else {
                Err(GraphError::NonFiniteParam {
                    node: node.label.clone(),
                    count,
                })
            }
        };
        for n in &self.nodes {
            match n.op {
                OpKind::Conv2d { weight, bias, .. } | OpKind::Dense { weight, bias } => {
                    check(n, weight)?;
                    if let Some(b) = bias {
                        check(n, b)?;
                    }
                }
                OpKind::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    ..
                } => {
                    check(n, gamma)?;
                    check(n, beta)?;
                    check(n, mean)?;
                    check(n, var)?;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_tensor::Shape;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new("tiny");
        let w = g.add_param(Tensor::zeros(Shape::nchw(2, 1, 3, 3)));
        let input = g.add_node(OpKind::Input, vec![], "in");
        let conv = g.add_node(
            OpKind::Conv2d {
                weight: w,
                bias: None,
                pad: (1, 1),
                stride: (1, 1),
                groups: 1,
            },
            vec![input],
            "conv1",
        );
        g.add_node(OpKind::Relu, vec![conv], "relu1");
        g
    }

    #[test]
    fn valid_graph_passes() {
        tiny_graph().validate().unwrap();
    }

    #[test]
    fn empty_graph_fails() {
        assert!(Graph::new("e").validate().is_err());
    }

    #[test]
    fn missing_input_fails() {
        let mut g = Graph::new("bad");
        g.add_node(OpKind::Relu, vec![], "r");
        assert!(g.validate().is_err());
    }

    #[test]
    fn forward_reference_fails() {
        let mut g = Graph::new("bad");
        let i = g.add_node(OpKind::Input, vec![], "in");
        // Node 1 referencing node 1 (itself).
        g.add_node(OpKind::Relu, vec![NodeId(1)], "r");
        let _ = i;
        assert!(g.validate().is_err());
    }

    #[test]
    fn add_arity_enforced() {
        let mut g = Graph::new("bad");
        let i = g.add_node(OpKind::Input, vec![], "in");
        g.add_node(OpKind::Add, vec![i], "add");
        assert!(g.validate().is_err());
    }

    #[test]
    fn missing_param_fails() {
        let mut g = Graph::new("bad");
        let i = g.add_node(OpKind::Input, vec![], "in");
        g.add_node(
            OpKind::Conv2d {
                weight: ParamId(0),
                bias: None,
                pad: (0, 0),
                stride: (1, 1),
                groups: 1,
            },
            vec![i],
            "conv",
        );
        assert!(g.validate().is_err());
    }

    #[test]
    fn clipped_relu_with_reversed_or_nan_bounds_fails_validation_and_execution() {
        for (lo, hi) in [(1.0, 0.0), (f32::NAN, 1.0), (0.0, f32::NAN)] {
            let mut g = Graph::new("bad");
            let i = g.add_node(OpKind::Input, vec![], "in");
            let r = g.add_node(OpKind::Relu, vec![i], "relu");
            g.add_node(OpKind::ClippedRelu { lo, hi }, vec![r], "clip");
            assert!(matches!(
                g.validate(),
                Err(GraphError::InvalidStructure { .. })
            ));
            // Unvalidated, the (in-place) kernel still refuses it.
            let x = Tensor::zeros(Shape::mat(2, 3));
            let run = crate::exec::execute(&g, &x, &crate::ExecOptions::baseline());
            assert!(run.is_err());
        }
    }
}
