//! Front-end builder: a fluent API for constructing CNN dataflow graphs,
//! playing the role of the paper's Keras/PyTorch → ApproxHPVM front ends.
//!
//! Weights are initialised with He-normal statistics from a caller-provided
//! RNG, so the synthetic models have realistic activation magnitudes.
//!
//! The builder never panics on misuse. The first failing step (e.g. a dense
//! layer on an un-flattened activation, or a grouped convolution whose
//! channel count is not divisible by `groups`) *poisons* the builder: the
//! error is recorded, every later step becomes a no-op, and [`finish`]
//! reports it as a typed [`GraphError`]. This keeps fluent chains readable
//! while making malformed model definitions a recoverable condition for
//! the serving runtime.
//!
//! [`finish`]: GraphBuilder::finish

use crate::error::GraphError;
use crate::graph::{Graph, NodeId, OpKind};
use crate::shapes::infer_shapes;
use at_tensor::ops::ReduceKind;
use at_tensor::{Shape, Tensor};
use rand::Rng;

/// Incrementally builds a [`Graph`], tracking the current node and its
/// inferred output shape.
pub struct GraphBuilder<'r, R: Rng> {
    graph: Graph,
    rng: &'r mut R,
    current: NodeId,
    shape: Shape,
    input_shape: Shape,
    err: Option<GraphError>,
}

impl<'r, R: Rng> GraphBuilder<'r, R> {
    /// Starts a graph with an input placeholder of the given shape.
    pub fn new(name: impl Into<String>, input: Shape, rng: &'r mut R) -> Self {
        let mut graph = Graph::new(name);
        let current = graph.add_node(OpKind::Input, vec![], "input");
        GraphBuilder {
            graph,
            rng,
            current,
            shape: input,
            input_shape: input,
            err: None,
        }
    }

    /// The id of the most recently added node.
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// Runs a fallible step unless the builder is already poisoned; on
    /// failure records the error tagged with the step name.
    fn try_step(
        &mut self,
        op: &'static str,
        f: impl FnOnce(&mut Self) -> Result<(), GraphError>,
    ) -> &mut Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = f(self) {
            self.err = Some(GraphError::Builder {
                op,
                detail: e.to_string(),
            });
        }
        self
    }

    /// Re-infers the current shape after appending `node`.
    fn refresh_shape(&mut self, node: NodeId) -> Result<(), GraphError> {
        let shapes = infer_shapes(&self.graph, self.input_shape)?;
        self.shape = *shapes
            .get(node.0 as usize)
            .ok_or_else(|| GraphError::Internal {
                detail: format!("no inferred shape for node {}", node.0),
            })?;
        self.current = node;
        Ok(())
    }

    /// Rewinds the builder's "current" pointer to an earlier node (for
    /// residual branches).
    pub fn rewind(&mut self, to: NodeId) -> &mut Self {
        self.try_step("rewind", |b| b.refresh_shape(to))
    }

    fn he_tensor(&mut self, shape: Shape, fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(shape, std, self.rng)
    }

    /// Dense (grouped) convolution with bias; `kernel`×`kernel` filters,
    /// symmetric `pad`, `stride`.
    pub(crate) fn conv_grouped(
        &mut self,
        out_channels: usize,
        kernel: usize,
        pad: (usize, usize),
        stride: (usize, usize),
        groups: usize,
    ) -> &mut Self {
        self.try_step("conv", |b| {
            let (_, c, _, _) = b.shape.as_nchw()?;
            if groups == 0 || !c.is_multiple_of(groups) || !out_channels.is_multiple_of(groups) {
                return Err(GraphError::Builder {
                    op: "conv",
                    detail: format!(
                        "groups {groups} does not divide channels {c} and filters {out_channels}"
                    ),
                });
            }
            let cpg = c / groups;
            let fan_in = cpg * kernel * kernel;
            let w = b.he_tensor(Shape::nchw(out_channels, cpg, kernel, kernel), fan_in);
            let weight = b.graph.add_param(w);
            let bias = Some(b.graph.add_param(Tensor::zeros(Shape::vec(out_channels))));
            let label = format!("conv{}", b.graph.len());
            let node = b.graph.add_node(
                OpKind::Conv2d {
                    weight,
                    bias,
                    pad,
                    stride,
                    groups,
                },
                vec![b.current],
                label,
            );
            b.refresh_shape(node)
        })
    }

    /// Dense convolution (groups = 1).
    pub fn conv(
        &mut self,
        out_channels: usize,
        kernel: usize,
        pad: (usize, usize),
        stride: (usize, usize),
    ) -> &mut Self {
        self.conv_grouped(out_channels, kernel, pad, stride, 1)
    }

    /// Depthwise convolution (groups = channels), as in MobileNet.
    pub fn depthwise(
        &mut self,
        kernel: usize,
        pad: (usize, usize),
        stride: (usize, usize),
    ) -> &mut Self {
        let c = match self.shape.as_nchw() {
            Ok((_, c, _, _)) => c,
            Err(e) => {
                if self.err.is_none() {
                    self.err = Some(GraphError::Builder {
                        op: "depthwise",
                        detail: e.to_string(),
                    });
                }
                return self;
            }
        };
        self.conv_grouped(c, kernel, pad, stride, c)
    }

    /// Inference batch normalisation with identity-calibrated statistics
    /// (slightly perturbed so the op is not a no-op).
    pub fn batchnorm(&mut self) -> &mut Self {
        self.try_step("batchnorm", |b| {
            let (_, c, _, _) = b.shape.as_nchw()?;
            let gamma = Tensor::from_vec(
                Shape::vec(c),
                (0..c).map(|_| 1.0 + b.rng.gen_range(-0.05..0.05)).collect(),
            )?;
            let beta = Tensor::from_vec(
                Shape::vec(c),
                (0..c).map(|_| b.rng.gen_range(-0.02..0.02f32)).collect(),
            )?;
            let mean = Tensor::zeros(Shape::vec(c));
            let var = Tensor::full(Shape::vec(c), 1.0);
            let g = b.graph.add_param(gamma);
            let bb = b.graph.add_param(beta);
            let m = b.graph.add_param(mean);
            let v = b.graph.add_param(var);
            let label = format!("bn{}", b.graph.len());
            let node = b.graph.add_node(
                OpKind::BatchNorm {
                    gamma: g,
                    beta: bb,
                    mean: m,
                    var: v,
                    eps: 1e-5,
                },
                vec![b.current],
                label,
            );
            b.current = node;
            Ok(())
        })
    }

    /// ReLU.
    pub fn relu(&mut self) -> &mut Self {
        self.unary(OpKind::Relu, "relu")
    }

    /// ReLU6 (MobileNet).
    pub fn relu6(&mut self) -> &mut Self {
        self.unary(OpKind::ClippedRelu { lo: 0.0, hi: 6.0 }, "relu6")
    }

    /// Tanh.
    pub fn tanh(&mut self) -> &mut Self {
        self.unary(OpKind::Tanh, "tanh")
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self) -> &mut Self {
        self.unary(OpKind::Abs, "abs")
    }

    /// Convolution with *fixed* (caller-provided) weights — used by the
    /// image-processing pipeline (Gaussian blur, Sobel operators).
    pub fn conv_fixed(
        &mut self,
        weight: Tensor,
        pad: (usize, usize),
        stride: (usize, usize),
    ) -> &mut Self {
        self.try_step("conv_fixed", |b| {
            let weight = b.graph.add_param(weight);
            let label = format!("conv{}", b.graph.len());
            let node = b.graph.add_node(
                OpKind::Conv2d {
                    weight,
                    bias: None,
                    pad,
                    stride,
                    groups: 1,
                },
                vec![b.current],
                label,
            );
            b.refresh_shape(node)
        })
    }

    fn unary(&mut self, op: OpKind, name: &str) -> &mut Self {
        if self.err.is_some() {
            return self;
        }
        let label = format!("{name}{}", self.graph.len());
        let node = self.graph.add_node(op, vec![self.current], label);
        self.current = node;
        self
    }

    /// Max pooling with square window and stride.
    pub fn max_pool(&mut self, window: usize, stride: usize) -> &mut Self {
        self.try_step("max_pool", |b| {
            let label = format!("maxpool{}", b.graph.len());
            let node = b.graph.add_node(
                OpKind::MaxPool2d {
                    window: (window, window),
                    pad: (0, 0),
                    stride: (stride, stride),
                },
                vec![b.current],
                label,
            );
            b.refresh_shape(node)
        })
    }

    /// Average pooling with square window and stride (a reduction op).
    pub fn avg_pool(&mut self, window: usize, stride: usize) -> &mut Self {
        self.try_step("avg_pool", |b| {
            let label = format!("avgpool{}", b.graph.len());
            let node = b.graph.add_node(
                OpKind::AvgPool2d {
                    window: (window, window),
                    pad: (0, 0),
                    stride: (stride, stride),
                },
                vec![b.current],
                label,
            );
            b.refresh_shape(node)
        })
    }

    /// Flatten NCHW to `[N, C·H·W]`.
    pub fn flatten(&mut self) -> &mut Self {
        self.try_step("flatten", |b| {
            let node = b
                .graph
                .add_node(OpKind::Flatten, vec![b.current], "flatten");
            b.refresh_shape(node)
        })
    }

    /// Fully-connected layer with bias.
    pub fn dense(&mut self, out: usize) -> &mut Self {
        self.try_step("dense", |b| {
            let (m, k) = b.shape.as_mat()?;
            let w = b.he_tensor(Shape::mat(k, out), k);
            let weight = b.graph.add_param(w);
            let bias = Some(b.graph.add_param(Tensor::zeros(Shape::vec(out))));
            let label = format!("fc{}", b.graph.len());
            let node = b
                .graph
                .add_node(OpKind::Dense { weight, bias }, vec![b.current], label);
            b.current = node;
            b.shape = Shape::mat(m, out);
            Ok(())
        })
    }

    /// Residual addition of the current node and `other`.
    pub fn add_from(&mut self, other: NodeId) -> &mut Self {
        if self.err.is_some() {
            return self;
        }
        let label = format!("add{}", self.graph.len());
        let node = self
            .graph
            .add_node(OpKind::Add, vec![self.current, other], label);
        self.current = node;
        self
    }

    /// Reduction along an axis.
    pub fn reduce(&mut self, axis: usize, kind: ReduceKind) -> &mut Self {
        self.try_step("reduce", |b| {
            let label = format!("reduce{}", b.graph.len());
            let node = b
                .graph
                .add_node(OpKind::Reduce { axis, kind }, vec![b.current], label);
            b.refresh_shape(node)
        })
    }

    /// Terminal softmax.
    pub fn softmax(&mut self) -> &mut Self {
        self.unary(OpKind::Softmax, "softmax")
    }

    /// Finalises and validates the graph. Returns the first error recorded
    /// by a failed step, or a validation error for a structurally invalid
    /// result.
    pub fn finish(self) -> Result<Graph, GraphError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.graph.validate()?;
        Ok(self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn residual_block_builds_and_validates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new("res", Shape::nchw(1, 4, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1)).relu();
        let skip = b.current();
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .conv(4, 3, (1, 1), (1, 1));
        b.add_from(skip).relu();
        b.flatten().dense(10).softmax();
        let g = b.finish().unwrap();
        assert!(g.validate().is_ok());
        assert!(g.len() > 9);
    }

    #[test]
    fn depthwise_builds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new("dw", Shape::nchw(1, 8, 8, 8), &mut rng);
        b.depthwise(3, (1, 1), (1, 1))
            .batchnorm()
            .relu6()
            .conv(16, 1, (0, 0), (1, 1));
        let g = b.finish().unwrap();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn shape_tracking() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new("s", Shape::nchw(1, 3, 32, 32), &mut rng);
        b.conv(8, 3, (1, 1), (2, 2));
        assert_eq!(b.shape, Shape::nchw(1, 8, 16, 16));
        b.max_pool(2, 2);
        assert_eq!(b.shape, Shape::nchw(1, 8, 8, 8));
        b.flatten();
        assert_eq!(b.shape, Shape::mat(1, 8 * 64));
    }

    #[test]
    fn bad_groups_poisons_builder() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new("bad", Shape::nchw(1, 3, 8, 8), &mut rng);
        b.conv_grouped(8, 3, (1, 1), (1, 1), 2); // 3 channels, 2 groups
        assert!(b.err.is_some());
        match b.finish() {
            Err(GraphError::Builder { op, .. }) => assert_eq!(op, "conv"),
            other => panic!("expected builder error, got {other:?}"),
        }
    }

    #[test]
    fn dense_without_flatten_poisons_builder() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new("bad", Shape::nchw(1, 3, 8, 8), &mut rng);
        // Dense on an NCHW activation is a shape misuse, and the poisoned
        // builder must ignore every later step instead of panicking.
        b.dense(10).relu().softmax();
        assert!(matches!(b.finish(), Err(GraphError::Builder { .. })));
    }

    #[test]
    fn first_error_wins() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = GraphBuilder::new("bad", Shape::nchw(1, 3, 8, 8), &mut rng);
        b.dense(10); // first failure: dense on NCHW
        b.conv_grouped(8, 3, (1, 1), (1, 1), 2); // would fail too
        match b.finish() {
            Err(GraphError::Builder { op, .. }) => assert_eq!(op, "dense"),
            other => panic!("expected dense failure, got {other:?}"),
        }
    }
}
