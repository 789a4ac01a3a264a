#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # at-ir — HPVM-style dataflow-graph IR for tensor programs
//!
//! ApproxTuner builds on HPVM/ApproxHPVM: programs are represented as
//! dataflow graphs whose nodes are predefined tensor operations
//! (convolution, matrix multiplication, ReLU, pooling, map, reduce …);
//! these operations are "the units of scheduling and approximation"
//! (§2.1). This crate provides that representation:
//!
//! * [`graph`] — the dataflow graph: nodes, parameters, validation and
//!   topological execution order.
//! * [`builder`] — a front-end builder API used by the model zoo and the
//!   image-processing pipeline (playing the role of the Keras/PyTorch →
//!   ApproxHPVM front ends).
//! * [`shapes`] — shape-inference pass: propagates the input shape through
//!   the graph so operation counts can be computed analytically.
//! * [`approx`] — the per-node approximation choice (digital knobs or a
//!   PROMISE voltage level) applied at execution time.
//! * [`exec`] — the reference executor: runs the graph on the tensor
//!   substrate, applying each node's approximation choice; also computes
//!   per-node cost descriptors for the timing/energy models.

pub mod approx;
pub mod builder;
pub mod error;
pub mod exec;
pub mod graph;
pub mod shapes;

pub use approx::ApproxChoice;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use exec::{
    execute, execute_all, execute_suffix, execute_with_records, execute_with_trace, ExecOptions,
    NodeRecord, PlanAction,
};
pub use graph::{Graph, NodeId, OpClass, OpKind};
