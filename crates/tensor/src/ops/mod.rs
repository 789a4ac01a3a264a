//! Tensor operations: the unit of scheduling and approximation.
//!
//! Each kernel takes the *mechanism* parameters from [`crate::knobs`]
//! directly; the tuner (in `at-core`) maps its integer knob ids onto these.

pub mod abft;
pub mod activation;
pub mod conv;
pub mod gemm;
pub mod im2col;
pub mod matmul;
pub mod norm;
pub mod pool;
pub mod reduce;
pub mod reference;
pub mod softmax;

pub use abft::{conv2d_abft, flip_bit, gemm_f32_abft, matmul_abft, verify_gemm_f32, AbftTol};
pub use activation::{add_into, map_unary_in_place, map_unary_into, map_unary_work, UnaryOp};
pub use conv::{conv2d, conv2d_into, conv2d_work, PreparedConv};
pub use matmul::{matmul_ex, matmul_into, matmul_work, PreparedDense};
pub use norm::batchnorm2d_into;
pub use pool::{pool2d_into, pool2d_work, Pooling};
pub use reduce::{reduce, reduce_into, ReduceKind};
pub use softmax::softmax_rows_into;
