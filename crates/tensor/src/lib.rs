#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # at-tensor — tensor compute substrate for the ApproxTuner reproduction
//!
//! A pure-Rust, data-parallel tensor library implementing the set of
//! predefined tensor operations that ApproxTuner (PPoPP'21) schedules and
//! approximates: convolutions, matrix multiplication, ReLU/tanh, pooling,
//! batch normalisation, softmax, generic `map` and `reduce`.
//!
//! Every operation exists in an *exact* form and, where the paper defines
//! one, in *approximate* forms:
//!
//! * **Filter sampling** for convolutions (Li et al. \[42\]): skip
//!   1-out-of-`k` filter elements at a configurable initial offset and
//!   rescale the remaining contributions (9 knob settings).
//! * **Perforated convolutions** (Figurnov et al. \[17\]): skip output rows or
//!   columns at a regular stride and interpolate the missing outputs from
//!   computed neighbours (18 knob settings).
//! * **Reduction sampling** (Zhu et al. \[67\]): compute reductions over a
//!   strided subset of the inputs and rescale (3 knob settings).
//! * **IEEE FP16**: software binary16 quantisation of operands and results,
//!   giving hardware-independent *semantics* for half precision (the
//!   performance benefit is modelled by `at-hw`).
//! * **LUT approximate multipliers** (the AdaPT knob family): GEMM-shaped
//!   ops over operands symmetric-quantised to 4/6/8-bit integers with
//!   products served from a precomputed Mitchell-multiplier table
//!   ([`lut`]), accumulated exactly in `i64`.
//!
//! Kernels are parallelised with rayon over batch × output-channel (or rows
//! for 2-D ops), following the data-parallel iterator idiom; one grain rule
//! (`par`) decides whether a loop is big enough to fork at all.
//!
//! The layout is NCHW throughout, matching the paper's cuDNN-based library.

pub mod cost;
pub mod error;
pub mod f16;
pub mod instrument;
pub mod knobs;
pub mod lut;
pub mod ops;
mod par;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use f16::F16;
pub use knobs::{ConvApprox, MulApprox, PerforationDim, Precision, ReduceApprox};
pub use shape::Shape;
pub use tensor::{Tensor, View};
