//! 2-D convolution: exact, filter-sampled, perforated and LUT-multiplied
//! variants, each in FP32 or FP16 semantics.
//!
//! Every configuration executes through the implicit-GEMM lowering in
//! [`super::im2col`] (the paper's §6.2 patch-matrix formulation, with the
//! patches read in place instead of copied out); the original direct
//! seven-loop kernel survives as the oracle in [`super::reference`] and the
//! differential suite pins the two bit-for-bit. This module owns the
//! parameter struct and the public entry points.

use crate::error::TensorError;
use crate::instrument::Counters;
use crate::knobs::{ConvApprox, MulApprox, Precision};
use crate::ops::activation::UnaryOp;
use crate::shape::Shape;
use crate::tensor::{Tensor, View};

pub use super::im2col::PreparedConv;

/// Configuration of a convolution call.
#[derive(Clone, Copy, Debug)]
pub struct Conv2dParams {
    /// Symmetric padding (height, width).
    pub pad: (usize, usize),
    /// Stride (height, width).
    pub stride: (usize, usize),
    /// Channel groups (1 = dense convolution; `C` = depthwise, as in
    /// MobileNet). The weight tensor is `[K, C/groups, R, S]`.
    pub groups: usize,
    /// Algorithmic approximation.
    pub approx: ConvApprox,
    /// Numeric precision.
    pub precision: Precision,
    /// Multiplier-level approximation (LUT approximate multipliers).
    pub mul: MulApprox,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            pad: (0, 0),
            stride: (1, 1),
            groups: 1,
            approx: ConvApprox::Exact,
            precision: Precision::Fp32,
            mul: MulApprox::Exact,
        }
    }
}

/// 2-D convolution over NCHW input `[N,C,H,W]` with weights `[K,C,R,S]` and
/// optional per-output-channel bias `[K]`.
///
/// The `approx` mechanism selects between the exact kernel, filter sampling
/// (skip 1-out-of-k filter elements, rescale by `k/(k-1)`) and output
/// perforation (skip 1-out-of-k output rows/columns, interpolate from
/// computed neighbours); `mul` optionally routes every product through a
/// LUT approximate multiplier. `Precision::Fp16` quantises operands and the
/// result through IEEE binary16.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    super::im2col::conv2d_lowered(input, weight, bias, params, false)
}

/// [`conv2d`] into `out`, which must hold the output shape; every element
/// is written. With `act` the subsequent FP32 activation is fused into the
/// kernel's epilogue, so the executor skips one full pass over the
/// intermediate tensor — bit-identical to applying `act` to [`conv2d`]'s
/// output for every `params` setting (the epilogue applies the same scalar
/// function after the same quantisation points). Returns the work it did.
pub fn conv2d_into(
    input: View,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    act: Option<UnaryOp>,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    super::im2col::lower_into(input, weight, bias, params, act, false, out)
}

/// The work [`conv2d_into`] returns for an input of shape `input`, weights
/// of shape `weight`, a bias if `bias`, these knobs and fused activation —
/// computed from shapes alone, without running the kernel.
pub fn conv2d_work(
    input: Shape,
    weight: Shape,
    bias: bool,
    params: Conv2dParams,
    act: Option<UnaryOp>,
) -> Result<Counters, TensorError> {
    super::im2col::lower_work(input, weight, bias, params, act)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::PerforationDim;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_input() -> Tensor {
        // 1x1x4x4 ramp.
        Tensor::from_vec(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn identity_kernel() {
        let input = simple_input();
        let weight = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![1.0]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn box_filter_matches_manual() {
        let input = simple_input();
        let weight = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                pad: (1, 1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.shape(), Shape::nchw(1, 1, 4, 4));
        // Centre element (1,1): sum of 3x3 window of the ramp = 0+1+2+4+5+6+8+9+10 = 45.
        assert_eq!(out.data()[out.shape().idx4(0, 0, 1, 1)], 45.0);
        // Corner (0,0): 0+1+4+5 = 10.
        assert_eq!(out.data()[out.shape().idx4(0, 0, 0, 0)], 10.0);
    }

    #[test]
    fn bias_applied_per_channel() {
        let input = simple_input();
        let weight = Tensor::full(Shape::nchw(2, 1, 1, 1), 1.0);
        let bias = Tensor::from_vec(Shape::vec(2), vec![10.0, 20.0]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dParams::default()).unwrap();
        assert_eq!(out.data()[out.shape().idx4(0, 0, 0, 0)], 10.0);
        assert_eq!(out.data()[out.shape().idx4(0, 1, 0, 0)], 20.0);
    }

    #[test]
    fn stride_and_padding() {
        let input = simple_input();
        let weight = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0; 4]).unwrap();
        let out = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                stride: (2, 2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.shape(), Shape::nchw(1, 1, 2, 2));
        // Window at (0,0): 0+1+4+5 = 10; at (0,1): 2+3+6+7 = 18.
        assert_eq!(out.data(), &[10.0, 18.0, 42.0, 50.0]);
    }

    #[test]
    fn filter_sampling_unbiased_on_constant_filter() {
        // With a constant filter and constant input, skipping 1-of-k filter
        // elements and rescaling by k/(k-1) is exact.
        let input = Tensor::full(Shape::nchw(1, 2, 6, 6), 3.0);
        let weight = Tensor::full(Shape::nchw(1, 2, 3, 3), 0.5);
        let exact = conv2d(&input, &weight, None, Conv2dParams::default()).unwrap();
        for k in 2..=4 {
            for offset in 0..k {
                let approx = conv2d(
                    &input,
                    &weight,
                    None,
                    Conv2dParams {
                        approx: ConvApprox::FilterSampling { k, offset },
                        ..Default::default()
                    },
                )
                .unwrap();
                let mse = exact.mse(&approx).unwrap();
                assert!(mse < 1e-8, "k={k} offset={offset} mse={mse}");
            }
        }
    }

    #[test]
    fn perforation_exact_on_rowwise_constant_input() {
        // An input constant along W makes column perforation exact: every
        // interpolated column equals its neighbours.
        let mut input = Tensor::zeros(Shape::nchw(1, 1, 6, 8));
        for y in 0..6 {
            for x in 0..8 {
                *input.at4_mut(0, 0, y, x) = y as f32;
            }
        }
        let weight = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![2.0]).unwrap();
        let exact = conv2d(&input, &weight, None, Conv2dParams::default()).unwrap();
        let perf = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                approx: ConvApprox::Perforation {
                    dim: PerforationDim::Col,
                    k: 2,
                    offset: 1,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(exact.mse(&perf).unwrap() < 1e-10);
    }

    #[test]
    fn perforation_error_grows_with_rate_on_random_input() {
        let mut rng = StdRng::seed_from_u64(11);
        let input = Tensor::uniform(Shape::nchw(1, 3, 16, 16), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(4, 3, 3, 3), -0.5, 0.5, &mut rng);
        let mse_at = |k: usize| {
            let out = conv2d(
                &input,
                &weight,
                None,
                Conv2dParams {
                    pad: (1, 1),
                    approx: ConvApprox::Perforation {
                        dim: PerforationDim::Row,
                        k,
                        offset: 0,
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            let exact_p = conv2d(
                &input,
                &weight,
                None,
                Conv2dParams {
                    pad: (1, 1),
                    ..Default::default()
                },
            )
            .unwrap();
            exact_p.mse(&out).unwrap()
        };
        // Skipping every 2nd row (k=2) must hurt at least as much as every
        // 4th (k=4).
        assert!(
            mse_at(2) > mse_at(4),
            "mse k=2 {} k=4 {}",
            mse_at(2),
            mse_at(4)
        );
        assert!(mse_at(4) > 0.0);
    }

    #[test]
    fn fp16_close_to_fp32() {
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor::uniform(Shape::nchw(1, 2, 8, 8), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(3, 2, 3, 3), -0.3, 0.3, &mut rng);
        let f32_out = conv2d(&input, &weight, None, Conv2dParams::default()).unwrap();
        let f16_out = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                precision: Precision::Fp16,
                ..Default::default()
            },
        )
        .unwrap();
        let mse = f32_out.mse(&f16_out).unwrap();
        assert!(mse > 0.0, "fp16 must differ from fp32");
        assert!(mse < 1e-5, "fp16 error should be small, got {mse}");
    }

    #[test]
    fn offsets_change_the_result() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor::uniform(Shape::nchw(1, 2, 10, 10), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(2, 2, 3, 3), -0.5, 0.5, &mut rng);
        let o0 = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                approx: ConvApprox::FilterSampling { k: 2, offset: 0 },
                ..Default::default()
            },
        )
        .unwrap();
        let o1 = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                approx: ConvApprox::FilterSampling { k: 2, offset: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(o0.mse(&o1).unwrap() > 0.0, "different offsets must differ");
    }

    #[test]
    fn invalid_knob_rejected() {
        let input = simple_input();
        let weight = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
        let err = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                approx: ConvApprox::Perforation {
                    dim: PerforationDim::Row,
                    k: 7,
                    offset: 0,
                },
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::InvalidKnob { .. }));
    }

    #[test]
    fn lut_multiplier_approximates() {
        let mut rng = StdRng::seed_from_u64(13);
        let input = Tensor::uniform(Shape::nchw(1, 2, 8, 8), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(3, 2, 3, 3), -0.5, 0.5, &mut rng);
        let exact = conv2d(&input, &weight, None, Conv2dParams::default()).unwrap();
        let mse_at = |bits: u8| {
            let out = conv2d(
                &input,
                &weight,
                None,
                Conv2dParams {
                    mul: MulApprox::Lut { bits },
                    ..Default::default()
                },
            )
            .unwrap();
            exact.mse(&out).unwrap()
        };
        let (m8, m4) = (mse_at(8), mse_at(4));
        assert!(m8 > 0.0, "LUT must differ from exact");
        assert!(m4 > m8, "4-bit must be coarser than 8-bit: {m4} vs {m8}");
        assert!(m8 < 0.05, "8-bit LUT should stay close: {m8}");
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use crate::knobs::PerforationDim;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn depthwise_equals_per_channel_dense() {
        // A depthwise conv (groups = C) must equal running a 1-channel dense
        // conv on each channel independently.
        let mut rng = StdRng::seed_from_u64(21);
        let c = 3;
        let input = Tensor::uniform(Shape::nchw(1, c, 6, 6), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(c, 1, 3, 3), -1.0, 1.0, &mut rng);
        let out = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                pad: (1, 1),
                groups: c,
                ..Default::default()
            },
        )
        .unwrap();
        for ch in 0..c {
            let xin = Tensor::from_vec(
                Shape::nchw(1, 1, 6, 6),
                input.data()[ch * 36..(ch + 1) * 36].to_vec(),
            )
            .unwrap();
            let wch = Tensor::from_vec(
                Shape::nchw(1, 1, 3, 3),
                weight.data()[ch * 9..(ch + 1) * 9].to_vec(),
            )
            .unwrap();
            let dense = conv2d(
                &xin,
                &wch,
                None,
                Conv2dParams {
                    pad: (1, 1),
                    ..Default::default()
                },
            )
            .unwrap();
            for i in 0..36 {
                let a = out.data()[ch * 36 + i];
                let b = dense.data()[i];
                assert!((a - b).abs() < 1e-6, "ch {ch} idx {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn grouped_conv_shape_checks() {
        let input = Tensor::zeros(Shape::nchw(1, 4, 4, 4));
        // groups=2 needs weight [K, 2, R, S].
        let bad = Tensor::zeros(Shape::nchw(4, 4, 3, 3));
        assert!(conv2d(
            &input,
            &bad,
            None,
            Conv2dParams {
                groups: 2,
                ..Default::default()
            }
        )
        .is_err());
        let good = Tensor::zeros(Shape::nchw(4, 2, 3, 3));
        assert!(conv2d(
            &input,
            &good,
            None,
            Conv2dParams {
                pad: (1, 1),
                groups: 2,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn depthwise_with_perforation_runs() {
        let mut rng = StdRng::seed_from_u64(22);
        let input = Tensor::uniform(Shape::nchw(1, 4, 8, 8), -1.0, 1.0, &mut rng);
        let weight = Tensor::uniform(Shape::nchw(4, 1, 3, 3), -1.0, 1.0, &mut rng);
        let out = conv2d(
            &input,
            &weight,
            None,
            Conv2dParams {
                pad: (1, 1),
                groups: 4,
                approx: ConvApprox::Perforation {
                    dim: PerforationDim::Row,
                    k: 2,
                    offset: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.shape(), Shape::nchw(1, 4, 8, 8));
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
