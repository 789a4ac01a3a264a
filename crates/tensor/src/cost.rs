//! Analytical operation-count cost model (paper §3.4).
//!
//! "As a proxy for execution time, we use the count of compute and memory
//! operations, computed analytically for each tensor op with closed-form
//! expressions using input tensor sizes, weight tensor sizes, strides,
//! padding, etc."
//!
//! The cost of an approximated op is
//! `Cost(op, knob) = N_m(op)/R_m(knob) + N_c(op)/R_c(knob)` (Eqn 3), where
//! `R_m`/`R_c` are knob-specific reduction factors. E.g. for FP16 50% filter
//! sampling, `R_m = 4` (2× fewer bytes from FP16 × 2× fewer loads from
//! sampling) and `R_c = 2`.

use crate::knobs::{ConvApprox, MulApprox, Precision, ReduceApprox};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// Baseline operation counts for an (unapproximated, FP32) tensor op.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct OpCounts {
    /// Number of arithmetic operations (multiply–accumulates counted as 2).
    pub compute: f64,
    /// Number of 4-byte memory operations (loads + stores).
    pub memory: f64,
}

impl OpCounts {
    /// Zero cost.
    pub const ZERO: OpCounts = OpCounts {
        compute: 0.0,
        memory: 0.0,
    };
}

/// Reduction factors `(R_c, R_m)` applied by an approximation knob.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReductionFactors {
    /// Compute-operation reduction factor (≥ 1).
    pub compute: f64,
    /// Memory-operation reduction factor (≥ 1).
    pub memory: f64,
}

impl ReductionFactors {
    /// No reduction.
    pub const NONE: ReductionFactors = ReductionFactors {
        compute: 1.0,
        memory: 1.0,
    };
}

/// Closed-form counts for a (possibly grouped) 2-D convolution.
///
/// `weight` is `[K, C/groups, R, S]`; for a dense convolution the second
/// weight dimension equals the input channel count. Grouping is inferred
/// from the shapes, so depthwise convolutions are costed correctly.
pub fn conv2d_counts(
    input: Shape,
    weight: Shape,
    pad: (usize, usize),
    stride: (usize, usize),
) -> OpCounts {
    let (n, c, h, w) = match input.as_nchw() {
        Ok(v) => v,
        Err(_) => return OpCounts::ZERO,
    };
    let (k, cpg, r, s) = match weight.as_nchw() {
        Ok(v) => v,
        Err(_) => return OpCounts::ZERO,
    };
    if cpg == 0 || c % cpg != 0 || r > h + 2 * pad.0 || s > w + 2 * pad.1 {
        return OpCounts::ZERO;
    }
    let ho = crate::shape::conv_out_dim(h, r, pad.0, stride.0);
    let wo = crate::shape::conv_out_dim(w, s, pad.1, stride.1);
    let outputs = (n * k * ho * wo) as f64;
    let macs_per_output = (cpg * r * s) as f64;
    OpCounts {
        compute: 2.0 * outputs * macs_per_output,
        // Each output loads its window and the filter, and stores once.
        memory: outputs * (2.0 * macs_per_output + 1.0),
    }
}

/// Closed-form counts for `[M,K] × [K,N]` matrix multiplication.
pub fn matmul_counts(m: usize, k: usize, n: usize) -> OpCounts {
    let outputs = (m * n) as f64;
    OpCounts {
        compute: 2.0 * outputs * k as f64,
        memory: outputs * (2.0 * k as f64 + 1.0),
    }
}

/// Counts for an elementwise map over `len` elements (`flops_per_elem`
/// arithmetic ops each).
pub fn map_counts(len: usize, flops_per_elem: f64) -> OpCounts {
    OpCounts {
        compute: len as f64 * flops_per_elem,
        memory: 2.0 * len as f64,
    }
}

/// Counts for pooling over NCHW input with the given window/stride.
pub fn pool2d_counts(
    input: Shape,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
) -> OpCounts {
    let (n, c, h, w) = match input.as_nchw() {
        Ok(v) => v,
        Err(_) => return OpCounts::ZERO,
    };
    let ho = crate::shape::conv_out_dim(h, window.0, pad.0, stride.0);
    let wo = crate::shape::conv_out_dim(w, window.1, pad.1, stride.1);
    let outputs = (n * c * ho * wo) as f64;
    let per = (window.0 * window.1) as f64;
    OpCounts {
        compute: outputs * per,
        memory: outputs * (per + 1.0),
    }
}

/// Counts for a reduction of `len` elements to one, times `groups` outputs.
pub fn reduce_counts(groups: usize, len: usize) -> OpCounts {
    OpCounts {
        compute: (groups * len) as f64,
        memory: (groups * (len + 1)) as f64,
    }
}

/// Counts for batch normalisation over NCHW input.
pub fn batchnorm_counts(input: Shape) -> OpCounts {
    // One multiply + one add per element with the folded affine form.
    map_counts(input.volume(), 2.0)
}

/// Counts for row-wise softmax of an `[M,N]` tensor.
pub fn softmax_counts(m: usize, n: usize) -> OpCounts {
    // exp + subtract + divide + max/sum passes ≈ 5 flops per element.
    map_counts(m * n, 5.0)
}

/// Reduction factors for a convolution knob (Eqn 3 discussion).
pub fn conv_reduction_factors(approx: ConvApprox, precision: Precision) -> ReductionFactors {
    let alg = 1.0 / approx.kept_fraction(); // e.g. 2.0 for 50% sampling
    let prec_mem = match precision {
        Precision::Fp32 => 1.0,
        Precision::Fp16 => 2.0, // half the bytes per access
    };
    ReductionFactors {
        compute: alg,
        memory: alg * prec_mem,
    }
}

/// Reduction factors for a reduction knob.
pub fn reduce_reduction_factors(approx: ReduceApprox, precision: Precision) -> ReductionFactors {
    let alg = 1.0 / approx.kept_fraction();
    let prec_mem = match precision {
        Precision::Fp32 => 1.0,
        Precision::Fp16 => 2.0,
    };
    ReductionFactors {
        compute: alg,
        memory: alg * prec_mem,
    }
}

/// Hardware-independent reduction factors for a multiplier knob: narrower
/// operands cut memory traffic by `32/bits`; the compute-*rate* advantage
/// of the approximate multiplier cell is hardware-specific and priced by
/// `at-hw` (like FP16's double-rate units).
pub fn mul_reduction_factors(mul: MulApprox) -> ReductionFactors {
    match mul {
        MulApprox::Exact => ReductionFactors::NONE,
        MulApprox::Lut { bits } => ReductionFactors {
            compute: 1.0,
            memory: 32.0 / f64::from(bits),
        },
    }
}

/// Eqn 3: predicted cost of an op under reduction factors.
pub fn predicted_cost(counts: OpCounts, factors: ReductionFactors) -> f64 {
    counts.memory / factors.memory + counts.compute / factors.compute
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_counts_formula() {
        // 1x1 conv on 1x1x1x1: one MAC → 2 flops.
        let c = conv2d_counts(
            Shape::nchw(1, 1, 1, 1),
            Shape::nchw(1, 1, 1, 1),
            (0, 0),
            (1, 1),
        );
        assert_eq!(c.compute, 2.0);
        // Scales linearly with output channels.
        let c2 = conv2d_counts(
            Shape::nchw(1, 1, 1, 1),
            Shape::nchw(4, 1, 1, 1),
            (0, 0),
            (1, 1),
        );
        assert_eq!(c2.compute, 8.0);
    }

    #[test]
    fn paper_example_fp16_half_sampling() {
        // "for FP16 50% filter sampling, R_m = 4 … and has R_c = 2".
        let f = conv_reduction_factors(
            ConvApprox::FilterSampling { k: 2, offset: 0 },
            Precision::Fp16,
        );
        assert_eq!(f.compute, 2.0);
        assert_eq!(f.memory, 4.0);
    }

    #[test]
    fn predicted_cost_monotone_in_factors() {
        let counts = matmul_counts(64, 64, 64);
        let base = predicted_cost(counts, ReductionFactors::NONE);
        let better = predicted_cost(
            counts,
            ReductionFactors {
                compute: 2.0,
                memory: 4.0,
            },
        );
        assert!(better < base);
    }

    #[test]
    fn stride_reduces_conv_cost() {
        let s1 = conv2d_counts(
            Shape::nchw(1, 3, 32, 32),
            Shape::nchw(8, 3, 3, 3),
            (1, 1),
            (1, 1),
        );
        let s2 = conv2d_counts(
            Shape::nchw(1, 3, 32, 32),
            Shape::nchw(8, 3, 3, 3),
            (1, 1),
            (2, 2),
        );
        assert!(s2.compute < s1.compute / 3.0);
    }

    #[test]
    fn invalid_shapes_zero_cost() {
        assert_eq!(
            conv2d_counts(Shape::mat(2, 2), Shape::mat(2, 2), (0, 0), (1, 1)),
            OpCounts::ZERO
        );
    }
}
