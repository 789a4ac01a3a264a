//! Generic reductions with reduction sampling (Zhu et al. \[67\]).
//!
//! Reductions collapse one axis of a tensor. Under sampling, only a strided
//! subset of the inputs along the reduced axis is visited; scale-sensitive
//! kinds (sum, mean, product) are rescaled by an appropriate constant, as in
//! the paper ("for reductions like average, sum, or multiply, we scale the
//! result by an appropriate constant").

use crate::error::TensorError;
use crate::f16;
use crate::instrument::Counters;
use crate::knobs::{Precision, ReduceApprox};
use crate::shape::Shape;
use crate::tensor::{Tensor, View};

/// The reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Product of elements.
    Product,
}

/// Reduces `input` along `axis` with the given kind, sampling mechanism and
/// precision. The output shape drops `axis`.
pub fn reduce(
    input: &Tensor,
    axis: usize,
    kind: ReduceKind,
    approx: ReduceApprox,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    let all = input.shape();
    let dims: Vec<usize> = (0..all.rank())
        .filter(|&d| d != axis)
        .map(|d| all.dims()[d])
        .collect();
    let shape = Shape::new(if dims.is_empty() { &[1][..] } else { &dims });
    Tensor::written_by(shape, |out| {
        reduce_into(input.view(), axis, kind, approx, precision, out).map(drop)
    })
}

/// [`reduce`] into `out`, one element per position of the other axes.
/// Returns the work it did.
pub fn reduce_into(
    input: View,
    axis: usize,
    kind: ReduceKind,
    approx: ReduceApprox,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    approx.validate()?;
    let rank = input.shape().rank();
    if axis >= rank {
        return Err(TensorError::AxisOutOfRange { axis, rank });
    }
    let shape = input.shape();
    let dims = shape.dims();
    let len = dims[axis];
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    if out.len() != outer * inner {
        return Err(TensorError::DataLength {
            expected: outer * inner,
            got: out.len(),
        });
    }

    let qin;
    let input_t = match precision {
        Precision::Fp32 => input,
        Precision::Fp16 => {
            qin = input.to_f16();
            qin.view()
        }
    };
    let data = input_t.data();

    // Which positions along the axis are visited, and the rescale constant.
    let (visit, rescale): (Vec<usize>, f64) = match approx {
        ReduceApprox::Exact => ((0..len).collect(), 1.0),
        ReduceApprox::Sampling { num, den } => {
            let idx: Vec<usize> = (0..len).filter(|i| i % den < num).collect();
            let kept = idx.len().max(1) as f64;
            (idx, len as f64 / kept)
        }
    };
    if visit.is_empty() {
        return Err(TensorError::InvalidKnob {
            op: "reduce",
            detail: format!("sampling left no elements along axis of length {len}"),
        });
    }

    for o in 0..outer {
        for i in 0..inner {
            let at = |j: usize| data[(o * len + j) * inner + i];
            let v = match kind {
                ReduceKind::Sum => {
                    let s: f64 = visit.iter().map(|&j| at(j) as f64).sum();
                    (s * rescale) as f32
                }
                ReduceKind::Mean => {
                    let s: f64 = visit.iter().map(|&j| at(j) as f64).sum();
                    (s / visit.len() as f64) as f32
                }
                ReduceKind::Max => visit
                    .iter()
                    .map(|&j| at(j))
                    .fold(f32::NEG_INFINITY, f32::max),
                ReduceKind::Min => visit.iter().map(|&j| at(j)).fold(f32::INFINITY, f32::min),
                ReduceKind::Product => {
                    // Rescale in the exponent: p^(len/kept) approximates the
                    // full product for positive inputs; for general inputs we
                    // return the partial product (documented best effort).
                    let p: f64 = visit.iter().map(|&j| at(j) as f64).product();
                    if p > 0.0 && approx != ReduceApprox::Exact {
                        p.powf(rescale) as f32
                    } else {
                        p as f32
                    }
                }
            };
            out[o * inner + i] = v;
        }
    }

    let mut work = Counters {
        ew_reduce: (out.len() * visit.len()) as u64,
        ..Counters::default()
    };
    if precision == Precision::Fp16 {
        f16::quantize_slice(out);
        work.ew_fp16 += (input.data().len() + out.len()) as u64;
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_over_axis() {
        let x = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let s0 = reduce(&x, 0, ReduceKind::Sum, ReduceApprox::Exact, Precision::Fp32).unwrap();
        assert_eq!(s0.data(), &[5., 7., 9.]);
        let s1 = reduce(&x, 1, ReduceKind::Sum, ReduceApprox::Exact, Precision::Fp32).unwrap();
        assert_eq!(s1.data(), &[6., 15.]);
    }

    #[test]
    fn mean_max_min() {
        let x = Tensor::from_vec(Shape::vec(4), vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(
            reduce(
                &x,
                0,
                ReduceKind::Mean,
                ReduceApprox::Exact,
                Precision::Fp32
            )
            .unwrap()
            .data(),
            &[2.5]
        );
        assert_eq!(
            reduce(&x, 0, ReduceKind::Max, ReduceApprox::Exact, Precision::Fp32)
                .unwrap()
                .data(),
            &[4.0]
        );
        assert_eq!(
            reduce(&x, 0, ReduceKind::Min, ReduceApprox::Exact, Precision::Fp32)
                .unwrap()
                .data(),
            &[1.0]
        );
    }

    #[test]
    fn sampled_sum_rescaled_exact_on_constant() {
        let x = Tensor::full(Shape::vec(20), 2.0);
        for approx in ReduceApprox::ALL_SAMPLING {
            let s = reduce(&x, 0, ReduceKind::Sum, approx, Precision::Fp32).unwrap();
            assert!(
                (s.data()[0] - 40.0).abs() < 1e-4,
                "{approx:?} gave {}",
                s.data()[0]
            );
        }
    }

    #[test]
    fn sampled_sum_approximate_on_ramp() {
        let x = Tensor::from_vec(Shape::vec(100), (0..100).map(|i| i as f32).collect()).unwrap();
        let exact = reduce(&x, 0, ReduceKind::Sum, ReduceApprox::Exact, Precision::Fp32).unwrap();
        let s = reduce(&x, 0, ReduceKind::Sum, ReduceApprox::HALF, Precision::Fp32).unwrap();
        let rel = (s.data()[0] - exact.data()[0]).abs() / exact.data()[0];
        assert!(rel < 0.05, "relative error {rel}");
        assert!(s.data()[0] != exact.data()[0]);
    }

    #[test]
    fn axis_out_of_range() {
        let x = Tensor::zeros(Shape::vec(4));
        assert!(reduce(&x, 1, ReduceKind::Sum, ReduceApprox::Exact, Precision::Fp32).is_err());
    }
}
