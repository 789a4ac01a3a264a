//! Row-wise softmax (the final operation of every CNN in the paper; its raw
//! output is the `T_out` tensor consumed by the Π1 prediction model).

use crate::error::TensorError;
use crate::instrument::Counters;
use crate::knobs::Precision;
use crate::tensor::{check_len, View};
use crate::{f16, par};
use rayon::prelude::*;

/// Numerically-stable softmax over the last dimension of a `[M, N]` tensor,
/// into `out`, which must be as long as `input`. Returns the work it did.
pub fn softmax_rows_into(
    input: View,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    let (_, n) = input.shape().as_mat()?;
    check_len(input.shape(), out.len())?;
    out.copy_from_slice(input.data());
    if precision == Precision::Fp16 {
        f16::quantize_slice(out);
    }
    out.par_chunks_mut(n.max(1))
        .with_min_len(par::min_chunks(n))
        .for_each(|row| {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        });
    let n = out.len() as u64;
    let mut work = Counters {
        ew_softmax: n,
        ..Counters::default()
    };
    if precision == Precision::Fp16 {
        f16::quantize_slice(out);
        work.ew_fp16 += 2 * n;
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn softmax_rows(x: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
        Tensor::written_by(x.shape(), |out| {
            softmax_rows_into(x.view(), precision, out).map(drop)
        })
    }
    use crate::Shape;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(Shape::mat(2, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let y = softmax_rows(&x, Precision::Fp32).unwrap();
        for r in 0..2 {
            let s: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn preserves_argmax() {
        let x = Tensor::from_vec(Shape::mat(1, 4), vec![0.1, 5.0, -2.0, 3.0]).unwrap();
        let y = softmax_rows(&x, Precision::Fp32).unwrap();
        assert!(y.data().iter().all(|&v| v <= y.data()[1]));
    }

    #[test]
    fn stable_for_large_logits() {
        let x = Tensor::from_vec(Shape::mat(1, 2), vec![1000.0, 999.0]).unwrap();
        let y = softmax_rows(&x, Precision::Fp32).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(y.data()[0] > y.data()[1]);
    }
}
