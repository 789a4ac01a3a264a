//! Max and average pooling. Average pooling is a *reduction* in the paper's
//! taxonomy and therefore supports reduction sampling.

use crate::error::TensorError;
use crate::knobs::{Precision, ReduceApprox};
use crate::par;
use crate::shape::{conv_out_dim, Shape};
use crate::tensor::Tensor;
use rayon::prelude::*;

fn pool_out_shape(
    input: Shape,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
) -> Result<Shape, TensorError> {
    let (n, c, h, w) = input.as_nchw()?;
    if window.0 == 0 || window.1 == 0 || stride.0 == 0 || stride.1 == 0 {
        return Err(TensorError::InvalidKnob {
            op: "pool2d",
            detail: "window and stride must be positive".into(),
        });
    }
    if window.0 > h + 2 * pad.0 || window.1 > w + 2 * pad.1 {
        return Err(TensorError::ShapeMismatch {
            op: "pool2d",
            detail: format!("window {window:?} larger than padded input {h}x{w}"),
        });
    }
    Ok(Shape::nchw(
        n,
        c,
        conv_out_dim(h, window.0, pad.0, stride.0),
        conv_out_dim(w, window.1, pad.1, stride.1),
    ))
}

/// What a pooling window's valid taps are folded into. A trait rather than
/// a closure so the window walk is monomorphised per reducer instead of
/// going through a `dyn Iterator` for every output element.
trait WindowReduce: Sync {
    /// Folds one window's in-bounds taps, visited in `(ky, kx)` order.
    fn reduce(&self, taps: impl Iterator<Item = f32>) -> f32;
}

struct Max;
impl WindowReduce for Max {
    fn reduce(&self, taps: impl Iterator<Item = f32>) -> f32 {
        taps.fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Sum over the valid taps divided by the full window size.
struct Mean {
    denom: f32,
}
impl WindowReduce for Mean {
    fn reduce(&self, taps: impl Iterator<Item = f32>) -> f32 {
        taps.sum::<f32>() / self.denom
    }
}

/// Mean over `num` of every `den` valid taps.
struct SampledMean {
    num: usize,
    den: usize,
}
impl WindowReduce for SampledMean {
    fn reduce(&self, taps: impl Iterator<Item = f32>) -> f32 {
        let (sum, used) = taps
            .enumerate()
            .filter(|(i, _)| i % self.den < self.num)
            .fold((0.0f32, 0usize), |(sum, used), (_, v)| (sum + v, used + 1));
        if used == 0 {
            0.0
        } else {
            sum / used as f32
        }
    }
}

fn pool2d_impl(
    input: &Tensor,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
    precision: Precision,
    reducer: impl WindowReduce,
) -> Result<Tensor, TensorError> {
    let out_shape = pool_out_shape(input.shape(), window, pad, stride)?;
    let (_, _, h, w) = input.shape().as_nchw()?;
    let (_, _, ho, wo) = out_shape.as_nchw()?;

    let qin;
    let input = match precision {
        Precision::Fp32 => input,
        Precision::Fp16 => {
            qin = input.to_f16();
            &qin
        }
    };
    let data = input.data();
    let plane_out = ho * wo;
    let mut out = vec![0.0f32; out_shape.volume()];
    // The window clipped to the input along one axis: the taps a padded
    // border drops are exactly the ones outside `[0, extent)`, so clipping
    // the range once per output visits the same taps in the same order as
    // testing every tap.
    let clip = |o: usize, stride: usize, pad: usize, window: usize, extent: usize| {
        let end = (o * stride + window).saturating_sub(pad).min(extent);
        (o * stride).saturating_sub(pad).min(end)..end
    };
    out.par_chunks_mut(plane_out)
        .with_min_len(par::min_chunks(plane_out * window.0 * window.1))
        .enumerate()
        .for_each(|(idx, op)| {
            let plane = &data[idx * h * w..(idx + 1) * h * w];
            for (oy, orow) in op.chunks_mut(wo).enumerate() {
                let ys = clip(oy, stride.0, pad.0, window.0, h);
                for (ox, o) in orow.iter_mut().enumerate() {
                    let xs = clip(ox, stride.1, pad.1, window.1, w);
                    *o = reducer.reduce(
                        ys.clone()
                            .flat_map(|iy| plane[iy * w..][xs.clone()].iter().copied()),
                    );
                }
            }
        });

    let mut t = Tensor::from_vec(out_shape, out)?;
    if precision == Precision::Fp16 {
        t.quantize_f16();
    }
    Ok(t)
}

/// Max pooling over `window` with `stride` and symmetric `pad`.
pub fn max_pool2d(
    input: &Tensor,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
    precision: Precision,
) -> Result<Tensor, TensorError> {
    pool2d_impl(input, window, pad, stride, precision, Max)
}

/// Average pooling with optional reduction sampling.
///
/// Under `ReduceApprox::Sampling { num, den }` only `num` of every `den`
/// window elements are visited and the mean is taken over the visited
/// subset, mirroring the paper's reduction sampling (the result is rescaled
/// implicitly by averaging over fewer elements).
pub fn avg_pool2d(
    input: &Tensor,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
    approx: ReduceApprox,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    approx.validate()?;
    match approx {
        ReduceApprox::Exact => {
            let denom = (window.0 * window.1) as f32;
            pool2d_impl(input, window, pad, stride, precision, Mean { denom })
        }
        ReduceApprox::Sampling { num, den } => pool2d_impl(
            input,
            window,
            pad,
            stride,
            precision,
            SampledMean { num, den },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            Shape::nchw(n, c, h, w),
            (0..n * c * h * w).map(|i| i as f32).collect(),
        )
        .unwrap()
    }

    #[test]
    fn max_pool_2x2() {
        let input = ramp(1, 1, 4, 4);
        let out = max_pool2d(&input, (2, 2), (0, 0), (2, 2), Precision::Fp32).unwrap();
        assert_eq!(out.shape(), Shape::nchw(1, 1, 2, 2));
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let input = ramp(1, 1, 4, 4);
        let out = avg_pool2d(
            &input,
            (2, 2),
            (0, 0),
            (2, 2),
            ReduceApprox::Exact,
            Precision::Fp32,
        )
        .unwrap();
        assert_eq!(out.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_sampling_exact_on_constant() {
        let input = Tensor::full(Shape::nchw(1, 2, 8, 8), 4.2);
        for approx in ReduceApprox::ALL_SAMPLING {
            let out = avg_pool2d(&input, (2, 2), (0, 0), (2, 2), approx, Precision::Fp32).unwrap();
            for &v in out.data() {
                assert!((v - 4.2).abs() < 1e-6, "sampled avg of constant = {v}");
            }
        }
    }

    #[test]
    fn avg_pool_sampling_differs_on_ramp() {
        let input = ramp(1, 1, 8, 8);
        let exact = avg_pool2d(
            &input,
            (4, 4),
            (0, 0),
            (4, 4),
            ReduceApprox::Exact,
            Precision::Fp32,
        )
        .unwrap();
        let approx = avg_pool2d(
            &input,
            (4, 4),
            (0, 0),
            (4, 4),
            ReduceApprox::QUARTER,
            Precision::Fp32,
        )
        .unwrap();
        assert!(exact.mse(&approx).unwrap() > 0.0);
    }

    #[test]
    fn padding_excluded_from_average() {
        // With pad 1, corner windows see fewer valid elements; the mean is
        // over valid elements only.
        let input = Tensor::full(Shape::nchw(1, 1, 2, 2), 1.0);
        let out = avg_pool2d(
            &input,
            (2, 2),
            (1, 1),
            (2, 2),
            ReduceApprox::Exact,
            Precision::Fp32,
        )
        .unwrap();
        // Mean is computed over the full window denominator, matching
        // count_include_pad=false semantics for the sum but fixed denom:
        // corner window sees one valid element of value 1 → 1/4.
        assert_eq!(out.at4(0, 0, 0, 0), 0.25);
    }

    #[test]
    fn zero_window_rejected() {
        let input = ramp(1, 1, 4, 4);
        assert!(max_pool2d(&input, (0, 2), (0, 0), (1, 1), Precision::Fp32).is_err());
    }
}
