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

/// What a pooling window's valid taps are folded into, one tap at a time:
/// every output element starts at `init`, takes its in-bounds taps in
/// `(ky, kx)` order through `fold`, and is read out by `finish`. A trait
/// rather than closures so the row loops are monomorphised per reducer.
trait WindowReduce: Sync {
    /// Running state of one output element.
    type Acc: Copy + Send;
    fn init(&self) -> Self::Acc;
    fn fold(&self, acc: Self::Acc, tap: f32) -> Self::Acc;
    fn finish(&self, acc: Self::Acc) -> f32;
}

/// The largest tap, as a select: a NaN tap never wins (so a window of only
/// NaN or no taps reads `−∞`), and of `−0` and `+0` the one met first
/// stays. That is `f32::max` wherever `f32::max` is specified; the sign of
/// a zero tie it leaves to the code generator, and debug and release
/// builds disagree on it.
struct Max;
impl WindowReduce for Max {
    type Acc = f32;
    fn init(&self) -> f32 {
        f32::NEG_INFINITY
    }
    #[inline]
    fn fold(&self, acc: f32, tap: f32) -> f32 {
        if tap > acc {
            tap
        } else {
            acc
        }
    }
    fn finish(&self, acc: f32) -> f32 {
        acc
    }
}

/// Sum over the valid taps divided by the full window size. The sum starts
/// from `−0`, the additive identity (`−0 + x` is `x` for every `x`, `+0 + −0`
/// is not `−0`), as `Iterator::sum` does.
struct Mean {
    denom: f32,
}
impl WindowReduce for Mean {
    type Acc = f32;
    fn init(&self) -> f32 {
        -0.0
    }
    #[inline]
    fn fold(&self, acc: f32, tap: f32) -> f32 {
        acc + tap
    }
    fn finish(&self, acc: f32) -> f32 {
        acc / self.denom
    }
}

/// Mean over `num` of every `den` valid taps: `(sum, taps used, position of
/// the next tap modulo den)`.
struct SampledMean {
    num: u32,
    den: u32,
}
impl WindowReduce for SampledMean {
    type Acc = (f32, u32, u32);
    fn init(&self) -> Self::Acc {
        (0.0, 0, 0)
    }
    #[inline]
    fn fold(&self, (sum, used, phase): Self::Acc, tap: f32) -> Self::Acc {
        let next = if phase + 1 == self.den { 0 } else { phase + 1 };
        if phase < self.num {
            (sum + tap, used + 1, next)
        } else {
            (sum, used, next)
        }
    }
    fn finish(&self, (sum, used, _): Self::Acc) -> f32 {
        if used == 0 {
            0.0
        } else {
            sum / used as f32
        }
    }
}

/// The output columns whose tap `kx` lands inside an input row, `[lo, hi)`,
/// and the input column the first of them reads.
struct TapColumns {
    lo: usize,
    hi: usize,
    first: usize,
}

/// Folds every `sw`-th element of `src` into `acc`, element for element.
/// `S` is `sw` when that is known at compile time, 0 otherwise.
#[inline]
fn fold_row<const S: usize, R: WindowReduce>(r: &R, acc: &mut [R::Acc], src: &[f32], sw: usize) {
    let step = if S == 0 { sw } else { S };
    // Sliced to the last tap read, so the indexed loop below carries no
    // bounds check and vectorises (an iterator `step_by` does not).
    let src = &src[..(acc.len() * step).saturating_sub(step - 1)];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = r.fold(*a, src[i * step]);
    }
}

fn pool2d_impl<R: WindowReduce>(
    input: &Tensor,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
    precision: Precision,
    reducer: R,
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
    // The taps a padded border drops are exactly the ones outside the
    // input, so clipping each tap's row and column range once visits the
    // same taps as testing every tap.
    let (sh, sw) = stride;
    let columns: Vec<TapColumns> = (0..window.1)
        .map(|kx| {
            let lo = pad.1.saturating_sub(kx).div_ceil(sw).min(wo);
            let hi = (w + pad.1).saturating_sub(kx).div_ceil(sw).clamp(lo, wo);
            TapColumns {
                lo,
                hi,
                first: (lo * sw + kx).saturating_sub(pad.1),
            }
        })
        .filter(|c| c.lo < c.hi)
        .collect();
    out.par_chunks_mut(plane_out.max(1))
        .with_min_len(par::min_chunks(plane_out * window.0 * window.1))
        .enumerate()
        .for_each(|(idx, op)| {
            let plane = &data[idx * h * w..(idx + 1) * h * w];
            let mut acc = vec![reducer.init(); wo];
            for (oy, orow) in op.chunks_mut(wo).enumerate() {
                acc.fill(reducer.init());
                let y_end = (oy * sh + window.0).saturating_sub(pad.0).min(h);
                let y_start = (oy * sh).saturating_sub(pad.0).min(y_end);
                // `ky` outer, `kx` next, `ox` innermost: whole input rows
                // fold into the output row, and each output still meets its
                // taps in `(ky, kx)` order.
                for src in plane[y_start * w..y_end * w].chunks(w) {
                    for c in &columns {
                        let (acc, src) = (&mut acc[c.lo..c.hi], &src[c.first..]);
                        // A width stride known at compile time lets the
                        // strided fold vectorise; the zoo pools at 1 and 2.
                        match sw {
                            1 => fold_row::<1, R>(&reducer, acc, src, sw),
                            2 => fold_row::<2, R>(&reducer, acc, src, sw),
                            _ => fold_row::<0, R>(&reducer, acc, src, sw),
                        }
                    }
                }
                for (o, &a) in orow.iter_mut().zip(&acc) {
                    *o = reducer.finish(a);
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
            SampledMean {
                num: num as u32,
                den: den as u32,
            },
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
        assert_eq!(out.data()[out.shape().idx4(0, 0, 0, 0)], 0.25);
    }

    /// The per-window fold the row-wise one replaced: each output element
    /// on its own, its in-bounds taps in `(ky, kx)` order.
    fn per_window<R: WindowReduce>(
        input: &Tensor,
        window: (usize, usize),
        pad: (usize, usize),
        stride: (usize, usize),
        reducer: &R,
    ) -> Vec<f32> {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let out = pool_out_shape(input.shape(), window, pad, stride).unwrap();
        let (_, _, ho, wo) = out.as_nchw().unwrap();
        let mut result = Vec::with_capacity(out.volume());
        for plane in input.data().chunks(h * w).take(n * c) {
            for (oy, ox) in (0..ho).flat_map(|oy| (0..wo).map(move |ox| (oy, ox))) {
                let mut acc = reducer.init();
                for (ky, kx) in (0..window.0).flat_map(|ky| (0..window.1).map(move |kx| (ky, kx))) {
                    let (iy, ix) = (oy * stride.0 + ky, ox * stride.1 + kx);
                    if (pad.0..h + pad.0).contains(&iy) && (pad.1..w + pad.1).contains(&ix) {
                        acc = reducer.fold(acc, plane[(iy - pad.0) * w + ix - pad.1]);
                    }
                }
                result.push(reducer.finish(acc));
            }
        }
        result
    }

    #[test]
    fn row_wise_fold_equals_per_window_fold_by_bits() {
        // Padded, overlapping (stride < window) and non-square geometries,
        // over values that separate fold orders and tie rules: both zeros,
        // both infinities, NaN, and magnitudes whose sums round differently
        // in a different order.
        let specials = [
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-8,
            3.0e7,
        ];
        let cases = [
            ((6, 6), (2, 2), (0, 0), (2, 2)),
            ((7, 5), (3, 3), (1, 1), (2, 2)),
            ((5, 8), (3, 3), (1, 1), (1, 1)),
            ((5, 7), (2, 3), (0, 1), (1, 2)),
            ((4, 9), (3, 2), (1, 0), (3, 1)),
            ((3, 3), (5, 5), (2, 2), (1, 3)),
        ];
        for ((h, w), window, pad, stride) in cases {
            let data: Vec<f32> = (0..2 * 3 * h * w)
                .map(|i| match (i * 7) % 11 {
                    s if s < specials.len() => specials[s],
                    s => (s as f32 - 8.0) * 0.37 + i as f32 * 1e-3,
                })
                .collect();
            let input = Tensor::from_vec(Shape::nchw(2, 3, h, w), data).unwrap();
            let geometry = (window, pad, stride);
            assert_same_bits("max", &input, geometry, Max);
            let denom = (window.0 * window.1) as f32;
            assert_same_bits("mean", &input, geometry, Mean { denom });
            assert_same_bits("sampled", &input, geometry, SampledMean { num: 1, den: 2 });
        }
    }

    type Geometry = ((usize, usize), (usize, usize), (usize, usize));

    fn assert_same_bits<R: WindowReduce>(name: &str, input: &Tensor, geometry: Geometry, r: R) {
        let (window, pad, stride) = geometry;
        let want = per_window(input, window, pad, stride, &r);
        let got = pool2d_impl(input, window, pad, stride, Precision::Fp32, r).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(got.data()),
            bits(&want),
            "{name} {} {geometry:?}",
            input.shape()
        );
    }

    #[test]
    fn max_ignores_nan_and_keeps_the_first_zero() {
        let t = |v: Vec<f32>| Tensor::from_vec(Shape::nchw(1, 1, 1, v.len()), v).unwrap();
        let max = |v: Vec<f32>| {
            let w = v.len();
            max_pool2d(&t(v), (1, w), (0, 0), (1, 1), Precision::Fp32)
                .unwrap()
                .data()[0]
        };
        assert_eq!(max(vec![f32::NAN, 2.0, f32::NAN]), 2.0);
        assert_eq!(max(vec![f32::NAN, f32::NAN]), f32::NEG_INFINITY);
        assert_eq!(max(vec![-0.0, 0.0]).to_bits(), (-0.0f32).to_bits());
        assert_eq!(max(vec![0.0, -0.0]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn zero_window_rejected() {
        let input = ramp(1, 1, 4, 4);
        assert!(max_pool2d(&input, (0, 2), (0, 0), (1, 1), Precision::Fp32).is_err());
    }
}
