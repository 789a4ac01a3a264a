//! Max and average pooling. Average pooling is a *reduction* in the paper's
//! taxonomy and therefore supports reduction sampling.
//!
//! Each output folds its own window's in-bounds taps in `(ky, kx)` order,
//! the walk `reference::pool2d_reference` freezes, one plane per task.
//! Unpadded 2×2 windows at stride 2 (every zoo max-pool) fold in one plain
//! loop over pairs of rows. Other geometries clip padding once per output
//! row and border column and fold interiors in runs of `RUN` side by side.

use crate::error::TensorError;
use crate::f16;
use crate::instrument::Counters;
use crate::knobs::{Precision, ReduceApprox};
use crate::par;
use crate::shape::{pool2d_out_shape, Shape};
use crate::tensor::{check_len, View};
use rayon::prelude::*;

/// What a pooling window's valid taps are folded into, one tap at a time:
/// every output element starts at `init`, takes its in-bounds taps in
/// `(ky, kx)` order through `fold`, and is read out by `finish`. A trait
/// rather than closures so the row loops are monomorphised per reducer.
trait WindowReduce: Sync {
    /// Running state of one output element.
    type Acc: Copy + Send;
    fn init(&self) -> Self::Acc;
    /// `LANES` when windows are vector lanes (`fold_run`, `fold_2x2`): a
    /// NaN sum then stays as it is. There an add whose operands the code
    /// generator swapped kept the later of two NaNs, not the first that the
    /// oracle's scalar add keeps, and their signs can differ.
    fn fold<const LANES: bool>(&self, acc: Self::Acc, tap: f32) -> Self::Acc;
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
    fn fold<const LANES: bool>(&self, acc: f32, tap: f32) -> f32 {
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
    fn fold<const LANES: bool>(&self, acc: f32, tap: f32) -> f32 {
        if LANES && acc.is_nan() {
            acc
        } else {
            acc + tap
        }
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
    fn fold<const LANES: bool>(&self, (sum, used, phase): Self::Acc, tap: f32) -> Self::Acc {
        let next = if phase + 1 == self.den { 0 } else { phase + 1 };
        if phase < self.num && !(LANES && sum.is_nan()) {
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

/// Reads every tap through binary16 before `R` folds it: FP16 pooling of
/// the quantised input, without a quantised copy of it.
struct Fp16Taps<R>(R);
impl<R: WindowReduce> WindowReduce for Fp16Taps<R> {
    type Acc = R::Acc;
    fn init(&self) -> R::Acc {
        self.0.init()
    }
    #[inline]
    fn fold<const LANES: bool>(&self, acc: R::Acc, tap: f32) -> R::Acc {
        self.0.fold::<LANES>(acc, f16::quantize(tap))
    }
    fn finish(&self, acc: R::Acc) -> f32 {
        self.0.finish(acc)
    }
}

/// One output element: its in-bounds taps in `(ky, kx)` order.
#[inline]
fn fold_taps<'a, R: WindowReduce>(r: &R, taps: impl Iterator<Item = &'a f32>) -> f32 {
    r.finish(taps.fold(r.init(), |acc, &tap| r.fold::<false>(acc, tap)))
}

/// How many windows `fold_run` folds side by side.
const RUN: usize = 8;

/// `RUN` whole windows side by side, window `j` reading columns from
/// `x + j·sw` of `n` rows of width `w`. Each keeps its own accumulator and
/// meets its taps in `(ky, kx)` order; the windows are the innermost loop.
#[inline]
fn fold_run<R: WindowReduce>(r: &R, out: &mut [f32], rows: &[f32], x: usize, dims: [usize; 4]) {
    let [w, n, kw, sw] = dims;
    let mut acc = [r.init(); RUN];
    for y in 0..n {
        for kx in 0..kw {
            let src = &rows[y * w + x + kx..][..(RUN - 1) * sw + 1];
            for (j, a) in acc.iter_mut().enumerate() {
                *a = r.fold::<true>(*a, src[j * sw]);
            }
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = r.finish(a);
    }
}

/// A pooling window's size, its symmetric padding and its stride.
type Geometry = [(usize, usize); 3];

fn pool2d_impl<R: WindowReduce>(
    input: View,
    g: Geometry,
    precision: Precision,
    reducer: R,
    out: &mut [f32],
) -> Result<(), TensorError> {
    // FP16 quantises every input once: as the tap is read when each input
    // is read at most once (the windows tile, as in every zoo pool), and
    // ahead of the fold when overlapping windows would read it again.
    let [window, _, stride] = g;
    let overlap = window.0 > stride.0 || window.1 > stride.1;
    match precision {
        Precision::Fp32 => return fold_windows(input, g, reducer, out),
        Precision::Fp16 if overlap => fold_windows(input.to_f16().view(), g, reducer, out)?,
        Precision::Fp16 => fold_windows(input, g, Fp16Taps(reducer), out)?,
    };
    f16::quantize_slice(out);
    Ok(())
}

/// Every output element folds its own window, one plane per task. The
/// taps a padded border drops are exactly the ones outside the input, so
/// clipping a window's row range (once per output row) and column range
/// (once per border column) visits the same taps as testing every tap.
fn fold_windows<R: WindowReduce>(
    input: View,
    g: Geometry,
    r: R,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let [window, pad, stride] = g;
    let out_shape = pool2d_out_shape(input.shape(), window, pad, stride)?;
    check_len(out_shape, out.len())?;
    let (_, _, h, w) = input.shape().as_nchw()?;
    let (_, _, ho, wo) = out_shape.as_nchw()?;
    let ((kh, kw), (sh, sw)) = (window, stride);
    let data = input.data();
    let planes = out
        .par_chunks_mut((ho * wo).max(1))
        .with_min_len(par::min_chunks(ho * wo * kh * kw));
    if g == [(2, 2), (0, 0), (2, 2)] {
        planes
            .zip(data.par_chunks(h * w))
            .for_each(|(out, plane)| fold_2x2(&r, plane, w, out));
        return Ok(());
    }
    // Output columns `[lo, hi)` need no clipping: their windows start at or
    // after the left padding and end at or before the right one.
    let lo = pad.1.div_ceil(sw).min(wo);
    let hi = ((w + pad.1 + sw).saturating_sub(kw) / sw).clamp(lo, wo);
    let (x0, m) = ((lo * sw).saturating_sub(pad.1), hi - lo);
    planes.enumerate().for_each(move |(idx, out)| {
        let plane = &data[idx * h * w..(idx + 1) * h * w];
        for (oy, orow) in out.chunks_mut(wo).enumerate() {
            let y1 = (oy * sh + kh).saturating_sub(pad.0).min(h);
            let y0 = (oy * sh).saturating_sub(pad.0).min(y1);
            let (rows, n) = (&plane[y0 * w..], y1 - y0);
            let done = if m >= RUN {
                // Runs of RUN windows; the last overlaps its neighbour.
                for i in (0..m - RUN).step_by(RUN).chain([m - RUN]) {
                    let run = &mut orow[lo + i..][..RUN];
                    fold_run(&r, run, rows, x0 + i * sw, [w, n, kw, sw]);
                }
                hi
            } else {
                lo
            };
            for ox in (0..lo).chain(done..wo) {
                let x1 = (ox * sw + kw).saturating_sub(pad.1).min(w);
                let x = (ox * sw).saturating_sub(pad.1).min(x1);
                orow[ox] = fold_taps(&r, (0..n).flat_map(|y| &rows[y * w..][x..x1]));
            }
        }
    });
    Ok(())
}

/// One plane of unpadded 2×2 windows at stride 2: output row `oy` takes
/// input rows `2·oy` and `2·oy + 1` and nothing else per row, so the
/// windows vectorise (3× faster than the same fold in the per-row loop).
fn fold_2x2<R: WindowReduce>(r: &R, plane: &[f32], w: usize, out: &mut [f32]) {
    for (orow, rows) in out.chunks_exact_mut(w / 2).zip(plane.chunks_exact(2 * w)) {
        let (r0, r1) = rows.split_at(w);
        for ((o, a), b) in orow
            .iter_mut()
            .zip(r0.chunks_exact(2))
            .zip(r1.chunks_exact(2))
        {
            let fold = |acc, tap| r.fold::<true>(acc, tap);
            *o = r.finish(fold(fold(fold(fold(r.init(), a[0]), a[1]), b[0]), b[1]));
        }
    }
}

/// Taps per input row of a window, summed over one output row's `wo`
/// windows of width `kw` at stride `sw` with left padding `pad`.
fn row_taps(w: usize, wo: usize, kw: usize, sw: usize, pad: usize) -> usize {
    (0..wo)
        .map(|ox| {
            let x1 = (ox * sw + kw).saturating_sub(pad).min(w);
            x1 - (ox * sw).saturating_sub(pad).min(x1)
        })
        .sum()
}

/// The work [`pool2d_into`] returns for an input of shape `input` and this
/// geometry and precision, computed from shapes alone (the taps read do not
/// depend on the pooling kind).
pub fn pool2d_work(
    input: Shape,
    geometry: [(usize, usize); 3],
    precision: Precision,
) -> Result<Counters, TensorError> {
    let [window, pad, stride] = geometry;
    let (n, c, h, w) = input.as_nchw()?;
    let (_, _, ho, wo) = pool2d_out_shape(input, window, pad, stride)?.as_nchw()?;
    let ((kh, kw), (sh, sw)) = (window, stride);
    let row_taps = row_taps(w, wo, kw, sw, pad.1);
    let per_plane: usize = (0..ho)
        .map(|oy| {
            let y1 = (oy * sh + kh).saturating_sub(pad.0).min(h);
            (y1 - (oy * sh).saturating_sub(pad.0).min(y1)) * row_taps
        })
        .sum();
    let reads = (n * c * per_plane) as u64;
    let mut work = Counters {
        pool_rows: (n * c * ho) as u64,
        pool_reads: reads,
        ..Counters::default()
    };
    if precision == Precision::Fp16 {
        let overlap = window.0 > stride.0 || window.1 > stride.1;
        let rounded = if overlap {
            input.volume() as u64
        } else {
            reads
        };
        work.ew_fp16 = rounded + (n * c * ho * wo) as u64;
    }
    Ok(work)
}

/// Which pooling [`pool2d_into`] (and [`super::reference`]'s oracle)
/// computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pooling {
    /// Largest valid tap.
    Max,
    /// Mean of the valid taps, or under `ReduceApprox::Sampling { num, den
    /// }` of the `num` of every `den` window elements visited, mirroring the
    /// paper's reduction sampling (the result is rescaled implicitly by
    /// averaging over fewer elements).
    Avg(ReduceApprox),
}

/// Max or average pooling over `window` with `stride` and symmetric `pad`
/// into `out`, which must hold the pooled shape; `geometry` is `[window,
/// pad, stride]`. Returns the work it did.
pub fn pool2d_into(
    input: View,
    geometry: [(usize, usize); 3],
    pool: Pooling,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    match pool {
        Pooling::Max => pool2d_impl(input, geometry, precision, Max, out)?,
        Pooling::Avg(ReduceApprox::Exact) => {
            let denom = (geometry[0].0 * geometry[0].1) as f32;
            pool2d_impl(input, geometry, precision, Mean { denom }, out)?
        }
        Pooling::Avg(approx @ ReduceApprox::Sampling { num, den }) => {
            approx.validate()?;
            let reducer = SampledMean {
                num: num as u32,
                den: den as u32,
            };
            pool2d_impl(input, geometry, precision, reducer, out)?
        }
    }
    // Every reducer folds the taps the geometry clips, so the work is
    // counted once per call, outside the folds (a counter in the row loop
    // cost 10–20 % of a pooling call).
    pool2d_work(input.shape(), geometry, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference::pool2d_reference;
    use crate::tensor::Tensor;

    fn pooled(x: &Tensor, g: Geometry, pool: Pooling, p: Precision) -> Result<Tensor, TensorError> {
        let shape = pool2d_out_shape(x.shape(), g[0], g[1], g[2])?;
        Tensor::written_by(shape, |out| {
            pool2d_into(x.view(), g, pool, p, out).map(drop)
        })
    }

    fn max_pool2d(
        input: &Tensor,
        window: (usize, usize),
        pad: (usize, usize),
        stride: (usize, usize),
        precision: Precision,
    ) -> Result<Tensor, TensorError> {
        pooled(input, [window, pad, stride], Pooling::Max, precision)
    }

    fn avg_pool2d(
        input: &Tensor,
        window: (usize, usize),
        pad: (usize, usize),
        stride: (usize, usize),
        approx: ReduceApprox,
        precision: Precision,
    ) -> Result<Tensor, TensorError> {
        pooled(
            input,
            [window, pad, stride],
            Pooling::Avg(approx),
            precision,
        )
    }

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

    #[test]
    fn window_fold_equals_reference_by_bits() {
        // Padded, overlapping (stride < window), non-square, odd (the last
        // row and column under 2×2/2 in no window), 1-wide and
        // window-larger-than-input geometries, over values that separate
        // fold orders and tie rules: both zeros, both infinities, NaN, and
        // magnitudes whose sums round differently in a different order.
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
            ((7, 5), (2, 2), (0, 0), (2, 2)),
            ((7, 5), (3, 3), (1, 1), (2, 2)),
            ((5, 8), (3, 3), (1, 1), (1, 1)),
            ((5, 7), (2, 3), (0, 1), (1, 2)),
            ((4, 9), (3, 2), (1, 0), (3, 1)),
            ((3, 3), (5, 5), (2, 2), (1, 3)),
            ((5, 1), (2, 1), (0, 0), (2, 1)),
            ((1, 6), (1, 2), (0, 1), (1, 2)),
            ((6, 1), (3, 3), (1, 1), (1, 1)),
        ];
        let pools = [Pooling::Max, Pooling::Avg(ReduceApprox::Exact)]
            .into_iter()
            .chain(ReduceApprox::ALL_SAMPLING.map(Pooling::Avg));
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for ((h, w), window, pad, stride) in cases {
            let data: Vec<f32> = (0..2 * 3 * h * w)
                .map(|i| match (i * 7) % 11 {
                    s if s < specials.len() => specials[s],
                    s => (s as f32 - 8.0) * 0.37 + i as f32 * 1e-3,
                })
                .collect();
            let input = Tensor::from_vec(Shape::nchw(2, 3, h, w), data).unwrap();
            for (pooling, precision) in pools
                .clone()
                .flat_map(|p| [(p, Precision::Fp32), (p, Precision::Fp16)])
            {
                let got = match pooling {
                    Pooling::Max => max_pool2d(&input, window, pad, stride, precision),
                    Pooling::Avg(a) => avg_pool2d(&input, window, pad, stride, a, precision),
                };
                let want = pool2d_reference(&input, pooling, window, pad, stride, precision);
                assert_eq!(
                    bits(got.unwrap()),
                    bits(want.unwrap()),
                    "{pooling:?} {precision:?} {} {:?}",
                    input.shape(),
                    (window, pad, stride)
                );
            }
        }
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
