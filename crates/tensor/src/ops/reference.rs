//! Naive reference kernels — the oracle for the differential test harness.
//!
//! These are the original straightforward implementations (triple-loop
//! matmul, direct seven-loop convolution, per-window pooling), kept
//! verbatim when the optimised kernels replaced them on the hot path. The
//! optimised kernels are required to match these **bit-for-bit** for
//! exact-FP32 and LUT-multiplier configurations, and pooling for every
//! reducer and precision (see `tests/differential.rs`), which only works
//! because both sides accumulate each output element in the same order; do
//! not "clean up" loop orders here without updating that contract.

use crate::error::TensorError;
use crate::knobs::{ConvApprox, MulApprox, PerforationDim, Precision, ReduceApprox};
use crate::lut;
use crate::ops::conv::Conv2dParams;
use crate::shape::{conv2d_out_shape, pool2d_out_shape, Shape};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Naive `C = A × B` (`A: [M,K]`, `B: [K,N]`): k-outer accumulation over
/// rows of `B`, one f32 accumulator per output, increasing-`k` order.
pub fn matmul_reference(
    a: &Tensor,
    b: &Tensor,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    let (m, ka) = a.shape().as_mat()?;
    let (kb, n) = b.shape().as_mat()?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("inner dims {ka} vs {kb}"),
        });
    }

    let (qa, qb);
    let (a, b) = match precision {
        Precision::Fp32 => (a, b),
        Precision::Fp16 => {
            qa = a.to_f16();
            qb = b.to_f16();
            (&qa, &qb)
        }
    };

    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(row, orow)| {
        let arow = &ad[row * ka..(row + 1) * ka];
        for (k, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[k * n..(k + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
            }
        }
    });

    let mut t = Tensor::from_vec(Shape::mat(m, n), out)?;
    if precision == Precision::Fp16 {
        t.quantize_f16();
    }
    Ok(t)
}

/// Naive oracle for the fused dense layer (`matmul_ex`): matmul, optional
/// fp16 quantisation, per-column bias, fp16 again — scalar loops for the
/// LUT-multiplier path.
pub fn matmul_ex_reference(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
) -> Result<Tensor, TensorError> {
    mul.validate()?;
    let (m, ka) = a.shape().as_mat()?;
    let (kb, n) = b.shape().as_mat()?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("inner dims {ka} vs {kb}"),
        });
    }
    if let Some(bt) = bias {
        if bt.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "bias_add",
                detail: format!("bias len {} != cols {n}", bt.len()),
            });
        }
    }
    let bits = match mul {
        MulApprox::Exact => {
            let out = matmul_reference(a, b, precision)?;
            return match bias {
                Some(bt) => bias_add_rows(&out, bt, precision),
                None => Ok(out),
            };
        }
        MulApprox::Lut { bits } => bits,
    };

    let (qa, qb);
    let (a, b) = match precision {
        Precision::Fp32 => (a, b),
        Precision::Fp16 => {
            qa = a.to_f16();
            qb = b.to_f16();
            (&qa, &qb)
        }
    };
    let fp16 = precision == Precision::Fp16;
    let table = lut::lut_for(bits);
    let aq = lut::quantize_symmetric(a.data(), bits);
    let bq = lut::quantize_symmetric(b.data(), bits);
    let dq = aq.scale * bq.scale;
    let bd = bias.map(|t| t.data());

    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0i64;
            for kk in 0..ka {
                s += i64::from(table.mul(aq.q[i * ka + kk] as i16, bq.q[kk * n + j] as i16));
            }
            let mut v = s as f32 * dq;
            if fp16 {
                v = crate::f16::quantize(v);
            }
            if let Some(bd) = bd {
                v += bd[j];
                if fp16 {
                    v = crate::f16::quantize(v);
                }
            }
            out[i * n + j] = v;
        }
    }
    Tensor::from_vec(Shape::mat(m, n), out)
}

/// Adds a bias row-vector `[N]` to every row of `x: [M,N]` — the unfused
/// dense layer's second step. The caller has checked the bias length.
fn bias_add_rows(x: &Tensor, bias: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    let (m, n) = x.shape().as_mat()?;
    let bd = bias.data();
    let mut out = x.data().to_vec();
    for row in 0..m {
        for col in 0..n {
            out[row * n + col] += bd[col];
        }
    }
    let mut t = Tensor::from_vec(x.shape(), out)?;
    if precision == Precision::Fp16 {
        t.quantize_f16();
    }
    Ok(t)
}

/// Naive direct 2-D convolution supporting every [`Conv2dParams`] setting
/// (groups, filter sampling, perforation, FP16, LUT multipliers).
///
/// This is the original hand-written kernel, parallelised over
/// `(batch, output-channel)` planes; each output accumulates its window in
/// flattened `(channel, ky, kx)` order.
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    params.approx.validate()?;
    params.mul.validate()?;
    let (_, c, _, _) = input.shape().as_nchw()?;
    let (k, wc, _, _) = weight.shape().as_nchw()?;
    let groups = params.groups.max(1);
    if c % groups != 0 || k % groups != 0 || wc != c / groups {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!(
                "groups={groups} incompatible with input channels {c}, weight [{k},{wc},..]"
            ),
        });
    }
    let pseudo_input = {
        let (n, _, h, w) = input.shape().as_nchw()?;
        Shape::nchw(n, wc, h, w)
    };
    let out_shape = conv2d_out_shape(pseudo_input, weight.shape(), params.pad, params.stride)?;
    if let Some(b) = bias {
        if b.len() != k {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                detail: format!("bias length {} != output channels {k}", b.len()),
            });
        }
    }

    let (qin, qw, qb);
    let (input, weight, bias) = match params.precision {
        Precision::Fp32 => (input, weight, bias),
        Precision::Fp16 => {
            qin = input.to_f16();
            qw = weight.to_f16();
            qb = bias.map(|b| b.to_f16());
            (&qin, &qw, qb.as_ref())
        }
    };

    // LUT path: whole-tensor symmetric quantisation of both operands.
    let lut_ctx = match params.mul {
        MulApprox::Exact => None,
        MulApprox::Lut { bits } => {
            let qi = lut::quantize_symmetric(input.data(), bits);
            let qw = lut::quantize_symmetric(weight.data(), bits);
            let dq = qi.scale * qw.scale;
            Some((lut::lut_for(bits), qi, qw, dq))
        }
    };

    let mut out = compute_direct(input, weight, bias, params, out_shape, lut_ctx.as_ref())?;
    if params.precision == Precision::Fp16 {
        out.quantize_f16();
    }
    Ok(out)
}

type LutCtx<'a> = (
    &'a lut::LutTable,
    lut::QuantizedTensor,
    lut::QuantizedTensor,
    f32,
);

fn compute_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out_shape: Shape,
    lut_ctx: Option<&LutCtx>,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (k, cpg, r, s) = weight.shape().as_nchw()?; // cpg = channels/group
    let (_, _, ho, wo) = out_shape.as_nchw()?;
    let (ph, pw) = params.pad;
    let (sh, sw) = params.stride;
    let groups = params.groups.max(1);
    let kpg = k / groups; // output channels per group

    // Filter-sampling mask: kept[(c,r,s) flattened] with compensation scale.
    let (mask, scale) = match params.approx {
        ConvApprox::FilterSampling { k: kk, offset } => {
            let total = cpg * r * s;
            let mask: Vec<bool> = (0..total).map(|i| i % kk != offset).collect();
            let kept = mask.iter().filter(|&&m| m).count().max(1);
            (Some(mask), total as f32 / kept as f32)
        }
        _ => (None, 1.0),
    };

    let in_data = input.data();
    let w_data = weight.data();
    let plane = ho * wo;
    let mut out = vec![0.0f32; n * k * plane];

    out.par_chunks_mut(plane).enumerate().for_each(|(idx, op)| {
        let b = idx / k; // batch index
        let oc = idx % k; // output channel
        let g = oc / kpg; // channel group
        let ic_start = g * cpg;
        let w_base = oc * cpg * r * s;
        let bias_v = bias.map_or(0.0, |bt| bt.data()[oc]);

        let skip = |coord: usize| -> bool {
            match params.approx {
                ConvApprox::Perforation {
                    dim: _,
                    k: kk,
                    offset,
                } => coord % kk == offset,
                _ => false,
            }
        };
        let (perf_rows, perf_cols) = match params.approx {
            ConvApprox::Perforation { dim, .. } => {
                (dim == PerforationDim::Row, dim == PerforationDim::Col)
            }
            _ => (false, false),
        };

        for oy in 0..ho {
            if perf_rows && skip(oy) {
                continue; // interpolated later
            }
            for ox in 0..wo {
                if perf_cols && skip(ox) {
                    continue;
                }
                let iy0 = (oy * sh) as isize - ph as isize;
                let ix0 = (ox * sw) as isize - pw as isize;
                // One accumulation walk over the (channel, ky, kx) window,
                // exact f32 or table-served integer depending on `mul`.
                let acc_val: f32 = if let Some((table, qi, qw, dq)) = lut_ctx {
                    let mut acc = 0i64;
                    for icw in 0..cpg {
                        let ic = ic_start + icw;
                        let in_base = (b * c + ic) * h * w;
                        let wk_base = w_base + icw * r * s;
                        for ky in 0..r {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let row_base = in_base + iy as usize * w;
                            let wrow = wk_base + ky * s;
                            for kx in 0..s {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                if let Some(m) = &mask {
                                    if !m[icw * r * s + ky * s + kx] {
                                        continue;
                                    }
                                }
                                acc += i64::from(table.mul(
                                    qi.q[row_base + ix as usize] as i16,
                                    qw.q[wrow + kx] as i16,
                                ));
                            }
                        }
                    }
                    acc as f32 * dq
                } else {
                    let mut acc = 0.0f32;
                    for icw in 0..cpg {
                        let ic = ic_start + icw;
                        let in_base = (b * c + ic) * h * w;
                        let wk_base = w_base + icw * r * s;
                        for ky in 0..r {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let row_base = in_base + iy as usize * w;
                            let wrow = wk_base + ky * s;
                            for kx in 0..s {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                if let Some(m) = &mask {
                                    // Mask is indexed by the (c,r,s)-flattened
                                    // filter element, shared across all output
                                    // channels.
                                    if !m[icw * r * s + ky * s + kx] {
                                        continue;
                                    }
                                }
                                acc =
                                    in_data[row_base + ix as usize].mul_add(w_data[wrow + kx], acc);
                            }
                        }
                    }
                    acc
                };
                op[oy * wo + ox] = acc_val * scale + bias_v;
            }
        }

        // Interpolation pass for perforated outputs: nearest-neighbour
        // averaging of computed elements (Figurnov et al.).
        if perf_rows {
            for oy in 0..ho {
                if !skip(oy) {
                    continue;
                }
                let above = (0..oy).rev().find(|&y| !skip(y));
                let below = (oy + 1..ho).find(|&y| !skip(y));
                for ox in 0..wo {
                    op[oy * wo + ox] = match (above, below) {
                        (Some(a), Some(bl)) => 0.5 * (op[a * wo + ox] + op[bl * wo + ox]),
                        (Some(a), None) => op[a * wo + ox],
                        (None, Some(bl)) => op[bl * wo + ox],
                        (None, None) => bias_v,
                    };
                }
            }
        } else if perf_cols {
            for ox in 0..wo {
                if !skip(ox) {
                    continue;
                }
                let left = (0..ox).rev().find(|&x| !skip(x));
                let right = (ox + 1..wo).find(|&x| !skip(x));
                for oy in 0..ho {
                    op[oy * wo + ox] = match (left, right) {
                        (Some(l), Some(rr)) => 0.5 * (op[oy * wo + l] + op[oy * wo + rr]),
                        (Some(l), None) => op[oy * wo + l],
                        (None, Some(rr)) => op[oy * wo + rr],
                        (None, None) => bias_v,
                    };
                }
            }
        }
    });

    Tensor::from_vec(out_shape, out)
}

pub use super::pool::Pooling;

/// Naive pooling: each output element on its own, its in-bounds taps
/// gathered in `(ky, kx)` order by testing every tap against the padding,
/// then reduced. FP16 reads a quantised copy of the input and quantises the
/// result.
///
/// *Max* is the select `tap > acc ? tap : acc` from `−∞` (a NaN tap never
/// wins; of `−0` and `+0` the first stays). *Mean* sums from `−0` and
/// divides by the full window size. *Sampled mean* sums from `+0` the taps
/// whose position among the valid ones is `< num (mod den)` and divides by
/// their count (0 when none).
pub fn pool2d_reference(
    input: &Tensor,
    pooling: Pooling,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
    precision: Precision,
) -> Result<Tensor, TensorError> {
    if let Pooling::Avg(approx) = pooling {
        approx.validate()?;
    }
    let out_shape = pool2d_out_shape(input.shape(), window, pad, stride)?;
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (_, _, ho, wo) = out_shape.as_nchw()?;
    let input = match precision {
        Precision::Fp32 => input.clone(),
        Precision::Fp16 => input.to_f16(),
    };
    let mut out = Vec::with_capacity(out_shape.volume());
    for plane in input.data().chunks(h * w).take(n * c) {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut taps = Vec::new();
                for ky in 0..window.0 {
                    for kx in 0..window.1 {
                        let (iy, ix) = (oy * stride.0 + ky, ox * stride.1 + kx);
                        if (pad.0..h + pad.0).contains(&iy) && (pad.1..w + pad.1).contains(&ix) {
                            taps.push(plane[(iy - pad.0) * w + ix - pad.1]);
                        }
                    }
                }
                out.push(match pooling {
                    Pooling::Max => {
                        taps.iter()
                            .fold(f32::NEG_INFINITY, |acc, &t| if t > acc { t } else { acc })
                    }
                    Pooling::Avg(ReduceApprox::Exact) => {
                        taps.iter().fold(-0.0f32, |acc, &t| acc + t) / (window.0 * window.1) as f32
                    }
                    Pooling::Avg(ReduceApprox::Sampling { num, den }) => {
                        let kept: Vec<f32> = taps
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % den < num)
                            .map(|(_, &t)| t)
                            .collect();
                        if kept.is_empty() {
                            0.0
                        } else {
                            kept.iter().fold(0.0f32, |acc, &t| acc + t) / kept.len() as f32
                        }
                    }
                });
            }
        }
    }
    let mut t = Tensor::from_vec(out_shape, out)?;
    if precision == Precision::Fp16 {
        t.quantize_f16();
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matmul_known_product() {
        let a = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::mat(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul_reference(&a, &b, Precision::Fp32).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn reference_conv_identity() {
        let input =
            Tensor::from_vec(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect()).unwrap();
        let weight = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![1.0]).unwrap();
        let out = conv2d_reference(&input, &weight, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn reference_lut_close_to_exact_at_8_bits() {
        let input =
            Tensor::from_vec(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect()).unwrap();
        let weight = Tensor::full(Shape::nchw(1, 1, 3, 3), 0.5);
        let exact = conv2d_reference(&input, &weight, None, Conv2dParams::default()).unwrap();
        let lut = conv2d_reference(
            &input,
            &weight,
            None,
            Conv2dParams {
                mul: MulApprox::Lut { bits: 8 },
                ..Default::default()
            },
        )
        .unwrap();
        // Mitchell at 8 bits: few-percent relative error on positives.
        for (e, l) in exact.data().iter().zip(lut.data()) {
            assert!((e - l).abs() <= 0.12 * e.abs().max(1.0), "{e} vs {l}");
        }
    }
}
