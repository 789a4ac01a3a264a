//! im2col lowering: convolution as patch-matrix GEMM — for the exact
//! kernel **and every approximation**.
//!
//! Each (image, group) pair builds a patch matrix `B[F, P]` whose rows are
//! flattened filter elements and whose columns are output positions, then
//! multiplies it by the group's weight matrix `A[K/g, F]` on the tiled GEMM
//! core ([`super::gemm`]). The approximations *prune the lowering itself*,
//! so skipped work is genuinely never computed:
//!
//! * **Filter sampling** drops the skipped filter elements' *rows* from
//!   both `A` and `B` (the GEMM inner dimension shrinks by `1/k`).
//! * **Perforation** drops the skipped output positions' *columns* from
//!   `B` (the GEMM output shrinks by `1/k`); the missing outputs are
//!   interpolated from computed neighbours after the GEMM, exactly like
//!   the direct kernel.
//! * **LUT multipliers** build the patch matrix over `i16`-quantised
//!   operands and run the integer table-served GEMM.
//!
//! The bias/scale/FP16/ReLU epilogue is fused into the GEMM's output
//! write ([`super::gemm::Epilogue`]), so no unbiased intermediate is
//! materialised. Results are bit-identical to the direct reference kernel
//! ([`super::reference`]) for every configuration: both sides accumulate
//! each output in increasing flattened `(channel, ky, kx)` order, and
//! padding contributes exact zeros.

use crate::error::TensorError;
use crate::f16;
use crate::knobs::{ConvApprox, MulApprox, PerforationDim, Precision};
use crate::lut;
use crate::ops::activation::UnaryOp;
use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{self, Epilogue};
use crate::shape::{conv2d_out_shape, Shape};
use crate::tensor::Tensor;

/// Element type a patch matrix can be built over (f32 exact path, i16
/// LUT-quantised path). `ZERO` is the padding value.
trait PatchElem: Copy + Send + Sync {
    const ZERO: Self;
}
impl PatchElem for f32 {
    const ZERO: Self = 0.0;
}
impl PatchElem for i16 {
    const ZERO: Self = 0;
}

/// Resolved geometry and pruning decisions for one lowered convolution.
struct LowerPlan<'a> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    cpg: usize,
    r: usize,
    s: usize,
    ho: usize,
    wo: usize,
    pad: (usize, usize),
    stride: (usize, usize),
    groups: usize,
    kpg: usize,
    /// Kept flattened filter indices, increasing (= accumulation order).
    kept: &'a [usize],
    /// Filter-sampling compensation factor.
    scale: f32,
    /// Computed output rows (all rows unless row-perforated).
    oys: &'a [usize],
    /// Computed output columns (all columns unless column-perforated).
    oxs: &'a [usize],
    /// Perforation `(dim, k, offset)` if active.
    perf: Option<(PerforationDim, usize, usize)>,
    fp16: bool,
    fuse_relu: bool,
}

/// Packs one group's kept weight elements into a dense `[kpg, kept]` GEMM
/// A matrix.
fn pack_weights<T: PatchElem>(
    w_data: &[T],
    g: usize,
    kpg: usize,
    total: usize,
    kept: &[usize],
) -> Vec<T> {
    let mut a = Vec::with_capacity(kpg * kept.len());
    for di in 0..kpg {
        let base = (g * kpg + di) * total;
        for &idx in kept {
            a.push(w_data[base + idx]);
        }
    }
    a
}

/// Fills the row- and column-pruned patch matrix `B[kept, oys×oxs]` for
/// one (image, group): `B[kr, p]` is the input value under filter element
/// `kept[kr]` at output position `p`. Positions where the window pads are
/// not written: which ones pad depends on the geometry alone, so `bmat` is
/// zeroed once by the caller and reused for every image and group.
///
/// With unit width-stride and every output column computed (every zoo conv,
/// filter sampling, row perforation), the taps of one (filter element,
/// output row) are one contiguous run of an input row and move as a single
/// `copy_from_slice`; only strided or column-perforated lowering gathers
/// element by element.
fn pack_patches<T: PatchElem>(plan: &LowerPlan, in_data: &[T], b: usize, g: usize, bmat: &mut [T]) {
    let (h, w) = (plan.h, plan.w);
    let (r, s) = (plan.r, plan.s);
    let (ph, pw) = plan.pad;
    let (sh, sw) = plan.stride;
    let nx = plan.oxs.len();
    let n_pos = plan.oys.len() * nx;
    if n_pos == 0 {
        return;
    }
    let contiguous = sw == 1 && nx == plan.wo;
    let ic_start = g * plan.cpg;
    for (brow, &idx) in bmat.chunks_mut(n_pos).zip(plan.kept) {
        let icw = idx / (r * s);
        let rem = idx % (r * s);
        let ky = rem / s;
        let kx = rem % s;
        let in_base = (b * plan.c + ic_start + icw) * h * w;
        // Output columns `[x0, x1)` whose tap `ox + kx − pw` is inside the
        // input row (unit stride).
        let x0 = pw.saturating_sub(kx);
        let x1 = (w + pw).saturating_sub(kx).min(plan.wo);
        for (dst, &oy) in brow.chunks_mut(nx).zip(plan.oys) {
            let iy = oy * sh + ky;
            if iy < ph || iy - ph >= h {
                continue; // whole row pads
            }
            let src = &in_data[in_base + (iy - ph) * w..][..w];
            if contiguous {
                if x0 < x1 {
                    dst[x0..x1].copy_from_slice(&src[x0 + kx - pw..x1 + kx - pw]);
                }
            } else {
                for (d, &ox) in dst.iter_mut().zip(plan.oxs) {
                    let ix = ox * sw + kx;
                    if ix >= pw && ix - pw < w {
                        *d = src[ix - pw];
                    }
                }
            }
        }
    }
}

/// Interpolation pass for perforated outputs: nearest-neighbour averaging
/// of computed elements (Figurnov et al.) — expression-identical to the
/// direct reference kernel.
fn interpolate(
    op: &mut [f32],
    ho: usize,
    wo: usize,
    dim: PerforationDim,
    kk: usize,
    offset: usize,
    bias_v: f32,
) {
    let skip = |coord: usize| coord % kk == offset;
    match dim {
        PerforationDim::Row => {
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
        }
        PerforationDim::Col => {
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
    }
}

/// Drives the pack → GEMM → epilogue/scatter pipeline over all
/// (group, image) pairs. `gemm_call(m, k, n, a, b, dst, epi)` runs the
/// element-type-appropriate GEMM.
#[allow(clippy::type_complexity)]
fn run_lowered<T: PatchElem>(
    plan: &LowerPlan,
    in_data: &[T],
    w_data: &[T],
    bias_data: Option<&[f32]>,
    out: &mut [f32],
    gemm_call: &dyn Fn(usize, usize, usize, &[T], &[T], &mut [f32], &Epilogue),
) {
    let total = plan.cpg * plan.r * plan.s;
    let n_pos = plan.oys.len() * plan.oxs.len();
    let kk2 = plan.kept.len();
    let plane = plan.ho * plan.wo;
    let mut b_pack = vec![T::ZERO; kk2 * n_pos];
    // Perforation computes only the kept columns into this scratch plane.
    let mut cbuf = vec![0.0f32; plan.perf.map_or(0, |_| plan.kpg * n_pos)];
    for g in 0..plan.groups {
        let a_pack = pack_weights(w_data, g, plan.kpg, total, plan.kept);
        let bias_slice = bias_data.map(|bd| &bd[g * plan.kpg..(g + 1) * plan.kpg]);
        for bimg in 0..plan.n {
            pack_patches(plan, in_data, bimg, g, &mut b_pack);
            let out_base = (bimg * plan.k + g * plan.kpg) * plane;
            match plan.perf {
                None => {
                    // Columns cover the full plane in row-major order, so
                    // the GEMM writes the group's output planes directly,
                    // epilogue fused.
                    let epi = Epilogue::Conv {
                        scale: plan.scale,
                        bias: bias_slice,
                        fp16: plan.fp16,
                        relu: plan.fuse_relu,
                    };
                    gemm_call(
                        plan.kpg,
                        kk2,
                        n_pos,
                        &a_pack,
                        &b_pack,
                        &mut out[out_base..out_base + plan.kpg * plane],
                        &epi,
                    );
                }
                Some((dim, pk, poff)) => {
                    // Compute only the kept columns, then scatter and
                    // interpolate. Quantisation/ReLU must run *after*
                    // interpolation (matching the reference kernel), so the
                    // GEMM epilogue applies only scale and bias.
                    let epi = Epilogue::Conv {
                        scale: plan.scale,
                        bias: bias_slice,
                        fp16: false,
                        relu: false,
                    };
                    gemm_call(plan.kpg, kk2, n_pos, &a_pack, &b_pack, &mut cbuf, &epi);
                    for di in 0..plan.kpg {
                        let op = &mut out[out_base + di * plane..out_base + (di + 1) * plane];
                        let crow = &cbuf[di * n_pos..(di + 1) * n_pos];
                        let mut p = 0;
                        for &oy in plan.oys {
                            for &ox in plan.oxs {
                                op[oy * plan.wo + ox] = crow[p];
                                p += 1;
                            }
                        }
                        let bias_v = bias_slice.map_or(0.0, |bs| bs[di]);
                        interpolate(op, plan.ho, plan.wo, dim, pk, poff, bias_v);
                        if plan.fp16 {
                            for v in op.iter_mut() {
                                *v = f16::quantize(*v);
                            }
                        }
                        if plan.fuse_relu {
                            for v in op.iter_mut() {
                                *v = UnaryOp::Relu.apply(*v);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lowers a convolution (any [`Conv2dParams`] setting, optionally with a
/// fused trailing ReLU) through im2col onto the tiled GEMM.
///
/// This is the kernel behind [`super::conv2d`] and
/// [`super::conv::conv2d_fused_relu`]; results are bit-identical to the
/// direct reference kernel for every configuration.
pub fn conv2d_lowered(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    fuse_relu: bool,
) -> Result<Tensor, TensorError> {
    conv2d_lowered_impl(input, weight, bias, params, fuse_relu, false)
}

/// ABFT twin of [`conv2d_lowered`]: every lowered GEMM runs with a raw
/// epilogue, its Huang–Abraham checksums are verified against the packed
/// panels ([`super::abft`]), and only then is the epilogue applied — so
/// clean outputs stay bit-identical while corrupted accumulators surface
/// as [`TensorError::CorruptionDetected`].
pub(crate) fn conv2d_lowered_abft(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    fuse_relu: bool,
) -> Result<Tensor, TensorError> {
    conv2d_lowered_impl(input, weight, bias, params, fuse_relu, true)
}

fn conv2d_lowered_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    fuse_relu: bool,
    verify: bool,
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
    // Shape algebra is the same as a dense conv with C/groups input
    // channels per filter.
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

    // FP16 semantics: quantise operands, accumulate in f32, quantise result.
    let (qin, qwt, qb);
    let (input, weight, bias) = match params.precision {
        Precision::Fp32 => (input, weight, bias),
        Precision::Fp16 => {
            qin = input.to_f16();
            qwt = weight.to_f16();
            qb = bias.map(|b| b.to_f16());
            (&qin, &qwt, qb.as_ref())
        }
    };

    let (n, _, h, w) = input.shape().as_nchw()?;
    let (_, cpg, r, s) = weight.shape().as_nchw()?;
    let (_, _, ho, wo) = out_shape.as_nchw()?;
    let total = cpg * r * s;

    // Row pruning (filter sampling): kept filter indices + compensation.
    let (kept, scale): (Vec<usize>, f32) = match params.approx {
        ConvApprox::FilterSampling { k: kk, offset } => {
            let kept: Vec<usize> = (0..total).filter(|i| i % kk != offset).collect();
            let cnt = kept.len().max(1);
            (kept, total as f32 / cnt as f32)
        }
        _ => ((0..total).collect(), 1.0),
    };
    // Column pruning (perforation): computed output positions.
    let perf = match params.approx {
        ConvApprox::Perforation { dim, k, offset } => Some((dim, k, offset)),
        _ => None,
    };
    let (oys, oxs): (Vec<usize>, Vec<usize>) = match perf {
        Some((PerforationDim::Row, pk, off)) => (
            (0..ho).filter(|&y| y % pk != off).collect(),
            (0..wo).collect(),
        ),
        Some((PerforationDim::Col, pk, off)) => (
            (0..ho).collect(),
            (0..wo).filter(|&x| x % pk != off).collect(),
        ),
        None => ((0..ho).collect(), (0..wo).collect()),
    };

    let plan = LowerPlan {
        n,
        c,
        h,
        w,
        k,
        cpg,
        r,
        s,
        ho,
        wo,
        pad: params.pad,
        stride: params.stride,
        groups,
        kpg: k / groups,
        kept: &kept,
        scale,
        oys: &oys,
        oxs: &oxs,
        perf,
        fp16: params.precision == Precision::Fp16,
        fuse_relu,
    };

    let mut out = vec![0.0f32; n * k * ho * wo];
    let bias_data = bias.map(|t| t.data());
    // Set by the verifying gemm closures on a failed checksum: the closure
    // signature cannot return an error, so detection is carried out-of-band
    // (and remaining gemms are skipped — the output is discarded anyway).
    let corrupt = std::cell::RefCell::new(None::<String>);
    match params.mul {
        MulApprox::Exact if verify => {
            run_lowered::<f32>(
                &plan,
                input.data(),
                weight.data(),
                bias_data,
                &mut out,
                &|m, kd, nd, a, bm, dst, epi| {
                    if corrupt.borrow().is_some() {
                        return;
                    }
                    let tol = super::abft::AbftTol::exact(m, kd, nd);
                    if let Err(e) = super::abft::gemm_f32_abft(m, kd, nd, a, bm, dst, epi, &tol) {
                        *corrupt.borrow_mut() = Some(e.to_string());
                    }
                },
            );
        }
        MulApprox::Exact => {
            run_lowered::<f32>(
                &plan,
                input.data(),
                weight.data(),
                bias_data,
                &mut out,
                &|m, kd, nd, a, bm, dst, epi| gemm::gemm_f32(m, kd, nd, a, bm, dst, epi),
            );
        }
        MulApprox::Lut { bits } => {
            let table = lut::lut_for(bits);
            let qi = lut::quantize_symmetric(input.data(), bits);
            let qw = lut::quantize_symmetric(weight.data(), bits);
            let dq = qi.scale * qw.scale;
            if verify {
                run_lowered::<i16>(
                    &plan,
                    &qi.q,
                    &qw.q,
                    bias_data,
                    &mut out,
                    &|m, kd, nd, a, bm, dst, epi| {
                        if corrupt.borrow().is_some() {
                            return;
                        }
                        let tol = super::abft::AbftTol::lut(kd, dq);
                        if let Err(e) =
                            super::abft::gemm_lut_abft(m, kd, nd, a, bm, table, dq, dst, epi, &tol)
                        {
                            *corrupt.borrow_mut() = Some(e.to_string());
                        }
                    },
                );
            } else {
                run_lowered::<i16>(
                    &plan,
                    &qi.q,
                    &qw.q,
                    bias_data,
                    &mut out,
                    &move |m, kd, nd, a, bm, dst, epi| {
                        gemm::gemm_lut(m, kd, nd, a, bm, table, dq, dst, epi)
                    },
                );
            }
        }
    }
    if let Some(detail) = corrupt.into_inner() {
        return Err(TensorError::CorruptionDetected {
            op: "conv2d",
            detail,
        });
    }
    Tensor::from_vec(out_shape, out)
}

/// Convenience wrapper: exact, ungrouped im2col convolution (the historical
/// entry point; approximations go through [`conv2d_lowered`] or the
/// [`super::conv2d`] dispatcher).
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    pad: (usize, usize),
    stride: (usize, usize),
    precision: Precision,
) -> Result<Tensor, TensorError> {
    conv2d_lowered(
        input,
        weight,
        bias,
        Conv2dParams {
            pad,
            stride,
            precision,
            ..Default::default()
        },
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference::conv2d_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shapes");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x} vs {y}");
        }
    }

    fn fixtures() -> (Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(77);
        let x = Tensor::uniform(Shape::nchw(2, 3, 9, 11), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(4, 3, 3, 3), -0.5, 0.5, &mut rng);
        let b = Tensor::uniform(Shape::vec(4), -0.2, 0.2, &mut rng);
        (x, w, b)
    }

    fn check(params: Conv2dParams, ctx: &str) {
        let (x, w, b) = fixtures();
        let lowered = conv2d_lowered(&x, &w, Some(&b), params, false).unwrap();
        let direct = conv2d_reference(&x, &w, Some(&b), params).unwrap();
        assert_bits_eq(&lowered, &direct, ctx);
    }

    #[test]
    fn exact_matches_reference_bitwise() {
        check(
            Conv2dParams {
                pad: (1, 1),
                ..Default::default()
            },
            "exact",
        );
        check(
            Conv2dParams {
                pad: (2, 1),
                stride: (2, 3),
                ..Default::default()
            },
            "strided",
        );
    }

    #[test]
    fn every_filter_sampling_matches_reference_bitwise() {
        for approx in ConvApprox::all_filter_sampling() {
            check(
                Conv2dParams {
                    pad: (1, 1),
                    approx,
                    ..Default::default()
                },
                &format!("{approx:?}"),
            );
        }
    }

    #[test]
    fn every_perforation_matches_reference_bitwise() {
        for approx in ConvApprox::all_perforation() {
            check(
                Conv2dParams {
                    pad: (1, 1),
                    approx,
                    ..Default::default()
                },
                &format!("{approx:?}"),
            );
        }
    }

    #[test]
    fn fp16_matches_reference_bitwise() {
        check(
            Conv2dParams {
                pad: (1, 1),
                precision: Precision::Fp16,
                ..Default::default()
            },
            "fp16",
        );
        check(
            Conv2dParams {
                pad: (1, 1),
                precision: Precision::Fp16,
                approx: ConvApprox::Perforation {
                    dim: PerforationDim::Row,
                    k: 2,
                    offset: 0,
                },
                ..Default::default()
            },
            "fp16+perf",
        );
    }

    #[test]
    fn every_lut_bitwidth_matches_reference_bitwise() {
        for mul in MulApprox::ALL_LUT {
            check(
                Conv2dParams {
                    pad: (1, 1),
                    mul,
                    ..Default::default()
                },
                &format!("{mul:?}"),
            );
        }
    }

    #[test]
    fn depthwise_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(78);
        let x = Tensor::uniform(Shape::nchw(1, 4, 8, 8), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(4, 1, 3, 3), -1.0, 1.0, &mut rng);
        let params = Conv2dParams {
            pad: (1, 1),
            groups: 4,
            ..Default::default()
        };
        let lowered = conv2d_lowered(&x, &w, None, params, false).unwrap();
        let direct = conv2d_reference(&x, &w, None, params).unwrap();
        assert_bits_eq(&lowered, &direct, "depthwise");
    }

    #[test]
    fn fused_relu_matches_unfused_bitwise() {
        let (x, w, b) = fixtures();
        for approx in [
            ConvApprox::Exact,
            ConvApprox::FilterSampling { k: 2, offset: 1 },
            ConvApprox::Perforation {
                dim: PerforationDim::Col,
                k: 3,
                offset: 2,
            },
        ] {
            let params = Conv2dParams {
                pad: (1, 1),
                approx,
                ..Default::default()
            };
            let fused = conv2d_lowered(&x, &w, Some(&b), params, true).unwrap();
            let unfused = crate::ops::relu(
                &conv2d_lowered(&x, &w, Some(&b), params, false).unwrap(),
                Precision::Fp32,
            )
            .unwrap();
            assert_bits_eq(&fused, &unfused, &format!("fused relu {approx:?}"));
        }
    }

    #[test]
    fn bias_length_mismatch_rejected() {
        let (x, w, _) = fixtures();
        let bad = Tensor::zeros(Shape::vec(3));
        assert!(conv2d_im2col(&x, &w, Some(&bad), (1, 1), (1, 1), Precision::Fp32).is_err());
    }

    #[test]
    fn degenerate_shapes() {
        // 1×1 kernel, W smaller than a GEMM panel, K=1.
        let mut rng = StdRng::seed_from_u64(79);
        let x = Tensor::uniform(Shape::nchw(1, 1, 3, 2), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(1, 1, 1, 1), -1.0, 1.0, &mut rng);
        let params = Conv2dParams::default();
        let lowered = conv2d_lowered(&x, &w, None, params, false).unwrap();
        let direct = conv2d_reference(&x, &w, None, params).unwrap();
        assert_bits_eq(&lowered, &direct, "1x1");
    }
}
