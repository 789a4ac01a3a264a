//! im2col lowering: convolution as patch-matrix GEMM — for the exact
//! kernel **and every approximation**.
//!
//! Each (image, group) pair builds a patch matrix `B[F, P]` whose rows are
//! flattened filter elements and whose columns are output positions, then
//! multiplies it by the group's weight matrix `A[K/g, F]` on the tiled GEMM
//! core ([`super::gemm`]). `B` is never materialised row-major: patches are
//! packed once, straight into the panel-major layout the microkernel reads,
//! in a per-thread scratch that is reused across images and calls. The
//! approximations *prune the lowering itself*, so skipped work is genuinely
//! never computed:
//!
//! * **Filter sampling** drops the skipped filter elements' *rows* from
//!   both `A` and `B` (the GEMM inner dimension shrinks by `1/k`).
//! * **Perforation** drops the skipped output positions' *columns* from
//!   `B` (the GEMM output shrinks by `1/k`); the missing outputs are
//!   interpolated from computed neighbours after the GEMM, exactly like
//!   the direct kernel.
//! * **LUT multipliers** pack the patches over `i16`-quantised operands
//!   and run the integer table-served GEMM.
//!
//! The bias/scale/FP16/activation epilogue is fused into the GEMM's output
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
use crate::ops::gemm::{self, Epilogue, PANEL};
use crate::shape::{conv2d_out_shape, Shape};
use crate::tensor::Tensor;
use std::cell::Cell;

/// What one thread's lowered convolutions borrow instead of allocating: the
/// packed patch panels (one buffer per element type; a strided lowering's
/// column-compacted rows sit behind them in the same buffer) and the plane
/// a perforated GEMM computes its kept columns into. Each buffer grows to
/// the largest (image, group) a thread has lowered and is freed with the
/// thread; nothing else bounds or sizes it.
#[derive(Default)]
struct Scratch {
    panels_f32: Vec<f32>,
    panels_i16: Vec<i16>,
    kept_plane: Vec<f32>,
}

thread_local! {
    /// Taken for the duration of a call and put back after it, so a
    /// convolution entered while another holds the scratch (it cannot
    /// happen with today's pool, which never runs a second job on a
    /// blocked thread) would allocate its own instead of aliasing.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Element type patches can be packed over (f32 exact path, i16
/// LUT-quantised path). `ZERO` is the padding value.
trait PatchElem: Copy + Send + Sync {
    const ZERO: Self;
    /// This element type's panel buffer, and the kept-columns plane.
    fn buffers(scratch: &mut Scratch) -> (&mut Vec<Self>, &mut Vec<f32>);
}
impl PatchElem for f32 {
    const ZERO: Self = 0.0;
    fn buffers(scratch: &mut Scratch) -> (&mut Vec<f32>, &mut Vec<f32>) {
        (&mut scratch.panels_f32, &mut scratch.kept_plane)
    }
}
impl PatchElem for i16 {
    const ZERO: Self = 0;
    fn buffers(scratch: &mut Scratch) -> (&mut Vec<i16>, &mut Vec<f32>) {
        (&mut scratch.panels_i16, &mut scratch.kept_plane)
    }
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
    /// Perforation dimension if active.
    perf: Option<PerforationDim>,
    fp16: bool,
    /// FP32 activation fused behind the convolution.
    act: Option<UnaryOp>,
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

/// One kept filter element, resolved against the geometry: which plane of
/// the source image its taps read and which computed output columns they
/// land inside the input for.
struct Tap {
    /// Offset of the plane the tap reads inside the source image.
    plane: usize,
    ky: usize,
    /// Indices into the computed columns whose tap is inside the input row:
    /// `[x0, x1)`; the rest pad.
    x0: usize,
    x1: usize,
    /// Source column read for index `x0`; consecutive indices read
    /// consecutive columns.
    first: usize,
}

/// A run of consecutive patch-matrix columns that share one computed output
/// row and one panel: the unit a tap row is copied in.
struct Segment {
    /// Offset of the run's first lane in the panel buffer, filter row 0.
    dst: usize,
    /// Output row (a value of `oys`).
    oy: usize,
    /// The run's first index into the computed columns, and its length.
    xi: usize,
    len: usize,
}

/// The column gather of a strided or column-perforated lowering: the
/// computed columns are not consecutive in the input, so each input row is
/// first compacted, once per filter column `kx`, into the run of values its
/// taps read — `s·C·H` row gathers instead of `r·s·C·Ho`, after which every
/// tap row is a plain copy exactly as in the unit-stride case.
struct Gather {
    /// Input column offset `ox·stride` of each computed column.
    cols: Vec<usize>,
    /// `[x0, x1)` of each filter column.
    ranges: Vec<(usize, usize)>,
    /// Input rows some tap reads.
    rows: Vec<usize>,
}

/// The patch packer of one call: which `(panel lane run, output row,
/// column run)` segments tile the column space and where each kept tap
/// reads — resolved once, then replayed for every image and group.
struct Packer<'a> {
    plan: &'a LowerPlan<'a>,
    taps: Vec<Tap>,
    segments: Vec<Segment>,
    /// `None` with unit width-stride and every output column computed
    /// (every zoo conv, filter sampling, row perforation): a tap row's run
    /// is already contiguous in the input.
    gather: Option<Gather>,
    /// Row pitch of the source image the taps read (the input's, or the
    /// compacted one's).
    pitch: usize,
}

impl<'a> Packer<'a> {
    fn new(plan: &'a LowerPlan<'a>) -> Self {
        let (h, w) = (plan.h, plan.w);
        let ((ph, pw), (sh, sw)) = (plan.pad, plan.stride);
        let rows = plan.kept.len();
        let nx = plan.oxs.len();
        let contiguous = sw == 1 && nx == plan.wo;
        let pitch = if contiguous { w } else { nx };
        let cols: Vec<usize> = plan.oxs.iter().map(|&ox| ox * sw).collect();
        let ranges: Vec<(usize, usize)> = (0..plan.s)
            .map(|kx| {
                (
                    cols.partition_point(|&c| c + kx < pw),
                    cols.partition_point(|&c| c + kx < w + pw),
                )
            })
            .collect();
        let taps = plan
            .kept
            .iter()
            .map(|&idx| {
                let (chan, rem) = (idx / (plan.r * plan.s), idx % (plan.r * plan.s));
                let kx = rem % plan.s;
                let (x0, x1) = ranges[kx];
                let (plane, first) = if contiguous {
                    (chan, (x0 + kx).saturating_sub(pw))
                } else {
                    (kx * plan.cpg + chan, x0)
                };
                Tap {
                    plane: plane * h * pitch,
                    ky: rem / plan.s,
                    x0,
                    x1,
                    first,
                }
            })
            .collect();
        let mut segments = Vec::new();
        let n_pos = plan.oys.len() * nx;
        let mut j = 0;
        while j < n_pos {
            // Up to the end of the output row or of the panel, whichever
            // comes first.
            let (yi, xi) = (j / nx, j % nx);
            let len = (nx - xi).min(PANEL - j % PANEL);
            segments.push(Segment {
                dst: (j / PANEL) * rows * PANEL + j % PANEL,
                oy: plan.oys[yi],
                xi,
                len,
            });
            j += len;
        }
        let gather = (!contiguous).then(|| {
            let mut read = vec![false; h];
            for iy in plan.oys.iter().flat_map(|oy| oy * sh..oy * sh + plan.r) {
                if (ph..h + ph).contains(&iy) {
                    read[iy - ph] = true;
                }
            }
            Gather {
                cols,
                ranges,
                rows: (0..h).filter(|&iy| read[iy]).collect(),
            }
        });
        Packer {
            plan,
            taps,
            segments,
            gather,
            pitch,
        }
    }

    /// Elements of scratch [`Packer::pack`] needs behind the panels.
    fn gathered_len(&self) -> usize {
        let plan = self.plan;
        self.gather
            .as_ref()
            .map_or(0, |_| plan.s * plan.cpg * plan.h * self.pitch)
    }

    /// Writes the panel-major patches of image `b`, group `g` into `panels`:
    /// lane `j % PANEL` of row `kr` of panel `j / PANEL` is the input value
    /// under filter element `kept[kr]` at computed position `j`. Positions
    /// where the window pads are not written: which ones pad depends on the
    /// geometry alone, so the caller zeroes `panels` once per call.
    /// `gathered` is [`Packer::gathered_len`] elements of working space.
    fn pack<T: PatchElem>(
        &self,
        in_data: &[T],
        b: usize,
        g: usize,
        panels: &mut [T],
        gathered: &mut [T],
    ) {
        let plan = self.plan;
        let (h, w) = (plan.h, plan.w);
        let (ph, pw) = plan.pad;
        let sh = plan.stride.0;
        let image = &in_data[(b * plan.c + g * plan.cpg) * h * w..][..plan.cpg * h * w];
        let pitch = self.pitch;
        let source: &[T] = match &self.gather {
            None => image,
            Some(gather) => {
                for (kx, &(x0, x1)) in gather.ranges.iter().enumerate() {
                    for chan in 0..plan.cpg {
                        let dst = &mut gathered[(kx * plan.cpg + chan) * h * pitch..][..h * pitch];
                        let src = &image[chan * h * w..][..h * w];
                        for &iy in &gather.rows {
                            let (dst, src) = (&mut dst[iy * pitch..][x0..x1], &src[iy * w..][..w]);
                            for (d, &col) in dst.iter_mut().zip(&gather.cols[x0..x1]) {
                                *d = src[col + kx - pw];
                            }
                        }
                    }
                }
                gathered
            }
        };
        for seg in &self.segments {
            let (lo, hi) = (seg.xi, seg.xi + seg.len);
            for (kr, tap) in self.taps.iter().enumerate() {
                let iy = seg.oy * sh + tap.ky;
                let (x0, x1) = (tap.x0.max(lo), tap.x1.min(hi));
                if iy < ph || iy - ph >= h || x0 >= x1 {
                    continue; // the whole run pads
                }
                let src = &source[tap.plane + (iy - ph) * pitch..][..pitch];
                panels[seg.dst + kr * PANEL + (x0 - lo)..][..x1 - x0]
                    .copy_from_slice(&src[tap.first + (x0 - tap.x0)..][..x1 - x0]);
            }
        }
    }
}

/// Where a perforated output row or column takes its value from.
#[derive(Clone, Copy)]
enum Fill {
    /// `0.5·(a + b)` of the nearest computed coordinate on either side.
    Between(usize, usize),
    /// A copy of the only side that has a computed coordinate.
    Copy(usize),
    /// Nothing was computed along this dimension: the bias alone.
    Bias,
}

/// The skipped coordinates of a perforated dimension with their nearest
/// computed neighbours (Figurnov et al.), resolved once per call. `kept` is
/// increasing.
fn fills(extent: usize, kept: &[usize]) -> Vec<(usize, Fill)> {
    (0..extent)
        .filter(|c| kept.binary_search(c).is_err())
        .map(|c| {
            let after = kept.partition_point(|&v| v < c);
            let fill = match (after.checked_sub(1).map(|i| kept[i]), kept.get(after)) {
                (Some(a), Some(&b)) => Fill::Between(a, b),
                (Some(a), None) | (None, Some(&a)) => Fill::Copy(a),
                (None, None) => Fill::Bias,
            };
            (c, fill)
        })
        .collect()
}

/// Spreads one output channel's computed positions (`kept`, row-major over
/// `oys × oxs`) over its `ho × wo` plane and interpolates the perforated
/// rows or columns — expression-identical to the direct reference kernel,
/// one whole row (or one strided pass along a row) at a time.
fn scatter_interpolate(
    plan: &LowerPlan,
    dim: PerforationDim,
    skipped: &[(usize, Fill)],
    kept: &[f32],
    bias_v: f32,
    op: &mut [f32],
) {
    let wo = plan.wo;
    let nx = plan.oxs.len();
    match dim {
        PerforationDim::Row => {
            for (krow, &oy) in kept.chunks(wo.max(1)).zip(plan.oys) {
                op[oy * wo..][..wo].copy_from_slice(krow);
            }
            for &(oy, fill) in skipped {
                // Neighbours are computed rows on either side of `oy`.
                let (above, rest) = op.split_at_mut(oy * wo);
                let (row, below) = rest.split_at_mut(wo);
                match fill {
                    Fill::Between(a, b) => {
                        let ra = &above[a * wo..][..wo];
                        let rb = &below[(b - oy - 1) * wo..][..wo];
                        for ((o, &va), &vb) in row.iter_mut().zip(ra).zip(rb) {
                            *o = 0.5 * (va + vb);
                        }
                    }
                    Fill::Copy(a) if a < oy => row.copy_from_slice(&above[a * wo..][..wo]),
                    Fill::Copy(b) => row.copy_from_slice(&below[(b - oy - 1) * wo..][..wo]),
                    Fill::Bias => row.fill(bias_v),
                }
            }
        }
        PerforationDim::Col => {
            for (oy, row) in op.chunks_mut(wo.max(1)).enumerate() {
                if nx > 0 {
                    for (&ox, &v) in plan.oxs.iter().zip(&kept[oy * nx..][..nx]) {
                        row[ox] = v;
                    }
                }
                for &(ox, fill) in skipped {
                    row[ox] = match fill {
                        Fill::Between(l, r) => 0.5 * (row[l] + row[r]),
                        Fill::Copy(c) => row[c],
                        Fill::Bias => bias_v,
                    };
                }
            }
        }
    }
}

/// Drives the pack → GEMM → epilogue/scatter pipeline over all
/// (group, image) pairs. `gemm_call(m, k, n, a, panels, dst, epi)` runs the
/// element-type-appropriate GEMM over the packed patches.
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
    let packer = Packer::new(plan);
    let skipped = match plan.perf {
        Some(PerforationDim::Row) => fills(plan.ho, plan.oys),
        Some(PerforationDim::Col) => fills(plan.wo, plan.oxs),
        None => Vec::new(),
    };

    let mut scratch = SCRATCH.take();
    let (panels, kept_plane) = T::buffers(&mut scratch);
    let packed_len = gemm::packed_len(kk2, n_pos);
    panels.clear();
    panels.resize(packed_len + packer.gathered_len(), T::ZERO);
    let (panels, gathered) = panels.split_at_mut(packed_len);
    // Perforation computes only the kept columns into this plane.
    let kept_len = plan.perf.map_or(0, |_| plan.kpg * n_pos);
    if kept_plane.len() < kept_len {
        kept_plane.resize(kept_len, 0.0);
    }
    let kept_plane = &mut kept_plane[..kept_len];

    for g in 0..plan.groups {
        let a_pack = pack_weights(w_data, g, plan.kpg, total, plan.kept);
        let bias_slice = bias_data.map(|bd| &bd[g * plan.kpg..(g + 1) * plan.kpg]);
        for bimg in 0..plan.n {
            packer.pack(in_data, bimg, g, panels, gathered);
            let out_base = (bimg * plan.k + g * plan.kpg) * plane;
            let planes = &mut out[out_base..out_base + plan.kpg * plane];
            let Some(dim) = plan.perf else {
                // Columns cover the full plane in row-major order, so the
                // GEMM writes the group's output planes directly, epilogue
                // fused.
                let epi = Epilogue::Conv {
                    scale: plan.scale,
                    bias: bias_slice,
                    fp16: plan.fp16,
                    act: plan.act,
                };
                gemm_call(plan.kpg, kk2, n_pos, &a_pack, panels, planes, &epi);
                continue;
            };
            // Compute only the kept columns, then scatter and interpolate.
            // Quantisation and the activation must run *after*
            // interpolation (matching the reference kernel), so the GEMM
            // epilogue applies only scale and bias.
            let epi = Epilogue::Conv {
                scale: plan.scale,
                bias: bias_slice,
                fp16: false,
                act: None,
            };
            gemm_call(plan.kpg, kk2, n_pos, &a_pack, panels, kept_plane, &epi);
            for (di, op) in planes.chunks_mut(plane.max(1)).enumerate() {
                let bias_v = bias_slice.map_or(0.0, |bs| bs[di]);
                let kept = &kept_plane[di * n_pos..(di + 1) * n_pos];
                scatter_interpolate(plan, dim, &skipped, kept, bias_v, op);
                if plan.fp16 {
                    op.iter_mut().for_each(|v| *v = f16::quantize(*v));
                }
                if let Some(act) = plan.act {
                    act.apply_slice(op);
                }
            }
        }
    }
    SCRATCH.set(scratch);
}

/// Lowers a convolution (any [`Conv2dParams`] setting, optionally with a
/// fused trailing FP32 activation) through im2col onto the tiled GEMM.
///
/// This is the kernel behind [`super::conv2d`] and
/// [`super::conv::conv2d_fused`]; results are bit-identical to the direct
/// reference kernel for every configuration.
pub(crate) fn conv2d_lowered(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    act: Option<UnaryOp>,
) -> Result<Tensor, TensorError> {
    conv2d_lowered_impl(input, weight, bias, params, act, false)
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
    act: Option<UnaryOp>,
) -> Result<Tensor, TensorError> {
    conv2d_lowered_impl(input, weight, bias, params, act, true)
}

fn conv2d_lowered_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    act: Option<UnaryOp>,
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
    let (perf, oys, oxs): (_, Vec<usize>, Vec<usize>) = match params.approx {
        ConvApprox::Perforation { dim, k, offset } => {
            let keep = |extent| (0..extent).filter(|c| c % k != offset).collect();
            match dim {
                PerforationDim::Row => (Some(dim), keep(ho), (0..wo).collect()),
                PerforationDim::Col => (Some(dim), (0..ho).collect(), keep(wo)),
            }
        }
        _ => (None, (0..ho).collect(), (0..wo).collect()),
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
        act,
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
                    if let Err(e) =
                        super::abft::gemm_f32_abft_packed(m, kd, nd, a, bm, dst, epi, &tol)
                    {
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
                &|m, kd, nd, a, bm, dst, epi| gemm::gemm_f32_packed(m, kd, nd, a, bm, dst, epi),
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
                        if let Err(e) = super::abft::gemm_lut_abft_packed(
                            m, kd, nd, a, bm, table, dq, dst, epi, &tol,
                        ) {
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
                        gemm::gemm_lut_packed(m, kd, nd, a, bm, table, dq, dst, epi)
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
        let lowered = conv2d_lowered(&x, &w, Some(&b), params, None).unwrap();
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
        let lowered = conv2d_lowered(&x, &w, None, params, None).unwrap();
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
            let fused = conv2d_lowered(&x, &w, Some(&b), params, Some(UnaryOp::Relu)).unwrap();
            let unfused = crate::ops::relu(
                &conv2d_lowered(&x, &w, Some(&b), params, None).unwrap(),
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
        let params = Conv2dParams {
            pad: (1, 1),
            stride: (1, 1),
            ..Default::default()
        };
        assert!(conv2d_lowered(&x, &w, Some(&bad), params, None).is_err());
    }

    #[test]
    fn degenerate_shapes() {
        // 1×1 kernel, W smaller than a GEMM panel, K=1.
        let mut rng = StdRng::seed_from_u64(79);
        let x = Tensor::uniform(Shape::nchw(1, 1, 3, 2), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(1, 1, 1, 1), -1.0, 1.0, &mut rng);
        let params = Conv2dParams::default();
        let lowered = conv2d_lowered(&x, &w, None, params, None).unwrap();
        let direct = conv2d_reference(&x, &w, None, params).unwrap();
        assert_bits_eq(&lowered, &direct, "1x1");
    }
}
