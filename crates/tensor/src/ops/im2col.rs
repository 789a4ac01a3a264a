//! Implicit-GEMM lowering: convolution as a patch-matrix GEMM whose patch
//! matrix is **never written** — for the exact kernel and every
//! approximation.
//!
//! Per (image, group) a convolution is `A[K/g, F] × B[F, P]`: `A` the
//! group's weights, `B`'s rows the flattened filter elements `(channel, ky,
//! kx)`, its columns the output positions. Instead of copying each input
//! value into up to `r·s` places of `B`, each (image, group) is **staged
//! once** and the microkernels of [`super::gemm`] read their `B` windows out
//! of the staged image in place.
//!
//! **What is staged.** One plane per `(kx, channel)`, `h + 2·pad_h` rows of
//! `nx` values, `nx` the number of computed output columns: entry `xi` of row
//! `iy` is the padded input at row `iy`, column `ox(xi)·stride_w + kx`. The
//! horizontal tap offset and the width stride are resolved by the copy, so
//! along a row consecutive output columns are consecutive elements — `s`
//! copies of the image, not `r·s`. Padding is stored as zeros; FP16 and LUT
//! operand quantisation are applied to each input element once, on its way
//! in, so no quantised copy of the input tensor is allocated. With unit
//! width stride, every column computed and "same" width padding
//! (`2·pad_w + 1 == s`, so `nx == w`: every zoo conv, filter sampling, row
//! perforation) only the centre plane `kx == pad_w` is filled from the
//! input — one quantiser call per channel, or per row when the rows are
//! phase-major — and plane `kx` is one flat copy of the centre block moved
//! by `kx − pad_w` columns, the columns the move carried across a row
//! boundary set back to the padding's zero. Otherwise (strided,
//! column-perforated, "valid"-padded) each input row is quantised into the
//! middle of a zero-bordered row and the `s` planes' rows gather their
//! computed columns out of it. The buffer lives in a per-thread scratch
//! reused across images and calls, with `PANEL` elements of slack behind it
//! for the surplus lanes of a ragged last panel.
//!
//! **The tap-offset table.** With unit row stride and every row computed,
//! position `j = oy·nx + xi` under filter element `(c, ky, kx)` reads staged
//! element `(kx·cpg + c)·plane + ky·nx + j`: a per-element constant — the
//! element's entry in the GEMM's `row_off` table (`gemm::Run`) — plus the
//! position, so a panel of 32 positions reads one contiguous 32-value window
//! per filter element. **Filter sampling** drops the skipped elements'
//! entries from the table (and their columns from `A`): the inner dimension
//! shrinks by `1/k`. **Column perforation** drops columns from the staged
//! planes: `nx` shrinks.
//!
//! **Runs.** When the computed rows are every `m`-th padded row (row stride
//! `m`, or `k·stride` for the rows `≡ ρ mod k` a row perforation keeps),
//! positions stay linear if the staged rows are stored *phase-major*: all
//! rows `≡ 0 mod m`, then all `≡ 1`, …; tap `ky` of the class's `t`-th row
//! then reads slot `slot(ρ·stride + ky) + t`. Each kept residue class `ρ` is
//! one *run* of linear positions with its own table, and the GEMM's columns
//! are the runs concatenated (the scatter behind a perforated GEMM puts each
//! row where it belongs). Panels tile a run; only its last can be ragged.
//! When a computed row is a whole number of panels (`nx` a multiple of
//! `PANEL`) no panel can straddle two rows, so each computed row is a run of
//! its own and the staged rows keep their natural order: a row-perforated
//! image is then staged exactly like an unperforated one, one quantiser call
//! per channel instead of one per row.
//!
//! **Skipped work is never computed.** Perforation shrinks the GEMM's
//! output; the missing outputs are interpolated from computed neighbours
//! after it, exactly like the direct kernel. The bias/scale/FP16/activation
//! epilogue is fused into the GEMM's output write ([`super::gemm::Epilogue`]).
//!
//! **Why every bit is unchanged.** Each output still accumulates its window
//! in increasing flattened `(channel, ky, kx)` order through one `mul_add`
//! chain (the table is built in that order), a padded tap still contributes
//! an exact zero product, and where an operand is read from changes no
//! operand value — so results are bit-identical to the direct reference
//! kernel ([`super::reference`]) for every configuration. The panel-outer
//! loop order and the split over images change *when* a chain runs, never
//! what it adds.

use crate::error::TensorError;
use crate::f16;
use crate::instrument::{self, Counters};
use crate::knobs::{ConvApprox, MulApprox, PerforationDim, Precision};
use crate::lut;
use crate::ops::abft::{self, Verified};
use crate::ops::activation::UnaryOp;
use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{padded_rows, Epilogue, Fma, LutMul, MulKernel, Run, Windows, PANEL};
use crate::par;
use crate::shape::{conv2d_out_shape, Shape};
use crate::tensor::{check_len, Tensor, View};
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::Mutex;

/// What one thread's lowered convolutions borrow instead of allocating: the
/// staged image (slack and one input row of quantisation space behind it)
/// and the plane a perforated GEMM computes its kept positions into. Each
/// buffer grows to the largest (image, group) a thread has lowered and is
/// freed with the thread; nothing else bounds or sizes it.
#[derive(Default)]
struct Scratch {
    staged: Vec<f32>,
    kept_plane: Vec<f32>,
}

thread_local! {
    /// Taken for the duration of an image and put back after it, so a
    /// convolution entered while another holds the scratch would allocate
    /// its own instead of aliasing.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Resolved geometry, pruning decisions and staged-image layout of one
/// lowered convolution — computed once, then replayed for every image and
/// group.
struct Lowering {
    /// Per group: input channels and output channels.
    cpg: usize,
    kpg: usize,
    groups: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    /// Filter columns (= staged planes per channel), height and width
    /// padding, width stride.
    s: usize,
    ph: usize,
    pw: usize,
    sw: usize,
    /// Kept flattened filter indices, increasing (= accumulation order).
    kept: Vec<usize>,
    /// Filter-sampling compensation factor.
    scale: f32,
    /// Computed output rows in GEMM column order (all rows unless
    /// row-perforated) and computed output columns (all columns unless
    /// column-perforated).
    oys: Vec<usize>,
    oxs: Vec<usize>,
    /// Perforation dimension if active, with the skipped coordinates.
    perf: Option<(PerforationDim, Vec<(usize, Fill)>)>,
    fp16: bool,
    /// Whether the operands are staged for the LUT multiplier.
    lut: bool,
    /// FP32 activation fused behind the convolution.
    act: Option<UnaryOp>,
    /// Staged row slot of each padded input row (phase-major), `None` for a
    /// row of padding, and whether every row sits in its own slot (unit row
    /// stride without row perforation, or rows of whole panels).
    rows: Vec<(usize, Option<usize>)>,
    natural_rows: bool,
    /// The GEMM's B operand over the staged image.
    runs: Vec<Run>,
}

impl Lowering {
    /// Without `tables` the runs carry no offset tables: what a count
    /// ([`lower_work`]) reads of a lowering is its layout, not its tables.
    fn new(
        (h, w): (usize, usize),
        (k, cpg, r, s): (usize, usize, usize, usize),
        (ho, wo): (usize, usize),
        params: Conv2dParams,
        act: Option<UnaryOp>,
        tables: bool,
    ) -> Lowering {
        let ((ph, pw), (sh, sw)) = (params.pad, params.stride);
        let groups = params.groups.max(1);
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
        // Column pruning (perforation): computed output positions. The
        // computed rows are the residue classes modulo `row_k` other than
        // the skipped one.
        let keep = |extent: usize, k: usize, offset: usize| -> Vec<usize> {
            (0..extent).filter(|c| c % k != offset).collect()
        };
        let (perf, row_k, classes, oxs) = match params.approx {
            ConvApprox::Perforation { dim, k, offset } => match dim {
                PerforationDim::Row => {
                    let skipped = fills(ho, &keep(ho, k, offset));
                    (
                        Some((dim, skipped)),
                        k,
                        keep(k, k, offset),
                        (0..wo).collect(),
                    )
                }
                PerforationDim::Col => {
                    let oxs = keep(wo, k, offset);
                    (Some((dim, fills(wo, &oxs))), 1, vec![0], oxs)
                }
            },
            _ => (None, 1, vec![0], (0..wo).collect()),
        };

        // Staged layout: padded rows phase-major modulo `m`, so the rows a
        // class's taps read advance one slot per computed row. When every
        // computed row is whole panels, each computed row is a run of its own
        // instead and the rows keep their natural order, so they are staged
        // like an unperforated image's.
        let (hp, nx) = (h + 2 * ph, oxs.len());
        let row_runs = sh * row_k > 1 && nx > 0 && nx % PANEL == 0;
        let m = if row_runs { 1 } else { sh * row_k };
        let mut phase_base = vec![0; m];
        for p in 1..m {
            phase_base[p] = phase_base[p - 1] + (hp + m - p) / m;
        }
        let slot = |iy: usize| phase_base[iy % m] + iy / m;
        let rows = (0..hp)
            .map(|iy| (slot(iy), iy.checked_sub(ph).filter(|&y| y < h)))
            .collect();

        // The offset table of a run whose first position is output row `oy`.
        let table = |oy: usize| -> Vec<usize> {
            let kept = if tables { &kept[..] } else { &[] };
            kept.iter()
                .map(|&idx| {
                    let (chan, ky, kx) = (idx / (r * s), idx % (r * s) / s, idx % s);
                    ((kx * cpg + chan) * hp + slot(oy * sh + ky)) * nx
                })
                .collect()
        };
        // In natural order row `oy`'s table is row 0's moved by `oy·sh` rows
        // (built once: the divisions above cost more than the whole staging
        // of a small image when repeated per row).
        let first = if row_runs { table(0) } else { Vec::new() };
        let mut oys = Vec::new();
        let mut runs = Vec::new();
        for rho in classes.into_iter().filter(|&rho| rho < ho) {
            let before = oys.len();
            oys.extend((rho..ho).step_by(row_k));
            if row_runs {
                runs.extend(oys[before..].iter().map(|&oy| Run {
                    len: nx,
                    step: PANEL,
                    row_off: first.iter().map(|&o| o + oy * sh * nx).collect(),
                }));
            } else {
                runs.push(Run {
                    len: (oys.len() - before) * nx,
                    step: PANEL,
                    row_off: table(rho),
                });
            }
        }
        Lowering {
            cpg,
            kpg: k / groups,
            groups,
            h,
            w,
            ho,
            wo,
            s,
            ph,
            pw,
            sw,
            kept,
            scale,
            oys,
            oxs,
            perf,
            fp16: params.precision == Precision::Fp16,
            lut: params.mul != MulApprox::Exact,
            act,
            rows,
            natural_rows: m == 1,
            runs,
        }
    }

    /// Elements of the staged image, slack included.
    fn staged_len(&self) -> usize {
        self.s * self.cpg * self.rows.len() * self.oxs.len() + PANEL
    }

    /// Writes the staged image of one (image, group) — `image` is its `cpg`
    /// input planes — over whatever `staged` held: every element of every
    /// plane, zeros where the window pads. `row` is one padded input row of
    /// working space for the per-row path. The staged elements are added to
    /// `c`, per staged row or plane, under the path and the quantiser.
    fn stage(
        &self,
        image: &[f32],
        quant: impl Fn(&[f32], &mut [f32]),
        staged: &mut [f32],
        row: &mut [f32],
        c: &mut Counters,
    ) {
        if self.shifts_planes() {
            self.stage_shifted(image, quant, staged);
        } else {
            self.stage_rows(image, quant, staged, row);
        }
        self.count_staging(c);
    }

    /// Adds one staged (image, group) to `c`: every element of every
    /// plane, and the pieces quantised one at a time. Counted once per
    /// image, outside the staging loops, whose code generation a counter
    /// inside them disturbs.
    fn count_staging(&self, c: &mut Counters) {
        *self.stage_field(c) += (self.staged_len() - PANEL) as u64;
        let one_by_one = !(self.shifts_planes() && self.natural_rows);
        c.stage_rows += (self.cpg * if one_by_one { self.rows.len() } else { 1 }) as u64;
    }

    /// The counter of this lowering's staged elements: its staging path
    /// and its quantiser.
    fn stage_field<'c>(&self, c: &'c mut Counters) -> &'c mut u64 {
        match (self.shifts_planes(), self.lut, self.fp16) {
            (true, true, _) => &mut c.stage_copy_lut,
            (true, false, true) => &mut c.stage_copy_fp16,
            (true, false, false) => &mut c.stage_copy_fp32,
            (false, true, _) => &mut c.stage_gather_lut,
            (false, false, true) => &mut c.stage_gather_fp16,
            (false, false, false) => &mut c.stage_gather_fp32,
        }
    }

    /// The work [`run_lowered`] counts for one (image, group), from the
    /// layout alone.
    fn group_work<K: MulKernel>(&self) -> Counters {
        let (kpg, kk2, plane) = (self.kpg, self.kept.len(), self.ho * self.wo);
        let mut c = Counters::default();
        if kpg * self.groups * plane == 0 {
            return c;
        }
        self.count_staging(&mut c);
        let n_pos = self.oys.len() * self.oxs.len();
        if n_pos > 0 {
            let panels: usize = self.runs.iter().map(|r| r.len.div_ceil(PANEL)).sum();
            c.muls = (kpg * kk2 * n_pos) as u64;
            c.gemm_calls = 1;
            *K::steps(&mut c) = (panels * padded_rows(kpg) * kk2) as u64;
            let (fp16, act) = match self.perf {
                None => (self.fp16, self.act),
                Some(_) => (false, None),
            };
            let epi = Epilogue::Conv {
                scale: self.scale,
                bias: None,
                fp16,
                act,
            };
            epi.count_rows(kpg as u64, n_pos, &mut c);
        }
        if self.perf.is_some() {
            let planes = (kpg * plane) as u64;
            c.scatter += planes;
            c.scatter_rows += (kpg * self.ho) as u64;
            c.epi_fp16 += if self.fp16 { planes } else { 0 };
            if let Some(act) = self.act {
                *c.epi_field(act) += planes;
            }
        }
        c
    }

    /// Whether the tap planes are shifted copies of the centre plane: unit
    /// width stride, every column computed and "same" width padding, so
    /// `nx == w` and plane `kx` is plane `pw` moved by `kx − pw` columns
    /// (every zoo conv, filter sampling, row perforation).
    fn shifts_planes(&self) -> bool {
        self.sw == 1 && self.oxs.len() == self.wo && 2 * self.pw + 1 == self.s
    }

    /// [`Lowering::stage`] by shifted copy: each input element goes through
    /// `quant` once, into the centre plane (`kx == pw`) — one call per
    /// channel when the rows are in natural order, one per row when they are
    /// phase-major — and every other plane is one flat copy of the centre
    /// block moved by `d = kx − pw` with the `|d|` columns the move brought
    /// in from the neighbouring row set to the padding's zero.
    fn stage_shifted(&self, image: &[f32], quant: impl Fn(&[f32], &mut [f32]), staged: &mut [f32]) {
        let (h, w) = (self.h, self.w);
        let plane = self.rows.len() * w;
        let block = self.cpg * plane;
        let (before, rest) = staged.split_at_mut(self.pw * block);
        let (centre, after) = rest.split_at_mut(block);
        for (chan, dst) in centre.chunks_exact_mut(plane.max(1)).enumerate() {
            let src = &image[chan * h * w..][..h * w];
            if self.natural_rows {
                let (top, rest) = dst.split_at_mut(self.ph * w);
                let (middle, bottom) = rest.split_at_mut(h * w);
                top.fill(0.0);
                quant(src, middle);
                bottom.fill(0.0);
            } else {
                for &(slot, y) in &self.rows {
                    let to = &mut dst[slot * w..][..w];
                    match y {
                        Some(y) => quant(&src[y * w..][..w], to),
                        None => to.fill(0.0),
                    }
                }
            }
        }
        let centre = &*centre;
        let left = before
            .chunks_exact_mut(block.max(1))
            .zip((1..=self.pw).rev());
        for (dst, e) in left {
            // Plane `pw − e`: column `xi` holds centre column `xi − e`.
            if e >= w {
                dst.fill(0.0);
                continue;
            }
            dst[e..].copy_from_slice(&centre[..block - e]);
            zero_columns(dst, w, 0..e);
        }
        for (dst, e) in after.chunks_exact_mut(block.max(1)).zip(1..=self.pw) {
            // Plane `pw + e`: column `xi` holds centre column `xi + e`.
            if e >= w {
                dst.fill(0.0);
                continue;
            }
            dst[..block - e].copy_from_slice(&centre[e..]);
            zero_columns(dst, w, w - e..w);
        }
    }

    /// [`Lowering::stage`] one input row at a time, for strided,
    /// column-perforated and "valid"-padded convolutions: each input row goes
    /// through `quant` into the middle of the zero-bordered `row`, and plane
    /// `kx`'s staged row gathers its computed columns out of `row[kx..]`.
    fn stage_rows(
        &self,
        image: &[f32],
        quant: impl Fn(&[f32], &mut [f32]),
        staged: &mut [f32],
        row: &mut [f32],
    ) {
        let (h, w, nx) = (self.h, self.w, self.oxs.len());
        let plane = self.rows.len() * nx;
        row.fill(0.0);
        for chan in 0..self.cpg {
            for &(slot, y) in &self.rows {
                let middle = &mut row[self.pw..self.pw + w];
                match y {
                    Some(y) => quant(&image[(chan * h + y) * w..][..w], middle),
                    None => middle.fill(0.0),
                }
                for kx in 0..self.s {
                    let at = (kx * self.cpg + chan) * plane + slot * nx;
                    let from_kx = &row[kx..];
                    for (d, &ox) in staged[at..][..nx].iter_mut().zip(&self.oxs) {
                        *d = from_kx[ox * self.sw];
                    }
                }
            }
        }
    }
}

/// Sets `columns` of every `w`-wide row of `rows` to zero, one strided pass
/// per column: the few edge columns of a shifted plane, without a `memset`
/// call per row.
fn zero_columns(rows: &mut [f32], w: usize, columns: std::ops::Range<usize>) {
    for col in columns {
        rows[col..].iter_mut().step_by(w).for_each(|v| *v = 0.0);
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

/// Spreads one output channel's computed positions (`kept`, in GEMM column
/// order: `oys × oxs`) over its `ho × wo` plane and interpolates the perforated
/// rows or columns — expression-identical to the direct reference kernel,
/// one whole row (or one strided pass along a row) at a time.
fn scatter_interpolate(
    low: &Lowering,
    dim: PerforationDim,
    skipped: &[(usize, Fill)],
    kept: &[f32],
    bias_v: f32,
    op: &mut [f32],
) {
    let wo = low.wo;
    let nx = low.oxs.len();
    match dim {
        PerforationDim::Row => {
            for (krow, &oy) in kept.chunks(wo.max(1)).zip(&low.oys) {
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
                    for (&ox, &v) in low.oxs.iter().zip(&kept[oy * nx..][..nx]) {
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

/// Drives stage → GEMM over the staged windows (checksum-verified if
/// `verify`) → epilogue or scatter over every (image, group), images in
/// parallel (forked only when every thread gets [`par::GRAIN`] worth of
/// multiplies). `quant` turns one input row into staged elements;
/// `weights` holds every output channel's kept weight elements (group `g`'s
/// GEMM A matrix is rows `g·kpg..(g + 1)·kpg`). Returns the work done,
/// summed over the images.
#[allow(clippy::too_many_arguments)]
fn run_lowered<K: Verified>(
    low: &Lowering,
    kern: &K,
    input: &[f32],
    quant: impl Fn(&[f32], &mut [f32]) + Sync,
    weights: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    verify: bool,
) -> Result<Counters, TensorError> {
    let (kpg, kk2, plane) = (low.kpg, low.kept.len(), low.ho * low.wo);
    let k = kpg * low.groups;
    if k * plane == 0 {
        return Ok(Counters::default());
    }
    let n_pos = low.oys.len() * low.oxs.len();
    let per_group = low.cpg * low.h * low.w;
    let (staged_len, row_len) = (low.staged_len(), low.w + 2 * low.pw);

    let lower_image = |image: &[f32], oimg: &mut [f32], scratch: &mut Scratch| {
        let Scratch { staged, kept_plane } = scratch;
        if staged.len() < staged_len + row_len {
            staged.resize(staged_len + row_len, 0.0);
        }
        let (staged, row) = staged.split_at_mut(staged_len);
        // Perforation computes only the kept positions into this plane.
        let kept_len = low.perf.as_ref().map_or(0, |_| kpg * n_pos);
        if kept_plane.len() < kept_len {
            kept_plane.resize(kept_len, 0.0);
        }
        let mut c = Counters::default();
        for g in 0..low.groups {
            let group = &image[g * per_group..][..per_group];
            low.stage(group, &quant, staged, &mut row[..row_len], &mut c);
            let b = Windows {
                data: staged,
                k: kk2,
                runs: &low.runs,
            };
            let a = &weights[g * kpg * kk2..][..kpg * kk2];
            let bias_slice = bias.map(|bd| &bd[g * kpg..(g + 1) * kpg]);
            let planes = &mut oimg[g * kpg * plane..][..kpg * plane];
            let Some((dim, skipped)) = &low.perf else {
                // Columns cover the full plane in row-major order, so the
                // GEMM writes the group's output planes directly, epilogue
                // fused.
                let epi = Epilogue::Conv {
                    scale: low.scale,
                    bias: bias_slice,
                    fp16: low.fp16,
                    act: low.act,
                };
                abft::gemm_windows_abft(kern, kpg, a, &b, planes, &epi, verify, &mut c)?;
                continue;
            };
            // Compute only the kept positions, then scatter and interpolate.
            // Quantisation and the activation must run *after*
            // interpolation (matching the reference kernel), so the GEMM
            // epilogue applies only scale and bias.
            let epi = Epilogue::Conv {
                scale: low.scale,
                bias: bias_slice,
                fp16: false,
                act: None,
            };
            let computed = &mut kept_plane[..kept_len];
            abft::gemm_windows_abft(kern, kpg, a, &b, computed, &epi, verify, &mut c)?;
            for (di, op) in planes.chunks_mut(plane).enumerate() {
                let bias_v = bias_slice.map_or(0.0, |bs| bs[di]);
                let kept = &kept_plane[di * n_pos..(di + 1) * n_pos];
                scatter_interpolate(low, *dim, skipped, kept, bias_v, op);
                c.scatter += plane as u64;
                c.scatter_rows += low.ho as u64;
                if low.fp16 {
                    op.iter_mut().for_each(|v| *v = f16::quantize(*v));
                    c.epi_fp16 += plane as u64;
                }
                if let Some(act) = low.act {
                    act.apply_slice(op);
                    *c.epi_field(act) += plane as u64;
                }
            }
        }
        Ok(c)
    };

    // The failed checksum of the lowest image, so the report does not depend
    // on which thread got there first; images behind it are skipped (the
    // output is discarded anyway).
    let failed = Mutex::new(None::<(usize, TensorError)>);
    // A poisoned slot is still a whole `Option`: every update is one store.
    let lock = || failed.lock().unwrap_or_else(|e| e.into_inner());
    // This call's work: each image's, folded in image order.
    let work = out
        .par_chunks_mut(k * plane)
        .with_min_len(par::min_chunks(k * kk2 * n_pos / K::MULS_PER_ITEM))
        .enumerate()
        .map(|(bimg, oimg)| {
            if verify && lock().as_ref().is_some_and(|(b, _)| *b < bimg) {
                return Counters::default();
            }
            let image = &input[bimg * low.groups * per_group..][..low.groups * per_group];
            let mut scratch = SCRATCH.take();
            let done = lower_image(image, oimg, &mut scratch);
            SCRATCH.set(scratch);
            done.unwrap_or_else(|e| {
                let mut slot = lock();
                if slot.as_ref().is_none_or(|(b, _)| bimg < *b) {
                    *slot = Some((bimg, e));
                }
                Counters::default()
            })
        })
        .reduce(Counters::default, |a, b| a + b);
    let first = failed.into_inner().unwrap_or_else(|e| e.into_inner());
    first.map_or(Ok(work), |(_, e)| {
        Err(TensorError::CorruptionDetected {
            op: "conv2d",
            detail: e.to_string(),
        })
    })
}

/// Lowers a convolution (any [`Conv2dParams`] setting) onto the windowed
/// GEMM into a new tensor — the kernel behind [`super::conv2d`]; results are
/// bit-identical to the direct reference kernel for every configuration.
///
/// With `verify` it is its ABFT twin: every lowered GEMM runs with a raw
/// epilogue, its Huang–Abraham checksums are folded over the staged windows
/// the multiply read ([`super::abft`]), and only then is the epilogue
/// applied — so clean outputs stay bit-identical while corrupted
/// accumulators surface as [`TensorError::CorruptionDetected`].
pub(crate) fn conv2d_lowered(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    verify: bool,
) -> Result<Tensor, TensorError> {
    let shape = conv_out_shape(input.shape(), weight.shape(), params)?;
    instrument::tallied(shape, |out| {
        lower_into(input.view(), weight, bias, params, None, verify, out)
    })
}

/// The output shape of a (possibly grouped) convolution.
fn conv_out_shape(input: Shape, weight: Shape, params: Conv2dParams) -> Result<Shape, TensorError> {
    let (n, c, h, w) = input.as_nchw()?;
    let (k, cpg, _, _) = weight.as_nchw()?;
    let groups = params.groups.max(1);
    if c % groups != 0 || k % groups != 0 || cpg != c / groups {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!(
                "groups={groups} incompatible with input channels {c}, weight [{k},{cpg},..]"
            ),
        });
    }
    // Shape algebra is the same as a dense conv with C/groups input
    // channels per filter.
    conv2d_out_shape(Shape::nchw(n, cpg, h, w), weight, params.pad, params.stride)
}

/// [`conv2d_lowered`], optionally with a fused trailing FP32 activation
/// `act`, into `out`, which must hold the output shape and whose every
/// element is written. Returns the work it did.
pub(crate) fn lower_into(
    input: View,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    act: Option<UnaryOp>,
    verify: bool,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    PreparedConv::new(input.shape(), weight, bias, params, act)?
        .run(input, weight, bias, verify, out)
}

/// Everything a convolution derives from its input shape, weights, bias and
/// knobs before it stages an image: its `Lowering` and its operands as
/// the GEMM reads them. [`super::conv2d_into`] prepares and runs in one
/// call; a compiled graph prepares once and runs many times.
pub struct PreparedConv {
    low: Lowering,
    params: Conv2dParams,
    input: Shape,
    weight: Shape,
    out: Shape,
    /// Every output channel's kept weight elements, FP16-rounded and
    /// LUT-quantised as the knobs ask; `None` where that is the weight
    /// tensor as it is (exact FP32 without filter sampling).
    weights: Option<Vec<f32>>,
    /// The FP16-rounded bias under FP16; `None` reads the bias tensor.
    bias: Option<Vec<f32>>,
    /// The LUT weights' quantisation scale.
    w_scale: f32,
    /// The operand preparation of one call ([`Lowering::prep_work`]): part
    /// of every call's work, done once.
    prep: Counters,
}

impl PreparedConv {
    /// Validates the knobs and shapes and prepares the weights: the checks
    /// and the setup [`super::conv2d_into`] runs before its kernel.
    pub fn new(
        input: Shape,
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: Conv2dParams,
        act: Option<UnaryOp>,
    ) -> Result<PreparedConv, TensorError> {
        params.approx.validate()?;
        params.mul.validate()?;
        act.map_or(Ok(()), UnaryOp::validate)?;
        let (_, _, h, w) = input.as_nchw()?;
        let (k, cpg, r, s) = weight.shape().as_nchw()?;
        let out = conv_out_shape(input, weight.shape(), params)?;
        if let Some(b) = bias {
            if b.len() != k {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d",
                    detail: format!("bias length {} != output channels {k}", b.len()),
                });
            }
        }
        let (_, _, ho, wo) = out.as_nchw()?;
        let low = Lowering::new((h, w), (k, cpg, r, s), (ho, wo), params, act, true);
        let prep = low.prep_work(params, input, weight.shape(), bias.is_some());

        // FP16 semantics: quantise operands, accumulate in f32, quantise
        // the result. The input is quantised row by row as it is staged;
        // weights and bias here. The LUT quantises the weights over the
        // whole tensor, then filter sampling keeps its elements.
        let fp16 = params.precision == Precision::Fp16;
        let bias = bias.filter(|_| fp16).map(|b| b.to_f16().data().to_vec());
        let mut weights = fp16.then(|| weight.to_f16().data().to_vec());
        let mut w_scale = 1.0;
        if let MulApprox::Lut { bits } = params.mul {
            let qw = lut::quantize_symmetric(weights.as_deref().unwrap_or(weight.data()), bits);
            (weights, w_scale) = (Some(qw.q), qw.scale);
        }
        let total = cpg * r * s;
        if low.kept.len() < total {
            let w = weights.as_deref().unwrap_or(weight.data());
            let kept = |oc: usize| low.kept.iter().map(move |&idx| w[oc * total + idx]);
            weights = Some((0..k).flat_map(kept).collect());
        }
        Ok(PreparedConv {
            low,
            params,
            input,
            weight: weight.shape(),
            out,
            weights,
            bias,
            w_scale,
            prep,
        })
    }

    /// The convolution of `input` into `out`, which must hold the output
    /// shape and whose every element is written; `weight` and `bias` are the
    /// tensors this was prepared from. Returns the work it did, the
    /// preparation's included.
    pub fn run(
        &self,
        input: View,
        weight: &Tensor,
        bias: Option<&Tensor>,
        verify: bool,
        out: &mut [f32],
    ) -> Result<Counters, TensorError> {
        if (input.shape(), weight.shape()) != (self.input, self.weight) {
            let detail = format!("prepared for {:?} × {:?}", self.input, self.weight);
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                detail,
            });
        }
        check_len(self.out, out.len())?;
        let (low, x, fp16) = (
            &self.low,
            input.data(),
            self.params.precision == Precision::Fp16,
        );
        let w = self.weights.as_deref().unwrap_or(weight.data());
        let b = self.bias.as_deref().or(bias.map(|t| t.data()));
        let through_f16 = |src: &[f32], dst: &mut [f32]| {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = f16::quantize(v);
            }
        };
        // One closure type per quantiser, so the plain FP32 staging loop
        // carries none of the others' code.
        let work = match self.params.mul {
            MulApprox::Exact if fp16 => run_lowered(low, &Fma, x, through_f16, w, b, out, verify),
            MulApprox::Exact => {
                let plain = |src: &[f32], dst: &mut [f32]| dst.copy_from_slice(src);
                run_lowered(low, &Fma, x, plain, w, b, out, verify)
            }
            MulApprox::Lut { bits } => {
                // Whole-tensor symmetric quantisation of the input, fitted
                // per call and applied while staging.
                let as_staged = x.iter().map(|&v| if fp16 { f16::quantize(v) } else { v });
                let sym = lut::Symmetric::fit(lut::max_abs(as_staged), bits);
                let kern = LutMul {
                    dequant: sym.scale * self.w_scale,
                };
                let quant = |src: &[f32], dst: &mut [f32]| quantize_lut(sym, fp16, src, dst);
                run_lowered(low, &kern, x, quant, w, b, out, verify)
            }
        };
        Ok(work? + self.prep)
    }
}

impl Lowering {
    /// Operand elements a convolution passes through a quantiser, a scale
    /// scan or the sampled weights' gather in preparing a call.
    fn prep_work(&self, params: Conv2dParams, input: Shape, weight: Shape, bias: bool) -> Counters {
        let (k, total) = (self.kpg * self.groups, weight.volume());
        let sampled = self.kept.len() < total / k.max(1);
        let mut prep = if sampled { k * self.kept.len() } else { 0 };
        prep += match params.mul {
            MulApprox::Exact if self.fp16 => total + if bias { k } else { 0 },
            MulApprox::Exact => 0,
            MulApprox::Lut { .. } => input.volume() + 2 * total,
        };
        Counters {
            operand_prep: prep as u64,
            ..Counters::default()
        }
    }
}

/// The work [`lower_into`] returns for these shapes and knobs, computed
/// without running it: its analytic twin.
pub(crate) fn lower_work(
    input: Shape,
    weight: Shape,
    bias: bool,
    params: Conv2dParams,
    act: Option<UnaryOp>,
) -> Result<Counters, TensorError> {
    params.approx.validate()?;
    params.mul.validate()?;
    let (n, _, h, w) = input.as_nchw()?;
    let (k, cpg, r, s) = weight.as_nchw()?;
    let (_, _, ho, wo) = conv_out_shape(input, weight, params)?.as_nchw()?;
    let low = Lowering::new((h, w), (k, cpg, r, s), (ho, wo), params, act, false);
    let group = match params.mul {
        MulApprox::Exact => low.group_work::<Fma>(),
        MulApprox::Lut { .. } => low.group_work::<LutMul>(),
    };
    let mut c = low.prep_work(params, input, weight, bias);
    for _ in 0..n * low.groups {
        c += group;
    }
    Ok(c)
}

/// The LUT multiplier's input quantiser over one staged row or plane:
/// binary16 first under FP16, then the symmetric integer grid. Kept out of
/// line: inlined into the staging loops, this loop compiled to code ten
/// times slower than the function on its own.
#[inline(never)]
fn quantize_lut(sym: lut::Symmetric, fp16: bool, src: &[f32], dst: &mut [f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = sym.q(if fp16 { f16::quantize(v) } else { v });
    }
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
            let mut unfused = conv2d_lowered(&x, &w, Some(&b), params, false).unwrap();
            let mut fused = unfused.clone();
            let relu = Some(UnaryOp::Relu);
            lower_into(
                x.view(),
                &w,
                Some(&b),
                params,
                relu,
                false,
                fused.data_mut(),
            )
            .unwrap();
            crate::ops::map_unary_in_place(unfused.data_mut(), UnaryOp::Relu, Precision::Fp32)
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
        assert!(conv2d_lowered(&x, &w, Some(&bad), params, false).is_err());
    }

    /// Stages `image` through the shifted-copy path and through the per-row
    /// path into differently poisoned buffers, so an element either path
    /// leaves unwritten shows as a difference, and compares them bit for bit.
    fn assert_shifted_staging_matches(
        low: &Lowering,
        image: &[f32],
        quant: impl Fn(&[f32], &mut [f32]),
        ctx: &str,
    ) {
        let len = low.staged_len() - PANEL;
        let mut shifted = vec![f32::from_bits(0x7FC0_0001); len + PANEL];
        let mut per_row = vec![f32::from_bits(0x7FC0_0002); len + PANEL];
        let mut row = vec![0.0; low.w + 2 * low.pw];
        low.stage_shifted(image, &quant, &mut shifted);
        low.stage_rows(image, &quant, &mut per_row, &mut row);
        for (i, (a, b)) in shifted[..len].iter().zip(&per_row[..len]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: staged elem {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn shifted_staging_matches_per_row_staging_bitwise() {
        let mut rng = StdRng::seed_from_u64(80);
        let specials = [-0.0, 0.0, f32::NAN, f32::INFINITY, -1e-40, 7e4, -3.0e38];
        let sym = lut::Symmetric::fit(2.0, 6);
        let plain = |src: &[f32], dst: &mut [f32]| dst.copy_from_slice(src);
        let through_f16 = |src: &[f32], dst: &mut [f32]| {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = f16::quantize(v);
            }
        };
        let lut = |src: &[f32], dst: &mut [f32]| quantize_lut(sym, false, src, dst);
        let lut_f16 = |src: &[f32], dst: &mut [f32]| quantize_lut(sym, true, src, dst);
        let mut approxes = vec![
            ConvApprox::Exact,
            ConvApprox::FilterSampling { k: 2, offset: 1 },
            ConvApprox::FilterSampling { k: 3, offset: 0 },
        ];
        for k in [2, 3] {
            approxes.extend((0..k).map(|offset| ConvApprox::Perforation {
                dim: PerforationDim::Row,
                k,
                offset,
            }));
        }
        let (cpg, h) = (2, 5);
        // Widths down to below the window, and one row of whole panels,
        // where row perforation keeps the rows in natural order.
        for s in [1, 3, 5, 7] {
            for w in (1..=9).chain([PANEL]) {
                let mut image = Tensor::uniform(Shape::nchw(1, cpg, h, w), -2.0, 2.0, &mut rng)
                    .data()
                    .to_vec();
                for (v, &special) in image.iter_mut().step_by(5).zip(specials.iter().cycle()) {
                    *v = special;
                }
                for &approx in &approxes {
                    let params = Conv2dParams {
                        pad: (s / 2, s / 2),
                        approx,
                        ..Default::default()
                    };
                    let low = Lowering::new((h, w), (3, cpg, s, s), (h, w), params, None, true);
                    assert!(low.shifts_planes());
                    let ctx = format!("s={s} w={w} {approx:?}");
                    assert_shifted_staging_matches(&low, &image, plain, &format!("{ctx} fp32"));
                    assert_shifted_staging_matches(
                        &low,
                        &image,
                        through_f16,
                        &format!("{ctx} fp16"),
                    );
                    assert_shifted_staging_matches(&low, &image, lut, &format!("{ctx} lut"));
                    assert_shifted_staging_matches(
                        &low,
                        &image,
                        lut_f16,
                        &format!("{ctx} lut+fp16"),
                    );
                }
            }
        }
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
