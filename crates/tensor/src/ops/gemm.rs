//! Register-blocked GEMM microkernels over a **windowed** B operand — the
//! shared compute core of the dense layers and of the implicit-GEMM
//! convolutions.
//!
//! `C[M,N] = A[M,K] × B[K,N]`, `A` and `C` row-major. `B` is never handed
//! over as a matrix: it is described (`Windows`) as a buffer plus, per
//! `Run` of columns, a table `row_off` of `K` offsets, and row `kk` of the
//! `PANEL` columns starting at a panel base is the contiguous window
//! `data[base + row_off[kk]..][..PANEL]`. A dense layer's `B` is copied once
//! into `K×PANEL` slabs (`pack_b_panels`) and its offsets are the
//! arithmetic progression `kk·PANEL`; a convolution's are the tap offsets
//! into an image staged once ([`super::im2col`]), so the patch matrix is
//! read in place and never written. Both run the same microkernel.
//!
//! The microkernel computes an `R`×`PANEL` output tile (8×32 at full
//! height) held entirely in registers: per `k` step it loads the panel's two
//! 16-float lane groups once, broadcasts one `A[i,k]` per tile row and
//! issues 2·`R` independent fused-multiply–add chains, hiding FMA latency
//! without reassociating any single output's sum. Rows are covered in groups
//! of 8, then 4, 2 and 1, so a 2–4-output-channel convolution runs the same
//! kernel as a 512-row matmul. The loops run **panel-outer, row-group-inner**:
//! a panel's `K` windows are brought into cache once and reused by every row
//! group of the block, which is what keeps a 64-channel convolution's
//! scattered windows from being re-fetched eight times. Build with
//! `target-cpu=native` (see `.cargo/config.toml`) so each 16-lane group maps
//! onto one 512-bit register (or a ymm pair on AVX2 parts).
//!
//! A run's last panel may be ragged: its surplus lanes are computed and
//! dropped (lanes never interact, so the kept outputs are unaffected), which
//! means a window may extend up to `PANEL − 1` elements past the run's last
//! column — the dense packing zero-pads for that, the staged image keeps
//! `PANEL` elements of slack behind it. Every window is an ordinary slice:
//! a description that pointed outside `data` would be a bounds panic, never
//! a stray read.
//!
//! **Bit-exactness contract**: every output element `C[i,j]` accumulates
//! its `K` products in strictly increasing `k` order into a single `f32`
//! accumulator via [`f32::mul_add`] (fused multiply–add, one rounding per
//! product), exactly like the naive reference kernel — so exact-FP32
//! results are bit-for-bit identical to [`super::reference`], for any tile
//! boundary, any loop order over tiles and any rayon thread count (parallel
//! tasks own disjoint row blocks and never split a `k` loop). FMA is part of
//! the contract: both sides must use it, and `mul_add` lowers to the same
//! single-rounding operation whether the target has an FMA unit or falls
//! back to libm. Where `B` lives changes no operand value, hence no bit.
//!
//! `LutMul` is the twin for the approximate-multiplier knobs: operands are
//! quantised integers held as `f32`, and each product is Mitchell's, in
//! closed form — one integer add on the two bit patterns ([`lut`]), zero
//! operands masked — over the same windows and tiles. The products are
//! integers below 2¹⁴, so their sums are exact and hence order-independent;
//! the multiplier's truth table (`lut::LutTable`) is only the tests'
//! oracle.

use crate::f16;
use crate::instrument::{Counters, MIN_TILE_ROWS};
use crate::lut;
use crate::ops::activation::UnaryOp;
use crate::par;
use rayon::prelude::*;

/// SIMD lane count the microkernel is unrolled for (f32x16 ≙ AVX-512 zmm;
/// lowers to a ymm pair on AVX2-only parts).
const LANES: usize = 16;
/// Lane groups per panel.
const V: usize = 2;
/// Columns per panel: the width of every window a kernel reads.
pub(crate) const PANEL: usize = V * LANES;
/// Output rows per rayon task: eight full-height row groups share each panel
/// they bring into cache.
const ROW_BLOCK: usize = 64;

/// What happens to each accumulated output element before it is stored.
///
/// The variants replicate — expression for expression — the epilogues of
/// the reference kernels, so fused execution stays bit-identical to the
/// unfused op sequence.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator.
    Raw,
    /// Convolution epilogue: `v = acc·scale + bias[row]`, then optional
    /// fp16 quantisation, then the optional fused activation (in that order
    /// — the same order the unfused conv → activation node sequence applies
    /// them).
    Conv {
        /// Filter-sampling compensation factor (1.0 when exact).
        scale: f32,
        /// Per-output-channel bias, indexed by GEMM row; `None` adds 0.0
        /// (the reference kernel also always adds its `bias_v`).
        bias: Option<&'a [f32]>,
        /// Quantise through binary16 after bias.
        fp16: bool,
        /// The FP32 activation node fused behind the convolution, applied
        /// last.
        act: Option<UnaryOp>,
    },
    /// Dense-layer epilogue: optional fp16 quantisation of the product,
    /// then per-*column* bias, then fp16 again — matching the unfused
    /// matmul → bias-add pair of the reference oracle exactly.
    Dense {
        /// Per-column bias.
        bias: Option<&'a [f32]>,
        /// Quantise through binary16 (before and after the bias add).
        fp16: bool,
    },
}

impl Epilogue<'_> {
    /// Adds the work [`Epilogue::apply_row`] does on `rows` rows of `len`
    /// elements to `c`.
    pub(crate) fn count_rows(&self, rows: u64, len: usize, c: &mut Counters) {
        let len = rows * len as u64;
        match *self {
            Epilogue::Raw => {}
            Epilogue::Conv { fp16, act, .. } => {
                c.epi_affine += len;
                c.epi_fp16 += if fp16 { len } else { 0 };
                if let Some(op) = act {
                    *c.epi_field(op) += len;
                }
            }
            Epilogue::Dense { bias, fp16 } => {
                let passes = 1 + u64::from(bias.is_some());
                c.epi_fp16 += if fp16 { passes * len } else { 0 };
                c.epi_affine += if bias.is_some() { len } else { 0 };
            }
        }
    }

    /// Applies the epilogue in place to the raw accumulators of output row
    /// `row`. What does not vary along a row (variant, bias presence, the
    /// row's bias, the flags) is resolved once, so each step is a
    /// branch-free pass the compiler vectorises; every element still goes
    /// through the same operations in the same order.
    pub(crate) fn apply_row(&self, row: usize, orow: &mut [f32]) {
        let quantize = |orow: &mut [f32]| orow.iter_mut().for_each(|v| *v = f16::quantize(*v));
        match *self {
            Epilogue::Raw => {}
            Epilogue::Conv {
                scale,
                bias,
                fp16,
                act,
            } => {
                let b = bias.map_or(0.0, |b| b[row]);
                orow.iter_mut().for_each(|v| *v = *v * scale + b);
                if fp16 {
                    quantize(orow);
                }
                if let Some(op) = act {
                    op.apply_slice(orow);
                }
            }
            Epilogue::Dense { bias, fp16 } => {
                if fp16 {
                    quantize(orow);
                }
                if let Some(b) = bias {
                    let b = &b[..orow.len()];
                    orow.iter_mut().zip(b).for_each(|(v, &b)| *v += b);
                    if fp16 {
                        quantize(orow);
                    }
                }
            }
        }
    }
}

/// A run of GEMM columns whose windows advance linearly: column `j` of the
/// run reads element `j % PANEL` of the panel based at `j / PANEL · step`.
pub(crate) struct Run {
    /// Columns in the run.
    pub len: usize,
    /// Distance between the bases of consecutive panels: [`PANEL`] where
    /// consecutive columns are consecutive elements (a staged image),
    /// `K·PANEL` for packed slabs.
    pub step: usize,
    /// Offset of each of the `K` rows' windows from a panel base.
    pub row_off: Vec<usize>,
}

/// The B operand of a GEMM as the kernels address it; its columns are the
/// runs' columns, concatenated.
pub(crate) struct Windows<'a> {
    pub data: &'a [f32],
    /// Rows of `B` (= length of every run's `row_off`).
    pub k: usize,
    pub runs: &'a [Run],
}

/// One panel of a [`Windows`]: output columns `col..col + width`, row `kk`
/// read from `data[base + row_off[kk]..][..PANEL]`.
pub(crate) struct Panel<'a> {
    pub col: usize,
    pub width: usize,
    pub base: usize,
    pub row_off: &'a [usize],
}

impl Windows<'_> {
    /// Columns of `B`.
    pub(crate) fn n(&self) -> usize {
        self.runs.iter().map(|run| run.len).sum()
    }

    /// Every panel, in column order.
    pub(crate) fn panels(&self) -> impl Iterator<Item = Panel<'_>> {
        let mut col = 0;
        self.runs.iter().flat_map(move |run| {
            let start = col;
            col += run.len;
            (0..run.len).step_by(PANEL).map(move |j| Panel {
                col: start + j,
                width: PANEL.min(run.len - j),
                base: j / PANEL * run.step,
                row_off: &run.row_off,
            })
        })
    }
}

/// How products are formed and summed: the exact FMA chain or the exact
/// sum of Mitchell products. One tile function each; everything around it
/// (operand addressing, row cover, loop order, forking, epilogue) is shared.
pub(crate) trait MulKernel: Sync {
    /// Multiplies that cost as much as one element-wise item of
    /// [`par::GRAIN`], for the fork-or-inline rule.
    const MULS_PER_ITEM: usize;
    /// The counter of this kernel's tile steps.
    fn steps(c: &mut Counters) -> &mut u64;
    /// Raw accumulators of rows `i0..i0 + R` of `a` against one panel of
    /// `b` (all [`PANEL`] lanes, surplus ones included).
    fn tile<const R: usize>(
        &self,
        a: &[f32],
        i0: usize,
        b: &[f32],
        panel: &Panel,
    ) -> [[f32; PANEL]; R];
}

/// The exact multiplier: ≈ 25 G multiply–adds/s against ≈ 3 G element-wise
/// items/s (a `tanh`, a binary16 round-trip), so a GEMM forks from 1 Mi
/// multiply–adds per thread.
pub(crate) struct Fma;

impl MulKernel for Fma {
    const MULS_PER_ITEM: usize = 8;

    fn steps(c: &mut Counters) -> &mut u64 {
        &mut c.fma_steps
    }

    /// Shares each B vector load across all `R` rows' accumulator chains —
    /// the classic register-blocking trade: more independent FMA chains in
    /// flight per byte loaded. 8 rows × 2 vectors = 16 accumulator vectors
    /// + 2 B vectors + 1 broadcast, within the 32 SIMD registers of AVX-512.
    ///
    /// Every output element accumulates its `K` products in strictly
    /// increasing `k` order into its own single `f32`, whatever `R`, so the
    /// result is bit-identical to the naive reference.
    // The `0..k` counter loop with `arows[r][kk]` indexing is deliberate: it
    // is the shape LLVM turns into the spill-free broadcast+FMA loop; the
    // iterator rewrite clippy suggests pessimises register allocation here.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    fn tile<const R: usize>(
        &self,
        a: &[f32],
        i0: usize,
        b: &[f32],
        panel: &Panel,
    ) -> [[f32; PANEL]; R] {
        let k = panel.row_off.len();
        let mut acc = [[[0.0f32; LANES]; V]; R];
        // Whole-row slices of length k: `arows[r][kk]` is then provably in
        // bounds for every `kk` in `0..k`; the window slice is the one check
        // left per step.
        let arows: [&[f32]; R] = core::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        for kk in 0..k {
            let brow = &b[panel.base + panel.row_off[kk]..][..PANEL];
            let mut bv = [[0.0f32; LANES]; V];
            for (c, bvc) in bv.iter_mut().enumerate() {
                bvc.copy_from_slice(&brow[c * LANES..(c + 1) * LANES]);
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = arows[r][kk];
                for (c, accv) in accr.iter_mut().enumerate() {
                    for (l, s) in accv.iter_mut().enumerate() {
                        *s = av.mul_add(bv[c][l], *s);
                    }
                }
            }
        }
        acc.map(|accr| {
            let mut row = [0.0f32; PANEL];
            row.copy_from_slice(accr.as_flattened());
            row
        })
    }
}

/// Steps an `f32` accumulator takes before it is widened: a product is a
/// Mitchell product of magnitudes ≤ 127, which never exceeds the exact one,
/// so `|p| ≤ 127² < 2¹⁴`, and every partial sum of `2¹⁰` of them is an
/// integer below `2²⁴` — exactly representable, whatever the order.
const LUT_BLOCK: usize = 1 << 10;

/// The approximate multiplier over operands from
/// [`lut::quantize_symmetric`]: integers `|q| ≤ 127` held as `f32`. Sums are
/// dequantised by `dequant` (= scale_A · scale_B).
pub(crate) struct LutMul {
    pub dequant: f32,
}

impl LutMul {
    /// Exact `f32` sums of the products of steps `ks` (at most
    /// [`LUT_BLOCK`] of them) for rows `arows` against one panel.
    ///
    /// Per `k` step the window's two 16-lane groups are loaded once, their
    /// patterns offset by [`lut::ONE_BITS`] and their zero lanes turned into
    /// a zero mask; each row then adds its operand's pattern — one integer
    /// add, the signed Mitchell product in every lane ([`lut`]) — masks, and
    /// accumulates with a fused multiply–add by `min(|a|, 1)`, 1 for a
    /// non-zero operand and 0 for a zero one (`p·1 + s` and `p·0 + s` round
    /// to `s + p` and `s`). Both zero tests are data, not branches: `0 × b`
    /// and `a × 0` give garbage patterns, and even a tiny one would make an
    /// all-zero sum non-zero. A sum is never `−0.0`, so adding a masked
    /// `+0.0` leaves its bits alone.
    // The FMA tile's counter loops and `[[[f32; LANES]; V]; R]` layout on
    // purpose: with the zero tests as `if`s or `bool` arrays LLVM branches
    // per row or falls back to scalar code.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn block<const R: usize>(
        arows: &[&[f32]; R],
        b: &[f32],
        panel: &Panel,
        ks: core::ops::Range<usize>,
    ) -> [[[f32; LANES]; V]; R] {
        let mut acc = [[[0.0f32; LANES]; V]; R];
        for kk in ks {
            let brow = &b[panel.base + panel.row_off[kk]..][..PANEL];
            let mut boff = [[0u32; LANES]; V];
            let mut bmask = [[0u32; LANES]; V];
            for c in 0..V {
                for l in 0..LANES {
                    let v = brow[c * LANES + l];
                    boff[c][l] = v.to_bits().wrapping_sub(lut::ONE_BITS);
                    bmask[c][l] = u32::from(v != 0.0).wrapping_neg();
                }
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = arows[r][kk];
                let (abits, ascale) = (av.to_bits(), av.abs().min(1.0));
                for (c, accv) in accr.iter_mut().enumerate() {
                    for (l, s) in accv.iter_mut().enumerate() {
                        let p = f32::from_bits(abits.wrapping_add(boff[c][l]) & bmask[c][l]);
                        *s = p.mul_add(ascale, *s);
                    }
                }
            }
        }
        acc
    }

    /// `sum · dequant` per lane, rows flattened to panel width.
    #[inline(always)]
    fn dequantised<const R: usize>(&self, mut sums: [[[f32; LANES]; V]; R]) -> [[f32; PANEL]; R] {
        for s in sums.as_flattened_mut().as_flattened_mut() {
            *s *= self.dequant;
        }
        sums.map(|accr| {
            let mut row = [0.0f32; PANEL];
            row.copy_from_slice(accr.as_flattened());
            row
        })
    }
}

impl MulKernel for LutMul {
    /// Measured like [`par::GRAIN`] (2-vCPU Xeon VM, one thread, `matmul_ex`
    /// at 128 vs 64 × 512 × 512, min of 8 × 10): a product costs 0.042–0.052
    /// ns at the margin (an FMA: 0.010–0.014 ns), against 0.10 (ReLU) to 0.60
    /// (`tanh` under FP16) ns per element-wise item. So `GRAIN` items' worth is 512 Ki products, ≈ 24
    /// µs, and the 6–8 µs hand-off stays under a third of each thread's
    /// share, GRAIN's own margin. Forking Alexnet2-Tiny LUT convolutions
    /// across two threads broke even at ≈ 0.2 M products per thread and won
    /// 6–24 % at 0.3–0.45 M when the sibling vCPU was idle, and lost at
    /// every size when a neighbour kept it busy.
    const MULS_PER_ITEM: usize = 4;

    fn steps(c: &mut Counters) -> &mut u64 {
        &mut c.lut_steps
    }

    /// The FMA tile with the multiply replaced by Mitchell's closed form
    /// ([`LutMul::block`]). Sums of up to [`LUT_BLOCK`] products are
    /// integers below `2²⁴`, hence exact, and for `k ≤ LUT_BLOCK` (every zoo
    /// layer) the one block is the result; a longer `k` widens each block
    /// into `f64` totals, also exact. Either way `sum as f32 · dequant` is
    /// the float that the reference's table-served `i64` sum gives.
    #[inline]
    fn tile<const R: usize>(
        &self,
        a: &[f32],
        i0: usize,
        b: &[f32],
        panel: &Panel,
    ) -> [[f32; PANEL]; R] {
        let k = panel.row_off.len();
        let arows: [&[f32]; R] = core::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        if k <= LUT_BLOCK {
            return self.dequantised(Self::block(&arows, b, panel, 0..k));
        }
        let mut total = [[0.0f64; PANEL]; R];
        for k0 in (0..k).step_by(LUT_BLOCK) {
            let acc = Self::block(&arows, b, panel, k0..k.min(k0 + LUT_BLOCK));
            widen(total.as_flattened_mut(), acc.as_flattened().as_flattened());
        }
        let mut sums = [[[0.0f32; LANES]; V]; R];
        narrow(
            sums.as_flattened_mut().as_flattened_mut(),
            total.as_flattened(),
        );
        self.dequantised(sums)
    }
}

/// `total += sums`, lane by lane, in `f64`. A slice loop of its own, and not
/// inlined: written over the tile's fixed-size arrays, the widening
/// compiles to gathers and scatters.
#[inline(never)]
fn widen(total: &mut [f64], sums: &[f32]) {
    for (t, &s) in total.iter_mut().zip(sums) {
        *t += f64::from(s);
    }
}

/// `sums = total as f32`, lane by lane (see [`widen`]).
#[inline(never)]
fn narrow(sums: &mut [f32], total: &[f64]) {
    for (s, &t) in sums.iter_mut().zip(total) {
        *s = t as f32;
    }
}

/// Reorders a row-major B into contiguous `K×PANEL` column slabs,
/// panel-major, the last one zero-padded to full width. Row-major B would be
/// a valid [`Windows`] as it stands (`row_off[kk] = kk·n`), but its windows
/// sit `n` floats apart — at GEMM sizes a fresh cache line (and every other
/// step a fresh page) per `k` step, which stalls on L2/TLB because stride
/// prefetchers give up at page boundaries. Packing costs one `O(K·N)` pass
/// and turns the `O(M·K·N)` hot loop into sequential reads. Pure data
/// movement: the arithmetic, and therefore every output bit, is unchanged.
/// The buffer is sized once and every slot written once, each `k` row's
/// window in place (under the identity `quant`, a plain copy).
fn pack_b_panels(k: usize, n: usize, b: &[f32], quant: impl Fn(f32) -> f32, packed: &mut Vec<f32>) {
    packed.resize(packed_len(k, n), 0.0);
    for (slab, j) in packed
        .chunks_exact_mut((k * PANEL).max(1))
        .zip((0..n).step_by(PANEL))
    {
        let width = PANEL.min(n - j);
        for (dst, src) in slab.chunks_exact_mut(PANEL).zip(b[j..].chunks(n)) {
            let (dst, pad) = dst.split_at_mut(width);
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = quant(v);
            }
            pad.fill(0.0);
        }
    }
}

thread_local! {
    /// The packed `B` of this thread's last dense GEMM: taken for the call
    /// and put back, so the buffer is reused once it has grown.
    static PACKED: std::cell::Cell<Vec<f32>> = Default::default();
}

/// A dense layer's `B` packed into slabs ([`pack_b_panels`]), with the
/// one run of windows over them.
pub(crate) struct PackedB {
    data: Vec<f32>,
    /// Rows of `B`.
    pub(crate) k: usize,
    run: [Run; 1],
}

impl PackedB {
    /// Packs the row-major `K×N` `b` into `buf`'s storage, each element
    /// through `quant` on its way in (so an FP16 or LUT operand needs no
    /// quantised copy of its own).
    pub(crate) fn new(
        k: usize,
        n: usize,
        b: &[f32],
        quant: impl Fn(f32) -> f32,
        mut buf: Vec<f32>,
    ) -> PackedB {
        assert_eq!(b.len(), k * n, "gemm B size");
        pack_b_panels(k, n, b, quant, &mut buf);
        let run = Run {
            len: n,
            step: k * PANEL,
            row_off: (0..k).map(|kk| kk * PANEL).collect(),
        };
        PackedB {
            data: buf,
            k,
            run: [run],
        }
    }

    /// This thread's slab buffer, for a packing that lives for one call;
    /// [`PackedB::recycle`] gives it back.
    pub(crate) fn call_buf() -> Vec<f32> {
        PACKED.take()
    }

    /// Returns the slab buffer to this thread for its next packing.
    pub(crate) fn recycle(self) {
        PACKED.set(self.data);
    }

    /// The slabs as the kernels address them.
    pub(crate) fn windows(&self) -> Windows<'_> {
        Windows {
            data: &self.data,
            k: self.k,
            runs: &self.run,
        }
    }
}

/// `R` whole output rows (`orows` is `R·n` long, row `i0` of `a` first)
/// against one panel.
fn tile_into<K: MulKernel, const R: usize>(
    kern: &K,
    a: &[f32],
    i0: usize,
    b: &[f32],
    panel: &Panel,
    n: usize,
    orows: &mut [f32],
) {
    let acc = kern.tile::<R>(a, i0, b, panel);
    for (orow, accr) in orows.chunks_mut(n).zip(&acc) {
        let dst = &mut orow[panel.col..][..panel.width];
        // A full panel is two inline vector stores; only a ragged one pays
        // for a run-time-length copy.
        match <&mut [f32; PANEL]>::try_from(&mut *dst) {
            Ok(full) => *full = *accr,
            Err(_) => dst.copy_from_slice(&accr[..panel.width]),
        }
    }
}

/// `out[M,N] = epi(A[M,K] × B)` over a windowed `B`.
///
/// Parallelised over fixed [`ROW_BLOCK`]-row chunks (forked only when every
/// thread gets [`par::GRAIN`] worth of multiplies). Inside a chunk the loop
/// is panel-outer: each panel is covered by register-blocked row groups of
/// 8, then 4, 2 and 1 rows — full tiles first, then the largest that still
/// fits what is left — before the next panel is touched. Adds the work it
/// did to `work`: `m·k·n` multiplies, one call, one tile step per tile row
/// and `k` step, and the epilogue's elements, counted per tile and per
/// row.
pub(crate) fn gemm_windows<K: MulKernel>(
    kern: &K,
    m: usize,
    a: &[f32],
    b: &Windows,
    out: &mut [f32],
    epi: &Epilogue,
    work: &mut Counters,
) {
    let (k, n) = (b.k, b.n());
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(out.len(), m * n, "gemm C size");
    if m == 0 || n == 0 {
        return;
    }
    // Tile steps and epilogue rows: each row block's, folded in order.
    let (steps, epi_rows) = out
        .par_chunks_mut(ROW_BLOCK * n)
        .with_min_len(par::min_chunks(ROW_BLOCK * k * n / K::MULS_PER_ITEM))
        .enumerate()
        .map(|(blk, ob)| {
            let (i0, rows) = (blk * ROW_BLOCK, ob.len() / n);
            let mut block_steps = 0;
            for panel in b.panels() {
                let mut d = 0;
                for r in [8, 4, 2, 1] {
                    while d + r <= rows {
                        let orows = &mut ob[d * n..(d + r) * n];
                        match r {
                            8 => tile_into::<K, 8>(kern, a, i0 + d, b.data, &panel, n, orows),
                            4 => tile_into::<K, 4>(kern, a, i0 + d, b.data, &panel, n, orows),
                            2 => tile_into::<K, 2>(kern, a, i0 + d, b.data, &panel, n, orows),
                            _ => tile_into::<K, 1>(kern, a, i0 + d, b.data, &panel, n, orows),
                        }
                        block_steps += r.max(MIN_TILE_ROWS) * k;
                        d += r;
                    }
                }
            }
            let mut block_rows = 0;
            for (di, orow) in ob.chunks_mut(n).enumerate() {
                epi.apply_row(i0 + di, orow);
                block_rows += 1;
            }
            (block_steps as u64, block_rows)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    work.muls += (m * k * n) as u64;
    work.gemm_calls += 1;
    *K::steps(work) += steps;
    epi.count_rows(epi_rows, n, work);
}

/// The tile rows [`gemm_windows`] counts per panel and `k` step for `m`
/// output rows: each [`ROW_BLOCK`] is covered by tiles of 8, then 4, 2
/// and 1 rows, each counted as at least [`MIN_TILE_ROWS`].
pub(crate) fn padded_rows(m: usize) -> usize {
    (0..m)
        .step_by(ROW_BLOCK)
        .map(|i0| {
            let rows = ROW_BLOCK.min(m - i0);
            let tail = rows % 8;
            8 * (rows / 8) + MIN_TILE_ROWS * tail.count_ones() as usize
        })
        .sum()
}

/// Packs a row-major `K×N` `B` for one call ([`PackedB::call_buf`]) and
/// hands the slabs to `run` as [`Windows`] — for [`gemm_windows`] or its
/// checksum-verified twin.
pub(crate) fn gemm_dense<T>(
    k: usize,
    n: usize,
    b: &[f32],
    quant: impl Fn(f32) -> f32,
    run: impl FnOnce(&Windows) -> T,
) -> T {
    let packed = PackedB::new(k, n, b, quant, PackedB::call_buf());
    let done = run(&packed.windows());
    packed.recycle();
    done
}

/// Elements [`PackedB::new`] packs for a `K×N` `B`: whole panels, the last
/// one zero-padded.
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(PANEL) * k * PANEL
}

/// Tiled f32 GEMM with fused epilogue: `out[M,N] = epi(A[M,K] × B[K,N])`,
/// all row-major. Returns the multiplies it ran.
pub fn gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    epi: &Epilogue,
) -> u64 {
    let mut work = Counters::default();
    gemm_dense(
        k,
        n,
        b,
        |v| v,
        |b| gemm_windows(&Fma, m, a, b, out, epi, &mut work),
    );
    work.muls
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LUT kernel on the dense path over operands already on the
    /// quantised grid, raw sums dequantised by `dequant`.
    fn gemm_lut(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], dequant: f32, out: &mut [f32]) {
        let kern = LutMul { dequant };
        let mut work = Counters::default();
        gemm_dense(
            k,
            n,
            b,
            |v| v,
            |b| gemm_windows(&kern, m, a, b, out, &Epilogue::Raw, &mut work),
        );
    }

    #[test]
    fn small_gemm_matches_hand_product() {
        // [2,3] × [3,2]
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0f32; 4];
        gemm_f32(2, 3, 2, &a, &b, &mut c, &Epilogue::Raw);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn wide_panel_and_tails_agree_with_scalar() {
        // n = 32 + 32 + 13 exercises full panels and the zero-padded ragged
        // one in one call; m = 3 the 2- and 1-row groups.
        let m = 3;
        let k = 17;
        let n = 77;
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut c, &Epilogue::Raw);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for kk in 0..k {
                    want = a[i * k + kk].mul_add(b[kk * n + j], want);
                }
                assert_eq!(c[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn conv_epilogue_order() {
        let e = Epilogue::Conv {
            scale: 2.0,
            bias: Some(&[1.0]),
            fp16: false,
            act: Some(UnaryOp::Relu),
        };
        let mut row = [3.0, -3.0];
        e.apply_row(0, &mut row);
        assert_eq!(row, [7.0, 0.0], "relu after bias");
    }

    #[test]
    fn dense_epilogue_matches_unfused_fp16_path() {
        let bias = [0.1f32, 0.2];
        let e = Epilogue::Dense {
            bias: Some(&bias),
            fp16: true,
        };
        let acc = 1.2345678f32;
        let want = crate::f16::quantize(crate::f16::quantize(acc) + bias[1]);
        let mut row = [0.0, acc];
        e.apply_row(0, &mut row);
        assert_eq!(row[1].to_bits(), want.to_bits());
    }

    #[test]
    fn lut_gemm_matches_scalar_reference() {
        let m = 2;
        let k = 9;
        let n = 13;
        let a: Vec<f32> = (0..m * k).map(|i| (i % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 9) as f32 - 4.0).collect();
        let dq = 0.25f32;
        let mut c = vec![0.0f32; m * n];
        gemm_lut(m, k, n, &a, &b, dq, &mut c);
        for (idx, &got) in c.iter().enumerate() {
            let want = lut_scalar(4, &a, &b, k, n, idx / n, idx % n, dq);
            assert_eq!(got.to_bits(), want.to_bits(), "({}, {})", idx / n, idx % n);
        }
    }

    /// `out[i,j]` as the reference computes it: the `i64` sum of
    /// `LutTable::mul` products, rounded once to `f32`, times `dq`.
    #[allow(clippy::too_many_arguments)]
    fn lut_scalar(
        bits: u8,
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        i: usize,
        j: usize,
        dq: f32,
    ) -> f32 {
        let table = crate::lut::lut_for(bits);
        let sum: i64 = (0..k)
            .map(|kk| i64::from(table.mul(a[i * k + kk] as i16, b[kk * n + j] as i16)))
            .sum();
        sum as f32 * dq
    }

    /// Runs `gemm_lut` and compares every output with [`lut_scalar`] by bits.
    #[allow(clippy::too_many_arguments)]
    fn assert_lut_gemm_bits(bits: u8, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], dq: f32) {
        let mut c = vec![0.0f32; m * n];
        gemm_lut(m, k, n, a, b, dq, &mut c);
        for (idx, &got) in c.iter().enumerate() {
            let want = lut_scalar(bits, a, b, k, n, idx / n, idx % n, dq);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "bits={bits} m={m} k={k} n={n} ({}, {}): {got} vs {want}",
                idx / n,
                idx % n
            );
        }
    }

    #[test]
    fn closed_form_equals_the_table_for_every_pair_and_bitwidth() {
        // An outer product (k = 1) of every quantised value with every
        // other: each output is one kernel product, zeros included, and
        // must be the table's integer to the bit (`+0.0` where an operand
        // is zero).
        for bits in crate::lut::MIN_BITS..=crate::lut::MAX_BITS {
            let q = crate::lut::qmax(bits);
            let vals: Vec<f32> = (-q..=q).map(|v| v as f32).collect();
            let n = vals.len();
            let mut c = vec![0.0f32; n * n];
            gemm_lut(n, 1, n, &vals, &vals, 1.0, &mut c);
            let table = crate::lut::lut_for(bits);
            for (idx, &got) in c.iter().enumerate() {
                let (a, b) = (vals[idx / n], vals[idx % n]);
                let want = table.mul(a as i16, b as i16) as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "{bits} bits: {a} × {b}");
                assert_eq!(got.fract(), 0.0, "{bits} bits: {a} × {b} = {got}");
            }
        }
    }

    #[test]
    fn lut_gemm_zero_rows_columns_and_cancelling_sums_are_plus_zero() {
        // Row 0 of A and column 1 of B are all zero (a `−0.0` among them);
        // row 1 against column 0 cancels exactly (x·y, then −x·y); row 2
        // pairs `±0` with non-zero operands and non-zero operands with
        // zeros. Every output with no non-zero product, or with products
        // that cancel, must be `+0.0`: the bits of `0i64 as f32 · dq`.
        let (m, k, n) = (3, 6, 3);
        let a = [
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
            5.0, -5.0, 7.0, 7.0, -3.0, 3.0, //
            -0.0, 9.0, 0.0, 127.0, 1.0, -2.0,
        ];
        let b = [
            3.0, 0.0, 0.0, //
            3.0, 0.0, 4.0, //
            11.0, 0.0, -2.0, //
            -11.0, 0.0, 0.0, //
            6.0, -0.0, 0.0, //
            6.0, 0.0, 0.0,
        ];
        assert_lut_gemm_bits(8, m, k, n, &a, &b, 0.5);
        let mut c = vec![f32::NAN; m * n];
        gemm_lut(m, k, n, &a, &b, 0.5, &mut c);
        for idx in [0, 1, 2, 3, 4, 7] {
            assert_eq!(c[idx].to_bits(), 0.0f32.to_bits(), "output {idx}");
        }
    }

    #[test]
    fn lut_gemm_is_exact_across_the_widening_boundary() {
        // Operands at ±qmax with a ±1 in every fifth step, so products are
        // ±16128 and ±127 and the sums pass 2²⁵ with odd terms in
        // them: a block that ran past LUT_BLOCK steps, or totals kept in
        // `f32`, would round where the `i64` reference does not. k walks
        // both sides of one block and three blocks and a step; m = 3 covers
        // the 2- and 1-row groups, n = 33 a full panel and a one-lane
        // ragged one.
        let table = crate::lut::lut_for(8);
        assert!(i64::from(table.mul(127, 127)) * (3 * LUT_BLOCK as i64) > 1 << 24);
        let (m, n) = (3, 33);
        for k in [LUT_BLOCK - 1, LUT_BLOCK, LUT_BLOCK + 1, 3 * LUT_BLOCK + 1] {
            let a: Vec<f32> = (0..m * k)
                .map(|idx| match idx / k {
                    0 => 127.0,
                    1 => -127.0,
                    _ => [127.0, -127.0][idx % 2],
                })
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|idx| {
                    let (kk, j) = (idx / n, idx % n);
                    if kk % 5 == 1 {
                        [1.0, -1.0][j % 2]
                    } else if j < 20 || kk % 3 == 0 {
                        127.0
                    } else {
                        -127.0
                    }
                })
                .collect();
            assert_lut_gemm_bits(8, m, k, n, &a, &b, 0.5);
        }
    }

    #[test]
    fn lut_gemm_ragged_widths_match_scalar() {
        let (m, k) = (5, 19);
        for n in [1, 31, 33, 77] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37) % 255) as f32 - 127.0)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 91) % 255) as f32 - 127.0)
                .collect();
            assert_lut_gemm_bits(8, m, k, n, &a, &b, 0.125);
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm_f32(0, 4, 0, &[], &[], &mut c, &Epilogue::Raw);
        let mut c1 = vec![0.0f32; 3];
        // K = 0: outputs are the epilogue of a zero accumulator.
        gemm_f32(
            1,
            0,
            3,
            &[],
            &[],
            &mut c1,
            &Epilogue::Conv {
                scale: 1.0,
                bias: Some(&[5.0]),
                fp16: false,
                act: None,
            },
        );
        assert_eq!(c1, [5.0, 5.0, 5.0]);
    }
}
