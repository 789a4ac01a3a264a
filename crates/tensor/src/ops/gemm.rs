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
//! `LutMul` is the integer twin for the LUT approximate-multiplier path:
//! `i16`-quantised operands, table-served products gathered 32 lanes at a
//! time over the same windows, exact integer accumulation (associative,
//! hence trivially order-independent).

use crate::f16;
use crate::instrument;
use crate::lut::{self, LutTable};
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
    /// `matmul` → `bias_add_rows` pair exactly.
    Dense {
        /// Per-column bias.
        bias: Option<&'a [f32]>,
        /// Quantise through binary16 (before and after the bias add).
        fp16: bool,
    },
}

impl Epilogue<'_> {
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
pub(crate) struct Windows<'a, T> {
    pub data: &'a [T],
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

impl<T> Windows<'_, T> {
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

/// How products are formed and summed: the exact FMA chain or the
/// table-served integer sum. One tile function each; everything around it
/// (operand addressing, row cover, loop order, forking, epilogue) is shared.
pub(crate) trait MulKernel: Sync {
    type Elem: Copy + Default + Send + Sync;
    /// Multiplies that cost as much as one element-wise item of
    /// [`par::GRAIN`], for the fork-or-inline rule.
    const MULS_PER_ITEM: usize;
    /// Raw accumulators of rows `i0..i0 + R` of `a` against one panel of
    /// `b` (all [`PANEL`] lanes, surplus ones included).
    fn tile<const R: usize>(
        &self,
        a: &[Self::Elem],
        i0: usize,
        b: &[Self::Elem],
        panel: &Panel,
    ) -> [[f32; PANEL]; R];
}

/// The exact multiplier: ≈ 25 G multiply–adds/s against ≈ 3 G element-wise
/// items/s (a `tanh`, a binary16 round-trip), so a GEMM forks from 1 Mi
/// multiply–adds per thread.
pub(crate) struct Fma;

impl MulKernel for Fma {
    type Elem = f32;
    const MULS_PER_ITEM: usize = 8;

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

/// Products an `i32` lane can absorb before it is widened: table entries
/// are at most `127²` (Mitchell never over-approximates, and [`lut::ROW`]
/// caps the magnitudes), so `2¹⁶` of them stay below `2³⁰`.
const LUT_BLOCK: usize = 1 << 16;

/// The LUT approximate multiplier over operands from
/// [`lut::quantize_symmetric`] at the table's bitwidth; sums are
/// dequantised by `dequant` (= scale_A · scale_B). A table-served product
/// costs about one element-wise item.
pub(crate) struct LutMul<'a> {
    pub table: &'a LutTable,
    pub dequant: f32,
}

impl MulKernel for LutMul<'_> {
    type Elem = i16;
    const MULS_PER_ITEM: usize = 1;

    /// Per `k` step the window's 32 magnitudes and sign masks are formed
    /// once and shared by the `R` rows; each row then gathers its 32
    /// products from its operand's table row and adds them, negated where
    /// the signs differ (`(p ^ s) − s` with `s ∈ {0, −1}`: a mask, not a
    /// branch), into an `R`×32 tile of `i32` partial sums held in registers.
    /// Integer addition is exact and associative, and the tile is widened
    /// into `i64` totals every [`LUT_BLOCK`] steps — before any lane can
    /// overflow — so the result is the same integer the element-at-a-time
    /// `i64` loop produces.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    fn tile<const R: usize>(
        &self,
        a: &[i16],
        i0: usize,
        b: &[i16],
        panel: &Panel,
    ) -> [[f32; PANEL]; R] {
        let k = panel.row_off.len();
        let mut total = [[0i64; PANEL]; R];
        let arows: [&[i16]; R] = core::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        for k0 in (0..k).step_by(LUT_BLOCK) {
            let mut acc = [[0i32; PANEL]; R];
            for kk in k0..k.min(k0 + LUT_BLOCK) {
                let window = &b[panel.base + panel.row_off[kk]..][..PANEL];
                let brow: &[i16; PANEL] = match window.try_into() {
                    Ok(v) => v,
                    Err(_) => unreachable!("window is exactly PANEL wide"),
                };
                let bmag = brow.map(|v| u32::from(v.unsigned_abs()));
                let bneg = brow.map(|v| i32::from(v >> 15));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = arows[r][kk];
                    let row = self.table.row(usize::from(av.unsigned_abs()));
                    let aneg = i32::from(av >> 15);
                    // The lookup as its own loop, its index masked where it
                    // is used: that is the shape that compiles to vector
                    // gathers.
                    let products: [i32; PANEL] =
                        core::array::from_fn(|l| row[bmag[l] as usize & (lut::ROW - 1)]);
                    for l in 0..PANEL {
                        let s = bneg[l] ^ aneg;
                        accr[l] += (products[l] ^ s) - s;
                    }
                }
            }
            for (t, accr) in total.iter_mut().zip(&acc) {
                for (t, &v) in t.iter_mut().zip(accr) {
                    *t += i64::from(v);
                }
            }
        }
        total.map(|sums| sums.map(|s| s as f32 * self.dequant))
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
fn pack_b_panels<T: Copy + Default>(k: usize, n: usize, b: &[T]) -> Vec<T> {
    let mut packed = Vec::with_capacity(n.div_ceil(PANEL) * k * PANEL);
    for j in (0..n).step_by(PANEL) {
        let width = PANEL.min(n - j);
        for kk in 0..k {
            packed.extend_from_slice(&b[kk * n + j..][..width]);
            packed.resize(packed.len() + PANEL - width, T::default());
        }
    }
    packed
}

/// `R` whole output rows (`orows` is `R·n` long, row `i0` of `a` first)
/// against one panel.
fn tile_into<K: MulKernel, const R: usize>(
    kern: &K,
    a: &[K::Elem],
    i0: usize,
    b: &[K::Elem],
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
/// fits what is left — before the next panel is touched.
pub(crate) fn gemm_windows<K: MulKernel>(
    kern: &K,
    m: usize,
    a: &[K::Elem],
    b: &Windows<K::Elem>,
    out: &mut [f32],
    epi: &Epilogue,
) {
    let (k, n) = (b.k, b.n());
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(out.len(), m * n, "gemm C size");
    if m == 0 || n == 0 {
        return;
    }
    instrument::add_muls((m * k * n) as u64);
    out.par_chunks_mut(ROW_BLOCK * n)
        .with_min_len(par::min_chunks(ROW_BLOCK * k * n / K::MULS_PER_ITEM))
        .enumerate()
        .for_each(|(blk, ob)| {
            let (i0, rows) = (blk * ROW_BLOCK, ob.len() / n);
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
                        d += r;
                    }
                }
            }
            for (di, orow) in ob.chunks_mut(n).enumerate() {
                epi.apply_row(i0 + di, orow);
            }
        });
}

/// [`gemm_windows`] over a row-major `B`, packed here, once, into the slabs
/// the kernel reads.
#[allow(clippy::too_many_arguments)]
fn gemm_dense<K: MulKernel>(
    kern: &K,
    m: usize,
    k: usize,
    n: usize,
    a: &[K::Elem],
    b: &[K::Elem],
    out: &mut [f32],
    epi: &Epilogue,
) {
    assert_eq!(b.len(), k * n, "gemm B size");
    let packed = pack_b_panels(k, n, b);
    let runs = [Run {
        len: n,
        step: k * PANEL,
        row_off: (0..k).map(|kk| kk * PANEL).collect(),
    }];
    let b = Windows {
        data: &packed,
        k,
        runs: &runs,
    };
    gemm_windows(kern, m, a, &b, out, epi);
}

/// Tiled f32 GEMM with fused epilogue: `out[M,N] = epi(A[M,K] × B[K,N])`,
/// all row-major.
pub fn gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    epi: &Epilogue,
) {
    gemm_dense(&Fma, m, k, n, a, b, out, epi);
}

/// Integer GEMM over LUT-quantised operands, `B` row-major: products served
/// from `table`, summed exactly, dequantised by `dequant` (= scale_A ·
/// scale_B) before the epilogue. Operand magnitudes must not exceed
/// `table.qmax` (what [`lut::quantize_symmetric`] guarantees); it is
/// checked here because the kernel masks its table index instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_lut(
    m: usize,
    k: usize,
    n: usize,
    a: &[i16],
    b: &[i16],
    table: &LutTable,
    dequant: f32,
    out: &mut [f32],
    epi: &Epilogue,
) {
    let in_range = |xs: &[i16]| {
        let qmax = table.qmax as u16;
        xs.iter().fold(0, |m, v| v.unsigned_abs().max(m)) <= qmax
    };
    assert!(
        in_range(a) && in_range(b),
        "gemm_lut operand outside the {}-bit table",
        table.bits
    );
    gemm_dense(&LutMul { table, dequant }, m, k, n, a, b, out, epi);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a: Vec<i16> = (0..m * k).map(|i| (i as i16 % 11) - 5).collect();
        let b: Vec<i16> = (0..k * n).map(|i| (i as i16 % 9) - 4).collect();
        let table = crate::lut::lut_for(4);
        let dq = 0.25f32;
        let mut c = vec![0.0f32; m * n];
        gemm_lut(m, k, n, &a, &b, table, dq, &mut c, &Epilogue::Raw);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i64;
                for kk in 0..k {
                    s += i64::from(table.mul(a[i * k + kk], b[kk * n + j]));
                }
                assert_eq!(c[i * n + j], s as f32 * dq, "({i},{j})");
            }
        }
    }

    /// `out[i,j]` as the scalar `i64` sum of `LutTable::mul` products.
    fn lut_scalar(a: &[i16], b: &[i16], k: usize, n: usize, i: usize, j: usize, dq: f32) -> f32 {
        let table = crate::lut::lut_for(8);
        let sum: i64 = (0..k)
            .map(|kk| i64::from(table.mul(a[i * k + kk], b[kk * n + j])))
            .sum();
        sum as f32 * dq
    }

    #[test]
    fn lut_gemm_is_exact_across_the_widening_boundary() {
        // Three `i32` blocks and one step, every operand at ±qmax: row 0's
        // products are all +127·127-ish, row 1's all negative, so a lane
        // that was not widened after 2¹⁶ steps would pass ±2³¹ and wrap.
        // m = 3 covers the 2- and 1-row groups, n = 33 a full panel and a
        // one-lane ragged one.
        let (m, k, n) = (3, 3 * LUT_BLOCK + 1, 33);
        let table = crate::lut::lut_for(8);
        assert!(i64::from(table.mul(127, 127)) * k as i64 > i64::from(i32::MAX));
        let a: Vec<i16> = (0..m * k)
            .map(|idx| match idx / k {
                0 => 127,
                1 => -127,
                _ => [127, -127][idx % 2],
            })
            .collect();
        let b: Vec<i16> = (0..k * n)
            .map(|idx| {
                if idx % n < 20 || idx / n % 3 == 0 {
                    127
                } else {
                    -127
                }
            })
            .collect();
        let mut c = vec![0.0f32; m * n];
        gemm_lut(m, k, n, &a, &b, table, 0.5, &mut c, &Epilogue::Raw);
        for (idx, &got) in c.iter().enumerate() {
            let want = lut_scalar(&a, &b, k, n, idx / n, idx % n, 0.5);
            assert_eq!(got.to_bits(), want.to_bits(), "({}, {})", idx / n, idx % n);
        }
    }

    #[test]
    fn lut_gemm_ragged_widths_match_scalar() {
        let (m, k) = (5, 19);
        let table = crate::lut::lut_for(8);
        for n in [1, 31, 33, 77] {
            let a: Vec<i16> = (0..m * k).map(|i| ((i * 37) % 255) as i16 - 127).collect();
            let b: Vec<i16> = (0..k * n).map(|i| ((i * 91) % 255) as i16 - 127).collect();
            let mut c = vec![0.0f32; m * n];
            gemm_lut(m, k, n, &a, &b, table, 0.125, &mut c, &Epilogue::Raw);
            for (idx, &got) in c.iter().enumerate() {
                let want = lut_scalar(&a, &b, k, n, idx / n, idx % n, 0.125);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n={n} ({}, {})",
                    idx / n,
                    idx % n
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the 4-bit table")]
    fn lut_gemm_rejects_operands_past_the_table() {
        let mut c = [0.0f32];
        gemm_lut(
            1,
            1,
            1,
            &[8],
            &[1],
            crate::lut::lut_for(4),
            1.0,
            &mut c,
            &Epilogue::Raw,
        );
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
