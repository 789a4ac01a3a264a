//! Algorithm-based fault tolerance (ABFT) for GEMM-shaped kernels —
//! checksum-verified matmul and convolution paths that detect silent data
//! corruption instead of returning silently wrong outputs.
//!
//! The Huang–Abraham identity: for `C = A × B`, the column sums of `C`
//! must equal `(Σ_i A[i,·]) × B`. Checking it costs `O(M·K + K·N + M·N)` —
//! negligible next to the `O(M·K·N)` multiply — and any corruption of the
//! raw accumulators (a flipped bit in an output, an ALU fault during the
//! multiply, operand memory corrupted after checksum capture) perturbs at
//! least one column sum far outside floating-point noise: an output flip
//! lands in exactly one column, and an operand flip smears `Δ·B[kk,·]`
//! (resp. `Δ·A[·,kk]` folded per column) across the row of sums.
//!
//! We deliberately verify the *column* side only. Classic two-sided ABFT
//! adds row checksums to *localise* (and correct) the faulty element, but
//! this runtime never corrects in place — detection aborts the kernel and
//! the fleet re-executes the request on a healthy replica — so the second
//! side would double the verification cost for localisation information
//! nobody consumes. Single-sided detection keeps measured overhead inside
//! the ≤10% envelope on a 512³ GEMM.
//!
//! **Tolerance is scaled to the active knob's promised error.** The
//! verified product is compared against independently accumulated f32
//! reference checksums (see `verify_raw` for why f32 suffices), so the
//! legitimate discrepancy is the knob's own numerical contract:
//!
//! * `MulApprox::Exact` (FP32 and FP16 operands both accumulate in f32):
//!   FMA rounding noise, which random-walks like `√steps · ε₃₂` against an
//!   L2-style magnitude bound ([`AbftTol::exact`]).
//! * `MulApprox::Lut`: the Mitchell logarithmic multiplier's promised
//!   per-product relative error bound against an L1 magnitude bound
//!   (`AbftTol::lut`).
//!
//! Comparisons are NaN-safe by construction: every check is of the form
//! `|actual − expected| ≤ limit`, which is *false* whenever corruption
//! produced a NaN or infinity on either side, so non-finite garbage is
//! always reported as [`TensorError::CorruptionDetected`].
//!
//! **Bit-exactness**: the verified paths run the production kernels with a
//! raw epilogue, verify, then apply the epilogue element-wise. Because
//! `Epilogue::apply_row` is a pure per-element function, outputs are
//! bit-identical to the unprotected fused kernels (the golden suite pins
//! this).

use crate::error::TensorError;
use crate::instrument::Counters;
use crate::knobs::{MulApprox, Precision};
use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{self, Epilogue, Fma, LutMul, MulKernel, Panel, Windows};
use crate::ops::{im2col, matmul};
use crate::tensor::Tensor;

/// Checksum comparison tolerance: `|actual − expected| ≤ abs + rel · mag`,
/// where `mag` is an L1 or L2 magnitude bound accumulated alongside the
/// expected checksum.
#[derive(Clone, Copy, Debug)]
pub struct AbftTol {
    /// Relative factor applied to the magnitude bound.
    pub rel: f64,
    /// Absolute floor (covers all-zero panels).
    pub abs: f64,
    /// Use the L1 magnitude `Σ|aᵢ·bⱼ|` (worst-case-correlated error, for
    /// the LUT multiplier) instead of the L2 magnitude `√(Σ(aᵢ·bⱼ)²)`
    /// (random-walk rounding, for exact accumulation).
    pub l1: bool,
}

impl AbftTol {
    /// Tolerance for exact-FMA accumulation (FP32, and FP16 operands —
    /// the checksums are computed over the already-quantised operands, so
    /// the residual noise is still f32 accumulation rounding).
    pub fn exact(m: usize, k: usize, n: usize) -> AbftTol {
        let steps = (k + m + n).max(1) as f64;
        AbftTol {
            rel: 16.0 * steps.sqrt() * f64::from(f32::EPSILON),
            abs: 1e-12,
            l1: false,
        }
    }

    /// Tolerance for the LUT approximate multiplier: Mitchell's logarithmic
    /// multiplier promises ≤ ~11.1% relative error per product (plus table
    /// integer rounding), and per-product errors can correlate, so the
    /// bound is L1 with a slack factor. `dequant` is `scale_A · scale_B`.
    pub(crate) fn lut(k: usize, dequant: f32) -> AbftTol {
        AbftTol {
            rel: 0.13,
            abs: f64::from(dequant.abs()) * 8.0 * k.max(1) as f64,
            l1: true,
        }
    }
}

/// Flips bit `bit` (0 = LSB .. 31 = sign) of `data[index]` in place — the
/// SDC injector used by the chaos campaigns and the differential tests.
/// Out-of-range indices/bits are ignored (injection is best-effort).
pub fn flip_bit(data: &mut [f32], index: usize, bit: u32) {
    if bit < 32 {
        if let Some(x) = data.get_mut(index) {
            *x = f32::from_bits(x.to_bits() ^ (1u32 << bit));
        }
    }
}

/// Column-checksum verification core. `c` holds the *raw* (pre-epilogue)
/// accumulators, with the LUT path's dequantisation already applied (that
/// is how `Epilogue::Raw` stores them), and `fb` maps a `B` element to the
/// value the checksums fold (the LUT path folds `q · dequant`). `B` is read
/// through `panels` exactly as a kernel reads it — row `kk` of a panel is
/// `b[base + row_off[kk]..][..width]` — so a convolution's checksums fold
/// over the very windows its multiply read, a dense layer's over its packed
/// slabs, and a row-major `B` is one panel `n` wide. Panel by panel, each
/// is read in address order. Whatever the addressing, column `j`'s checksum
/// folds its `K` terms in increasing `k`, so it changes no sum.
///
/// Checksums accumulate in `f32`, not `f64`. The comparison limit is
/// sized for the production kernel's own f32 accumulation noise
/// (`rel ∝ √steps · ε₃₂` of the magnitude bound), and the reference sums
/// random-walk with the same step count, so f32 references add error of
/// the exact order the limit already absorbs — while halving accumulator
/// memory traffic and keeping every loop in 16-lane single-precision
/// vectors with no widening converts. That is what holds verification
/// inside the ≤10% overhead envelope. Only the final comparisons widen
/// to f64 (they are O(N) and the subtraction must not round away).
#[allow(clippy::too_many_arguments)]
fn verify_raw<'p>(
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    panels: impl Iterator<Item = Panel<'p>>,
    fb: impl Fn(f32) -> f32,
    c: &[f32],
    tol: &AbftTol,
) -> Result<(), TensorError> {
    // Monomorphise on the magnitude norm: a runtime `tol.l1` branch inside
    // the hot loops defeats the autovectoriser.
    if tol.l1 {
        verify_raw_impl::<_, _, true>(op, m, k, n, a, b, panels, fb, c, tol)
    } else {
        verify_raw_impl::<_, _, false>(op, m, k, n, a, b, panels, fb, c, tol)
    }
}

#[allow(clippy::too_many_arguments)]
fn verify_raw_impl<'p, FB, P, const L1: bool>(
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    panels: P,
    fb: FB,
    c: &[f32],
    tol: &AbftTol,
) -> Result<(), TensorError>
where
    FB: Fn(f32) -> f32,
    P: Iterator<Item = Panel<'p>>,
{
    if m == 0 || n == 0 {
        return Ok(());
    }
    let mag = |v: f32| if L1 { v.abs() } else { v * v };
    let fin = |v: f64| if L1 { v } else { v.sqrt() };

    // Performance shape: the checksum math is O(mk + kn + mn) against the
    // GEMM's O(mkn), but a careless loop nest still costs >50% of the 512³
    // multiply. Every pass below streams operand rows contiguously (the
    // prefetch-friendly direction), pairs that share a load share a loop,
    // and accumulation is vector-indexed — element `j` lands in slot `j`
    // with rows folded in ascending order — so results are deterministic
    // at any vector width.

    // Pass over A: per-column sums and magnitudes, rows ascending.
    let mut colsum_a = vec![0.0f32; k];
    let mut colmag_a = vec![0.0f32; k];
    for i in 0..m {
        for ((s, g), &v) in colsum_a
            .iter_mut()
            .zip(colmag_a.iter_mut())
            .zip(&a[i * k..(i + 1) * k])
        {
            *s += v;
            *g += mag(v);
        }
    }
    // Pass over B: expected column checksums (Σ_i A[i,·]) × B[·,j] and the
    // matching magnitude bound, in one stream.
    let mut expected_col = vec![0.0f32; n];
    let mut magnitude_col = vec![0.0f32; n];
    // L2 magnitude weight: `sa²` bounds the f32 *checksum* random walk (its
    // summands are `sa·b`, which dwarfs `Σᵢa²·b²` when A's column entries
    // correlate in sign), `Σᵢa²` bounds the GEMM's own accumulation noise
    // folded per column. Their sum dominates both error sources, so one
    // limit covers the whole comparison.
    if !L1 {
        for (g, &sa) in colmag_a.iter_mut().zip(&colsum_a) {
            *g += sa * sa;
        }
    }
    // Panel by panel, rows in increasing `kk`. A full panel folds into
    // arrays the compiler keeps in registers: folded in place, each row's
    // 32 sums waited on the previous row's stores, a `K`-step latency chain
    // per panel that made the packed 512³ check 1.5–2× the row-major one.
    let fold = |panel: &Panel, e: &mut [f32], g: &mut [f32]| {
        for ((&off, &sa), &ma) in panel.row_off.iter().zip(&colsum_a).zip(&colmag_a) {
            let brow = &b[panel.base + off..][..e.len()];
            for ((e, g), &v) in e.iter_mut().zip(g.iter_mut()).zip(brow) {
                let v = fb(v);
                *e += sa * v;
                *g += ma * mag(v);
            }
        }
    };
    for panel in panels {
        let expected = &mut expected_col[panel.col..][..panel.width];
        let magnitude = &mut magnitude_col[panel.col..][..panel.width];
        if panel.width == gemm::PANEL {
            let (mut e, mut g) = ([0.0f32; gemm::PANEL], [0.0f32; gemm::PANEL]);
            fold(&panel, &mut e, &mut g);
            expected.copy_from_slice(&e);
            magnitude.copy_from_slice(&g);
        } else {
            fold(&panel, expected, magnitude);
        }
    }
    // Pass over C: actual column checksums.
    let mut actual_col = vec![0.0f32; n];
    for i in 0..m {
        for (s, &v) in actual_col.iter_mut().zip(&c[i * n..(i + 1) * n]) {
            *s += v;
        }
    }
    // Column checks: Σ_i C[i,j] vs (Σ_i A[i,·]) × B[·,j].
    for j in 0..n {
        let expected = f64::from(expected_col[j]);
        let actual = f64::from(actual_col[j]);
        let limit = tol.abs + tol.rel * fin(f64::from(magnitude_col[j]));
        // A non-finite expected checksum means the operands themselves
        // overflow (an FP16-quantised value past 65504 is ±inf): the
        // product's column is then non-finite too, deterministically, and
        // only a finite column sum contradicts it. Elsewhere `!(x <= y)`
        // instead of `x > y`: NaN on either side must trip.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let corrupt = if expected.is_finite() {
            !((actual - expected).abs() <= limit)
        } else {
            actual.is_finite()
        };
        if corrupt {
            return Err(TensorError::CorruptionDetected {
                op,
                detail: format!(
                    "column {j} checksum off by {:.3e} (limit {:.3e})",
                    actual - expected,
                    limit
                ),
            });
        }
    }
    Ok(())
}

/// Verifies raw f32 GEMM accumulators `c` against checksums of `a`/`b`,
/// `B` row-major.
///
/// Exposed so injection campaigns can verify against *golden* operands
/// after corrupting a working copy — modelling checksums captured at
/// panel-pack time with the flip landing afterwards.
pub fn verify_gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
    tol: &AbftTol,
) -> Result<(), TensorError> {
    // One `n`-wide panel read in place: row `kk` is `b[kk·n..][..n]`.
    let row_off: Vec<usize> = (0..k).map(|kk| kk * n).collect();
    let rows = std::iter::once(Panel {
        col: 0,
        width: n,
        base: 0,
        row_off: &row_off,
    });
    verify_raw("gemm", m, k, n, a, b, rows, |x| x, c, tol)
}

/// Applies an epilogue element-wise to a raw `[M,N]` accumulator buffer —
/// bit-identical to the fused kernels because [`Epilogue::apply_row`] is a
/// pure per-element function. Returns the epilogue's work.
fn apply_epilogue(out: &mut [f32], n: usize, epi: &Epilogue) -> Counters {
    let mut rows = 0;
    for (i, orow) in out.chunks_mut(n.max(1)).enumerate() {
        epi.apply_row(i, orow);
        rows += 1;
    }
    let mut c = Counters::default();
    epi.count_rows(rows, n, &mut c);
    c
}

/// ABFT-protected tiled f32 GEMM: multiply with a raw epilogue, verify the
/// Huang–Abraham checksums, then apply `epi`. On detection the (corrupt)
/// buffer contents are unspecified and must be discarded. Returns the
/// multiplies it ran.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_abft(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    epi: &Epilogue,
    tol: &AbftTol,
) -> Result<u64, TensorError> {
    let muls = gemm::gemm_f32(m, k, n, a, b, out, &Epilogue::Raw);
    verify_gemm_f32(m, k, n, a, b, out, tol)?;
    apply_epilogue(out, n, epi);
    Ok(muls)
}

/// A [`MulKernel`] whose raw product can be checked against its operands.
pub(crate) trait Verified: MulKernel {
    /// Verifies raw accumulators `c = A × B` against checksums folded over
    /// the same windows of `b` the multiply read.
    fn check(&self, m: usize, a: &[f32], b: &Windows, c: &[f32]) -> Result<(), TensorError>;
}

impl Verified for Fma {
    fn check(&self, m: usize, a: &[f32], b: &Windows, c: &[f32]) -> Result<(), TensorError> {
        let (k, n) = (b.k, b.n());
        let tol = AbftTol::exact(m, k, n);
        verify_raw("gemm", m, k, n, a, b.data, b.panels(), |x| x, c, &tol)
    }
}

impl Verified for LutMul {
    fn check(&self, m: usize, a: &[f32], b: &Windows, c: &[f32]) -> Result<(), TensorError> {
        let (k, n, dequant) = (b.k, b.n(), self.dequant);
        let tol = AbftTol::lut(k, dequant);
        let fb = |x| x * dequant;
        verify_raw("gemm_lut", m, k, n, a, b.data, b.panels(), fb, c, &tol)
    }
}

/// [`gemm::gemm_windows`] — the one GEMM of the dense layers and the
/// convolution lowering — and with `verify` its ABFT twin: multiply with a
/// raw epilogue, verify over the windows the multiply read, then apply
/// `epi`. On detection the contents of `out` are unspecified. The work
/// done is added to `work`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_windows_abft<K: Verified>(
    kern: &K,
    m: usize,
    a: &[f32],
    b: &Windows,
    out: &mut [f32],
    epi: &Epilogue,
    verify: bool,
    work: &mut Counters,
) -> Result<(), TensorError> {
    if !verify {
        gemm::gemm_windows(kern, m, a, b, out, epi, work);
        return Ok(());
    }
    gemm::gemm_windows(kern, m, a, b, out, &Epilogue::Raw, work);
    #[cfg(test)]
    tests::inject(kern, m, a, b, out);
    kern.check(m, a, b, out)?;
    *work += apply_epilogue(out, b.n(), epi);
    Ok(())
}

/// ABFT-protected dense layer: [`crate::ops::matmul_ex`] semantics
/// (bit-identical output, any knob setting) with the product's checksums
/// verified over the packed `B` before the epilogue is applied.
pub fn matmul_abft(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
) -> Result<Tensor, TensorError> {
    matmul::dense(a, b, bias, precision, mul, true)
}

/// ABFT-protected convolution: [`crate::ops::conv2d`] semantics
/// (bit-identical output, any knob setting) with every lowered GEMM's
/// checksums verified before its epilogue is applied.
pub fn conv2d_abft(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    im2col::conv2d_lowered(input, weight, bias, params, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut;
    use crate::ops::{conv2d, matmul_ex};
    use crate::{ConvApprox, PerforationDim, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mats(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::uniform(Shape::mat(m, k), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(k, n), -1.0, 1.0, &mut rng);
        let bias = Tensor::uniform(Shape::vec(n), -0.5, 0.5, &mut rng);
        (a, b, bias)
    }

    fn assert_bits_eq(x: &Tensor, y: &Tensor, ctx: &str) {
        assert_eq!(x.shape(), y.shape(), "{ctx}: shapes");
        for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{ctx}: elem {i}: {p} vs {q}");
        }
    }

    #[test]
    fn clean_matmul_passes_and_is_bit_identical_every_knob() {
        let (a, b, bias) = mats(13, 37, 21, 9);
        let muls = [
            MulApprox::Exact,
            MulApprox::Lut { bits: 8 },
            MulApprox::Lut { bits: 6 },
            MulApprox::Lut { bits: 4 },
        ];
        for precision in Precision::ALL {
            for mul in muls {
                if precision == Precision::Fp16 && mul != MulApprox::Exact {
                    continue;
                }
                let plain = matmul_ex(&a, &b, Some(&bias), precision, mul).unwrap();
                let abft = matmul_abft(&a, &b, Some(&bias), precision, mul)
                    .unwrap_or_else(|e| panic!("clean {precision:?}/{mul:?} flagged: {e}"));
                assert_bits_eq(&plain, &abft, &format!("{precision:?}/{mul:?}"));
            }
        }
    }

    #[test]
    fn clean_conv_passes_and_is_bit_identical_across_approximations() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::uniform(Shape::nchw(2, 3, 9, 11), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(4, 3, 3, 3), -0.5, 0.5, &mut rng);
        let b = Tensor::uniform(Shape::vec(4), -0.2, 0.2, &mut rng);
        for (name, params) in [
            (
                "exact",
                Conv2dParams {
                    pad: (1, 1),
                    ..Default::default()
                },
            ),
            (
                "fp16",
                Conv2dParams {
                    pad: (1, 1),
                    precision: Precision::Fp16,
                    ..Default::default()
                },
            ),
            (
                "sampling",
                Conv2dParams {
                    pad: (1, 1),
                    approx: ConvApprox::FilterSampling { k: 2, offset: 1 },
                    ..Default::default()
                },
            ),
            (
                "perforated",
                Conv2dParams {
                    pad: (1, 1),
                    approx: ConvApprox::Perforation {
                        dim: PerforationDim::Col,
                        k: 3,
                        offset: 0,
                    },
                    ..Default::default()
                },
            ),
            (
                "lut",
                Conv2dParams {
                    pad: (1, 1),
                    mul: MulApprox::Lut { bits: 6 },
                    ..Default::default()
                },
            ),
        ] {
            let plain = conv2d(&x, &w, Some(&b), params).unwrap();
            let abft = conv2d_abft(&x, &w, Some(&b), params)
                .unwrap_or_else(|e| panic!("clean {name} flagged: {e}"));
            assert_bits_eq(&plain, &abft, name);
        }
    }

    #[test]
    fn operand_corruption_after_checksum_capture_is_detected() {
        let (a, b, _) = mats(24, 48, 32, 11);
        let (m, k, n) = (24, 48, 32);
        let tol = AbftTol::exact(m, k, n);
        // Flip a high-mantissa bit in a working copy of A; the raw product
        // of the corrupted copy must fail verification against the golden
        // operands' checksums.
        let mut bad_a = a.data().to_vec();
        flip_bit(&mut bad_a, 7 * k + 3, 22);
        let mut c = vec![0.0f32; m * n];
        gemm::gemm_f32(m, k, n, &bad_a, b.data(), &mut c, &Epilogue::Raw);
        assert!(matches!(
            verify_gemm_f32(m, k, n, a.data(), b.data(), &c, &tol),
            Err(TensorError::CorruptionDetected { .. })
        ));
        // Same for the activation operand B.
        let mut bad_b = b.data().to_vec();
        flip_bit(&mut bad_b, 5 * n + 17, 30);
        let mut c2 = vec![0.0f32; m * n];
        gemm::gemm_f32(m, k, n, a.data(), &bad_b, &mut c2, &Epilogue::Raw);
        assert!(matches!(
            verify_gemm_f32(m, k, n, a.data(), b.data(), &c2, &tol),
            Err(TensorError::CorruptionDetected { .. })
        ));
    }

    #[test]
    fn accumulator_corruption_is_detected_including_nan() {
        let (a, b, _) = mats(16, 40, 24, 12);
        let (m, k, n) = (16, 40, 24);
        let tol = AbftTol::exact(m, k, n);
        let mut c = vec![0.0f32; m * n];
        gemm::gemm_f32(m, k, n, a.data(), b.data(), &mut c, &Epilogue::Raw);
        verify_gemm_f32(m, k, n, a.data(), b.data(), &c, &tol).unwrap();

        // A flipped sign bit in one output element.
        let mut bad = c.clone();
        flip_bit(&mut bad, 3 * n + 4, 31);
        assert!(verify_gemm_f32(m, k, n, a.data(), b.data(), &bad, &tol).is_err());

        // An exponent flip that lands on NaN-adjacent garbage: the NaN-safe
        // comparison must still trip (NaN fails every `<=`).
        let mut nan = c;
        nan[5 * n + 5] = f32::NAN;
        assert!(verify_gemm_f32(m, k, n, a.data(), b.data(), &nan, &tol).is_err());
    }

    /// A fault the next verified GEMM on this thread suffers between its
    /// multiply and its check.
    #[derive(Clone, Copy)]
    enum Fault {
        /// Bit 30 of raw accumulator `i` flipped.
        FlipAccumulator(usize),
        /// Raw accumulator `i` overwritten with NaN.
        NanAccumulator(usize),
        /// Element `i` of `A` scaled up by an exponent flip after its
        /// checksums were captured: the product is of the corrupted `A`,
        /// the check folds the golden one.
        FlipOperand(usize),
    }

    thread_local! {
        static FAULT: std::cell::Cell<Option<Fault>> = const { std::cell::Cell::new(None) };
    }

    /// Applies this thread's pending fault to a verified GEMM's raw output.
    pub(super) fn inject<K: Verified>(kern: &K, m: usize, a: &[f32], b: &Windows, out: &mut [f32]) {
        match FAULT.take() {
            None => {}
            Some(Fault::FlipAccumulator(i)) => {
                assert_ne!(out[i], 0.0, "flip a non-zero accumulator");
                flip_bit(out, i, 30);
            }
            Some(Fault::NanAccumulator(i)) => out[i] = f32::NAN,
            Some(Fault::FlipOperand(i)) => {
                // The top clear bit of the exponent: ×2¹²⁸, or ×2⁶⁴ for an
                // operand of magnitude ≥ 2 (a quantised LUT integer).
                let mut bad = a.to_vec();
                let bit = if bad[i].to_bits() & (1 << 30) == 0 {
                    30
                } else {
                    29
                };
                flip_bit(&mut bad, i, bit);
                let mut work = Counters::default();
                gemm::gemm_windows(kern, m, &bad, b, out, &Epilogue::Raw, &mut work);
            }
        }
    }

    #[test]
    fn lut_accumulator_corruption_is_detected_on_dense_and_windowed_paths() {
        let (a, b, bias) = mats(16, 40, 24, 13);
        let (m, k, n) = (16, 40, 24);

        // The dense layer's packed slabs, through `matmul_abft`, at every
        // precision and multiplier family.
        for (precision, mul) in [
            (Precision::Fp32, MulApprox::Exact),
            (Precision::Fp16, MulApprox::Exact),
            (Precision::Fp32, MulApprox::Lut { bits: 8 }),
        ] {
            let ctx = format!("{precision:?}/{mul:?}");
            let plain = matmul_ex(&a, &b, Some(&bias), precision, mul).unwrap();
            let clean = matmul_abft(&a, &b, Some(&bias), precision, mul).unwrap();
            assert_bits_eq(&plain, &clean, &ctx);
            for fault in [
                Fault::FlipAccumulator(3 * n + 4),
                Fault::NanAccumulator(5 * n + 5),
                Fault::FlipOperand(7 * k + 3),
            ] {
                FAULT.set(Some(fault));
                let got = matmul_abft(&a, &b, Some(&bias), precision, mul);
                assert!(
                    matches!(got, Err(TensorError::CorruptionDetected { .. })),
                    "{ctx}: fault not detected"
                );
            }
            // The fault was consumed: the next call runs clean.
            let again = matmul_abft(&a, &b, Some(&bias), precision, mul).unwrap();
            assert_bits_eq(&plain, &again, &ctx);
        }

        let aq = lut::quantize_symmetric(a.data(), 8);
        let bq = lut::quantize_symmetric(b.data(), 8);
        let dq = aq.scale * bq.scale;
        // Overlapping windows into one buffer, as a convolution's taps read
        // its staged image: `Verified for LutMul` folds the same windows.
        let data = lut::quantize_symmetric(&b.data()[..3 * k + gemm::PANEL], 8).q;
        let runs = [gemm::Run {
            len: n,
            step: gemm::PANEL,
            row_off: (0..k).map(|kk| kk * 3).collect(),
        }];
        let win = Windows {
            data: &data,
            k,
            runs: &runs,
        };
        let kern = LutMul { dequant: dq };
        let mut c = vec![0.0f32; m * n];
        gemm::gemm_windows(
            &kern,
            m,
            &aq.q,
            &win,
            &mut c,
            &Epilogue::Raw,
            &mut Counters::default(),
        );
        kern.check(m, &aq.q, &win, &c).unwrap();
        let mut bad = c;
        assert_ne!(bad[5 * n + 7], 0.0, "flip a non-zero accumulator");
        flip_bit(&mut bad, 5 * n + 7, 30);
        assert!(matches!(
            kern.check(m, &aq.q, &win, &bad),
            Err(TensorError::CorruptionDetected { .. })
        ));
    }

    /// FP16 quantisation turns an operand past 65504 into ±inf, so the
    /// product's affected columns are non-finite without any fault: the
    /// verified entries return what the plain kernels return, and a fault
    /// in a column the overflow did not reach is still caught.
    #[test]
    fn fp16_operand_overflow_is_not_corruption() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            let (a, b, _) = mats(64, 64, 64, 14);
            let (mut big_a, mut big_b) = (a.data().to_vec(), b.data().to_vec());
            big_a[0] = 70_000.0;
            big_b[5 * 64 + 7] = 70_000.0;
            let big_a = Tensor::from_vec(Shape::mat(64, 64), big_a).unwrap();
            let big_b = Tensor::from_vec(Shape::mat(64, 64), big_b).unwrap();
            let (fp16, exact) = (Precision::Fp16, MulApprox::Exact);
            for (what, a, b) in [("A", &big_a, &b), ("B", &a, &big_b)] {
                let plain = matmul_ex(a, b, None, fp16, exact).unwrap();
                assert!(plain.data().iter().any(|v| !v.is_finite()), "{what}");
                let abft = matmul_abft(a, b, None, fp16, exact)
                    .unwrap_or_else(|e| panic!("overflow in {what} flagged: {e}"));
                assert_bits_eq(&plain, &abft, what);
            }
            // Only column 7 overflows when B does: row 3 of column 4 is
            // finite, and flipping it must trip.
            FAULT.set(Some(Fault::FlipAccumulator(3 * 64 + 4)));
            assert!(matches!(
                matmul_abft(&a, &big_b, None, fp16, exact),
                Err(TensorError::CorruptionDetected { .. })
            ));

            let mut rng = StdRng::seed_from_u64(15);
            let x = Tensor::uniform(Shape::nchw(2, 4, 8, 8), -1.0, 1.0, &mut rng);
            let w = Tensor::uniform(Shape::nchw(8, 4, 3, 3), -0.5, 0.5, &mut rng);
            let mut big_x = x.data().to_vec();
            big_x[64 + 3 * 8 + 4] = 70_000.0;
            let big_x = Tensor::from_vec(x.shape(), big_x).unwrap();
            let params = Conv2dParams {
                pad: (1, 1),
                precision: fp16,
                ..Default::default()
            };
            let plain = conv2d(&big_x, &w, None, params).unwrap();
            let non_finite = plain.data().iter().filter(|v| !v.is_finite()).count();
            assert_eq!(non_finite, 8 * 9, "every filter at the 3×3 neighbourhood");
            let abft = conv2d_abft(&big_x, &w, None, params)
                .unwrap_or_else(|e| panic!("overflow in the input flagged: {e}"));
            assert_bits_eq(&plain, &abft, "conv");
            // Filter 0 at pixel (7, 7) of image 0, far from the overflow.
            FAULT.set(Some(Fault::FlipAccumulator(63)));
            assert!(matches!(
                conv2d_abft(&big_x, &w, None, params),
                Err(TensorError::CorruptionDetected { .. })
            ));
        });
    }

    #[test]
    fn flip_bit_is_bounds_safe_and_involutive() {
        let mut v = vec![1.5f32, -2.25];
        let orig = v.clone();
        flip_bit(&mut v, 0, 22);
        assert_ne!(v[0].to_bits(), orig[0].to_bits());
        flip_bit(&mut v, 0, 22);
        assert_eq!(v[0].to_bits(), orig[0].to_bits());
        // Out-of-range index and bit are ignored.
        flip_bit(&mut v, 99, 3);
        flip_bit(&mut v, 0, 32);
        assert_eq!(v[0].to_bits(), orig[0].to_bits());
    }

    #[test]
    fn empty_dims_verify_trivially() {
        let tol = AbftTol::exact(0, 4, 0);
        verify_gemm_f32(0, 4, 0, &[], &[], &[], &tol).unwrap();
    }
}
