//! Approximate multipliers (the AdaPT/TFApprox emulation idea): Mitchell's
//! logarithmic multiplier over symmetric-quantised operands.
//!
//! Hardware approximate multipliers trade per-product accuracy for
//! area/energy. Emulating them gate-by-gate is far too slow for tuning;
//! AdaPT precomputes the multiplier's truth table and serves products from
//! it. The emulated cell here is Mitchell's log multiplier, `a·b ≈
//! 2^(k1+k2)·(1+f1+f2)` for `a = 2^k1 (1+f1)`, `b = 2^k2 (1+f2)` (carrying
//! into `2^(k1+k2+1)·(f1+f2)` when `f1+f2 ≥ 1`), which under-approximates
//! by up to ~11% per product (exact on powers of two). Quantisation to
//! `bits`-bit signed magnitudes adds the per-bitwidth error component,
//! giving the knob family its error/energy gradient.
//!
//! **Closed form, table as oracle.** Mitchell's product needs no table on a
//! machine with IEEE floats: a quantised operand is an integer `|q| ≤ 127`
//! held exactly as an `f32`, whose bit pattern *is* `sign | 127 + k |
//! f·2²³`, so adding two patterns and subtracting `ONE_BITS` adds the
//! exponents, adds the fractions (carrying into the exponent exactly when
//! `f1 + f2 ≥ 1`) and XORs the signs — the signed Mitchell product, which
//! is always an integer. The GEMM kernel (`ops::gemm::LutMul`) computes
//! every product that way, zero operands masked, and sums them exactly
//! (DESIGN.md §4h has the proof). `LutTable` keeps the integer
//! definition (`mitchell_mul`) as a per-bitwidth truth table: the oracle
//! the naive reference kernels and the tests check the kernel against.
//! Results dequantise with the product of the operand scales.

use std::sync::OnceLock;

/// Smallest supported operand bitwidth.
pub(crate) const MIN_BITS: u8 = 2;
/// Largest supported operand bitwidth: magnitudes up to 127, so products
/// stay below 2¹⁴ and exponents of the closed form below 2⁸.
pub(crate) const MAX_BITS: u8 = 8;

/// Bit pattern of `1.0f32`: the exponent bias that the sum of two operand
/// patterns carries twice, subtracted once to leave the product's pattern.
pub(crate) const ONE_BITS: u32 = 0x3F80_0000;

/// Largest quantised magnitude at `bits`, `2^(bits-1) - 1`.
pub(crate) fn qmax(bits: u8) -> i32 {
    (1i32 << (bits - 1)) - 1
}

/// The approximate multiplier's truth table over operand *magnitudes*
/// `0..=qmax` (signs are applied outside the table; the emulated multiplier
/// is sign-magnitude symmetric) — the oracle for the closed-form kernel.
pub(crate) struct LutTable {
    /// Largest representable magnitude, `2^(bits-1) - 1`.
    pub qmax: i32,
    /// Row-major `(qmax + 1)²` products.
    tab: Vec<i32>,
}

impl LutTable {
    fn build(bits: u8) -> LutTable {
        assert!((MIN_BITS..=MAX_BITS).contains(&bits), "bits {bits}");
        let qmax = qmax(bits);
        let n = (qmax + 1) as u64;
        let tab = (0..n * n)
            .map(|i| mitchell_mul(i / n, i % n) as i32)
            .collect();
        LutTable { qmax, tab }
    }

    /// Approximate product of two magnitudes (`0..=qmax` each).
    fn mul_mag(&self, a: usize, b: usize) -> i32 {
        self.tab[a * (self.qmax as usize + 1) + b]
    }

    /// Approximate signed product of two quantised operands.
    pub(crate) fn mul(&self, a: i16, b: i16) -> i32 {
        let p = self.mul_mag(a.unsigned_abs() as usize, b.unsigned_abs() as usize);
        if (a < 0) != (b < 0) {
            -p
        } else {
            p
        }
    }
}

/// Integer Mitchell logarithmic multiplier over non-negative magnitudes.
///
/// Fixed-point with 16 fractional bits; exact for `a` or `b` in
/// {0, powers of two}, under-approximates otherwise (worst case
/// `f1+f2 → 1⁻`: relative error `-1/4·ln2 ≈ -11.1%`).
fn mitchell_mul(a: u64, b: u64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    const F: u32 = 16;
    let k1 = 63 - a.leading_zeros() as u64;
    let k2 = 63 - b.leading_zeros() as u64;
    // Fractional parts in F-bit fixed point; exact because k ≤ 62 only via
    // table-size bound (k ≤ 7 for 8-bit operands, so the shifts are exact).
    let f1 = ((a << F) >> k1) - (1u64 << F);
    let f2 = ((b << F) >> k2) - (1u64 << F);
    let sum = f1 + f2;
    let k = k1 + k2;
    if sum < (1u64 << F) {
        ((((1u64 << F) + sum) << k) >> F) as i64
    } else {
        ((sum << (k + 1)) >> F) as i64
    }
}

static LUTS: [OnceLock<LutTable>; (MAX_BITS - MIN_BITS + 1) as usize] =
    [const { OnceLock::new() }; (MAX_BITS - MIN_BITS + 1) as usize];

/// The shared table for a bitwidth (built once per process).
pub(crate) fn lut_for(bits: u8) -> &'static LutTable {
    assert!(
        (MIN_BITS..=MAX_BITS).contains(&bits),
        "unsupported LUT multiplier bitwidth {bits}"
    );
    LUTS[(bits - MIN_BITS) as usize].get_or_init(|| LutTable::build(bits))
}

/// A tensor quantised to signed `bits`-bit magnitudes with a per-tensor
/// symmetric scale (`x ≈ q · scale`).
pub(crate) struct QuantizedTensor {
    /// Quantised values: integers in `[-qmax, qmax]`, held as `f32` (the
    /// operand type of the closed-form kernel).
    pub q: Vec<f32>,
    /// Dequantisation scale.
    pub scale: f32,
}

/// A per-tensor symmetric quantiser to signed `bits`-bit magnitudes.
#[derive(Clone, Copy)]
pub(crate) struct Symmetric {
    /// Dequantisation scale.
    pub scale: f32,
    inv: f32,
    qmax: f32,
}

impl Symmetric {
    /// `scale = maxabs / qmax` (1 for an all-zero or non-finite tensor).
    pub(crate) fn fit(maxabs: f32, bits: u8) -> Symmetric {
        let qmax = qmax(bits) as f32;
        let scale = if maxabs > 0.0 && maxabs.is_finite() {
            maxabs / qmax
        } else {
            1.0
        };
        Symmetric {
            scale,
            inv: 1.0 / scale,
            qmax,
        }
    }

    /// Round to nearest (ties away from zero), clamp to `[-qmax, qmax]`;
    /// NaN quantises to 0. The result is an integer (possibly `-0.0`, which
    /// the kernels treat as the zero it is). Branch-free, so loops over it
    /// vectorise (`f32::clamp`'s bounds assertion would keep them scalar).
    #[inline]
    pub(crate) fn q(&self, x: f32) -> f32 {
        let y = (x * self.inv).round();
        // `max` would map NaN to `-qmax`.
        if y.is_nan() {
            0.0
        } else {
            y.max(-self.qmax).min(self.qmax)
        }
    }
}

/// `max|x|` as the quantisers see it (NaNs ignored).
pub(crate) fn max_abs(data: impl Iterator<Item = f32>) -> f32 {
    data.fold(0.0f32, |m, x| m.max(x.abs()))
}

/// Symmetric per-tensor quantisation with `scale = max|x| / qmax`.
/// Deterministic and elementwise (rayon-partition independent).
pub(crate) fn quantize_symmetric(data: &[f32], bits: u8) -> QuantizedTensor {
    let sym = Symmetric::fit(max_abs(data.iter().copied()), bits);
    QuantizedTensor {
        q: crate::par::map(data, |x| sym.q(x)),
        scale: sym.scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitchell_exact_on_powers_of_two() {
        for &a in &[1u64, 2, 4, 8, 16, 32, 64] {
            for &b in &[1u64, 2, 4, 8, 16, 32, 64, 127] {
                if a.is_power_of_two() {
                    assert_eq!(mitchell_mul(a, b) as u64, a * b, "{a}*{b}");
                }
            }
        }
        assert_eq!(mitchell_mul(0, 55), 0);
        assert_eq!(mitchell_mul(55, 0), 0);
    }

    #[test]
    fn mitchell_error_bounded() {
        // Mitchell under-approximates by at most ~11.1%.
        for a in 1u64..=127 {
            for b in 1u64..=127 {
                let approx = mitchell_mul(a, b) as f64;
                let exact = (a * b) as f64;
                let rel = (approx - exact) / exact;
                assert!(rel <= 0.0, "{a}*{b}: Mitchell must not over-approximate");
                assert!(rel >= -0.1115, "{a}*{b}: rel error {rel}");
            }
        }
    }

    #[test]
    fn table_matches_direct_formula_and_signs() {
        let t = lut_for(8);
        assert_eq!(t.qmax, 127);
        assert_eq!(t.mul_mag(3, 3), mitchell_mul(3, 3) as i32);
        assert_eq!(t.mul(-3, 3), -t.mul(3, 3));
        assert_eq!(t.mul(-3, -3), t.mul(3, 3));
    }

    /// The unmasked closed form: `a · b` on the operands' bit patterns.
    fn closed_form(a: f32, b: f32) -> f32 {
        f32::from_bits(a.to_bits().wrapping_add(b.to_bits()).wrapping_sub(ONE_BITS))
    }

    #[test]
    fn closed_form_is_the_signed_mitchell_product_at_every_bitwidth() {
        for bits in MIN_BITS..=MAX_BITS {
            let (t, q) = (lut_for(bits), qmax(bits));
            for a in (-q..=q).filter(|&v| v != 0) {
                for b in (-q..=q).filter(|&v| v != 0) {
                    let got = closed_form(a as f32, b as f32);
                    let want = t.mul(a as i16, b as i16);
                    assert_eq!(got.to_bits(), (want as f32).to_bits(), "{bits}: {a} × {b}");
                    assert_eq!(got.fract(), 0.0, "{bits}: {a} × {b} = {got}");
                }
            }
        }
        // Why the kernel masks zeros on both sides: `0 × b` is a tiny
        // non-zero number for |b| ≥ 2 and `a × 0` is not a product at all.
        assert_eq!(closed_form(0.0, 2.0), f32::from_bits(1 << 23));
        assert_ne!(closed_form(0.0, 100.0), 0.0);
        assert_ne!(closed_form(3.0, 0.0), 0.0);
    }

    /// Quantisers the sweeps below run: 8 bits at unit range, 4 bits at a
    /// small one, 6 bits at a huge one (`inv` near the bottom of `f32`).
    fn quantisers() -> [Symmetric; 3] {
        [
            Symmetric::fit(1.0, 8),
            Symmetric::fit(3.7e-3, 4),
            Symmetric::fit(3.0e38, 6),
        ]
    }

    /// `sym.q(x)` is the integer that `round`, `clamp` and the saturating
    /// cast to `i16` give (`NaN → 0`); `±0` count as the same zero.
    fn quantiser_matches_cast(sym: &Symmetric, x: f32) -> bool {
        let q = sym.q(x);
        let cast = (x * sym.inv).round().clamp(-sym.qmax, sym.qmax) as i16;
        (q == f32::from(cast)) & (q.trunc() == q)
    }

    fn assert_quantiser_matches_cast(sym: &Symmetric, x: f32) {
        assert!(
            quantiser_matches_cast(sym, x),
            "{x:e} quantises to {}",
            sym.q(x)
        );
    }

    #[test]
    fn quantiser_matches_the_saturating_cast_on_a_strided_sweep() {
        for sym in quantisers() {
            let ties = (-260..=260).map(|i| (i as f32 + 0.5) * sym.scale);
            let sweep = (0..=u32::MAX).step_by(1021).map(f32::from_bits);
            for x in sweep.chain(ties).chain([-0.0, f32::NAN, f32::INFINITY]) {
                assert_quantiser_matches_cast(&sym, x);
            }
        }
    }

    /// `cargo test --release -p at-tensor -- --ignored exhaustive`
    #[test]
    #[ignore = "all 2^32 patterns under three quantisers; ~20 s in release"]
    fn exhaustive_quantiser_matches_the_saturating_cast() {
        // Blocks folded without a branch, so the sweep vectorises; a block
        // that fails is walked again to name the input.
        for sym in quantisers() {
            for block in 0..=u32::MAX >> 12 {
                let xs = (block << 12..=block << 12 | 0xFFF).map(f32::from_bits);
                if !xs
                    .clone()
                    .fold(true, |ok, x| ok & quantiser_matches_cast(&sym, x))
                {
                    xs.for_each(|x| assert_quantiser_matches_cast(&sym, x));
                }
            }
        }
    }

    #[test]
    fn quantize_roundtrip_small_error() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.013).collect();
        let q = quantize_symmetric(&xs, 8);
        let worst = xs
            .iter()
            .zip(&q.q)
            .map(|(&x, &v)| (x - v * q.scale).abs())
            .fold(0.0f32, f32::max);
        // Max quantisation error is scale/2.
        assert!(worst <= q.scale * 0.5 + 1e-6, "worst {worst}");
    }

    #[test]
    fn quantize_handles_degenerate_inputs() {
        let q = quantize_symmetric(&[0.0, 0.0], 8);
        assert_eq!(q.q, vec![0.0, 0.0]);
        assert!(q.scale > 0.0);
        let q = quantize_symmetric(&[], 6);
        assert!(q.q.is_empty());
    }

    #[test]
    fn fewer_bits_coarser() {
        let xs: Vec<f32> = (0..256).map(|i| (i as f32) * 0.01 - 1.2).collect();
        let err = |bits: u8| {
            let q = quantize_symmetric(&xs, bits);
            xs.iter()
                .zip(&q.q)
                .map(|(&x, &v)| {
                    let d = (x - v * q.scale) as f64;
                    d * d
                })
                .sum::<f64>()
        };
        assert!(err(4) > err(6));
        assert!(err(6) > err(8));
    }
}
