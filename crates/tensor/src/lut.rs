//! LUT-based approximate multipliers (the AdaPT/TFApprox emulation trick).
//!
//! Hardware approximate multipliers (e.g. Mitchell's logarithmic
//! multiplier) trade per-product accuracy for area/energy. Emulating them
//! gate-by-gate is far too slow for tuning, so — following AdaPT — we
//! precompute the multiplier's full truth table over `bits`-bit operand
//! magnitudes once and serve every product from the lookup table. Products
//! accumulate in `i64` (exact integer addition, so accumulation order is
//! irrelevant and the kernels are bit-deterministic by construction) and
//! results dequantize with the product of the operand scales.
//!
//! The emulated multiplier is Mitchell's log multiplier: `a·b ≈
//! 2^(k1+k2)·(1+f1+f2)` for `a = 2^k1 (1+f1)`, `b = 2^k2 (1+f2)`, which
//! under-approximates by up to ~11% per product (exact on powers of two).
//! Quantisation to `bits`-bit signed magnitudes adds the per-bitwidth error
//! component, giving the knob family its error/energy gradient.

use std::sync::OnceLock;

/// Smallest supported operand bitwidth.
pub(crate) const MIN_BITS: u8 = 2;
/// Largest supported operand bitwidth (keeps every table ≤ 64 KiB).
pub(crate) const MAX_BITS: u8 = 8;
/// Entries per table row. Every table is laid out at the widest supported
/// magnitude range whatever its bitwidth, so a row is a fixed-size array and
/// an index masked to `ROW - 1` needs no bounds check — which is what lets
/// the LUT GEMM's 32-lane lookup compile to vector gathers.
pub(crate) const ROW: usize = 1 << (MAX_BITS - 1);

/// A precomputed approximate-multiplier truth table over operand
/// *magnitudes* `0..=qmax` (signs are applied outside the table; the
/// emulated multiplier is sign-magnitude symmetric).
pub(crate) struct LutTable {
    /// Operand bitwidth.
    pub bits: u8,
    /// Largest representable magnitude, `2^(bits-1) - 1`.
    pub qmax: i32,
    /// Row-major table of products, [`ROW`] entries per magnitude
    /// (entries past `qmax` are zero and never addressed).
    tab: Vec<[i32; ROW]>,
}

impl LutTable {
    fn build(bits: u8) -> LutTable {
        assert!((MIN_BITS..=MAX_BITS).contains(&bits), "bits {bits}");
        let qmax = (1i32 << (bits - 1)) - 1;
        let n = (qmax + 1) as usize;
        let mut tab = vec![[0i32; ROW]; n];
        for (a, row) in tab.iter_mut().enumerate() {
            for (b, p) in row[..n].iter_mut().enumerate() {
                *p = mitchell_mul(a as u64, b as u64) as i32;
            }
        }
        LutTable { bits, qmax, tab }
    }

    /// Approximate product of two magnitudes (`0..=qmax` each).
    #[inline(always)]
    pub(crate) fn mul_mag(&self, a: usize, b: usize) -> i32 {
        self.tab[a][b]
    }

    /// One magnitude's row of the table (`row(a)[b] == mul_mag(a, b)` for
    /// `b ≤ qmax`), letting inner loops hoist the row lookup out of the `b`
    /// walk.
    #[inline]
    pub(crate) fn row(&self, mag: usize) -> &[i32; ROW] {
        &self.tab[mag]
    }

    /// Approximate signed product of two quantised operands.
    #[inline(always)]
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
    /// Quantised values in `[-qmax, qmax]`.
    pub q: Vec<i16>,
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
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
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

    /// Round to nearest, clamp to `[-qmax, qmax]`.
    #[inline]
    pub(crate) fn q(&self, x: f32) -> i16 {
        (x * self.inv).round().clamp(-self.qmax, self.qmax) as i16
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

    #[test]
    fn quantize_roundtrip_small_error() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.013).collect();
        let q = quantize_symmetric(&xs, 8);
        let worst = xs
            .iter()
            .zip(&q.q)
            .map(|(&x, &v)| (x - v as f32 * q.scale).abs())
            .fold(0.0f32, f32::max);
        // Max quantisation error is scale/2.
        assert!(worst <= q.scale * 0.5 + 1e-6, "worst {worst}");
    }

    #[test]
    fn quantize_handles_degenerate_inputs() {
        let q = quantize_symmetric(&[0.0, 0.0], 8);
        assert_eq!(q.q, vec![0, 0]);
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
                    let d = (x - v as f32 * q.scale) as f64;
                    d * d
                })
                .sum::<f64>()
        };
        assert!(err(4) > err(6));
        assert!(err(6) > err(8));
    }
}
