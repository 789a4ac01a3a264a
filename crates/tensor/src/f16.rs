//! Software IEEE 754 binary16 ("FP16").
//!
//! The paper treats FP16 as an approximation with *hardware-independent
//! semantics*: its effect on output quality is fixed even though the
//! performance benefit requires hardware support. We therefore implement the
//! exact binary16 quantisation in software (round-to-nearest-even, with
//! subnormal and infinity handling) and use it to model the QoS impact of
//! FP16 execution; the speed/energy benefit is modelled by `at-hw`.
//!
//! Two implementations, one semantics: [`quantize`] is the hot path —
//! branch-free bit arithmetic on the `f32` pattern that vectorises inside
//! any slice loop — and the [`F16`] storage type's field-by-field
//! `from_f32`/`to_f32` is the readable definition it is tested against on
//! all 2³² inputs (`exhaustive_quantize_matches_f16_oracle`).

use serde::{Deserialize, Serialize};

/// A 16-bit IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct F16(pub u16);

impl F16 {
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Largest finite value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // NaN or infinity.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            // Overflow: round to infinity.
            return F16(sign | 0x7C00);
        }
        if e >= -14 {
            // Normal range. 10-bit mantissa; round to nearest even on the
            // 13 truncated bits.
            let mut m = mant >> 13;
            let rem = mant & 0x1FFF;
            if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
                m += 1;
            }
            let mut he = (e + 15) as u32;
            if m == 0x400 {
                // Mantissa rounding overflowed into the exponent.
                m = 0;
                he += 1;
                if he >= 31 {
                    return F16(sign | 0x7C00);
                }
            }
            return F16(sign | ((he as u16) << 10) | (m as u16));
        }
        if e >= -25 {
            // Subnormal range: shift the implicit leading 1 into the mantissa.
            // e in [-25, -15]; value = full * 2^(e-23); the fp16 subnormal ulp
            // is 2^-24, so the mantissa is full >> (13 + (-14 - e)). At
            // e = -25 the mantissa is 0 and rounding decides: above the
            // 2^-25 midpoint rounds up to the smallest subnormal, the tie
            // itself goes to even (zero).
            let full = mant | 0x0080_0000;
            let drop = (13 + (-14 - e)) as u32;
            let mut m = full >> drop;
            let rem = full & ((1u32 << drop) - 1);
            let half = 1u32 << (drop - 1);
            if rem > half || (rem == half && (m & 1) == 1) {
                m += 1;
            }
            if m == 0x400 {
                // Rounded up into the smallest normal.
                return F16(sign | (1 << 10));
            }
            return F16(sign | m as u16);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Converts this binary16 value to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let mant = h & 0x3FF;
        let bits = match (exp, mant) {
            // Zero and subnormals: `m · 2^-24`, exact in `f32`.
            (0, m) => sign | (m as f32 * f32::from_bits(0x3380_0000)).to_bits(),
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }
}

/// Quantises a single `f32` through binary16 and back ("fp16 semantics"):
/// bit-for-bit `F16::from_f32(x).to_f32()`, as selects over the `f32`
/// pattern instead of branches over its fields.
#[inline]
pub fn quantize(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    const INF: u32 = 0x7F80_0000;
    /// 2^-14, the smallest binary16 normal.
    const MIN_NORMAL: u32 = 0x3880_0000;
    /// 2^16, where rounding has carried past binary16's largest finite value.
    const OVERFLOW: u32 = 0x4780_0000;
    let bits = x.to_bits();
    let abs = bits & !SIGN;
    // Normal range: round to nearest even on the 13 dropped mantissa bits; a
    // carry out of the mantissa lands in the exponent, as it should.
    let rounded = (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF;
    // Subnormal range: the ulp is fixed at 2^-24, which is f32's own ulp in
    // [0.5, 1), so the adder rounds (to nearest even) for us.
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let magnitude = if abs < MIN_NORMAL {
        subnormal
    } else if abs > INF {
        // NaN: quiet, payload dropped.
        INF | 0x0040_0000
    } else if rounded >= OVERFLOW {
        INF
    } else {
        rounded
    };
    f32::from_bits((bits & SIGN) | magnitude)
}

/// Quantises a slice in place through binary16.
pub(crate) fn quantize_slice(xs: &mut [f32]) {
    crate::par::map_in_place(xs, quantize);
}

/// Returns a quantised copy of the slice.
pub(crate) fn quantized(xs: &[f32]) -> Vec<f32> {
    crate::par::map(xs, quantize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(quantize(x), x, "integer {i} should be exact in fp16");
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(F16::from_f32(1.0).0, 0x3C00);
        assert_eq!(F16::from_f32(-2.0).0, 0xC000);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 0x0001);
        assert_eq!(F16(0x0001).to_f32(), tiny);
        // Below half of the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(tiny / 4.0).0, 0x0000);
        // Largest subnormal.
        let largest_sub = 2.0_f32.powi(-14) - 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(largest_sub).0, 0x03FF);
    }

    /// `quantize` against the `F16` round-trip, by bits.
    fn assert_matches_oracle(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            quantize(x).to_bits(),
            F16::from_f32(x).to_f32().to_bits(),
            "quantize disagrees with F16 at {bits:#010x}"
        );
    }

    #[test]
    fn below_smallest_subnormal_rounds_to_nearest_even() {
        let tiny = 2.0_f32.powi(-24);
        let half = 2.0_f32.powi(-25);
        let next_up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let next_down = |x: f32| f32::from_bits(x.to_bits() - 1);
        for sign in [1.0_f32, -1.0] {
            let zero = (sign * 0.0).to_bits();
            // Above the midpoint: up to the smallest subnormal.
            for x in [1.5 * half, next_up(half), next_down(tiny)] {
                assert_eq!(F16::from_f32(sign * x).0 & 0x7FFF, 0x0001, "{x:e}");
                assert_eq!(quantize(sign * x), sign * tiny, "{x:e}");
            }
            // The tie itself goes to even, and keeps its sign.
            assert_eq!(quantize(sign * half).to_bits(), zero);
            assert_eq!(quantize(sign * next_down(half)).to_bits(), zero);
            // The largest f32 below 2^-14 rounds up into the smallest normal.
            let normal = 2.0_f32.powi(-14);
            assert_eq!(F16::from_f32(sign * next_down(normal)).0 & 0x7FFF, 0x0400);
            assert_eq!(quantize(sign * next_down(normal)), sign * normal);
        }
    }

    #[test]
    fn quantize_matches_f16_oracle_on_strided_sweep_and_range_boundaries() {
        (0..=u32::MAX).step_by(1021).for_each(assert_matches_oracle);
        // zero, the 2^-25 tie, 2^-24, 2^-14, a normal-range tie, 65504, the
        // 65520 overflow midpoint, 2^16, infinity, NaNs.
        for edge in [
            0x0000_0000_u32,
            0x3300_0000,
            0x3380_0000,
            0x3880_0000,
            0x3F80_1000,
            0x477F_E000,
            0x477F_F000,
            0x4780_0000,
            0x7F80_0000,
            0x7FC0_0000,
            0x7FFF_FFFF,
        ] {
            for magnitude in edge.saturating_sub(64)..=edge.saturating_add(64).min(0x7FFF_FFFF) {
                assert_matches_oracle(magnitude);
                assert_matches_oracle(magnitude | 0x8000_0000);
            }
        }
    }

    #[test]
    fn every_binary16_value_survives_the_round_trip() {
        for h in 0..=u16::MAX {
            let x = F16(h).to_f32();
            if x.is_nan() {
                assert!(quantize(x).is_nan());
            } else {
                assert_eq!(F16::from_f32(x), F16(h));
                assert_eq!(quantize(x).to_bits(), x.to_bits());
            }
        }
    }

    /// `cargo test --release -p at-tensor -- --ignored exhaustive`
    #[test]
    #[ignore = "all 2^32 patterns; ~15 s in release"]
    fn exhaustive_quantize_matches_f16_oracle() {
        // Everything above the 2^-25 midpoint and below 2^-24: the rounding
        // fix moved exactly this band, from ±0 to ±2^-24; everywhere else
        // both implementations are the pre-fix bits.
        let fixed_band = 0x3300_0001..=0x337F_FFFF_u32;
        for bits in 0..=u32::MAX {
            assert_matches_oracle(bits);
            if fixed_band.contains(&(bits & 0x7FFF_FFFF)) {
                assert_eq!(quantize(f32::from_bits(bits)).abs(), 2.0_f32.powi(-24));
            }
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16
        // (1 + 2^-10); round-to-even keeps 1.0.
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(quantize(halfway), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-18);
        assert_eq!(quantize(above), 1.0 + 2.0_f32.powi(-10));
    }

    #[test]
    fn quantisation_is_idempotent() {
        let mut xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.137).collect();
        quantize_slice(&mut xs);
        let once = xs.clone();
        quantize_slice(&mut xs);
        assert_eq!(once, xs);
    }

    #[test]
    fn relative_error_bound_in_normal_range() {
        // binary16 has 11 bits of significand: rel. error <= 2^-11.
        for i in 1..10_000 {
            let x = i as f32 * 0.01 + 0.003;
            let q = quantize(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= 2.0_f32.powi(-11), "x={x} q={q} rel={rel}");
        }
    }
}
