//! Software IEEE 754 binary16 ("FP16").
//!
//! The paper treats FP16 as an approximation with *hardware-independent
//! semantics*: its effect on output quality is fixed even though the
//! performance benefit requires hardware support. We therefore implement the
//! exact binary16 quantisation in software (round-to-nearest-even, with
//! subnormal and infinity handling) and use it to model the QoS impact of
//! FP16 execution; the speed/energy benefit is modelled by `at-hw`.

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
        if e >= -24 {
            // Subnormal range: shift the implicit leading 1 into the mantissa.
            // e in [-24, -15]; value = full * 2^(e-23); the fp16 subnormal ulp
            // is 2^-24, so the mantissa is full >> (13 + (-14 - e)).
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
            (0, 0) => sign,
            (0, m) => {
                // Subnormal: value = m * 2^-24 = 0.m * 2^-14; normalise by
                // shifting the leading 1 up to bit 10.
                let mut e = -14i32;
                let mut m = m;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x3FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }
}

/// Quantises a single `f32` through binary16 and back ("fp16 semantics").
#[inline]
pub fn quantize(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

/// Quantises a slice in place through binary16.
pub fn quantize_slice(xs: &mut [f32]) {
    crate::par::map_in_place(xs, quantize);
}

/// Returns a quantised copy of the slice.
pub fn quantized(xs: &[f32]) -> Vec<f32> {
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
