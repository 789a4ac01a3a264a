//! Approximate-multiplier cell model (the hardware side of the LUT knobs).
//!
//! `at-tensor::lut` fixes the *numerical* semantics of the LUT-emulated
//! Mitchell multiplier — quantise to `bits`-bit magnitudes, serve products
//! from the precomputed truth table — so its QoS effect is
//! hardware-independent. What *is* hardware-specific is the benefit: a
//! logarithmic multiplier cell is far smaller and lower-energy than an
//! exact array multiplier, and narrower operands shrink it further
//! (roughly quadratically in operand width for the array portion).
//!
//! This module prices that benefit the same way `at-hw` prices FP16's
//! double-rate units: a per-bitwidth compute-rate speedup and an energy
//! advantage, consumed by `at-core::perf` when simulating install-time
//! measurements. The numbers are calibrated to the shape reported for
//! Mitchell-family multipliers in the approximate-computing literature
//! (2–3× energy at 8 bits, growing as operands narrow), not to a specific
//! fabbed cell.

use serde::{Deserialize, Serialize};

/// Benefit descriptor for one LUT-multiplier bitwidth.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LutMulPoint {
    /// Operand bitwidth of the approximate multiplier.
    pub bits: u8,
    /// Multiply-accumulate rate advantage over the exact FP32 pipeline
    /// (applied to the compute side of the roofline).
    pub compute_speedup: f64,
    /// Energy-per-op advantage over the exact FP32 pipeline.
    pub energy_advantage: f64,
    /// Mean relative error of a single product (Mitchell error plus
    /// quantisation), for documentation and sanity checks.
    pub mean_rel_error: f64,
}

/// Calibration points for the supported knob bitwidths (8/6/4).
pub(crate) const LUT_MUL_POINTS: [LutMulPoint; 3] = [
    LutMulPoint {
        bits: 8,
        compute_speedup: 2.0,
        energy_advantage: 3.2,
        mean_rel_error: 0.040,
    },
    LutMulPoint {
        bits: 6,
        compute_speedup: 2.6,
        energy_advantage: 4.8,
        mean_rel_error: 0.055,
    },
    LutMulPoint {
        bits: 4,
        compute_speedup: 3.2,
        energy_advantage: 7.1,
        mean_rel_error: 0.11,
    },
];

impl LutMulPoint {
    /// The calibration point for a bitwidth; `None` for widths without a
    /// registered knob.
    pub fn for_bits(bits: u8) -> Option<LutMulPoint> {
        LUT_MUL_POINTS.iter().copied().find(|p| p.bits == bits)
    }

    /// Active-power factor relative to the exact pipeline: the cell runs
    /// `compute_speedup`× faster at `energy_advantage`× less energy per op,
    /// so while active it draws `speedup / advantage` of the exact power.
    pub fn power_factor(&self) -> f64 {
        self.compute_speedup / self.energy_advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_graded_monotonically() {
        // Narrower operands: faster, cheaper, less accurate.
        for w in LUT_MUL_POINTS.windows(2) {
            assert!(w[0].bits > w[1].bits);
            assert!(w[0].compute_speedup < w[1].compute_speedup);
            assert!(w[0].energy_advantage < w[1].energy_advantage);
            assert!(w[0].mean_rel_error < w[1].mean_rel_error);
        }
    }

    #[test]
    fn lookup_by_bits() {
        assert_eq!(LutMulPoint::for_bits(8).unwrap().bits, 8);
        assert_eq!(LutMulPoint::for_bits(4).unwrap().compute_speedup, 3.2);
        assert!(LutMulPoint::for_bits(5).is_none());
    }

    #[test]
    fn cells_draw_less_power_than_exact() {
        for p in LUT_MUL_POINTS {
            assert!(p.power_factor() < 1.0, "{}b power factor", p.bits);
            assert!(p.compute_speedup > 1.0 && p.energy_advantage > 1.0);
        }
    }
}
