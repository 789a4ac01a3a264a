//! The P1–P7 voltage-swing knob.

use serde::{Deserialize, Serialize};

/// PROMISE analog read-swing voltage level.
///
/// Levels are ordered by increasing voltage: `P1` uses the least energy and
/// has the largest output error; `P7` uses the most energy and has the
/// smallest error. No level produces exact results.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum VoltageLevel {
    /// Lowest swing: cheapest, noisiest.
    P1,
    /// Level 2.
    P2,
    /// Level 3.
    P3,
    /// Level 4.
    P4,
    /// Level 5.
    P5,
    /// Level 6.
    P6,
    /// Highest swing: most accurate, most expensive.
    P7,
}

impl VoltageLevel {
    /// All levels in increasing voltage order.
    pub const ALL: [VoltageLevel; 7] = [
        VoltageLevel::P1,
        VoltageLevel::P2,
        VoltageLevel::P3,
        VoltageLevel::P4,
        VoltageLevel::P5,
        VoltageLevel::P6,
        VoltageLevel::P7,
    ];

    /// 1-based index (P1 → 1 … P7 → 7).
    pub fn index(self) -> usize {
        self as usize + 1
    }

    /// Relative standard deviation of the Gaussian output error at this
    /// level, expressed as a fraction of the exact output's RMS value.
    ///
    /// Calibrated as a geometric ladder: halving roughly every two levels,
    /// so the error knob spans an order of magnitude — wide enough that the
    /// tuner must choose levels per-operation, as in the paper.
    pub fn error_rel_std(self) -> f64 {
        // P1 … P7
        const SIGMA: [f64; 7] = [0.120, 0.085, 0.060, 0.042, 0.030, 0.021, 0.015];
        SIGMA[self as usize]
    }

    /// Energy per multiply–accumulate in picojoules.
    ///
    /// Calibrated against the digital-baseline MAC energy in
    /// [`crate::model::PromiseModel`] so the accelerator-level energy
    /// advantage spans the 3.4–5.5× range reported by Srivastava et al.
    pub(crate) fn energy_per_mac_pj(self) -> f64 {
        // Higher swing voltage costs more energy (~V²); ~15% per level.
        #[allow(clippy::approx_constant)] // measured energy table, not 1/π
        const PJ: [f64; 7] = [0.218, 0.245, 0.278, 0.318, 0.368, 0.428, 0.503];
        PJ[self as usize]
    }

    /// Throughput advantage over the digital GPU path at this level
    /// (Srivastava et al. report 1.4–3.4× higher throughput).
    pub fn speedup_vs_digital(self) -> f64 {
        const SPEEDUP: [f64; 7] = [3.4, 3.0, 2.6, 2.3, 2.0, 1.7, 1.4];
        SPEEDUP[self as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for l in VoltageLevel::ALL {
            assert_eq!(VoltageLevel::ALL[l.index() - 1], l);
        }
    }

    #[test]
    fn error_monotone_decreasing_in_voltage() {
        for w in VoltageLevel::ALL.windows(2) {
            assert!(
                w[0].error_rel_std() > w[1].error_rel_std(),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn energy_monotone_increasing_in_voltage() {
        for w in VoltageLevel::ALL.windows(2) {
            assert!(
                w[0].energy_per_mac_pj() < w[1].energy_per_mac_pj(),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn speedup_in_reported_range() {
        for l in VoltageLevel::ALL {
            let s = l.speedup_vs_digital();
            assert!((1.4..=3.4).contains(&s));
        }
    }

    #[test]
    fn no_level_is_exact() {
        for l in VoltageLevel::ALL {
            assert!(l.error_rel_std() > 0.0);
        }
    }
}
