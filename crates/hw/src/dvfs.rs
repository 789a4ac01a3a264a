//! The GPU DVFS frequency ladder of the runtime experiments (§6.4: "12
//! different frequencies from 1.3 GHz to 319 MHz").

use serde::{Deserialize, Serialize};

/// An ordered ladder of available clock frequencies, highest first.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrequencyLadder {
    mhz: Vec<f64>,
}

impl FrequencyLadder {
    /// The TX2 GPU ladder: 12 evenly spaced steps from 1300.5 MHz down to
    /// 318.75 MHz. The interior steps land on the frequencies the paper
    /// quotes (675, 586, 497 MHz).
    pub fn tx2_gpu() -> FrequencyLadder {
        let top = 1300.5;
        let bottom = 318.75;
        let n = 12;
        let step = (top - bottom) / (n - 1) as f64;
        FrequencyLadder {
            mhz: (0..n).map(|i| top - i as f64 * step).collect(),
        }
    }

    /// Builds a custom ladder; frequencies are sorted highest-first.
    pub fn new(mut mhz: Vec<f64>) -> FrequencyLadder {
        mhz.sort_by(|a, b| b.partial_cmp(a).unwrap());
        FrequencyLadder { mhz }
    }

    /// All frequencies, highest first.
    pub fn frequencies(&self) -> &[f64] {
        &self.mhz
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.mhz.len()
    }

    /// True when the ladder has no steps.
    pub fn is_empty(&self) -> bool {
        self.mhz.is_empty()
    }

    /// Highest frequency.
    pub fn max(&self) -> f64 {
        self.mhz[0]
    }

    /// Frequency at ladder index (0 = highest).
    pub fn at(&self, idx: usize) -> f64 {
        self.mhz[idx]
    }

    /// Slowdown factor of step `idx` relative to the highest step for a
    /// compute-bound workload (time scales inversely with frequency).
    pub fn slowdown(&self, idx: usize) -> f64 {
        self.max() / self.mhz[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx2_ladder_matches_paper() {
        let l = FrequencyLadder::tx2_gpu();
        assert_eq!(l.len(), 12);
        assert!((l.max() - 1300.5).abs() < 1e-9);
        assert!((l.at(11) - 318.75).abs() < 1e-9);
        // The paper's quoted runtime-experiment frequencies appear on the
        // ladder (±1 MHz).
        for f in [675.0, 586.0, 497.0] {
            assert!(
                l.frequencies().iter().any(|&x| (x - f).abs() < 1.0),
                "{f} MHz missing from ladder {:?}",
                l.frequencies()
            );
        }
    }

    #[test]
    fn slowdown_monotone() {
        let l = FrequencyLadder::tx2_gpu();
        for i in 1..l.len() {
            assert!(l.slowdown(i) > l.slowdown(i - 1));
        }
        assert_eq!(l.slowdown(0), 1.0);
        // ~4.08x slowdown at the bottom step.
        assert!((l.slowdown(11) - 1300.5 / 318.75).abs() < 1e-9);
    }

    #[test]
    fn custom_ladder_sorted() {
        let l = FrequencyLadder::new(vec![500.0, 1000.0, 750.0]);
        assert_eq!(l.frequencies(), &[1000.0, 750.0, 500.0]);
    }
}
