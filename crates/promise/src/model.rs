//! Timing and energy model for PROMISE, calibrated against the digital
//! baseline so the advantage matches the ranges reported in the paper
//! (§2.3: "PROMISE consumes 3.4–5.5× less energy and has 1.4–3.4× higher
//! throughput compared even to fully-custom non-programmable digital
//! accelerators").

use crate::geometry::PromiseGeometry;
use crate::voltage::VoltageLevel;
use at_tensor::cost::OpCounts;
use serde::{Deserialize, Serialize};

/// Latency and energy estimator for ops offloaded to PROMISE.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PromiseModel {
    /// Hardware geometry.
    pub geometry: PromiseGeometry,
    /// Energy per MAC of the *digital* comparison path, picojoules. The
    /// per-level PROMISE MAC energies in `VoltageLevel::energy_per_mac_pj`
    /// are calibrated against this.
    pub digital_mac_pj: f64,
    /// Effective digital MAC throughput (MAC/s) used as the speedup
    /// reference.
    pub digital_macs_per_s: f64,
    /// Fixed per-op offload overhead, seconds (data staging into banks).
    pub offload_overhead_s: f64,
}

impl PromiseModel {
    /// Model used throughout the evaluation: digital reference ≈ the
    /// simulated TX2 GPU running a MAC-dominated kernel.
    pub fn paper() -> PromiseModel {
        PromiseModel {
            geometry: PromiseGeometry::paper(),
            digital_mac_pj: 1.2,
            digital_macs_per_s: 150e9,
            offload_overhead_s: 10e-6,
        }
    }

    /// Number of MACs in an op given its analytical counts (2 flops/MAC).
    fn macs(counts: OpCounts) -> f64 {
        counts.compute / 2.0
    }

    /// Execution time of an op at `level`, seconds.
    pub fn op_time(&self, counts: OpCounts, level: VoltageLevel) -> f64 {
        let macs = Self::macs(counts);
        let digital_t = macs / self.digital_macs_per_s;
        self.offload_overhead_s + digital_t / level.speedup_vs_digital()
    }

    /// Energy of an op at `level`, joules.
    pub fn op_energy(&self, counts: OpCounts, level: VoltageLevel) -> f64 {
        Self::macs(counts) * level.energy_per_mac_pj() * 1e-12
    }

    /// Energy advantage (digital / PROMISE) at a level.
    pub fn energy_advantage(&self, level: VoltageLevel) -> f64 {
        self.digital_mac_pj / level.energy_per_mac_pj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> OpCounts {
        OpCounts {
            compute: 2.0e9, // 1e9 MACs
            memory: 1.0e9,
        }
    }

    #[test]
    fn energy_advantage_in_paper_range() {
        let m = PromiseModel::paper();
        for l in VoltageLevel::ALL {
            let adv = m.energy_advantage(l);
            assert!(
                (2.2..=5.6).contains(&adv),
                "{l:?} energy advantage {adv} outside range"
            );
        }
        // The extremes hit the quoted 3.4–5.5x bracket.
        assert!(m.energy_advantage(VoltageLevel::P1) > 5.0);
        assert!(m.energy_advantage(VoltageLevel::P7) < 3.4 + 0.5);
    }

    #[test]
    fn faster_than_digital_reference() {
        let m = PromiseModel::paper();
        let digital_t = 1.0e9 / m.digital_macs_per_s;
        for l in VoltageLevel::ALL {
            let t = m.op_time(counts(), l);
            assert!(t < digital_t, "{l:?}: {t} >= digital {digital_t}");
        }
    }

    #[test]
    fn lower_levels_cheaper_and_faster() {
        let m = PromiseModel::paper();
        let c = counts();
        for w in VoltageLevel::ALL.windows(2) {
            assert!(m.op_energy(c, w[0]) < m.op_energy(c, w[1]));
            assert!(m.op_time(c, w[0]) <= m.op_time(c, w[1]));
        }
    }

    #[test]
    fn offload_overhead_dominates_tiny_ops() {
        let m = PromiseModel::paper();
        let tiny = OpCounts {
            compute: 2.0,
            memory: 2.0,
        };
        let t = m.op_time(tiny, VoltageLevel::P1);
        assert!(t >= m.offload_overhead_s);
    }
}
