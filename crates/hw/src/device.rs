//! Compute-unit descriptors for the simulated Jetson TX2-class SoC.

use serde::{Deserialize, Serialize};

/// The kinds of compute units a tensor operation can be scheduled on
/// (the unit of scheduling in ApproxTuner, §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ComputeUnitKind {
    /// The integrated GPU (256 CUDA cores in the TX2).
    Gpu,
    /// The multicore ARM CPU cluster.
    Cpu,
    /// The PROMISE analog in-memory accelerator (hardware-specific knobs;
    /// modelled by `at-promise`).
    Promise,
}

/// Performance descriptor for a digital compute unit.
///
/// Throughput/bandwidth values are *effective* (peak × achievable
/// efficiency), so the timing model can use them directly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which unit this describes.
    pub kind: ComputeUnitKind,
    /// Effective FP32 throughput at the nominal frequency, in FLOP/s.
    pub flops_fp32: f64,
    /// Effective FP16 throughput at the nominal frequency, in FLOP/s.
    /// Equal to `flops_fp32` when the unit has no FP16 hardware.
    pub flops_fp16: f64,
    /// Effective memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Whether FP16 execution is faster than FP32 on this unit.
    pub fp16_hardware: bool,
    /// Nominal (maximum) clock in MHz.
    pub nominal_mhz: f64,
    /// Fixed per-op dispatch overhead in seconds (kernel launch, etc.).
    pub launch_overhead_s: f64,
    /// Fraction of the analytical memory-op count that reaches DRAM.
    ///
    /// `at_tensor::cost` counts every operand access; tiled kernels reuse
    /// operands from caches/scratchpad, so only a small fraction misses.
    /// This keeps large convolutions compute-bound, as on the real TX2.
    pub dram_miss_fraction: f64,
}

impl DeviceSpec {
    /// The simulated TX2 GPU: 256 CUDA cores × 2 FLOP × 1.3005 GHz ≈ 666
    /// GFLOP/s peak; we model ~45% achievable efficiency for the paper's
    /// hand-optimised kernels. FP16 has 2× peak rate but ~1.7× achievable
    /// (packing overheads), consistent with the paper's observed 1.63×
    /// average FP16 speedup. LPDDR4 bandwidth 59.7 GB/s, ~70% achievable.
    pub fn tx2_gpu() -> DeviceSpec {
        let peak = 256.0 * 2.0 * 1.3005e9;
        DeviceSpec {
            kind: ComputeUnitKind::Gpu,
            flops_fp32: peak * 0.45,
            flops_fp16: peak * 0.45 * 1.7,
            mem_bw: 59.7e9 * 0.70,
            fp16_hardware: true,
            nominal_mhz: 1300.5,
            launch_overhead_s: 5e-6,
            dram_miss_fraction: 0.02,
        }
    }

    /// The simulated TX2 CPU cluster (4×A57 + 2×Denver): no FP16 execution
    /// units, so FP16 runs at FP32 rate (§7.1: "the ARM CPUs on the Jetson
    /// TX2 board do not support FP16").
    pub fn tx2_cpu() -> DeviceSpec {
        // ~6 cores × 4-wide NEON FMA × 2 GHz ≈ 96 GFLOP/s peak, ~35% eff.
        let peak = 6.0 * 8.0 * 2.0e9;
        DeviceSpec {
            kind: ComputeUnitKind::Cpu,
            flops_fp32: peak * 0.35,
            flops_fp16: peak * 0.35,
            mem_bw: 30.0e9 * 0.60,
            fp16_hardware: false,
            nominal_mhz: 2000.0,
            launch_overhead_s: 1e-6,
            dram_miss_fraction: 0.02,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_has_fp16_advantage() {
        let g = DeviceSpec::tx2_gpu();
        assert!(g.fp16_hardware);
        let ratio = g.flops_fp16 / g.flops_fp32;
        assert!((1.5..=2.0).contains(&ratio), "fp16 ratio {ratio}");
    }

    #[test]
    fn cpu_has_no_fp16_advantage() {
        let c = DeviceSpec::tx2_cpu();
        assert!(!c.fp16_hardware);
        assert_eq!(c.flops_fp16, c.flops_fp32);
    }

    #[test]
    fn gpu_faster_than_cpu() {
        assert!(DeviceSpec::tx2_gpu().flops_fp32 > DeviceSpec::tx2_cpu().flops_fp32);
    }
}
