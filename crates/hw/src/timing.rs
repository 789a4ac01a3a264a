//! Execution-time model for simulated compute units.
//!
//! The model is a roofline with a launch overhead: an op's time is the
//! maximum of its compute time and its memory time, scaled by the DVFS
//! setting for the compute side (memory bandwidth is held constant across
//! GPU frequency changes, matching the paper's observation in Fig 5 that
//! DDR frequency is kept constant).

use crate::device::DeviceSpec;
use at_tensor::cost::{OpCounts, ReductionFactors};
use at_tensor::Precision;
use serde::{Deserialize, Serialize};

/// Per-device timing model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingModel {
    spec: DeviceSpec,
    /// Current clock in MHz (≤ nominal).
    freq_mhz: f64,
}

impl TimingModel {
    /// Builds a model at the device's nominal frequency.
    pub fn new(spec: DeviceSpec) -> TimingModel {
        let f = spec.nominal_mhz;
        TimingModel { spec, freq_mhz: f }
    }

    /// Current frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Sets the clock (DVFS). Values above nominal are clamped.
    pub fn set_frequency_mhz(&mut self, mhz: f64) {
        self.freq_mhz = mhz.clamp(1.0, self.spec.nominal_mhz);
    }

    /// Builder-style clone at a different clock, for evaluating a program
    /// across ladder steps without mutating the shared device model.
    pub fn with_frequency_mhz(mut self, mhz: f64) -> TimingModel {
        self.set_frequency_mhz(mhz);
        self
    }

    /// Predicted execution time in seconds of one tensor op with baseline
    /// counts `counts`, *algorithmic* reduction factors `alg` (sampling /
    /// perforation only — precision effects are applied here from
    /// `precision` and the device's capabilities).
    pub fn op_time(&self, counts: OpCounts, alg: ReductionFactors, precision: Precision) -> f64 {
        let flops = match precision {
            Precision::Fp32 => self.spec.flops_fp32,
            Precision::Fp16 => self.spec.flops_fp16,
        };
        // Compute rate scales with clock.
        let scale = self.freq_mhz / self.spec.nominal_mhz;
        let compute_t = counts.compute / alg.compute / (flops * scale);

        // Bytes per memory op: 4 for FP32, 2 for FP16 (storage is halved
        // regardless of whether the device computes FP16 faster).
        let bytes_per = match precision {
            Precision::Fp32 => 4.0,
            Precision::Fp16 => 2.0,
        };
        let memory_t = counts.memory / alg.memory * bytes_per * self.spec.dram_miss_fraction
            / self.spec.mem_bw;

        self.spec.launch_overhead_s + compute_t.max(memory_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_tensor::cost;
    use at_tensor::{ConvApprox, Shape};

    fn conv_counts() -> OpCounts {
        cost::conv2d_counts(
            Shape::nchw(1, 64, 32, 32),
            Shape::nchw(64, 64, 3, 3),
            (1, 1),
            (1, 1),
        )
    }

    #[test]
    fn fp16_speeds_up_gpu_not_cpu() {
        let counts = conv_counts();
        let gpu = TimingModel::new(DeviceSpec::tx2_gpu());
        let cpu = TimingModel::new(DeviceSpec::tx2_cpu());
        let none = ReductionFactors::NONE;
        let g32 = gpu.op_time(counts, none, Precision::Fp32);
        let g16 = gpu.op_time(counts, none, Precision::Fp16);
        assert!(g16 < g32 * 0.75, "GPU fp16 {g16} vs fp32 {g32}");
        let c32 = cpu.op_time(counts, none, Precision::Fp32);
        let c16 = cpu.op_time(counts, none, Precision::Fp16);
        // Compute-bound conv on CPU: fp16 gives no meaningful benefit.
        assert!(
            (c16 - c32).abs() / c32 < 0.05,
            "CPU fp16 {c16} vs fp32 {c32}"
        );
    }

    #[test]
    fn algorithmic_reduction_speeds_up() {
        let counts = conv_counts();
        let gpu = TimingModel::new(DeviceSpec::tx2_gpu());
        let half = cost::conv_reduction_factors(
            ConvApprox::FilterSampling { k: 2, offset: 0 },
            Precision::Fp32,
        );
        let t_exact = gpu.op_time(counts, ReductionFactors::NONE, Precision::Fp32);
        let t_half = gpu.op_time(counts, half, Precision::Fp32);
        assert!(t_half < t_exact);
        // Large compute-bound op: ~2x speedup expected (within overhead).
        assert!(t_exact / t_half > 1.6, "ratio {}", t_exact / t_half);
    }

    #[test]
    fn frequency_scaling_slows_compute() {
        let counts = conv_counts();
        let mut gpu = TimingModel::new(DeviceSpec::tx2_gpu());
        let t_full = gpu.op_time(counts, ReductionFactors::NONE, Precision::Fp32);
        gpu.set_frequency_mhz(318.75);
        let t_low = gpu.op_time(counts, ReductionFactors::NONE, Precision::Fp32);
        let ratio = t_low / t_full;
        assert!(ratio > 3.0 && ratio < 4.2, "slowdown ratio {ratio}");
    }

    #[test]
    fn launch_overhead_floors_tiny_ops() {
        let gpu = TimingModel::new(DeviceSpec::tx2_gpu());
        let tiny = OpCounts {
            compute: 10.0,
            memory: 10.0,
        };
        let t = gpu.op_time(tiny, ReductionFactors::NONE, Precision::Fp32);
        assert!(t >= gpu.spec.launch_overhead_s);
    }
}
