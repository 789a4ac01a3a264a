#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # at-hw — simulated edge-SoC compute units, DVFS, power and energy
//!
//! The paper's client device is an NVIDIA Jetson Tegra TX2 (Table 2: 6 CPU
//! cores, 2 GPU SMs / 256 CUDA cores at 1.12–1.3 GHz, 8 GB DRAM) with power
//! measured from on-board voltage rails over I2C at 1 kHz. No such board is
//! available here, so this crate provides an analytical *device model* that
//! plays the TX2's role (energy is the closed form `power × modelled time`;
//! nothing samples a rail):
//!
//! * [`DeviceSpec`] — peak throughput / bandwidth descriptors for the GPU
//!   and CPU compute units (FP16 runs at double rate on the GPU; the ARM
//!   CPU has no FP16 units, matching §7.1).
//! * [`timing`] — an execution-time model driven by the analytical
//!   operation counts of `at-tensor::cost`, with DVFS scaling.
//! * [`dvfs`] — the 12-step GPU frequency ladder (1300.5 → 318.75 MHz) used
//!   by the runtime-adaptation experiments (Fig 5, Fig 6).
//! * [`power`] — rail-level power model fitted to the *shape* of Figure 5
//!   (GPU power drops ~7×, total system power ~1.9× across the ladder).
//! * [`mulcell`] — per-bitwidth speed/energy benefit of the LUT-emulated
//!   approximate-multiplier cells (their numerical semantics live in
//!   `at-tensor::lut`; only the benefit is hardware-specific).
//! * [`disturb`] — scripted time-varying disturbances (governor steps,
//!   thermal throttling, brownouts, load spikes, sensor dropout) against
//!   the device model, for closed-loop runtime-adaptation experiments.

pub mod device;
pub mod disturb;
pub mod dvfs;
pub mod mulcell;
pub mod power;
pub mod timing;

pub use device::DeviceSpec;
pub use disturb::{DeviceState, Disturbance, DisturbedDevice, Scenario};
pub use dvfs::FrequencyLadder;
pub use mulcell::LutMulPoint;
pub use power::PowerModel;
pub use timing::TimingModel;
