#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # at-promise — simulator for the PROMISE analog in-memory accelerator
//!
//! PROMISE (Srivastava et al., ISCA'18) is a programmable mixed-signal
//! accelerator for machine learning. ApproxTuner maps tensor convolutions
//! and matrix multiplications onto it at install time. Being analog, its
//! voltage swings introduce *statistical, normally-distributed* errors in
//! the output values; the knob values are 7 voltage levels P1–P7 in
//! increasing order of voltage/energy and decreasing error — **no level is
//! exact** (paper §2.3).
//!
//! This crate provides the role the authors' "functional simulator and
//! validated timing and energy model" plays in the paper:
//!
//! * [`VoltageLevel`] — the P1..P7 knob with monotone error/energy tables.
//! * [`functional`] — Gaussian error injection ([`inject_noise`]) on the
//!   exact conv/matmul outputs the graph executor computes in a PROMISE
//!   layer's slot.
//! * [`model`] — latency and energy estimates per op, calibrated so
//!   PROMISE is 3.4–5.5× more energy-efficient and 1.4–3.4× faster than
//!   the digital baseline, as reported by Srivastava et al.
//! * [`geometry`] — the memory-bank geometry of the paper's Table 2
//!   (256 banks × 16 KB at 1 GHz).

pub mod functional;
pub mod geometry;
pub mod model;
pub mod voltage;

pub use functional::inject_noise;
pub use model::PromiseModel;
pub use voltage::VoltageLevel;
