//! The repo's benchmark: four workloads over the whole stack — the paper's
//! tune → install → infer flow on real kernels, a tuner-independent
//! inference ladder, and the fleet simulator — each measured end to end
//! with tracing off and layer by layer from a traced run, with a
//! correctness gate in the same command. See `README.md`.
//!
//! Every layer is measured from outside, by timing calls into the public
//! functions of `crates/*`; the program itself is not modified.

pub mod cli;
pub mod compare;
pub mod metrics;
pub mod provenance;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
