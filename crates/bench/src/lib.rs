//! # at-bench — the experiment harness
//!
//! One binary, `repro`, over a static registry ([`repro::EXPERIMENTS`]) of
//! every table and figure of the paper's evaluation (§7) and this repo's
//! own serving, fleet and kernel reports; see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.
//! Three shared pieces carry the experiments: [`env::Sizing`] (the only
//! reader of the environment), [`harness`] (model + dataset + profile
//! setup with on-disk profile caching, and the per-benchmark sweep) and
//! [`fleet_storm::FleetStorm`] (the fleet fixture); result formatting and
//! artifact writing live in [`report`].

pub mod bench_kernels;
mod cost_fit;
pub mod env;
mod fig7;
pub mod fleet_chaos;
pub mod fleet_sdc;
pub mod fleet_storm;
pub mod harness;
mod paper;
mod qos_guard;
pub mod report;
pub mod repro;
mod runtime_adapt;
pub mod serve_fleet;
mod serve_storm;
mod tune_faults;
