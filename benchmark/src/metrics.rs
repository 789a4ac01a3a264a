//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root repeats the driver-facing part of these tables; a self-test keeps
//! the two in step.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tune_conv",
        why: "Paper's three-phase flow on conv-heavy Alexnet2: collect, tune, ship, install, infer; wall is approximate-kernel time, fleet idle",
    },
    Workload {
        name: "tune_small",
        why: "Same tuner layers on LeNet: tiny tensors, so per-call overhead (packing, pool dispatch, allocation, supervision) dominates, not FLOPs",
    },
    Workload {
        name: "infer_ladder",
        why: "Tuner-independent inference under five fixed knob rungs plus LeNet batch 1: isolates kernels and executor; a tuner change must not move it",
    },
    Workload {
        name: "fleet_storm",
        why: "Fleet simulator under brownout, chaos and bit-flip campaigns with kernels idle: the event loop, router and guard; kernel changes must not move it",
    },
];

/// How an end-to-end metric is compared between two sets of runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Gate {
    /// Median may worsen by at most this share of the baseline median.
    Relative(f64),
    /// A pure function of code and seed: must repeat exactly.
    Exact,
    /// Deterministic, but small drifts up to this share are tolerated.
    ExactWithin(f64),
    /// Any worsening at all is a regression.
    NoWorse,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
    /// Workloads that exercise the metric; the others omit it.
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &["tune_conv", "tune_small", "infer_ladder", "fleet_storm"];
const TUNE: &[&str] = &["tune_conv", "tune_small"];

/// Every end-to-end metric; `README.md` says what each one means. The ones
/// every workload reports and that hold their bound across seeds
/// (`setup_s`, `fixed_work_s`, `peak_rss_mb`) are what `BENCHMARK.json` lists
/// under `end_to_end`; the rest are specific to a workload or a seed, so
/// they are compared by `benchmark compare` on runs of the same seed and
/// listed in `BENCHMARK.json` under `per_layer`.
pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Relative(0.25),
        workloads: ALL,
    },
    EndToEnd {
        name: "fixed_work_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Relative(0.20),
        workloads: ALL,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: ALL,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        gate: Gate::Relative(0.25),
        workloads: ALL,
    },
    EndToEnd {
        name: "tune_wall_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: TUNE,
    },
    EndToEnd {
        name: "install_wall_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: TUNE,
    },
    EndToEnd {
        name: "curve_best_speedup",
        unit: "x",
        better: Better::Higher,
        gate: Gate::Exact,
        workloads: TUNE,
    },
    EndToEnd {
        name: "shipped_measured_speedup",
        unit: "x",
        better: Better::Higher,
        gate: Gate::Relative(0.10),
        workloads: &["tune_conv"],
    },
    EndToEnd {
        name: "infer_exact_ms_p50",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: &["infer_ladder"],
    },
    EndToEnd {
        name: "infer_exact_ms_p95",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::Relative(0.15),
        workloads: &["infer_ladder"],
    },
    EndToEnd {
        name: "infer_approx_ms_p50",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: &["infer_ladder"],
    },
    EndToEnd {
        name: "infer_small_ms_p50",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::Relative(0.10),
        workloads: &["infer_ladder"],
    },
    EndToEnd {
        name: "fleet_sim_rps",
        unit: "1/s",
        better: Better::Higher,
        gate: Gate::Relative(0.10),
        workloads: &["fleet_storm"],
    },
    EndToEnd {
        name: "fleet_p99_latency_ms",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::ExactWithin(0.01),
        workloads: &["fleet_storm"],
    },
    EndToEnd {
        name: "ops_failed_share",
        unit: "share",
        better: Better::Lower,
        gate: Gate::NoWorse,
        workloads: ALL,
    },
];

/// The end-to-end metrics `BENCHMARK.json` lists under `end_to_end`: each
/// is reported by every workload, is never 0, and is steady across seeds.
pub const DRIVER_END_TO_END: [&str; 3] = ["setup_s", "fixed_work_s", "peak_rss_mb"];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced run. A workload that never enters a
/// layer reports 0 for that layer's rows.
pub const PER_LAYER: [PerLayer; 76] = [
    // at-tensor — measured on infer_ladder.
    pl("tensor.gemm_exact_gflops", "GFLOP/s", Higher),
    pl("tensor.gemm_exact_1t_gflops", "GFLOP/s", Higher),
    pl("tensor.gemm_fp16_ms", "ms", Lower),
    pl("tensor.gemm_lut8_ms", "ms", Lower),
    pl("tensor.conv_exact_ms", "ms", Lower),
    pl("tensor.conv_samp50_ms", "ms", Lower),
    pl("tensor.conv_perf50_ms", "ms", Lower),
    pl("tensor.conv_fp16_ms", "ms", Lower),
    pl("tensor.conv_lut8_ms", "ms", Lower),
    pl("tensor.abft_overhead_pct", "%", Lower),
    pl("tensor.muls_exact", "count", Lower),
    pl("tensor.muls_samp50", "count", Lower),
    pl("tensor.muls_perf50", "count", Lower),
    pl("tensor.bytes_exact", "B", Lower),
    // at-ir::exec — infer_ladder.
    pl("ir.exec.conv_share", "share", Lower),
    pl("ir.exec.dense_share", "share", Lower),
    pl("ir.exec.other_share", "share", Lower),
    pl("ir.exec.overhead_ms", "ms", Lower),
    pl("ir.exec.nodes", "count", Lower),
    // at-models — every workload.
    pl("models.build_ms", "ms", Lower),
    pl("models.dataset_ms", "ms", Lower),
    // at-core::profile — tune_*.
    pl("core.profile.collect_s", "s", Lower),
    pl("core.profile.pairs", "count", Higher),
    pl("core.profile.pairs_per_s", "1/s", Higher),
    // at-core::{predict, perf} — tune_*.
    pl("core.predict.pi1_ns", "ns", Lower),
    pl("core.predict.pi2_ns", "ns", Lower),
    pl("core.perf.predict_ns", "ns", Lower),
    pl("core.perf.rank_tau", "tau", Higher),
    pl("core.perf.speedup_ratio_geomean", "x", Lower),
    // at-core::search — tune_*.
    pl("core.search.search_s", "s", Lower),
    pl("core.search.iterations", "count", Higher),
    pl("core.search.configs_per_s", "1/s", Higher),
    pl("core.search.rounds", "count", Lower),
    pl("core.search.cache_hit_rate", "share", Higher),
    pl("core.search.cache_misses", "count", Lower),
    pl("core.search.dedups", "count", Higher),
    pl("core.search.faults_caught", "count", Lower),
    // at-core::tuner — tune_*.
    pl("core.tuner.validation_s", "s", Lower),
    pl("core.tuner.alpha", "x", Lower),
    pl("core.tuner.curve_points", "count", Higher),
    pl("core.tuner.points_above_floor", "share", Higher),
    // at-core::ship, install — tune_*.
    pl("core.ship.roundtrip_ms", "ms", Lower),
    pl("core.ship.artifact_bytes", "B", Lower),
    pl("core.install.refine_s", "s", Lower),
    pl("core.install.points_in", "count", Higher),
    pl("core.install.points_kept", "count", Higher),
    // at-core::runtime, guard — fleet_storm.
    pl("core.runtime.record_ns", "ns", Lower),
    pl("core.runtime.adapt_ns", "ns", Lower),
    pl("core.runtime.switches", "count", Lower),
    pl("core.guard.observe_ns", "ns", Lower),
    pl("core.guard.canary_share", "share", Lower),
    pl("core.guard.quarantined_points", "count", Lower),
    pl("core.guard.floor_breaches", "count", Lower),
    pl("core.guard.honest_convictions", "count", Lower),
    // at-core::fleet — fleet_storm.
    pl("core.fleet.sim_rps.round-robin", "1/s", Higher),
    pl("core.fleet.sim_rps.join-shortest-queue", "1/s", Higher),
    pl("core.fleet.sim_rps.qos-power-of-two", "1/s", Higher),
    pl("core.fleet.sim_rps_clean", "1/s", Higher),
    pl("core.fleet.events_per_s", "1/s", Higher),
    pl("core.fleet.route_ns", "ns", Lower),
    pl("core.fleet.arrivals_gen_s", "s", Lower),
    pl("core.fleet.report_json_ms", "ms", Lower),
    pl("core.fleet.steal_events", "count", Lower),
    pl("core.fleet.breaker_trips", "count", Lower),
    pl("core.fleet.shed_pct", "%", Lower),
    pl("core.fleet.requests_unaccounted", "count", Lower),
    pl("core.fleet.sdc_detected", "count", Higher),
    pl("core.fleet.sdc_escaped", "count", Lower),
    pl("core.fleet.gray_ejections", "count", Lower),
    // at-hw and the chaos plan — fleet_storm.
    pl("hw.invocation_time_ns", "ns", Lower),
    pl("core.chaos.plan_gen_ms", "ms", Lower),
    // The benchmark itself — every workload.
    pl("bench.trace_overhead_pct", "%", Lower),
    pl("bench.pool_speedup", "x", Higher),
    pl("bench.spans", "count", Lower),
    pl("bench.generator_threads", "count", Lower),
    pl("bench.self_time_share", "share", Lower),
];

/// True for names the result line may carry: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
