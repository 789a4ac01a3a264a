//! Fleet-scale multi-tenant load test — the body of the `serve_fleet`
//! binary and the writer of the repo's first `BENCH_serve.json`.
//!
//! Builds a simulated fleet of N replicas serving M tenant models from the
//! `at-models` zoo — each tenant with its own synthesized tradeoff curve
//! (anchored to the paper's Table 1 accuracy and layer counts), QoS floor,
//! cost anchor and traffic profile — and drives millions of simulated
//! requests through every router policy (round-robin, join-shortest-queue,
//! QoS-aware power-of-two-choices) under a mid-run brownout storm. One
//! tenant's curve deliberately lies, so the per-replica guard machinery
//! (canaries → quarantine → exact fallback) is inside the measured path.
//!
//! The headline number is the *harness's own* sustained simulated-requests
//! per second: AdaPT and TFApprox both observe that emulation throughput is
//! the limiting factor for this class of system, so the fleet simulator's
//! throughput is tracked as a first-class benchmark. Simulated results are
//! a pure function of the seed; wall-clock timings live in separate fields
//! that carry no behavioural meaning. A built-in self-check re-runs one
//! policy under 1-thread and 8-thread rayon pools and asserts bit-identical
//! reports.
//!
//! Environment: `AT_BENCH_REQUESTS` (total arrival target, default
//! 1,200,000), `AT_BENCH_REPLICAS` (default 8), `AT_BENCH_SEED` (default
//! 7) — the legacy `AT_FLEET_*` names still work as aliases (see
//! [`crate::env`]).

use crate::report::{pct, write_bench_json, Table, RESULTS_SCHEMA_VERSION};
use at_core::config::Config;
use at_core::fleet::{run_fleet, FleetParams, FleetReport, RouterPolicy, TenantSpec};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use at_models::BenchmarkId;

/// Per-tenant slice of the benchmark artifact.
#[derive(serde::Serialize)]
pub(crate) struct TenantStats {
    name: String,
    arrivals: usize,
    on_time_pct: f64,
    shed_pct: f64,
    /// Canaried requests observed below the tenant's QoS floor.
    floor_breaches: usize,
    /// Requests planned below the floor (must stay 0 while guards work).
    planned_floor_breaches: usize,
    quarantined_points: usize,
    exact_fallback_replicas: usize,
    mean_qos: f64,
}

/// Per-policy slice of the benchmark artifact.
#[derive(serde::Serialize)]
pub(crate) struct PolicyStats {
    policy: String,
    arrivals: usize,
    admitted: usize,
    on_time_pct: f64,
    shed_pct: f64,
    breaker_trips: usize,
    steal_events: usize,
    mean_latency_ms: f64,
    p99_latency_ms: f64,
    /// Wall-clock seconds the simulation took (not simulated time).
    wall_s: f64,
    /// Simulated arrivals processed per wall-clock second.
    sim_rps: f64,
    tenants: Vec<TenantStats>,
}

/// The whole `BENCH_serve.json` artifact.
#[derive(serde::Serialize)]
pub struct Artifact {
    schema_version: u32,
    bench: String,
    replicas: usize,
    tenant_models: Vec<String>,
    requests_target: usize,
    seed: u64,
    scenario: String,
    horizon_s: f64,
    /// Peak per-policy simulated-requests/sec — the headline number.
    sustained_sim_rps: f64,
    /// 1-thread vs 8-thread rayon reports compared byte-for-byte.
    bit_identical_across_threads: bool,
    policies: Vec<PolicyStats>,
}

/// Synthesizes a tenant curve from zoo metadata: speedup rungs grow
/// linearly, promised QoS drops grow with depth, both seeded by the
/// model's layer count so every tenant's curve differs deterministically.
fn zoo_curve(id: BenchmarkId, lie: f64) -> TradeoffCurve {
    let acc = id.paper_baseline_accuracy();
    let rungs = 4 + id.paper_layers() % 4;
    TradeoffCurve::from_points(
        (0..rungs)
            .map(|i| TradeoffPoint {
                // A lying curve promises `lie` more QoS than the honest
                // executor will deliver (0.0 for honest tenants).
                qos: acc - (0.4 + 0.5 * i as f64) + lie,
                perf: 1.2 + 0.22 * i as f64,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    )
}

/// The honest QoS each rung of a tenant actually delivers.
fn honest_qos(id: BenchmarkId) -> Vec<f64> {
    let acc = id.paper_baseline_accuracy();
    let rungs = 4 + id.paper_layers() % 4;
    (0..rungs).map(|i| acc - (0.4 + 0.5 * i as f64)).collect()
}

/// The fleet's tenant roster: six zoo models with mixed traffic profiles.
/// `Vgg16Cifar10` ships a curve that over-promises by 2.5 QoS points on
/// every rung, while its executor under-delivers a further 1.5 (a 4-point
/// total lie, dipping below the tenant's floor on deep rungs) — the guard
/// must convict it per replica without touching the other five tenants.
pub(crate) const LIAR: BenchmarkId = BenchmarkId::Vgg16Cifar10;
const LIE_MARGIN: f64 = 2.5;

pub(crate) fn roster(horizon_s: f64, rate_scale: f64, seed: u64) -> Vec<TenantSpec> {
    let models = [
        BenchmarkId::LeNet,
        BenchmarkId::AlexNetCifar10,
        BenchmarkId::AlexNet2,
        BenchmarkId::ResNet18,
        LIAR,
        BenchmarkId::MobileNet,
    ];
    models
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let pattern = match i {
                0 => TrafficPattern::Steady {
                    rate_rps: 60.0 * rate_scale,
                },
                1 => TrafficPattern::Bursty {
                    base_rps: 30.0 * rate_scale,
                    burst_rps: 90.0 * rate_scale,
                    period_s: horizon_s / 10.0,
                    duty: 0.25,
                },
                2 => TrafficPattern::Diurnal {
                    min_rps: 10.0 * rate_scale,
                    max_rps: 50.0 * rate_scale,
                    period_s: horizon_s / 4.0,
                },
                3 => TrafficPattern::Steady {
                    rate_rps: 25.0 * rate_scale,
                },
                4 => TrafficPattern::Bursty {
                    base_rps: 20.0 * rate_scale,
                    burst_rps: 60.0 * rate_scale,
                    period_s: horizon_s / 8.0,
                    duty: 0.3,
                },
                _ => TrafficPattern::Spike {
                    base_rps: 20.0 * rate_scale,
                    spike_rps: 200.0 * rate_scale,
                    at_s: 0.3 * horizon_s,
                    len_s: 0.02 * horizon_s,
                },
            };
            let lie = if id == LIAR { LIE_MARGIN } else { 0.0 };
            TenantSpec {
                name: id.name().to_string(),
                curve: zoo_curve(id, lie),
                baseline_time_s: id.nominal_service_time_s(),
                baseline_qos: id.paper_baseline_accuracy(),
                pattern,
                arrival_seed: seed ^ ((i as u64 + 1) << 32),
                guard: GuardParams {
                    qos_floor: id.paper_baseline_accuracy() - 4.0,
                    canary_fraction: 0.1,
                    ..GuardParams::default()
                },
            }
        })
        .collect()
}

pub(crate) fn executors() -> Vec<MiscalibratedExecutor> {
    let models = [
        BenchmarkId::LeNet,
        BenchmarkId::AlexNetCifar10,
        BenchmarkId::AlexNet2,
        BenchmarkId::ResNet18,
        LIAR,
        BenchmarkId::MobileNet,
    ];
    models
        .iter()
        .enumerate()
        .map(|(i, &id)| MiscalibratedExecutor {
            honest_qos: honest_qos(id)
                .into_iter()
                .map(|q| if id == LIAR { q - 1.5 } else { q })
                .collect(),
            jitter: 0.3,
            seed: 0xF1EE7 ^ (i as u64),
        })
        .collect()
}

fn policy_stats(report: &FleetReport, wall_s: f64) -> PolicyStats {
    PolicyStats {
        policy: report.policy.clone(),
        arrivals: report.arrivals,
        admitted: report.admitted,
        on_time_pct: 100.0 * report.on_time_rate(),
        shed_pct: 100.0 * report.shed_rate(),
        breaker_trips: report.breaker_trips,
        steal_events: report.steal_events,
        mean_latency_ms: 1e3 * report.mean_latency_s,
        p99_latency_ms: 1e3 * report.p99_latency_s,
        wall_s,
        sim_rps: if wall_s > 0.0 {
            report.arrivals as f64 / wall_s
        } else {
            0.0
        },
        tenants: report
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.name.clone(),
                arrivals: t.arrivals,
                on_time_pct: 100.0 * t.on_time_rate(),
                shed_pct: 100.0 * t.shed_rate(),
                floor_breaches: t.observed_floor_breaches,
                planned_floor_breaches: t.planned_floor_breaches,
                quarantined_points: t.quarantined_points,
                exact_fallback_replicas: t.exact_fallback_replicas,
                mean_qos: t.mean_qos,
            })
            .collect(),
    }
}

/// Builds the artifact by running every policy over the same roster and
/// disturbance timeline. Exposed (crate-internally sized-down) to the
/// schema corpus test.
pub fn build_artifact(requests_target: usize, replicas: usize, seed: u64) -> Artifact {
    // Nominal per-second offered load at 8 replicas is ~216 rps; rates
    // scale with the replica count so per-replica pressure stays constant
    // and the horizon stretches to hit the request target.
    let rate_scale = replicas as f64 / 8.0;
    let total_rate = 216.0 * rate_scale;
    let horizon_s = (requests_target as f64 / total_rate).max(1.0);
    let tenants = roster(horizon_s, rate_scale, seed);
    let execs = executors();
    let exec_refs: Vec<&dyn RequestExecutor> =
        execs.iter().map(|e| e as &dyn RequestExecutor).collect();
    // A rail brownout (with sensor dropout) mid-run, scripted by each
    // replica's execution index.
    let per_replica = requests_target / replicas.max(1);
    let device = DisturbedDevice::tx2(
        Scenario::brownout_storm(
            usize::MAX / 2,
            per_replica * 2 / 5,
            per_replica / 10,
            0.6,
            seed ^ 0xB10,
        )
        .with_invocations(usize::MAX / 2),
    );
    let params_for = |policy| FleetParams {
        replicas,
        policy,
        serve: ServeParams {
            deadline_s: 0.25,
            queue_cap: 16,
            // Tight drain budget: moderate backlog already demands >1x
            // speedup, so approximate rungs (and the guard's canary path)
            // stay inside the measured loop.
            drain_fraction: 0.2,
            seed,
            ..ServeParams::default()
        },
        horizon_s,
        steal: true,
        route_seed: seed ^ 0xF1EE,
        ..FleetParams::default()
    };

    let mut table = Table::new(&[
        "policy", "arrivals", "on-time", "shed", "trips", "steals", "wall", "sim-rps",
    ]);
    let mut policies = Vec::new();
    let mut sustained = 0.0f64;
    for policy in RouterPolicy::ALL {
        let t0 = std::time::Instant::now();
        let report = run_fleet(&tenants, &exec_refs, &device, &params_for(policy));
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = policy_stats(&report, wall_s);
        sustained = sustained.max(stats.sim_rps);
        table.row(vec![
            stats.policy.clone(),
            stats.arrivals.to_string(),
            pct(stats.on_time_pct),
            pct(stats.shed_pct),
            stats.breaker_trips.to_string(),
            stats.steal_events.to_string(),
            format!("{:.2}s", stats.wall_s),
            format!("{:.0}", stats.sim_rps),
        ]);
        policies.push(stats);
    }
    table.print();

    // Determinism self-check: the same seed must produce a byte-identical
    // report whether rayon runs 1 or 8 threads.
    let bit_identical = crate::report::bit_identical_across_threads(|| {
        run_fleet(
            &tenants,
            &exec_refs,
            &device,
            &params_for(RouterPolicy::PowerOfTwoChoices),
        )
        .to_json()
    });
    println!(
        "determinism: 1-thread vs 8-thread reports {}",
        if bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    Artifact {
        schema_version: RESULTS_SCHEMA_VERSION,
        bench: "serve_fleet".to_string(),
        replicas,
        tenant_models: tenants.iter().map(|t| t.name.clone()).collect(),
        requests_target,
        seed,
        scenario: device.scenario().name().to_string(),
        horizon_s,
        sustained_sim_rps: sustained,
        bit_identical_across_threads: bit_identical,
        policies,
    }
}

/// Serialises an artifact for validation in tests.
pub fn artifact_value(artifact: &Artifact) -> serde::Value {
    serde_json::to_value(artifact)
}

/// Entry point of the `serve_fleet` binary.
pub fn run() {
    let requests =
        crate::env::usize_var("AT_BENCH_REQUESTS", &["AT_FLEET_REQUESTS"], 1_200_000).max(1);
    let replicas = crate::env::usize_var("AT_BENCH_REPLICAS", &["AT_FLEET_REPLICAS"], 8).max(1);
    let seed = crate::env::u64_var("AT_BENCH_SEED", &["AT_FLEET_SEED"], 7);
    println!(
        "serve_fleet: {replicas} replicas × 6 tenants, target {requests} requests, seed {seed}"
    );
    let artifact = build_artifact(requests, replicas, seed);
    assert!(
        artifact.bit_identical_across_threads,
        "fleet report depends on thread count — determinism regression"
    );
    println!(
        "sustained simulated-requests/sec: {:.0}",
        artifact.sustained_sim_rps
    );
    if !write_bench_json("serve", &artifact) {
        std::process::exit(1);
    }
}
