//! Chaos campaign load test — the body of the `fleet_chaos` binary and the
//! writer of `BENCH_chaos.json`.
//!
//! Reuses the `serve_fleet` roster (six zoo tenants, one lying curve) and
//! the same mid-run rail brownout, then runs the QoS-aware
//! power-of-two-choices fleet twice over identical arrivals: a *baseline*
//! phase with no chaos, and a *campaign* phase where a seeded
//! [`ChaosPlan`] crashes replicas (warm-restarted from checkpoints), turns
//! others silently gray (router-side EWMA ejection must catch them), and
//! partitions the router from others with bounded message loss.
//!
//! The headline numbers are availability under chaos (on-time percentage
//! and its drop vs baseline), mean crash-to-first-completion recovery
//! time, and `requests_unaccounted` — which must be **zero**: every
//! arrival is served, faulted, stalled, or shed with a typed reason, even
//! while replicas die mid-request. A built-in self-check re-runs the
//! campaign under 1-thread and 8-thread rayon pools and asserts
//! bit-identical reports.
//!
//! Environment: `AT_BENCH_REQUESTS` (total arrival target, default
//! 1,200,000), `AT_BENCH_REPLICAS` (default 8), `AT_BENCH_SEED` (default
//! 7) — the legacy `AT_FLEET_*` names work as aliases (see [`crate::env`]).

use crate::report::{pct, write_bench_json, Table, RESULTS_SCHEMA_VERSION};
use crate::serve_fleet::{executors, roster};
use at_core::chaos::ChaosPlan;
use at_core::fleet::{run_fleet, FleetParams, FleetReport, RouterPolicy};
use at_core::serve::{RequestExecutor, ServeParams};
use at_hw::{DisturbedDevice, Scenario};

/// One phase (baseline or campaign) of the chaos bench.
#[derive(serde::Serialize)]
pub(crate) struct PhaseStats {
    phase: String,
    arrivals: usize,
    admitted: usize,
    on_time_pct: f64,
    shed_pct: f64,
    /// Requests shed as `ReplicaLost` (crash kills, crash-flush overflow,
    /// partition wire loss) — zero in the baseline phase.
    shed_replica_lost: usize,
    crashes: usize,
    gray_ejections: usize,
    partitions: usize,
    breaker_trips: usize,
    /// |arrivals − (admitted + shed)|; must be zero in every phase.
    requests_unaccounted: usize,
    /// Mean crash-to-first-completion time, seconds.
    mean_recovery_s: f64,
    mean_latency_ms: f64,
    p99_latency_ms: f64,
    /// Wall-clock seconds the simulation took (not simulated time).
    wall_s: f64,
    /// Simulated arrivals processed per wall-clock second.
    sim_rps: f64,
}

/// The whole `BENCH_chaos.json` artifact.
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
    /// Chaos events drawn by the campaign: crashes, grays, partitions.
    planned_crashes: usize,
    planned_grays: usize,
    planned_partitions: usize,
    /// On-time percentage under the full campaign — the headline.
    availability_pct: f64,
    /// Baseline-phase on-time percentage minus the campaign's.
    availability_drop_pct: f64,
    /// Mean crash-to-first-completion time under the campaign, seconds.
    mean_recovery_s: f64,
    /// Campaign-phase accounting gap; the bin refuses to ship non-zero.
    requests_unaccounted: usize,
    /// 1-thread vs 8-thread rayon campaign reports compared byte-for-byte.
    bit_identical_across_threads: bool,
    phases: Vec<PhaseStats>,
}

fn phase_stats(phase: &str, report: &FleetReport, wall_s: f64) -> PhaseStats {
    PhaseStats {
        phase: phase.to_string(),
        arrivals: report.arrivals,
        admitted: report.admitted,
        on_time_pct: 100.0 * report.on_time_rate(),
        shed_pct: 100.0 * report.shed_rate(),
        shed_replica_lost: report.tenants.iter().map(|t| t.shed_replica_lost).sum(),
        crashes: report.crashes,
        gray_ejections: report.gray_ejections,
        partitions: report.partitions,
        breaker_trips: report.breaker_trips,
        requests_unaccounted: report.requests_unaccounted,
        mean_recovery_s: report.mean_recovery_s,
        mean_latency_ms: 1e3 * report.mean_latency_s,
        p99_latency_ms: 1e3 * report.p99_latency_s,
        wall_s,
        sim_rps: if wall_s > 0.0 {
            report.arrivals as f64 / wall_s
        } else {
            0.0
        },
    }
}

/// Builds the artifact: baseline and campaign phases over one roster and
/// disturbance timeline. Exposed (sized-down) to the schema corpus test.
pub fn build_artifact(requests_target: usize, replicas: usize, seed: u64) -> Artifact {
    let rate_scale = replicas as f64 / 8.0;
    let total_rate = 216.0 * rate_scale;
    let horizon_s = (requests_target as f64 / total_rate).max(1.0);
    let tenants = roster(horizon_s, rate_scale, seed);
    let execs = executors();
    let exec_refs: Vec<&dyn RequestExecutor> =
        execs.iter().map(|e| e as &dyn RequestExecutor).collect();
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
    let campaign = ChaosPlan::campaign(
        seed ^ 0xC4A05,
        horizon_s,
        replicas,
        (replicas / 2).max(1),
        (replicas / 4).max(1),
        (replicas / 4).max(1),
    );
    let (planned_crashes, planned_grays, planned_partitions) = campaign.counts();
    let params_for = |chaos: &ChaosPlan| FleetParams {
        replicas,
        policy: RouterPolicy::PowerOfTwoChoices,
        serve: ServeParams {
            deadline_s: 0.25,
            queue_cap: 16,
            drain_fraction: 0.2,
            seed,
            ..ServeParams::default()
        },
        horizon_s,
        steal: true,
        route_seed: seed ^ 0xF1EE,
        chaos: chaos.clone(),
        ..FleetParams::default()
    };

    let mut table = Table::new(&[
        "phase", "arrivals", "on-time", "shed", "lost", "crashes", "ejects", "parts", "recov",
        "sim-rps",
    ]);
    let mut phases = Vec::new();
    for (name, chaos) in [("baseline", ChaosPlan::none()), ("campaign", campaign)] {
        let t0 = std::time::Instant::now();
        let report = run_fleet(&tenants, &exec_refs, &device, &params_for(&chaos));
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = phase_stats(name, &report, wall_s);
        table.row(vec![
            stats.phase.clone(),
            stats.arrivals.to_string(),
            pct(stats.on_time_pct),
            pct(stats.shed_pct),
            stats.shed_replica_lost.to_string(),
            stats.crashes.to_string(),
            stats.gray_ejections.to_string(),
            stats.partitions.to_string(),
            format!("{:.2}s", stats.mean_recovery_s),
            format!("{:.0}", stats.sim_rps),
        ]);
        phases.push(stats);
    }
    table.print();

    // Determinism self-check: the chaotic phase — crashes, restarts,
    // ejections and all — must be byte-identical across thread counts.
    let chaos_again = ChaosPlan::campaign(
        seed ^ 0xC4A05,
        horizon_s,
        replicas,
        (replicas / 2).max(1),
        (replicas / 4).max(1),
        (replicas / 4).max(1),
    );
    let bit_identical = crate::report::bit_identical_across_threads(|| {
        run_fleet(&tenants, &exec_refs, &device, &params_for(&chaos_again)).to_json()
    });
    println!(
        "determinism: 1-thread vs 8-thread campaign reports {}",
        if bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let baseline_on_time = phases[0].on_time_pct;
    let campaign_phase = &phases[1];
    Artifact {
        schema_version: RESULTS_SCHEMA_VERSION,
        bench: "fleet_chaos".to_string(),
        replicas,
        tenant_models: tenants.iter().map(|t| t.name.clone()).collect(),
        requests_target,
        seed,
        scenario: device.scenario().name().to_string(),
        horizon_s,
        planned_crashes,
        planned_grays,
        planned_partitions,
        availability_pct: campaign_phase.on_time_pct,
        availability_drop_pct: baseline_on_time - campaign_phase.on_time_pct,
        mean_recovery_s: campaign_phase.mean_recovery_s,
        requests_unaccounted: campaign_phase.requests_unaccounted,
        bit_identical_across_threads: bit_identical,
        phases,
    }
}

/// Serialises an artifact for validation in tests.
pub fn artifact_value(artifact: &Artifact) -> serde::Value {
    serde_json::to_value(artifact)
}

/// Entry point of the `fleet_chaos` binary.
pub fn run() {
    let requests =
        crate::env::usize_var("AT_BENCH_REQUESTS", &["AT_FLEET_REQUESTS"], 1_200_000).max(1);
    let replicas = crate::env::usize_var("AT_BENCH_REPLICAS", &["AT_FLEET_REPLICAS"], 8).max(1);
    let seed = crate::env::u64_var("AT_BENCH_SEED", &["AT_FLEET_SEED"], 7);
    println!(
        "fleet_chaos: {replicas} replicas × 6 tenants, target {requests} requests, seed {seed}"
    );
    let artifact = build_artifact(requests, replicas, seed);
    for phase in &artifact.phases {
        assert_eq!(
            phase.requests_unaccounted, 0,
            "{} phase lost requests silently — accounting regression",
            phase.phase
        );
    }
    assert!(
        artifact.bit_identical_across_threads,
        "chaotic fleet report depends on thread count — determinism regression"
    );
    println!(
        "availability under chaos: {} (drop {} vs baseline), mean recovery {:.2}s",
        pct(artifact.availability_pct),
        pct(artifact.availability_drop_pct),
        artifact.mean_recovery_s
    );
    if !write_bench_json("chaos", &artifact) {
        std::process::exit(1);
    }
}
