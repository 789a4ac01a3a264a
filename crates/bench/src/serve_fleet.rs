//! Fleet-scale multi-tenant load test — the `serve_fleet` experiment and
//! the writer of `BENCH_serve.json`.
//!
//! Drives the [`FleetStorm`] roster's simulated requests through every
//! router policy (round-robin, join-shortest-queue, QoS-aware
//! power-of-two-choices) under a mid-run brownout storm.
//!
//! The headline number is the *harness's own* sustained simulated-requests
//! per second: AdaPT and TFApprox both observe that emulation throughput is
//! the limiting factor for this class of system, so the fleet simulator's
//! throughput is tracked as a first-class benchmark. A built-in self-check
//! re-runs one policy under 1-thread and 8-thread rayon pools and asserts
//! bit-identical reports.

use crate::env::Sizing;
use crate::fleet_storm::FleetStorm;
use crate::report::{pct, Artifact, Table};
use at_core::chaos::ChaosPlan;
use at_core::fleet::RouterPolicy;

/// Per-tenant slice of the benchmark artifact.
#[derive(serde::Serialize)]
struct TenantStats {
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
struct PolicyStats {
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

/// What `BENCH_serve.json` holds after the fleet header.
#[derive(serde::Serialize)]
pub struct Body {
    /// Peak per-policy simulated-requests/sec — the headline number.
    sustained_sim_rps: f64,
    /// 1-thread vs 8-thread rayon reports compared byte-for-byte.
    bit_identical_across_threads: bool,
    policies: Vec<PolicyStats>,
}

/// Runs every policy over the same roster and disturbance timeline.
pub fn build(storm: &FleetStorm) -> Body {
    let mut table = Table::new(&[
        "policy", "arrivals", "on-time", "shed", "trips", "steals", "wall", "sim-rps",
    ]);
    let mut policies = Vec::new();
    for policy in RouterPolicy::ALL {
        let (report, wall_s, sim_rps) = storm.run(policy, &ChaosPlan::none());
        let stats = PolicyStats {
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
            sim_rps,
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
        };
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
    Body {
        sustained_sim_rps: policies.iter().map(|p| p.sim_rps).fold(0.0, f64::max),
        bit_identical_across_threads: storm
            .bit_identical_across_threads(RouterPolicy::PowerOfTwoChoices, &ChaosPlan::none()),
        policies,
    }
}

/// The `serve_fleet` experiment.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let storm = FleetStorm::brownout(sizing);
    let body = build(&storm);
    assert!(
        body.bit_identical_across_threads,
        "fleet report depends on thread count — determinism regression"
    );
    println!(
        "sustained simulated-requests/sec: {:.0}",
        body.sustained_sim_rps
    );
    Artifact::bench("serve", &storm.artifact("serve_fleet", &body))
}
