//! Chaos campaign load test — the `fleet_chaos` experiment and the writer
//! of `BENCH_chaos.json`.
//!
//! Runs the [`FleetStorm`] roster under its mid-run rail brownout on the
//! QoS-aware power-of-two-choices fleet twice over identical arrivals: a
//! *baseline* phase with no chaos, and a *campaign* phase where a seeded
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

use crate::env::Sizing;
use crate::fleet_storm::FleetStorm;
use crate::report::{pct, Artifact, Table};
use at_core::chaos::ChaosPlan;
use at_core::fleet::RouterPolicy;

/// One phase (baseline or campaign) of the chaos bench.
#[derive(serde::Serialize)]
struct PhaseStats {
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

/// What `BENCH_chaos.json` holds after the fleet header.
#[derive(serde::Serialize)]
pub struct Body {
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
    /// Campaign-phase accounting gap; the experiment refuses to ship
    /// non-zero.
    requests_unaccounted: usize,
    /// 1-thread vs 8-thread rayon campaign reports compared byte-for-byte.
    bit_identical_across_threads: bool,
    phases: Vec<PhaseStats>,
}

/// Runs the baseline and campaign phases over one roster and disturbance
/// timeline.
pub fn build(storm: &FleetStorm) -> Body {
    let n = storm.replicas;
    let campaign = ChaosPlan::campaign(
        storm.seed ^ 0xC4A05,
        storm.horizon_s,
        n,
        (n / 2).max(1),
        (n / 4).max(1),
        (n / 4).max(1),
    );
    let (planned_crashes, planned_grays, planned_partitions) = campaign.counts();
    let policy = RouterPolicy::PowerOfTwoChoices;

    let mut table = Table::new(&[
        "phase", "arrivals", "on-time", "shed", "lost", "crashes", "ejects", "parts", "recov",
        "sim-rps",
    ]);
    let mut phases = Vec::new();
    for (name, chaos) in [("baseline", &ChaosPlan::none()), ("campaign", &campaign)] {
        let (report, wall_s, sim_rps) = storm.run(policy, chaos);
        let stats = PhaseStats {
            phase: name.to_string(),
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
            sim_rps,
        };
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

    let (baseline, under_chaos) = (&phases[0], &phases[1]);
    Body {
        planned_crashes,
        planned_grays,
        planned_partitions,
        availability_pct: under_chaos.on_time_pct,
        availability_drop_pct: baseline.on_time_pct - under_chaos.on_time_pct,
        mean_recovery_s: under_chaos.mean_recovery_s,
        requests_unaccounted: under_chaos.requests_unaccounted,
        // The chaotic phase — crashes, restarts, ejections and all — must be
        // byte-identical across thread counts.
        bit_identical_across_threads: storm.bit_identical_across_threads(policy, &campaign),
        phases,
    }
}

/// The `fleet_chaos` experiment.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let storm = FleetStorm::brownout(sizing);
    let body = build(&storm);
    for phase in &body.phases {
        assert_eq!(
            phase.requests_unaccounted, 0,
            "{} phase lost requests silently — accounting regression",
            phase.phase
        );
    }
    assert!(
        body.bit_identical_across_threads,
        "chaotic fleet report depends on thread count — determinism regression"
    );
    println!(
        "availability under chaos: {} (drop {} vs baseline), mean recovery {:.2}s",
        pct(body.availability_pct),
        pct(body.availability_drop_pct),
        body.mean_recovery_s
    );
    Artifact::bench("chaos", &storm.artifact("fleet_chaos", &body))
}
