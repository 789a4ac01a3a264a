//! `serve` / `serve_guarded` *are* a 1-replica × 1-tenant fleet: the same
//! trace through the single-server entry points and through `run_fleet`
//! must produce the same run — every shared counter, the ladder's move
//! counts, the latency summaries to the bit, the guard's verdicts and the
//! event sequence.
//!
//! The regime exercises everything one replica owns: a three-rung curve
//! under a spike (the ladder escalates and returns), a brownout across the
//! spike (the slowdown EWMA moves), a scripted fault burst (the breaker
//! trips, fails a probe, re-trips and closes) and an executor whose two
//! aggressive rungs lie about their QoS (the guard convicts them).
//!
//! One consequence of the fleet's queue discipline is pinned here on
//! purpose: the fleet enqueues every admitted request and then starts the
//! head of the queue, so an arrival at an *idle* server is momentarily a
//! queue of one. `max_queue_depth` is therefore at least 1 whenever
//! anything is admitted — 1, not 0, on a trace that never waits.

use at_core::config::Config;
use at_core::fleet::{run_fleet, FleetParams, FleetReport, TenantSpec};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{
    generate_arrivals, serve, serve_guarded, ArrivalTrace, BreakerState, GuardedServeReport,
    NoFaultExecutor, RequestExecutor, ScriptedFaultExecutor, ServeParams, ServeReport,
    TrafficPattern,
};
use at_hw::{DisturbedDevice, Scenario};
use at_tensor::TensorError;

const BASELINE_S: f64 = 0.02;
const HORIZON_S: f64 = 30.0;
const SEED: u64 = 0xD1FF;

/// Faults inside scripted execution windows, lies about QoS on canaries.
struct LyingFaulty {
    faults: ScriptedFaultExecutor,
    liar: MiscalibratedExecutor,
}

impl RequestExecutor for LyingFaulty {
    fn execute(&self, k: usize) -> Result<(), TensorError> {
        self.faults.execute(k)
    }

    fn canary_qos(&self, k: usize, rung: usize, point: &TradeoffPoint) -> Option<f64> {
        self.liar.canary_qos(k, rung, point)
    }
}

fn executor() -> LyingFaulty {
    LyingFaulty {
        // Executions 60..64 fault: three trip the breaker, the fourth fails
        // the first half-open probe and re-trips it; later probes succeed.
        faults: ScriptedFaultExecutor {
            windows: vec![(60, 4)],
        },
        // Rung 0 is honest; rungs 1 and 2 deliver far less than promised.
        liar: MiscalibratedExecutor {
            honest_qos: vec![97.0, 90.0, 88.0],
            jitter: 0.4,
            seed: 0xB0B,
        },
    }
}

fn curve() -> TradeoffCurve {
    TradeoffCurve::from_points(
        [(1.3, 97.0), (1.7, 96.0), (2.2, 95.0)]
            .iter()
            .map(|&(perf, qos)| TradeoffPoint {
                qos,
                perf,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    )
}

fn params() -> ServeParams {
    ServeParams {
        deadline_s: 0.11,
        queue_cap: 5,
        breaker_threshold: 3,
        cooldown_s: 1.5,
        half_open_probes: 2,
        baseline_qos: 99.0,
        ..ServeParams::default()
    }
}

/// A brownout to 60 % clock over executions 150..550: it covers the spike.
fn device() -> DisturbedDevice {
    DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 150, 400, 0.6, 23))
}

fn spike() -> TrafficPattern {
    TrafficPattern::Spike {
        base_rps: 12.0,
        spike_rps: 150.0,
        at_s: 8.0,
        len_s: 3.0,
    }
}

/// The same run through `run_fleet`: one replica, one tenant whose seeded
/// pattern regenerates exactly the trace the single server is handed.
fn as_fleet(pattern: &TrafficPattern, guard: &GuardParams) -> FleetReport {
    let params = params();
    let tenant = TenantSpec {
        name: "only".to_string(),
        curve: curve(),
        baseline_time_s: BASELINE_S,
        baseline_qos: params.baseline_qos,
        pattern: pattern.clone(),
        arrival_seed: SEED,
        guard: guard.clone(),
    };
    let executor = executor();
    let executors: [&dyn RequestExecutor; 1] = [&executor];
    run_fleet(
        &[tenant],
        &executors,
        &device(),
        &FleetParams {
            replicas: 1,
            serve: params,
            horizon_s: HORIZON_S,
            steal: false,
            ..FleetParams::default()
        },
    )
}

fn assert_same_run(single: &ServeReport, fleet: &FleetReport) {
    let tenant = &fleet.tenants[0];
    let replica = &fleet.replica_reports[0];
    assert_eq!(fleet.requests_unaccounted, 0);
    assert_eq!(single.scenario, fleet.scenario);
    assert_eq!(single.arrivals, fleet.arrivals);
    assert_eq!(single.admitted, fleet.admitted);
    assert_eq!(single.served_on_time, fleet.served_on_time);
    assert_eq!(single.served_late, fleet.served_late);
    assert_eq!(single.faulted, fleet.faulted);
    assert_eq!(single.stalled, fleet.stalled);
    assert_eq!(single.shed_queue_full, tenant.shed_queue_full);
    assert_eq!(single.shed_deadline, tenant.shed_deadline);
    assert_eq!(single.shed_breaker, tenant.shed_breaker);
    assert_eq!(tenant.shed_replica_lost, 0);
    assert_eq!(single.breaker_trips, fleet.breaker_trips);
    assert_eq!(single.escalations, replica.escalations);
    assert_eq!(single.deescalations, replica.deescalations);
    assert_eq!(single.max_queue_depth, replica.max_queue_depth);
    assert_eq!(single.final_breaker, replica.final_breaker);
    // Same requests served at the same instants on the same rungs: the
    // summaries are the same numbers, not merely close.
    assert_eq!(single.mean_latency_s, fleet.mean_latency_s);
    assert_eq!(single.p99_latency_s, fleet.p99_latency_s);
    assert_eq!(single.mean_qos, tenant.mean_qos);
    assert_eq!(single.event_log(), fleet.event_log());
    assert_eq!(single.events_evicted, fleet.events_evicted);
}

/// The scenario really exercises the ladder, the breaker and both
/// admission defences.
fn assert_exercised(single: &ServeReport) {
    assert!(single.escalations >= 1 && single.deescalations >= 1);
    assert!(single.breaker_trips >= 2, "{}", single.breaker_trips);
    assert_eq!(single.faulted, 4);
    assert_eq!(single.final_breaker, BreakerState::Closed);
    assert!(single.shed_breaker > 0);
    assert!(single.shed_queue_full > 0 && single.shed_deadline > 0);
    assert!(!single.events.is_empty());
}

#[test]
fn serve_is_a_1x1_fleet_whose_guard_never_samples() {
    let trace = generate_arrivals(&spike(), HORIZON_S, SEED);
    let exec = executor();
    let single = serve(&curve(), BASELINE_S, &device(), &trace, &exec, &params());
    assert_exercised(&single);
    let never = GuardParams {
        canary_fraction: 0.0,
        qos_floor: f64::NEG_INFINITY,
        ..GuardParams::default()
    };
    let fleet = as_fleet(&spike(), &never);
    assert_same_run(&single, &fleet);
    assert_eq!(fleet.tenants[0].canaries, 0, "no canary, so no conviction");
    assert_eq!(fleet.tenants[0].quarantined_points, 0);
}

#[test]
fn serve_guarded_is_a_1x1_fleet_with_the_tenants_guard() {
    let guard = GuardParams {
        canary_fraction: 0.35,
        canary_seed: 0x5EED,
        qos_floor: 89.0,
        ..GuardParams::default()
    };
    let trace = generate_arrivals(&spike(), HORIZON_S, SEED);
    let exec = executor();
    let GuardedServeReport {
        serve: single,
        guard: g,
    } = serve_guarded(
        &curve(),
        BASELINE_S,
        &device(),
        &trace,
        &exec,
        &params(),
        &guard,
    );
    assert_exercised(&single);
    let fleet = as_fleet(&spike(), &guard);
    assert_same_run(&single, &fleet);

    // The guard's verdicts are the tenant row of the fleet report, and the
    // convictions are the quarantine events of the shared log.
    let tenant = &fleet.tenants[0];
    assert!(!g.quarantined.is_empty(), "the liars must be convicted");
    assert_eq!(g.canaries, tenant.canaries);
    assert_eq!(g.misses, tenant.canary_misses);
    assert_eq!(g.floor_breaches, tenant.observed_floor_breaches);
    assert_eq!(g.quarantined.len(), tenant.quarantined_points);
    assert_eq!(
        usize::from(g.exact_fallback),
        tenant.exact_fallback_replicas
    );
    let quarantine_lines = single
        .event_log()
        .iter()
        .filter(|l| l.contains("quarantine"))
        .count();
    assert_eq!(quarantine_lines, g.quarantined.len());
}

#[test]
fn an_arrival_at_an_idle_server_is_a_queue_of_one() {
    // One request a second against a 20 ms server: nothing ever waits, and
    // the deepest queue is still 1 because the fleet enqueues before it
    // starts.
    let trace = ArrivalTrace {
        pattern: "sparse".to_string(),
        times: (1..=20).map(f64::from).collect(),
    };
    let single = serve(
        &curve(),
        BASELINE_S,
        &device(),
        &trace,
        &NoFaultExecutor,
        &params(),
    );
    assert_eq!(single.served_on_time, 20);
    assert_eq!(single.max_queue_depth, 1);
}
