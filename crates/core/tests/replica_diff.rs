//! Differential test: the single-server loop and a 1-replica × 1-tenant
//! fleet are two drivers of the same replica engine
//! (`at_core::replica`), so wherever their *ladders* cannot act they must
//! account every request identically.
//!
//! The regime: an empty curve (no rung to escalate to, so neither ladder
//! policy can move), a nominal device, one tenant on one replica, work
//! stealing and gray ejection off, no chaos. A scripted fault burst forces
//! the breaker through trip → half-open → failed probe → re-trip →
//! half-open → close, and the spike trace adds overload (queue-full and
//! deadline shedding) on top.
//!
//! One counter differs by construction and is therefore compared on traces
//! that queue: the fleet enqueues every admitted request and then starts
//! the head of the queue, so an arrival at an *idle* replica is momentarily
//! a queue of one, while the single server starts it without queueing. The
//! fleet's `max_queue_depth` is thus `max(serve's, 1)`; both traces here
//! back up at least once, where the two agree exactly.

use at_core::fleet::{run_fleet, EjectionParams, FleetParams, RouterPolicy, TenantSpec};
use at_core::guard::GuardParams;
use at_core::pareto::TradeoffCurve;
use at_core::serve::{
    generate_arrivals, serve, BreakerState, RequestExecutor, ScriptedFaultExecutor, ServeParams,
    ServeReport, TrafficPattern,
};
use at_hw::{DisturbedDevice, FrequencyLadder, Scenario};

const BASELINE_S: f64 = 0.02;
const HORIZON_S: f64 = 30.0;
const SEED: u64 = 0xD1FF;

fn assert_same_accounting(pattern: TrafficPattern) -> ServeReport {
    let device = DisturbedDevice::tx2(Scenario::new(
        "idle",
        FrequencyLadder::tx2_gpu(),
        usize::MAX / 2,
        0,
    ));
    let params = ServeParams {
        deadline_s: 0.11,
        queue_cap: 5,
        breaker_threshold: 3,
        cooldown_s: 1.5,
        half_open_probes: 2,
        baseline_qos: 97.0,
        ..ServeParams::default()
    };
    // Executions 60..64 fault: three trip the breaker, the fourth fails the
    // first half-open probe and re-trips it; the next probes succeed.
    let executor = ScriptedFaultExecutor {
        windows: vec![(60, 4)],
    };
    let curve = TradeoffCurve::from_points(vec![]);

    let trace = generate_arrivals(&pattern, HORIZON_S, SEED);
    let single = serve(&curve, BASELINE_S, &device, &trace, &executor, &params);

    let tenant = TenantSpec {
        name: "only".to_string(),
        curve,
        baseline_time_s: BASELINE_S,
        baseline_qos: params.baseline_qos,
        pattern,
        arrival_seed: SEED,
        guard: GuardParams::default(),
    };
    let executors: [&dyn RequestExecutor; 1] = [&executor];
    let fleet = run_fleet(
        &[tenant],
        &executors,
        &device,
        &FleetParams {
            replicas: 1,
            policy: RouterPolicy::JoinShortestQueue,
            serve: params,
            horizon_s: HORIZON_S,
            steal: false,
            ejection: EjectionParams {
                enabled: false,
                ..EjectionParams::default()
            },
            ..FleetParams::default()
        },
    );
    let tenant = &fleet.tenants[0];
    let replica = &fleet.replica_reports[0];

    // The scenario really exercises the breaker and the admission paths.
    assert!(single.breaker_trips >= 2, "{}", single.breaker_trips);
    assert_eq!(single.faulted, 4);
    assert_eq!(single.final_breaker, BreakerState::Closed);
    assert!(single.shed_breaker > 0);
    assert!(single.max_queue_depth >= 1);

    assert_eq!(fleet.arrivals, single.arrivals);
    assert_eq!(fleet.requests_unaccounted, 0);
    assert_eq!(fleet.served_on_time, single.served_on_time);
    assert_eq!(fleet.served_late, single.served_late);
    assert_eq!(fleet.faulted, single.faulted);
    assert_eq!(fleet.stalled, single.stalled);
    assert_eq!(tenant.shed_queue_full, single.shed_queue_full);
    assert_eq!(tenant.shed_deadline, single.shed_deadline);
    assert_eq!(tenant.shed_breaker, single.shed_breaker);
    assert_eq!(tenant.shed_replica_lost, 0);
    assert_eq!(fleet.breaker_trips, single.breaker_trips);
    assert_eq!(replica.max_queue_depth, single.max_queue_depth);
    assert_eq!(replica.final_breaker, single.final_breaker);
    // Same requests served at the same instants: the latency summaries are
    // the same numbers, not merely close.
    assert_eq!(fleet.mean_latency_s, single.mean_latency_s);
    assert_eq!(fleet.p99_latency_s, single.p99_latency_s);
    single
}

#[test]
fn steady_trace_accounts_identically_through_serve_and_a_1x1_fleet() {
    assert_same_accounting(TrafficPattern::Steady { rate_rps: 30.0 });
}

#[test]
fn spike_trace_accounts_identically_through_serve_and_a_1x1_fleet() {
    let spike = TrafficPattern::Spike {
        base_rps: 12.0,
        spike_rps: 150.0,
        at_s: 8.0,
        len_s: 3.0,
    };
    let single = assert_same_accounting(spike);
    // The overload reaches both admission defences.
    assert!(single.shed_queue_full > 0 && single.shed_deadline > 0);
}
