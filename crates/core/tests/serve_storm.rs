//! Acceptance tests for the overload-resilient serving runtime: the
//! adversarial storm (5× traffic spike concurrent with a rail brownout and
//! a scripted executor-fault burst) must be survived with a ≥99% deadline
//! hit rate over admitted requests, a breaker that trips *and* recovers, a
//! golden-snapshotted deterministic event sequence, bit-identical reports
//! across thread counts — and a corrupt-graph corpus on the serving path
//! that yields typed errors end-to-end, never a panic.

use at_core::config::Config;
use at_core::fleet::FleetEventKind;
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{
    generate_arrivals, serve, BreakerState, GraphExecutor, NoFaultExecutor, RequestExecutor,
    ScriptedFaultExecutor, ServeParams, ServeReport, TrafficPattern,
};
use at_hw::{DisturbedDevice, Scenario};
use at_ir::graph::ParamId;
use at_ir::{Graph, GraphBuilder, NodeId, OpKind};
use at_tensor::{Shape, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Synthetic shipped curve: strictly increasing speedup, decreasing QoS.
/// Its 2.2× top rung covers the storm's 1/0.6 ≈ 1.67× brownout slowdown.
fn storm_curve() -> TradeoffCurve {
    TradeoffCurve::from_points(
        [1.3f64, 1.7, 2.2]
            .iter()
            .enumerate()
            .map(|(i, &perf)| TradeoffPoint {
                qos: 98.0 - 2.0 * i as f64,
                perf,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    )
}

/// Baseline service time: capacity is 20 req/s exactly.
const BASELINE_S: f64 = 0.05;

fn storm_params() -> ServeParams {
    ServeParams {
        deadline_s: 0.5,
        cooldown_s: 1.0,
        ..ServeParams::default()
    }
}

/// The storm case: background 10 rps (50% of capacity) with a 5× spike
/// over `[20, 30)` s, while the device rides a brownout (with sensor
/// dropout and timing jitter) across the same window and the executor
/// faults on a scripted burst of requests inside it.
fn storm_report() -> ServeReport {
    let pattern = TrafficPattern::Spike {
        base_rps: 10.0,
        spike_rps: 50.0,
        at_s: 20.0,
        len_s: 10.0,
    };
    let trace = generate_arrivals(&pattern, 60.0, 0xA7);
    // Execution indices: ~10/s before the spike puts execution #200 at
    // t≈20s; the brownout covers the whole spike and then some.
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 200, 300, 0.6, 23));
    let exec = ScriptedFaultExecutor {
        windows: vec![(220, 4)],
    };
    serve(
        &storm_curve(),
        BASELINE_S,
        &device,
        &trace,
        &exec,
        &storm_params(),
    )
}

#[test]
fn storm_meets_deadlines_sheds_typed_and_recovers_the_breaker() {
    let r = catch_unwind(AssertUnwindSafe(storm_report))
        .unwrap_or_else(|_| panic!("serve() panicked on the storm case"));

    // ≥99% of admitted (executed) requests met their deadline.
    assert!(
        r.deadline_hit_rate() >= 0.99,
        "hit rate {:.4} ({} on-time of {} admitted, {} late, {} faulted)",
        r.deadline_hit_rate(),
        r.served_on_time,
        r.admitted,
        r.served_late,
        r.faulted
    );

    // The breaker tripped on the fault burst and recovered within the run.
    assert!(r.breaker_trips >= 1, "fault burst must trip the breaker");
    assert_eq!(r.final_breaker, BreakerState::Closed, "must recover");
    let kinds: Vec<&FleetEventKind> = r.events.iter().map(|e| &e.kind).collect();
    let trip = kinds
        .iter()
        .position(|k| matches!(k, FleetEventKind::BreakerTripped { .. }))
        .expect("trip logged");
    let closed = kinds
        .iter()
        .rposition(|k| matches!(k, FleetEventKind::BreakerClosed { .. }))
        .expect("close logged");
    assert!(trip < closed, "recovery must follow the trip");

    // The overload was met by shedding accuracy first (ladder escalation),
    // and what had to be rejected carries a typed reason.
    assert!(
        r.escalations >= 1,
        "spike+brownout must escalate the ladder"
    );
    assert!(r.deescalations >= 1, "quiet tail must de-escalate");
    assert_eq!(r.final_rung, None, "quiet tail returns to exact baseline");
    assert!(
        r.shed_deadline + r.shed_queue_full > 0,
        "5x over capacity must shed at admission"
    );
    assert!(r.shed_breaker > 0, "open breaker must shed");

    // Accounting is conservative: every arrival is classified exactly once.
    assert_eq!(
        r.arrivals,
        r.admitted + r.shed_queue_full + r.shed_deadline + r.shed_breaker,
        "arrivals must partition into outcomes"
    );
    assert!(r.mean_latency_s.is_finite() && r.p99_latency_s.is_finite());
    assert!(r.mean_qos.is_finite() && r.mean_qos > 90.0);
}

#[test]
fn storm_event_sequence_matches_golden_snapshot() {
    let r = storm_report();
    let golden: Vec<String> = GOLDEN_EVENTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        r.event_log(),
        golden,
        "storm control-plane sequence diverged from the golden snapshot"
    );
    assert_eq!(r.events_evicted, 0, "storm must fit the event log");
    assert_eq!(
        (r.escalations, r.deescalations),
        GOLDEN_LADDER_MOVES,
        "storm ladder moves (up, down) diverged from the golden snapshot"
    );
}

/// The storm's full control-plane event sequence: the breaker's trip →
/// half-open → failed probe → re-trip → half-open → close. Ladder moves are
/// counted, not logged: [`GOLDEN_LADDER_MOVES`] pins them. Regenerate by
/// printing `storm_report().event_log()` if the simulator's behaviour is
/// *intentionally* changed.
const GOLDEN_EVENTS: &[&str] = &[
    "t=20.8000 n=223 r0 breaker->open failures=3 migrated=0 shed=7",
    "t=21.8030 n=223 r0 breaker->half-open",
    "t=21.8851 n=224 r0 breaker->open failures=1 migrated=0 shed=2",
    "t=22.8883 n=224 r0 breaker->half-open",
    "t=23.1370 n=227 r0 breaker->closed",
];

/// The storm's exact (`escalations`, `deescalations`). The two are equal
/// here, so this pins how many moves are counted; which direction each one
/// is counted in is pinned by the `Ladder` unit tests in `replica.rs`.
const GOLDEN_LADDER_MOVES: (usize, usize) = (14, 14);

#[test]
fn storm_report_is_bit_identical_across_thread_counts() {
    let baseline = storm_report().to_json();
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let json = pool.install(|| storm_report().to_json());
        assert_eq!(
            json, baseline,
            "report diverged under a {threads}-thread pool"
        );
    }
}

// ---------------------------------------------------------------------------
// Corrupt-graph corpus on the serving path
// ---------------------------------------------------------------------------

fn tiny_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new("serve-corpus", Shape::nchw(1, 3, 8, 8), &mut rng);
    b.conv(4, 3, (1, 1), (1, 1))
        .relu()
        .flatten()
        .dense(5)
        .softmax();
    b.finish().unwrap()
}

/// `GraphExecutor::new` shielded so a panic is a test failure with context.
fn executor_no_panic<'a>(
    graph: &'a Graph,
    input: Tensor,
    label: &str,
) -> Result<GraphExecutor<'a>, TensorError> {
    catch_unwind(AssertUnwindSafe(|| GraphExecutor::new(graph, input)))
        .unwrap_or_else(|_| panic!("GraphExecutor::new panicked on corpus case `{label}`"))
}

#[test]
fn valid_graph_serves_end_to_end() {
    let g = tiny_graph(1);
    let input = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
    let exec = executor_no_panic(&g, input, "valid").unwrap();

    let pattern = TrafficPattern::Steady { rate_rps: 2.0 };
    let trace = generate_arrivals(&pattern, 10.0, 17);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 10, 5, 0.8, 3));
    let r = serve(
        &storm_curve(),
        BASELINE_S,
        &device,
        &trace,
        &exec,
        &ServeParams::default(),
    );
    assert_eq!(r.faulted, 0, "a valid graph never faults");
    assert!(r.served_on_time > 0);
}

#[test]
fn corrupt_graphs_yield_typed_errors_never_panic() {
    // Wrong input channel count: shape inference must refuse at the door.
    let g = tiny_graph(2);
    let err = executor_no_panic(&g, Tensor::zeros(Shape::nchw(1, 5, 8, 8)), "bad-channels")
        .err()
        .expect("wrong channels must be refused");
    assert!(
        matches!(
            err,
            TensorError::ShapeMismatch { .. } | TensorError::Graph { .. }
        ),
        "bad-channels: got {err:?}"
    );

    // Wrong rank entirely.
    let err = executor_no_panic(&g, Tensor::zeros(Shape::new(&[7])), "bad-rank")
        .err()
        .expect("wrong rank must be refused");
    assert!(
        matches!(
            err,
            TensorError::ShapeMismatch { .. }
                | TensorError::Graph { .. }
                | TensorError::AxisOutOfRange { .. }
        ),
        "bad-rank: got {err:?}"
    );

    // NaN weights: parameter-finiteness validation must refuse.
    let mut poisoned = tiny_graph(3);
    poisoned.param_mut(ParamId(0)).data_mut()[0] = f32::NAN;
    let err = executor_no_panic(
        &poisoned,
        Tensor::zeros(Shape::nchw(1, 3, 8, 8)),
        "nan-weight",
    )
    .err()
    .expect("NaN weights must be refused");
    assert!(
        matches!(err, TensorError::Graph { ref detail } if detail.contains("non-finite")),
        "nan-weight: got {err:?}"
    );

    // Infinite weights, deep in the parameter tensor.
    let mut poisoned = tiny_graph(4);
    let data = poisoned.param_mut(ParamId(0)).data_mut();
    let last = data.len() - 1;
    data[last] = f32::INFINITY;
    let err = executor_no_panic(
        &poisoned,
        Tensor::zeros(Shape::nchw(1, 3, 8, 8)),
        "inf-weight",
    )
    .err()
    .expect("infinite weights must be refused");
    assert!(
        matches!(err, TensorError::Graph { .. }),
        "inf-weight: {err:?}"
    );

    // Dangling wiring: a node referencing an id that does not exist.
    let mut dangling = tiny_graph(5);
    dangling.add_node(OpKind::Relu, vec![NodeId(999)], "dangling");
    let err = executor_no_panic(
        &dangling,
        Tensor::zeros(Shape::nchw(1, 3, 8, 8)),
        "dangling",
    )
    .err()
    .expect("dangling wiring must be refused");
    assert!(
        matches!(err, TensorError::Graph { .. }),
        "dangling: {err:?}"
    );

    // An empty graph.
    let empty = Graph::new("empty");
    let err = executor_no_panic(&empty, Tensor::zeros(Shape::nchw(1, 3, 8, 8)), "empty")
        .err()
        .expect("empty graph must be refused");
    assert!(
        matches!(err, TensorError::EmptyGraph | TensorError::Graph { .. }),
        "empty: {err:?}"
    );
}

#[test]
fn corrupt_graph_on_the_serve_path_never_aborts_the_loop() {
    // Even if a corrupt executor somehow reaches the serving loop (e.g. a
    // faulting executor standing in for a graph whose weights rotted after
    // validation), every request resolves to a typed outcome and the loop
    // finishes normally.
    struct AlwaysFaults;
    impl RequestExecutor for AlwaysFaults {
        fn execute(&self, k: usize) -> Result<(), TensorError> {
            Err(TensorError::Graph {
                detail: format!("rotten weights at request {k}"),
            })
        }
    }

    let pattern = TrafficPattern::Steady { rate_rps: 4.0 };
    let trace = generate_arrivals(&pattern, 20.0, 29);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 10, 5, 0.8, 3));
    let r = catch_unwind(AssertUnwindSafe(|| {
        serve(
            &storm_curve(),
            BASELINE_S,
            &device,
            &trace,
            &AlwaysFaults,
            &ServeParams::default(),
        )
    }))
    .unwrap_or_else(|_| panic!("serve() panicked on an always-faulting executor"));
    assert!(r.faulted >= 1);
    assert!(r.breaker_trips >= 1, "persistent faults must trip");
    assert_eq!(r.served_on_time + r.served_late, 0);
    assert_eq!(
        r.arrivals,
        r.admitted + r.shed_queue_full + r.shed_deadline + r.shed_breaker
    );
}

#[test]
fn no_fault_executor_with_diurnal_traffic_is_deterministic() {
    // A second, independent determinism check on a different pattern: two
    // fresh runs with identical inputs produce identical JSON.
    let pattern = TrafficPattern::Diurnal {
        min_rps: 2.0,
        max_rps: 30.0,
        period_s: 20.0,
    };
    let run = || {
        let trace = generate_arrivals(&pattern, 40.0, 0xBEEF);
        let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 50, 80, 0.7, 9));
        serve(
            &storm_curve(),
            BASELINE_S,
            &device,
            &trace,
            &NoFaultExecutor,
            &storm_params(),
        )
        .to_json()
    };
    assert_eq!(run(), run());
}
