//! Acceptance tests for the trust-but-verify QoS guard: a shipped curve
//! whose promises are deliberately miscalibrated 2× on its aggressive
//! points must have every lying point quarantined within the canary
//! budget, with zero post-quarantine QoS-floor breaches among canaried
//! requests; forcing every point to lie must engage the exact-fallback
//! safety net with a typed event, never a panic; and the full guarded
//! report must be bit-identical across thread counts.

use at_core::config::Config;
use at_core::guard::{GuardEventKind, GuardParams, MiscalibratedExecutor, PointTrust};
use at_core::knobs::{KnobId, KnobRegistry};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::qos::QosMetric;
use at_core::serve::{
    generate_arrivals, serve_guarded, GraphExecutor, GuardedServeReport, RequestExecutor,
    ServeParams, TrafficPattern,
};
use at_hw::{DisturbedDevice, Scenario};
use at_ir::{Graph, GraphBuilder};
use at_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Baseline service time: capacity is 20 req/s exactly.
const BASELINE_S: f64 = 0.05;

/// The promises each rung ships with. Rung 0 is honest; rungs 1 and 2
/// are the aggressive points and their promises are inflated.
const PROMISED_QOS: [f64; 3] = [97.0, 96.0, 95.0];

/// What each rung actually delivers. Rungs 1 and 2 lose exactly 2× the
/// QoS their promise admits (promised loss 4 → true loss 8; promised
/// loss 5 → true loss 10, against the 100.0 baseline).
const HONEST_QOS: [f64; 3] = [97.0, 92.0, 90.0];

fn shipped_curve(promised: &[f64]) -> TradeoffCurve {
    TradeoffCurve::from_points(
        [1.3f64, 1.7, 2.2]
            .iter()
            .zip(promised)
            .map(|(&perf, &qos)| TradeoffPoint {
                qos,
                perf,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    )
}

fn overload_params() -> ServeParams {
    ServeParams {
        deadline_s: 0.5,
        cooldown_s: 1.0,
        ..ServeParams::default()
    }
}

fn guard_params(qos_floor: f64) -> GuardParams {
    GuardParams {
        canary_fraction: 0.35,
        canary_seed: 0x5EED,
        tolerance: 1.0,
        strikes_to_quarantine: 3,
        qos_floor,
    }
}

/// 2× the baseline capacity for a full minute: the ladder escalates onto
/// the aggressive (lying) rungs and stays under pressure, so canaries
/// keep flowing to each surviving rung until the liars are convicted.
fn guarded_report(honest: &[f64; 3], qos_floor: f64) -> GuardedServeReport {
    let pattern = TrafficPattern::Steady { rate_rps: 40.0 };
    let trace = generate_arrivals(&pattern, 60.0, 0xC4);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 10, 5, 0.9, 3));
    let exec = MiscalibratedExecutor {
        honest_qos: honest.to_vec(),
        jitter: 0.4,
        seed: 0xB0B,
    };
    serve_guarded(
        &shipped_curve(&PROMISED_QOS),
        BASELINE_S,
        &device,
        &trace,
        &exec,
        &overload_params(),
        &guard_params(qos_floor),
    )
}

#[test]
fn lying_points_are_quarantined_within_the_canary_budget() {
    let r = catch_unwind(AssertUnwindSafe(|| guarded_report(&HONEST_QOS, 85.0)))
        .unwrap_or_else(|_| panic!("serve_guarded() panicked on the miscalibrated curve"));
    let g = &r.guard;

    // Every lying point was convicted; the honest point survived.
    let mut convicted = g.quarantined.clone();
    convicted.sort_unstable();
    assert_eq!(convicted, vec![1, 2], "quarantined {:?}", g.quarantined);
    assert_eq!(g.accounts[0].trust, PointTrust::Trusted);
    assert_eq!(g.accounts[1].trust, PointTrust::Quarantined);
    assert_eq!(g.accounts[2].trust, PointTrust::Quarantined);
    assert_eq!(g.repairs, 2);
    assert!(
        !g.exact_fallback,
        "honest rung 0 must keep the curve usable"
    );

    // Within the canary budget: every canary on a lying rung is a miss
    // (the lie dwarfs jitter + tolerance), so conviction lands on exactly
    // `strikes_to_quarantine` canaries per liar — no more.
    assert_eq!(
        g.misses,
        6,
        "2 liars x 3 strikes, event log:\n{:#?}",
        g.event_log()
    );
    for rung in [1usize, 2] {
        let misses = g
            .events
            .iter()
            .filter(|e| matches!(e.kind, GuardEventKind::CanaryMiss { rung: r, .. } if r == rung))
            .count();
        assert_eq!(misses, 3, "rung {rung} must convict in exactly 3 canaries");
    }
    assert!(
        g.canaries > 20,
        "overload run must canary plenty of requests, got {}",
        g.canaries
    );
    assert_eq!(g.poisoned, 0);

    // The repaired curve carries honest promises for the convicted rungs:
    // the windowed observed estimate, within jitter of the true QoS.
    for rung in [1usize, 2] {
        let repaired = g.repaired_curve.points()[rung].qos;
        assert!(
            (repaired - HONEST_QOS[rung]).abs() <= 0.4 + 1e-9,
            "rung {rung} repaired to {repaired}, honest {}",
            HONEST_QOS[rung]
        );
    }
    // The honest rung's promise is untouched.
    assert_eq!(g.repaired_curve.points()[0].qos, PROMISED_QOS[0]);

    // The serving loop itself stayed healthy throughout.
    assert_eq!(
        r.serve.arrivals,
        r.serve.admitted + r.serve.shed_queue_full + r.serve.shed_deadline + r.serve.shed_breaker
    );
    assert!(r.serve.mean_qos.is_finite());
}

#[test]
fn no_floor_breach_after_quarantine_among_canaried_requests() {
    // Floor at 91: the rung-2 liar truly delivers 90±0.4, so its canaries
    // breach the floor *until* it is convicted — after the last
    // quarantine, every canaried request observes QoS above the floor.
    let r = guarded_report(&HONEST_QOS, 91.0);
    let g = &r.guard;

    let mut convicted = g.quarantined.clone();
    convicted.sort_unstable();
    assert_eq!(convicted, vec![1, 2]);
    assert!(
        g.premasked_below_floor.is_empty(),
        "every shipped promise is above the floor"
    );

    let last_quarantine = g
        .events
        .iter()
        .rposition(|e| matches!(e.kind, GuardEventKind::Quarantined { .. }))
        .unwrap_or_else(|| panic!("no quarantine logged:\n{:#?}", g.event_log()));
    let breaches_after = g.events[last_quarantine..]
        .iter()
        .filter(|e| matches!(e.kind, GuardEventKind::FloorBreach { .. }))
        .count();
    assert_eq!(
        breaches_after,
        0,
        "canaried floor breaches after the last quarantine:\n{:#?}",
        g.event_log()
    );
    // The breaches that did happen all predate conviction and were all
    // charged to the rung that truly sits below the floor.
    assert!(
        g.floor_breaches > 0,
        "the 90-QoS liar must breach the 91 floor before conviction"
    );
    assert!(g.events[..last_quarantine]
        .iter()
        .filter(|e| matches!(e.kind, GuardEventKind::FloorBreach { .. }))
        .all(|e| matches!(e.kind, GuardEventKind::FloorBreach { rung: 2, .. })));
}

#[test]
fn all_points_lying_forces_exact_fallback_with_a_typed_event() {
    // Every rung truly delivers far below both its promise and the floor:
    // quarantine exhausts the whole curve and the guard clamps to exact.
    let r = catch_unwind(AssertUnwindSafe(|| {
        guarded_report(&[80.0, 78.0, 76.0], 90.0)
    }))
    .unwrap_or_else(|_| panic!("serve_guarded() panicked on the all-lying curve"));
    let g = &r.guard;

    let mut convicted = g.quarantined.clone();
    convicted.sort_unstable();
    assert_eq!(convicted, vec![0, 1, 2], "every point must be convicted");
    assert!(g.exact_fallback, "exhausted curve must clamp to exact");
    let unrecoverable = g
        .events
        .iter()
        .filter(|e| matches!(e.kind, GuardEventKind::QosFloorUnrecoverable { floor } if (floor - 90.0).abs() < 1e-12))
        .count();
    assert_eq!(
        unrecoverable, 1,
        "typed fallback event, logged exactly once"
    );

    // The loop kept serving (at the exact baseline) after the fallback.
    assert_eq!(r.serve.final_rung, None, "run must end on the exact config");
    assert!(r.serve.served_on_time > 0);
    assert!(r.serve.mean_qos.is_finite());
}

#[test]
fn guarded_report_is_bit_identical_across_thread_counts() {
    let baseline = guarded_report(&HONEST_QOS, 91.0).to_json();
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let json = pool.install(|| guarded_report(&HONEST_QOS, 91.0).to_json());
        assert_eq!(
            json, baseline,
            "guarded report diverged under a {threads}-thread pool"
        );
    }
}

// ---------------------------------------------------------------------------
// Real shadow re-execution through GraphExecutor::with_canary
// ---------------------------------------------------------------------------

fn canary_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(11);
    let mut b = GraphBuilder::new("canary-smoke", Shape::nchw(1, 3, 8, 8), &mut rng);
    b.conv(4, 3, (1, 1), (1, 1))
        .relu()
        .flatten()
        .dense(5)
        .softmax();
    b.finish().unwrap()
}

fn varied_input() -> Tensor {
    let n = 3 * 8 * 8;
    let data: Vec<f32> = (0..n)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
        .collect();
    Tensor::from_vec(Shape::nchw(1, 3, 8, 8), data).unwrap()
}

#[test]
fn graph_executor_measures_canary_qos_by_exact_re_execution() {
    let graph = canary_graph();
    let registry = KnobRegistry::new();
    let exec = GraphExecutor::with_canary(
        &graph,
        varied_input(),
        &registry,
        QosMetric::Accuracy,
        100.0,
    )
    .unwrap();

    // The exact configuration must agree with its own re-execution:
    // observed QoS equals the baseline exactly.
    let exact_point = TradeoffPoint {
        qos: 100.0,
        perf: 1.0,
        config: Config::from_knobs(vec![]),
    };
    let observed = exec.canary_qos(0, 0, &exact_point).unwrap();
    assert!(
        (observed - 100.0).abs() < 1e-9,
        "exact config must self-agree, observed {observed}"
    );

    // An approximated configuration yields a finite observation bounded by
    // the baseline, and the measurement is a pure function of the request
    // index (same k → same observation).
    let approx_point = TradeoffPoint {
        qos: 98.0,
        perf: 1.3,
        config: Config::from_knobs(vec![KnobId(1)]),
    };
    let a = exec.canary_qos(3, 1, &approx_point).unwrap();
    let b = exec.canary_qos(3, 1, &approx_point).unwrap();
    assert_eq!(a, b, "canary measurement must be deterministic in k");
    assert!(a.is_finite());
    assert!(
        a <= 100.0 + 1e-9,
        "agreement accuracy cannot exceed baseline"
    );
}

#[test]
fn plain_graph_executor_declines_to_canary() {
    let graph = canary_graph();
    let exec = GraphExecutor::new(&graph, varied_input()).unwrap();
    let point = TradeoffPoint {
        qos: 98.0,
        perf: 1.3,
        config: Config::from_knobs(vec![]),
    };
    assert_eq!(
        exec.canary_qos(0, 0, &point),
        None,
        "without a canary context the hook must opt out, not guess"
    );
}
