//! Workspace-level property tests on the tuner's core invariants.

use approxtuner::core::config::Config;
use approxtuner::core::pareto::{
    cap_points, pareto_set, pareto_set_eps, TradeoffCurve, TradeoffPoint,
};
use approxtuner::core::runtime::{policy2_probabilities, Policy, RuntimeTuner};
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = TradeoffPoint> {
    (50.0f64..100.0, 1.0f64..4.0).prop_map(|(qos, perf)| TradeoffPoint {
        qos,
        perf,
        config: Config::from_knobs(vec![]),
    })
}

proptest! {
    #[test]
    fn pareto_set_is_mutually_non_dominated(
        pts in proptest::collection::vec(point_strategy(), 1..60),
    ) {
        let ps = pareto_set(&pts);
        for a in &ps {
            for b in &ps {
                prop_assert!(!a.strictly_dominated_by(b));
            }
        }
    }

    #[test]
    fn pareto_set_is_idempotent(
        pts in proptest::collection::vec(point_strategy(), 1..60),
    ) {
        let once = pareto_set(&pts);
        let twice = pareto_set(&once);
        prop_assert_eq!(once.len(), twice.len());
    }

    #[test]
    fn every_point_dominated_by_some_pareto_point(
        pts in proptest::collection::vec(point_strategy(), 1..60),
    ) {
        let ps = pareto_set(&pts);
        for p in &pts {
            prop_assert!(
                ps.iter().any(|s| p.dominated_by(s)),
                "point ({}, {}) not covered", p.qos, p.perf
            );
        }
    }

    #[test]
    fn eps_relaxation_is_monotone(
        pts in proptest::collection::vec(point_strategy(), 1..60),
        eps1 in 0.0f64..2.0,
        eps2 in 0.0f64..2.0,
    ) {
        let (lo, hi) = if eps1 <= eps2 { (eps1, eps2) } else { (eps2, eps1) };
        prop_assert!(pareto_set_eps(&pts, lo).len() <= pareto_set_eps(&pts, hi).len());
        // ε = 0 is exactly the strict Pareto set.
        prop_assert_eq!(pareto_set_eps(&pts, 0.0).len(), pareto_set(&pts).len());
    }

    #[test]
    fn cap_points_honours_budget_and_keeps_extremes(
        pts in proptest::collection::vec(point_strategy(), 2..80),
        cap in 2usize..20,
    ) {
        let capped = cap_points(pts.clone(), cap);
        prop_assert!(capped.len() <= cap.max(pts.len().min(cap)));
        if pts.len() > cap {
            let min_perf = pts.iter().map(|p| p.perf).fold(f64::INFINITY, f64::min);
            let max_perf = pts.iter().map(|p| p.perf).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(capped.iter().any(|p| (p.perf - min_perf).abs() < 1e-12));
            prop_assert!(capped.iter().any(|p| (p.perf - max_perf).abs() < 1e-12));
        }
    }

    #[test]
    fn curve_query_returns_sufficient_speedup(
        pts in proptest::collection::vec(point_strategy(), 1..40),
        target in 1.01f64..4.0,
    ) {
        let curve = TradeoffCurve::from_points(pts);
        let max_perf = curve.points().iter().map(|q| q.perf).fold(f64::NEG_INFINITY, f64::max);
        let mut tuner = RuntimeTuner::new(curve, Policy::EnforceEachInvocation, 1, 1.0, 0);
        tuner.adapt_to(target);
        // A required speedup ≤ 1.0 means "return to the exact baseline", so
        // targets start above it. A non-empty curve then always yields a
        // point: either it meets the target, or the target is beyond the
        // curve and it is the fastest.
        let p = tuner.current_point().expect("policy 1 selects a point above 1.0x");
        prop_assert!(p.perf >= target || (p.perf - max_perf).abs() < 1e-12);
    }

    #[test]
    fn policy2_query_stays_on_the_bracketing_points(
        pts in proptest::collection::vec(point_strategy(), 1..40),
        target in 1.01f64..4.0,
        seed in 0u64..1000,
    ) {
        let curve = TradeoffCurve::from_points(pts);
        let perfs: Vec<f64> = curve.points().iter().map(|q| q.perf).collect();
        // The curve is sorted by performance: the slowest point meeting the
        // target and its predecessor, clamped to the curve's ends.
        let first_meeting = perfs.partition_point(|&p| p < target);
        let above = first_meeting.min(perfs.len() - 1);
        let below = first_meeting.saturating_sub(1);
        let mut tuner = RuntimeTuner::new(curve, Policy::AverageOverTime, 1, 1.0, seed);
        for _ in 0..16 {
            tuner.adapt_to(target);
            let i = tuner.current_index().expect("policy 2 selects a point above 1.0x");
            prop_assert!(i == below || i == above, "picked {} outside [{}, {}]", i, below, above);
        }
    }

    #[test]
    fn curve_json_roundtrip(
        pts in proptest::collection::vec(point_strategy(), 0..30),
    ) {
        let curve = TradeoffCurve::from_points(pts);
        let back = TradeoffCurve::from_json(&curve.to_json()).unwrap();
        prop_assert_eq!(back.len(), curve.len());
        for (a, b) in back.points().iter().zip(curve.points()) {
            prop_assert_eq!(a.qos, b.qos);
            prop_assert_eq!(a.perf, b.perf);
        }
    }

    #[test]
    fn policy2_mixing_hits_target_in_expectation(
        lo in 1.0f64..2.0,
        gap in 0.01f64..2.0,
        t in 0.0f64..1.0,
    ) {
        let hi = lo + gap;
        let target = lo + t * gap;
        let (p_lo, p_hi) = policy2_probabilities(lo, hi, target);
        prop_assert!((p_lo + p_hi - 1.0).abs() < 1e-9);
        prop_assert!((p_lo * lo + p_hi * hi - target).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p_lo));
    }
}

/// The checked-in shrink input from `tests/proptests.proptest-regressions`:
/// a single-point curve whose QoS value needs 17 significant digits. The
/// JSON writer/reader must roundtrip it bit-exactly (the original failure
/// was a lossy float serialisation).
#[test]
fn regression_single_point_curve_roundtrips_exactly() {
    let pt = TradeoffPoint {
        qos: 95.83474401824101,
        perf: 1.0,
        config: Config::from_knobs(vec![]),
    };
    let curve = TradeoffCurve::from_points(vec![pt]);
    assert_eq!(curve.len(), 1);
    let back = TradeoffCurve::from_json(&curve.to_json()).expect("roundtrip");
    assert_eq!(back.len(), 1);
    assert_eq!(back.points()[0].qos, 95.83474401824101);
    assert_eq!(back.points()[0].perf, 1.0);
    // The point also survives the query path: a one-point curve is
    // selectable.
    let mut tuner = RuntimeTuner::new(curve, Policy::EnforceEachInvocation, 1, 1.0, 0);
    assert!(tuner.adapt_to(1.5).is_some());
}

mod runtime_tuner {
    use approxtuner::core::config::Config;
    use approxtuner::core::pareto::{TradeoffCurve, TradeoffPoint};
    use approxtuner::core::runtime::{policy2_probabilities, Policy, RuntimeTuner};
    use proptest::prelude::*;

    fn curve() -> TradeoffCurve {
        let pt = |qos: f64, perf: f64| TradeoffPoint {
            qos,
            perf,
            config: Config::from_knobs(vec![]),
        };
        TradeoffCurve::from_points(vec![
            pt(90.0, 1.2),
            pt(88.5, 1.5),
            pt(87.0, 1.8),
            pt(85.0, 2.2),
        ])
    }

    proptest! {
        #[test]
        fn policy2_pair_is_convex_and_reproduces_target(
            lo in 1.0f64..3.0,
            gap in 0.0f64..2.0,
            target in 0.5f64..6.0,
        ) {
            let hi = lo + gap;
            let (p_lo, p_hi) = policy2_probabilities(lo, hi, target);
            // Always a convex pair…
            prop_assert!((0.0..=1.0).contains(&p_lo), "p_lo {}", p_lo);
            prop_assert!((0.0..=1.0).contains(&p_hi), "p_hi {}", p_hi);
            prop_assert!((p_lo + p_hi - 1.0).abs() < 1e-9);
            // …and inside the bracket the mix reproduces the target exactly.
            if gap > 1e-9 && (lo..=hi).contains(&target) {
                prop_assert!((p_lo * lo + p_hi * hi - target).abs() < 1e-9);
            }
        }

        #[test]
        fn hysteresis_band_never_switches(
            factors in proptest::collection::vec(0.705f64..1.015, 1..50),
            window in 1usize..5,
            enforce in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            // Every invocation time lands strictly inside the hysteresis
            // band [0.7, 1.02]·target, so the tuner must never reconfigure.
            let policy = if enforce {
                Policy::EnforceEachInvocation
            } else {
                Policy::AverageOverTime
            };
            let mut t = RuntimeTuner::new(curve(), policy, window, 1.0, seed);
            for f in factors {
                prop_assert!(t.record_invocation(f).is_none());
            }
            prop_assert_eq!(t.switches, 0);
            prop_assert!(t.current_point().is_none());
        }

        #[test]
        fn switch_counter_is_monotonic(
            times in proptest::collection::vec(0.2f64..4.0, 1..60),
            window in 1usize..4,
            enforce in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            let policy = if enforce {
                Policy::EnforceEachInvocation
            } else {
                Policy::AverageOverTime
            };
            let mut t = RuntimeTuner::new(curve(), policy, window, 1.0, seed);
            let mut prev = t.switches;
            for x in times {
                t.record_invocation(x);
                prop_assert!(t.switches >= prev, "switch counter went backwards");
                prev = t.switches;
            }
        }
    }
}

mod knob_roundtrips {
    use approxtuner::core::knobs::{KnobId, KnobRegistry, KnobSet};
    use approxtuner::ir::OpClass;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_never_panics_for_any_id(id in 0u16..200) {
            let r = KnobRegistry::new();
            for class in [OpClass::Conv, OpClass::Dense, OpClass::Reduction, OpClass::Other, OpClass::Input] {
                let _ = r.decode(class, KnobId(id));
            }
        }

        #[test]
        fn every_registered_knob_decodes_to_its_choice(idx in 0usize..63) {
            let r = KnobRegistry::new();
            let table = r.table(OpClass::Conv);
            let k = &table[idx.min(table.len() - 1)];
            prop_assert_eq!(r.decode(OpClass::Conv, k.id), k.choice);
        }

        #[test]
        fn hardware_independent_subset_of_full(_x in 0..1) {
            let r = KnobRegistry::new();
            for class in [OpClass::Conv, OpClass::Dense, OpClass::Reduction, OpClass::Other] {
                let hwi = r.knobs(class, KnobSet::HardwareIndependent).len();
                let all = r.knobs(class, KnobSet::WithHardware).len();
                prop_assert!(hwi <= all);
            }
        }
    }
}
