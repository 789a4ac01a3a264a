//! Property tests on the QoS guard's numeric core: the canary comparator
//! and the residual window must stay NaN/inf-safe for arbitrary finite and
//! poisoned observation streams — every counter consistent, every stored
//! statistic finite, every repair finite, never a panic. Plus a
//! corrupt-curve corpus case: a curve salvaged by
//! [`ShippedArtifact::load_repaired`] whose surviving promises sit below
//! the guard's floor is quarantined at the door, not served into a breach.

use at_core::config::Config;
use at_core::guard::{
    fails_floor, CanarySampler, GuardEventKind, GuardParams, GuardVerdict, MiscalibratedExecutor,
    QosGuard, ResidualWindow,
};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::qos::QosMetric;
use at_core::serve::{generate_arrivals, serve_guarded, ServeParams, TrafficPattern};
use at_core::ship::ShippedArtifact;
use at_hw::{DisturbedDevice, Scenario};
use at_ir::{Graph, GraphBuilder};
use at_tensor::Shape;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An observation that may be finite, huge, or poisoned (NaN/±inf/±MAX
/// roughly one case in three).
fn qos_s() -> impl Strategy<Value = f64> {
    (0u8..15, -1.0e6..1.0e6f64).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::MAX,
        4 => -f64::MAX,
        _ => v,
    })
}

fn curve(n: usize) -> TradeoffCurve {
    TradeoffCurve::from_points(
        (0..n)
            .map(|i| TradeoffPoint {
                qos: 98.0 - 2.0 * i as f64,
                perf: 1.2 + 0.3 * i as f64,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    )
}

proptest! {
    /// The residual window never stores a non-finite value, its counters
    /// always partition the stream, and its statistics are finite whenever
    /// they exist.
    #[test]
    fn residual_window_is_nan_safe(
        stream in proptest::collection::vec(qos_s(), 0..64),
        cap in 0usize..8,
    ) {
        let mut w = ResidualWindow::new(cap);
        for &v in &stream {
            w.push(v);
        }
        prop_assert_eq!(w.total(), stream.len());
        prop_assert_eq!(
            w.values().len() + w.evicted() + w.poisoned(),
            w.total(),
            "retained + evicted + poisoned must partition the stream"
        );
        prop_assert_eq!(
            w.poisoned(),
            stream.iter().filter(|v| !v.is_finite()).count()
        );
        prop_assert!(w.values().len() <= cap);
        prop_assert!(w.values().iter().all(|v| v.is_finite()));
        for stat in [w.mean(), w.max(), w.min()] {
            if let Some(s) = stat {
                prop_assert!(s.is_finite(), "stat {s} must be finite");
            } else {
                prop_assert!(w.values().is_empty());
            }
        }
    }

    /// The sampler is a pure function of `(seed, k)` for any seed and any
    /// fraction, including poisoned ones.
    #[test]
    fn canary_sampler_is_pure_for_arbitrary_fractions(
        seed in 0u64..u64::MAX,
        fraction in qos_s(),
        ks in proptest::collection::vec(0usize..1_000_000, 1..32),
    ) {
        let s = CanarySampler::new(seed, fraction);
        prop_assert!((0.0..=1.0).contains(&s.fraction()));
        for &k in &ks {
            prop_assert_eq!(s.is_canary(k), s.is_canary(k));
        }
    }

    /// The full comparator path: arbitrary interleavings of honest, lying
    /// and poisoned observations across rungs (including out-of-range
    /// rungs) never panic, keep every counter consistent, and only ever
    /// repair to finite promises.
    #[test]
    fn canary_comparator_is_nan_safe_end_to_end(
        observations in proptest::collection::vec((0usize..5, qos_s(), qos_s()), 0..128),
        tolerance in qos_s(),
        floor in qos_s(),
        strikes in 1usize..5,
    ) {
        let c = curve(3);
        let mut g = QosGuard::new(
            &GuardParams {
                tolerance,
                qos_floor: floor,
                strikes_to_quarantine: strikes,
                ..GuardParams::default()
            },
            &c,
        );
        let mut valid = 0usize;
        let mut poisoned = 0usize;
        let mut breaches = 0usize;
        for (i, &(rung, promised, observed)) in observations.iter().enumerate() {
            let verdict = g.observe(i as f64, i, rung, promised, observed);
            if rung >= 3 {
                prop_assert_eq!(verdict, GuardVerdict::Ok, "unknown rung must be inert");
                continue;
            }
            valid += 1;
            if !observed.is_finite() {
                poisoned += 1;
            }
            if fails_floor(observed, floor) {
                breaches += 1;
            }
            if let GuardVerdict::Quarantine { rung: r, repaired_qos } = verdict {
                prop_assert_eq!(r, rung);
                prop_assert!(repaired_qos.is_finite(), "repair must be finite");
            }
        }
        let r = g.into_report(c);
        prop_assert_eq!(r.canaries, valid);
        prop_assert_eq!(r.poisoned, poisoned);
        prop_assert_eq!(r.floor_breaches, breaches);
        // A rung is convicted at most once, and only real rungs convict.
        let mut seen = r.quarantined.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), r.quarantined.len(), "double conviction");
        prop_assert!(r.quarantined.iter().all(|&q| q < 3));
        prop_assert_eq!(r.repairs, r.quarantined.len());
        // Every stored residual and every repaired promise is finite.
        for acct in &r.accounts {
            prop_assert!(acct.window.values().iter().all(|v| v.is_finite()));
        }
        for e in &r.events {
            if let GuardEventKind::Repaired { to_qos, .. } = e.kind {
                prop_assert!(to_qos.is_finite());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Corrupt-curve corpus: load_repaired output meets the guard
// ---------------------------------------------------------------------------

fn corpus_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(21);
    let mut b = GraphBuilder::new("guard-corpus", Shape::nchw(1, 3, 8, 8), &mut rng);
    b.conv(4, 3, (1, 1), (1, 1))
        .relu()
        .flatten()
        .dense(5)
        .softmax();
    b.finish().unwrap()
}

/// An artifact whose fp32 curve carries unique sentinels for string
/// surgery: qos [98.25, 96.25, 94.25] at perf [1.25, 1.75, 2.5].
fn sentinel_artifact(g: &Graph) -> String {
    let curve = TradeoffCurve::from_points(vec![
        TradeoffPoint {
            qos: 98.25,
            perf: 1.25,
            config: Config::from_knobs(vec![]),
        },
        TradeoffPoint {
            qos: 96.25,
            perf: 1.75,
            config: Config::from_knobs(vec![]),
        },
        TradeoffPoint {
            qos: 94.25,
            perf: 2.5,
            config: Config::from_knobs(vec![]),
        },
    ]);
    ShippedArtifact::new(g, QosMetric::Accuracy, 88.5, None, Some(curve)).to_json()
}

#[test]
fn salvaged_curve_below_the_floor_is_quarantined_at_the_door_not_breached() {
    let g = corpus_graph();
    // Poison the *honest, conservative* point's QoS (1e999 parses to +inf):
    // repair drops it, leaving only the two aggressive promises.
    let poisoned = sentinel_artifact(&g).replace("98.25", "1e999");
    let (salvaged, report) = ShippedArtifact::load_repaired(&poisoned, &g, false).unwrap();
    assert_eq!(report.dropped_non_finite, 1);
    assert_eq!(salvaged.len(), 2);

    // Serve the salvaged curve with a floor *above* every surviving
    // promise: the guard must pre-mask the whole curve and clamp to the
    // exact configuration before a single approximated request is served —
    // quarantine at the door, not a QoS-floor breach in flight.
    let trace = generate_arrivals(&TrafficPattern::Steady { rate_rps: 30.0 }, 20.0, 0xD1);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 10, 5, 0.9, 3));
    let exec = MiscalibratedExecutor {
        honest_qos: vec![96.25, 94.25],
        jitter: 0.1,
        seed: 0xEC0,
    };
    let r = serve_guarded(
        &salvaged,
        0.05,
        &device,
        &trace,
        &exec,
        &ServeParams {
            deadline_s: 0.5,
            ..ServeParams::default()
        },
        &GuardParams {
            canary_fraction: 0.5,
            qos_floor: 97.0,
            ..GuardParams::default()
        },
    );
    assert_eq!(r.guard.premasked_below_floor, vec![0, 1]);
    assert!(r.guard.exact_fallback, "exhausted-at-the-door must clamp");
    assert!(matches!(
        r.guard.events.first().map(|e| &e.kind),
        Some(GuardEventKind::QosFloorUnrecoverable { .. })
    ));
    assert_eq!(r.guard.floor_breaches, 0, "no canaried request may breach");
    assert_eq!(r.serve.final_rung, None, "must serve exact throughout");
    assert!(r.serve.served_on_time > 0, "exact fallback keeps serving");
}

#[test]
fn salvaged_curve_with_one_usable_point_serves_only_that_point() {
    let g = corpus_graph();
    let poisoned = sentinel_artifact(&g).replace("98.25", "1e999");
    let (salvaged, _) = ShippedArtifact::load_repaired(&poisoned, &g, false).unwrap();

    // Floor between the two surviving promises: the aggressive point is
    // pre-masked, the honest point serves and is never convicted.
    let trace = generate_arrivals(&TrafficPattern::Steady { rate_rps: 40.0 }, 30.0, 0xD2);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(usize::MAX / 2, 10, 5, 0.9, 3));
    let exec = MiscalibratedExecutor {
        honest_qos: vec![96.25, 94.25],
        jitter: 0.1,
        seed: 0xEC1,
    };
    let r = serve_guarded(
        &salvaged,
        0.05,
        &device,
        &trace,
        &exec,
        &ServeParams {
            deadline_s: 0.5,
            ..ServeParams::default()
        },
        &GuardParams {
            canary_fraction: 0.5,
            qos_floor: 95.0,
            tolerance: 1.0,
            ..GuardParams::default()
        },
    );
    assert_eq!(r.guard.premasked_below_floor, vec![1]);
    assert!(!r.guard.exact_fallback);
    assert!(r.guard.quarantined.is_empty(), "honest survivor must serve");
    assert_eq!(r.guard.floor_breaches, 0);
    assert!(r.guard.canaries > 0, "the surviving rung must be canaried");
    assert_eq!(r.guard.misses, 0);
}
