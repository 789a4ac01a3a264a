//! Scenario-driven integration tests for closed-loop runtime adaptation
//! (§5 policies driven over the §6.4 DVFS sweep), plus fault-path tests
//! (sensor dropout, degenerate curves) and property tests holding the
//! tuner and the loop to physical traces.

use approxtuner::core::closed_loop::{run_closed_loop, ClosedLoopParams, EventKind};
use approxtuner::core::config::Config;
use approxtuner::core::pareto::{TradeoffCurve, TradeoffPoint};
use approxtuner::core::runtime::Policy;
use approxtuner::hw::{Disturbance, DisturbedDevice, FrequencyLadder, Scenario};

/// A synthetic shipped curve with strictly decreasing QoS, so every point
/// survives Pareto filtering. `perfs` must be increasing.
fn curve(perfs: &[f64]) -> TradeoffCurve {
    TradeoffCurve::from_points(
        perfs
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

/// The default test curve: covers the sweep's worst 4.08× slowdown, so a
/// correct controller never hits the QoS floor.
fn default_curve() -> TradeoffCurve {
    curve(&[1.15, 1.5, 2.0, 2.6, 3.3, 4.2, 5.0])
}

const DWELL: usize = 20;

fn sweep_device() -> DisturbedDevice {
    DisturbedDevice::tx2(Scenario::tx2_dvfs_sweep(DWELL))
}

#[test]
fn policy1_meets_target_in_every_invocation_of_the_dvfs_sweep() {
    let r = run_closed_loop(
        &default_curve(),
        1.0,
        &sweep_device(),
        &ClosedLoopParams::default(),
    );
    // Feed-forward control: the target holds at *every* invocation,
    // including the first one after each governor step.
    assert_eq!(r.target_hit_rate(1e-9), 1.0, "missed invocations");
    assert_eq!(r.breaches, 0, "default curve covers the whole ladder");
    // No thrashing: one re-selection per ladder step at most.
    assert!(r.switches <= 12, "thrash: {} switches", r.switches);
    assert!(r.switches >= 4, "sweep must force several re-selections");
    // Every decision is a feed-forward event on a step boundary.
    for e in r.log.events() {
        assert!(matches!(e.kind, EventKind::Clock(_)), "{e:?}");
        assert_eq!(e.invocation % DWELL, 0, "off-boundary event {e:?}");
    }
}

#[test]
fn policy1_selection_tracks_the_ladder_monotonically() {
    let r = run_closed_loop(
        &default_curve(),
        1.0,
        &sweep_device(),
        &ClosedLoopParams::default(),
    );
    // As the clock only drops, the selected curve index never decreases.
    let mut prev = -1isize;
    for t in &r.trace {
        let idx = t.selected.map(|i| i as isize).unwrap_or(-1);
        assert!(
            idx >= prev,
            "selection regressed at invocation {}",
            t.invocation
        );
        prev = idx;
    }
    // The bottom step (4.08× slowdown) needs the 4.2× point, not the 5×.
    assert_eq!(r.trace.last().unwrap().selected, Some(5));
}

#[test]
fn policy2_meets_the_target_on_average_within_two_percent() {
    let r = run_closed_loop(
        &default_curve(),
        1.0,
        &sweep_device(),
        &ClosedLoopParams {
            policy: Policy::AverageOverTime,
            ..ClosedLoopParams::default()
        },
    );
    assert!(
        r.mean_norm_time <= 1.02,
        "average target missed: {:.4}",
        r.mean_norm_time
    );
    assert_eq!(r.breaches, 0);
    // The probabilistic mix trades a little time for QoS: the average
    // delivered QoS must be at least Policy 1's.
    let p1 = run_closed_loop(
        &default_curve(),
        1.0,
        &sweep_device(),
        &ClosedLoopParams::default(),
    );
    assert!(
        r.mean_qos >= p1.mean_qos - 1e-9,
        "policy 2 QoS {:.3} below policy 1 {:.3}",
        r.mean_qos,
        p1.mean_qos
    );
}

#[test]
fn timing_jitter_does_not_thrash_switches() {
    // ±4 % multiplicative noise around nominal conditions: the EWMA plus
    // the ±10 % dead-band must keep the controller quiet (the 0.7/0.3 EWMA
    // averages the noise to ~1 % σ, safely inside the band).
    let s = Scenario::new("jitter", FrequencyLadder::tx2_gpu(), 200, 42)
        .with(Disturbance::TimingJitter { amplitude: 0.04 });
    let r = run_closed_loop(
        &default_curve(),
        1.0,
        &DisturbedDevice::tx2(s),
        &ClosedLoopParams::default(),
    );
    assert!(
        r.switches <= 4,
        "hysteresis failed: {} switches under pure noise",
        r.switches
    );
    assert_eq!(r.breaches, 0);
}

#[test]
fn sensor_dropout_with_undersized_curve_degrades_gracefully() {
    // Sensors go dark, then the governor silently drops to the bottom
    // step (4.08× slowdown) — but the shipped curve tops out at 2.2×.
    let s = Scenario::new("blind-cliff", FrequencyLadder::tx2_gpu(), 140, 3)
        .with(Disturbance::SensorDropout { at: 20, len: 100 })
        .with(Disturbance::GovernorStep {
            at: 40,
            ladder_idx: 11,
        });
    let short = curve(&[1.3, 2.2]);
    for policy in [Policy::EnforceEachInvocation, Policy::AverageOverTime] {
        let r = run_closed_loop(
            &short,
            1.0,
            &DisturbedDevice::tx2(s.clone()),
            &ClosedLoopParams {
                policy,
                ..ClosedLoopParams::default()
            },
        );
        // The breach is visible only through feedback (sensors are down),
        // and must be recorded — never panicked over.
        assert!(r.breaches >= 1, "{policy:?}: breach not recorded");
        assert!(r
            .log
            .events()
            .iter()
            .any(|e| e.kind == EventKind::QosFloorBreach));
        for t in &r.trace {
            assert!(t.time_s.is_finite() && t.time_s > 0.0);
            assert!(t.selected.is_none_or(|i| i < 2));
        }
        // Degradation clamps to the fastest point while blind-throttled.
        assert_eq!(r.trace.last().unwrap().selected, Some(1));
        // Sensor rows really are masked in the trace.
        assert!(r.trace[30].freq_mhz.is_none() && r.trace[30].power_w.is_none());
    }
}

#[test]
fn brownout_load_spike_and_sensor_dropout_combo_degrades_gracefully() {
    // The worst compound disturbance the scenario model can script: a rail
    // brownout (clock forced down), a concurrent load spike (times
    // stretched further), and sensors dark across both — against a curve
    // that cannot cover the stacked slowdown. The loop must clamp to the
    // fastest point, record the QoS-floor breach, and never panic.
    let s = Scenario::new("combo", FrequencyLadder::tx2_gpu(), 160, 13)
        .with(Disturbance::Brownout {
            at: 30,
            len: 80,
            frequency_factor: 0.45,
        })
        .with(Disturbance::LoadSpike {
            at: 50,
            len: 40,
            time_factor: 1.8,
        })
        .with(Disturbance::SensorDropout { at: 25, len: 90 });
    let short = curve(&[1.3, 2.0]);
    for policy in [Policy::EnforceEachInvocation, Policy::AverageOverTime] {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_closed_loop(
                &short,
                1.0,
                &DisturbedDevice::tx2(s.clone()),
                &ClosedLoopParams {
                    policy,
                    ..ClosedLoopParams::default()
                },
            )
        }))
        .unwrap_or_else(|_| panic!("{policy:?}: closed loop panicked under the combo storm"));

        // The stacked ~4x slowdown exceeds the curve's 2x: the floor is
        // breached, visibly and countably — not panicked over.
        assert!(r.breaches >= 1, "{policy:?}: breach not recorded");
        assert!(
            r.log
                .events()
                .iter()
                .any(|e| e.kind == EventKind::QosFloorBreach),
            "{policy:?}: QosFloorBreach event missing"
        );
        // Degradation clamps inside the curve; the trace stays physical.
        for t in &r.trace {
            assert!(t.time_s.is_finite() && t.time_s > 0.0, "bad time {t:?}");
            assert!(t.norm_time.is_finite() && t.norm_time > 0.0);
            assert!(t.selected.is_none_or(|i| i < 2));
        }
        // In the thick of the combined window the fastest point is held.
        let mid: Vec<_> = r
            .trace
            .iter()
            .filter(|t| t.invocation >= 60 && t.invocation < 90)
            .collect();
        assert!(
            mid.iter().all(|t| t.selected == Some(1)),
            "{policy:?}: not clamped to the fastest point mid-storm"
        );
        // Sensor rows are masked while dropped out.
        assert!(r.trace[40].freq_mhz.is_none() && r.trace[40].power_w.is_none());
    }
}

#[test]
fn empty_and_one_point_curves_never_panic() {
    for policy in [Policy::EnforceEachInvocation, Policy::AverageOverTime] {
        let params = ClosedLoopParams {
            policy,
            ..ClosedLoopParams::default()
        };
        let device = DisturbedDevice::tx2(Scenario::tx2_dvfs_sweep(5));

        let empty = run_closed_loop(&TradeoffCurve::default(), 1.0, &device, &params);
        assert!(empty.breaches >= 1, "{policy:?}: empty curve must breach");
        assert_eq!(empty.switches, 0);
        assert!(empty.trace.iter().all(|t| t.selected.is_none()));
        assert!(empty
            .trace
            .iter()
            .all(|t| t.time_s.is_finite() && t.time_s > 0.0));

        let single = run_closed_loop(&curve(&[1.5]), 1.0, &device, &params);
        assert!(
            single.breaches >= 1,
            "{policy:?}: 1.5× point cannot cover 4.08×"
        );
        assert!(single
            .trace
            .iter()
            .all(|t| t.selected.is_none_or(|i| i == 0)));
        assert!(single
            .trace
            .iter()
            .all(|t| t.time_s.is_finite() && t.time_s > 0.0));
        // While the curve covers the slowdown, the target still holds.
        let covered: Vec<_> = single
            .trace
            .iter()
            .filter(|t| t.invocation >= 5 && t.invocation < 15)
            .collect();
        assert!(covered.iter().all(|t| t.norm_time <= 1.0 + 1e-9));
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn runtime_tuner_stats_stay_nan_free_for_arbitrary_finite_streams(
            times in proptest::collection::vec(1e-6f64..1e3, 1..60),
            perfs in proptest::collection::vec(1.05f64..6.0, 0..6),
            window in 1usize..8,
            avg in proptest::bool::ANY,
        ) {
            use approxtuner::core::runtime::RuntimeTuner;
            let mut perfs = perfs;
            perfs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            perfs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            let c = curve(&perfs);
            let policy = if avg {
                Policy::AverageOverTime
            } else {
                Policy::EnforceEachInvocation
            };
            let mut t = RuntimeTuner::new(c.clone(), policy, window, 0.5, 11);
            for (i, &time) in times.iter().enumerate() {
                t.record_invocation(time);
                // Every derived statistic stays finite and physical after
                // every sample, whatever the stream throws at the window.
                prop_assert!(t.current_speedup().is_finite() && t.current_speedup() >= 1.0);
                prop_assert!(t.max_speedup().is_finite() && t.max_speedup() >= 1.0);
                prop_assert!(t.target_time_s().is_finite() && t.target_time_s() > 0.0);
                prop_assert!(
                    t.current_index().is_none_or(|j| j < c.points().len()),
                    "index out of curve at sample {i}"
                );
                if let Some(p) = t.current_point() {
                    prop_assert!(p.perf.is_finite() && p.qos.is_finite());
                }
                // Feed-forward entry point is equally total.
                if i % 7 == 0 {
                    t.adapt_to(time / 0.5);
                    prop_assert!(t.current_speedup().is_finite());
                }
            }
            // A mid-stream window reset never corrupts the statistics.
            t.reset_window();
            t.record_invocation(times[0]);
            prop_assert!(t.current_speedup().is_finite());
        }

        #[test]
        fn closed_loop_never_produces_unphysical_traces(
            perfs in proptest::collection::vec(1.05f64..6.0, 0..6),
            scenario_knobs in (0usize..12, 1usize..30, 0.2f64..3.0, proptest::bool::ANY),
            avg in proptest::bool::ANY,
        ) {
            let (idx, at, factor, dropout) = scenario_knobs;
            let mut perfs = perfs;
            perfs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            perfs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            let c = curve(&perfs);
            let mut s = Scenario::new("prop", FrequencyLadder::tx2_gpu(), 60, 5)
                .with(Disturbance::GovernorStep { at, ladder_idx: idx })
                .with(Disturbance::LoadSpike { at: at + 5, len: 10, time_factor: factor })
                .with(Disturbance::TimingJitter { amplitude: 0.03 });
            if dropout {
                s = s.with(Disturbance::SensorDropout { at: at + 2, len: 20 });
            }
            let r = run_closed_loop(
                &c,
                0.01,
                &DisturbedDevice::tx2(s),
                &ClosedLoopParams {
                    policy: if avg { Policy::AverageOverTime } else { Policy::EnforceEachInvocation },
                    ..ClosedLoopParams::default()
                },
            );
            prop_assert_eq!(r.trace.len(), 60);
            for t in &r.trace {
                prop_assert!(t.time_s.is_finite() && t.time_s > 0.0, "bad time {t:?}");
                prop_assert!(t.norm_time.is_finite() && t.norm_time > 0.0);
                prop_assert!(t.speedup.is_finite() && t.speedup >= 1.0 - 1e-12);
                // The selected index is always inside the shipped curve.
                prop_assert!(t.selected.is_none_or(|i| i < c.points().len()));
            }
            prop_assert!(r.mean_norm_time.is_finite() && r.mean_qos.is_finite());
            for e in r.log.events() {
                prop_assert!(e.required_speedup.is_finite() && e.required_speedup > 0.0);
            }
        }
    }
}
