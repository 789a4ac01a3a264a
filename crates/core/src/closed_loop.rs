//! Closed-loop run-time adaptation against a disturbed simulated device
//! (§5, evaluated in §6.4).
//!
//! [`run_closed_loop`] drives a program invocation-by-invocation over an
//! `at_hw` [`DisturbedDevice`] with the run-time controller every serving
//! replica runs: before each invocation it reads the frequency sensor and
//! re-estimates the *required speedup*, the [`RuntimeTuner`] re-selects a
//! configuration from the shipped tradeoff curve under the chosen
//! [`Policy`], and after it the invocation's slowdown is fed back.
//!
//! The required speedup is `clock × feedback`:
//!
//! * **Feed-forward** — the sensed clock (nominal ÷ sensed MHz) moves the
//!   selection on the invocation a DVFS governor steps, before it runs.
//!   This is why Policy 1 holds the per-invocation target at every step of
//!   the §6.4 sweep. While the sensors are dark the clock holds its last
//!   reading.
//! * **Feedback** — a 0.7/0.3 EWMA of the slowdown the clock cannot explain
//!   (co-running load, or any disturbance during a sensor dropout),
//!   re-anchored only when it leaves a ±10 % dead-band, so noise never
//!   thrashes switches.
//!
//! A lone invocation is the serving controller at backlog 1 draining within
//! its own baseline time, so the serving pressure term is exactly 1.
//!
//! Degradation is graceful by construction: when the required speedup
//! exceeds every curve point, selection clamps to the fastest point and a
//! [`EventKind::QosFloorBreach`] transition is recorded in the
//! [`AdaptationLog`] — never a panic, including on empty or one-point
//! curves and under total sensor dropout.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::pareto::TradeoffCurve;
pub use crate::replica::Move;
use crate::replica::{sensed_clock, Controller, DEAD_BAND};
use crate::runtime::{Policy, RuntimeTuner};
use at_hw::DisturbedDevice;
use serde::{Deserialize, Serialize};

/// Controller parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopParams {
    /// Configuration-selection policy (§5).
    pub policy: Policy,
    /// Seed for Policy 2's probabilistic mixing.
    pub seed: u64,
    /// QoS of the unapproximated baseline configuration, reported in the
    /// trace when no curve point is selected.
    pub baseline_qos: f64,
}

impl Default for ClosedLoopParams {
    fn default() -> ClosedLoopParams {
        ClosedLoopParams {
            policy: Policy::EnforceEachInvocation,
            seed: 7,
            baseline_qos: 100.0,
        }
    }
}

/// One invocation of the adaptation trace (the data behind the paper's
/// frequency-change figure: clock, selected config, speedup, QoS over
/// time).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceRow {
    /// Invocation index.
    pub invocation: usize,
    /// Sensed clock in MHz (None during sensor dropout).
    pub freq_mhz: Option<f64>,
    /// Sensed system power in W (None during sensor dropout).
    pub power_w: Option<f64>,
    /// Simulated wall time of the invocation, seconds.
    pub time_s: f64,
    /// Time normalised to the baseline invocation time (target ≤ 1).
    pub norm_time: f64,
    /// Speedup of the configuration the invocation ran with.
    pub speedup: f64,
    /// QoS of that configuration (baseline QoS when unapproximated).
    pub qos: f64,
    /// Curve index of the selected point (None = baseline config).
    pub selected: Option<usize>,
}

/// What an [`AdaptationEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The selection moved on the invocation the sensed clock stepped (the
    /// feed-forward path).
    Clock(Move),
    /// The selection moved under an unchanged clock: the feedback anchor
    /// left its dead-band, or Policy 2 re-rolled its mix.
    Feedback(Move),
    /// Graceful degradation: the required speedup first exceeds every
    /// curve point, so selection clamps to the fastest point and the QoS
    /// floor is breached (one event per excursion, never a panic).
    QosFloorBreach,
}

/// One control decision, as recorded for offline analysis.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptationEvent {
    /// Invocation index at which the decision was taken (before it ran).
    pub invocation: usize,
    /// The required total speedup the controller asked for.
    pub required_speedup: f64,
    /// The (qos, perf) of the selected point; None = the baseline.
    pub selected: Option<(f64, f64)>,
    /// What the decision was.
    pub kind: EventKind,
}

/// Every control decision of one run, oldest first.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdaptationLog {
    events: Vec<AdaptationEvent>,
}

impl AdaptationLog {
    /// The recorded events, oldest first.
    pub fn events(&self) -> &[AdaptationEvent] {
        &self.events
    }
}

/// The structured result of one closed-loop run: the full per-invocation
/// trace, the control-decision log, and summary statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClosedLoopReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// Baseline invocation time the target is normalised to, seconds.
    pub baseline_time_s: f64,
    /// Per-invocation trace.
    pub trace: Vec<TraceRow>,
    /// Every control decision (moves and QoS-floor breaches).
    pub log: AdaptationLog,
    /// Total configuration switches (including Policy 2's re-rolls).
    pub switches: usize,
    /// QoS-floor breach transitions.
    pub breaches: usize,
    /// Mean normalised invocation time over the whole run.
    pub mean_norm_time: f64,
    /// Mean QoS over the whole run.
    pub mean_qos: f64,
}

impl ClosedLoopReport {
    /// Serialises the report (the artifact `runtime_adapt` persists).
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(s) => s,
            Err(e) => format!("{{\"error\":\"report serialisation failed: {e}\"}}"),
        }
    }

    /// Fraction of invocations meeting the target within `tol` (e.g.
    /// `0.02` for the 2 % band).
    pub fn target_hit_rate(&self, tol: f64) -> f64 {
        if self.trace.is_empty() {
            return 1.0;
        }
        let hits = self
            .trace
            .iter()
            .filter(|r| r.norm_time <= 1.0 + tol)
            .count();
        hits as f64 / self.trace.len() as f64
    }
}

/// Runs the closed loop over every invocation the device's scenario
/// scripts. `baseline_time_s` is the unapproximated invocation time at
/// nominal conditions; the target is to keep invocations at (or under)
/// that time (§6.4). Never panics, whatever the curve or scenario.
pub fn run_closed_loop(
    curve: &TradeoffCurve,
    baseline_time_s: f64,
    device: &DisturbedDevice,
    params: &ClosedLoopParams,
) -> ClosedLoopReport {
    let baseline = baseline_time_s.max(1e-12);
    let invocations = device.scenario().invocations();
    let mut tuner = RuntimeTuner::new(curve.clone(), params.policy, 1, baseline, params.seed);
    // Backlog 1 against a drain budget of one baseline: pressure 1.
    let mut controller = Controller::new(DEAD_BAND, baseline);
    let mut events = Vec::new();
    let mut trace = Vec::with_capacity(invocations);
    let mut in_breach = false;

    for i in 0..invocations {
        let state = device.state_at(i);
        let (freq_mhz, power_w) = device.sensors(&state);
        let clock = controller.clock;
        let moved = controller.reselect(&mut tuner, sensed_clock(device, &state), baseline, 1);
        let required = controller.required();
        // A breach transition takes precedence over the move it forced.
        let exceeded = required > tuner.max_speedup() * (1.0 + 1e-9) && required > 1.0 + 1e-9;
        let kind = if exceeded && !in_breach {
            Some(EventKind::QosFloorBreach)
        } else if controller.clock != clock {
            moved.map(EventKind::Clock)
        } else {
            moved.map(EventKind::Feedback)
        };
        in_breach = exceeded;
        let point = tuner.current_point();
        if let Some(kind) = kind {
            events.push(AdaptationEvent {
                invocation: i,
                required_speedup: required,
                selected: point.map(|p| (p.qos, p.perf)),
                kind,
            });
        }

        // Run the invocation on the disturbed device and feed its slowdown
        // back.
        let speedup = tuner.current_speedup();
        let time_s = device.invocation_time(&state, baseline, speedup);
        controller.observe(time_s * speedup / baseline);
        trace.push(TraceRow {
            invocation: i,
            freq_mhz,
            power_w,
            time_s,
            norm_time: time_s / baseline,
            speedup,
            qos: point.map_or(params.baseline_qos, |p| p.qos),
            selected: tuner.current_index(),
        });
    }

    let n = trace.len().max(1) as f64;
    let mean_norm_time = trace.iter().map(|r| r.norm_time).sum::<f64>() / n;
    let mean_qos = trace.iter().map(|r| r.qos).sum::<f64>() / n;
    let breaches = events
        .iter()
        .filter(|e| e.kind == EventKind::QosFloorBreach)
        .count();
    ClosedLoopReport {
        scenario: device.scenario().name().to_string(),
        policy: params.policy.name().to_string(),
        baseline_time_s: baseline,
        trace,
        log: AdaptationLog { events },
        switches: tuner.switches,
        breaches,
        mean_norm_time,
        mean_qos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::pareto::TradeoffPoint;
    use at_hw::{Disturbance, FrequencyLadder, Scenario};

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

    fn sweep_device(dwell: usize) -> DisturbedDevice {
        DisturbedDevice::tx2(Scenario::tx2_dvfs_sweep(dwell))
    }

    #[test]
    fn idle_scenario_never_adapts() {
        let s = Scenario::new("idle", FrequencyLadder::tx2_gpu(), 20, 0);
        let r = run_closed_loop(
            &curve(&[1.2, 1.5, 2.0]),
            1.0,
            &DisturbedDevice::tx2(s),
            &ClosedLoopParams::default(),
        );
        assert_eq!(r.switches, 0);
        assert_eq!(r.breaches, 0);
        assert!(r.trace.iter().all(|t| (t.norm_time - 1.0).abs() < 1e-12));
        assert!(r.trace.iter().all(|t| t.selected.is_none()));
    }

    #[test]
    fn feed_forward_switch_lands_on_the_step_boundary() {
        let r = run_closed_loop(
            &curve(&[1.2, 1.5, 2.0, 2.6, 3.3, 4.2]),
            1.0,
            &sweep_device(10),
            &ClosedLoopParams::default(),
        );
        // First governor step is invocation 10; the tuner must react there,
        // not one window later.
        let first = r.log.events().first().expect("an adaptation happened");
        assert_eq!(first.invocation, 10);
        assert_eq!(first.kind, EventKind::Clock(Move::Up));
        assert!(r.trace[10].norm_time <= 1.0 + 1e-9, "step-boundary miss");
    }

    #[test]
    fn empty_curve_degrades_without_panicking() {
        let r = run_closed_loop(
            &TradeoffCurve::default(),
            1.0,
            &sweep_device(5),
            &ClosedLoopParams::default(),
        );
        assert_eq!(r.switches, 0);
        assert!(r.breaches >= 1, "breach must be recorded");
        assert!(r
            .trace
            .iter()
            .all(|t| t.time_s.is_finite() && t.time_s > 0.0));
        // Unaided, times grow like the slowdown.
        assert!(r.trace.last().unwrap().norm_time > 3.5);
    }

    #[test]
    fn load_spike_is_handled_by_feedback_only() {
        let s = Scenario::new("spike", FrequencyLadder::tx2_gpu(), 60, 0).with(
            Disturbance::LoadSpike {
                at: 20,
                len: 30,
                time_factor: 1.8,
            },
        );
        let r = run_closed_loop(
            &curve(&[1.2, 1.5, 2.0, 2.6]),
            1.0,
            &DisturbedDevice::tx2(s),
            &ClosedLoopParams::default(),
        );
        // The spike is invisible to the frequency sensor, so the log must
        // contain a feedback event and the loop must recover the target.
        assert!(r
            .log
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Feedback(_))));
        let during: Vec<&TraceRow> = r.trace.iter().filter(|t| t.invocation >= 30).collect();
        let hit = during
            .iter()
            .filter(|t| t.norm_time <= 1.02 && t.invocation < 50)
            .count();
        assert!(hit > 10, "feedback never recovered the target");
    }

    #[test]
    fn log_roundtrip() {
        let event = |invocation, selected, kind| AdaptationEvent {
            invocation,
            required_speedup: 1.5,
            selected,
            kind,
        };
        let log = AdaptationLog {
            events: vec![
                event(10, None, EventKind::Feedback(Move::Down)),
                event(20, Some((88.0, 1.5)), EventKind::Clock(Move::Up)),
                event(30, Some((86.0, 2.0)), EventKind::QosFloorBreach),
            ],
        };
        let json = serde_json::to_string_pretty(&log).unwrap();
        let back: AdaptationLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events().len(), 3);
        assert_eq!(back.events()[1].selected, Some((88.0, 1.5)));
        assert_eq!(back.events()[0].kind, EventKind::Feedback(Move::Down));
        assert_eq!(back.events()[1].kind, EventKind::Clock(Move::Up));
        assert_eq!(back.events()[2].kind, EventKind::QosFloorBreach);
    }
}
