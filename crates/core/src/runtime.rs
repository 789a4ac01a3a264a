//! Run-time approximation tuning (§5).
//!
//! The dynamic tuner picks a configuration from the shipped tradeoff curve
//! for a required speedup ([`RuntimeTuner::adapt_to`]). The run-time
//! controller that computes that speedup from the sensed clock, the
//! observed slowdown and the backlog drives it for every serving replica
//! and for [`crate::closed_loop`]. ([`RuntimeTuner::record_invocation`]
//! is an older self-contained entry point: a sliding window of measured
//! invocation times with a fixed 2 % hysteresis.) Selection follows one of
//! two policies:
//!
//! * **Policy 1 — enforce the required speedup in each invocation**: the
//!   smallest curve point with performance ≥ the target (`O(log |PS|)`
//!   binary search).
//! * **Policy 2 — achieve the average target performance over time**:
//!   probabilistically mixes the two bracketing points with probabilities
//!   `p1·Perf1 + p2·Perf2 = PerfT` (as in Zhu et al. \[67\]).
//!
//! Because every approximation knob is just a numeric parameter of the
//! tensor ops, switching configurations costs nothing beyond changing the
//! parameter values.

use crate::pareto::{TradeoffCurve, TradeoffPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Configuration-selection policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Enforce the required speedup in every invocation (real-time
    /// friendly).
    EnforceEachInvocation,
    /// Achieve the target on average by probabilistic mixing (throughput
    /// friendly).
    AverageOverTime,
}

impl Policy {
    /// Stable display name (used in reports and JSON artifacts).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Policy::EnforceEachInvocation => "enforce-each-invocation",
            Policy::AverageOverTime => "average-over-time",
        }
    }
}

/// The dynamic tuner.
pub struct RuntimeTuner {
    curve: TradeoffCurve,
    policy: Policy,
    window: VecDeque<f64>,
    window_size: usize,
    /// Baseline (no-approximation, nominal-frequency) invocation time, and
    /// the performance target.
    baseline_time_s: f64,
    rng: StdRng,
    /// Index of the currently selected curve point (None = baseline).
    current: Option<usize>,
    /// Curve indices still selectable, ascending — every index until
    /// [`RuntimeTuner::quarantine`] removes it. Selection runs over this
    /// list as if the quarantined points had left the curve, while indices
    /// stay stable for event logs and reports.
    active: Vec<usize>,
    /// Count of configuration switches (for overhead accounting).
    pub switches: usize,
}

impl RuntimeTuner {
    /// Creates a tuner over a shipped curve.
    ///
    /// `baseline_time_s` is the invocation time of the unapproximated
    /// program at the highest frequency; the performance target is to keep
    /// invocations at (or under) that time (§6.4).
    pub fn new(
        curve: TradeoffCurve,
        policy: Policy,
        window_size: usize,
        baseline_time_s: f64,
        seed: u64,
    ) -> RuntimeTuner {
        assert!(window_size > 0, "window must hold at least one invocation");
        let n = curve.len();
        RuntimeTuner {
            curve,
            policy,
            window: VecDeque::with_capacity(window_size),
            window_size,
            baseline_time_s,
            rng: StdRng::seed_from_u64(seed),
            current: None,
            active: (0..n).collect(),
            switches: 0,
        }
    }

    /// The currently selected tradeoff point (None = baseline config).
    pub fn current_point(&self) -> Option<&TradeoffPoint> {
        self.current.map(|i| &self.curve.points()[i])
    }

    /// Index of the current point on the curve (None = baseline config).
    pub fn current_index(&self) -> Option<usize> {
        self.current
    }

    /// The shipped curve the tuner selects from.
    pub(crate) fn curve(&self) -> &TradeoffCurve {
        &self.curve
    }

    /// The highest speedup any curve point delivers (1.0 for an empty
    /// curve): beyond this, the performance target cannot be met and
    /// selection clamps to the fastest point.
    pub fn max_speedup(&self) -> f64 {
        self.curve
            .points()
            .iter()
            .map(|p| p.perf)
            .fold(1.0, f64::max)
    }

    /// Removes a curve point from the selectable range (the QoS guard's
    /// curve quarantine, [`crate::guard`]). Indices stay stable — the point
    /// remains visible through [`RuntimeTuner::curve`] — but selection
    /// skips it. If the quarantined point is currently selected, the tuner
    /// immediately falls back to the exact baseline (the safe direction)
    /// until the next selection decision. Returns `false` for out-of-range
    /// or already-quarantined indices.
    pub(crate) fn quarantine(&mut self, index: usize) -> bool {
        let Ok(pos) = self.active.binary_search(&index) else {
            return false;
        };
        self.active.remove(pos);
        if self.current == Some(index) {
            self.fall_back_to_exact();
        }
        true
    }

    /// Whether a point has been quarantined.
    pub(crate) fn is_quarantined(&self, index: usize) -> bool {
        index < self.curve.len() && self.active.binary_search(&index).is_err()
    }

    /// Number of points still selectable.
    pub(crate) fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Returns to the exact baseline, counting a switch when that moves the
    /// selection.
    fn fall_back_to_exact(&mut self) {
        if self.current.take().is_some() {
            self.switches += 1;
        }
    }

    /// Repairs a curve point's QoS promise in place to an observed
    /// estimate, so every later consumer of [`RuntimeTuner::curve`] (the
    /// degradation ladder, the closed loop, reports, the shipped-artifact
    /// round-trip) plans against honest numbers. Rejects non-finite
    /// estimates (returns `false`).
    pub(crate) fn repair_qos(&mut self, index: usize, observed_qos: f64) -> bool {
        self.curve.repair_qos(index, observed_qos)
    }

    /// Feed-forward entry point: re-selects a configuration for an
    /// externally computed required speedup (e.g. from a sensed DVFS
    /// transition, before the next invocation runs) instead of waiting for
    /// the sliding window to observe the slowdown. Policy 2 re-rolls its
    /// probabilistic mix on every call, which is how the average target is
    /// met over time. Returns the new point when the selection changed.
    pub fn adapt_to(&mut self, required_speedup: f64) -> Option<&TradeoffPoint> {
        self.select_for_speedup(required_speedup)
    }

    /// The speedup of the current configuration relative to baseline.
    pub fn current_speedup(&self) -> f64 {
        self.current_point().map_or(1.0, |p| p.perf)
    }

    /// Records one invocation's measured time and, if the sliding-window
    /// average misses the target, re-selects a configuration. Returns the
    /// new point when a switch happened.
    pub fn record_invocation(&mut self, time_s: f64) -> Option<&TradeoffPoint> {
        self.window.push_back(time_s);
        if self.window.len() > self.window_size {
            self.window.pop_front();
        }
        if self.window.len() < self.window_size {
            return None;
        }
        let avg = self.window.iter().sum::<f64>() / self.window.len() as f64;
        // Within 2% of target: leave the configuration alone (hysteresis).
        if avg <= self.baseline_time_s * 1.02 && avg >= self.baseline_time_s * 0.7 {
            return None;
        }
        // The measured time reflects the current config's speedup; the
        // *environment slowdown* is what remains. Required total speedup to
        // hit the target, which is the baseline time itself (written out as
        // slowdown × baseline ÷ target: in floating point that is not
        // always the slowdown, and selections depend on the rounding):
        let env_slowdown = avg * self.current_speedup() / self.baseline_time_s;
        let required = env_slowdown * self.baseline_time_s / self.baseline_time_s;
        self.select_for_speedup(required)
    }

    /// Picks a configuration achieving `required` speedup under the policy.
    /// Selection runs over the non-quarantined points only; with every
    /// point quarantined it clamps to the exact baseline (the guard's
    /// exact-fallback safety net) instead of picking a distrusted config.
    fn select_for_speedup(&mut self, required: f64) -> Option<&TradeoffPoint> {
        // Environment recovered, or an empty (or fully quarantined) curve:
        // the exact baseline.
        if required <= 1.0 || self.active.is_empty() {
            self.fall_back_to_exact();
            return None;
        }
        let pts = self.curve.points();
        let active = &self.active;
        // Position of the first active point meeting the target (active is
        // sorted by performance because the curve is).
        let i = active.partition_point(|&j| pts[j].perf < required);
        let idx = match self.policy {
            Policy::EnforceEachInvocation => Some(active[i.min(active.len() - 1)]),
            Policy::AverageOverTime => {
                if i == 0 {
                    Some(active[0])
                } else if i >= active.len() {
                    Some(active[active.len() - 1])
                } else {
                    // Mix the bracketing points.
                    let (lo, hi) = (active[i - 1], active[i]);
                    let (p_lo, _) = policy2_probabilities(pts[lo].perf, pts[hi].perf, required);
                    Some(if self.rng.gen_bool(p_lo) { lo } else { hi })
                }
            }
        };
        if idx != self.current {
            self.current = idx;
            self.switches += 1;
            self.current_point()
        } else {
            None
        }
    }
}

/// Computes Policy 2's mixing probabilities for a target between two
/// performance points: returns `(p_lo, p_hi)` with
/// `p_lo·perf_lo + p_hi·perf_hi = target`.
pub fn policy2_probabilities(perf_lo: f64, perf_hi: f64, target: f64) -> (f64, f64) {
    if (perf_hi - perf_lo).abs() < 1e-12 {
        return (1.0, 0.0);
    }
    let p_lo = ((perf_hi - target) / (perf_hi - perf_lo)).clamp(0.0, 1.0);
    (p_lo, 1.0 - p_lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

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

    #[test]
    fn paper_example_probabilities() {
        // "if PerfT = 1.3x and the closest points provide 1.2x and 1.5x
        // speedup, these two configurations are randomly selected with
        // respective probabilities 2/3 and 1/3".
        let (p_lo, p_hi) = policy2_probabilities(1.2, 1.5, 1.3);
        assert!((p_lo - 2.0 / 3.0).abs() < 1e-9);
        assert!((p_hi - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_switch_while_on_target() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 3, 1.0, 1);
        for _ in 0..10 {
            assert!(t.record_invocation(1.0).is_none());
        }
        assert_eq!(t.switches, 0);
        assert!(t.current_point().is_none());
    }

    #[test]
    fn policy1_picks_sufficient_speedup() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 2, 1.0, 1);
        // Environment slows invocations to 1.6x the target.
        t.record_invocation(1.6);
        let switched = t.record_invocation(1.6);
        assert!(switched.is_some());
        // Required speedup 1.6 → the 1.8x point.
        assert!((t.current_speedup() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn policy1_saturates_at_fastest_point() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        t.record_invocation(10.0);
        assert!((t.current_speedup() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn policy2_mixes_bracketing_points() {
        let mut lo_count = 0;
        let mut hi_count = 0;
        for seed in 0..200 {
            let mut t = RuntimeTuner::new(curve(), Policy::AverageOverTime, 1, 1.0, seed);
            t.record_invocation(1.3); // required speedup 1.3 ∈ (1.2, 1.5)
            let s = t.current_speedup();
            if (s - 1.2).abs() < 1e-9 {
                lo_count += 1;
            } else if (s - 1.5).abs() < 1e-9 {
                hi_count += 1;
            } else {
                panic!("unexpected speedup {s}");
            }
        }
        // Expect roughly 2:1 split (paper example).
        let frac = lo_count as f64 / (lo_count + hi_count) as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.12, "lo fraction {frac}");
    }

    #[test]
    fn recovers_to_baseline_when_environment_recovers() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        t.record_invocation(2.0);
        assert!(t.current_point().is_some());
        // Fast again (approximations make invocations shorter than target):
        // measured time = baseline/current speedup ≈ 0.45 → env recovered.
        t.record_invocation(0.45);
        assert!(t.current_point().is_none(), "should fall back to baseline");
    }

    #[test]
    fn switch_counter_tracks_changes() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        t.record_invocation(1.6);
        let after_first = t.switches;
        // Same conditions → same pick → no extra switch.
        t.record_invocation(1.6 / 1.8);
        assert_eq!(t.switches, after_first);
    }

    #[test]
    fn quarantine_masks_selection_and_skips_to_next_point() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        // Required 1.6 normally selects the 1.8x point (index 2).
        t.adapt_to(1.6);
        assert_eq!(t.current_index(), Some(2));
        // Quarantine it: selection for the same target skips to 2.2x.
        assert!(t.quarantine(2));
        assert_eq!(t.current_index(), None, "quarantine clears the selection");
        t.adapt_to(1.6);
        assert_eq!(t.current_index(), Some(3));
        assert!((t.current_speedup() - 2.2).abs() < 1e-9);
        // Idempotent and bounds-safe.
        assert!(!t.quarantine(2), "double quarantine is a no-op");
        assert!(!t.quarantine(99), "out of range is a no-op");
        assert!(t.is_quarantined(2));
        assert!(!t.is_quarantined(3));
        assert!(!t.is_quarantined(0) && !t.is_quarantined(1));
        assert_eq!(t.active_len(), 3);
    }

    #[test]
    fn fully_quarantined_curve_clamps_to_exact() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        for i in 0..4 {
            assert!(t.quarantine(i));
        }
        assert_eq!(t.active_len(), 0);
        t.adapt_to(2.0);
        assert_eq!(t.current_index(), None, "exact fallback, never a panic");
        assert!((t.current_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn policy2_mixes_over_surviving_points_only() {
        // With index 1 (1.5x) quarantined, a 1.3 target brackets between
        // 1.2x and 1.8x; the tuner must never pick the quarantined point.
        for seed in 0..100 {
            let mut t = RuntimeTuner::new(curve(), Policy::AverageOverTime, 1, 1.0, seed);
            assert!(t.quarantine(1));
            t.record_invocation(1.3);
            assert_ne!(t.current_index(), Some(1), "seed {seed} picked quarantined");
            let s = t.current_speedup();
            assert!(
                (s - 1.2).abs() < 1e-9 || (s - 1.8).abs() < 1e-9,
                "seed {seed}: unexpected speedup {s}"
            );
        }
    }

    #[test]
    fn repair_updates_curve_promise_in_place() {
        let mut t = RuntimeTuner::new(curve(), Policy::EnforceEachInvocation, 1, 1.0, 1);
        assert!(t.repair_qos(1, 83.25));
        assert!((t.curve().points()[1].qos - 83.25).abs() < 1e-12);
        // Perf ordering untouched; non-finite and out-of-range rejected.
        assert!((t.curve().points()[1].perf - 1.5).abs() < 1e-12);
        assert!(!t.repair_qos(1, f64::NAN));
        assert!(!t.repair_qos(99, 80.0));
        assert!((t.curve().points()[1].qos - 83.25).abs() < 1e-12);
    }
}
