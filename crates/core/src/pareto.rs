//! Tradeoff points, Pareto sets and tradeoff curves (§2.1, Eqns 1–2).

use crate::config::Config;
use serde::{Deserialize, Serialize};

/// A tradeoff point: `(QoS, Perf, config)` (§2.1). Higher is better for
/// both coordinates (Perf is a speedup relative to the baseline).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Quality of service (e.g. classification accuracy in %, or PSNR dB).
    pub qos: f64,
    /// Performance: speedup (or energy-reduction factor) vs the baseline.
    pub perf: f64,
    /// The configuration achieving it.
    pub config: Config,
}

impl TradeoffPoint {
    /// Dominance `self ≼ other`: other has both QoS and Perf at least as
    /// high (§2.1).
    pub fn dominated_by(&self, other: &TradeoffPoint) -> bool {
        self.qos <= other.qos && self.perf <= other.perf
    }

    /// Strict dominance `self ≺ other`.
    pub fn strictly_dominated_by(&self, other: &TradeoffPoint) -> bool {
        self.dominated_by(other) && (self.qos < other.qos || self.perf < other.perf)
    }

    /// Euclidean distance in the (QoS, Perf) plane, used by the relaxed
    /// curve `PS_ε`.
    pub(crate) fn dist(&self, other: &TradeoffPoint) -> f64 {
        ((self.qos - other.qos).powi(2) + (self.perf - other.perf).powi(2)).sqrt()
    }
}

/// Eqn 1: the Pareto set of `points` — every point not strictly dominated
/// by another.
pub fn pareto_set(points: &[TradeoffPoint]) -> Vec<TradeoffPoint> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| p.strictly_dominated_by(q)))
        .cloned()
        .collect()
}

/// Eqn 2: the relaxed Pareto set `PS_ε` — points within Euclidean distance
/// `eps` of some Pareto point.
pub fn pareto_set_eps(points: &[TradeoffPoint], eps: f64) -> Vec<TradeoffPoint> {
    let ps = pareto_set(points);
    points
        .iter()
        .filter(|p| ps.iter().any(|s| p.dist(s) <= eps))
        .cloned()
        .collect()
}

/// Chooses the smallest `ε` (from a coarse sweep) such that `PS_ε` retains
/// at most `max_points` configurations — the paper's per-benchmark ε
/// selection ("these distance thresholds … are computed per benchmark to
/// limit the maximum number of configurations validated and shipped",
/// §6.4). When even the strict Pareto set exceeds the budget, ε = 0 is
/// returned and callers should additionally [`cap_points`].
pub(crate) fn eps_for_budget(points: &[TradeoffPoint], max_points: usize) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    // Sweep ε downward from a generous bound until the budget holds.
    let span = points
        .iter()
        .map(|p| p.qos.abs().max(p.perf.abs()))
        .fold(0.0f64, f64::max)
        .max(1.0);
    let mut eps = span;
    for _ in 0..40 {
        if pareto_set_eps(points, eps).len() <= max_points {
            return eps;
        }
        eps *= 0.7;
    }
    0.0
}

/// Evenly subsamples `points` along the performance axis down to
/// `max_points` (keeping the endpoints), used when the Pareto set itself
/// exceeds the validation/shipping budget.
pub fn cap_points(mut points: Vec<TradeoffPoint>, max_points: usize) -> Vec<TradeoffPoint> {
    if points.len() <= max_points || max_points == 0 {
        return points;
    }
    points.sort_by(|a, b| a.perf.total_cmp(&b.perf));
    let n = points.len();
    (0..max_points)
        .map(|i| {
            let idx = if max_points == 1 {
                0
            } else {
                i * (n - 1) / (max_points - 1)
            };
            points[idx].clone()
        })
        .collect()
}

/// Sorts points into the curve invariant: *strictly* increasing
/// performance. Exact performance ties keep only the highest-QoS point —
/// the runtime's index arithmetic over the curve assumes strict ordering,
/// so the invariant is enforced where curves are built (and re-checked
/// where shipped artifacts are loaded, [`crate::ship`]). `total_cmp` keeps
/// the sort panic-free even if a NaN slips in; validation rejects it later.
fn sort_strict(mut points: Vec<TradeoffPoint>) -> Vec<TradeoffPoint> {
    points.sort_by(|a, b| a.perf.total_cmp(&b.perf).then(b.qos.total_cmp(&a.qos)));
    points.dedup_by(|a, b| a.perf == b.perf);
    points
}

/// The tradeoff curve shipped with the program binary: Pareto points
/// sorted by increasing performance, serialisable to JSON.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct TradeoffCurve {
    points: Vec<TradeoffPoint>,
}

impl TradeoffCurve {
    /// Builds a curve from arbitrary points: keeps the Pareto subset and
    /// sorts by performance.
    pub fn from_points(points: Vec<TradeoffPoint>) -> TradeoffCurve {
        TradeoffCurve {
            points: sort_strict(pareto_set(&points)),
        }
    }

    /// Builds a relaxed curve `PS_ε` (still sorted by performance; used for
    /// the development-time curve that is shipped, §2.2).
    pub(crate) fn from_points_eps(points: Vec<TradeoffPoint>, eps: f64) -> TradeoffCurve {
        TradeoffCurve {
            points: sort_strict(pareto_set_eps(&points, eps)),
        }
    }

    /// The points, sorted by increasing performance.
    pub fn points(&self) -> &[TradeoffPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the curve is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The highest-performance point with `qos >= min_qos`, if any — the
    /// static pre-run selection.
    pub fn best_under_qos(&self, min_qos: f64) -> Option<&TradeoffPoint> {
        self.points
            .iter()
            .filter(|p| p.qos >= min_qos)
            .max_by(|a, b| a.perf.total_cmp(&b.perf))
    }

    /// Repairs one point's QoS promise in place to an observed estimate
    /// (the run-time guard's "online curve repair", [`crate::guard`]).
    /// Performance ordering is untouched, so the curve invariant holds by
    /// construction. Rejects non-finite estimates and out-of-range indices
    /// (returns `false`) instead of poisoning the curve.
    pub(crate) fn repair_qos(&mut self, index: usize, observed_qos: f64) -> bool {
        if !observed_qos.is_finite() {
            return false;
        }
        match self.points.get_mut(index) {
            Some(p) => {
                p.qos = observed_qos;
                true
            }
            None => false,
        }
    }

    /// Serialises the curve to JSON (the artifact "shipped with the
    /// application binary").
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("curve serialises")
    }

    /// Deserialises a shipped curve.
    pub fn from_json(s: &str) -> Result<TradeoffCurve, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(qos: f64, perf: f64) -> TradeoffPoint {
        TradeoffPoint {
            qos,
            perf,
            config: Config::from_knobs(vec![]),
        }
    }

    #[test]
    fn pareto_removes_dominated() {
        let pts = vec![pt(90.0, 1.0), pt(85.0, 2.0), pt(80.0, 1.5), pt(70.0, 3.0)];
        let ps = pareto_set(&pts);
        // (80,1.5) is dominated by (85,2.0).
        assert_eq!(ps.len(), 3);
        assert!(!ps.iter().any(|p| p.qos == 80.0));
    }

    #[test]
    fn pareto_keeps_duplicates_of_frontier() {
        let pts = vec![pt(90.0, 1.0), pt(90.0, 1.0)];
        assert_eq!(pareto_set(&pts).len(), 2); // equal points don't strictly dominate
    }

    #[test]
    fn eps_relaxation_monotone() {
        let pts: Vec<_> = (0..20)
            .map(|i| pt(90.0 - i as f64, 1.0 + 0.1 * i as f64))
            .chain((0..20).map(|i| pt(89.0 - i as f64, 1.0 + 0.1 * i as f64)))
            .collect();
        let strict = pareto_set(&pts).len();
        let relaxed = pareto_set_eps(&pts, 1.0).len();
        let more_relaxed = pareto_set_eps(&pts, 5.0).len();
        assert!(strict <= relaxed && relaxed <= more_relaxed);
        assert_eq!(pareto_set_eps(&pts, 0.0).len(), strict);
    }

    #[test]
    fn eps_budget_limits_size() {
        let pts: Vec<_> = (0..500)
            .map(|i| pt(90.0 - 0.01 * i as f64, 1.0 + 0.001 * i as f64))
            .collect();
        let eps = eps_for_budget(&pts, 50);
        let kept = cap_points(pareto_set_eps(&pts, eps), 50);
        assert!(kept.len() <= 50);
        assert!(!kept.is_empty());
        // Endpoints of the perf range survive the cap.
        let perfs: Vec<f64> = kept.iter().map(|p| p.perf).collect();
        assert!((perfs[0] - 1.0).abs() < 1e-9);
        assert!((perfs.last().unwrap() - 1.499).abs() < 1e-9);
    }

    #[test]
    fn curve_sorted_and_queried() {
        let curve = TradeoffCurve::from_points(vec![
            pt(90.0, 1.0),
            pt(88.0, 1.5),
            pt(85.0, 2.0),
            pt(80.0, 2.6),
        ]);
        assert_eq!(curve.len(), 4);
        // Static selection under a QoS bound.
        assert_eq!(curve.best_under_qos(84.0).unwrap().perf, 2.0);
        assert!(curve.best_under_qos(95.0).is_none());
    }

    #[test]
    fn json_roundtrip() {
        let curve = TradeoffCurve::from_points(vec![pt(90.0, 1.0), pt(80.0, 2.0)]);
        let json = curve.to_json();
        let back = TradeoffCurve::from_json(&json).unwrap();
        assert_eq!(back.len(), curve.len());
        assert_eq!(back.points()[0].qos, curve.points()[0].qos);
    }

    #[test]
    fn empty_curve_queries() {
        let curve = TradeoffCurve::default();
        assert!(curve.best_under_qos(0.0).is_none());
    }
}
