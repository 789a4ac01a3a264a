//! The run-time system monitor (§5).
//!
//! "The system can track various metrics (e.g., load, power, and frequency
//! variations) and provide feedback to the dynamic control, which computes
//! a target speedup (and configuration) to maintain the required level of
//! performance."
//!
//! [`SystemMonitor`] aggregates per-invocation measurements — wall time,
//! the clock the device reported, and rail power if available — into the
//! sliding-window statistics the [`crate::runtime::RuntimeTuner`] consumes,
//! and [`AdaptationLog`] records every control decision for offline
//! inspection (the data behind Figure 6's curves).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::pareto::TradeoffPoint;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One invocation's observations.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct InvocationSample {
    /// Wall-clock execution time, seconds.
    pub time_s: f64,
    /// Device clock during the invocation, MHz (if known).
    pub freq_mhz: Option<f64>,
    /// Average system power during the invocation, watts (if measured).
    pub power_w: Option<f64>,
}

/// Sliding-window aggregator over recent invocations.
#[derive(Clone, Debug)]
pub struct SystemMonitor {
    window: VecDeque<InvocationSample>,
    size: usize,
}

impl SystemMonitor {
    /// A monitor over the `size` most recent invocations (the paper uses a
    /// configurable window; the runtime experiments use one batch).
    pub fn new(size: usize) -> SystemMonitor {
        assert!(size > 0, "window must hold at least one invocation");
        SystemMonitor {
            window: VecDeque::with_capacity(size),
            size,
        }
    }

    /// Records one invocation.
    pub fn record(&mut self, sample: InvocationSample) {
        self.window.push_back(sample);
        if self.window.len() > self.size {
            self.window.pop_front();
        }
    }

    /// Whether the window is full (statistics are meaningful).
    pub fn warm(&self) -> bool {
        self.window.len() == self.size
    }

    /// Mean invocation time over the window, if warm.
    pub fn mean_time_s(&self) -> Option<f64> {
        if !self.warm() {
            return None;
        }
        Some(self.window.iter().map(|s| s.time_s).sum::<f64>() / self.window.len() as f64)
    }

    /// Mean power over samples that carried a power reading.
    pub fn mean_power_w(&self) -> Option<f64> {
        let (sum, n) = self
            .window
            .iter()
            .filter_map(|s| s.power_w)
            .fold((0.0, 0usize), |(a, n), p| (a + p, n + 1));
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

/// What kind of control decision an [`AdaptationEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Reactive reselection: the sliding-window statistics missed the
    /// target (load spikes, or any disturbance during sensor dropout).
    Feedback,
    /// Proactive reselection: the frequency sensor reported a clock change
    /// before the invocation ran (the §6.4 DVFS experiments).
    FeedForward,
    /// Graceful degradation: the required speedup exceeds every curve
    /// point, so selection clamped to the fastest point and the QoS floor
    /// is breached (never a panic).
    QosFloorBreach,
}

/// One control decision, as recorded for offline analysis.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptationEvent {
    /// Invocation index at which the decision was taken.
    pub invocation: usize,
    /// Window-mean time that triggered it, seconds (for feed-forward
    /// events: the most recent observation when the sensor fired).
    pub observed_time_s: f64,
    /// The required total speedup computed by the controller.
    pub required_speedup: f64,
    /// The (qos, perf) of the selected point; None = fell back to baseline.
    pub selected: Option<(f64, f64)>,
    /// What triggered the decision.
    pub kind: EventKind,
}

/// Records the dynamic tuner's decisions, one event per control decision,
/// with running totals of switches and QoS-floor breaches.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdaptationLog {
    events: Vec<AdaptationEvent>,
    total_switches: usize,
    total_breaches: usize,
}

impl AdaptationLog {
    /// A fresh log.
    pub(crate) fn new() -> AdaptationLog {
        AdaptationLog::default()
    }

    /// Appends a decision.
    pub(crate) fn push(
        &mut self,
        invocation: usize,
        observed_time_s: f64,
        required_speedup: f64,
        selected: Option<&TradeoffPoint>,
        kind: EventKind,
    ) {
        if kind == EventKind::QosFloorBreach {
            self.total_breaches += 1;
        } else {
            self.total_switches += 1;
        }
        self.events.push(AdaptationEvent {
            invocation,
            observed_time_s,
            required_speedup,
            selected: selected.map(|p| (p.qos, p.perf)),
            kind,
        });
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[AdaptationEvent] {
        &self.events
    }

    /// Number of QoS-floor breaches recorded.
    pub(crate) fn breaches(&self) -> usize {
        self.total_breaches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64, f: f64) -> InvocationSample {
        InvocationSample {
            time_s: t,
            freq_mhz: Some(f),
            power_w: Some(5.0),
        }
    }

    #[test]
    fn window_statistics() {
        let mut m = SystemMonitor::new(3);
        m.record(s(1.0, 1300.0));
        assert!(!m.warm());
        assert_eq!(m.mean_time_s(), None);
        m.record(s(2.0, 1300.0));
        m.record(s(3.0, 1300.0));
        assert!(m.warm());
        assert_eq!(m.mean_time_s(), Some(2.0));
        assert_eq!(m.mean_power_w(), Some(5.0));
        // Window slides.
        m.record(s(5.0, 1300.0));
        assert_eq!(m.mean_time_s(), Some(10.0 / 3.0));
    }

    #[test]
    fn missing_power_handled() {
        let mut m = SystemMonitor::new(2);
        m.record(InvocationSample {
            time_s: 1.0,
            freq_mhz: None,
            power_w: None,
        });
        m.record(InvocationSample {
            time_s: 1.0,
            freq_mhz: None,
            power_w: None,
        });
        assert_eq!(m.mean_power_w(), None);
    }

    #[test]
    fn log_roundtrip() {
        let mut log = AdaptationLog::new();
        log.push(10, 1.5, 1.5, None, EventKind::Feedback);
        log.push(
            20,
            1.2,
            1.2,
            Some(&TradeoffPoint {
                qos: 88.0,
                perf: 1.5,
                config: crate::config::Config::from_knobs(vec![]),
            }),
            EventKind::FeedForward,
        );
        log.push(30, 4.2, 5.0, None, EventKind::QosFloorBreach);
        assert_eq!(log.total_switches, 2);
        assert_eq!(log.breaches(), 1);
        let json = serde_json::to_string_pretty(&log).unwrap();
        let back: AdaptationLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events().len(), 3);
        assert_eq!(back.events()[1].selected, Some((88.0, 1.5)));
        assert_eq!(back.events()[1].kind, EventKind::FeedForward);
        assert_eq!(back.events()[2].kind, EventKind::QosFloorBreach);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = SystemMonitor::new(0);
    }
}
