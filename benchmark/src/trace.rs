//! In-memory span recorder wrapped around the benchmark's calls into the
//! program. Spans are recorded from the benchmark's own files only (tracing
//! inside the program is a later change), kept in memory, and written out
//! when the run ends. A disabled tracer records nothing, so the untraced
//! passes pay one branch per call.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `layer` is the module the time is attributed to;
/// `pass` is the identifier shared by all spans of one pass of a workload.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub workload: &'static str,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    pass: u32,
    epoch: Instant,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            enabled: false,
            workload,
            pass: 0,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: &'static str, name: String, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            workload: self.workload,
            pass: self.pass,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.push(layer, name.to_string(), now, now);
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in LIFO order.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        debug_assert_eq!(
            self.stack.last(),
            Some(&id),
            "spans must close in LIFO order"
        );
        self.stack.retain(|&s| s != id);
        self.spans[id as usize].end_ns = now;
    }

    /// Records child intervals the program itself measured inside the
    /// innermost open span (per-node kernel times, the tuner's own phase
    /// timers), laid end to end from that span's start. The benchmark
    /// cannot observe when they really began; only their durations are
    /// the program's.
    pub fn children_from_durations(&mut self, parts: &[(&'static str, &str, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let mut cursor = self.spans[parent as usize].start_ns;
        for &(layer, name, seconds) in parts {
            let dur = (seconds.max(0.0) * 1e9) as u64;
            self.push(layer, name.to_string(), cursor, cursor + dur);
            cursor += dur;
        }
    }
}

/// Self time per span id: the span's duration minus the part of it its
/// direct children cover, never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // Only the part of the child inside the parent counts.
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            child_sum[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, &c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
        .collect()
}

/// Self time in seconds summed per layer.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Total wall seconds covered by root spans (spans with no parent).
pub fn root_wall_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: String::new(),
            workload: "t",
            pass: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 50, 90),
            span(3, Some(2), "a", 55, 65),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let by_layer = layer_self_s(&spans);
        assert!((by_layer["a"] - 40e-9).abs() < 1e-15);
        // Self times of a tree add up to its root's duration.
        let total: f64 = by_layer.values().sum();
        assert!((total - root_wall_s(&spans)).abs() < 1e-15);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Program-reported child durations can exceed the parent's wall
        // (timer skew); the overhang is clipped, not subtracted.
        let spans = vec![
            span(0, None, "p", 0, 100),
            span(1, Some(0), "c", 0, 80),
            span(2, Some(0), "c", 80, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 80, 50]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("t");
        let o = t.enter("a", "x");
        t.children_from_durations(&[("b", "y", 1.0)]);
        t.exit(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enter_exit_nest_and_synthetic_children_attach() {
        let mut t = Tracer::new("t");
        t.set_enabled(true);
        let outer = t.enter("a", "outer");
        let inner = t.enter("b", "inner");
        t.children_from_durations(&[("c", "n0", 1e-6), ("c", "n1", 2e-6)]);
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
