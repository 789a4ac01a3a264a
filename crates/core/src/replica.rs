//! The replica engine: the per-replica serving mechanisms behind the one
//! serving loop ([`crate::fleet`], of which [`crate::serve`] is the
//! 1-replica × 1-tenant projection) and of the closed loop
//! ([`crate::closed_loop`]), each implemented exactly once — the circuit
//! breaker state machine, the run-time [`Controller`], the capped event
//! ring, the latency summary, the guard's floor pre-mask and canary
//! conviction, the service draw (device state → watchdog → executor →
//! shadow canary), the completion classifier and the queued / in-flight
//! request pair.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::chaos::InjectedFlip;
use crate::guard::{fails_floor, GuardVerdict, QosGuard};
use crate::pareto::TradeoffCurve;
use crate::runtime::{Policy, RuntimeTuner};
use crate::serve::{BreakerState, RequestExecutor, RequestOutcome, ServeParams};
use at_hw::{DeviceState, DisturbedDevice};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// What one completion did to a [`Breaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerTransition {
    /// Tripped open, from `Closed` after `failures` consecutive failures or
    /// from `HalfOpen` on a failed probe (`failures == 1`). The caller owns
    /// the queue and flushes it.
    Tripped {
        /// Consecutive failures that caused the trip.
        failures: usize,
    },
    /// Every half-open probe succeeded; the breaker closed.
    Closed,
}

/// One replica's circuit breaker: trip on consecutive failures, cool down,
/// half-open with a bounded probe budget, close when every probe succeeds.
pub(crate) struct Breaker {
    state: BreakerState,
    consecutive_failures: usize,
    open_until: f64,
    probes_admitted: usize,
    probe_successes: usize,
    trip_at: usize,
    probes_needed: usize,
    cooldown_s: f64,
}

impl Breaker {
    /// A closed breaker with `p`'s threshold, cooldown and probe budget.
    pub(crate) fn new(p: &ServeParams) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: 0.0,
            probes_admitted: 0,
            probe_successes: 0,
            trip_at: p.breaker_threshold.max(1),
            probes_needed: p.half_open_probes.max(1),
            cooldown_s: p.cooldown_s.max(0.0),
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether new work may be admitted: closed, or half-open with probe
    /// budget left.
    pub(crate) fn admits(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => self.probes_admitted < self.probes_needed,
            BreakerState::Open => false,
        }
    }

    /// Accounts one admitted request; while half-open it spends a probe.
    pub(crate) fn note_admitted(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_admitted += 1;
        }
    }

    /// Clock tick: an open breaker whose cooldown has elapsed half-opens
    /// with a fresh probe budget. Returns whether it did.
    pub(crate) fn tick(&mut self, now: f64) -> bool {
        let elapsed = self.state == BreakerState::Open && now >= self.open_until;
        if elapsed {
            self.state = BreakerState::HalfOpen;
            self.probes_admitted = 0;
            self.probe_successes = 0;
        }
        elapsed
    }

    /// Feeds one completion (`failure` = deadline blowout, executor fault or
    /// watchdog stall) into the state machine.
    pub(crate) fn on_result(&mut self, failure: bool, now: f64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed if !failure => {
                self.consecutive_failures = 0;
                return None;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures < self.trip_at {
                    return None;
                }
            }
            BreakerState::HalfOpen if !failure => {
                self.probe_successes += 1;
                if self.probe_successes < self.probes_needed {
                    return None;
                }
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
                return Some(BreakerTransition::Closed);
            }
            BreakerState::HalfOpen => self.consecutive_failures = 1,
            BreakerState::Open => return None,
        }
        self.state = BreakerState::Open;
        self.open_until = now + self.cooldown_s;
        Some(BreakerTransition::Tripped {
            failures: self.consecutive_failures,
        })
    }

    /// Warm restart after a crash: state, failure streak and cooldown carry
    /// over; probe accounting starts fresh.
    pub(crate) fn restart(&mut self) {
        self.probes_admitted = 0;
        self.probe_successes = 0;
    }
}

// ---------------------------------------------------------------------------
// Event ring and latency summary
// ---------------------------------------------------------------------------

/// A capped event log: keeps the most recent `limit` events and counts what
/// the cap dropped. The fleet's log and every guard's are rings of
/// [`crate::serve::EVENT_LIMIT`] events.
#[derive(Clone, Debug)]
pub(crate) struct EventRing<E> {
    events: VecDeque<E>,
    limit: usize,
    evicted: usize,
}

impl<E> EventRing<E> {
    pub(crate) fn new(limit: usize) -> EventRing<E> {
        EventRing {
            events: VecDeque::new(),
            limit,
            evicted: 0,
        }
    }

    pub(crate) fn push(&mut self, event: E) {
        self.events.push_back(event);
        while self.events.len() > self.limit {
            self.events.pop_front();
            self.evicted += 1;
        }
    }

    /// The retained events, oldest first, and the eviction count.
    pub(crate) fn into_parts(self) -> (Vec<E>, usize) {
        (self.events.into(), self.evicted)
    }
}

/// Arithmetic mean in slice order; 0 when empty.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sorts `latencies` and returns `(mean, p99)`, the p99 being the sample at
/// index `ceil(0.99·n) − 1`; `(0, 0)` when empty. A full sort on purpose:
/// the mean is summed in ascending order and pinned bit for bit, which a
/// selection or a histogram would not reproduce. Keys that compare equal
/// under `total_cmp` are bit-equal, so the unstable sort yields the same
/// sequence as a stable one.
pub(crate) fn latency_summary(latencies: &mut [f64]) -> (f64, f64) {
    latencies.sort_unstable_by(f64::total_cmp);
    let n = latencies.len();
    let idx = ((n as f64 * 0.99).ceil() as usize).saturating_sub(1);
    (mean(latencies), latencies.get(idx).copied().unwrap_or(0.0))
}

// ---------------------------------------------------------------------------
// Run-time controller
// ---------------------------------------------------------------------------

/// The default ± dead-band of the [`Controller`] ([`ServeParams::dead_band`]
/// and the closed loop's band).
pub(crate) const DEAD_BAND: f64 = 0.1;

/// Which way the run-time controller moved the selected configuration
/// (by curve index; the exact baseline is the bottom).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Move {
    /// Towards more approximation.
    Up,
    /// Towards the exact baseline.
    Down,
}

/// The paper's §5 run-time controller, and the only place observations
/// become a [`RuntimeTuner::adapt_to`] request: a state estimate (the
/// required speedup), then the curve's thresholds, then a configuration.
///
/// The required speedup is `clock × anchor`:
///
/// * `clock` is the feed-forward term, `nominal ÷ sensed` clock. It moves
///   on the start the frequency sensor reports a step, so a DVFS governor
///   step re-selects before the slowed execution runs, and it holds its
///   last value while the sensors are dark.
/// * the anchor is the feedback term: the pressure `slow_ewma × baseline ×
///   backlog ÷ drain budget`, damped by the ±dead-band only — it moves when
///   the pressure leaves the band around it, in either direction, and not
///   otherwise. The EWMA folds each execution's slowdown divided by the
///   clock, so it tracks what the clock does not explain (load, or every
///   disturbance while the sensors are dark) without being fooled by the
///   controller's own approximation.
///
/// Re-evaluated when an execution starts — the only instant a
/// configuration is consumed. The pressure is dimensionless, so one
/// controller serves every tenant lane of a replica; a lone invocation
/// (backlog 1, drain budget = its baseline) has pressure 1 and is driven by
/// the slowdown estimate alone.
pub(crate) struct Controller {
    /// Feed-forward clock slowdown (1.0 = nominal clock).
    pub clock: f64,
    /// The pressure last anchored (centre of the dead-band).
    pub applied_required: f64,
    /// EWMA of the clock-normalised slowdown this replica observes (1.0 =
    /// nominal).
    pub slow_ewma: f64,
    dead_band: f64,
    /// Seconds the backlog is to drain within. A replica's is its deadline
    /// × `drain_fraction`, tighter than admission's budget (the deadline),
    /// so accuracy is shed before requests are.
    drain_budget: f64,
}

impl Controller {
    /// A controller at nominal clock and pressure.
    pub(crate) fn new(dead_band: f64, drain_budget_s: f64) -> Controller {
        Controller {
            clock: 1.0,
            applied_required: 1.0,
            slow_ewma: 1.0,
            dead_band: dead_band.clamp(0.0, 10.0),
            drain_budget: drain_budget_s,
        }
    }

    /// A serving replica's controller: `p`'s dead-band, draining within
    /// `drain_fraction` of the deadline.
    pub(crate) fn for_replica(p: &ServeParams) -> Controller {
        Controller::new(
            p.dead_band,
            p.deadline_s.max(1e-9) * p.drain_fraction.clamp(0.05, 1.0),
        )
    }

    /// The required speedup the tuner is asked for.
    pub(crate) fn required(&self) -> f64 {
        self.clock * self.applied_required
    }

    /// Estimated device slowdown (clock × feedback EWMA, 1.0 = nominal).
    pub(crate) fn slowdown(&self) -> f64 {
        self.clock * self.slow_ewma
    }

    /// Re-selects `tuner`'s configuration for an execution about to start
    /// with `backlog` requests (itself included) queued, given the clock
    /// the sensor reads ([`sensed_clock`]; `None` while dark). The anchor
    /// only moves outside the dead-band, but `adapt_to` is issued on every
    /// start: `tuner` is the serving tenant's lane, which may not be the
    /// lane the anchor was last applied to, and Policy 2 re-rolls its mix.
    pub(crate) fn reselect(
        &mut self,
        tuner: &mut RuntimeTuner,
        sensed: Option<f64>,
        baseline_time_s: f64,
        backlog: usize,
    ) -> Option<Move> {
        if let Some(clock) = sensed.filter(|c| c.is_finite() && *c > 0.0) {
            self.clock = clock;
        }
        // `max` drops a NaN (`clamp` would keep it) and `min` an overflow,
        // so the anchor stays finite whatever the inputs.
        #[allow(clippy::manual_clamp)]
        let pressure = (self.slow_ewma * baseline_time_s * backlog as f64 / self.drain_budget)
            .max(1e-6)
            .min(f64::MAX);
        let up = pressure > self.applied_required * (1.0 + self.dead_band);
        let down = pressure < self.applied_required * (1.0 - self.dead_band);
        if up || down {
            self.applied_required = pressure;
        }
        let from = tuner.current_index();
        tuner.adapt_to(self.required());
        let to = tuner.current_index();
        // `None` is the exact baseline, the bottom rung.
        match (from, to) {
            _ if from == to => None,
            (None, Some(_)) => Some(Move::Up),
            (Some(a), Some(b)) if b > a => Some(Move::Up),
            _ => Some(Move::Down),
        }
    }

    /// Folds one execution's normalised slowdown ([`Draw::slowdown`]),
    /// divided by the clock it ran at, into the EWMA; a non-finite sample
    /// is dropped rather than poisoning every later estimate.
    pub(crate) fn observe(&mut self, slowdown: f64) {
        let residual = slowdown / self.clock;
        if residual.is_finite() {
            self.slow_ewma = 0.7 * self.slow_ewma + 0.3 * residual;
        }
    }
}

/// The clock slowdown the frequency sensor reports in `state` (nominal ÷
/// sensed MHz), or `None` while the sensors are dark. Reads no rail power.
pub(crate) fn sensed_clock(device: &DisturbedDevice, state: &DeviceState) -> Option<f64> {
    state
        .sensors_ok
        .then(|| device.scenario().nominal_mhz() / state.freq_mhz.max(1.0))
}

// ---------------------------------------------------------------------------
// Guard wiring
// ---------------------------------------------------------------------------

/// Guard setup: points whose *shipped* promise already sits below the QoS
/// floor are excluded from selection up front (a corrupt or repaired curve
/// must trigger quarantine at the door, not a breach at runtime). A NaN
/// promise fails the `>=` and is masked out too.
pub(crate) fn premask_below_floor(
    tuner: &mut RuntimeTuner,
    guard: &mut QosGuard,
    curve: &TradeoffCurve,
    floor: f64,
) {
    for (i, p) in curve.points().iter().enumerate() {
        if fails_floor(p.qos, floor) {
            tuner.quarantine(i);
            guard.note_premask(i);
        }
    }
    if !curve.points().is_empty() && tuner.active_len() == 0 {
        guard.note_unrecoverable(0.0, 0);
    }
}

/// A curve point the guard just convicted.
pub(crate) struct Conviction {
    /// Curve index of the convicted point.
    pub rung: usize,
    /// The honest estimate written into the curve.
    pub repaired_qos: f64,
    /// The conviction exhausted the curve: service is clamped to exact.
    pub exact_fallback: bool,
}

/// Verifies a completed request's shadow canary (present only on a cleanly
/// served, canaried execution) against its rung's shipped promise. On a
/// conviction the point is repaired and quarantined; with every point
/// distrusted the guard records the clamp to exact — never a panic or a
/// silent breach — and otherwise the tuner re-selects for the unchanged
/// pressure `applied_required` among the surviving points, so service
/// continues at the nearest honest rung.
pub(crate) fn verify_canary(
    tuner: &mut RuntimeTuner,
    guard: &mut QosGuard,
    done: &InFlight,
    now: f64,
    completed: usize,
    applied_required: f64,
) -> Option<Conviction> {
    let (Some(r), Some(observed)) = (done.draw.rung, done.draw.canary) else {
        return None;
    };
    let GuardVerdict::Quarantine { rung, repaired_qos } =
        guard.observe(now, completed, r, done.draw.qos, observed)
    else {
        return None;
    };
    tuner.repair_qos(rung, repaired_qos);
    tuner.quarantine(rung);
    let exact_fallback = tuner.active_len() == 0;
    if exact_fallback {
        guard.note_unrecoverable(now, completed);
    } else {
        tuner.adapt_to(applied_required);
    }
    Some(Conviction {
        rung,
        repaired_qos,
        exact_fallback,
    })
}

// ---------------------------------------------------------------------------
// Requests and the service draw
// ---------------------------------------------------------------------------

/// A request waiting in a replica's queue.
pub(crate) struct Queued {
    /// Owning tenant.
    pub tenant: usize,
    pub arrival_s: f64,
    pub deadline_s: f64,
    /// Times this request was already re-executed after a corruption
    /// detection (bounded by the fleet's re-execution budget).
    pub reexecs: usize,
}

/// Everything one started execution resolved to.
pub(crate) struct Draw {
    /// Service time, clamped to the watchdog bound when `stalled`.
    pub svc_s: f64,
    /// Normalised slowdown of this execution (service × speedup ÷
    /// baseline): 1.0 under nominal conditions on an honest replica.
    pub slowdown: f64,
    pub fault: bool,
    pub stalled: bool,
    /// Promised QoS of the configuration (baseline QoS when exact).
    pub qos: f64,
    /// Curve index the request ran on (`None` = baseline).
    pub rung: Option<usize>,
    /// Observed QoS of the shadow canary re-execution, when this request
    /// was canaried and the executor could measure it.
    pub canary: Option<f64>,
}

/// The request a replica is executing.
pub(crate) struct InFlight {
    pub req: Queued,
    pub finish_s: f64,
    pub draw: Draw,
    /// Ground-truth injected bit flip, when a chaos bit-flip window was
    /// active at start and the seeded draw fired.
    pub flip: Option<InjectedFlip>,
}

impl InFlight {
    /// Arrival-to-completion latency, seconds.
    pub(crate) fn latency(&self) -> f64 {
        self.finish_s - self.req.arrival_s
    }

    /// Accounting class of the completed execution; everything but
    /// [`RequestOutcome::ServedOnTime`] is a breaker failure.
    pub(crate) fn outcome(&self) -> RequestOutcome {
        if self.draw.stalled {
            RequestOutcome::Stalled
        } else if self.draw.fault {
            RequestOutcome::Faulted
        } else if self.finish_s > self.req.deadline_s + 1e-12 {
            RequestOutcome::ServedLate
        } else {
            RequestOutcome::ServedOnTime
        }
    }
}

/// The per-tenant constants of a service draw.
pub(crate) struct ServiceCtx<'a> {
    pub device: &'a DisturbedDevice,
    pub executor: &'a dyn RequestExecutor,
    /// Nominal-condition exact service time, seconds (> 0).
    pub baseline_time_s: f64,
    pub baseline_qos: f64,
    /// Executor watchdog bound ([`ServeParams::stall_bound_s`]).
    pub stall_bound_s: f64,
}

impl ServiceCtx<'_> {
    /// A Policy-1 (enforce-each-invocation) tuner over `curve`, anchored at
    /// this tenant's baseline cost.
    pub(crate) fn new_tuner(&self, curve: TradeoffCurve, seed: u64) -> RuntimeTuner {
        RuntimeTuner::new(
            curve,
            Policy::EnforceEachInvocation,
            1,
            self.baseline_time_s,
            seed,
        )
    }

    /// Starts one execution under `tuner`'s current configuration on the
    /// device in `state`: applies the executor watchdog, runs the executor
    /// as its `exec_k`-th request and — when the guard's deterministic
    /// sampler picks `exec_k` — performs the shadow canary re-execution
    /// through the executor's hook. A replica counts executions per replica
    /// for the device state and per (replica, tenant) for the executor;
    /// with one tenant the two indices coincide. `inflation` is the chaos
    /// plan's gray-failure multiplier (1.0 = none).
    pub(crate) fn draw(
        &self,
        state: &DeviceState,
        tuner: &RuntimeTuner,
        guard: &QosGuard,
        exec_k: usize,
        inflation: f64,
    ) -> Draw {
        let speedup = tuner.current_speedup();
        let mut raw_svc = self
            .device
            .invocation_time(state, self.baseline_time_s, speedup);
        // Gray failure: silent service-time inflation (1 outside a gray
        // window).
        if inflation != 1.0 {
            raw_svc *= inflation;
        }
        // Watchdog: a blowout past the bound is cut off at the bound and
        // becomes a typed Stalled completion (feeding the breaker) instead
        // of an unbounded queue-time entry.
        let bound = self.stall_bound_s.max(1e-9);
        let (svc_s, stalled) = if raw_svc > bound {
            (bound, true)
        } else {
            (raw_svc, false)
        };
        let fault = self.executor.execute(exec_k).is_err();
        let rung = tuner.current_index();
        let point = tuner.current_point();
        let canary = match (rung, point) {
            (Some(r), Some(p)) if !stalled && !fault && guard.is_canary(exec_k) => {
                self.executor.canary_qos(exec_k, r, p)
            }
            _ => None,
        };
        Draw {
            svc_s,
            slowdown: svc_s * speedup / self.baseline_time_s,
            fault,
            stalled,
            qos: point.map_or(self.baseline_qos, |p| p.qos),
            rung,
            canary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: usize, probes: usize, cooldown_s: f64) -> Breaker {
        Breaker::new(&ServeParams {
            breaker_threshold: threshold,
            half_open_probes: probes,
            cooldown_s,
            ..ServeParams::default()
        })
    }

    /// `(state, consecutive failures, open-until)`.
    fn parts(b: &Breaker) -> (BreakerState, usize, f64) {
        (b.state, b.consecutive_failures, b.open_until)
    }

    #[test]
    fn breaker_trips_at_exactly_the_threshold() {
        let mut b = breaker(3, 2, 5.0);
        assert_eq!(b.on_result(true, 1.0), None);
        assert_eq!(b.on_result(true, 2.0), None);
        assert!(b.admits());
        assert_eq!(
            b.on_result(true, 3.0),
            Some(BreakerTransition::Tripped { failures: 3 })
        );
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admits());
        assert_eq!(parts(&b), (BreakerState::Open, 3, 8.0));
        // Completions while open change nothing.
        assert_eq!(b.on_result(true, 3.5), None);
        assert_eq!(b.on_result(false, 3.6), None);
        assert_eq!(parts(&b), (BreakerState::Open, 3, 8.0));
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let mut b = breaker(3, 1, 1.0);
        assert_eq!(b.on_result(true, 0.1), None);
        assert_eq!(b.on_result(true, 0.2), None);
        assert_eq!(b.on_result(false, 0.3), None);
        assert_eq!(b.on_result(true, 0.4), None);
        assert_eq!(b.on_result(true, 0.5), None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.on_result(true, 0.6),
            Some(BreakerTransition::Tripped { failures: 3 })
        );
    }

    #[test]
    fn tick_half_opens_only_once_the_cooldown_has_elapsed() {
        let mut b = breaker(1, 2, 2.0);
        assert!(!b.tick(0.0), "a closed breaker never ticks over");
        assert!(b.on_result(true, 10.0).is_some());
        assert!(!b.tick(11.999));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.tick(12.0), "the cooldown bound is inclusive");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.tick(13.0), "already half-open");

        let mut late = breaker(1, 2, 2.0);
        assert!(late.on_result(true, 10.0).is_some());
        assert!(late.tick(99.0));
    }

    #[test]
    fn a_failed_probe_retrips_with_one_failure() {
        let mut b = breaker(3, 2, 1.0);
        for t in 0..3 {
            b.on_result(true, t as f64);
        }
        assert!(b.tick(5.0));
        b.note_admitted();
        assert_eq!(b.on_result(false, 5.1), None);
        assert_eq!(
            b.on_result(true, 5.2),
            Some(BreakerTransition::Tripped { failures: 1 })
        );
        assert_eq!(parts(&b), (BreakerState::Open, 1, 6.2));
    }

    #[test]
    fn probe_budget_shuts_the_door_and_enough_successes_close() {
        let mut b = breaker(1, 2, 1.0);
        assert!(b.on_result(true, 0.0).is_some());
        assert!(b.tick(1.0));
        assert!(b.admits());
        b.note_admitted();
        assert!(b.admits());
        b.note_admitted();
        assert!(!b.admits(), "both probes are out; the door is shut");
        // A warm restart keeps the state and starts probe accounting fresh.
        b.restart();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admits());
        assert_eq!(b.on_result(false, 1.1), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.on_result(false, 1.2), Some(BreakerTransition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits());
        // Admissions on a closed breaker spend no probes.
        b.note_admitted();
        assert!(b.admits());
    }

    #[test]
    fn event_ring_caps_counts_and_keeps_order() {
        let mut none = EventRing::new(0);
        none.push(1);
        none.push(2);
        assert_eq!(none.into_parts(), (vec![], 2));

        let mut one = EventRing::new(1);
        for e in 0..4 {
            one.push(e);
        }
        assert_eq!(one.into_parts(), (vec![3], 3));

        let mut ring = EventRing::new(3);
        for e in 0..3 {
            ring.push(e);
        }
        assert_eq!(ring.evicted, 0);
        for e in 3..8 {
            ring.push(e);
        }
        assert_eq!(ring.into_parts(), (vec![5, 6, 7], 5));
    }

    #[test]
    fn latency_summary_picks_the_ceil_099n_minus_one_sample() {
        assert_eq!(latency_summary(&mut []), (0.0, 0.0));
        assert_eq!(latency_summary(&mut [0.25]), (0.25, 0.25));
        // Unsorted input; sample i has value i, so the p99 value is its index.
        let mut hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(latency_summary(&mut hundred), (49.5, 98.0));
        let mut hundred_one: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(latency_summary(&mut hundred_one), (50.0, 99.0));
    }

    fn ladder(dead_band: f64) -> Controller {
        // Drain budget 0.5 s: with a 0.1 s baseline, a backlog of n asks
        // for 0.2·n× at nominal speed.
        Controller::for_replica(&ServeParams {
            deadline_s: 1.0,
            drain_fraction: 0.5,
            dead_band,
            ..ServeParams::default()
        })
    }

    fn tuner(perfs: &[f64]) -> RuntimeTuner {
        let points = perfs
            .iter()
            .enumerate()
            .map(|(i, &perf)| crate::pareto::TradeoffPoint {
                qos: 98.0 - 2.0 * i as f64,
                perf,
                config: crate::config::Config::from_knobs(vec![]),
            })
            .collect();
        RuntimeTuner::new(
            TradeoffCurve::from_points(points),
            Policy::EnforceEachInvocation,
            1,
            0.1,
            7,
        )
    }

    #[test]
    fn ladder_re_anchors_only_outside_the_dead_band_in_both_directions() {
        let mut l = ladder(0.25);
        let mut t = tuner(&[1.3, 1.7, 2.2]);
        // Backlog 5 asks for exactly 1.0×: on the anchor, nothing moves.
        assert_eq!(l.reselect(&mut t, None, 0.1, 5), None);
        assert_eq!(l.applied_required, 1.0);
        // 1.2× is inside the +25 % band: the anchor holds, no escalation.
        assert_eq!(l.reselect(&mut t, None, 0.1, 6), None);
        assert_eq!(l.applied_required, 1.0);
        assert_eq!(t.current_index(), None);
        // 1.6× leaves the band: re-anchor and escalate onto a ≥ 1.6× rung.
        assert_eq!(l.reselect(&mut t, None, 0.1, 8), Some(Move::Up));
        assert_eq!(l.applied_required, 1.6);
        assert_eq!(t.current_index(), Some(1));
        // Rung to rung is classified by index, each way: 2.2× climbs onto
        // the top rung, 1.6× (below 2.2 − 25 %) steps back down one.
        assert_eq!(l.reselect(&mut t, None, 0.1, 11), Some(Move::Up));
        assert_eq!(t.current_index(), Some(2));
        assert_eq!(l.reselect(&mut t, None, 0.1, 8), Some(Move::Down));
        assert_eq!(l.applied_required, 1.6);
        assert_eq!(t.current_index(), Some(1));
        // 1.4× is inside the −25 % band of 1.6: nothing moves …
        assert_eq!(l.reselect(&mut t, None, 0.1, 7), None);
        assert_eq!(l.applied_required, 1.6);
        // … 1.0× is outside it: re-anchor and return to the baseline.
        assert_eq!(l.reselect(&mut t, None, 0.1, 5), Some(Move::Down));
        assert_eq!(l.applied_required, 1.0);
        assert_eq!(t.current_index(), None);
    }

    #[test]
    fn ladder_adapts_the_serving_lane_even_when_the_anchor_holds() {
        let mut l = ladder(0.25);
        let mut hot = tuner(&[1.3, 1.7, 2.2]);
        assert_eq!(l.reselect(&mut hot, None, 0.1, 10), Some(Move::Up));
        assert_eq!(hot.current_index(), Some(2));
        // Another tenant's lane starts under the same, unmoved anchor: it
        // must be brought onto it, not left where it last ran.
        let mut cold = tuner(&[1.5, 2.5]);
        assert_eq!(l.reselect(&mut cold, None, 0.1, 10), Some(Move::Up));
        assert_eq!(l.applied_required, 2.0);
        assert_eq!(cold.current_index(), Some(1));
    }

    #[test]
    fn ladder_state_stays_finite_on_degenerate_inputs() {
        for baseline in [0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            for sample in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
                let mut l = ladder(0.1);
                let mut t = tuner(&[1.3, 2.2]);
                l.observe(sample);
                for backlog in [0usize, 1, usize::MAX] {
                    l.reselect(&mut t, None, baseline, backlog);
                    assert!(
                        l.applied_required.is_finite() && l.applied_required > 0.0,
                        "anchor {} (baseline {baseline}, sample {sample}, backlog {backlog})",
                        l.applied_required
                    );
                }
                assert!(l.slow_ewma.is_finite(), "ewma {}", l.slow_ewma);
            }
        }
        // A finite sample is folded in at weight 0.3.
        let mut l = ladder(0.1);
        l.observe(2.0);
        assert_eq!(l.slow_ewma, 0.7 + 0.3 * 2.0);
    }

    #[test]
    fn a_sensed_clock_step_moves_the_selection_on_the_step_and_holds_while_dark() {
        // Backlog 5 is pressure 1.0: only the clock asks for speed.
        let mut l = ladder(0.1);
        let mut t = tuner(&[1.3, 1.7, 2.2]);
        assert_eq!(l.reselect(&mut t, Some(1.0), 0.1, 5), None);
        // The sensor reads a 1.6× clock step: escalate on this start, with
        // no slowdown observed yet.
        assert_eq!(l.reselect(&mut t, Some(1.6), 0.1, 5), Some(Move::Up));
        assert_eq!(t.current_index(), Some(1));
        assert_eq!((l.clock, l.applied_required), (1.6, 1.0));
        assert_eq!(l.required(), 1.6);
        // The slowed execution is explained by the clock: the EWMA stays
        // at nominal, the admission estimate carries the clock.
        l.observe(1.6);
        assert_eq!(l.slow_ewma, 1.0);
        assert_eq!(l.slowdown(), 1.6);
        // Dark sensors hold the last reading; junk readings are ignored.
        for sensed in [None, Some(f64::NAN), Some(0.0), Some(f64::INFINITY)] {
            assert_eq!(l.reselect(&mut t, sensed, 0.1, 5), None);
            assert_eq!(l.clock, 1.6);
        }
        // The clock multiplies the anchor outside the band: pressure 2.0
        // asks for 3.2× and clamps to the fastest rung.
        assert_eq!(l.reselect(&mut t, None, 0.1, 10), Some(Move::Up));
        assert_eq!(l.required(), 1.6 * 2.0);
        assert_eq!(t.current_index(), Some(2));
        // The clock recovers: back down with it.
        assert_eq!(l.reselect(&mut t, Some(1.0), 0.1, 5), Some(Move::Down));
        assert_eq!(t.current_index(), None);
    }

    #[test]
    fn sensed_clock_reads_the_frequency_sensor_only() {
        use at_hw::{Disturbance, FrequencyLadder, Scenario};
        let ladder = FrequencyLadder::tx2_gpu();
        let device = DisturbedDevice::tx2(
            Scenario::new("step", ladder.clone(), 10, 0)
                .with(Disturbance::GovernorStep {
                    at: 2,
                    ladder_idx: 6,
                })
                .with(Disturbance::SensorDropout { at: 4, len: 2 }),
        );
        let clock = |k| sensed_clock(&device, &device.state_at(k));
        assert_eq!(clock(0), Some(1.0));
        assert_eq!(clock(2), Some(ladder.slowdown(6)));
        assert_eq!(clock(4), None);
        assert_eq!(clock(6), Some(ladder.slowdown(6)));
    }

    /// The degradation ladder as it was before the clock feed-forward,
    /// kept verbatim as the reference the controller must reproduce bit for
    /// bit whenever the clock reads nominal or the sensors are dark — the
    /// only clocks a committed fleet ever senses.
    struct Ladder {
        applied_required: f64,
        slow_ewma: f64,
        dead_band: f64,
        drain_budget: f64,
    }

    impl Ladder {
        fn new(p: &ServeParams) -> Ladder {
            Ladder {
                applied_required: 1.0,
                slow_ewma: 1.0,
                dead_band: p.dead_band.clamp(0.0, 10.0),
                drain_budget: p.deadline_s.max(1e-9) * p.drain_fraction.clamp(0.05, 1.0),
            }
        }

        fn reselect(
            &mut self,
            tuner: &mut RuntimeTuner,
            baseline_time_s: f64,
            backlog: usize,
        ) -> Option<Move> {
            #[allow(clippy::manual_clamp)]
            let required = (self.slow_ewma * baseline_time_s * backlog as f64 / self.drain_budget)
                .max(1e-6)
                .min(f64::MAX);
            let up = required > self.applied_required * (1.0 + self.dead_band);
            let down = required < self.applied_required * (1.0 - self.dead_band);
            if up || down {
                self.applied_required = required;
            }
            let from = tuner.current_index();
            tuner.adapt_to(self.applied_required);
            let to = tuner.current_index();
            match (from, to) {
                _ if from == to => None,
                (None, Some(_)) => Some(Move::Up),
                (Some(a), Some(b)) if b > a => Some(Move::Up),
                _ => Some(Move::Down),
            }
        }

        fn observe(&mut self, slowdown: f64) {
            if slowdown.is_finite() {
                self.slow_ewma = 0.7 * self.slow_ewma + 0.3 * slowdown;
            }
        }
    }

    /// One step of a generated controller trace.
    #[derive(Clone, Debug)]
    enum Step {
        Observe(f64),
        Start {
            sensed: Option<f64>,
            baseline: f64,
            backlog: usize,
        },
    }

    /// Either a draw from `x` or one of the values that break arithmetic.
    fn or_degenerate(x: f64, pick: usize) -> f64 {
        [
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            f64::MAX,
        ]
        .get(pick)
        .copied()
        .unwrap_or(x)
    }

    fn step() -> impl proptest::Strategy<Value = Step> {
        use proptest::Strategy;
        (
            0usize..3,
            (0usize..12, 0.0f64..8.0),
            proptest::bool::ANY,
            (0usize..12, 1e-3f64..1.0),
            (0usize..6, 0usize..20),
        )
            .prop_map(|(kind, (pick, x), dark, (bpick, b), (lpick, l))| {
                if kind == 0 {
                    return Step::Observe(or_degenerate(x, pick));
                }
                Step::Start {
                    sensed: (!dark).then_some(1.0),
                    baseline: or_degenerate(b, bpick),
                    backlog: [0, 1, usize::MAX].get(lpick).copied().unwrap_or(l),
                }
            })
    }

    proptest::proptest! {
        #[test]
        fn controller_equals_the_old_ladder_bit_for_bit_at_the_nominal_clock(
            (band_pick, band) in (0usize..4, 0.0f64..10.0),
            deadline_s in 1e-3f64..5.0,
            drain_fraction in 0.0f64..1.5,
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let dead_band = [0.0, 10.0].get(band_pick).copied().unwrap_or(band);
            let p = ServeParams { deadline_s, drain_fraction, dead_band, ..ServeParams::default() };
            let mut old = Ladder::new(&p);
            let mut new = Controller::for_replica(&p);
            let mut t_old = tuner(&[1.3, 1.7, 2.2, 3.1]);
            let mut t_new = tuner(&[1.3, 1.7, 2.2, 3.1]);
            for s in steps {
                match s {
                    Step::Observe(x) => {
                        old.observe(x);
                        new.observe(x);
                    }
                    Step::Start { sensed, baseline, backlog } => {
                        let a = old.reselect(&mut t_old, baseline, backlog);
                        let b = new.reselect(&mut t_new, sensed, baseline, backlog);
                        proptest::prop_assert_eq!(a, b);
                        proptest::prop_assert_eq!(t_old.current_index(), t_new.current_index());
                    }
                }
                proptest::prop_assert_eq!(old.applied_required.to_bits(), new.applied_required.to_bits());
                proptest::prop_assert_eq!(old.applied_required.to_bits(), new.required().to_bits());
                proptest::prop_assert_eq!(old.slow_ewma.to_bits(), new.slow_ewma.to_bits());
                proptest::prop_assert_eq!(old.slow_ewma.to_bits(), new.slowdown().to_bits());
            }
        }
    }
}
