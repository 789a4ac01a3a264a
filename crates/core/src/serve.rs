//! Overload-resilient request serving on top of the runtime phase (§5).
//!
//! The paper's run-time tuner treats approximation as a *resource*: when
//! the environment slows down, the controller buys time by moving along the
//! shipped tradeoff curve. This module takes that idea to a serving
//! setting: one server, one shipped [`TradeoffCurve`], one arrival trace,
//! on the disturbed device model ([`at_hw::DisturbedDevice`]), hardened
//! with the three classic overload defences:
//!
//! * **Deadline-aware admission** — a bounded FIFO queue sheds work it
//!   cannot finish in time, with a typed `ShedReason` per rejection
//!   (queue full, deadline infeasible, breaker open).
//! * **Accuracy-shedding degradation ladder** — backlog pressure escalates
//!   the selected configuration along the tradeoff curve (trading QoS for
//!   speed) each time a request starts service; recovery de-escalates, both
//!   damped by a ±dead-band.
//! * **Circuit breaker** — consecutive deadline blowouts or executor
//!   faults trip the breaker open; while open, arrivals are shed and the
//!   queue is flushed; after a cooldown the breaker half-opens and probes
//!   before closing. Every state transition is a typed, logged
//!   [`FleetEvent`].
//!
//! The module owns the vocabulary — arrival patterns, request executors,
//! [`ServeParams`], the report types — and no event loop: [`serve`] and
//! [`serve_guarded`] run the fleet simulator ([`crate::fleet`]) with one
//! replica and one tenant over the caller's trace and project its report,
//! so a single server behaves exactly like a replica of a fleet.
//!
//! Everything is a pure function of the inputs (arrival trace seed,
//! disturbance scenario seed, parameters): no wall clock, no global state,
//! no thread-count dependence — a seeded storm replays bit-identically,
//! which is what makes overload behaviour testable at all.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::fleet::{Arrivals, FleetEvent, FleetParams, FleetReport, FleetSim, LaneEnd, TenantSpec};
use crate::guard::{GuardParams, GuardReport};
use crate::knobs::KnobRegistry;
use crate::pareto::{TradeoffCurve, TradeoffPoint};
use crate::qos::{self, QosMetric};
use at_hw::DisturbedDevice;
use at_ir::exec::{execute, ExecOptions};
use at_ir::Graph;
use at_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Arrival traces
// ---------------------------------------------------------------------------

/// A request-arrival pattern: the time-varying rate of a non-homogeneous
/// Poisson process. Arrivals are generated by thinning against the peak
/// rate, so a trace is a pure function of `(pattern, horizon, seed)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Constant rate.
    Steady {
        /// Requests per second.
        rate_rps: f64,
    },
    /// Periodic on/off bursts: `burst_rps` for the first `duty` fraction of
    /// every `period_s`, `base_rps` otherwise.
    Bursty {
        /// Off-burst rate.
        base_rps: f64,
        /// In-burst rate.
        burst_rps: f64,
        /// Cycle length in seconds.
        period_s: f64,
        /// In-burst fraction of the cycle, clamped to [0, 1].
        duty: f64,
    },
    /// Sinusoidal day/night swing between `min_rps` and `max_rps`.
    Diurnal {
        /// Trough rate.
        min_rps: f64,
        /// Peak rate.
        max_rps: f64,
        /// Cycle length in seconds.
        period_s: f64,
    },
    /// Adversarial spike: `base_rps` everywhere except a window
    /// `[at_s, at_s + len_s)` at `spike_rps` — the "traffic multiplies
    /// exactly when the hardware browns out" storm case.
    Spike {
        /// Background rate.
        base_rps: f64,
        /// In-spike rate.
        spike_rps: f64,
        /// Spike start, seconds.
        at_s: f64,
        /// Spike length, seconds.
        len_s: f64,
    },
}

impl TrafficPattern {
    /// Stable display name (used in reports).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Steady { .. } => "steady",
            TrafficPattern::Bursty { .. } => "bursty",
            TrafficPattern::Diurnal { .. } => "diurnal",
            TrafficPattern::Spike { .. } => "spike",
        }
    }

    /// Instantaneous rate at time `t` (requests/second, ≥ 0).
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        let r = match *self {
            TrafficPattern::Steady { rate_rps } => rate_rps,
            TrafficPattern::Bursty {
                base_rps,
                burst_rps,
                period_s,
                duty,
            } => {
                let period = period_s.max(1e-9);
                let phase = (t / period).fract();
                if phase < duty.clamp(0.0, 1.0) {
                    burst_rps
                } else {
                    base_rps
                }
            }
            TrafficPattern::Diurnal {
                min_rps,
                max_rps,
                period_s,
            } => {
                let period = period_s.max(1e-9);
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * t / period).cos());
                min_rps + (max_rps - min_rps) * swing
            }
            TrafficPattern::Spike {
                base_rps,
                spike_rps,
                at_s,
                len_s,
            } => {
                if t >= at_s && t < at_s + len_s.max(0.0) {
                    spike_rps
                } else {
                    base_rps
                }
            }
        };
        r.max(0.0)
    }

    /// The peak rate, used as the thinning envelope.
    pub(crate) fn peak_rate(&self) -> f64 {
        let r = match *self {
            TrafficPattern::Steady { rate_rps } => rate_rps,
            TrafficPattern::Bursty {
                base_rps,
                burst_rps,
                ..
            } => base_rps.max(burst_rps),
            TrafficPattern::Diurnal {
                min_rps, max_rps, ..
            } => min_rps.max(max_rps),
            TrafficPattern::Spike {
                base_rps,
                spike_rps,
                ..
            } => base_rps.max(spike_rps),
        };
        r.max(0.0)
    }
}

/// A generated arrival trace: strictly increasing arrival times plus the
/// pattern name for reporting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Pattern display name.
    pub pattern: String,
    /// Arrival times in seconds, strictly increasing.
    pub times: Vec<f64>,
}

/// Generates a seeded arrival trace for `pattern` over `[0, horizon_s)` by
/// thinning a homogeneous Poisson process at the pattern's peak rate. Same
/// inputs, same trace — bit-identical, on any machine and thread count.
pub fn generate_arrivals(pattern: &TrafficPattern, horizon_s: f64, seed: u64) -> ArrivalTrace {
    ArrivalTrace {
        pattern: pattern.name().to_string(),
        times: ArrivalStream::new(pattern, horizon_s, seed).collect(),
    }
}

/// [`generate_arrivals`]'s thinning loop as an iterator: the same seeded
/// arrival times, one per `next`, holding a generator instead of a trace.
pub(crate) struct ArrivalStream {
    pattern: TrafficPattern,
    peak: f64,
    horizon_s: f64,
    rng: StdRng,
    t: f64,
    /// Cleared once an inter-arrival gap crosses the horizon (or at
    /// construction, when the pattern or the horizon admits no arrival).
    live: bool,
}

impl ArrivalStream {
    pub(crate) fn new(pattern: &TrafficPattern, horizon_s: f64, seed: u64) -> ArrivalStream {
        let peak = pattern.peak_rate();
        ArrivalStream {
            pattern: pattern.clone(),
            peak,
            horizon_s,
            rng: StdRng::seed_from_u64(seed),
            t: 0.0,
            live: peak > 0.0 && horizon_s > 0.0,
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        while self.live {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            // Exponential inter-arrival at the peak rate; the floor keeps
            // times strictly increasing even on a u == 0 draw.
            self.t += (-(1.0 - u).ln() / self.peak).max(1e-12);
            if self.t >= self.horizon_s {
                self.live = false;
                break;
            }
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * self.peak < self.pattern.rate_at(self.t) {
                return Some(self.t);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Typed outcomes and breaker states
// ---------------------------------------------------------------------------

/// Why admission control rejected a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ShedReason {
    /// The bounded queue was at capacity.
    QueueFull,
    /// The estimated completion time missed the request's deadline even
    /// before enqueueing it.
    DeadlineInfeasible,
    /// The circuit breaker was open (includes requests flushed from the
    /// queue when the breaker tripped).
    BreakerOpen,
    /// The replica holding the request died or was partitioned away before
    /// the request could complete or migrate (needs a chaos plan, so never
    /// on the [`serve`] path).
    ReplicaLost,
}

/// Final accounting class of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RequestOutcome {
    /// Completed within its deadline.
    ServedOnTime,
    /// Completed, but after its deadline (a deadline blowout).
    ServedLate,
    /// The executor returned a typed error for this request.
    Faulted,
    /// The executor watchdog cut the request off: its simulated service
    /// time blew past [`ServeParams::stall_bound_s`]. Counts as a breaker
    /// failure, not as a served request.
    Stalled,
    /// Rejected by admission control (or flushed by a breaker trip).
    Shed(ShedReason),
}

/// Circuit-breaker state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation; consecutive failures are counted.
    #[default]
    Closed,
    /// Tripped: all arrivals are shed until the cooldown elapses.
    Open,
    /// Cooldown elapsed: a bounded number of probe requests are admitted;
    /// all must succeed to close, any failure re-opens.
    HalfOpen,
}

// ---------------------------------------------------------------------------
// Request executors
// ---------------------------------------------------------------------------

/// Executes the k-th *started* request, returning a typed error on fault.
///
/// Service *time* is the device model's business
/// ([`DisturbedDevice::invocation_time`]); the executor decides whether the
/// request's work itself succeeded, and is the seam where real graph
/// execution (with its typed `GraphError`s) plugs into the serving loop.
pub trait RequestExecutor: Sync {
    /// Runs request `k` (0-based execution index).
    fn execute(&self, k: usize) -> Result<(), TensorError>;

    /// Shadow-canary hook ([`crate::guard`]): the *observed* QoS of request
    /// `k` served with `point`'s configuration (curve index `rung`),
    /// measured against an exact re-execution of the same request. `None`
    /// (the default) means this executor cannot measure QoS; the guard then
    /// records no observation for the request.
    fn canary_qos(&self, _k: usize, _rung: usize, _point: &TradeoffPoint) -> Option<f64> {
        None
    }
}

/// An executor that always succeeds.
pub struct NoFaultExecutor;

impl RequestExecutor for NoFaultExecutor {
    fn execute(&self, _k: usize) -> Result<(), TensorError> {
        Ok(())
    }
}

/// An executor that faults deterministically inside scripted execution-index
/// windows — the storm tests' tool for tripping the breaker on cue.
pub struct ScriptedFaultExecutor {
    /// Fault windows as `(first, len)` execution-index intervals.
    pub windows: Vec<(usize, usize)>,
}

impl RequestExecutor for ScriptedFaultExecutor {
    fn execute(&self, k: usize) -> Result<(), TensorError> {
        for &(at, len) in &self.windows {
            if k >= at && k < at.saturating_add(len) {
                return Err(TensorError::Transient {
                    detail: format!("scripted executor fault at request {k}"),
                });
            }
        }
        Ok(())
    }
}

/// An executor backed by real graph execution: every request runs the graph
/// on the given input. Construction validates the graph's structure, shapes
/// and parameter finiteness up front, so a corrupt artifact is a typed
/// error at the door — and any residual execution failure surfaces as a
/// typed per-request fault, never a panic.
pub struct GraphExecutor<'a> {
    graph: &'a Graph,
    input: Tensor,
    opts: ExecOptions,
    canary: Option<CanaryCtx<'a>>,
}

/// What [`GraphExecutor::canary_qos`] needs to decode a curve point's
/// configuration and score its output against the exact re-execution.
struct CanaryCtx<'a> {
    registry: &'a KnobRegistry,
    metric: QosMetric,
    baseline_qos: f64,
}

impl<'a> GraphExecutor<'a> {
    /// Validates and wraps a graph for serving.
    pub fn new(graph: &'a Graph, input: Tensor) -> Result<GraphExecutor<'a>, TensorError> {
        graph.validate().map_err(TensorError::from)?;
        graph.validate_params_finite().map_err(TensorError::from)?;
        at_ir::shapes::infer_shapes(graph, input.shape()).map_err(TensorError::from)?;
        Ok(GraphExecutor {
            graph,
            input,
            opts: ExecOptions::default(),
            canary: None,
        })
    }

    /// Like [`GraphExecutor::new`], but additionally checks the graph's
    /// weights against a pinned content fingerprint (see
    /// [`crate::ship::weights_fingerprint`], typically recorded at ship
    /// time). A mismatch means the parameters were silently corrupted
    /// between shipping and serving — bit rot, a bad copy, a stray write —
    /// and construction is refused with a typed
    /// [`TensorError::CorruptionDetected`] instead of serving garbage.
    pub fn with_expected_weights(
        graph: &'a Graph,
        input: Tensor,
        expected_weights: u64,
    ) -> Result<GraphExecutor<'a>, TensorError> {
        let got = crate::ship::weights_fingerprint(graph);
        if got != expected_weights {
            return Err(TensorError::CorruptionDetected {
                op: "graph-weights",
                detail: format!(
                    "weights fingerprint {got:#018x} does not match the shipped {expected_weights:#018x}"
                ),
            });
        }
        GraphExecutor::new(graph, input)
    }

    /// Like [`GraphExecutor::new`], but canary-capable: a guarded serving
    /// loop can re-execute a canaried request exactly (same PROMISE seed,
    /// knobs cleared via [`ExecOptions::exact_variant`]) and score the
    /// approximated output against it — per-request agreement accuracy
    /// relative to `baseline_qos` for [`QosMetric::Accuracy`], PSNR against
    /// the exact output for [`QosMetric::Psnr`].
    pub fn with_canary(
        graph: &'a Graph,
        input: Tensor,
        registry: &'a KnobRegistry,
        metric: QosMetric,
        baseline_qos: f64,
    ) -> Result<GraphExecutor<'a>, TensorError> {
        let mut e = GraphExecutor::new(graph, input)?;
        e.canary = Some(CanaryCtx {
            registry,
            metric,
            baseline_qos,
        });
        Ok(e)
    }
}

impl RequestExecutor for GraphExecutor<'_> {
    fn execute(&self, k: usize) -> Result<(), TensorError> {
        let opts = ExecOptions {
            config: self.opts.config.clone(),
            promise_seed: self.opts.promise_seed ^ k as u64,
        };
        execute(self.graph, &self.input, &opts)
            .map(|_| ())
            .map_err(TensorError::from)
    }

    fn canary_qos(&self, k: usize, _rung: usize, point: &TradeoffPoint) -> Option<f64> {
        let ctx = self.canary.as_ref()?;
        let opts = ExecOptions {
            config: point.config.decode(ctx.registry, self.graph),
            promise_seed: self.opts.promise_seed ^ k as u64,
        };
        let approx = execute(self.graph, &self.input, &opts).ok()?;
        let exact = execute(self.graph, &self.input, &opts.exact_variant()).ok()?;
        Some(match ctx.metric {
            QosMetric::Accuracy => {
                // Per-request ground truth is unavailable at serving time;
                // the exact execution's predictions stand in for it, so the
                // observation is baseline QoS minus the disagreement rate.
                let (rows, classes) = exact.shape().as_mat().ok()?;
                let labels: Vec<usize> = (0..rows)
                    .map(|r| {
                        let row = &exact.data()[r * classes..(r + 1) * classes];
                        let mut best = 0usize;
                        for (i, &v) in row.iter().enumerate() {
                            if v > row[best] {
                                best = i;
                            }
                        }
                        best
                    })
                    .collect();
                let agreement = qos::accuracy(std::slice::from_ref(&approx), &[labels]);
                ctx.baseline_qos - (100.0 - agreement)
            }
            QosMetric::Psnr => {
                qos::psnr(std::slice::from_ref(&approx), std::slice::from_ref(&exact))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Parameters and report
// ---------------------------------------------------------------------------

/// Ring-buffer cap on every retained event log — the serving and fleet
/// reports' and each guard's. Totals keep counting past it; the reports'
/// `events_evicted` records what the cap dropped.
pub const EVENT_LIMIT: usize = 4096;

/// Serving-loop parameters.
#[derive(Clone, Debug)]
pub struct ServeParams {
    /// Per-request relative deadline, seconds after arrival.
    pub deadline_s: f64,
    /// Bounded admission-queue capacity (waiting requests; the in-service
    /// request does not count).
    pub queue_cap: usize,
    /// Controller hysteresis dead-band: the backlog pressure must leave the
    /// ±band around the last applied pressure before the controller
    /// re-anchors.
    pub dead_band: f64,
    /// Fraction of the deadline the ladder aims to drain the backlog
    /// within. Must be < 1 so approximation escalates *before* admission
    /// starts shedding (both defences budget against the same deadline;
    /// the ladder gets the tighter target and therefore acts first).
    pub drain_fraction: f64,
    /// Consecutive failures (deadline blowouts or executor faults) that
    /// trip the breaker.
    pub breaker_threshold: usize,
    /// Seconds the breaker stays open before half-opening.
    pub cooldown_s: f64,
    /// Probe requests that must all succeed to close a half-open breaker.
    pub half_open_probes: usize,
    /// Seed for the runtime tuner (only Policy 2 would consume it; the
    /// ladder runs Policy 1, but the seed keeps the constructor total).
    pub seed: u64,
    /// QoS attributed to the exact baseline configuration.
    pub baseline_qos: f64,
    /// Executor watchdog: a request whose simulated service time exceeds
    /// this bound is cut off at the bound and completes as a typed
    /// `RequestOutcome::Stalled` failure feeding the circuit breaker,
    /// instead of an unbounded queue-time entry. The default (infinity)
    /// disables the watchdog.
    pub stall_bound_s: f64,
}

impl Default for ServeParams {
    fn default() -> ServeParams {
        ServeParams {
            deadline_s: 1.0,
            queue_cap: 8,
            dead_band: crate::replica::DEAD_BAND,
            drain_fraction: 0.5,
            breaker_threshold: 3,
            cooldown_s: 2.0,
            half_open_probes: 3,
            seed: 7,
            baseline_qos: 100.0,
            stall_bound_s: f64::INFINITY,
        }
    }
}

/// Everything one serving run produced. All counters are exact; the event
/// log is capped at [`EVENT_LIMIT`] with `events_evicted` recording what
/// the cap dropped. Ladder moves and watchdog cut-offs are counted
/// (`escalations`, `deescalations`, `stalled`), not logged.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServeReport {
    /// Arrival-pattern name.
    pub pattern: String,
    /// Disturbance-scenario name.
    pub scenario: String,
    /// Total arrivals in the trace.
    pub arrivals: usize,
    /// Requests that executed to completion (on-time + late + faulted +
    /// stalled). Admission is finalised at execution: requests flushed by a
    /// breaker trip count as shed, not admitted.
    pub admitted: usize,
    /// Completed within deadline.
    pub served_on_time: usize,
    /// Completed after deadline.
    pub served_late: usize,
    /// Executor returned a typed error.
    pub faulted: usize,
    /// Cut off by the executor watchdog ([`ServeParams::stall_bound_s`]).
    pub stalled: usize,
    /// Shed: queue at capacity.
    pub shed_queue_full: usize,
    /// Shed: deadline infeasible at admission.
    pub shed_deadline: usize,
    /// Shed: breaker open (including queue flushes on trip).
    pub shed_breaker: usize,
    /// Times the breaker tripped open.
    pub breaker_trips: usize,
    /// Ladder escalations (more approximation).
    pub escalations: usize,
    /// Ladder de-escalations (less approximation).
    pub deescalations: usize,
    /// Deepest queue observed. An admitted request is queued before it is
    /// started, so an arrival at an idle server counts as a queue of one.
    pub max_queue_depth: usize,
    /// Mean latency of served (on-time + late) requests, seconds.
    pub mean_latency_s: f64,
    /// 99th-percentile latency of served requests, seconds.
    pub p99_latency_s: f64,
    /// Mean QoS over served requests (baseline QoS when unapproximated).
    pub mean_qos: f64,
    /// Curve index the run finished on (`None` = baseline).
    pub final_rung: Option<usize>,
    /// Breaker state the run finished in.
    pub final_breaker: BreakerState,
    /// Retained control-plane events (the most recent [`EVENT_LIMIT`]), in the
    /// fleet's vocabulary with `replica` and `tenant` always 0.
    pub events: Vec<FleetEvent>,
    /// Events dropped by the ring-buffer cap.
    pub events_evicted: usize,
}

impl ServeReport {
    /// Fraction of admitted (executed) requests that met their deadline.
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.served_on_time as f64 / self.admitted as f64
        }
    }

    /// Compact rendering of the whole event sequence (golden-test unit).
    pub fn event_log(&self) -> Vec<String> {
        self.events.iter().map(FleetEvent::compact).collect()
    }

    /// Serialises the report.
    pub fn to_json(&self) -> String {
        match serde_json::to_string(self) {
            Ok(s) => s,
            Err(e) => format!("{{\"error\":\"report serialisation failed: {e}\"}}"),
        }
    }
}

/// A guarded serving run: the serving report plus everything the QoS guard
/// observed, convicted and repaired along the way.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GuardedServeReport {
    /// The serving-loop report.
    pub serve: ServeReport,
    /// The trust-but-verify guard's report (canaries, quarantines, the
    /// repaired curve).
    pub guard: GuardReport,
}

impl GuardedServeReport {
    /// Serialises the combined report.
    pub fn to_json(&self) -> String {
        match serde_json::to_string(self) {
            Ok(s) => s,
            Err(e) => format!("{{\"error\":\"report serialisation failed: {e}\"}}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The single server: a 1 × 1 fleet
// ---------------------------------------------------------------------------

/// Runs the serving simulation over one arrival trace.
///
/// `curve` is the shipped tradeoff curve the ladder escalates along;
/// `baseline_time_s` the exact configuration's nominal-condition service
/// time; `device` the scripted disturbance timeline (indexed by execution
/// count, so a brownout window lands on the k-th..(k+len)-th executions);
/// `executor` decides per-request success. Never panics, whatever the
/// curve, trace, scenario or executor.
pub fn serve(
    curve: &TradeoffCurve,
    baseline_time_s: f64,
    device: &DisturbedDevice,
    trace: &ArrivalTrace,
    executor: &dyn RequestExecutor,
    params: &ServeParams,
) -> ServeReport {
    // Unguarded is a guard that never samples and has no floor to defend.
    let never = GuardParams {
        canary_fraction: 0.0,
        qos_floor: f64::NEG_INFINITY,
        ..GuardParams::default()
    };
    serve_guarded(
        curve,
        baseline_time_s,
        device,
        trace,
        executor,
        params,
        &never,
    )
    .serve
}

/// Runs the serving simulation with the trust-but-verify QoS guard
/// ([`crate::guard`]) threaded through it: a deterministic fraction of
/// requests is shadow-canaried through `executor`'s
/// [`RequestExecutor::canary_qos`] hook, per-point residuals are accounted,
/// lying curve points are quarantined and repaired in place, and exhausting
/// the curve clamps to the exact configuration instead of breaching the QoS
/// floor.
///
/// The run is a one-replica, one-tenant fleet ([`crate::fleet`]) that
/// reads `trace` in place instead of a generated arrival stream: work
/// stealing is off, no chaos is scripted, and gray ejection needs a peer to
/// compare against, so what remains is one replica's admission, ladder,
/// breaker and guard.
pub fn serve_guarded(
    curve: &TradeoffCurve,
    baseline_time_s: f64,
    device: &DisturbedDevice,
    trace: &ArrivalTrace,
    executor: &dyn RequestExecutor,
    params: &ServeParams,
    guard_params: &GuardParams,
) -> GuardedServeReport {
    let (tenants, fleet_params) = single_server(curve, baseline_time_s, params, guard_params);
    let run = FleetSim::new(
        &tenants,
        &[executor],
        device,
        &fleet_params,
        Arrivals::trace(&trace.times),
    )
    .run();
    single_server_report(&trace.pattern, run)
}

/// The one tenant and the one-replica fleet parameters [`serve_guarded`]
/// runs its trace through.
fn single_server(
    curve: &TradeoffCurve,
    baseline_time_s: f64,
    params: &ServeParams,
    guard_params: &GuardParams,
) -> ([TenantSpec; 1], FleetParams) {
    let tenants = [TenantSpec {
        name: String::new(),
        curve: curve.clone(),
        baseline_time_s,
        baseline_qos: params.baseline_qos,
        // Not read: the caller's trace is the arrival stream.
        pattern: TrafficPattern::Steady { rate_rps: 0.0 },
        arrival_seed: 0,
        guard: guard_params.clone(),
    }];
    let fleet_params = FleetParams {
        replicas: 1,
        serve: params.clone(),
        steal: false,
        ..FleetParams::default()
    };
    (tenants, fleet_params)
}

/// Projects a [`single_server`] run onto the single server's report.
fn single_server_report(
    pattern: &str,
    (mut fleet, mut lanes): (FleetReport, Vec<LaneEnd>),
) -> GuardedServeReport {
    // Exactly one tenant, one replica and one lane, by construction.
    let tenant = &fleet.tenants[0];
    let replica = &fleet.replica_reports[0];
    let lane = lanes.swap_remove(0);
    let serve = ServeReport {
        pattern: pattern.to_string(),
        scenario: std::mem::take(&mut fleet.scenario),
        arrivals: fleet.arrivals,
        admitted: fleet.admitted,
        served_on_time: fleet.served_on_time,
        served_late: fleet.served_late,
        faulted: fleet.faulted,
        stalled: fleet.stalled,
        shed_queue_full: tenant.shed_queue_full,
        shed_deadline: tenant.shed_deadline,
        shed_breaker: tenant.shed_breaker,
        breaker_trips: replica.breaker_trips,
        escalations: replica.escalations,
        deescalations: replica.deescalations,
        max_queue_depth: replica.max_queue_depth,
        mean_latency_s: fleet.mean_latency_s,
        p99_latency_s: fleet.p99_latency_s,
        mean_qos: tenant.mean_qos,
        final_rung: lane.final_rung,
        final_breaker: replica.final_breaker,
        events: std::mem::take(&mut fleet.events),
        events_evicted: fleet.events_evicted,
    };
    GuardedServeReport {
        serve,
        guard: lane.guard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::fleet::FleetEventKind;
    use crate::pareto::TradeoffPoint;
    use at_hw::{FrequencyLadder, Scenario};

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

    fn idle_device(invocations: usize) -> DisturbedDevice {
        DisturbedDevice::tx2(Scenario::new(
            "idle",
            FrequencyLadder::tx2_gpu(),
            invocations,
            0,
        ))
    }

    #[test]
    fn executor_refuses_silently_corrupted_weights_at_the_door() {
        use at_ir::GraphBuilder;
        use at_tensor::Shape;

        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new("sdc-weights", Shape::nchw(1, 3, 6, 6), &mut rng);
        b.conv(2, 3, (1, 1), (1, 1))
            .relu()
            .flatten()
            .dense(3)
            .softmax();
        let mut graph = b.finish().unwrap();
        let input = Tensor::zeros(Shape::nchw(1, 3, 6, 6));
        let expected = crate::ship::weights_fingerprint(&graph);
        assert!(GraphExecutor::with_expected_weights(&graph, input.clone(), expected).is_ok());

        // One flipped exponent bit in one weight: typed rejection, not a
        // silently wrong inference.
        let data = graph.param_mut(at_ir::graph::ParamId(0)).data_mut();
        data[0] = f32::from_bits(data[0].to_bits() ^ (1 << 20));
        match GraphExecutor::with_expected_weights(&graph, input, expected) {
            Err(TensorError::CorruptionDetected { op, .. }) => assert_eq!(op, "graph-weights"),
            Err(other) => panic!("want CorruptionDetected, got {other:?}"),
            Ok(_) => panic!("corrupted weights accepted"),
        }
    }

    #[test]
    fn arrival_traces_are_deterministic_and_in_range() {
        let p = TrafficPattern::Spike {
            base_rps: 5.0,
            spike_rps: 25.0,
            at_s: 10.0,
            len_s: 5.0,
        };
        let a = generate_arrivals(&p, 30.0, 42);
        let b = generate_arrivals(&p, 30.0, 42);
        assert_eq!(a.times, b.times, "same seed, same trace");
        assert!(!a.times.is_empty());
        assert!(a.times.windows(2).all(|w| w[0] < w[1]), "not increasing");
        assert!(a.times.iter().all(|&t| (0.0..30.0).contains(&t)));
        let c = generate_arrivals(&p, 30.0, 43);
        assert_ne!(a.times, c.times, "different seed, different trace");
        // The spike window is denser than the background.
        let in_spike = a
            .times
            .iter()
            .filter(|&&t| (10.0..15.0).contains(&t))
            .count();
        let before = a.times.iter().filter(|&&t| t < 5.0).count();
        assert!(in_spike > before, "spike {in_spike} vs base {before}");
    }

    #[test]
    fn steady_light_load_serves_everything_on_time_at_baseline() {
        let p = TrafficPattern::Steady { rate_rps: 2.0 };
        let trace = generate_arrivals(&p, 20.0, 1);
        let r = serve(
            &curve(&[1.5, 2.0]),
            0.05,
            &idle_device(1000),
            &trace,
            &NoFaultExecutor,
            &ServeParams::default(),
        );
        assert_eq!(r.arrivals, trace.times.len());
        assert_eq!(r.served_on_time, r.admitted);
        assert_eq!(r.served_late + r.faulted, 0);
        assert_eq!(r.shed_queue_full + r.shed_deadline + r.shed_breaker, 0);
        assert_eq!(r.breaker_trips, 0);
        assert_eq!(r.final_rung, None, "no pressure, no approximation");
        assert!((r.mean_qos - 100.0).abs() < 1e-9);
    }

    #[test]
    fn overload_escalates_ladder_and_sheds_with_typed_reasons() {
        // Offered load 4x capacity at baseline; the ladder's fastest point
        // only buys 2x, so admission must shed the rest rather than queue
        // unboundedly or serve late.
        let p = TrafficPattern::Steady { rate_rps: 40.0 };
        let trace = generate_arrivals(&p, 10.0, 3);
        let params = ServeParams {
            deadline_s: 0.5,
            queue_cap: 4,
            ..ServeParams::default()
        };
        let r = serve(
            &curve(&[1.3, 1.7, 2.0]),
            0.1,
            &idle_device(10_000),
            &trace,
            &NoFaultExecutor,
            &params,
        );
        assert!(r.escalations >= 1, "overload must escalate the ladder");
        assert!(
            r.shed_queue_full + r.shed_deadline > 0,
            "overload must shed"
        );
        assert_eq!(r.breaker_trips, 0, "shedding keeps served requests fast");
        assert!(
            r.deadline_hit_rate() > 0.95,
            "hit rate {}",
            r.deadline_hit_rate()
        );
        assert!(r.max_queue_depth <= 4);
    }

    #[test]
    fn ladder_deescalates_after_pressure_clears_damped_by_the_dead_band_only() {
        let p = TrafficPattern::Spike {
            base_rps: 2.0,
            spike_rps: 30.0,
            at_s: 5.0,
            len_s: 5.0,
        };
        let trace = generate_arrivals(&p, 40.0, 11);
        let run = |dead_band: f64| {
            serve(
                &curve(&[1.3, 1.7, 2.2]),
                0.1,
                &idle_device(10_000),
                &trace,
                &NoFaultExecutor,
                &ServeParams {
                    deadline_s: 0.8,
                    dead_band,
                    ..ServeParams::default()
                },
            )
        };
        let r = run(0.1);
        assert!(r.escalations >= 1);
        assert!(r.deescalations >= 1, "recovery must de-escalate");
        assert_eq!(r.final_rung, None, "long quiet tail returns to baseline");
        // Ladder moves are counted, never logged: no fault, so no event.
        assert_eq!(r.event_log(), Vec::<String>::new());
        // The dead-band is the only damping: a band no backlog this queue
        // can hold ever leaves pins the ladder to the baseline …
        let pinned = run(10.0);
        assert_eq!(pinned.escalations + pinned.deescalations, 0);
        // … and narrowing it never removes moves.
        let eager = run(0.0);
        assert!(
            eager.escalations + eager.deescalations >= r.escalations + r.deescalations,
            "band 0: {}+{}, band 0.1: {}+{}",
            eager.escalations,
            eager.deescalations,
            r.escalations,
            r.deescalations
        );
    }

    #[test]
    fn a_sensed_governor_step_escalates_the_first_execution_after_it() {
        // A 0.5 s baseline against the default 0.5 s drain budget is
        // pressure 1.0 at backlog 1, so only the clock asks for speed: the
        // governor steps to a 1.52× slowdown at the 11th execution.
        let device = DisturbedDevice::tx2(
            Scenario::new("step", FrequencyLadder::tx2_gpu(), 100, 0).with(
                at_hw::Disturbance::GovernorStep {
                    at: 10,
                    ladder_idx: 5,
                },
            ),
        );
        let run = |arrivals: usize| {
            serve(
                &curve(&[1.3, 1.7, 2.2]),
                0.5,
                &device,
                &ArrivalTrace {
                    pattern: "paced".to_string(),
                    times: (0..arrivals).map(|i| 2.0 * i as f64).collect(),
                },
                &NoFaultExecutor,
                &ServeParams::default(),
            )
        };
        let before = run(10);
        assert_eq!((before.escalations, before.final_rung), (0, None));
        // The first execution on the slowed clock already runs escalated
        // (onto the 1.7× rung), and on time.
        let step = run(11);
        assert_eq!((step.escalations, step.final_rung), (1, Some(1)));
        assert_eq!(step.served_on_time, 11);
    }

    #[test]
    fn scripted_faults_trip_and_recover_the_breaker() {
        let p = TrafficPattern::Steady { rate_rps: 5.0 };
        let trace = generate_arrivals(&p, 60.0, 5);
        let exec = ScriptedFaultExecutor {
            windows: vec![(20, 6)],
        };
        let r = serve(
            &curve(&[1.5]),
            0.05,
            &idle_device(10_000),
            &trace,
            &exec,
            &ServeParams::default(),
        );
        assert!(r.breaker_trips >= 1, "faults must trip the breaker");
        assert!(r.shed_breaker > 0, "open breaker must shed arrivals");
        assert_eq!(r.final_breaker, BreakerState::Closed, "must recover");
        // The typed transition sequence contains trip -> half-open -> closed.
        let kinds: Vec<&FleetEventKind> = r.events.iter().map(|e| &e.kind).collect();
        let trip = kinds
            .iter()
            .position(|k| matches!(k, FleetEventKind::BreakerTripped { .. }));
        let half = kinds
            .iter()
            .position(|k| matches!(k, FleetEventKind::BreakerHalfOpen { .. }));
        let closed = kinds
            .iter()
            .position(|k| matches!(k, FleetEventKind::BreakerClosed { .. }));
        match (trip, half, closed) {
            (Some(t), Some(h), Some(c)) => {
                assert!(t < h && h < c, "out of order: trip={t} half={h} closed={c}")
            }
            other => panic!("missing breaker transition: {other:?}"),
        }
    }

    #[test]
    fn empty_curve_and_empty_trace_never_panic() {
        let r = serve(
            &TradeoffCurve::default(),
            0.1,
            &idle_device(10),
            &ArrivalTrace {
                pattern: "none".into(),
                times: vec![],
            },
            &NoFaultExecutor,
            &ServeParams::default(),
        );
        assert_eq!(r.arrivals, 0);
        assert_eq!(r.admitted, 0);
        assert!((r.deadline_hit_rate() - 1.0).abs() < 1e-12);

        // Overload with no curve to escalate along: still no panic, work is
        // shed instead.
        let p = TrafficPattern::Steady { rate_rps: 50.0 };
        let trace = generate_arrivals(&p, 5.0, 9);
        let r = serve(
            &TradeoffCurve::default(),
            0.1,
            &idle_device(10_000),
            &trace,
            &NoFaultExecutor,
            &ServeParams {
                deadline_s: 0.3,
                ..ServeParams::default()
            },
        );
        assert!(r.shed_deadline + r.shed_queue_full > 0);
        assert_eq!(r.escalations, 0);
    }

    #[test]
    fn event_log_cap_evicts_but_counts() {
        // Every execution faults: the breaker trips, half-opens after each
        // cooldown, fails its probe and re-trips for the whole trace —
        // more transitions than the event ring holds.
        let p = TrafficPattern::Steady { rate_rps: 40.0 };
        let trace = generate_arrivals(&p, 1200.0, 2);
        let exec = ScriptedFaultExecutor {
            windows: vec![(0, usize::MAX)],
        };
        let params = ServeParams {
            cooldown_s: 0.1,
            ..ServeParams::default()
        };
        let r = serve(
            &curve(&[1.3, 1.7, 2.2]),
            0.1,
            &idle_device(usize::MAX / 2),
            &trace,
            &exec,
            &params,
        );
        assert_eq!(r.events.len(), EVENT_LIMIT);
        assert!(r.events_evicted > 0);
        assert!(
            r.breaker_trips > r.events.len(),
            "totals must keep counting past the cap"
        );
        // Every trip but possibly the last is followed by one half-open.
        let logged = r.events.len() + r.events_evicted;
        assert!(
            logged == 2 * r.breaker_trips || logged + 1 == 2 * r.breaker_trips,
            "{logged} events for {} trips",
            r.breaker_trips
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = TrafficPattern::Diurnal {
            min_rps: 1.0,
            max_rps: 20.0,
            period_s: 10.0,
        };
        let trace = generate_arrivals(&p, 30.0, 4);
        let r = serve(
            &curve(&[1.5, 2.0]),
            0.1,
            &idle_device(10_000),
            &trace,
            &NoFaultExecutor,
            &ServeParams::default(),
        );
        let json = r.to_json();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_json(), json, "lossless roundtrip");
        assert_eq!(back.event_log(), r.event_log());
    }

    #[test]
    fn generated_traces_are_pinned() {
        // `(length, fingerprint)` of each pattern's trace as the
        // materialising generator drew it: the iterator form must draw the
        // same times, bit for bit.
        let fingerprint = |times: &[f64]| {
            times
                .iter()
                .fold(0u64, |h, t| crate::guard::splitmix64(h ^ t.to_bits()))
        };
        let patterns = [
            TrafficPattern::Steady { rate_rps: 40.0 },
            TrafficPattern::Bursty {
                base_rps: 10.0,
                burst_rps: 70.0,
                period_s: 12.0,
                duty: 0.25,
            },
            TrafficPattern::Diurnal {
                min_rps: 5.0,
                max_rps: 45.0,
                period_s: 30.0,
            },
            TrafficPattern::Spike {
                base_rps: 8.0,
                spike_rps: 120.0,
                at_s: 50.0,
                len_s: 4.0,
            },
        ];
        let got: Vec<(usize, u64)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let trace = generate_arrivals(p, 120.0, 0x5EED + i as u64);
                (trace.times.len(), fingerprint(&trace.times))
            })
            .collect();
        const PINNED: [(usize, u64); 4] = [
            (4759, 1890142127655674306),
            (3024, 9247641786209590107),
            (3038, 17656791210866746685),
            (1466, 8864677488338514748),
        ];
        assert_eq!(got, PINNED);
    }

    #[test]
    fn serve_guarded_reads_its_trace_in_place_bit_identically() {
        // Against the copy the single server used to make of its trace:
        // every time paired with tenant 0 in one materialised stream.
        let c = curve(&[1.3, 1.7, 2.2]);
        let exec = crate::guard::MiscalibratedExecutor {
            honest_qos: vec![97.0, 96.0, 88.0],
            jitter: 0.3,
            seed: 0x5E7,
        };
        let params = ServeParams {
            deadline_s: 0.15,
            queue_cap: 8,
            ..ServeParams::default()
        };
        let guard = GuardParams {
            qos_floor: 90.0,
            canary_fraction: 0.2,
            ..GuardParams::default()
        };
        let device = idle_device(usize::MAX / 2);
        // Alternating 2 s bursts above and lulls below the 100 rps the
        // baseline serves, so the ladder climbs, sheds and recovers.
        let times: Vec<f64> = (0..12_000)
            .scan(0.0, |t, i| {
                *t += if (i / 400) % 2 == 0 {
                    1.0 / 180.0
                } else {
                    1.0 / 40.0
                };
                Some(*t)
            })
            .collect();
        // A time no event ordering reaches still counts as offered.
        let mut stuck = times[..3_000].to_vec();
        stuck.push(f64::NAN);
        stuck.extend_from_slice(&times[3_000..3_100]);
        for times in [times, stuck, Vec::new()] {
            let trace = ArrivalTrace {
                pattern: "hand-built".to_string(),
                times,
            };
            let in_place = serve_guarded(&c, 0.01, &device, &trace, &exec, &params, &guard);
            let (tenants, fleet_params) = single_server(&c, 0.01, &params, &guard);
            let copied = single_server_report(
                &trace.pattern,
                FleetSim::new(
                    &tenants,
                    &[&exec],
                    &device,
                    &fleet_params,
                    Arrivals::materialised(trace.times.iter().map(|&t| (t, 0)).collect()),
                )
                .run(),
            );
            assert_eq!(in_place.to_json(), copied.to_json());
            assert_eq!(in_place.serve.arrivals, trace.times.len());
            let r = &in_place.serve;
            assert!(
                trace.times.is_empty()
                    || (r.escalations > 0
                        && r.shed_deadline + r.shed_queue_full > 0
                        && !in_place.guard.quarantined.is_empty()),
                "the trace must exercise the ladder, admission and guard"
            );
        }
    }
}
