#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # at-core — ApproxTuner: three-phase predictive approximation tuning
//!
//! The paper's primary contribution: an automatic framework for
//! accuracy-aware optimisation of tensor-based applications, structured as
//!
//! 1. **Development-time tuning** (§3, [`tuner`]): predictive approximation
//!    tuning — per-(op, knob) QoS profiles ([`profile`]) feed compositional
//!    error models Π1/Π2 ([`predict`]) and an analytical performance model
//!    ([`perf`]), which drive an OpenTuner-style ensemble search
//!    ([`search`]) to produce a relaxed Pareto tradeoff curve
//!    ([`pareto`]).
//! 2. **Install-time tuning** (§4, [`install`]): the shipped curve is
//!    refined with real device measurements; when hardware-specific knobs
//!    (PROMISE voltage levels) exist, a fresh distributed predictive-tuning
//!    round runs across simulated edge devices.
//! 3. **Run-time tuning** (§5, [`runtime`]): the run-time tuner picks a
//!    configuration off the shipped curve for a required speedup, with two
//!    selection policies. One run-time controller computes that speedup:
//!    the sensed clock (feed-forward) times an EWMA of the slowdown the
//!    clock does not explain (feedback) times the backlog pressure, under
//!    a ±dead-band. [`closed_loop`] drives it invocation by invocation
//!    against `at-hw`'s disturbed device model (DVFS sweeps, thermal
//!    throttling, brownouts, load spikes, sensor dropout) with graceful
//!    QoS-floor degradation and a structured adaptation report.
//!    [`mod@serve`] lifts the same controller into an overload-resilient
//!    serving loop: deadline-aware admission over a bounded queue, a
//!    degradation ladder that sheds *accuracy* before it sheds requests,
//!    and a circuit breaker around execution — all deterministic and
//!    seeded. [`fleet`] scales that loop out to N replicas × M tenant
//!    models with pluggable front-door routing, per-replica breaker +
//!    per-tenant guard state, and work stealing across replica queues.
//!    Every loop drives one private replica engine (controller, breaker,
//!    event ring, service draw, guard wiring), so those mechanisms exist
//!    exactly once.
//!
//! [`knobs`] defines the integer knob registry (63 per convolution, 8 per
//! reduction, 2 per other op — §2.3); [`config`] the per-program
//! configuration type; [`qos`] the quality-of-service metrics; and
//! [`empirical`] the conventional measurement-based tuner used as the
//! paper's comparison baseline.
//!
//! Both tuners drive the search through [`evaluate`]: a batch-synchronous
//! loop in which the bandit ensemble proposes a batch of candidates per
//! round, an `evaluate::Evaluator` scores unseen ones concurrently
//! through a config-keyed memoisation cache, and fitness is reported back
//! in proposal order — so seeded runs are deterministic regardless of
//! thread count.
//!
//! Long campaigns are fault-tolerant: every candidate runs under a
//! `supervise::SupervisedEvaluator` (panic isolation, immediate retry,
//! quarantine, non-finite sanitisation), the driver checkpoints
//! its full state every N rounds ([`checkpoint`]) so a crashed run resumes
//! bit-identically, and [`fault`] provides deterministic fault injection to
//! prove all of it under test.

pub mod chaos;
pub mod checkpoint;
pub mod closed_loop;
pub mod config;
pub mod empirical;
pub mod evaluate;
pub mod fault;
pub mod fleet;
pub mod guard;
pub mod install;
pub mod knobs;
pub mod pareto;
pub mod perf;
pub mod predict;
pub mod profile;
pub mod qos;
mod replica;
pub mod runtime;
pub mod search;
pub mod serve;
pub mod ship;
pub mod supervise;
pub mod tuner;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan};
pub use checkpoint::{CheckpointError, CheckpointPolicy, SearchCheckpoint, CHECKPOINT_VERSION};
pub use closed_loop::{run_closed_loop, ClosedLoopParams, ClosedLoopReport, TraceRow};
pub use config::Config;
pub use evaluate::{CacheStats, Evaluation};
pub use fault::{FaultMix, FaultPlan};
pub use fleet::{
    fleet_arrivals, route, run_fleet, FleetEventKind, FleetParams, FleetReport, ReplicaView,
    RouteDecision, RouterPolicy, TenantReport, TenantSpec,
};
pub use guard::{
    CanarySampler, GuardEventKind, GuardParams, GuardVerdict, MiscalibratedExecutor, PointTrust,
    QosGuard, ResidualWindow,
};
pub use knobs::{Knob, KnobId, KnobRegistry, KnobSet};
pub use pareto::{pareto_set, pareto_set_eps, TradeoffCurve, TradeoffPoint};
pub use qos::QosMetric;
pub use serve::{
    generate_arrivals, serve, serve_guarded, ArrivalTrace, BreakerState, GraphExecutor,
    GuardedServeReport, NoFaultExecutor, RequestExecutor, ScriptedFaultExecutor, ServeParams,
    ServeReport, TrafficPattern,
};
pub use ship::ShippedArtifact;
pub use supervise::{FaultStats, SupervisionPolicy};
pub use tuner::{PredictiveTuner, RobustnessParams, TunerParams};
