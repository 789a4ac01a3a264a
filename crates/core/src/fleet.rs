//! Fleet-scale multi-tenant serving (§5 at the millions-of-users regime).
//!
//! The repo's one serving loop: a simulated *fleet* of N server replicas ×
//! M tenant models, each tenant carrying its own shipped [`TradeoffCurve`],
//! QoS floor, baseline cost and traffic profile (the
//! Steady/Bursty/Diurnal/Spike arrival generators of [`mod@crate::serve`],
//! whose `serve()` is this loop at N = M = 1). On top of the per-replica
//! machinery (`crate::replica`: admission, the run-time controller, breaker,
//! guard) the fleet adds three distribution concerns:
//!
//! * **Front-door routing** — a pluggable, pure [`route`] function
//!   implementing round-robin, join-shortest-queue and QoS-aware
//!   power-of-two-choices ([`RouterPolicy`]). Routing never selects a
//!   replica whose circuit breaker is open while any closed replica
//!   exists; with every breaker open the request is shed at the door.
//! * **Per-replica guard + breaker state** — every replica runs its own
//!   [`BreakerState`] machine (trip on consecutive failures, cooldown,
//!   half-open probing), and every (replica, tenant) pair runs its own
//!   [`QosGuard`] + [`RuntimeTuner`], so one tenant's lying curve is
//!   convicted and exact-clamped *per replica* without touching any other
//!   tenant's accounting.
//! * **Work stealing** — when a replica's queue drains it steals the back
//!   half of the longest peer queue, and when a breaker trips its queued
//!   requests migrate to the least-loaded closed replicas instead of being
//!   shed (overflow still sheds, with a typed reason).
//!
//! The whole simulation is a single-threaded pure function of its inputs:
//! one seed produces a bit-identical [`FleetReport`] on any machine and
//! under any rayon thread count, which is what makes fleet behaviour
//! testable — and what lets the `serve_fleet` bench bin push millions of
//! simulated requests per run and publish the harness's own sustained
//! simulated-requests/sec in `BENCH_serve.json`.
//!
//! On top of load the fleet also survives *failure*: a seeded
//! [`ChaosPlan`] merges replica crashes (with warm restart from the
//! control state the crash left untouched), silent gray
//! failures (service-time inflation the router must detect itself via
//! per-replica EWMA ejection, with the fixed thresholds `EJECT_*` below),
//! and router↔replica partitions (treated like an open breaker, with
//! bounded message loss) into the same time-ordered event stream. The
//! accounting invariant is absolute: every arrival ends up served,
//! faulted, stalled, or shed with a typed `crate::serve::ShedReason` —
//! `requests_unaccounted` in the report is arithmetic, not an estimate,
//! and must be zero.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::chaos::{ChaosKind, ChaosPlan, SilentWindows};
use crate::guard::{fails_floor, splitmix64, GuardParams, GuardReport, QosGuard};
use crate::obs::LatencySummary;
use crate::pareto::TradeoffCurve;
use crate::replica::{
    mean, premask_below_floor, sensed_clock, verify_canary, Breaker, BreakerTransition, Controller,
    EventRing, InFlight, Move, Queued, ServiceCtx,
};
use crate::runtime::RuntimeTuner;
use crate::serve::{
    ArrivalStream, BreakerState, NoFaultExecutor, RequestExecutor, RequestOutcome, ServeParams,
    TrafficPattern, EVENT_LIMIT,
};
use at_hw::DisturbedDevice;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Tenants and fleet parameters
// ---------------------------------------------------------------------------

/// One tenant model served by the fleet: its shipped curve, cost anchor,
/// QoS contract and traffic profile.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (model zoo benchmark name in the bench harness).
    pub name: String,
    /// The tenant's shipped tradeoff curve.
    pub curve: TradeoffCurve,
    /// Nominal-condition exact service time of one request, seconds.
    pub baseline_time_s: f64,
    /// QoS attributed to the exact baseline configuration.
    pub baseline_qos: f64,
    /// The tenant's traffic profile.
    pub pattern: TrafficPattern,
    /// Seed of the tenant's arrival trace.
    pub arrival_seed: u64,
    /// The tenant's guard contract (canary fraction, tolerance, QoS floor).
    pub guard: GuardParams,
}

/// Front-door load-balancing policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cycle through the replicas, skipping open breakers.
    RoundRobin,
    /// Route to the closed replica with the shortest queue.
    JoinShortestQueue,
    /// Sample two closed replicas with a stateless hash and pick the one
    /// with the lower QoS-aware load score (queue depth plus current
    /// degradation rung) — the classic power-of-two-choices balancer made
    /// approximation-aware.
    PowerOfTwoChoices,
}

impl RouterPolicy {
    /// All policies, in report order.
    pub const ALL: [RouterPolicy; 3] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::PowerOfTwoChoices,
    ];

    /// Stable display name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::PowerOfTwoChoices => "qos-power-of-two",
        }
    }
}

/// Fleet-level parameters. Per-replica control behaviour (deadline, queue
/// cap, controller dead-band and drain fraction, breaker thresholds, stall
/// watchdog) comes from [`ServeParams`].
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Number of server replicas (≥ 1).
    pub replicas: usize,
    /// Front-door routing policy.
    pub policy: RouterPolicy,
    /// Per-replica serving parameters (shared by all replicas). One field
    /// is not read: the exact configuration's QoS is per tenant
    /// ([`TenantSpec::baseline_qos`]), not [`ServeParams::baseline_qos`].
    pub serve: ServeParams,
    /// Simulated horizon, seconds: every tenant's arrival trace covers
    /// `[0, horizon_s)`.
    pub horizon_s: f64,
    /// Enables work stealing (queue-drain steals and breaker-trip
    /// migration). With stealing off, a tripped replica's queue is shed.
    pub steal: bool,
    /// Seed of the power-of-two sampling hash.
    pub route_seed: u64,
    /// Scripted failure injection (empty by default: no crash, gray
    /// window, partition or bit flip).
    pub chaos: ChaosPlan,
    /// Silent-data-corruption defense.
    pub sdc: SdcParams,
}

impl Default for FleetParams {
    fn default() -> FleetParams {
        FleetParams {
            replicas: 4,
            policy: RouterPolicy::JoinShortestQueue,
            serve: ServeParams::default(),
            horizon_s: 60.0,
            steal: true,
            route_seed: 0xF1EE7,
            chaos: ChaosPlan::default(),
            sdc: SdcParams::default(),
        }
    }
}

/// Silent-data-corruption defense: how the fleet reacts when a replica's
/// ABFT-checksummed kernels report a corrupted result.
///
/// The ground truth comes from the chaos plan's bit-flip windows
/// (`SilentWindows::bitflip_at` / `ChaosPlan::draw_flip`); the fleet models
/// the at-tensor ABFT layer's sensitivity with `detect_bit_floor`: a flip
/// in bit ≥ floor perturbs the checksum beyond the NaN-safe tolerance and
/// is *detected*, a lower flip stays under the noise floor and *escapes*
/// (it is served silently and counted in `sdc_escaped`). A detected result
/// is discarded — it never reaches the tenant, the guard's residual window
/// or the breaker — and the request is re-executed on a healthy peer at
/// most once (`SDC_REEXEC_BUDGET`); past the budget (or with no healthy
/// peer) it is accounted as faulted. Three detection strikes
/// (`SDC_EJECT_AFTER`) hand the replica to the gray-failure eject → probe
/// → readmit machinery.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SdcParams {
    /// Whether replicas run the ABFT-protected kernels. Unprotected
    /// replicas never detect anything: every injected flip escapes.
    pub protected: bool,
    /// Lowest flipped bit the modelled ABFT check can see: flips in bits
    /// `>= detect_bit_floor` are detected, lower flips escape.
    pub detect_bit_floor: u32,
}

impl Default for SdcParams {
    fn default() -> SdcParams {
        SdcParams {
            protected: true,
            detect_bit_floor: 16,
        }
    }
}

/// Times one request may be re-executed after a detection before it is
/// accounted as faulted.
const SDC_REEXEC_BUDGET: usize = 1;
/// Detection strikes on one replica before the router ejects it (reset by
/// readmission and by warm restart).
const SDC_EJECT_AFTER: usize = 3;

// Gray-failure defense: how the router spots a slow-but-alive replica and
// when it lets it back in. The router keeps a per-replica EWMA of the
// *observed slowdown* of each completion (service time × configured
// speedup ÷ tenant baseline — the same normalised unit as the controller's
// slowdown). A replica whose EWMA exceeds `EJECT_RATIO` × the median EWMA
// of its healthy peers is ejected from routing candidacy; after
// `EJECT_PROBE_AFTER_S` it is re-probed with `EJECT_PROBE_BUDGET` requests
// and readmitted only when they come back fast. Detection is *relative*,
// so a fleet-wide disturbance (every replica slowed by the same brownout)
// never ejects anyone.

/// EWMA smoothing factor (weight of the newest slowdown sample).
const EJECT_ALPHA: f64 = 0.2;
/// Completions a replica must serve (since start or restart) before it can
/// be ejected — protects cold replicas from noisy first samples.
const EJECT_MIN_SAMPLES: usize = 32;
/// Ejection threshold: EWMA > `EJECT_RATIO` × healthy-peer median.
const EJECT_RATIO: f64 = 2.5;
/// Seconds an ejected replica sits out before probing begins.
const EJECT_PROBE_AFTER_S: f64 = 1.0;
/// Probe requests admitted per probation round.
const EJECT_PROBE_BUDGET: usize = 3;
/// A probe succeeds when its slowdown sample is ≤ `EJECT_READMIT_RATIO` ×
/// the healthy-peer median.
const EJECT_READMIT_RATIO: f64 = 1.5;

/// Builds the fleet's merged arrival stream: every tenant's seeded trace
/// over `[0, horizon_s)`, merged into one `(time, tenant)` sequence sorted
/// by time with ties broken by tenant index. Pure in its inputs.
pub fn fleet_arrivals(tenants: &[TenantSpec], horizon_s: f64) -> Vec<(f64, usize)> {
    FleetArrivals::new(tenants, horizon_s).collect()
}

/// [`fleet_arrivals`] as an iterator: a k-way merge over the tenants'
/// [`ArrivalStream`]s that holds one pending arrival per tenant, never a
/// trace.
pub(crate) struct FleetArrivals {
    streams: Vec<ArrivalStream>,
    /// Each tenant's next arrival. Arrival times are finite (below the
    /// horizon), so `+∞` marks an exhausted stream.
    heads: Vec<f64>,
}

impl FleetArrivals {
    pub(crate) fn new(tenants: &[TenantSpec], horizon_s: f64) -> FleetArrivals {
        let mut streams: Vec<ArrivalStream> = tenants
            .iter()
            .map(|spec| ArrivalStream::new(&spec.pattern, horizon_s, spec.arrival_seed))
            .collect();
        let heads = streams
            .iter_mut()
            .map(|stream| stream.next().unwrap_or(f64::INFINITY))
            .collect();
        FleetArrivals { streams, heads }
    }
}

impl Iterator for FleetArrivals {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        // Strictly earlier wins, so a tie stays with the lower tenant index.
        let (mut first, mut tenant) = (f64::INFINITY, 0);
        for (t, &head) in self.heads.iter().enumerate() {
            if head < first {
                (first, tenant) = (head, t);
            }
        }
        if first == f64::INFINITY {
            return None;
        }
        self.heads[tenant] = self.streams[tenant].next().unwrap_or(f64::INFINITY);
        Some((first, tenant))
    }
}

/// Arrivals a generated stream moves from [`FleetArrivals`] into
/// [`Arrivals::Generated`]'s buffer per refill. Filling a block keeps the
/// generators' `ln`/`cos` out of the event loop; pulling one arrival per
/// event read about 5 % slower on the `fleet_storm` benchmark.
const ARRIVAL_BLOCK: usize = 4096;

/// Where a [`FleetSim`] reads its arrivals from, in time order.
pub(crate) enum Arrivals<'a> {
    /// The tenants' merged generators, read [`ARRIVAL_BLOCK`] arrivals at a
    /// time into one reused buffer: O(tenants + block) memory, whatever the
    /// horizon.
    Generated {
        merge: FleetArrivals,
        block: Vec<(f64, usize)>,
        /// The next unread entry of `block`.
        pos: usize,
    },
    /// A caller's trace, read in place as tenant 0.
    Trace {
        times: &'a [f64],
        /// The next unread time.
        pos: usize,
    },
}

impl<'a> Arrivals<'a> {
    /// The tenants' seeded streams over `[0, horizon_s)`, merged.
    pub(crate) fn generated(tenants: &[TenantSpec], horizon_s: f64) -> Arrivals<'a> {
        let mut block = Vec::with_capacity(ARRIVAL_BLOCK);
        let mut merge = FleetArrivals::new(tenants, horizon_s);
        block.extend(merge.by_ref().take(ARRIVAL_BLOCK));
        Arrivals::Generated {
            merge,
            block,
            pos: 0,
        }
    }

    /// `trace`'s times, each an arrival of tenant 0.
    pub(crate) fn trace(times: &'a [f64]) -> Arrivals<'a> {
        Arrivals::Trace { times, pos: 0 }
    }

    /// A whole stream held in one block: the materialised form the
    /// differential tests hold the streamed forms to.
    #[cfg(test)]
    pub(crate) fn materialised(stream: Vec<(f64, usize)>) -> Arrivals<'a> {
        Arrivals::Generated {
            merge: FleetArrivals::new(&[], 0.0),
            block: stream,
            pos: 0,
        }
    }

    /// The next arrival, `(time, tenant)`, without consuming it.
    fn peek(&self) -> Option<(f64, usize)> {
        match self {
            Arrivals::Generated { block, pos, .. } => block.get(*pos).copied(),
            Arrivals::Trace { times, pos } => times.get(*pos).map(|&t| (t, 0)),
        }
    }

    /// Consumes the arrival [`Arrivals::peek`] returned, refilling the
    /// block once it is read to the end.
    fn advance(&mut self) {
        match self {
            Arrivals::Generated { merge, block, pos } => {
                *pos += 1;
                if *pos == block.len() {
                    block.clear();
                    block.extend(merge.by_ref().take(ARRIVAL_BLOCK));
                    *pos = 0;
                }
            }
            Arrivals::Trace { pos, .. } => *pos += 1,
        }
    }

    /// Calls `f` with the tenant of every arrival not yet consumed. A run
    /// consumes every finite arrival; only a trace time that no event
    /// ordering reaches (`NaN`) is left, and it still counts as offered.
    fn for_each_unread(self, mut f: impl FnMut(usize)) {
        match self {
            Arrivals::Generated { merge, block, pos } => {
                block[pos..].iter().for_each(|&(_, t)| f(t));
                merge.for_each(|(_, t)| f(t));
            }
            Arrivals::Trace { times, pos } => (pos..times.len()).for_each(|_| f(0)),
        }
    }
}

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

/// What the router may observe about one replica.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaView {
    /// Waiting requests (the in-service request does not count).
    pub queue_len: usize,
    /// Whether a request is in service.
    pub busy: bool,
    /// Whether the replica is closed to new work (breaker open, or
    /// half-open with its probe budget spent).
    pub breaker_open: bool,
    /// Current degradation rung depth (0 = exact baseline) — the
    /// QoS-awareness input of power-of-two-choices.
    pub degradation: usize,
    /// Whether the router cannot (or will not) reach the replica: crashed,
    /// partitioned away, or ejected as a gray failure. Treated exactly
    /// like an open breaker by every policy.
    pub unreachable: bool,
}

impl ReplicaView {
    /// Whether a policy may select this replica.
    fn available(&self) -> bool {
        !self.breaker_open && !self.unreachable
    }
}

/// One routing decision: the chosen replica plus the replicas the policy
/// actually examined (meaningful for power-of-two-choices, where only the
/// sampled pair may be chosen).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteDecision {
    /// The selected replica, `None` when every breaker is open.
    pub chosen: Option<usize>,
    /// The replicas the policy considered, in increasing index order.
    pub sampled: Vec<usize>,
}

/// Picks the replica for one arrival — the one selection rule, behind both
/// [`route`] and the simulator's event loop. `n` is the replica count,
/// `available(i)` whether a policy may select replica `i` (breaker admits,
/// router can reach it), `view(i)` what the router observes of it — read for
/// the replicas a policy actually compares, so nothing is built per arrival.
/// `cursor` is the round-robin position (advanced in place), `key` the
/// per-arrival hash input of power-of-two sampling. `None` when no replica
/// is available.
pub fn select_replica(
    policy: RouterPolicy,
    n: usize,
    available: impl Fn(usize) -> bool,
    view: impl Fn(usize) -> ReplicaView,
    cursor: &mut usize,
    key: u64,
) -> Option<usize> {
    select_with_rival(policy, n, available, view, cursor, key).map(|(chosen, _)| chosen)
}

/// [`select_replica`], also naming the replica the choice was compared
/// with: power-of-two's other sample — the chosen one again when both draws
/// coincide, and under the other policies.
fn select_with_rival(
    policy: RouterPolicy,
    n: usize,
    available: impl Fn(usize) -> bool,
    view: impl Fn(usize) -> ReplicaView,
    cursor: &mut usize,
    key: u64,
) -> Option<(usize, usize)> {
    match policy {
        RouterPolicy::RoundRobin => {
            let i = (0..n)
                .map(|off| (*cursor + off) % n)
                .find(|&i| available(i))?;
            *cursor = (i + 1) % n;
            Some((i, i))
        }
        RouterPolicy::JoinShortestQueue => (0..n)
            .filter(|&i| available(i))
            .min_by_key(|&i| {
                let v = view(i);
                (v.queue_len, usize::from(v.busy), i)
            })
            .map(|i| (i, i)),
        RouterPolicy::PowerOfTwoChoices => {
            // Two stateless hash draws (possibly the same replica) over the
            // available replicas in index order.
            let open = (0..n).filter(|&i| available(i)).count() as u64;
            if open == 0 {
                return None;
            }
            let nth = |hash: u64| (0..n).filter(|&i| available(i)).nth((hash % open) as usize);
            let (a, b) = nth(splitmix64(key)).zip(nth(splitmix64(key ^ 0x9E37_79B9_7F4A_7C15)))?;
            let score = |i: usize| {
                let v = view(i);
                (v.queue_len + v.degradation, usize::from(v.busy), i)
            };
            Some(if score(b) < score(a) { (b, a) } else { (a, b) })
        }
    }
}

/// Routes one arrival. A pure function of `(policy, views, cursor, key)`:
/// [`select_replica`] over `views`, plus the replicas the policy examined.
/// No policy ever selects a replica with an open breaker — or an
/// unreachable one (crashed, partitioned, gray-ejected) — while an
/// available replica exists; with none available the decision is
/// `chosen: None`.
pub fn route(
    policy: RouterPolicy,
    views: &[ReplicaView],
    cursor: &mut usize,
    key: u64,
) -> RouteDecision {
    let n = views.len();
    let available = |i: usize| views[i].available();
    let picked = select_with_rival(policy, n, available, |i| views[i], cursor, key);
    let sampled = match (policy, picked) {
        (_, None) => Vec::new(),
        (RouterPolicy::PowerOfTwoChoices, Some((a, b))) if a == b => vec![a],
        (RouterPolicy::PowerOfTwoChoices, Some((a, b))) => vec![a.min(b), a.max(b)],
        _ => (0..n).filter(|&i| available(i)).collect(),
    };
    RouteDecision {
        chosen: picked.map(|(chosen, _)| chosen),
        sampled,
    }
}

// ---------------------------------------------------------------------------
// Typed fleet events
// ---------------------------------------------------------------------------

/// A logged fleet control-plane transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetEventKind {
    /// A replica's breaker tripped open; its queue was migrated to closed
    /// peers (work stealing on) or shed.
    BreakerTripped {
        /// The tripped replica.
        replica: usize,
        /// Consecutive failures that caused the trip.
        failures: usize,
        /// Queued requests migrated to closed replicas.
        migrated: usize,
        /// Queued requests shed (no closed replica had room).
        shed: usize,
    },
    /// A replica's breaker moved from `Open` to `HalfOpen`.
    BreakerHalfOpen {
        /// The recovering replica.
        replica: usize,
    },
    /// A replica's half-open probes all succeeded; the breaker closed.
    BreakerClosed {
        /// The recovered replica.
        replica: usize,
    },
    /// An idle replica stole the back half of the longest peer queue.
    Steal {
        /// The stealing (drained) replica.
        thief: usize,
        /// The replica stolen from.
        victim: usize,
        /// Requests moved.
        moved: usize,
    },
    /// A tenant's curve point was convicted on a replica and its promise
    /// repaired in place.
    Quarantined {
        /// The convicting replica.
        replica: usize,
        /// The lying tenant.
        tenant: usize,
        /// Curve index of the convicted point.
        rung: usize,
        /// The honest estimate written into the curve.
        repaired_qos: f64,
    },
    /// Quarantine exhausted a tenant's curve on a replica: requests for
    /// that (replica, tenant) pair now run the exact configuration.
    ExactFallback {
        /// The clamping replica.
        replica: usize,
        /// The exhausted tenant.
        tenant: usize,
    },
    /// A replica crashed: its in-flight request was killed, its queue
    /// migrated to healthy peers or shed, and a warm restart scheduled.
    ReplicaCrashed {
        /// The crashed replica.
        replica: usize,
        /// In-flight requests killed (0 or 1).
        killed: usize,
        /// Queued requests migrated to healthy replicas.
        migrated: usize,
        /// Queued requests shed as `ReplicaLost`.
        shed: usize,
    },
    /// A crashed replica warm-restarted from its pre-crash control state.
    ReplicaRestarted {
        /// The restarted replica.
        replica: usize,
        /// Quarantine convictions inherited across the crash (summed
        /// over tenants) — the points it does *not* have to re-learn.
        inherited_quarantined: usize,
    },
    /// The router lost contact with a replica; queued requests on the far
    /// side of the partition may be lost.
    Partitioned {
        /// The unreachable replica.
        replica: usize,
        /// Queued requests lost on the wire, shed as `ReplicaLost`.
        lost: usize,
    },
    /// A partition healed; the replica is reachable again.
    PartitionHealed {
        /// The rejoined replica.
        replica: usize,
    },
    /// The router ejected a slow-but-alive replica from routing candidacy.
    GrayEjected {
        /// The ejected replica.
        replica: usize,
        /// Its slowdown EWMA over the healthy-peer median at ejection.
        slow_ratio: f64,
    },
    /// An ejected replica entered probation: a bounded number of probe
    /// requests may be routed to it again.
    GrayProbing {
        /// The probing replica.
        replica: usize,
    },
    /// Probation succeeded; the replica rejoined routing candidacy.
    GrayReadmitted {
        /// The readmitted replica.
        replica: usize,
    },
    /// A replica's ABFT-checksummed kernel caught an injected bit flip;
    /// the corrupted result was discarded before reaching the tenant.
    SdcDetected {
        /// The corrupting replica.
        replica: usize,
        /// The affected tenant.
        tenant: usize,
        /// Flipped bit position of the injected fault.
        bit: u32,
    },
    /// A corruption-detected request was re-executed on a healthy peer.
    SdcReexecuted {
        /// The replica that produced the discarded result.
        replica: usize,
        /// The healthy replica the request was requeued on.
        target: usize,
        /// The affected tenant.
        tenant: usize,
    },
    /// Repeated corruption detections ejected the replica from routing
    /// candidacy (it re-enters via the gray probe/readmit machinery).
    SdcEjected {
        /// The ejected replica.
        replica: usize,
        /// Detection strikes at ejection.
        strikes: usize,
    },
}

/// One typed, timestamped fleet event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetEvent {
    /// Simulated time of the transition, seconds.
    pub time_s: f64,
    /// Fleet-wide completions when it happened.
    pub completed: usize,
    /// The transition.
    pub kind: FleetEventKind,
}

impl FleetEvent {
    /// Compact, deterministic one-line rendering (golden-test unit).
    pub(crate) fn compact(&self) -> String {
        let body = match &self.kind {
            FleetEventKind::BreakerTripped {
                replica,
                failures,
                migrated,
                shed,
            } => format!(
                "r{replica} breaker->open failures={failures} migrated={migrated} shed={shed}"
            ),
            FleetEventKind::BreakerHalfOpen { replica } => {
                format!("r{replica} breaker->half-open")
            }
            FleetEventKind::BreakerClosed { replica } => format!("r{replica} breaker->closed"),
            FleetEventKind::Steal {
                thief,
                victim,
                moved,
            } => format!("steal r{victim}->r{thief} moved={moved}"),
            FleetEventKind::Quarantined {
                replica,
                tenant,
                rung,
                repaired_qos,
            } => format!(
                "r{replica} quarantine tenant={tenant} rung={rung} repaired={repaired_qos:.3}"
            ),
            FleetEventKind::ExactFallback { replica, tenant } => {
                format!("r{replica} exact-fallback tenant={tenant}")
            }
            FleetEventKind::ReplicaCrashed {
                replica,
                killed,
                migrated,
                shed,
            } => format!("r{replica} crashed killed={killed} migrated={migrated} shed={shed}"),
            FleetEventKind::ReplicaRestarted {
                replica,
                inherited_quarantined,
            } => format!("r{replica} restarted inherited={inherited_quarantined}"),
            FleetEventKind::Partitioned { replica, lost } => {
                format!("r{replica} partitioned lost={lost}")
            }
            FleetEventKind::PartitionHealed { replica } => format!("r{replica} partition-healed"),
            FleetEventKind::GrayEjected {
                replica,
                slow_ratio,
            } => format!("r{replica} gray-ejected ratio={slow_ratio:.2}"),
            FleetEventKind::GrayProbing { replica } => format!("r{replica} gray-probing"),
            FleetEventKind::GrayReadmitted { replica } => format!("r{replica} gray-readmitted"),
            FleetEventKind::SdcDetected {
                replica,
                tenant,
                bit,
            } => format!("r{replica} sdc-detected tenant={tenant} bit={bit}"),
            FleetEventKind::SdcReexecuted {
                replica,
                target,
                tenant,
            } => format!("r{replica} sdc-reexec->r{target} tenant={tenant}"),
            FleetEventKind::SdcEjected { replica, strikes } => {
                format!("r{replica} sdc-ejected strikes={strikes}")
            }
        };
        format!("t={:.4} n={} {}", self.time_s, self.completed, body)
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Per-tenant accounting over the whole fleet. Counters are exact and
/// isolated: one tenant's quarantines, fallbacks and floor breaches never
/// appear in another tenant's row.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Arrivals offered by the tenant's stream.
    pub arrivals: usize,
    /// Requests that executed to completion.
    pub admitted: usize,
    /// Completed within deadline.
    pub served_on_time: usize,
    /// Completed after deadline.
    pub served_late: usize,
    /// Executor returned a typed error.
    pub faulted: usize,
    /// Cut off by the executor watchdog.
    pub stalled: usize,
    /// Shed: chosen replica's queue at capacity.
    pub shed_queue_full: usize,
    /// Shed: deadline infeasible at admission.
    pub shed_deadline: usize,
    /// Shed: every breaker open at the door, or a breaker-trip flush found
    /// no closed replica with room.
    pub shed_breaker: usize,
    /// Shed: lost to a replica crash or partition (in-flight requests
    /// killed by a crash, crash-flush overflow, partition message loss).
    pub shed_replica_lost: usize,
    /// Canary observations across all replicas.
    pub canaries: usize,
    /// Canary misses (observed below promise − tolerance).
    pub canary_misses: usize,
    /// Canaried requests observed below the tenant's QoS floor.
    pub observed_floor_breaches: usize,
    /// Requests *planned* below the floor (selection-level breaches; zero
    /// whenever premasking + quarantine work).
    pub planned_floor_breaches: usize,
    /// Curve points quarantined for this tenant, summed over replicas.
    pub quarantined_points: usize,
    /// Replicas on which quarantine exhausted this tenant's curve.
    pub exact_fallback_replicas: usize,
    /// Corrupted results caught by ABFT verification for this tenant.
    pub sdc_detected: usize,
    /// Detected requests successfully re-executed on a healthy peer.
    pub sdc_reexecuted: usize,
    /// Injected flips served silently (below the detection floor, or the
    /// replica ran unprotected kernels).
    pub sdc_escaped: usize,
    /// Mean latency of served (on-time + late) requests, seconds.
    pub mean_latency_s: f64,
    /// Mean planned QoS over served requests.
    pub mean_qos: f64,
}

impl TenantReport {
    /// Fraction of executed requests that met their deadline.
    pub fn on_time_rate(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.served_on_time as f64 / self.admitted as f64
        }
    }

    /// Fraction of arrivals shed (any reason).
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            (self.shed_queue_full + self.shed_deadline + self.shed_breaker + self.shed_replica_lost)
                as f64
                / self.arrivals as f64
        }
    }
}

/// Per-replica accounting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Requests this replica executed.
    pub executions: usize,
    /// Times its breaker tripped open.
    pub breaker_trips: usize,
    /// Requests stolen *into* this replica (queue-drain steals).
    pub steals_in: usize,
    /// Requests stolen *from* this replica's queue.
    pub steals_out: usize,
    /// Requests migrated into this replica by peers' breaker trips.
    pub migrations_in: usize,
    /// Ladder escalations (more approximation).
    pub escalations: usize,
    /// Ladder de-escalations.
    pub deescalations: usize,
    /// Deepest queue observed.
    pub max_queue_depth: usize,
    /// Times this replica crashed.
    pub crashes: usize,
    /// Times the router gray-ejected this replica.
    pub gray_ejections: usize,
    /// Times this replica was partitioned away.
    pub partitions: usize,
    /// Corruption detections on this replica's results.
    pub sdc_detections: usize,
    /// Times repeated detections ejected this replica.
    pub sdc_ejections: usize,
    /// Breaker state at end of run.
    pub final_breaker: BreakerState,
}

/// Everything one fleet run produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetReport {
    /// Routing-policy name.
    pub policy: String,
    /// Replica count.
    pub replicas: usize,
    /// Disturbance-scenario name.
    pub scenario: String,
    /// Total arrivals across all tenants.
    pub arrivals: usize,
    /// Requests that executed to completion.
    pub admitted: usize,
    /// Completed within deadline.
    pub served_on_time: usize,
    /// Completed after deadline.
    pub served_late: usize,
    /// Executor faults.
    pub faulted: usize,
    /// Watchdog cutoffs.
    pub stalled: usize,
    /// Total shed (all reasons, all tenants).
    pub shed: usize,
    /// Queue-drain steal events.
    pub steal_events: usize,
    /// Breaker trips across all replicas.
    pub breaker_trips: usize,
    /// Replica crashes injected by the chaos plan.
    pub crashes: usize,
    /// Gray-failure ejections performed by the router.
    pub gray_ejections: usize,
    /// Partitions injected by the chaos plan.
    pub partitions: usize,
    /// Corrupted results caught by ABFT verification, all tenants.
    pub sdc_detected: usize,
    /// Detected requests re-executed on a healthy peer.
    pub sdc_reexecuted: usize,
    /// Injected flips served silently.
    pub sdc_escaped: usize,
    /// Replicas ejected for repeated corruption detections (event count).
    pub sdc_ejections: usize,
    /// |arrivals − (admitted + shed)| — the request-accounting invariant.
    /// Zero means every arrival is accounted: served, faulted, stalled, or
    /// shed with a typed reason. Anything else is a bug.
    pub requests_unaccounted: usize,
    /// Mean time from a crash to the restarted replica's first completed
    /// request, seconds (0 when no crash recovered within the horizon).
    pub mean_recovery_s: f64,
    /// Mean latency of served requests, seconds.
    pub mean_latency_s: f64,
    /// 99th-percentile latency of served requests, seconds.
    pub p99_latency_s: f64,
    /// Per-tenant accounts, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Per-replica accounts, in replica order.
    pub replica_reports: Vec<ReplicaReport>,
    /// Retained fleet events (the most recent [`EVENT_LIMIT`]).
    pub events: Vec<FleetEvent>,
    /// Events dropped by the ring cap.
    pub events_evicted: usize,
}

impl FleetReport {
    /// Fraction of executed requests that met their deadline.
    pub fn on_time_rate(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.served_on_time as f64 / self.admitted as f64
        }
    }

    /// Fraction of arrivals shed.
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
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

// ---------------------------------------------------------------------------
// The fleet simulation
// ---------------------------------------------------------------------------

/// Router-side gray-failure state of one replica.
#[derive(Clone, Copy, Debug, PartialEq)]
enum EjectState {
    /// Full routing candidate.
    Healthy,
    /// Removed from candidacy; sits out until probation starts.
    Ejected { since: f64 },
    /// Probation: up to `left` more probe requests may be admitted;
    /// `successes` fast completions so far readmit at the probe budget.
    Probing { left: usize, successes: usize },
}

/// What one completion's slowdown sample does to a replica's [`EjectState`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum GrayVerdict {
    /// Nothing changes.
    Hold,
    /// A healthy replica's EWMA is `slow_ratio` × the healthy-peer median,
    /// past the ejection threshold.
    Eject { slow_ratio: f64 },
    /// A probe came back slow.
    ProbeFailed,
    /// A probe came back fast; the probation round needs more.
    ProbePassed,
    /// The round's last probe came back fast.
    Readmit,
}

/// The ejection / probation decision for a replica in `state` whose
/// slowdown EWMA is `ewma` after `samples_since_up` completions, the newest
/// sample being `slow_sample`. `peer_ewmas` are the EWMAs of its fully
/// healthy peers (non-finite ones are ignored); `finite` is a scratch
/// buffer. The peers are only gathered, and their median only taken, when
/// the decision can depend on it.
fn gray_verdict(
    state: EjectState,
    ewma: f64,
    samples_since_up: usize,
    slow_sample: f64,
    peer_ewmas: impl Iterator<Item = f64>,
    finite: &mut Vec<f64>,
) -> GrayVerdict {
    let decided = match state {
        EjectState::Healthy => samples_since_up < EJECT_MIN_SAMPLES,
        EjectState::Ejected { .. } => true,
        EjectState::Probing { .. } => !slow_sample.is_finite(),
    };
    if decided {
        return GrayVerdict::Hold;
    }
    finite.clear();
    finite.extend(peer_ewmas.filter(|v| v.is_finite()));
    // Never eject the last healthy replica: with no peer to compare
    // against there is no relative signal.
    if finite.is_empty() {
        return GrayVerdict::Hold;
    }
    if state == EjectState::Healthy {
        // The median is at least the minimum, and scaling by a positive
        // constant and flooring at 1e-9 are monotone even after rounding:
        // an EWMA within the band of the fastest peer is within the
        // median's, and almost every completion stops here.
        let fastest = finite.iter().copied().fold(f64::INFINITY, f64::min);
        if ewma <= EJECT_RATIO * fastest.max(1e-9) {
            return GrayVerdict::Hold;
        }
    }
    finite.sort_by(f64::total_cmp);
    let median = finite[finite.len() / 2].max(1e-9);
    match state {
        EjectState::Healthy if ewma > EJECT_RATIO * median => GrayVerdict::Eject {
            slow_ratio: ewma / median,
        },
        EjectState::Probing { .. } if slow_sample > EJECT_READMIT_RATIO * median => {
            GrayVerdict::ProbeFailed
        }
        EjectState::Probing { successes, .. } if successes + 1 < EJECT_PROBE_BUDGET => {
            GrayVerdict::ProbePassed
        }
        EjectState::Probing { .. } => GrayVerdict::Readmit,
        _ => GrayVerdict::Hold,
    }
}

/// Per-(replica, tenant) state: the shipped-curve tuner, the guard, and the
/// execution counter keying canary sampling and executor calls.
struct Lane {
    tuner: RuntimeTuner,
    guard: QosGuard,
    execs: usize,
}

struct Replica {
    queue: VecDeque<Queued>,
    busy: Option<InFlight>,
    breaker: Breaker,
    /// One lane per tenant, in tenant order.
    lanes: Vec<Lane>,
    controller: Controller,
    /// The chaos plan's gray and bit-flip windows aimed at this replica,
    /// which every started request queries.
    chaos: SilentWindows,
    /// Crashed and not yet restarted.
    down: bool,
    /// Partitioned away from the router (still executing its own queue).
    partitioned: bool,
    /// Router-side gray-failure state.
    eject: EjectState,
    /// Router-side slowdown EWMA (gray detection; separate from the
    /// controller's, which the replica itself owns).
    router_ewma: f64,
    /// Completions since start or last restart (ejection warm-up gate).
    samples_since_up: usize,
    /// Set at crash time; cleared (into the recovery-time series) by the
    /// first completion after restart.
    recovering_since: Option<f64>,
    /// Requests started while a bit-flip window was active (keys the
    /// seeded flip draw; only advances inside a window).
    flip_draws: usize,
    /// Detection strikes since the replica last earned trust (readmission
    /// or restart resets it).
    sdc_strikes: usize,
    /// Counters accumulate in place; `finish` fills in `final_breaker`.
    stats: ReplicaReport,
}

impl Replica {
    fn new(sp: &ServeParams, lanes: Vec<Lane>, chaos: SilentWindows) -> Replica {
        Replica {
            queue: VecDeque::new(),
            busy: None,
            breaker: Breaker::new(sp),
            lanes,
            controller: Controller::for_replica(sp),
            chaos,
            down: false,
            partitioned: false,
            eject: EjectState::Healthy,
            router_ewma: 1.0,
            samples_since_up: 0,
            recovering_since: None,
            flip_draws: 0,
            sdc_strikes: 0,
            stats: ReplicaReport::default(),
        }
    }

    /// Whether the router can reach the replica at all (not crashed, not
    /// partitioned). A reachable replica may still be gray-ejected.
    fn reachable(&self) -> bool {
        !self.down && !self.partitioned
    }

    /// Whether routing must treat the replica as unreachable: crashed,
    /// partitioned, ejected, or probing with the probe budget spent.
    fn route_unreachable(&self) -> bool {
        !self.reachable()
            || match self.eject {
                EjectState::Healthy => false,
                EjectState::Ejected { .. } => true,
                EjectState::Probing { left, .. } => left == 0,
            }
    }

    /// Whether the replica is a fully healthy target for migrated or
    /// stolen work (reachable and not under gray suspicion).
    fn healthy_target(&self) -> bool {
        self.reachable() && self.eject == EjectState::Healthy
    }

    fn enqueue(&mut self, req: Queued) {
        self.queue.push_back(req);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
    }
}

/// A tenant's report under construction: counters accumulate in place;
/// `finish` turns the sums into means.
#[derive(Default)]
struct TenantAccum {
    report: TenantReport,
    latency_sum: f64,
    qos_sum: f64,
}

/// A fault-free, canary-less executor used when the caller supplies fewer
/// executors than tenants.
static FALLBACK_EXECUTOR: NoFaultExecutor = NoFaultExecutor;

/// Runs the fleet simulation.
///
/// `executors[t]` decides per-request success and measures canary QoS for
/// tenant `t` (missing entries behave as fault-free, canary-less tenants);
/// `device` is the shared disturbance timeline, indexed by each replica's
/// own execution count. Never panics, whatever the specs, traces or
/// executors. The result is a pure function of the inputs — bit-identical
/// on any machine and thread count.
pub fn run_fleet(
    tenants: &[TenantSpec],
    executors: &[&dyn RequestExecutor],
    device: &DisturbedDevice,
    params: &FleetParams,
) -> FleetReport {
    let arrivals = Arrivals::generated(tenants, params.horizon_s);
    FleetSim::new(tenants, executors, device, params, arrivals)
        .run()
        .0
}

/// How one (replica, tenant) lane ended — what [`crate::serve`] reports of
/// its single lane beyond the [`FleetReport`].
pub(crate) struct LaneEnd {
    /// Curve index the lane finished on (`None` = baseline).
    pub final_rung: Option<usize>,
    /// The lane guard's full report, carrying the curve as the run ended.
    pub guard: GuardReport,
}

/// The next thing to happen, in same-instant precedence order.
enum Event {
    /// The in-flight request of this replica completes.
    Completion(usize),
    /// The next scripted chaos event fires.
    Chaos,
    /// The pending timer at this index fires.
    Timer(usize),
    /// The next arrival, of this tenant, reaches the front door.
    Arrival(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    Restart,
    Heal,
}

struct FleetTimer {
    at_s: f64,
    replica: usize,
    kind: TimerKind,
}

/// The whole fleet's state, advanced one event at a time.
pub(crate) struct FleetSim<'a> {
    device: &'a DisturbedDevice,
    params: &'a FleetParams,
    /// Per-tenant service-draw constants (device, executor, cost anchor).
    ctxs: Vec<ServiceCtx<'a>>,
    deadline: f64,
    replicas: Vec<Replica>,
    /// Finish time of each replica's in-flight request, `+∞` when idle:
    /// [`InFlight::finish_s`] again, packed so that picking the next event
    /// reads one cache line instead of every replica's state.
    finish: Vec<f64>,
    /// Reused buffer of [`FleetSim::gray_defense`]'s healthy-peer EWMAs.
    peer_ewmas: Vec<f64>,
    /// Reused buffer of [`FleetSim::on_arrival`]: which replicas the router
    /// may pick for the arrival at the door.
    open: Vec<bool>,
    tenant_acc: Vec<TenantAccum>,
    log: EventRing<FleetEvent>,
    completed: usize,
    /// Every served request's latency, summarised in fixed memory:
    /// allocated once here in `new`, never grown, whatever the run's length.
    latency: LatencySummary,
    /// Every served request's latency as well, when a test holds the
    /// summary to the sorted latencies.
    #[cfg(test)]
    raw_latencies: Option<Vec<f64>>,
    steal_events: usize,
    rr_cursor: usize,
    arrivals: Arrivals<'a>,
    /// Arrivals consumed so far; keys the power-of-two route draw.
    next_arrival: usize,
    /// Chaos machinery: the scripted event cursor, pending restart/heal
    /// timers, and recovery timing.
    next_chaos: usize,
    timers: Vec<FleetTimer>,
    recovery_times: Vec<f64>,
}

impl<'a> FleetSim<'a> {
    /// A fleet about to serve `arrivals`, a `(time, tenant)` stream in time
    /// order: the tenants' generators merged block by block, or a caller's
    /// own trace read in place. The simulator reads a tenant's name, curve,
    /// baselines and guard; [`TenantSpec::pattern`] and
    /// [`TenantSpec::arrival_seed`] are inputs of [`Arrivals::generated`]
    /// only and inert here. Arrivals are counted as they are consumed, so
    /// nothing here is sized by the stream's length.
    pub(crate) fn new(
        tenants: &'a [TenantSpec],
        executors: &'a [&'a dyn RequestExecutor],
        device: &'a DisturbedDevice,
        params: &'a FleetParams,
        arrivals: Arrivals<'a>,
    ) -> FleetSim<'a> {
        let n = params.replicas.max(1);
        let sp = &params.serve;
        let deadline = sp.deadline_s.max(1e-9);
        let ctxs: Vec<ServiceCtx<'a>> = tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| ServiceCtx {
                device,
                executor: executors.get(t).copied().unwrap_or(&FALLBACK_EXECUTOR),
                baseline_time_s: spec.baseline_time_s.max(1e-12),
                baseline_qos: spec.baseline_qos,
                stall_bound_s: sp.stall_bound_s,
            })
            .collect();
        let lanes = || -> Vec<Lane> {
            tenants
                .iter()
                .zip(&ctxs)
                .map(|(spec, ctx)| {
                    let mut tuner = ctx.new_tuner(spec.curve.clone(), sp.seed);
                    let mut guard = QosGuard::new(&spec.guard, &spec.curve);
                    premask_below_floor(&mut tuner, &mut guard, &spec.curve, spec.guard.qos_floor);
                    Lane {
                        tuner,
                        guard,
                        execs: 0,
                    }
                })
                .collect()
        };
        let replicas = params
            .chaos
            .silent_windows(n)
            .into_iter()
            .map(|windows| Replica::new(sp, lanes(), windows))
            .collect();
        let tenant_acc: Vec<TenantAccum> = tenants
            .iter()
            .map(|spec| TenantAccum {
                report: TenantReport {
                    name: spec.name.clone(),
                    mean_qos: spec.baseline_qos,
                    ..TenantReport::default()
                },
                ..TenantAccum::default()
            })
            .collect();
        FleetSim {
            device,
            params,
            ctxs,
            deadline,
            replicas,
            finish: vec![f64::INFINITY; n],
            peer_ewmas: Vec::with_capacity(n),
            open: vec![false; n],
            tenant_acc,
            log: EventRing::preallocated(EVENT_LIMIT),
            completed: 0,
            latency: LatencySummary::new(),
            #[cfg(test)]
            raw_latencies: None,
            steal_events: 0,
            rr_cursor: 0,
            arrivals,
            next_arrival: 0,
            next_chaos: 0,
            timers: Vec::new(),
            recovery_times: Vec::new(),
        }
    }

    /// Also keeps every served latency and reports their sort-based
    /// summary instead of the histogram's: the reference the histogram is
    /// held to.
    #[cfg(test)]
    pub(crate) fn keeping_raw_latencies(mut self) -> FleetSim<'a> {
        self.raw_latencies = Some(Vec::new());
        self
    }

    /// Runs the simulation to the last event.
    pub(crate) fn run(mut self) -> (FleetReport, Vec<LaneEnd>) {
        while let Some((now, event)) = self.next_event() {
            match event {
                Event::Completion(r) => self.on_completion(r, now),
                Event::Chaos => self.on_chaos(now),
                Event::Timer(ix) => self.on_timer(ix, now),
                Event::Arrival(t) => self.on_arrival(t, now),
            }
        }
        self.finish()
    }

    fn log(&mut self, time_s: f64, kind: FleetEventKind) {
        self.log.push(FleetEvent {
            time_s,
            completed: self.completed,
            kind,
        });
    }

    /// Merges the four event sources. Same-instant ties resolve completion
    /// → chaos → timer → arrival (strict `<` against each later source),
    /// so a request finishing at an arrival's instant frees its slot first.
    fn next_event(&self) -> Option<(f64, Event)> {
        let mut at = f64::INFINITY;
        let mut event = None;
        // Earliest completion across replicas (ties: lowest replica index).
        for (r, &finish_s) in self.finish.iter().enumerate() {
            if finish_s < at {
                (at, event) = (finish_s, Some(Event::Completion(r)));
            }
        }
        if let Some(e) = self.params.chaos.events().get(self.next_chaos) {
            if e.at_s < at {
                (at, event) = (e.at_s, Some(Event::Chaos));
            }
        }
        // Earliest pending timer (ties: restarts before heals, then lowest
        // replica index — unique per (replica, kind) while pending, so the
        // order is total).
        let timers = &self.timers;
        let next_t = (0..timers.len()).min_by(|&a, &b| {
            timers[a]
                .at_s
                .total_cmp(&timers[b].at_s)
                .then_with(|| timers[a].kind.cmp(&timers[b].kind))
                .then_with(|| timers[a].replica.cmp(&timers[b].replica))
        });
        if let Some(ix) = next_t.filter(|&ix| timers[ix].at_s < at) {
            (at, event) = (timers[ix].at_s, Some(Event::Timer(ix)));
        }
        if let Some((arrival_s, t)) = self.arrivals.peek() {
            if arrival_s < at {
                (at, event) = (arrival_s, Some(Event::Arrival(t)));
            }
        }
        // Nothing is due at a finite time, yet a request may be in flight
        // whose service never ends (no watchdog bound, a zero-speedup
        // point): it completes last, so that it is still accounted.
        event.map(|e| (at, e)).or_else(|| {
            let r = self.replicas.iter().position(|rep| rep.busy.is_some())?;
            Some((self.finish[r], Event::Completion(r)))
        })
    }

    /// The least-loaded fully healthy replica other than `except` that is
    /// open to new work and has queue room (ties: lowest index).
    fn pick_peer_with_room(&self, except: usize) -> Option<usize> {
        (0..self.replicas.len())
            .filter(|&j| {
                let rep = &self.replicas[j];
                j != except
                    && rep.healthy_target()
                    && rep.breaker.admits()
                    && rep.queue.len() < self.params.serve.queue_cap
            })
            .min_by_key(|&j| (self.replicas[j].queue.len(), j))
    }

    /// Starts the head-of-queue request on replica `r` if it is idle. The
    /// device state is resolved once: the controller re-selects the serving
    /// tenant's configuration for the sensed clock and the replica's
    /// pressure first, so escalation happens before the service time is
    /// drawn from the same state. Moves are counted, not logged: a ring
    /// flooded by a few percent of all arrivals would evict the breaker,
    /// crash and SDC events it exists for.
    fn start_next(&mut self, r: usize, now: f64) {
        let rep = &mut self.replicas[r];
        if rep.busy.is_some() {
            return;
        }
        let Some(req) = rep.queue.pop_front() else {
            return;
        };
        let t = req.tenant;
        let ctx = &self.ctxs[t];
        let k = rep.stats.executions;
        rep.stats.executions += 1;
        let lane = &mut rep.lanes[t];
        let tk = lane.execs;
        lane.execs += 1;

        let state = ctx.device.state_at(k);
        let backlog = rep.queue.len() + 1;
        match rep.controller.reselect(
            &mut lane.tuner,
            sensed_clock(ctx.device, &state),
            ctx.baseline_time_s,
            backlog,
        ) {
            Some(Move::Up) => rep.stats.escalations += 1,
            Some(Move::Down) => rep.stats.deescalations += 1,
            None => {}
        }

        let inflation = rep.chaos.gray_inflation_at(now);
        let draw = ctx.draw(&state, &lane.tuner, &lane.guard, tk, inflation);
        rep.controller.observe(draw.slowdown);
        if draw.rung.is_some() && fails_floor(draw.qos, lane.guard.params().qos_floor) {
            self.tenant_acc[t].report.planned_floor_breaches += 1;
        }
        // Silent corruption: inside an active bit-flip window each
        // started request consumes one seeded draw; outside a window no
        // draw state advances. The serve seed keys the draws, so the
        // whole simulation stays a function of the existing parameter
        // set.
        let flip = rep.chaos.bitflip_at(now).and_then(|w| {
            let kd = rep.flip_draws as u64;
            rep.flip_draws += 1;
            ChaosPlan::draw_flip(self.params.serve.seed, r, kd, &w)
        });
        let finish_s = now + draw.svc_s;
        self.finish[r] = finish_s;
        rep.busy = Some(InFlight {
            req,
            finish_s,
            draw,
            flip,
        });
    }

    /// Starts every idle, live replica that has queued work — a flush may
    /// have migrated requests onto idle peers.
    fn start_idle(&mut self, now: f64) {
        for j in 0..self.replicas.len() {
            if !self.replicas[j].down {
                self.start_next(j, now);
            }
        }
    }

    /// Migrates (or sheds) replica `r`'s queue after its breaker tripped or
    /// it crashed. Each request goes to the least-loaded healthy replica
    /// with room; with stealing off, or no such replica, it is shed — as a
    /// breaker casualty (`lost == false`) or as `ReplicaLost` (`lost ==
    /// true`, the crash path). Either way every request is accounted.
    /// Returns `(migrated, shed)`.
    fn flush_queue(&mut self, r: usize, lost: bool) -> (usize, usize) {
        let mut migrated = 0usize;
        let mut shed = 0usize;
        let steal = self.params.steal;
        // A migration target is never `r` itself, so its queue only shrinks.
        while let Some(q) = self.replicas[r].queue.pop_front() {
            let target = steal.then(|| self.pick_peer_with_room(r)).flatten();
            if let Some(j) = target {
                self.replicas[j].enqueue(q);
                self.replicas[j].stats.migrations_in += 1;
                migrated += 1;
            } else {
                let acc = &mut self.tenant_acc[q.tenant].report;
                if lost {
                    acc.shed_replica_lost += 1;
                } else {
                    acc.shed_breaker += 1;
                }
                shed += 1;
            }
        }
        (migrated, shed)
    }

    fn on_completion(&mut self, r: usize, now: f64) {
        let Some(b) = self.replicas[r].busy.take() else {
            return;
        };
        self.finish[r] = f64::INFINITY;
        self.completed += 1;
        let moved_to_peers = if self.sdc_tripped(r, &b, now) {
            self.discard_corrupted(r, &b, now)
        } else {
            self.settle(r, &b, now)
        };

        // Crash recovery bookkeeping: the first completion after a
        // restart closes that crash's recovery window.
        if let Some(t0) = self.replicas[r].recovering_since.take() {
            self.recovery_times.push((now - t0).max(0.0));
        }
        self.gray_defense(r, b.draw.slowdown, now);
        self.steal_into(r, now);
        self.start_next(r, now);
        // Every other idle replica has an empty queue unless this
        // completion just put work on one.
        if moved_to_peers {
            self.start_idle(now);
        }
    }

    /// Silent-data-corruption verdict: ground truth from the chaos plan
    /// meets the modelled ABFT sensitivity. A request that drew no flip
    /// touches no state here. Returns whether verification tripped.
    fn sdc_tripped(&mut self, r: usize, b: &InFlight, now: f64) -> bool {
        let Some(flip) = b.flip else {
            return false;
        };
        let sdcp = self.params.sdc;
        let t = b.req.tenant;
        if !(sdcp.protected && flip.bit >= sdcp.detect_bit_floor) {
            // Below the detection floor (or unprotected kernels): the
            // corrupted result is served silently.
            self.tenant_acc[t].report.sdc_escaped += 1;
            return false;
        }
        self.tenant_acc[t].report.sdc_detected += 1;
        self.replicas[r].stats.sdc_detections += 1;
        self.log(
            now,
            FleetEventKind::SdcDetected {
                replica: r,
                tenant: t,
                bit: flip.bit,
            },
        );
        true
    }

    /// Handles a result verification rejected. The discarded result reaches
    /// neither the tenant nor the guard's residual window nor the breaker:
    /// a corruption verdict is not evidence about promises or failure
    /// rates. Re-execute on a healthy peer within budget; past it (or with
    /// no peer able to take the request) it is accounted as faulted,
    /// keeping the arrival-accounting invariant exact. Returns whether the
    /// request was requeued on a peer.
    fn discard_corrupted(&mut self, r: usize, b: &InFlight, now: f64) -> bool {
        let t = b.req.tenant;
        let in_budget = b.req.reexecs < SDC_REEXEC_BUDGET;
        let target = in_budget.then(|| self.pick_peer_with_room(r)).flatten();
        if let Some(j) = target {
            self.replicas[j].enqueue(Queued {
                reexecs: b.req.reexecs + 1,
                ..b.req
            });
            self.tenant_acc[t].report.sdc_reexecuted += 1;
            self.log(
                now,
                FleetEventKind::SdcReexecuted {
                    replica: r,
                    target: j,
                    tenant: t,
                },
            );
        } else {
            self.tenant_acc[t].report.faulted += 1;
        }
        // Repeated detections hand the replica to the existing gray
        // eject → probe → readmit machinery. Never eject the last
        // healthy replica.
        self.replicas[r].sdc_strikes += 1;
        let strikes = self.replicas[r].sdc_strikes;
        if strikes >= SDC_EJECT_AFTER
            && self.replicas[r].eject == EjectState::Healthy
            && (0..self.replicas.len()).any(|j| j != r && self.replicas[j].healthy_target())
        {
            let rep = &mut self.replicas[r];
            rep.eject = EjectState::Ejected { since: now };
            rep.stats.sdc_ejections += 1;
            rep.sdc_strikes = 0;
            self.log(
                now,
                FleetEventKind::SdcEjected {
                    replica: r,
                    strikes,
                },
            );
        }
        target.is_some()
    }

    /// Accounts a verified completion, feeds the replica's breaker (a trip
    /// migrates the queue) and lets the guard verify the canaried promise
    /// before anything re-selects. Returns whether a trip migrated queued
    /// requests onto peers.
    fn settle(&mut self, r: usize, b: &InFlight, now: f64) -> bool {
        let t = b.req.tenant;
        let acc = &mut self.tenant_acc[t];
        let outcome = b.outcome();
        match outcome {
            RequestOutcome::Stalled => acc.report.stalled += 1,
            RequestOutcome::Faulted => acc.report.faulted += 1,
            served => {
                if served == RequestOutcome::ServedLate {
                    acc.report.served_late += 1;
                } else {
                    acc.report.served_on_time += 1;
                }
                let latency = b.latency();
                acc.latency_sum += latency;
                acc.qos_sum += b.draw.qos;
                self.latency.record(latency);
                #[cfg(test)]
                if let Some(raw) = &mut self.raw_latencies {
                    raw.push(latency);
                }
            }
        }

        let failure = outcome != RequestOutcome::ServedOnTime;
        let mut migrated_any = false;
        match self.replicas[r].breaker.on_result(failure, now) {
            Some(BreakerTransition::Tripped { failures }) => {
                self.replicas[r].stats.breaker_trips += 1;
                let (migrated, shed) = self.flush_queue(r, false);
                migrated_any = migrated > 0;
                self.log(
                    now,
                    FleetEventKind::BreakerTripped {
                        replica: r,
                        failures,
                        migrated,
                        shed,
                    },
                );
            }
            Some(BreakerTransition::Closed) => {
                self.log(now, FleetEventKind::BreakerClosed { replica: r });
            }
            None => {}
        }

        let rep = &mut self.replicas[r];
        let lane = &mut rep.lanes[t];
        let conviction = verify_canary(
            &mut lane.tuner,
            &mut lane.guard,
            b,
            now,
            self.completed,
            rep.controller.required(),
        );
        if let Some(c) = conviction {
            self.log(
                now,
                FleetEventKind::Quarantined {
                    replica: r,
                    tenant: t,
                    rung: c.rung,
                    repaired_qos: c.repaired_qos,
                },
            );
            if c.exact_fallback {
                self.log(
                    now,
                    FleetEventKind::ExactFallback {
                        replica: r,
                        tenant: t,
                    },
                );
            }
        }
        migrated_any
    }

    /// Router-side gray defense: fold this completion's slowdown sample
    /// into the replica's EWMA (NaN-safe), then run the ejection /
    /// probation state machine against the healthy-peer median. Detection
    /// is relative, so fleet-wide disturbances (which slow every replica
    /// together) never eject anyone.
    fn gray_defense(&mut self, r: usize, slow_sample: f64, now: f64) {
        if self.replicas.len() < 2 {
            return;
        }
        if slow_sample.is_finite() {
            let rep = &mut self.replicas[r];
            let next = (1.0 - EJECT_ALPHA) * rep.router_ewma + EJECT_ALPHA * slow_sample;
            rep.router_ewma = if next.is_finite() { next } else { slow_sample };
            rep.samples_since_up += 1;
        }
        let rep = &self.replicas[r];
        let peers = self
            .replicas
            .iter()
            .enumerate()
            .filter(|&(j, peer)| j != r && peer.healthy_target())
            .map(|(_, peer)| peer.router_ewma);
        let verdict = gray_verdict(
            rep.eject,
            rep.router_ewma,
            rep.samples_since_up,
            slow_sample,
            peers,
            &mut self.peer_ewmas,
        );
        let rep = &mut self.replicas[r];
        match verdict {
            GrayVerdict::Hold => {}
            GrayVerdict::Eject { slow_ratio } => {
                rep.eject = EjectState::Ejected { since: now };
                rep.stats.gray_ejections += 1;
                self.log(
                    now,
                    FleetEventKind::GrayEjected {
                        replica: r,
                        slow_ratio,
                    },
                );
            }
            // Back to the bench until the next probation round.
            GrayVerdict::ProbeFailed => rep.eject = EjectState::Ejected { since: now },
            GrayVerdict::ProbePassed => {
                if let EjectState::Probing { successes, .. } = &mut rep.eject {
                    *successes += 1;
                }
            }
            GrayVerdict::Readmit => {
                rep.eject = EjectState::Healthy;
                // The EWMA is contaminated by the gray window;
                // restart trust fresh.
                rep.router_ewma = 1.0;
                rep.sdc_strikes = 0;
                self.log(now, FleetEventKind::GrayReadmitted { replica: r });
            }
        }
    }

    /// Queue drained: steal the back half of the longest reachable peer
    /// queue. Only a fully healthy replica steals (never into a gray or
    /// partitioned one), and never across a partition.
    fn steal_into(&mut self, r: usize, now: f64) {
        let thief = &self.replicas[r];
        if !(thief.queue.is_empty()
            && self.params.steal
            && thief.breaker.state() == BreakerState::Closed
            && thief.healthy_target())
        {
            return;
        }
        let victim = (0..self.replicas.len())
            .filter(|&j| {
                j != r && self.replicas[j].reachable() && self.replicas[j].queue.len() >= 2
            })
            .max_by_key(|&j| (self.replicas[j].queue.len(), usize::MAX - j));
        let Some(v) = victim else { return };
        let moved = self.replicas[v].queue.len() / 2;
        // The thief's queue is empty: filling it from the front with the
        // victim's back keeps the stolen requests in their order.
        for _ in 0..moved {
            if let Some(q) = self.replicas[v].queue.pop_back() {
                self.replicas[r].queue.push_front(q);
            }
        }
        self.replicas[v].stats.steals_out += moved;
        let thief = &mut self.replicas[r];
        thief.stats.steals_in += moved;
        thief.stats.max_queue_depth = thief.stats.max_queue_depth.max(thief.queue.len());
        self.steal_events += 1;
        self.log(
            now,
            FleetEventKind::Steal {
                thief: r,
                victim: v,
                moved,
            },
        );
    }

    fn on_chaos(&mut self, now: f64) {
        let ev = self.params.chaos.events()[self.next_chaos];
        self.next_chaos += 1;
        let r = ev.replica;
        if r >= self.replicas.len() || self.replicas[r].down {
            return;
        }
        match ev.kind {
            ChaosKind::Crash { restart_after_s } => {
                // Nothing touches a down replica's control state (breaker,
                // controller, lanes) until its restart timer fires, so the
                // warm restart resumes from it as the crash left it.
                self.finish[r] = f64::INFINITY;
                let rep = &mut self.replicas[r];
                let killed = match rep.busy.take() {
                    Some(victim) => {
                        self.tenant_acc[victim.req.tenant].report.shed_replica_lost += 1;
                        1
                    }
                    None => 0,
                };
                rep.down = true;
                rep.stats.crashes += 1;
                rep.recovering_since = Some(now);
                let (migrated, shed) = self.flush_queue(r, true);
                self.timers.push(FleetTimer {
                    at_s: now + restart_after_s.max(0.0),
                    replica: r,
                    kind: TimerKind::Restart,
                });
                self.log(
                    now,
                    FleetEventKind::ReplicaCrashed {
                        replica: r,
                        killed,
                        migrated,
                        shed,
                    },
                );
                self.start_idle(now);
            }
            // Silent by design: gray inflation and corruption windows reach
            // requests through each replica's `SilentWindows` +
            // `draw_flip` inside start_next; the router has to notice the
            // slowdown on its own, and only the ABFT verdict at completion
            // makes a flip observable.
            ChaosKind::Gray { .. } | ChaosKind::BitFlip { .. } => {}
            ChaosKind::Partition {
                len_s,
                lost_messages,
            } => {
                let rep = &mut self.replicas[r];
                if rep.partitioned {
                    return;
                }
                rep.partitioned = true;
                rep.stats.partitions += 1;
                let mut lost = 0usize;
                while lost < lost_messages {
                    let Some(q) = rep.queue.pop_back() else { break };
                    self.tenant_acc[q.tenant].report.shed_replica_lost += 1;
                    lost += 1;
                }
                self.timers.push(FleetTimer {
                    at_s: now + len_s,
                    replica: r,
                    kind: TimerKind::Heal,
                });
                self.log(now, FleetEventKind::Partitioned { replica: r, lost });
            }
        }
    }

    fn on_timer(&mut self, ix: usize, now: f64) {
        let timer = self.timers.swap_remove(ix);
        let r = timer.replica;
        if timer.kind == TimerKind::Heal {
            self.replicas[r].partitioned = false;
            self.log(now, FleetEventKind::PartitionHealed { replica: r });
            return;
        }
        let rep = &mut self.replicas[r];
        rep.down = false;
        // Cold or warm, the router's trust history starts fresh.
        rep.router_ewma = 1.0;
        rep.samples_since_up = 0;
        rep.sdc_strikes = 0;
        // Warm restart: breaker state, controller and guards carry over as
        // the crash left them; the process restarts its probe accounting and
        // rebuilds each tuner over its (possibly repaired) curve.
        rep.breaker.restart();
        let required = rep.controller.required();
        let mut inherited = 0usize;
        for (lane, ctx) in rep.lanes.iter_mut().zip(&self.ctxs) {
            let old = &lane.tuner;
            let mut tuner = ctx.new_tuner(old.curve().clone(), self.params.serve.seed);
            // Re-apply the convictions instead of re-learning them: the
            // guard's Quarantined trust keeps `observe` from ever
            // re-convicting these points.
            for ix in (0..old.curve().len()).filter(|&ix| old.is_quarantined(ix)) {
                tuner.quarantine(ix);
                inherited += 1;
            }
            tuner.adapt_to(required);
            lane.tuner = tuner;
        }
        self.log(
            now,
            FleetEventKind::ReplicaRestarted {
                replica: r,
                inherited_quarantined: inherited,
            },
        );
    }

    fn on_arrival(&mut self, t: usize, now: f64) {
        self.arrivals.advance();
        self.next_arrival += 1;
        self.tenant_acc[t].report.arrivals += 1;

        // Cooldowns elapse on arrival ticks, in replica order; crashed
        // replicas are frozen until their restart timer fires. Ejected
        // replicas whose sit-out elapsed enter probation here too.
        for r in 0..self.replicas.len() {
            let rep = &mut self.replicas[r];
            if rep.down {
                self.open[r] = false;
                continue;
            }
            if rep.breaker.tick(now) {
                self.log(now, FleetEventKind::BreakerHalfOpen { replica: r });
            }
            if let EjectState::Ejected { since } = self.replicas[r].eject {
                if now >= since + EJECT_PROBE_AFTER_S {
                    self.replicas[r].eject = EjectState::Probing {
                        left: EJECT_PROBE_BUDGET,
                        successes: 0,
                    };
                    self.log(now, FleetEventKind::GrayProbing { replica: r });
                }
            }
            let rep = &self.replicas[r];
            self.open[r] = rep.breaker.admits() && !rep.route_unreachable();
        }

        let replicas = &self.replicas;
        let view = |i: usize| {
            let rep = &replicas[i];
            ReplicaView {
                queue_len: rep.queue.len(),
                busy: rep.busy.is_some(),
                breaker_open: !rep.breaker.admits(),
                degradation: rep.lanes[t].tuner.current_index().map_or(0, |ix| ix + 1),
                unreachable: rep.route_unreachable(),
            }
        };
        let open = &self.open;
        let key = splitmix64(
            self.params.route_seed ^ (self.next_arrival as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let chosen = select_replica(
            self.params.policy,
            replicas.len(),
            |i| open[i],
            view,
            &mut self.rr_cursor,
            key,
        );

        let acc = &mut self.tenant_acc[t].report;
        let Some(r) = chosen else {
            // Every breaker open: shed at the fleet door.
            acc.shed_breaker += 1;
            return;
        };
        // Replica-level admission: bounded queue, then deadline
        // feasibility under the replica's observed slowdown and the
        // queued tenants' current configurations.
        let rep = &mut self.replicas[r];
        if rep.queue.len() >= self.params.serve.queue_cap {
            acc.shed_queue_full += 1;
            return;
        }
        let est = |tenant: usize| -> f64 {
            rep.controller.slowdown() * self.ctxs[tenant].baseline_time_s
                / rep.lanes[tenant].tuner.current_speedup().max(1e-9)
        };
        let mut wait = rep
            .busy
            .as_ref()
            .map_or(0.0, |b| (b.finish_s - now).max(0.0));
        for q in &rep.queue {
            wait += est(q.tenant);
        }
        let deadline_s = now + self.deadline;
        if now + wait + est(t) > deadline_s + 1e-12 {
            acc.shed_deadline += 1;
            return;
        }
        rep.breaker.note_admitted();
        // A probing (previously gray-ejected) replica spends one probe
        // slot per admitted request; at zero it leaves candidacy again
        // until its probes complete.
        if let EjectState::Probing { left, .. } = &mut rep.eject {
            *left = left.saturating_sub(1);
        }
        rep.enqueue(Queued {
            tenant: t,
            arrival_s: now,
            deadline_s,
            reexecs: 0,
        });
        self.start_next(r, now);
    }

    fn finish(mut self) -> (FleetReport, Vec<LaneEnd>) {
        let mut arrivals = self.next_arrival;
        let tenant_acc = &mut self.tenant_acc;
        self.arrivals.for_each_unread(|t| {
            tenant_acc[t].report.arrivals += 1;
            arrivals += 1;
        });
        let (mean_latency_s, p99_latency_s) = (self.latency.mean(), self.latency.p99());
        #[cfg(test)]
        let (mean_latency_s, p99_latency_s) = match &mut self.raw_latencies {
            Some(raw) => crate::obs::sorted_summary(raw),
            None => (mean_latency_s, p99_latency_s),
        };

        let mut tenant_reports: Vec<TenantReport> = self
            .tenant_acc
            .into_iter()
            .map(|acc| {
                let mut tr = acc.report;
                let served = tr.served_on_time + tr.served_late;
                tr.admitted = served + tr.faulted + tr.stalled;
                if served > 0 {
                    tr.mean_latency_s = acc.latency_sum / served as f64;
                    tr.mean_qos = acc.qos_sum / served as f64;
                }
                tr
            })
            .collect();
        // Aggregate guard outcomes per tenant across replicas.
        let mut replica_reports = Vec::with_capacity(self.replicas.len());
        let mut lanes = Vec::with_capacity(self.replicas.len() * tenant_reports.len());
        for rep in self.replicas {
            for (lane, tr) in rep.lanes.into_iter().zip(&mut tenant_reports) {
                tr.exact_fallback_replicas += usize::from(lane.guard.exact_fallback());
                // The guard's report carries the curve as the run ended:
                // every convicted point's promise repaired in place.
                let guard = lane.guard.into_report(lane.tuner.curve().clone());
                tr.canaries += guard.canaries;
                tr.canary_misses += guard.misses;
                tr.observed_floor_breaches += guard.floor_breaches;
                tr.quarantined_points += guard.quarantined.len();
                lanes.push(LaneEnd {
                    final_rung: lane.tuner.current_index(),
                    guard,
                });
            }
            replica_reports.push(ReplicaReport {
                final_breaker: rep.breaker.state(),
                ..rep.stats
            });
        }

        let tsum = |f: fn(&TenantReport) -> usize| tenant_reports.iter().map(f).sum::<usize>();
        let rsum = |f: fn(&ReplicaReport) -> usize| replica_reports.iter().map(f).sum::<usize>();
        let admitted = tsum(|t| t.admitted);
        let shed =
            tsum(|t| t.shed_queue_full + t.shed_deadline + t.shed_breaker + t.shed_replica_lost);
        let (events, events_evicted) = self.log.into_parts();
        let report = FleetReport {
            policy: self.params.policy.name().to_string(),
            replicas: replica_reports.len(),
            scenario: self.device.scenario().name().to_string(),
            arrivals,
            admitted,
            served_on_time: tsum(|t| t.served_on_time),
            served_late: tsum(|t| t.served_late),
            faulted: tsum(|t| t.faulted),
            stalled: tsum(|t| t.stalled),
            shed,
            steal_events: self.steal_events,
            breaker_trips: rsum(|r| r.breaker_trips),
            crashes: rsum(|r| r.crashes),
            gray_ejections: rsum(|r| r.gray_ejections),
            partitions: rsum(|r| r.partitions),
            sdc_detected: tsum(|t| t.sdc_detected),
            sdc_reexecuted: tsum(|t| t.sdc_reexecuted),
            sdc_escaped: tsum(|t| t.sdc_escaped),
            sdc_ejections: rsum(|r| r.sdc_ejections),
            requests_unaccounted: arrivals.abs_diff(admitted + shed),
            mean_recovery_s: mean(&self.recovery_times),
            mean_latency_s,
            p99_latency_s,
            tenants: tenant_reports,
            replica_reports,
            events,
            events_evicted,
        };
        (report, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosEvent;
    use crate::config::Config;
    use crate::guard::{GuardVerdict, MiscalibratedExecutor};
    use crate::pareto::TradeoffPoint;
    use crate::serve::{generate_arrivals, ScriptedFaultExecutor};
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

    fn idle_device() -> DisturbedDevice {
        DisturbedDevice::tx2(Scenario::new(
            "idle",
            FrequencyLadder::tx2_gpu(),
            usize::MAX / 2,
            0,
        ))
    }

    fn tenant(name: &str, rate: f64, base: f64, seed: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            curve: curve(&[1.4, 1.8, 2.2]),
            baseline_time_s: base,
            baseline_qos: 100.0,
            pattern: TrafficPattern::Steady { rate_rps: rate },
            arrival_seed: seed,
            guard: GuardParams {
                qos_floor: 80.0,
                ..GuardParams::default()
            },
        }
    }

    #[test]
    fn merged_arrivals_are_sorted_and_deterministic() {
        let tenants = vec![tenant("a", 5.0, 0.02, 1), tenant("b", 3.0, 0.02, 2)];
        let m1 = fleet_arrivals(&tenants, 20.0);
        let m2 = fleet_arrivals(&tenants, 20.0);
        assert_eq!(m1.len(), m2.len());
        assert!(m1
            .windows(2)
            .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 <= w[1].1)));
        assert!(m1.iter().any(|&(_, t)| t == 0) && m1.iter().any(|&(_, t)| t == 1));
        assert!(m1
            .iter()
            .zip(m2.iter())
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1));
    }

    #[test]
    fn merged_arrivals_equal_the_concatenate_and_stable_sort_reference() {
        // Tenants 0 and 2 share pattern and seed, so every one of their
        // timestamps ties across tenants; tenant 1 never sends anything.
        let roster = [
            tenant("a", 40.0, 0.02, 5),
            tenant("idle", 0.0, 0.02, 6),
            tenant("twin", 40.0, 0.02, 5),
            TenantSpec {
                pattern: TrafficPattern::Spike {
                    base_rps: 5.0,
                    spike_rps: 80.0,
                    at_s: 3.0,
                    len_s: 1.0,
                },
                ..tenant("spiky", 0.0, 0.02, 7)
            },
        ];
        for (tenants, horizon_s) in [
            (&roster[..], 10.0),
            (&roster[..], 0.0),
            (&roster[..0], 10.0),
        ] {
            let mut reference: Vec<(f64, usize)> = Vec::new();
            for (t, spec) in tenants.iter().enumerate() {
                let trace = generate_arrivals(&spec.pattern, horizon_s, spec.arrival_seed);
                reference.extend(trace.times.into_iter().map(|ts| (ts, t)));
            }
            reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let merged = fleet_arrivals(tenants, horizon_s);
            assert_eq!(merged.len(), reference.len());
            assert!(merged
                .iter()
                .zip(&reference)
                .all(|(m, r)| m.0.to_bits() == r.0.to_bits() && m.1 == r.1));
            if horizon_s > 0.0 && !tenants.is_empty() {
                let ties = merged.windows(2).filter(|w| w[0].0 == w[1].0).count();
                assert!(ties > 100, "the twins must tie: {ties}");
                assert!(merged.iter().all(|&(_, t)| t != 1));
            } else {
                assert!(merged.is_empty());
            }
        }
    }

    /// The reference decision: gather every finite healthy peer, sort,
    /// compare against the median — whatever the state.
    fn sort_and_median_verdict(
        state: EjectState,
        ewma: f64,
        samples_since_up: usize,
        slow_sample: f64,
        peer_ewmas: &[f64],
    ) -> GrayVerdict {
        let mut peers: Vec<f64> = peer_ewmas
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if peers.is_empty() {
            return GrayVerdict::Hold;
        }
        peers.sort_by(f64::total_cmp);
        let median = peers[peers.len() / 2].max(1e-9);
        match state {
            EjectState::Healthy
                if samples_since_up >= EJECT_MIN_SAMPLES && ewma > EJECT_RATIO * median =>
            {
                GrayVerdict::Eject {
                    slow_ratio: ewma / median,
                }
            }
            EjectState::Probing { .. } if !slow_sample.is_finite() => GrayVerdict::Hold,
            EjectState::Probing { .. } if slow_sample > EJECT_READMIT_RATIO * median => {
                GrayVerdict::ProbeFailed
            }
            EjectState::Probing { successes, .. } if successes + 1 < EJECT_PROBE_BUDGET => {
                GrayVerdict::ProbePassed
            }
            EjectState::Probing { .. } => GrayVerdict::Readmit,
            _ => GrayVerdict::Hold,
        }
    }

    #[test]
    fn gray_verdict_decides_what_the_sort_and_median_reference_decides() {
        const VALUES: [f64; 16] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            1e-12,
            0.4,
            0.9,
            1.0,
            1.1,
            2.4,
            2.6,
            3.0,
            7.5,
            40.0,
            1e300,
        ];
        let states = [
            EjectState::Healthy,
            EjectState::Ejected { since: 1.0 },
            EjectState::Probing {
                left: 2,
                successes: 0,
            },
            EjectState::Probing {
                left: 0,
                successes: EJECT_PROBE_BUDGET - 1,
            },
        ];
        let mut scratch = Vec::new();
        let mut seen = [0usize; 5];
        for case in 0..40_000u64 {
            let mut draws = (0..).map(|i| splitmix64(case.wrapping_mul(0x9E37_79B9) ^ i) as usize);
            let mut draw = |n: usize| draws.next().unwrap_or(0) % n;
            // No healthy peer, a single one, and up to seven.
            let peers: Vec<f64> = (0..draw(8)).map(|_| VALUES[draw(16)]).collect();
            let state = states[draw(4)];
            let ewma = VALUES[draw(16)];
            let slow_sample = VALUES[draw(16)];
            let samples_since_up = EJECT_MIN_SAMPLES - 1 + draw(3);
            let verdict = gray_verdict(
                state,
                ewma,
                samples_since_up,
                slow_sample,
                peers.iter().copied(),
                &mut scratch,
            );
            let reference =
                sort_and_median_verdict(state, ewma, samples_since_up, slow_sample, &peers);
            assert_eq!(
                verdict, reference,
                "{state:?} ewma {ewma:e} after {samples_since_up}, sample {slow_sample}, peers {peers:?}"
            );
            seen[match verdict {
                GrayVerdict::Hold => 0,
                GrayVerdict::Eject { .. } => 1,
                GrayVerdict::ProbeFailed => 2,
                GrayVerdict::ProbePassed => 3,
                GrayVerdict::Readmit => 4,
            }] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "every verdict is reached: {seen:?}"
        );
    }

    #[test]
    fn histogram_summary_matches_the_sorted_latencies() {
        let horizon_s = 60.0;
        let tenants = vec![tenant("a", 70.0, 0.02, 31), tenant("b", 50.0, 0.03, 32)];
        let execs: Vec<MiscalibratedExecutor> = [[97.0, 96.0, 94.0], [97.0, 96.0, 85.0]]
            .iter()
            .enumerate()
            .map(|(t, honest)| MiscalibratedExecutor {
                honest_qos: honest.to_vec(),
                jitter: 0.3,
                seed: 0x0B5 ^ t as u64,
            })
            .collect();
        let refs: Vec<&dyn RequestExecutor> =
            execs.iter().map(|e| e as &dyn RequestExecutor).collect();
        let device = idle_device();
        let chaos = ChaosPlan::campaign(6, horizon_s, 4, 3, 2, 2).with_bitflip_campaign(
            7,
            horizon_s,
            4,
            4,
            0.05,
            SdcParams::default().detect_bit_floor,
        );
        for policy in RouterPolicy::ALL {
            let params = FleetParams {
                replicas: 4,
                policy,
                horizon_s,
                serve: ServeParams {
                    deadline_s: 0.3,
                    queue_cap: 16,
                    ..ServeParams::default()
                },
                chaos: chaos.clone(),
                ..FleetParams::default()
            };
            let mut histogram = run_fleet(&tenants, &refs, &device, &params);
            let sorted = FleetSim::new(
                &tenants,
                &refs,
                &device,
                &params,
                Arrivals::generated(&tenants, horizon_s),
            )
            .keeping_raw_latencies()
            .run()
            .0;
            assert!(
                histogram.served_on_time + histogram.served_late > 5000
                    && histogram.crashes > 0
                    && histogram.sdc_detected + histogram.sdc_escaped > 0,
                "{policy:?}: the run must serve under the chaos paths"
            );
            let (mean, p99) = (histogram.mean_latency_s, histogram.p99_latency_s);
            assert!(
                (mean - sorted.mean_latency_s).abs() <= 1e-9 * sorted.mean_latency_s,
                "{policy:?}: mean {mean} against {}",
                sorted.mean_latency_s
            );
            assert!(
                sorted.p99_latency_s <= p99 && p99 <= sorted.p99_latency_s * (1.0 + 1.0 / 1024.0),
                "{policy:?}: p99 {p99} against {}",
                sorted.p99_latency_s
            );
            // A bucket edge is almost never a sample: the reference is the sort.
            assert_ne!(p99, sorted.p99_latency_s, "{policy:?}");
            histogram.mean_latency_s = sorted.mean_latency_s;
            histogram.p99_latency_s = sorted.p99_latency_s;
            assert_eq!(histogram.to_json(), sorted.to_json(), "{policy:?}");
        }
    }

    #[test]
    fn streamed_arrivals_run_bit_identical_to_the_materialised_stream() {
        let horizon_s = 100.0;
        let tenants = vec![
            tenant("a", 60.0, 0.02, 21),
            TenantSpec {
                pattern: TrafficPattern::Bursty {
                    base_rps: 20.0,
                    burst_rps: 90.0,
                    period_s: 10.0,
                    duty: 0.3,
                },
                ..tenant("bursty", 0.0, 0.03, 22)
            },
            // Same pattern and seed as "a": every one of its arrivals ties
            // across tenants, block boundaries included.
            tenant("twin", 60.0, 0.02, 21),
        ];
        // The twin's curve over-promises its deepest rung.
        let execs: Vec<MiscalibratedExecutor> =
            [[97.0, 96.0, 94.0], [97.0, 96.0, 94.0], [97.0, 96.0, 85.0]]
                .iter()
                .enumerate()
                .map(|(t, honest)| MiscalibratedExecutor {
                    honest_qos: honest.to_vec(),
                    jitter: 0.3,
                    seed: 0xD1F ^ t as u64,
                })
                .collect();
        let refs: Vec<&dyn RequestExecutor> =
            execs.iter().map(|e| e as &dyn RequestExecutor).collect();
        let device = idle_device();
        let chaos = ChaosPlan::campaign(4, horizon_s, 4, 3, 2, 2).with_bitflip_campaign(
            5,
            horizon_s,
            4,
            4,
            0.05,
            SdcParams::default().detect_bit_floor,
        );
        let stream = fleet_arrivals(&tenants, horizon_s);
        assert!(
            stream.len() > 3 * ARRIVAL_BLOCK,
            "{} arrivals",
            stream.len()
        );
        for policy in RouterPolicy::ALL {
            let params = FleetParams {
                replicas: 4,
                policy,
                horizon_s,
                serve: ServeParams {
                    deadline_s: 0.3,
                    queue_cap: 16,
                    ..ServeParams::default()
                },
                chaos: chaos.clone(),
                ..FleetParams::default()
            };
            let streamed = run_fleet(&tenants, &refs, &device, &params);
            let materialised = FleetSim::new(
                &tenants,
                &refs,
                &device,
                &params,
                Arrivals::materialised(stream.clone()),
            )
            .run()
            .0;
            assert_eq!(streamed.to_json(), materialised.to_json(), "{policy:?}");
            assert_eq!(streamed.arrivals, stream.len());
            assert_eq!(streamed.requests_unaccounted, 0);
            assert!(
                streamed.crashes > 0
                    && streamed.gray_ejections > 0
                    && streamed.sdc_detected + streamed.sdc_escaped > 0,
                "{policy:?}: the run must exercise the chaos paths"
            );
        }
    }

    #[test]
    fn warm_restart_restores_breaker_convictions_and_controller() {
        let tenants = vec![tenant("a", 5.0, 0.02, 41)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let params = FleetParams {
            replicas: 2,
            chaos: ChaosPlan::scripted([ChaosEvent {
                at_s: 1.0,
                replica: 0,
                kind: ChaosKind::Crash {
                    restart_after_s: 0.5,
                },
            }]),
            ..FleetParams::default()
        };
        let device = idle_device();
        let mut sim = FleetSim::new(&tenants, &execs, &device, &params, Arrivals::trace(&[]));
        // Before the crash: breaker open until 2.9 s, point 1 convicted,
        // controller escalated.
        let rep = &mut sim.replicas[0];
        for _ in 0..params.serve.breaker_threshold {
            rep.breaker.on_result(true, 0.9);
        }
        let lane = &mut rep.lanes[0];
        for k in 0..3 {
            let promised = lane.tuner.curve().points()[1].qos;
            if let GuardVerdict::Quarantine { rung, .. } =
                lane.guard.observe(0.5, k, 1, promised, promised - 10.0)
            {
                lane.tuner.quarantine(rung);
            }
        }
        assert!(lane.tuner.is_quarantined(1));
        rep.controller.applied_required = 1.75;
        rep.controller.slow_ewma = 1.5;

        sim.on_chaos(1.0);
        assert!(sim.replicas[0].down);
        assert_eq!(sim.timers.len(), 1, "the crash schedules one restart");
        sim.on_timer(0, 1.5);

        let rep = &sim.replicas[0];
        assert!(!rep.down);
        assert_eq!(rep.breaker.state(), BreakerState::Open);
        assert!(!rep.breaker.admits());
        assert!(rep.lanes[0].tuner.is_quarantined(1));
        assert!(!rep.lanes[0].tuner.is_quarantined(0));
        assert_eq!(rep.controller.applied_required, 1.75);
        assert_eq!(rep.controller.slow_ewma, 1.5);
        let (events, _) = sim.log.into_parts();
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(FleetEventKind::ReplicaRestarted {
                replica: 0,
                inherited_quarantined: 1,
            })
        ));
        // The guard kept across the crash still holds the conviction: more
        // misses on the point are inert.
        let mut guard = sim.replicas[0].lanes[0].guard.clone();
        assert_eq!(guard.observe(2.0, 9, 1, 96.0, 50.0), GuardVerdict::Ok);
    }

    #[test]
    fn light_load_serves_every_tenant_on_time() {
        let tenants = vec![
            tenant("a", 4.0, 0.02, 11),
            tenant("b", 3.0, 0.03, 12),
            tenant("c", 2.0, 0.04, 13),
        ];
        let execs: Vec<&dyn RequestExecutor> =
            vec![&NoFaultExecutor, &NoFaultExecutor, &NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 3,
                horizon_s: 30.0,
                ..FleetParams::default()
            },
        );
        assert!(r.arrivals > 100);
        assert_eq!(r.served_on_time, r.admitted, "light load is all on-time");
        assert_eq!(r.shed, 0);
        assert_eq!(r.breaker_trips, 0);
        for t in &r.tenants {
            assert_eq!(t.served_on_time, t.arrivals, "tenant {}", t.name);
            assert_eq!(t.planned_floor_breaches, 0);
            assert!((t.on_time_rate() - 1.0).abs() < 1e-12);
        }
        let execs_total: usize = r.replica_reports.iter().map(|x| x.executions).sum();
        assert_eq!(execs_total, r.admitted);
    }

    #[test]
    fn every_policy_is_deterministic_and_partitions_arrivals() {
        let tenants = vec![tenant("a", 30.0, 0.05, 3), tenant("b", 20.0, 0.02, 4)];
        for policy in RouterPolicy::ALL {
            let run = || {
                let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor, &NoFaultExecutor];
                run_fleet(
                    &tenants,
                    &execs,
                    &idle_device(),
                    &FleetParams {
                        replicas: 3,
                        policy,
                        horizon_s: 20.0,
                        serve: ServeParams {
                            deadline_s: 0.4,
                            ..ServeParams::default()
                        },
                        ..FleetParams::default()
                    },
                )
            };
            let a = run();
            let b = run();
            assert_eq!(a.to_json(), b.to_json(), "{policy:?} must be deterministic");
            let shed_sum: usize = a
                .tenants
                .iter()
                .map(|t| t.shed_queue_full + t.shed_deadline + t.shed_breaker)
                .sum();
            assert_eq!(
                a.arrivals,
                a.admitted + shed_sum,
                "{policy:?}: arrivals must partition into outcomes"
            );
            assert_eq!(a.policy, policy.name());
        }
    }

    #[test]
    fn overload_escalates_and_sheds_rather_than_serving_late() {
        // 2 replicas with combined capacity 40 rps at baseline, offered
        // 200: even the deepest rung (2.2×) cannot absorb it all, so the
        // ladder escalates and the overflow sheds at admission.
        let tenants = vec![tenant("hot", 200.0, 0.05, 5)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                horizon_s: 15.0,
                serve: ServeParams {
                    deadline_s: 0.6,
                    queue_cap: 12,
                    ..ServeParams::default()
                },
                ..FleetParams::default()
            },
        );
        let esc: usize = r.replica_reports.iter().map(|x| x.escalations).sum();
        assert!(esc >= 1, "overload must escalate the ladder");
        assert!(r.shed > 0, "overload must shed");
        assert!(
            r.on_time_rate() > 0.8,
            "admitted work stays mostly on-time: {}",
            r.on_time_rate()
        );
    }

    #[test]
    fn breaker_trips_migrate_queued_work_instead_of_shedding() {
        // One tenant, fault burst on per-(replica, tenant) execution
        // indices: replicas trip around the same window. With stealing on,
        // queued requests migrate instead of being shed.
        let exec = ScriptedFaultExecutor {
            windows: vec![(30, 4)],
        };
        let tenants = vec![tenant("a", 30.0, 0.05, 6)];
        let execs: Vec<&dyn RequestExecutor> = vec![&exec];
        let base = FleetParams {
            replicas: 2,
            horizon_s: 20.0,
            serve: ServeParams {
                deadline_s: 0.6,
                cooldown_s: 0.5,
                ..ServeParams::default()
            },
            ..FleetParams::default()
        };
        let r = run_fleet(&tenants, &execs, &idle_device(), &base);
        assert!(r.breaker_trips >= 1, "fault burst must trip a breaker");
        let migrations: usize = r.replica_reports.iter().map(|x| x.migrations_in).sum();
        let trip_events: Vec<&FleetEvent> = r
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::BreakerTripped { .. }))
            .collect();
        assert!(!trip_events.is_empty());
        // Every replica recovers by the end of the quiet tail.
        for rep in &r.replica_reports {
            assert_eq!(rep.final_breaker, BreakerState::Closed);
        }
        // With stealing disabled the same scenario sheds what migration
        // would have saved.
        let r_nosteal = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                steal: false,
                ..base
            },
        );
        let shed_b: usize = r_nosteal.tenants.iter().map(|t| t.shed_breaker).sum();
        assert!(
            migrations > 0 || shed_b > 0,
            "a trip must either migrate or shed queued work"
        );
    }

    #[test]
    fn drained_replicas_steal_from_the_longest_queue() {
        // Round-robin over one fast and one slow tenant skews queues; the
        // fast replica drains and steals.
        let tenants = vec![tenant("slow", 14.0, 0.12, 7), tenant("fast", 14.0, 0.01, 8)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor, &NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                policy: RouterPolicy::RoundRobin,
                horizon_s: 30.0,
                serve: ServeParams {
                    deadline_s: 1.5,
                    queue_cap: 16,
                    ..ServeParams::default()
                },
                ..FleetParams::default()
            },
        );
        assert!(r.steal_events >= 1, "skewed queues must trigger stealing");
        let steals_in: usize = r.replica_reports.iter().map(|x| x.steals_in).sum();
        let steals_out: usize = r.replica_reports.iter().map(|x| x.steals_out).sum();
        assert_eq!(steals_in, steals_out, "stolen work is conserved");
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e.kind, FleetEventKind::Steal { .. })));
    }

    #[test]
    fn empty_fleet_and_missing_executors_never_panic() {
        let r = run_fleet(
            &[],
            &[],
            &idle_device(),
            &FleetParams {
                replicas: 0,
                ..FleetParams::default()
            },
        );
        assert_eq!(r.arrivals, 0);
        assert_eq!(r.replicas, 1, "replica count clamps to 1");

        // Fewer executors than tenants: the fallback executor serves them.
        let tenants = vec![tenant("a", 5.0, 0.02, 9), tenant("b", 5.0, 0.02, 10)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                horizon_s: 10.0,
                ..FleetParams::default()
            },
        );
        assert_eq!(r.faulted, 0);
        assert!(r.admitted > 0);

        // Empty curves: the fleet serves exact-only without panicking.
        let mut bare = tenant("bare", 5.0, 0.02, 11);
        bare.curve = TradeoffCurve::default();
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let r = run_fleet(
            &[bare],
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                horizon_s: 10.0,
                ..FleetParams::default()
            },
        );
        assert_eq!(r.served_on_time, r.admitted);
    }

    #[test]
    fn a_request_whose_service_never_ends_is_still_accounted() {
        // No deadline, no watchdog bound and an unbounded exact cost: the
        // one admitted request finishes at +∞, after every finite event.
        let tenants = vec![tenant("endless", 5.0, f64::INFINITY, 31)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                horizon_s: 4.0,
                serve: ServeParams {
                    deadline_s: f64::INFINITY,
                    ..ServeParams::default()
                },
                ..FleetParams::default()
            },
        );
        assert!(r.admitted > 0, "something must have started");
        assert_eq!(r.requests_unaccounted, 0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let tenants = vec![tenant("a", 10.0, 0.03, 21)];
        let execs: Vec<&dyn RequestExecutor> = vec![&NoFaultExecutor];
        let r = run_fleet(
            &tenants,
            &execs,
            &idle_device(),
            &FleetParams {
                replicas: 2,
                horizon_s: 10.0,
                ..FleetParams::default()
            },
        );
        let json = r.to_json();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_json(), json, "lossless roundtrip");
        assert_eq!(back.event_log(), r.event_log());
    }

    #[test]
    fn merged_arrivals_are_pinned() {
        // `(length, fingerprint)` of the merged stream as the materialising
        // merge built it, ties between the twins included.
        let tenants = [
            tenant("a", 30.0, 0.02, 8),
            TenantSpec {
                pattern: TrafficPattern::Diurnal {
                    min_rps: 5.0,
                    max_rps: 40.0,
                    period_s: 20.0,
                },
                ..tenant("diurnal", 0.0, 0.02, 9)
            },
            tenant("twin", 30.0, 0.02, 8),
        ];
        let merged = fleet_arrivals(&tenants, 60.0);
        let fingerprint = merged.iter().fold(0u64, |h, &(t, tenant)| {
            splitmix64(h ^ t.to_bits() ^ (tenant as u64).rotate_left(17))
        });
        assert_eq!((merged.len(), fingerprint), (4872, 7273623691567990400));
    }
}
