//! The fleet event loop's allocation budget, as a count and as peak bytes.
//!
//! A counting `#[global_allocator]` (this test binary only) records every
//! allocation and reallocation, and the high-water mark of live heap bytes.
//! The same fleet — chaos campaign, bit-flip windows, a lying tenant,
//! power-of-two routing — is simulated over horizons of N, 2 N and 4 N
//! arrivals.
//!
//! *Count.* The arrival stream is read in fixed blocks through one reused
//! buffer, and what grows by doubling (the latency buffer, the replica
//! queues, the event ring) gains a step or two between N and 2 N arrivals.
//! Routing an arrival, picking the next event, starting, completing,
//! stealing and migrating a request allocate nothing, so the difference must
//! stay under one allocation per hundred additional events: a `collect()`
//! creeping back into a handler adds tens of thousands, and one `VecDeque`
//! per steal already adds too many.
//!
//! *Peak.* The only buffer sized by the run is the latency buffer, 8 B per
//! served request and at most as much again in doubling slack, so between N
//! and 4 N arrivals the peak may grow by less than 20 B per additional
//! arrival. A materialised arrival stream costs 16 B per arrival while it
//! lives and 24 B while it is merged, and fails that budget.
//!
//! The counters are process-wide, so the tests take turns.

use at_core::chaos::ChaosPlan;
use at_core::config::Config;
use at_core::fleet::{run_fleet, FleetParams, RouterPolicy, SdcParams, TenantSpec};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Held by each test for its whole run: the counters are process-wide.
static TURN: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const REPLICAS: usize = 6;
const RATES_RPS: [f64; 3] = [90.0, 60.0, 50.0];
/// Honest QoS of each curve rung; tenant 2 promises 2.5 more than this.
const HONEST_QOS: [f64; 4] = [97.0, 96.0, 95.0, 94.0];

/// What one simulation cost and did.
struct Run {
    allocations: u64,
    /// Peak live heap bytes above what was live before the run.
    peak_bytes: usize,
    arrivals: usize,
    completions: usize,
}

/// Simulates the fleet over the horizon that offers `arrivals` requests.
fn simulate(arrivals: usize) -> Run {
    let horizon_s = arrivals as f64 / RATES_RPS.iter().sum::<f64>();
    let tenants: Vec<TenantSpec> = RATES_RPS
        .iter()
        .enumerate()
        .map(|(t, &rate_rps)| TenantSpec {
            name: format!("tenant-{t}"),
            curve: TradeoffCurve::from_points(
                HONEST_QOS
                    .iter()
                    .enumerate()
                    .map(|(r, &qos)| TradeoffPoint {
                        qos: if t == 2 { qos + 2.5 } else { qos },
                        perf: 1.3 + 0.3 * r as f64,
                        config: Config::from_knobs(vec![]),
                    })
                    .collect(),
            ),
            baseline_time_s: 0.02,
            baseline_qos: 98.0,
            pattern: if t == 1 {
                TrafficPattern::Bursty {
                    base_rps: rate_rps / 2.0,
                    burst_rps: rate_rps * 2.5,
                    period_s: horizon_s / 10.0,
                    duty: 1.0 / 3.0,
                }
            } else {
                TrafficPattern::Steady { rate_rps }
            },
            arrival_seed: 0xA110C ^ t as u64,
            guard: GuardParams {
                qos_floor: 93.0,
                canary_fraction: 0.1,
                ..GuardParams::default()
            },
        })
        .collect();
    let executors: Vec<MiscalibratedExecutor> = (0..tenants.len())
        .map(|t| MiscalibratedExecutor {
            honest_qos: HONEST_QOS.to_vec(),
            jitter: 0.3,
            seed: 0xE8EC ^ t as u64,
        })
        .collect();
    let refs: Vec<&dyn RequestExecutor> = executors
        .iter()
        .map(|e| e as &dyn RequestExecutor)
        .collect();
    let per_replica = arrivals / REPLICAS;
    let device = DisturbedDevice::tx2(
        Scenario::brownout_storm(
            usize::MAX / 2,
            per_replica * 2 / 5,
            per_replica / 10,
            0.6,
            3,
        )
        .with_invocations(usize::MAX / 2),
    );
    let params = FleetParams {
        replicas: REPLICAS,
        policy: RouterPolicy::PowerOfTwoChoices,
        serve: ServeParams {
            deadline_s: 0.25,
            queue_cap: 16,
            drain_fraction: 0.2,
            ..ServeParams::default()
        },
        horizon_s,
        chaos: ChaosPlan::campaign(4, horizon_s, REPLICAS, 3, 2, 2).with_bitflip_campaign(
            5,
            horizon_s,
            REPLICAS,
            REPLICAS,
            0.02,
            SdcParams::default().detect_bit_floor,
        ),
        ..FleetParams::default()
    };
    let before = ALLOCATIONS.load(Relaxed);
    let live_before = LIVE.load(Relaxed);
    PEAK.store(live_before, Relaxed);
    let report = run_fleet(&tenants, &refs, &device, &params);
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    let peak_bytes = PEAK.load(Relaxed).saturating_sub(live_before);
    assert_eq!(report.requests_unaccounted, 0);
    assert!(
        report.crashes > 0 && report.sdc_detected > 0 && report.gray_ejections > 0,
        "the run must exercise the chaos paths: {} crashes, {} detections, {} ejections",
        report.crashes,
        report.sdc_detected,
        report.gray_ejections
    );
    assert!(
        report.tenants[2].quarantined_points > 0,
        "the liar is caught"
    );
    Run {
        allocations,
        peak_bytes,
        arrivals: report.arrivals,
        completions: report.admitted,
    }
}

const N: usize = 30_000;

#[test]
fn the_event_loop_allocates_nothing_per_arrival_or_completion() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let short = simulate(N);
    let long = simulate(2 * N);
    let more_events = (long.arrivals - short.arrivals) + (long.completions - short.completions);
    assert!(more_events > N, "the long run must do more: {more_events}");
    let more = long.allocations.saturating_sub(short.allocations);
    assert!(
        more * 100 <= more_events as u64,
        "{} allocations over {} arrivals, {} over {}: \
         {more} more allocations for {more_events} more events",
        short.allocations,
        short.arrivals,
        long.allocations,
        long.arrivals
    );
}

#[test]
fn peak_heap_grows_by_the_latency_buffer_alone() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let short = simulate(N);
    let long = simulate(4 * N);
    let more_arrivals = long.arrivals - short.arrivals;
    assert!(
        more_arrivals > 2 * N,
        "the long run must offer more: {more_arrivals}"
    );
    let more_bytes = long.peak_bytes.saturating_sub(short.peak_bytes);
    assert!(
        more_bytes < 20 * more_arrivals,
        "peak {} B over {} arrivals, {} B over {}: {:.1} B per additional arrival",
        short.peak_bytes,
        short.arrivals,
        long.peak_bytes,
        long.arrivals,
        more_bytes as f64 / more_arrivals as f64
    );
}
