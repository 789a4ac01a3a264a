//! The fleet event loop's allocation budget, as a count.
//!
//! A counting `#[global_allocator]` (this test binary only) records every
//! allocation and reallocation. The same fleet — chaos campaign, bit-flip
//! windows, a lying tenant, power-of-two routing — is simulated over a
//! horizon of N arrivals and again over 2 N. Everything that is sized by the
//! run (the arrival stream, the latency buffer) is one block whatever its
//! length, everything that grows by doubling (the per-tenant traces, the
//! replica queues, the event ring) gains a step or two, and each crash
//! checkpoint serialises the few more guard events its lanes have logged by
//! then — about 200 allocations between the two runs, whatever N is.
//! Routing an arrival, picking the next event, starting, completing,
//! stealing and migrating a request allocate nothing, so the difference must
//! stay under one allocation per hundred additional events: a `collect()`
//! creeping back into a handler adds tens of thousands, and one `VecDeque`
//! per steal already adds too many.
//!
//! One `#[test]`: the counter is process-wide.

use at_core::chaos::ChaosPlan;
use at_core::config::Config;
use at_core::fleet::{run_fleet, FleetParams, RouterPolicy, SdcParams, TenantSpec};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const REPLICAS: usize = 6;
const RATES_RPS: [f64; 3] = [90.0, 60.0, 50.0];
/// Honest QoS of each curve rung; tenant 2 promises 2.5 more than this.
const HONEST_QOS: [f64; 4] = [97.0, 96.0, 95.0, 94.0];

/// Simulates the fleet over the horizon that offers `arrivals` requests and
/// returns `(allocations, arrivals simulated, completions)`.
fn simulate(arrivals: usize) -> (u64, usize, usize) {
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
    let report = run_fleet(&tenants, &refs, &device, &params);
    let allocations = ALLOCATIONS.load(Relaxed) - before;
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
    (allocations, report.arrivals, report.admitted)
}

#[test]
fn the_event_loop_allocates_nothing_per_arrival_or_completion() {
    const N: usize = 30_000;
    let (short, short_arrivals, short_completions) = simulate(N);
    let (long, long_arrivals, long_completions) = simulate(2 * N);
    let more_events = (long_arrivals - short_arrivals) + (long_completions - short_completions);
    assert!(more_events > N, "the long run must do more: {more_events}");
    assert!(
        long.saturating_sub(short) * 100 <= more_events as u64,
        "{short} allocations over {short_arrivals} arrivals, {long} over {long_arrivals}: \
         {} more allocations for {more_events} more events",
        long.saturating_sub(short)
    );
}
