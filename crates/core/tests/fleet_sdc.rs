//! Silent-data-corruption acceptance tests: bit-flip windows over a fleet
//! are detected by the modelled ABFT layer and re-executed on healthy
//! peers without losing accounting, unprotected fleets let every flip
//! escape, sub-floor flips stay silent, repeated detections eject via
//! typed events, a corruption-free run is bit-identical whether or not
//! protection is armed, and the whole campaign is deterministic across
//! rayon thread counts.

use at_core::chaos::{ChaosEvent, ChaosKind, ChaosPlan, FlipTarget};
use at_core::config::Config;
use at_core::fleet::{
    run_fleet, FleetEventKind, FleetParams, FleetReport, RouterPolicy, SdcParams, TenantSpec,
};
use at_core::guard::GuardParams;
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{NoFaultExecutor, RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, FrequencyLadder, Scenario};

fn curve(qos_perf: &[(f64, f64)]) -> TradeoffCurve {
    TradeoffCurve::from_points(
        qos_perf
            .iter()
            .map(|&(qos, perf)| TradeoffPoint {
                qos,
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

fn tenant(name: &str, rate_rps: f64, seed: u64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        curve: curve(&[(96.0, 1.4), (93.0, 1.9), (90.0, 2.4)]),
        baseline_time_s: 0.015,
        baseline_qos: 98.0,
        pattern: TrafficPattern::Steady { rate_rps },
        arrival_seed: seed,
        guard: GuardParams {
            qos_floor: 85.0,
            ..GuardParams::default()
        },
    }
}

/// A flip window on every replica covering most of the horizon, so the
/// detection/re-execution path sees real volume.
fn saturating_flip_plan(replicas: usize, horizon_s: f64, rate: f64, min_bit: u32) -> ChaosPlan {
    ChaosPlan::scripted((0..replicas).map(|r| ChaosEvent {
        at_s: 1.0,
        replica: r,
        kind: ChaosKind::BitFlip {
            len_s: horizon_s,
            rate,
            target: FlipTarget::ALL[r % FlipTarget::ALL.len()],
            min_bit,
        },
    }))
}

fn run_sdc(plan: ChaosPlan, sdc: SdcParams) -> FleetReport {
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|t| {
            tenant(
                &format!("tenant-{t}"),
                10.0 + 2.0 * t as f64,
                0xDC ^ t as u64,
            )
        })
        .collect();
    let execs: Vec<&dyn RequestExecutor> = (0..4)
        .map(|_| &NoFaultExecutor as &dyn RequestExecutor)
        .collect();
    run_fleet(
        &tenants,
        &execs,
        &idle_device(),
        &FleetParams {
            replicas: 4,
            policy: RouterPolicy::PowerOfTwoChoices,
            serve: ServeParams {
                deadline_s: 0.5,
                queue_cap: 16,
                ..ServeParams::default()
            },
            horizon_s: 60.0,
            steal: true,
            route_seed: 0x5DC5EED,
            chaos: plan,
            sdc,
        },
    )
}

fn assert_fully_accounted(r: &FleetReport) {
    assert_eq!(r.requests_unaccounted, 0, "no request may vanish");
    let shed_sum: usize = r
        .tenants
        .iter()
        .map(|t| t.shed_queue_full + t.shed_deadline + t.shed_breaker + t.shed_replica_lost)
        .sum();
    assert_eq!(r.arrivals, r.admitted + shed_sum);
}

#[test]
fn flip_campaign_detects_reexecutes_and_accounts() {
    let r = run_sdc(
        saturating_flip_plan(4, 60.0, 0.05, 16),
        SdcParams::default(),
    );
    assert!(r.arrivals > 1000, "campaign must see real load");
    assert!(r.sdc_detected > 10, "flips at the floor must be detected");
    assert_eq!(
        r.sdc_escaped, 0,
        "nothing escapes when every flip is at or above the floor"
    );
    assert!(
        r.sdc_reexecuted > 0 && r.sdc_reexecuted <= r.sdc_detected,
        "detected requests re-execute on healthy peers within budget"
    );
    assert_fully_accounted(&r);

    // Typed events reconcile with the counters.
    let detected_events = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, FleetEventKind::SdcDetected { .. }))
        .count();
    let reexec_events = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, FleetEventKind::SdcReexecuted { .. }))
        .count();
    let eject_events = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, FleetEventKind::SdcEjected { .. }))
        .count();
    assert_eq!(detected_events, r.sdc_detected);
    assert_eq!(reexec_events, r.sdc_reexecuted);
    assert_eq!(eject_events, r.sdc_ejections);
    let per_replica: usize = r.replica_reports.iter().map(|x| x.sdc_detections).sum();
    assert_eq!(per_replica, r.sdc_detected);
    let per_tenant: usize = r.tenants.iter().map(|t| t.sdc_detected).sum();
    assert_eq!(per_tenant, r.sdc_detected);

    // A saturating flip window on every replica must strike replicas out.
    assert!(
        r.sdc_ejections > 0,
        "repeated detections must eject via the gray machinery"
    );
    // Detection + re-execution keeps the fleet serving.
    assert!(r.on_time_rate() > 0.5, "fleet must survive the campaign");
}

#[test]
fn unprotected_replicas_let_every_flip_escape() {
    let r = run_sdc(
        saturating_flip_plan(4, 60.0, 0.05, 16),
        SdcParams {
            protected: false,
            ..SdcParams::default()
        },
    );
    assert_eq!(r.sdc_detected, 0, "unprotected kernels never detect");
    assert_eq!(r.sdc_reexecuted, 0);
    assert_eq!(r.sdc_ejections, 0);
    assert!(r.sdc_escaped > 10, "every landed flip is served silently");
    assert!(
        !r.events
            .iter()
            .any(|e| matches!(e.kind, FleetEventKind::SdcDetected { .. })),
        "no detection events without protection"
    );
    assert_fully_accounted(&r);
}

#[test]
fn flips_below_the_floor_escape_detection() {
    // Bits drawn uniformly from 0..32 straddle the default floor of 16:
    // the high half must be caught, the low half must be served silently.
    let r = run_sdc(saturating_flip_plan(4, 60.0, 0.08, 0), SdcParams::default());
    assert!(r.sdc_detected > 0, "above-floor flips are detected");
    assert!(r.sdc_escaped > 0, "below-floor flips escape");
    assert_fully_accounted(&r);
}

#[test]
fn corruption_free_run_is_identical_with_protection_disarmed() {
    // With no flip windows, the SDC machinery must be invisible: the full
    // report is bit-identical whether protection is armed or not.
    let armed = run_sdc(ChaosPlan::none(), SdcParams::default());
    let disarmed = run_sdc(
        ChaosPlan::none(),
        SdcParams {
            protected: false,
            ..SdcParams::default()
        },
    );
    assert_eq!(armed.to_json(), disarmed.to_json());
    assert_eq!(armed.sdc_detected + armed.sdc_escaped, 0);
}

#[test]
fn flip_campaign_is_bit_identical_across_thread_counts() {
    let run = || {
        run_sdc(
            saturating_flip_plan(4, 60.0, 0.05, 16),
            SdcParams::default(),
        )
    };
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(run)
    };
    assert_eq!(
        run_with(1).to_json(),
        run_with(8).to_json(),
        "SDC campaign must not break thread-count determinism"
    );
}
