//! Property tests on the single-server entry point: what
//! `tests/serve_storm.rs` checks on one pinned storm must hold on generated
//! `(traffic pattern, curve of 0–4 points, parameters, brownout + fault
//! windows, seed)` scenarios — every arrival is classified exactly once,
//! nothing panics, the report survives a serde round-trip, and the run is
//! byte-identical under 1 and 8 pool threads.

use at_core::config::Config;
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{
    generate_arrivals, serve, ScriptedFaultExecutor, ServeParams, ServeReport, TrafficPattern,
    EVENT_LIMIT,
};
use at_hw::{DisturbedDevice, Scenario};
use proptest::prelude::*;

const BASELINE_S: f64 = 0.02;
const HORIZON_S: f64 = 8.0;

/// Any of the four patterns, from idle to 3× the 50 rps capacity.
fn pattern_s() -> impl Strategy<Value = TrafficPattern> {
    (
        0usize..4,
        0.0f64..60.0,
        0.0f64..150.0,
        0.5f64..6.0,
        0.0f64..1.0,
    )
        .prop_map(|(kind, low, high, span_s, frac)| match kind {
            0 => TrafficPattern::Steady { rate_rps: high },
            1 => TrafficPattern::Bursty {
                base_rps: low,
                burst_rps: high,
                period_s: span_s,
                duty: frac,
            },
            2 => TrafficPattern::Diurnal {
                min_rps: low,
                max_rps: high,
                period_s: span_s,
            },
            _ => TrafficPattern::Spike {
                base_rps: low,
                spike_rps: high,
                at_s: frac * HORIZON_S,
                len_s: span_s,
            },
        })
}

/// 0–4 points; speedups and promises in any order (`from_points` sorts).
fn curve_s() -> impl Strategy<Value = TradeoffCurve> {
    prop::collection::vec((1.0f64..3.0, 80.0f64..100.0), 0..5).prop_map(|points| {
        TradeoffCurve::from_points(
            points
                .into_iter()
                .map(|(perf, qos)| TradeoffPoint {
                    qos,
                    perf,
                    config: Config::from_knobs(vec![]),
                })
                .collect(),
        )
    })
}

/// Every settable field, degenerate values (0 capacity, 0 threshold, a
/// drain fraction past 1, a watchdog below the service time) included.
fn params_s() -> impl Strategy<Value = ServeParams> {
    (
        (0.01f64..0.5, 0usize..12, 0.0f64..0.6, 0.0f64..1.3),
        (0usize..5, 0.0f64..2.0, 0usize..4),
        (0.005f64..0.2, prop::bool::ANY),
    )
        .prop_map(
            |(
                (deadline_s, queue_cap, dead_band, drain_fraction),
                (breaker_threshold, cooldown_s, half_open_probes),
                (stall_s, watchdog),
            )| ServeParams {
                deadline_s,
                queue_cap,
                dead_band,
                drain_fraction,
                breaker_threshold,
                cooldown_s,
                half_open_probes,
                seed: 7,
                baseline_qos: 100.0,
                stall_bound_s: if watchdog { stall_s } else { f64::INFINITY },
            },
        )
}

/// A brownout `(at, len, clock factor)` and executor fault windows.
type Faults = ((usize, usize, f64), Vec<(usize, usize)>);

fn faults_s() -> impl Strategy<Value = Faults> {
    (
        (0usize..200, 0usize..300, 0.3f64..1.0),
        prop::collection::vec((0usize..300, 0usize..8), 0..4),
    )
}

fn run(
    pattern: &TrafficPattern,
    curve: &TradeoffCurve,
    params: &ServeParams,
    ((at, len, factor), windows): &Faults,
    seed: u64,
) -> ServeReport {
    let trace = generate_arrivals(pattern, HORIZON_S, seed);
    let device = DisturbedDevice::tx2(Scenario::brownout_storm(
        usize::MAX / 2,
        *at,
        *len,
        *factor,
        seed,
    ));
    let exec = ScriptedFaultExecutor {
        windows: windows.clone(),
    };
    serve(curve, BASELINE_S, &device, &trace, &exec, params)
}

proptest! {
    #[test]
    fn generated_storms_account_every_arrival_and_replay_bit_identically(
        pattern in pattern_s(),
        curve in curve_s(),
        params in params_s(),
        faults in faults_s(),
        seed in 0u64..u64::MAX,
    ) {
        let r = run(&pattern, &curve, &params, &faults, seed);
        prop_assert_eq!(
            r.arrivals,
            r.admitted + r.shed_queue_full + r.shed_deadline + r.shed_breaker,
            "arrivals must partition into outcomes"
        );
        prop_assert_eq!(
            r.admitted,
            r.served_on_time + r.served_late + r.faulted + r.stalled
        );
        prop_assert!(r.events.len() <= EVENT_LIMIT);
        prop_assert!(r.max_queue_depth <= params.queue_cap.max(1));
        prop_assert!(r.mean_latency_s.is_finite() && r.p99_latency_s.is_finite());
        prop_assert!(r.mean_qos.is_finite());
        if curve.is_empty() {
            prop_assert_eq!(r.escalations + r.deescalations, 0);
        }

        let json = r.to_json();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.to_json(), json, "lossless round-trip");

        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let again = pool.install(|| run(&pattern, &curve, &params, &faults, seed).to_json());
            prop_assert_eq!(again, json, "diverged under {} threads", threads);
        }
    }
}
