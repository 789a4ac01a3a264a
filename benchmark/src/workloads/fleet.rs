//! `fleet_storm`: the fleet simulator with kernels idle. Eight replicas
//! serve six zoo tenants (one ships a lying curve) through a brownout, a
//! seeded crash/gray/partition campaign and bit-flip windows, once per
//! router policy. Arrivals are simulated on a schedule (open loop); the
//! wall clock measures how fast the simulator chews through them.

use super::{
    best_of, best_time_s, first_setups, resample_setup, run_all_modes, setup_median, timed, Block,
    Ctx, Measured, Mode, Pass,
};
use crate::stats;
use crate::trace::Tracer;
use at_core::chaos::ChaosPlan;
use at_core::config::Config;
use at_core::fleet::{
    fleet_arrivals, route, run_fleet, FleetParams, FleetReport, ReplicaView, RouterPolicy,
    SdcParams, TenantSpec,
};
use at_core::guard::{GuardParams, MiscalibratedExecutor, QosGuard};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::runtime::{Policy, RuntimeTuner};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use at_models::BenchmarkId;
use std::hint::black_box;

const REPLICAS: usize = 8;
/// Offered load of the roster below, requests per simulated second.
const ROSTER_RPS: f64 = 216.0;
/// Simulated arrivals per policy per pass.
const ARRIVALS: usize = 1_200_000;
const ARRIVALS_QUICK: usize = 30_000;
/// Arrivals of the set-up's warm-up simulation.
const WARMUP_ARRIVALS: usize = 100_000;

const MODELS: [BenchmarkId; 6] = [
    BenchmarkId::LeNet,
    BenchmarkId::AlexNetCifar10,
    BenchmarkId::AlexNet2,
    BenchmarkId::ResNet18,
    BenchmarkId::Vgg16Cifar10,
    BenchmarkId::MobileNet,
];
/// The tenant whose curve promises more QoS than its executor delivers.
const LIAR: BenchmarkId = BenchmarkId::Vgg16Cifar10;

/// QoS each rung of a tenant's curve honestly delivers: deeper rungs give
/// up more accuracy; the rung count varies with the model's depth.
fn honest_qos(id: BenchmarkId) -> Vec<f64> {
    let rungs = 4 + id.paper_layers() % 4;
    (0..rungs)
        .map(|i| id.paper_baseline_accuracy() - (0.4 + 0.5 * i as f64))
        .collect()
}

fn tenant(i: usize, id: BenchmarkId, horizon_s: f64, seed: u64) -> TenantSpec {
    // The liar's curve over-promises by 2.5 points on every rung.
    let lie = if id == LIAR { 2.5 } else { 0.0 };
    let curve = TradeoffCurve::from_points(
        honest_qos(id)
            .into_iter()
            .enumerate()
            .map(|(r, q)| TradeoffPoint {
                qos: q + lie,
                perf: 1.2 + 0.22 * r as f64,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    );
    let pattern = match i {
        0 => TrafficPattern::Steady { rate_rps: 60.0 },
        1 => TrafficPattern::Bursty {
            base_rps: 30.0,
            burst_rps: 90.0,
            period_s: horizon_s / 10.0,
            duty: 0.25,
        },
        2 => TrafficPattern::Diurnal {
            min_rps: 10.0,
            max_rps: 50.0,
            period_s: horizon_s / 4.0,
        },
        3 => TrafficPattern::Steady { rate_rps: 25.0 },
        4 => TrafficPattern::Bursty {
            base_rps: 20.0,
            burst_rps: 60.0,
            period_s: horizon_s / 8.0,
            duty: 0.3,
        },
        _ => TrafficPattern::Spike {
            base_rps: 20.0,
            spike_rps: 200.0,
            at_s: 0.3 * horizon_s,
            len_s: 0.02 * horizon_s,
        },
    };
    TenantSpec {
        name: id.name().to_string(),
        curve,
        baseline_time_s: id.nominal_service_time_s(),
        baseline_qos: id.paper_baseline_accuracy(),
        pattern,
        arrival_seed: seed ^ ((i as u64 + 1) << 32),
        guard: GuardParams {
            qos_floor: id.paper_baseline_accuracy() - 4.0,
            canary_fraction: 0.1,
            ..GuardParams::default()
        },
    }
}

struct Setup {
    tenants: Vec<TenantSpec>,
    executors: Vec<MiscalibratedExecutor>,
    device: DisturbedDevice,
    chaos: ChaosPlan,
    horizon_s: f64,
    serve: ServeParams,
    route_seed: u64,
    plan_gen_ms: f64,
}

impl Setup {
    fn params(&self, policy: RouterPolicy, chaos: ChaosPlan, sdc: SdcParams) -> FleetParams {
        FleetParams {
            replicas: REPLICAS,
            policy,
            serve: self.serve.clone(),
            horizon_s: self.horizon_s,
            steal: true,
            route_seed: self.route_seed,
            chaos,
            sdc,
            ..FleetParams::default()
        }
    }

    fn storm(&self, policy: RouterPolicy) -> FleetParams {
        self.params(
            policy,
            self.chaos.clone(),
            SdcParams {
                protected: true,
                ..SdcParams::default()
            },
        )
    }

    fn run(&self, params: &FleetParams) -> FleetReport {
        let refs: Vec<&dyn RequestExecutor> = self
            .executors
            .iter()
            .map(|e| e as &dyn RequestExecutor)
            .collect();
        run_fleet(&self.tenants, &refs, &self.device, params)
    }
}

fn setup(ctx: &Ctx, arrivals: usize) -> Setup {
    let horizon_s = (arrivals as f64 / ROSTER_RPS).max(1.0);
    let seed = ctx.sub_seed(1);
    let tenants: Vec<TenantSpec> = MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| tenant(i, id, horizon_s, seed))
        .collect();
    let executors = MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| MiscalibratedExecutor {
            // The liar also under-delivers by 1.5, dipping below its floor.
            honest_qos: honest_qos(id)
                .into_iter()
                .map(|q| if id == LIAR { q - 1.5 } else { q })
                .collect(),
            jitter: 0.3,
            seed: ctx.sub_seed(2) ^ i as u64,
        })
        .collect();
    // The rail browns out 40% into each replica's share of the executions.
    let per_replica = arrivals / REPLICAS;
    let device = DisturbedDevice::tx2(
        Scenario::brownout_storm(
            usize::MAX / 2,
            per_replica * 2 / 5,
            per_replica / 10,
            0.6,
            ctx.sub_seed(3),
        )
        .with_invocations(usize::MAX / 2),
    );
    let (chaos, plan_s) = timed(|| {
        ChaosPlan::campaign(
            ctx.sub_seed(4),
            horizon_s,
            REPLICAS,
            REPLICAS / 2,
            REPLICAS / 4,
            REPLICAS / 4,
        )
        .with_bitflip_campaign(
            ctx.sub_seed(5),
            horizon_s,
            REPLICAS,
            REPLICAS,
            0.02,
            SdcParams::default().detect_bit_floor,
        )
    });
    Setup {
        tenants,
        executors,
        device,
        chaos,
        horizon_s,
        serve: ServeParams {
            deadline_s: 0.25,
            queue_cap: 16,
            // A tight drain budget keeps the approximate rungs, and so the
            // guard's canary path, inside the measured loop.
            drain_fraction: 0.2,
            seed,
            ..ServeParams::default()
        },
        route_seed: ctx.sub_seed(6),
        plan_gen_ms: plan_s * 1e3,
    }
}

/// Builds the roster and runs a small simulation through it, which warms
/// the allocator the way the other workloads' exact inference does.
fn setup_and_warm(ctx: &Ctx, arrivals: usize) -> Setup {
    let warm = setup(ctx, WARMUP_ARRIVALS.min(arrivals));
    black_box(warm.run(&warm.storm(RouterPolicy::PowerOfTwoChoices)));
    setup(ctx, arrivals)
}

/// One pass's reports, one per router policy in `RouterPolicy::ALL` order.
type PassReports = Vec<FleetReport>;

/// Appends a pass, dropping the event log of the one before it: only the
/// newest pass's log is read, and keeping every pass's would make peak
/// memory grow with the number of passes that fit the budget.
fn push_pass(passes: &mut Vec<PassReports>, reports: PassReports) {
    if let Some(previous) = passes.last_mut() {
        for report in previous {
            report.events = Vec::new();
        }
    }
    passes.push(reports);
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let arrivals = ctx.reps(ARRIVALS, ARRIVALS_QUICK);
    let mut setups = first_setups(&mut m, || Ok(setup_and_warm(ctx, arrivals)))?;
    let plan_gen_ms = setup_median(&setups, |s| s.plan_gen_ms);
    let s = setups.pop().expect("at least one set-up runs");
    drop(setups);
    // No model is built and no dataset generated: tenants are zoo metadata.
    m.layer.insert("models.build_ms", 0.0);
    m.layer.insert("models.dataset_ms", 0.0);

    let mut plain: Vec<PassReports> = Vec::new();
    let mut traced: Vec<PassReports> = Vec::new();
    let mut later_setups = Vec::new();
    run_all_modes(ctx, tracer, &mut m, |mode, tr| {
        if mode == Mode::Plain && !plain.is_empty() {
            resample_setup(&mut later_setups, || setup_and_warm(ctx, arrivals));
        }
        let mut reports = PassReports::with_capacity(3);
        let mut blocks = Vec::with_capacity(3);
        for policy in RouterPolicy::ALL {
            let params = s.storm(policy);
            let sp = tr.enter("core.fleet", policy.name());
            let (report, secs) = timed(|| s.run(&params));
            tr.exit(sp);
            reports.push(report);
            // The arrival count and the campaign's event counts are fixed
            // (only their placement moves with the seed): fixed work.
            blocks.push(Block {
                name: policy.name(),
                secs,
                fixed: true,
            });
        }
        match mode {
            Mode::Plain => push_pass(&mut plain, reports),
            Mode::Traced => push_pass(&mut traced, reports),
            Mode::AllCores => {}
        }
        Ok(blocks)
    })?;
    m.setup_s.extend(later_setups);

    // ---- end-to-end, untraced passes only --------------------------------
    let last = plain.last().expect("run_passes runs at least one pass");
    // Simulated arrivals per second of a policy's fastest `run_fleet`.
    let policy_rps = |passes: &[Pass], i: usize| {
        last[i].arrivals as f64 / best_of(passes, &[RouterPolicy::ALL[i].name()])
    };
    let rps: Vec<f64> = (0..3).map(|i| policy_rps(&m.plain, i)).collect();
    m.e2e.insert("fleet_sim_rps", stats::geomean(&rps));
    m.e2e.insert(
        "fleet_p99_latency_ms",
        last.iter()
            .map(|r| r.p99_latency_s * 1e3)
            .fold(0.0, f64::max),
    );
    let arrived: usize = last.iter().map(|r| r.arrivals).sum();
    let on_time: usize = last.iter().map(|r| r.served_on_time).sum();
    m.e2e.insert(
        "ops_failed_share",
        (arrived - on_time.min(arrived)) as f64 / arrived.max(1) as f64,
    );

    // ---- operations and the correctness gate ------------------------------
    let every = || plain.iter().chain(&traced).flatten();
    m.attempted = every().map(|r| r.arrivals as u64).sum();
    let unaccounted: usize = every().map(|r| r.requests_unaccounted).sum();
    m.failed = unaccounted as u64;
    m.check(
        "fleet: requests_unaccounted == 0 under every policy",
        unaccounted == 0,
        format!("{unaccounted} unaccounted of {} arrivals", m.attempted),
    );
    let planned: usize = every()
        .flat_map(|r| &r.tenants)
        .map(|t| t.planned_floor_breaches)
        .sum();
    m.check(
        "fleet: no request planned below its tenant's QoS floor",
        planned == 0,
        format!("{planned} planned floor breaches"),
    );
    let honest_convictions = |r: &FleetReport| -> usize {
        r.tenants
            .iter()
            .filter(|t| t.name != LIAR.name())
            .map(|t| t.quarantined_points)
            .sum()
    };
    let convicted: usize = every().map(honest_convictions).sum();
    m.check(
        "guard: no honest tenant's curve point convicted",
        convicted == 0,
        format!("{convicted} honest convictions"),
    );
    let po2 = RouterPolicy::ALL.len() - 1;
    let again = s.run(&s.storm(RouterPolicy::ALL[po2])).to_json();
    m.check(
        "fleet: a repeated same-seed run's report is byte-identical",
        again == last[po2].to_json(),
        format!("{} bytes", again.len()),
    );

    // ---- per-layer, traced passes and probes -------------------------------
    if ctx.traced {
        let report = &traced.last().expect("a traced run has a traced pass")[po2];
        let traced_rps: Vec<f64> = (0..3).map(|i| policy_rps(&m.traced, i)).collect();
        let po2_wall = best_of(&m.traced, &[RouterPolicy::ALL[po2].name()]);
        let l = &mut m.layer;
        for (i, policy) in RouterPolicy::ALL.into_iter().enumerate() {
            let row = match policy {
                RouterPolicy::RoundRobin => "core.fleet.sim_rps.round-robin",
                RouterPolicy::JoinShortestQueue => "core.fleet.sim_rps.join-shortest-queue",
                RouterPolicy::PowerOfTwoChoices => "core.fleet.sim_rps.qos-power-of-two",
            };
            l.insert(row, traced_rps[i]);
        }
        l.insert(
            "core.fleet.events_per_s",
            (report.events.len() + report.events_evicted) as f64 / po2_wall,
        );
        let clean = s.params(
            RouterPolicy::ALL[po2],
            ChaosPlan::none(),
            SdcParams {
                protected: false,
                ..SdcParams::default()
            },
        );
        let (clean_report, clean_wall) = timed(|| s.run(&clean));
        l.insert(
            "core.fleet.sim_rps_clean",
            clean_report.arrivals as f64 / clean_wall,
        );
        l.insert(
            "core.fleet.arrivals_gen_s",
            best_time_s(ctx.reps(3, 1), || {
                black_box(fleet_arrivals(&s.tenants, s.horizon_s));
            }),
        );
        l.insert(
            "core.fleet.report_json_ms",
            best_time_s(ctx.reps(5, 1), || {
                black_box(report.to_json());
            }) * 1e3,
        );
        l.insert("core.fleet.steal_events", report.steal_events as f64);
        l.insert("core.fleet.breaker_trips", report.breaker_trips as f64);
        l.insert("core.fleet.shed_pct", 100.0 * report.shed_rate());
        l.insert(
            "core.fleet.requests_unaccounted",
            report.requests_unaccounted as f64,
        );
        l.insert("core.fleet.sdc_detected", report.sdc_detected as f64);
        l.insert("core.fleet.sdc_escaped", report.sdc_escaped as f64);
        l.insert("core.fleet.gray_ejections", report.gray_ejections as f64);
        let sum = |f: &dyn Fn(&at_core::fleet::TenantReport) -> usize| -> f64 {
            report.tenants.iter().map(f).sum::<usize>() as f64
        };
        l.insert(
            "core.guard.canary_share",
            sum(&|t| t.canaries) / sum(&|t| t.admitted).max(1.0),
        );
        l.insert(
            "core.guard.quarantined_points",
            sum(&|t| t.quarantined_points),
        );
        l.insert(
            "core.guard.floor_breaches",
            sum(&|t| t.observed_floor_breaches),
        );
        l.insert(
            "core.guard.honest_convictions",
            honest_convictions(report) as f64,
        );
        l.insert("core.chaos.plan_gen_ms", plan_gen_ms);
        control_probes(ctx, &s, &mut m);
    }
    Ok(m)
}

/// Cost per decision of the control-plane pieces the event loop calls for
/// every arrival or completion, each driven in a tight loop of its own.
fn control_probes(ctx: &Ctx, s: &Setup, m: &mut Measured) {
    let n = ctx.reps(1_000_000, 20_000);
    let per_call_ns = |secs: f64| secs * 1e9 / n as f64;

    // The router, on a fleet with uneven queues and one open breaker.
    let views: Vec<ReplicaView> = (0..REPLICAS)
        .map(|i| ReplicaView {
            queue_len: (i * 5) % 7,
            busy: i % 2 == 0,
            breaker_open: i == 3,
            degradation: i % 3,
            unreachable: false,
        })
        .collect();
    let mut cursor = 0usize;
    let ((), secs) = timed(|| {
        for k in 0..n as u64 {
            black_box(route(
                RouterPolicy::PowerOfTwoChoices,
                black_box(&views),
                &mut cursor,
                s.route_seed ^ k,
            ));
        }
    });
    m.layer.insert("core.fleet.route_ns", per_call_ns(secs));

    // The runtime tuner over the liar's curve (the deepest one in play):
    // a slow invocation every 64th call forces real re-selections.
    let spec = &s.tenants[4];
    let mut tuner = RuntimeTuner::new(
        spec.curve.clone(),
        Policy::EnforceEachInvocation,
        1,
        spec.baseline_time_s,
        s.serve.seed,
    );
    let ((), secs) = timed(|| {
        for k in 0..n {
            let slow = if k % 64 == 0 { 1.6 } else { 1.0 };
            black_box(
                tuner.record_invocation(spec.baseline_time_s * slow / tuner.current_speedup()),
            );
        }
    });
    m.layer.insert("core.runtime.record_ns", per_call_ns(secs));
    let ((), secs) = timed(|| {
        for k in 0..n {
            black_box(tuner.adapt_to(1.0 + (k % 5) as f64 * 0.2));
        }
    });
    m.layer.insert("core.runtime.adapt_ns", per_call_ns(secs));
    m.layer
        .insert("core.runtime.switches", tuner.switches as f64);

    // The guard on an honest tenant: sampling decision plus, for canaries,
    // one observation that meets its promise.
    let spec = &s.tenants[0];
    let mut guard = QosGuard::new(&spec.guard, &spec.curve);
    let promised = spec.curve.points()[0].qos;
    let ((), secs) = timed(|| {
        for k in 0..n {
            if guard.is_canary(k) {
                black_box(guard.observe(k as f64, k, 0, promised, promised));
            }
        }
    });
    m.layer.insert("core.guard.observe_ns", per_call_ns(secs));

    // The device model: one invocation time per simulated execution.
    let states: Vec<_> = (0..1024).map(|i| s.device.state_at(i)).collect();
    let ((), secs) = timed(|| {
        for k in 0..n {
            black_box(s.device.invocation_time(
                black_box(&states[k % states.len()]),
                spec.baseline_time_s,
                1.2,
            ));
        }
    });
    m.layer.insert("hw.invocation_time_ns", per_call_ns(secs));
}
