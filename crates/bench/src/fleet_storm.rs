//! The fleet-storm fixture shared by `serve_fleet`, `fleet_chaos` and
//! `fleet_sdc`: a simulated fleet of N replicas serving six tenant models
//! from the `at-models` zoo — each tenant with its own synthesized tradeoff
//! curve (anchored to the paper's Table 1 accuracy and layer counts), QoS
//! floor, cost anchor and traffic profile. One tenant's curve deliberately
//! lies, so the per-replica guard machinery (canaries → quarantine → exact
//! fallback) is inside every measured path.
//!
//! Simulated results are a pure function of the seed; wall-clock timings
//! live in separate fields (`wall_s`, `sim_rps`) that carry no behavioural
//! meaning.

use crate::env::Sizing;
use crate::report::RESULTS_SCHEMA_VERSION;
use at_core::chaos::ChaosPlan;
use at_core::config::Config;
use at_core::fleet::{run_fleet, FleetParams, FleetReport, RouterPolicy, TenantSpec};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use at_models::BenchmarkId;
use serde::Value;

/// `Vgg16Cifar10` ships a curve that over-promises by 2.5 QoS points on
/// every rung, while its executor under-delivers a further 1.5 (a 4-point
/// total lie, dipping below the tenant's floor on deep rungs) — the guard
/// must convict it per replica without touching the other five tenants.
pub(crate) const LIAR: BenchmarkId = BenchmarkId::Vgg16Cifar10;
const LIE_MARGIN: f64 = 2.5;

/// The fleet's tenant roster: six zoo models with mixed traffic profiles.
const MODELS: [BenchmarkId; 6] = [
    BenchmarkId::LeNet,
    BenchmarkId::AlexNetCifar10,
    BenchmarkId::AlexNet2,
    BenchmarkId::ResNet18,
    LIAR,
    BenchmarkId::MobileNet,
];

/// The honest QoS each rung of a tenant actually delivers: drops grow with
/// depth, and the rung count is seeded by the model's layer count so every
/// tenant's curve differs deterministically.
fn honest_qos(id: BenchmarkId) -> Vec<f64> {
    let acc = id.paper_baseline_accuracy();
    let rungs = 4 + id.paper_layers() % 4;
    (0..rungs).map(|i| acc - (0.4 + 0.5 * i as f64)).collect()
}

/// Synthesizes a tenant curve from zoo metadata: speedup rungs grow
/// linearly; a lying curve promises `lie` more QoS than the honest executor
/// will deliver (0.0 for honest tenants).
fn zoo_curve(id: BenchmarkId, lie: f64) -> TradeoffCurve {
    let point = |(i, qos): (usize, f64)| TradeoffPoint {
        qos: qos + lie,
        perf: 1.2 + 0.22 * i as f64,
        config: Config::from_knobs(vec![]),
    };
    TradeoffCurve::from_points(honest_qos(id).into_iter().enumerate().map(point).collect())
}

fn roster(horizon_s: f64, rate_scale: f64, seed: u64) -> Vec<TenantSpec> {
    MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let pattern = match i {
                0 => TrafficPattern::Steady {
                    rate_rps: 60.0 * rate_scale,
                },
                1 => TrafficPattern::Bursty {
                    base_rps: 30.0 * rate_scale,
                    burst_rps: 90.0 * rate_scale,
                    period_s: horizon_s / 10.0,
                    duty: 0.25,
                },
                2 => TrafficPattern::Diurnal {
                    min_rps: 10.0 * rate_scale,
                    max_rps: 50.0 * rate_scale,
                    period_s: horizon_s / 4.0,
                },
                3 => TrafficPattern::Steady {
                    rate_rps: 25.0 * rate_scale,
                },
                4 => TrafficPattern::Bursty {
                    base_rps: 20.0 * rate_scale,
                    burst_rps: 60.0 * rate_scale,
                    period_s: horizon_s / 8.0,
                    duty: 0.3,
                },
                _ => TrafficPattern::Spike {
                    base_rps: 20.0 * rate_scale,
                    spike_rps: 200.0 * rate_scale,
                    at_s: 0.3 * horizon_s,
                    len_s: 0.02 * horizon_s,
                },
            };
            let lie = if id == LIAR { LIE_MARGIN } else { 0.0 };
            TenantSpec {
                name: id.name().to_string(),
                curve: zoo_curve(id, lie),
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
        })
        .collect()
}

fn executors() -> Vec<MiscalibratedExecutor> {
    MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| MiscalibratedExecutor {
            honest_qos: honest_qos(id)
                .into_iter()
                .map(|q| if id == LIAR { q - 1.5 } else { q })
                .collect(),
            jitter: 0.3,
            seed: 0xF1EE7 ^ (i as u64),
        })
        .collect()
}

/// The fields every fleet artifact opens with.
#[derive(serde::Serialize)]
struct Header {
    schema_version: u32,
    bench: String,
    replicas: usize,
    tenant_models: Vec<String>,
    requests_target: usize,
    seed: u64,
    scenario: String,
    horizon_s: f64,
}

/// A sized roster on a disturbed device, ready to be run under any router
/// policy and chaos plan.
pub struct FleetStorm {
    /// Total arrival target.
    pub requests: usize,
    /// Replica count.
    pub replicas: usize,
    /// Seed of arrivals, routing, executors' serving and the campaigns.
    pub seed: u64,
    /// Simulated horizon, stretched to hit the request target.
    pub horizon_s: f64,
    tenants: Vec<TenantSpec>,
    executors: Vec<MiscalibratedExecutor>,
    device: DisturbedDevice,
}

impl FleetStorm {
    /// Sizes the roster for `sizing`'s request target, replica count and
    /// seed on a TX2 living through `scenario`. Nominal offered load at 8
    /// replicas is ~216 rps; rates scale with the replica count so
    /// per-replica pressure stays constant and the horizon stretches to hit
    /// the request target.
    pub fn new(sizing: &Sizing, scenario: Scenario) -> FleetStorm {
        let Sizing {
            requests,
            replicas,
            seed,
            ..
        } = *sizing;
        let rate_scale = replicas as f64 / 8.0;
        let horizon_s = (requests as f64 / (216.0 * rate_scale)).max(1.0);
        println!("fleet: {replicas} replicas × 6 tenants, target {requests} requests, seed {seed}");
        FleetStorm {
            requests,
            replicas,
            seed,
            horizon_s,
            tenants: roster(horizon_s, rate_scale, seed),
            executors: executors(),
            device: DisturbedDevice::tx2(scenario),
        }
    }

    /// The storm proper: a rail brownout (with sensor dropout) mid-run,
    /// scripted by each replica's execution index.
    pub fn brownout(sizing: &Sizing) -> FleetStorm {
        let per_replica = sizing.requests / sizing.replicas.max(1);
        let scenario = Scenario::brownout_storm(
            usize::MAX / 2,
            per_replica * 2 / 5,
            per_replica / 10,
            0.6,
            sizing.seed ^ 0xB10,
        );
        FleetStorm::new(sizing, scenario)
    }

    fn params(&self, policy: RouterPolicy, chaos: &ChaosPlan) -> FleetParams {
        FleetParams {
            replicas: self.replicas,
            policy,
            serve: ServeParams {
                deadline_s: 0.25,
                queue_cap: 16,
                // Tight drain budget: moderate backlog already demands >1x
                // speedup, so approximate rungs (and the guard's canary
                // path) stay inside the measured loop.
                drain_fraction: 0.2,
                seed: self.seed,
                ..ServeParams::default()
            },
            horizon_s: self.horizon_s,
            steal: true,
            route_seed: self.seed ^ 0xF1EE,
            chaos: chaos.clone(),
            ..FleetParams::default()
        }
    }

    fn simulate(&self, policy: RouterPolicy, chaos: &ChaosPlan) -> FleetReport {
        let executors: Vec<&dyn RequestExecutor> = self
            .executors
            .iter()
            .map(|e| e as &dyn RequestExecutor)
            .collect();
        let params = self.params(policy, chaos);
        run_fleet(&self.tenants, &executors, &self.device, &params)
    }

    /// Runs the fleet once; returns the report, the wall-clock seconds the
    /// simulation took and the simulated arrivals per wall-clock second.
    pub fn run(&self, policy: RouterPolicy, chaos: &ChaosPlan) -> (FleetReport, f64, f64) {
        let t0 = std::time::Instant::now();
        let report = self.simulate(policy, chaos);
        let wall_s = t0.elapsed().as_secs_f64();
        let sim_rps = if wall_s > 0.0 {
            report.arrivals as f64 / wall_s
        } else {
            0.0
        };
        (report, wall_s, sim_rps)
    }

    /// Determinism self-check: the same seed must produce a byte-identical
    /// report whether rayon runs 1 or 8 threads. Prints the verdict.
    pub(crate) fn bit_identical_across_threads(
        &self,
        policy: RouterPolicy,
        chaos: &ChaosPlan,
    ) -> bool {
        let render = || self.simulate(policy, chaos).to_json();
        let under = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map(|pool| pool.install(render))
                .unwrap_or_default()
        };
        let identical = under(1) == under(8);
        let verdict = if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        };
        println!("determinism: 1-thread vs 8-thread reports {verdict}");
        identical
    }

    /// The artifact of bench `bench`: the header every fleet artifact opens
    /// with, then `body`'s own fields.
    pub fn artifact(&self, bench: &str, body: &impl serde::Serialize) -> Value {
        let header = Header {
            schema_version: RESULTS_SCHEMA_VERSION,
            bench: bench.to_string(),
            replicas: self.replicas,
            tenant_models: self.tenants.iter().map(|t| t.name.clone()).collect(),
            requests_target: self.requests,
            seed: self.seed,
            scenario: self.device.scenario().name().to_string(),
            horizon_s: self.horizon_s,
        };
        let (Value::Object(mut pairs), Value::Object(body)) =
            (serde_json::to_value(&header), serde_json::to_value(body))
        else {
            unreachable!("structs serialise as objects")
        };
        pairs.extend(body);
        Value::Object(pairs)
    }
}
