//! `tune_conv` and `tune_small`: the paper's flow — development-time
//! `collect` + `tune`, ship (JSON round-trip + `load`), install-time
//! `refine_measured_cpu`, and (tune_conv) inference at exact and at the
//! shipped curve's best point — timed from outside, one closed-loop caller.

use super::{
    best_of, first_setups, resample_setup, run_all_modes, setup_median, summarize, timed, Block,
    Ctx, Measured, Mode, Pass,
};
use crate::stats;
use crate::trace::Tracer;
use at_core::config::Config;
use at_core::install::{measured_cpu_time_s, refine_measured_cpu};
use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::pareto::TradeoffCurve;
use at_core::perf::PerfModel;
use at_core::predict::{PredictionModel, Predictor};
use at_core::profile::{measure_config, QosProfiles};
use at_core::qos::{QosMetric, QosReference};
use at_core::search::SearchSpace;
use at_core::ship::graph_fingerprint;
use at_core::tuner::{PredictiveTuner, TunerParams, TuningResult};
use at_core::ShippedArtifact;
use at_ir::{execute, ExecOptions, Graph, OpClass};
use at_models::data::build_dataset;
use at_models::{build, Benchmark, BenchmarkId, Dataset, ModelScale};
use at_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Batch size of every tuning dataset.
const BATCH: usize = 16;
/// Allowed QoS drop below the measured baseline, percentage points.
const QOS_DROP: f64 = 3.0;
/// Search iterations (`atune tune`'s default).
const ITERS: usize = 400;

pub struct TuneSpec {
    pub name: &'static str,
    id: BenchmarkId,
    /// Dataset samples; half become the calibration set, as in `atune`.
    samples: usize,
    /// Cap on shipped curve points, which bounds install time.
    max_shipped: usize,
    refine_reps: usize,
    /// Timed inferences at exact and at the shipped best point per pass
    /// (0 = the workload stops after install).
    infer_calls: usize,
    infer_warmup: usize,
}

/// Alexnet2: conv-heavy, so profile collection (every (op, knob) pair on
/// the calibration batch) is wall-dominated by the approximate kernels.
pub const CONV: TuneSpec = TuneSpec {
    name: "tune_conv",
    id: BenchmarkId::AlexNet2,
    samples: 32,
    max_shipped: 8,
    refine_reps: 3,
    infer_calls: 30,
    infer_warmup: 5,
};

/// LeNet: the same layers on tiny tensors, so fixed per-call cost dominates.
pub const SMALL: TuneSpec = TuneSpec {
    name: "tune_small",
    id: BenchmarkId::LeNet,
    samples: 256,
    max_shipped: 50,
    refine_reps: 5,
    infer_calls: 0,
    infer_warmup: 0,
};

struct Setup {
    bench: Benchmark,
    cal: Dataset,
    registry: KnobRegistry,
    reference: QosReference,
    qos_min: f64,
    build_ms: f64,
    dataset_ms: f64,
}

fn setup(spec: &TuneSpec, ctx: &Ctx) -> Result<Setup, String> {
    let (bench, build_s) = timed(|| build(spec.id, ModelScale::Tiny));
    let (ds, dataset_s) = timed(|| build_dataset(&bench, spec.samples, BATCH, ctx.sub_seed(1)));
    let (cal, _test) = ds.split();
    let registry = KnobRegistry::new();
    let reference = QosReference::Labels(cal.labels.clone());
    // The baseline run both warms the allocator and fixes the QoS floor.
    let base = measure_config(
        &bench.graph,
        &registry,
        &Config::baseline(&bench.graph),
        &cal.batches,
        QosMetric::Accuracy,
        &reference,
        0,
    )
    .map_err(|e| format!("baseline run failed: {e}"))?;
    Ok(Setup {
        bench,
        cal,
        registry,
        reference,
        qos_min: base - QOS_DROP,
        build_ms: build_s * 1e3,
        dataset_ms: dataset_s * 1e3,
    })
}

/// A config that sets every convolution to the knob with `label` and leaves
/// every other node exact.
pub fn conv_rung(graph: &Graph, registry: &KnobRegistry, label: &str) -> Result<Config, String> {
    let knob = registry
        .table(OpClass::Conv)
        .iter()
        .find(|k| k.label == label)
        .ok_or_else(|| format!("no conv knob labelled {label}"))?
        .id;
    let mut config = Config::baseline(graph);
    for node in graph.nodes() {
        if node.op.class() == OpClass::Conv {
            config.set_knob(node.id.0 as usize, knob);
        }
    }
    Ok(config)
}

/// The five knob rungs `infer_ladder` runs; also the fixed part of the
/// predicted-vs-measured calibration set.
pub const LADDER: [&str; 5] = [
    "fp32",
    "samp-50%-o0-fp32",
    "perf-50%-row-o0-fp32",
    "fp16",
    "lutmul-8b",
];

/// What one pass produced, kept for the metrics and the checks.
struct PassOut {
    collect_s: f64,
    ship_s: f64,
    install_s: f64,
    pairs: usize,
    result: TuningResult,
    artifact_json: String,
    /// The curve as loaded back from the artifact; empty when the tuner
    /// shipped nothing (ship, install and shipped inference are skipped).
    loaded: TradeoffCurve,
    refined: TradeoffCurve,
    /// Re-measured QoS per shipped point (benchmark's own measurement).
    remeasured: Vec<f64>,
    exact_ms: Vec<f64>,
    shipped_ms: Vec<f64>,
    infer_errors: u64,
    /// Kept for the newest untraced pass only (the model probes read them):
    /// ΔT tables of every pass would make peak memory grow with pass count.
    profiles: Option<QosProfiles>,
}

impl PassOut {
    /// The pass as timed blocks. Collection runs the same (op, knob) pairs,
    /// the search the same iteration count and exact inference the same
    /// graph whatever the data; what is validated, shipped, installed and
    /// run at the shipped point depends on the curve the seed yields.
    fn blocks(&self) -> Pass {
        let search_s = self.result.search_time_s;
        let block = |name, secs, fixed| Block { name, secs, fixed };
        let mut blocks = vec![
            block("collect", self.collect_s, true),
            block("search", search_s, true),
            block("validate", self.result.validation_time_s, false),
        ];
        if !self.loaded.is_empty() {
            blocks.push(block("ship", self.ship_s, false));
            blocks.push(block("install", self.install_s, false));
        }
        if !self.exact_ms.is_empty() {
            let exact_s = self.exact_ms.iter().sum::<f64>() * 1e-3;
            blocks.push(block("infer_exact", exact_s, true));
        }
        if !self.shipped_ms.is_empty() {
            let shipped_s = self.shipped_ms.iter().sum::<f64>() * 1e-3;
            blocks.push(block("infer_shipped", shipped_s, false));
        }
        blocks
    }

    fn faults(&self) -> u64 {
        let f = &self.result.faults;
        f.skipped + f.quarantined + f.faults_absorbed()
    }

    fn below_floor(&self, floor: f64) -> usize {
        self.remeasured.iter().filter(|&&q| q < floor).count()
    }
}

fn exec_ms(graph: &Graph, input: &Tensor, opts: &ExecOptions, errors: &mut u64) -> f64 {
    let (out, s) = timed(|| execute(graph, black_box(input), opts));
    match out {
        Ok(t) if t.data().iter().all(|v| v.is_finite()) => {
            black_box(&t);
        }
        _ => *errors += 1,
    }
    s * 1e3
}

fn pass(spec: &TuneSpec, ctx: &Ctx, s: &Setup, tr: &mut Tracer) -> Result<PassOut, String> {
    let graph = &s.bench.graph;
    let tuner = PredictiveTuner {
        graph,
        registry: &s.registry,
        inputs: &s.cal.batches,
        metric: QosMetric::Accuracy,
        reference: &s.reference,
        input_shape: s.cal.batches[0].shape(),
        promise_seed: 0,
    };
    // The search keeps the tuner's default seed: it is a tuner setting, not
    // an input, and a fixed one keeps α-calibration's measured configs (and
    // so the search phase's work) the same for every dataset seed.
    let params = TunerParams {
        qos_min: s.qos_min,
        max_iters: ITERS,
        convergence_window: ITERS / 2,
        max_shipped: spec.max_shipped,
        model: PredictionModel::Pi1,
        knob_set: KnobSet::HardwareIndependent,
        ..TunerParams::default()
    };

    let sp = tr.enter("core.profile", "collect");
    let (profiles, collect_s) = timed(|| tuner.collect(&params));
    tr.exit(sp);
    let profiles = profiles.map_err(|e| format!("collect failed: {e}"))?;

    let sp = tr.enter("core.tuner", "tune");
    let result = tuner.tune(&profiles, &params);
    let result = result.map_err(|e| format!("tune failed: {e}"))?;
    // The tuner times its own two stages; the rest of `tune` is glue.
    tr.children_from_durations(&[
        ("core.search", "search", result.search_time_s),
        ("core.tuner", "validate", result.validation_time_s),
    ]);
    tr.exit(sp);

    let mut out = PassOut {
        collect_s,
        ship_s: 0.0,
        install_s: 0.0,
        pairs: profiles.pairs.len(),
        artifact_json: String::new(),
        loaded: TradeoffCurve::default(),
        refined: TradeoffCurve::default(),
        remeasured: Vec::new(),
        exact_ms: Vec::new(),
        shipped_ms: Vec::new(),
        infer_errors: 0,
        profiles: Some(profiles),
        result,
    };

    // An empty curve is a tuning outcome, not an error: there is nothing to
    // ship or install, and `load` refuses an artifact without a curve.
    if !out.result.curve.is_empty() {
        let artifact = out
            .result
            .to_artifact(graph, QosMetric::Accuracy, s.qos_min);
        let sp = tr.enter("core.ship", "roundtrip");
        let ((json, loaded), ship_s) = timed(|| {
            let json = artifact.to_json();
            let loaded = ShippedArtifact::load(&json, graph, false);
            (json, loaded)
        });
        tr.exit(sp);
        out.ship_s = ship_s;
        out.artifact_json = json;
        out.loaded = loaded.map_err(|e| format!("artifact rejected on load: {e}"))?;

        let sp = tr.enter("core.install", "refine");
        let (refined, install_s) = timed(|| {
            refine_measured_cpu(
                graph,
                &s.registry,
                &out.loaded,
                &s.cal.batches,
                QosMetric::Accuracy,
                &s.reference,
                s.qos_min,
                ctx.reps(spec.refine_reps, 1),
                0,
            )
        });
        tr.exit(sp);
        out.install_s = install_s;
        out.refined = refined.map_err(|e| format!("refine failed: {e}"))?;

        // The benchmark's own re-measurement of every shipped point: picks
        // the point to run and feeds the floor check. Neither timed nor
        // traced.
        for p in out.loaded.points() {
            let q = measure_config(
                graph,
                &s.registry,
                &p.config,
                &s.cal.batches,
                QosMetric::Accuracy,
                &s.reference,
                0,
            )
            .map_err(|e| format!("re-measure failed: {e}"))?;
            out.remeasured.push(q);
        }
    }

    if spec.infer_calls > 0 {
        let input = &s.cal.batches[0];
        let calls = ctx.reps(spec.infer_calls, 4);
        let shipped =
            best_valid_point(&out.loaded, &out.remeasured, s.qos_min).map(|i| ExecOptions {
                config: out.loaded.points()[i].config.decode(&s.registry, graph),
                promise_seed: 0,
            });
        let rungs = [
            ("exact", Some(ExecOptions::baseline()), &mut out.exact_ms),
            ("shipped", shipped, &mut out.shipped_ms),
        ];
        for (name, opts, samples) in rungs {
            let Some(opts) = opts else { continue };
            for _ in 0..ctx.reps(spec.infer_warmup, 1) {
                exec_ms(graph, input, &opts, &mut out.infer_errors);
            }
            for _ in 0..calls {
                let sp = tr.enter("ir.exec", name);
                let ms = exec_ms(graph, input, &opts, &mut out.infer_errors);
                tr.exit(sp);
                samples.push(ms);
            }
        }
    }
    Ok(out)
}

/// Index of the shipped point with the highest predicted speedup among
/// those whose re-measured QoS is at or above the floor.
fn best_valid_point(curve: &TradeoffCurve, remeasured: &[f64], floor: f64) -> Option<usize> {
    curve
        .points()
        .iter()
        .zip(remeasured)
        .enumerate()
        .filter(|(_, (_, &q))| q >= floor)
        .max_by(|a, b| a.1 .0.perf.total_cmp(&b.1 .0.perf))
        .map(|(i, _)| i)
}

pub fn run(spec: &TuneSpec, ctx: &Ctx, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut setups = first_setups(&mut m, || setup(spec, ctx))?;
    m.layer
        .insert("models.build_ms", setup_median(&setups, |s| s.build_ms));
    m.layer
        .insert("models.dataset_ms", setup_median(&setups, |s| s.dataset_ms));
    let s = setups.pop().expect("at least one set-up runs");
    drop(setups);

    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let mut later_setups = Vec::new();
    run_all_modes(ctx, tracer, &mut m, |mode, tr| {
        if mode == Mode::Plain && !plain.is_empty() {
            resample_setup(&mut later_setups, || setup(spec, ctx));
        }
        let mut out = pass(spec, ctx, &s, tr)?;
        let blocks = out.blocks();
        match mode {
            Mode::Plain => {
                if let Some(previous) = plain.last_mut() {
                    previous.profiles = None;
                }
                plain.push(out);
            }
            Mode::Traced => {
                out.profiles = None;
                traced.push(out);
            }
            Mode::AllCores => {}
        }
        Ok(blocks)
    })?;
    m.setup_s.extend(later_setups);

    // ---- end-to-end, untraced passes only --------------------------------
    let last = plain.last().expect("at least one untraced pass runs");
    let tune_wall_s = best_of(&m.plain, &["collect", "search", "validate"]);
    m.e2e.insert("tune_wall_s", tune_wall_s);
    let best = best_valid_point(&last.loaded, &last.remeasured, s.qos_min);
    m.e2e.insert(
        "curve_best_speedup",
        best.map_or(0.0, |i| last.loaded.points()[i].perf),
    );
    if last.loaded.is_empty() {
        m.notes.push(
            "the tuner shipped an empty curve for this seed: ship, install and shipped-point \
             inference were skipped"
                .into(),
        );
    } else {
        let install_wall_s = best_of(&m.plain, &["ship", "install"]);
        m.e2e.insert("install_wall_s", install_wall_s);
    }
    if spec.infer_calls > 0 {
        let exact: Vec<f64> = plain.iter().flat_map(|p| &p.exact_ms).copied().collect();
        let shipped: Vec<f64> = plain.iter().flat_map(|p| &p.shipped_ms).copied().collect();
        m.samples
            .insert("infer_exact_ms".into(), summarize(&exact, "ms"));
        if !shipped.is_empty() {
            m.e2e.insert(
                "shipped_measured_speedup",
                stats::median(&exact) / stats::median(&shipped),
            );
            m.samples
                .insert("infer_shipped_ms".into(), summarize(&shipped, "ms"));
        }
    }

    // ---- operations and the correctness gate ------------------------------
    let every = || plain.iter().chain(&traced);
    for p in every() {
        m.attempted += p.result.cache.misses as u64
            + p.loaded.len() as u64
            + (p.exact_ms.len() + p.shipped_ms.len()) as u64;
        m.failed += p.faults() + p.below_floor(s.qos_min) as u64 + p.infer_errors;
    }
    let faults: u64 = every().map(PassOut::faults).sum();
    m.check(
        "tuner: no evaluation skipped, quarantined or errored",
        faults == 0,
        format!("{faults} faults over {} passes", every().count()),
    );
    let below: usize = every().map(|p| p.below_floor(s.qos_min)).sum();
    m.check(
        "ship: every shipped point re-measures at or above the QoS floor",
        below == 0,
        format!(
            "{} points, floor {:.3}, lowest {:.3}, {below} below",
            last.loaded.len(),
            s.qos_min,
            last.remeasured
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        ),
    );
    let fp_graph = graph_fingerprint(&s.bench.graph);
    let roundtrip_ok = every().filter(|p| !p.loaded.is_empty()).all(|p| {
        serde_json::from_str::<ShippedArtifact>(&p.artifact_json)
            .is_ok_and(|a| a.fingerprint == fp_graph)
            && p.loaded.to_json() == p.result.curve.to_json()
    });
    m.check(
        "ship: artifact survives to_json -> load with an unchanged fingerprint and curve",
        roundtrip_ok,
        format!("fingerprint {fp_graph:#018x}"),
    );
    let first_curve = plain[0].result.curve.to_json();
    m.check(
        "tune: the same seed ships the same curve on every pass",
        every().all(|p| p.result.curve.to_json() == first_curve),
        format!("{} passes", every().count()),
    );
    let refined_ok = every().all(|p| {
        p.refined.len() <= p.loaded.len() && p.refined.points().iter().all(|q| q.qos > s.qos_min)
    });
    m.check(
        "install: refined points are a subset of the shipped ones, all above the floor",
        refined_ok,
        format!("{} -> {}", last.loaded.len(), last.refined.len()),
    );
    let infer_errors: u64 = every().map(|p| p.infer_errors).sum();
    m.check(
        "infer: every inference returned a finite output",
        infer_errors == 0,
        format!("{infer_errors} errored"),
    );
    m.e2e.insert(
        "ops_failed_share",
        m.failed as f64 / m.attempted.max(1) as f64,
    );

    // ---- per-layer, traced passes and probes -------------------------------
    if ctx.traced {
        let r = &traced
            .last()
            .expect("a traced run has a traced pass")
            .result;
        let t = |name: &str| best_of(&m.traced, &[name]);
        let (collect_s, search_s, validation_s) = (t("collect"), t("search"), t("validate"));
        let (ship_s, install_s) = (t("ship"), t("install"));
        let l = &mut m.layer;
        l.insert("core.profile.collect_s", collect_s);
        l.insert("core.profile.pairs", last.pairs as f64);
        l.insert("core.profile.pairs_per_s", last.pairs as f64 / collect_s);
        l.insert("core.search.search_s", search_s);
        l.insert("core.search.iterations", r.iterations as f64);
        l.insert("core.search.configs_per_s", r.iterations as f64 / search_s);
        l.insert("core.search.rounds", r.telemetry.len() as f64);
        l.insert("core.search.cache_hit_rate", r.cache.hit_rate());
        l.insert("core.search.cache_misses", r.cache.misses as f64);
        l.insert("core.search.dedups", r.cache.dedup as f64);
        l.insert(
            "core.search.faults_caught",
            r.faults.faults_absorbed() as f64,
        );
        l.insert("core.tuner.validation_s", validation_s);
        l.insert("core.tuner.alpha", r.alpha);
        l.insert("core.tuner.curve_points", r.curve.len() as f64);
        let above = last.remeasured.len() - last.below_floor(s.qos_min);
        l.insert(
            "core.tuner.points_above_floor",
            above as f64 / last.remeasured.len().max(1) as f64,
        );
        l.insert("core.ship.roundtrip_ms", ship_s * 1e3);
        l.insert("core.ship.artifact_bytes", last.artifact_json.len() as f64);
        l.insert("core.install.refine_s", install_s);
        l.insert("core.install.points_in", last.loaded.len() as f64);
        l.insert("core.install.points_kept", last.refined.len() as f64);
        model_probes(ctx, &s, last, &mut m)?;
    }
    Ok(m)
}

/// Cost of one prediction by each model, and how well predicted speedup
/// ranks measured CPU speedup (Kendall τ over shipped points ∪ the ladder
/// rungs, padded with seeded random configs to at least 12).
fn model_probes(ctx: &Ctx, s: &Setup, last: &PassOut, m: &mut Measured) -> Result<(), String> {
    let graph = &s.bench.graph;
    let profiles = last
        .profiles
        .as_ref()
        .ok_or("the newest pass keeps its profiles")?;
    let space = SearchSpace::new(s.registry.node_knobs(graph, KnobSet::HardwareIndependent));
    let mut rng = StdRng::seed_from_u64(ctx.sub_seed(3));
    let configs: Vec<Config> = (0..ctx.reps(10_000, 200))
        .map(|_| space.random(&mut rng))
        .collect();
    let perf = PerfModel::new(graph, &s.registry, s.cal.batches[0].shape())
        .map_err(|e| format!("perf model: {e}"))?;
    let per_call_ns = |f: &dyn Fn(&Config) -> f64| {
        let ((), secs) = timed(|| {
            for c in &configs {
                black_box(f(black_box(c)));
            }
        });
        secs * 1e9 / configs.len() as f64
    };
    for (name, model) in [
        ("core.predict.pi1_ns", PredictionModel::Pi1),
        ("core.predict.pi2_ns", PredictionModel::Pi2),
    ] {
        let predictor = Predictor::new(profiles, model, QosMetric::Accuracy);
        m.layer
            .insert(name, per_call_ns(&|c| predictor.predict(c, &s.reference)));
    }
    m.layer.insert(
        "core.perf.predict_ns",
        per_call_ns(&|c| perf.predicted_speedup(c)),
    );

    let mut calib: Vec<(String, Config)> = Vec::new();
    for (i, p) in last.loaded.points().iter().enumerate() {
        calib.push((format!("shipped[{i}]"), p.config.clone()));
    }
    for label in LADDER {
        calib.push((
            format!("ladder:{label}"),
            conv_rung(graph, &s.registry, label)?,
        ));
    }
    for pad in 0.. {
        if calib.len() >= 12 {
            break;
        }
        calib.push((format!("random[{pad}]"), space.random(&mut rng)));
    }
    let reps = ctx.reps(5, 1);
    let input = &s.cal.batches[0];
    let time_of = |c: &Config| {
        measured_cpu_time_s(graph, &s.registry, c, input, reps, 0)
            .map_err(|e| format!("measured_cpu_time_s: {e}"))
    };
    let base_s = time_of(&Config::baseline(graph))?;
    let mut predicted = Vec::with_capacity(calib.len());
    let mut measured = Vec::with_capacity(calib.len());
    for (_, c) in &calib {
        predicted.push(perf.predicted_speedup(c));
        measured.push(base_s / time_of(c)?.max(1e-12));
    }
    m.layer.insert(
        "core.perf.rank_tau",
        stats::kendall_tau(&predicted, &measured),
    );
    let ratios: Vec<f64> = predicted
        .iter()
        .zip(&measured)
        .map(|(p, q)| p / q)
        .collect();
    m.layer
        .insert("core.perf.speedup_ratio_geomean", stats::geomean(&ratios));
    for (i, j, _) in stats::worst_inversions(&predicted, &measured, 3) {
        m.notes.push(format!(
            "rank inversion: {} predicted {:.2}x measured {:.2}x vs {} predicted {:.2}x measured {:.2}x",
            calib[i].0, predicted[i], measured[i], calib[j].0, predicted[j], measured[j]
        ));
    }
    Ok(())
}
