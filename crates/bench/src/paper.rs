//! The paper's per-benchmark tables and figures (§7.1–§7.4, §8, §9): each
//! is a row-closure over [`sweep`] — prepare, tune under a ΔQoS, evaluate
//! on a device model — plus the two that only tabulate data (`fig5`,
//! `table5`).

use crate::env::Sizing;
use crate::harness::{sweep, Evaluated};
use crate::report::{pct, Artifact, Table};
use at_core::install::{EdgeDevice, InstallObjective};
use at_core::knobs::KnobSet;
use at_core::pareto::{pareto_set, pareto_set_eps};
use at_core::perf::Pricing;
use at_core::predict::PredictionModel::{self, Pi1, Pi2};
use at_core::qos::QosReference;
use at_core::tuner::TunerParams;
use at_hw::{DeviceSpec, FrequencyLadder, PowerModel, TimingModel};
use at_models::prune::nonzero_conv_macs;
use at_models::zoo::conv_dense_layers;
use at_models::BenchmarkId;
use serde_json::json;

const DROPS: [f64; 3] = [1.0, 2.0, 3.0];
const DROP_HEADER: [&str; 4] = ["Benchmark", "dQoS 1%", "dQoS 2%", "dQoS 3%"];

/// `params` with the search budget set to exactly `iters` iterations.
fn budget(iters: usize, params: TunerParams) -> TunerParams {
    TunerParams {
        max_iters: iters,
        convergence_window: iters,
        ..params
    }
}

/// Table 1: layer counts and search-space sizes are *computed* from the
/// built graphs and the knob registry; baseline accuracy is *measured* on
/// the held-out test split (the synthetic datasets are teacher-calibrated
/// to the paper's accuracy, so measured ≈ paper up to sampling noise).
pub(crate) fn table1(sizing: &Sizing) -> Artifact {
    let mut table = Table::new(&[
        "Network",
        "Dataset",
        "Layers",
        "Layers(paper)",
        "Accuracy",
        "Accuracy(paper)",
        "log10(SearchSpace)",
        "log10(paper)",
    ]);
    let rows = sweep("table1", sizing, &BenchmarkId::ALL, |p| {
        let id = p.bench.id;
        let layers = conv_dense_layers(&p.bench.graph);
        let acc = p.baseline_test_accuracy();
        let space = p
            .registry
            .search_space_log10(&p.bench.graph, KnobSet::HardwareIndependent);
        table.row(vec![
            id.name().to_string(),
            id.dataset().to_string(),
            layers.to_string(),
            id.paper_layers().to_string(),
            pct(acc),
            pct(id.paper_baseline_accuracy()),
            format!("{space:.1}"),
            format!("{:.1}", id.paper_search_space().log10()),
        ]);
        vec![json!({
            "network": id.name(),
            "dataset": id.dataset(),
            "layers": layers,
            "layers_paper": id.paper_layers(),
            "accuracy_measured": acc,
            "accuracy_paper": id.paper_baseline_accuracy(),
            "search_space_log10": space,
            "search_space_log10_paper": id.paper_search_space().log10(),
        })]
    });
    table.print();
    Artifact::results("table1", &rows)
}

/// Figures 2a and 2b: for every benchmark and loss threshold, predictive
/// tuning with both predictors; the best configuration under the threshold
/// is reported by its device speedup and energy reduction — "the results
/// are reported after trying both predictors and choosing the best result"
/// (§7.1).
pub(crate) fn fig2(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice::tx2();
    let (mut speed, mut energy) = (Table::new(&DROP_HEADER), Table::new(&DROP_HEADER));
    let rows = sweep("fig2", sizing, &BenchmarkId::ALL, |p| {
        let (mut speedups, mut energies, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for drop in DROPS {
            let mut best: Option<Evaluated> = None;
            for model in [Pi1, Pi2] {
                let params = p.params(drop, model);
                let e = p.evaluate_best(&p.tune(&params).curve, params.qos_min, &device);
                if let Some(e) = e {
                    if best.as_ref().is_none_or(|b| e.speedup > b.speedup) {
                        best = Some(e);
                    }
                }
            }
            let (s, e) = best
                .as_ref()
                .map_or((1.0, 1.0), |b| (b.speedup, b.energy_reduction));
            speedups.push(s);
            energies.push(e);
            rows.push(json!({
                "benchmark": p.name(),
                "qos_drop": drop,
                "speedup": s,
                "energy_reduction": e,
                "test_drop": best.as_ref().map(|b| b.test_drop),
            }));
        }
        speed.factor_row(vec![p.name().to_string()], &speedups);
        energy.factor_row(vec![p.name().to_string()], &energies);
        rows
    });
    println!("Figure 2a: GPU speedups (paper geomeans: 2.14x / 2.23x / 2.28x)\n");
    speed.print();
    println!("\nFigure 2b: GPU energy reductions (paper geomeans: 1.99x / 2.06x / 2.11x)\n");
    energy.print();
    Artifact::results("fig2", &rows)
}

/// §7.1 "Improvements for CPU": the development-time curve is
/// hardware-independent; the CPU numbers come from evaluating it against
/// the CPU device model, which has no FP16 units, so only sampling and
/// perforation help — exactly the paper's flow for a second target.
pub(crate) fn cpu_results(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice {
        timing: TimingModel::new(DeviceSpec::tx2_cpu()),
        ..EdgeDevice::tx2()
    };
    let mut table = Table::new(&DROP_HEADER);
    let rows = sweep("cpu_results", sizing, &BenchmarkId::ALL, |p| {
        let (mut speedups, mut rows) = (Vec::new(), Vec::new());
        for drop in DROPS {
            let params = p.params(drop, Pi1);
            let s = p.best_speedup(&p.tune(&params).curve, params.qos_min, &device);
            speedups.push(s);
            rows.push(json!({
                "benchmark": p.name(), "qos_drop": drop, "cpu_speedup": s,
            }));
        }
        table.factor_row(vec![p.name().to_string()], &speedups);
        rows
    });
    table.print();
    Artifact::results("cpu_results", &rows)
}

/// Figure 3: predictive (Π1, Π2) vs empirical tuning at ΔQoS 3%. Π2 trails
/// in the paper because it systematically underestimates accuracy loss for
/// some benchmarks, so more of its configurations are removed during
/// validation. (The *time* comparison is Table 4's job; here both sides
/// converge.)
pub(crate) fn fig3(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice::tx2();
    let mut table = Table::new(&["Benchmark", "Predictive-Pi1", "Predictive-Pi2", "Empirical"]);
    let rows = sweep("fig3", sizing, &BenchmarkId::ALL, |p| {
        let mut entry = json!({ "benchmark": p.name() });
        let mut speedups = Vec::new();
        for model in [Pi1, Pi2] {
            let params = p.params(3.0, model);
            let s = p.best_speedup(&p.tune(&params).curve, params.qos_min, &device);
            entry[model.name()] = json!(s);
            speedups.push(s);
        }
        let params = budget(sizing.empirical_budget(200), p.params(3.0, Pi2));
        let s = p.best_speedup(&p.tune_empirical(&params).curve, params.qos_min, &device);
        entry["Empirical"] = json!(s);
        speedups.push(s);
        table.factor_row(vec![p.name().to_string()], &speedups);
        vec![entry]
    });
    table.print();
    Artifact::results("fig3", &rows)
}

/// Table 3: approximation knobs of the top-performing GPU configuration
/// (maximum speedup) per benchmark at ΔQoS 3%.
pub(crate) fn table3(sizing: &Sizing) -> Artifact {
    let device = EdgeDevice::tx2();
    let mut table = Table::new(&["Benchmark", "Occurrences of Approximation Knobs"]);
    let rows = sweep("table3", sizing, &BenchmarkId::ALL, |p| {
        let params = p.params(3.0, Pi1);
        let hist = p
            .evaluate_best(&p.tune(&params).curve, params.qos_min, &device)
            .map(|e| e.histogram)
            .unwrap_or_default();
        let rendered: Vec<String> = hist.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        table.row(vec![p.name().to_string(), rendered.join(" ")]);
        vec![json!({ "benchmark": p.name(), "histogram": hist })]
    });
    table.print();
    Artifact::results("table3", &rows)
}

/// Table 4: wall-clock of the search + validation phases at equal iteration
/// budgets; empirical evaluates every iteration by running the program,
/// predictive only validates the shipped candidates.
pub(crate) fn table4(sizing: &Sizing) -> Artifact {
    let mut table = Table::new(&[
        "Benchmark",
        "Empirical(s)",
        "Pred-Pi1(s)",
        "Pred-Pi2(s)",
        "Pi1-red",
        "Pi2-red",
    ]);
    let iters = sizing.empirical_budget(200);
    let rows = sweep("table4", sizing, &BenchmarkId::ALL, |p| {
        let predictive =
            |model: PredictionModel| p.tune(&budget(iters, p.params(3.0, model))).tuning_time_s();
        let times = [predictive(Pi1), predictive(Pi2)];
        let emp = p
            .tune_empirical(&budget(iters, p.params(3.0, Pi2)))
            .tuning_time_s();
        let reductions = [emp / times[0].max(1e-9), emp / times[1].max(1e-9)];
        let seconds = [emp, times[0], times[1]].map(|t| format!("{t:.2}"));
        let lead = std::iter::once(p.name().to_string()).chain(seconds);
        table.factor_row(lead.collect(), &reductions);
        vec![json!({
            "benchmark": p.name(), "empirical_s": emp,
            "pi1_s": times[0], "pi2_s": times[1],
            "pi1_reduction": reductions[0], "pi2_reduction": reductions[1],
        })]
    });
    table.print();
    Artifact::results("table4", &rows)
}

/// §7.3 "Size of Tradeoff Curves": candidate configurations generated by
/// autotuning vs the ≤ `AT_MAXCFG` shipped after ε-selection, plus an
/// ablation sweeping the ε-relaxation of the shipped curve.
pub(crate) fn curve_size(sizing: &Sizing) -> Artifact {
    let mut table = Table::new(&["Benchmark", "Candidates", "Shipped", "Reduction"]);
    let default = [
        BenchmarkId::LeNet,
        BenchmarkId::AlexNetCifar10,
        BenchmarkId::ResNet18,
        BenchmarkId::Vgg16Cifar10,
    ];
    let rows = sweep("curve_size", sizing, &default, |p| {
        let r = p.tune(&p.params(3.0, Pi1));
        let reduction = r.candidates as f64 / r.curve.len().max(1) as f64;
        table.row(vec![
            p.name().to_string(),
            r.candidates.to_string(),
            r.curve.len().to_string(),
            format!("{reduction:.1}x"),
        ]);
        vec![json!({
            "benchmark": p.name(), "candidates": r.candidates,
            "shipped": r.curve.len(), "reduction": reduction,
        })]
    });
    table.print();

    // Ablation: strict PS vs PS_ε at growing ε on a synthetic candidate
    // cloud (design choice called out in DESIGN.md §5).
    println!("\nAblation: ε-relaxed Pareto retention on a 500-point cloud");
    let pts: Vec<at_core::TradeoffPoint> = (0..500)
        .map(|i| at_core::TradeoffPoint {
            qos: 90.0 - 0.02 * (i % 100) as f64 - 0.005 * i as f64,
            perf: 1.0 + 0.004 * i as f64,
            config: at_core::Config::from_knobs(vec![]),
        })
        .collect();
    let mut ab = Table::new(&["epsilon", "|PS_eps|"]);
    ab.row(vec![
        "0 (strict)".into(),
        pareto_set(&pts).len().to_string(),
    ]);
    for eps in [0.05, 0.1, 0.25, 0.5, 1.0] {
        ab.row(vec![
            format!("{eps}"),
            pareto_set_eps(&pts, eps).len().to_string(),
        ]);
    }
    ab.print();
    Artifact::results("curve_size", &rows)
}

/// Figure 4: install-time distributed predictive tuning with the PROMISE
/// accelerator — energy reductions on GPU+PROMISE at ΔQoS 3%, with the
/// per-device profile-collection and server autotuning times of §7.4.
/// Individual benchmarks reach 10–16x in the paper when most convolutions
/// map to PROMISE; ResNet-50 maps none.
pub(crate) fn fig4(sizing: &Sizing) -> Artifact {
    let (device, objective) = (&EdgeDevice::tx2(), InstallObjective::EnergyReduction);
    let energy = Pricing::Device { device, objective };
    let mut table = Table::new(&[
        "Benchmark",
        "ProfileTime(s)",
        "ServerTune(s)",
        "Pred-Pi1",
        "Pred-Pi2",
        "Empirical",
    ]);
    let default = [
        BenchmarkId::LeNet,
        BenchmarkId::AlexNetCifar10,
        BenchmarkId::AlexNet2,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::ResNet18,
    ];
    let rows = sweep("fig4", sizing, &default, |p| {
        let labels = p.cal.labels.clone();
        let shard_ref = move |i: usize, n: usize| {
            QosReference::Labels(
                labels
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % n == i)
                    .map(|(_, l)| l.clone())
                    .collect(),
            )
        };
        let mut reductions = Vec::new();
        let (mut profile_t, mut server_t) = (0.0f64, 0.0f64);
        for model in [Pi1, Pi2] {
            let params = TunerParams {
                knob_set: KnobSet::WithHardware,
                ..p.params(3.0, model)
            };
            // The paper emulates 100 edge devices; shards are per
            // calibration batch, so at most #batches devices are active.
            let r = p
                .tuner()
                .install_tune(&energy, &shard_ref, sizing.edge_devices, &params)
                .expect("install tuning");
            let feasible = r
                .curve
                .points()
                .iter()
                .filter(|pt| pt.qos >= params.qos_min);
            reductions.push(feasible.map(|pt| pt.perf).fold(1.0f64, f64::max));
            profile_t = profile_t.max(r.device_profile_time_s);
            server_t = server_t.max(r.server_tuning_time_s);
        }
        // Empirical with hardware knobs (bounded iterations).
        let params = TunerParams {
            knob_set: KnobSet::WithHardware,
            ..budget(sizing.empirical_budget(150), p.params(3.0, Pi2))
        };
        let er = p.tune_empirical(&params);
        let perf = p.perf_model();
        let feasible = er
            .curve
            .points()
            .iter()
            .filter(|pt| pt.qos >= params.qos_min);
        let reduction = |pt: &at_core::TradeoffPoint| {
            perf.speedup(&pt.config, &energy).expect("device pricing")
        };
        reductions.push(feasible.map(reduction).fold(1.0f64, f64::max));
        let lead = [
            p.name().to_string(),
            format!("{profile_t:.1}"),
            format!("{server_t:.1}"),
        ];
        table.factor_row(lead.to_vec(), &reductions);
        vec![json!({
            "benchmark": p.name(),
            "pi1": reductions[0], "pi2": reductions[1], "empirical": reductions[2],
            "device_profile_time_s": profile_t, "server_tuning_time_s": server_t,
        })]
    });
    table.print();
    Artifact::results("fig4", &rows)
}

/// Figure 5: GPU, DDR and total system power at each GPU DVFS step while
/// the GPU is busy with inference (utilisation 1.0, the ResNet-18 run).
pub(crate) fn fig5(_: &Sizing) -> Artifact {
    let ladder = FrequencyLadder::tx2_gpu();
    let model = PowerModel::tx2();
    let mut table = Table::new(&["Freq (MHz)", "GPU (W)", "CPU (W)", "DDR (W)", "SYS (W)"]);
    let mut rows = Vec::new();
    for &f in ladder.frequencies() {
        let r = model.rails(f, 1.0);
        let watts = [r.gpu, r.cpu, r.ddr, r.sys()].map(|w| format!("{w:.2}"));
        table.row(std::iter::once(format!("{f:.0}")).chain(watts).collect());
        rows.push(json!({
            "freq_mhz": f, "gpu_w": r.gpu, "cpu_w": r.cpu,
            "ddr_w": r.ddr, "sys_w": r.sys(),
        }));
    }
    let hi = model.rails(ladder.max(), 1.0);
    let lo = model.rails(ladder.at(ladder.len() - 1), 1.0);
    table.print();
    println!(
        "\nGPU power drop: {:.2}x (paper ~7x)   SYS power drop: {:.2}x (paper ~1.9x)",
        hi.gpu / lo.gpu,
        hi.sys() / lo.sys()
    );
    Artifact::results("fig5", &rows)
}

/// Table 5: capability comparison of ApproxTuner against the most closely
/// related systems (qualitative; reproduced from §9).
pub(crate) fn table5(_: &Sizing) -> Artifact {
    const CAPABILITIES: [&str; 12] = [
        "AlgoApprox",
        "AccelApprox",
        "MultiDomain",
        "PrecTuning",
        "NoCodeChanges",
        "Retarget",
        "PortableObj",
        "Dev+Install",
        "RuntimeTuning",
        "Predictive",
        "ModelApprox",
        "Retraining",
    ];
    let systems: [(&str, &[&str]); 5] = [
        ("ApproxTuner", &CAPABILITIES[..10]),
        (
            "ApproxHPVM",
            &[
                "AccelApprox",
                "PrecTuning",
                "NoCodeChanges",
                "Retarget",
                "PortableObj",
            ],
        ),
        (
            "TVM/AutoTVM",
            &[
                "PrecTuning",
                "NoCodeChanges",
                "Retarget",
                "ModelApprox",
                "Retraining",
            ],
        ),
        ("ACCEPT", &["AlgoApprox", "MultiDomain", "PrecTuning"]),
        ("PetaBricks", &["AlgoApprox", "MultiDomain"]),
    ];
    let header = std::iter::once("System").chain(CAPABILITIES);
    let mut table = Table::new(&header.collect::<Vec<_>>());
    let mut rows = Vec::new();
    for (system, held) in systems {
        let cells = CAPABILITIES.map(|c| if held.contains(&c) { "yes" } else { "-" }.to_string());
        table.row(std::iter::once(system.to_string()).chain(cells).collect());
        rows.push(json!({ "system": system, "capabilities": held }));
    }
    table.print();
    Artifact::results("table5", &rows)
}

/// §8 pruning-interaction study: starting from magnitude-pruned models,
/// perforation is tuned empirically (as §8) to within 1 pp of the *pruned*
/// model's accuracy, and the further MAC reduction is reported.
pub(crate) fn pruning_study(sizing: &Sizing) -> Artifact {
    let mut table = Table::new(&[
        "Benchmark",
        "Pruned filters",
        "MACs (pruned)",
        "MACs (pruned+perf)",
        "MAC reduction",
        "Acc drop (pp)",
    ]);
    let default = [
        BenchmarkId::MobileNet,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::ResNet18,
    ];
    let rows = sweep("pruning_study", sizing, &default, |p| {
        let report = p.prune(0.3);
        let macs_pruned = nonzero_conv_macs(&p.bench.graph, p.input_shape());
        let pruned_base = p.baseline_cal_accuracy();
        let params = p.params(1.0, Pi2);
        let r = p.tune_empirical(&budget(params.max_iters.min(150), params));
        // MACs under the best configuration: scale each conv's MACs by its
        // knob's kept fraction.
        let best = r
            .curve
            .points()
            .iter()
            .max_by(|a, b| a.perf.total_cmp(&b.perf));
        let (macs_after, acc_drop) = match best {
            Some(pt) => {
                let choices = pt.config.decode(&p.registry, &p.bench.graph);
                let mut total = 0.0;
                let shapes = at_ir::shapes::infer_shapes(&p.bench.graph, p.input_shape())
                    .expect("the model's shapes infer");
                for node in p.bench.graph.nodes() {
                    if let at_ir::OpKind::Conv2d { weight, .. } = node.op {
                        let w = p.bench.graph.param(weight);
                        let nz = w.data().iter().filter(|&&x| x != 0.0).count() as f64
                            / w.len().max(1) as f64;
                        let out = shapes[node.id.0 as usize];
                        if let (Ok((n, k, ho, wo)), Ok((_, c, rr, ss))) =
                            (out.as_nchw(), w.shape().as_nchw())
                        {
                            let dense = (n * k * ho * wo * c * rr * ss) as f64 * nz;
                            let kept = match choices[node.id.0 as usize] {
                                at_ir::ApproxChoice::Digital { conv, .. } => conv.kept_fraction(),
                                _ => 1.0,
                            };
                            total += dense * kept;
                        }
                    }
                }
                (total, pruned_base - pt.qos)
            }
            None => (macs_pruned, 0.0),
        };
        let reduction = macs_pruned / macs_after.max(1.0);
        table.row(vec![
            p.name().to_string(),
            format!("{:.0}%", 100.0 * report.fraction()),
            format!("{macs_pruned:.2e}"),
            format!("{macs_after:.2e}"),
            format!("{reduction:.2}x"),
            format!("{acc_drop:.2}"),
        ]);
        vec![json!({
            "benchmark": p.name(),
            "pruned_fraction": report.fraction(),
            "mac_reduction": reduction,
            "accuracy_drop_vs_pruned": acc_drop,
        })]
    });
    table.print();
    Artifact::results("pruning_study", &rows)
}
