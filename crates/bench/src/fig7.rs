//! Figure 7: the combined CNN + image-processing benchmark — speedups on a
//! 3×3 grid of (accuracy, PSNR) threshold pairs.
//!
//! QoS is the pair (classification accuracy of AlexNet2, PSNR of the Canny
//! edge maps). As either threshold is relaxed, the tuner finds more
//! approximation opportunities and speedup grows. As in the paper, only
//! model Π2 is applied: the Canny output set depends on the CNN's routing
//! decisions, so Π1's equal-shape ΔT requirement does not hold (§7.6 / §8).

use crate::env::Sizing;
use crate::harness::geomean;
use crate::report::{fx, Artifact, Table};
use at_core::config::{single_op_configs, Config};
use at_core::install::{EdgeDevice, InstallObjective};
use at_core::knobs::{KnobId, KnobSet};
use at_core::perf::{PerfModel, Pricing};
use at_core::search::{Autotuner, Proposal, SearchSpace};
use at_imgproc::combined::CombinedApp;
use at_models::data::build_dataset;
use at_models::ModelScale;

/// The `fig7` experiment.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let (device, objective) = (&EdgeDevice::tx2(), InstallObjective::Speedup);
    let mut app = CombinedApp::new(ModelScale::Tiny).expect("combined app builds");
    let ds = build_dataset(&app.cnn, sizing.samples.min(48), sizing.batch, 0xF16);
    app.calibrate_routing(&ds.batches).expect("routing");
    let golden = app.golden(&ds.batches).expect("golden");
    eprintln!(
        "[fig7] {} of {} images forwarded to Canny",
        golden.forwarded.len(),
        ds.len()
    );

    // Baseline joint QoS.
    let base_cfg = Config::from_knobs(vec![KnobId::BASELINE; app.total_nodes()]);
    let (acc_base, _psnr_base) = app
        .measure(&base_cfg, &ds.batches, &ds.labels, &golden, 0)
        .expect("baseline");

    // --- Π2-style joint profiles: (Δacc, Δmse) per (graph node, knob). ---
    eprintln!("[fig7] collecting joint profiles …");
    let n_cnn = app.cnn.graph.len();
    let set = KnobSet::HardwareIndependent;
    let mut pairs = single_op_configs(&app.cnn.graph, &app.registry, set);
    let canny_pairs = single_op_configs(&app.canny, &app.registry, set);
    pairs.extend(canny_pairs.into_iter().map(|(n, k)| (n_cnn + n, k)));
    let mse_of = |psnr: f64| 10f64.powf(-psnr / 10.0);
    let mut dacc = vec![0.0f64; pairs.len()];
    let mut dmse = vec![0.0f64; pairs.len()];
    for (i, &(node, knob)) in pairs.iter().enumerate() {
        let mut c = base_cfg.clone();
        c.set_knob(node, knob);
        let (a, p) = app
            .measure(&c, &ds.batches, &ds.labels, &golden, 0)
            .expect("profile measure");
        dacc[i] = a - acc_base;
        dmse[i] = mse_of(p); // baseline MSE is 0
    }
    let pair_index =
        |node: usize, knob: KnobId| pairs.iter().position(|&(n, k)| n == node && k == knob);

    // Combined performance model: sum of both graphs' Eqn-3 costs.
    let cnn_perf = PerfModel::new(&app.cnn.graph, &app.registry, ds.batches[0].shape()).unwrap();
    let canny_input = at_tensor::Shape::nchw(1, 1, 32, 32);
    let canny_perf = PerfModel::new(&app.canny, &app.registry, canny_input).unwrap();
    let on_device = Pricing::Device { device, objective };
    let joint = |c: &Config, pricing: &Pricing| {
        let price = |m: &PerfModel, knobs: &[KnobId]| {
            m.price(&Config::from_knobs(knobs.to_vec()), pricing)
                .expect("model pricing")
        };
        price(&cnn_perf, &c.knobs()[..n_cnn]) + price(&canny_perf, &c.knobs()[n_cnn..])
    };
    let base_cost = joint(&base_cfg, &Pricing::OpCount);
    let base_time = joint(&base_cfg, &on_device);
    let speedup = |c: &Config| base_cost / joint(c, &Pricing::OpCount).max(1e-12);
    let device_speedup = |c: &Config| base_time / joint(c, &on_device).max(1e-30);

    // --- The 3×3 grid. ---
    let acc_drops = [1.0, 2.0, 3.0];
    let psnr_mins = [24.0, 20.0, 16.0];
    let mut table = Table::new(&["PSNR \\ Acc", "drop 1pp", "drop 2pp", "drop 3pp"]);
    let mut json = Vec::new();
    let mut all = Vec::new();
    for &psnr_min in &psnr_mins {
        let mut row = vec![format!("PSNR>={psnr_min}")];
        for &drop in &acc_drops {
            let acc_min = acc_base - drop;
            // Predictive Π2 search over the joint space.
            let space = SearchSpace::new(app.node_knobs(KnobSet::HardwareIndependent));
            let mut tuner = Autotuner::new(space, sizing.max_iters, sizing.convergence, 0xF77);
            let mut candidates: Vec<Config> = Vec::new();
            // Seed with the feasible anchors (baseline, all-FP16), as the
            // main tuner does — random joint configs are almost surely
            // infeasible.
            let mut fp16_cfg = base_cfg.clone();
            for (node, ks) in app
                .node_knobs(KnobSet::HardwareIndependent)
                .iter()
                .enumerate()
            {
                if ks.len() > 1 {
                    fp16_cfg.set_knob(node, KnobId(1));
                }
            }
            let mut pending = vec![Proposal::seed(base_cfg.clone()), Proposal::seed(fp16_cfg)];
            loop {
                if pending.is_empty() && tuner.continue_tuning() {
                    pending = tuner.propose_batch(1);
                }
                let Some(proposal) = pending.pop() else {
                    break;
                };
                let config = &proposal.config;
                let mut pa = acc_base;
                let mut pm = 0.0f64;
                for (node, &k) in config.knobs().iter().enumerate() {
                    if k == KnobId::BASELINE {
                        continue;
                    }
                    if let Some(pi) = pair_index(node, k) {
                        pa += dacc[pi];
                        pm += dmse[pi];
                    }
                }
                let ppsnr = if pm <= 0.0 { 150.0 } else { -10.0 * pm.log10() };
                let margin = CombinedApp::margin(pa, ppsnr, acc_min, psnr_min);
                let fitness = if margin >= 0.0 {
                    speedup(config)
                } else {
                    margin
                };
                if margin >= 0.0 {
                    candidates.push(config.clone());
                }
                tuner.report_proposal(&proposal, fitness);
            }
            // Validate the most promising candidates for real.
            candidates.sort_by(|a, b| speedup(b).total_cmp(&speedup(a)));
            candidates.dedup();
            let mut best = 1.0f64;
            for c in candidates.iter().take(12) {
                let (a, p) = app
                    .measure(c, &ds.batches, &ds.labels, &golden, 0)
                    .expect("validation");
                if a >= acc_min && p >= psnr_min {
                    best = best.max(device_speedup(c));
                    break; // candidates are sorted by predicted speedup
                }
            }
            all.push(best);
            row.push(fx(best));
            json.push(serde_json::json!({
                "accuracy_drop_pp": drop, "psnr_min_db": psnr_min, "speedup": best,
            }));
        }
        table.row(row);
    }
    table.print();
    println!("\nGeomean over the grid: {}", fx(geomean(&all)));
    Artifact::results("fig7", &json)
}
