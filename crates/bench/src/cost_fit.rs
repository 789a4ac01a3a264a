//! The CPU cost model behind `Pricing::Cpu`: `repro cost_fit` fits it,
//! `repro cost_rank` checks how it ranks whole configurations.
//!
//! **cost_fit.** Every (node, knob) pair of Alexnet2, LeNet and MobileNet,
//! at Tiny and at Reduced scale, runs traced (`execute_with_records`)
//! alternately with the exact program on a one-thread pool; each node's
//! time is the minimum over the repetitions (a node's exact time the
//! median of those minima over its pairs, so that every row is a minimum
//! over equally many runs). Each node a pair touches (and
//! every node of the exact run) is one row: its kernel work counters and
//! its seconds. Non-negative least squares on relative error fits
//! `seconds ≈ c_call + Σ wᵢ·counterᵢ`, and the admission margin is one
//! plus the median relative error of the modelled node speedups above one
//! (against the paired measurements at Tiny), rounded up to a percent: a
//! pair is profiled only when the model's gain over exact beats its
//! typical error there. The weights land in
//! `crates/core/src/cost_table.rs` (generated, committed; the tuner reads
//! nothing else, so every machine ships the same curve) and the checks in
//! `results/cost_fit.json`: residuals, leave-one-shape-out error, per-node
//! Kendall τ, the equal-multiply pair of Alexnet2-Tiny, and the paired
//! node speedups of the pairs admitted and rejected at Tiny.
//!
//! **cost_rank.** For Alexnet2 and LeNet at Tiny and two seeds, whole-graph
//! configurations drawn from the full hardware-independent space are timed
//! alternately with exact, and `OpCount` and `Cpu` predicted speedups are
//! compared with the measured ones (Kendall τ, geomean of predicted ÷
//! measured) → `results/cost_rank.json`, with the pairs each price admits
//! per knob family.

use crate::env::Sizing;
use crate::report::{self, Artifact, Table};
use at_core::config::Config;
use at_core::cost_table::ADMIT_MARGIN;
use at_core::knobs::{KnobId, KnobRegistry, KnobSet};
use at_core::perf::{PerfModel, Pricing};
use at_core::search::SearchSpace;
use at_ir::exec::node_counters;
use at_ir::{execute, execute_with_records, ExecOptions, Graph, OpClass};
use at_models::{build, BenchmarkId, ModelScale};
use at_tensor::instrument::{Counters, COUNTER_FIELDS};
use at_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Interleaved repetitions per pair, per `AT_BENCH_REPS` repetition of a
/// kernel measurement: nodes take microseconds, so each keeps its minimum
/// over twice as many runs.
const REPS_PER_KERNEL_REP: usize = 2;
/// Batch of every timed input: the tuner's.
const BATCH: usize = 16;
/// Paired node speedups at or above this must be admitted, and at or
/// below its inverse-side bar [`REJECT_BELOW`] rejected.
const ADMIT_ABOVE: f64 = 1.10;
const REJECT_BELOW: f64 = 0.90;
/// Where the generated table goes, relative to the repository root.
const TABLE_PATH: &str = "crates/core/src/cost_table.rs";

/// One timed node: its counters and minimum seconds.
#[derive(Clone)]
struct Row {
    /// `model/scale/node`: rows of one group share a node and its shapes.
    group: String,
    /// Position in the fit's scale split (Tiny or Reduced).
    tiny: bool,
    counters: Counters,
    seconds: f64,
}

/// One pair's paired node speedup and the counters of the nodes it
/// touches, at the baseline and under the pair.
struct Paired {
    node: usize,
    knob: KnobId,
    measured: f64,
    base: Vec<Counters>,
    knobbed: Vec<Counters>,
}

/// One (node, knob) pair's paired timing at Tiny scale.
#[derive(Serialize)]
struct PairTiming {
    model: String,
    node: usize,
    knob: String,
    measured: f64,
    modelled: f64,
    admitted: bool,
}

fn one_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool")
        .install(f)
}

fn input_for(id: BenchmarkId, shape: Shape, batch: usize, seed: u64) -> Tensor {
    let d = shape.dims().to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ id as u64);
    Tensor::uniform(Shape::nchw(batch, d[1], d[2], d[3]), -1.0, 1.0, &mut rng)
}

/// Whether a knob label is a non-zero offset of a sampling or perforation
/// knob: the same work as its offset-0 sibling, left out where the sweep
/// is thinned.
fn is_offset_variant(label: &str) -> bool {
    label.contains("-o") && !label.contains("-o0-")
}

/// Per-node minimum seconds of `opts` and of the exact program over `reps`
/// alternating traced runs.
fn paired_node_times(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
    reps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = graph.len();
    let (mut exact, mut knob) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    let base = ExecOptions::baseline();
    for _ in 0..reps {
        for (which, o) in [(&mut exact, &base), (&mut knob, opts)] {
            let (_, records) = execute_with_records(graph, input, o).expect("traced run");
            for (t, r) in which.iter_mut().zip(&records) {
                *t = t.min(r.seconds);
            }
        }
    }
    (exact, knob)
}

/// Times every pair of one model at one scale; returns the rows and, at
/// Tiny, each pair's paired node speedup.
fn time_model(
    id: BenchmarkId,
    scale: ModelScale,
    registry: &KnobRegistry,
    thin: bool,
    reps: usize,
) -> (Vec<Row>, Vec<Paired>) {
    let bench = build(id, scale);
    let graph = &bench.graph;
    let input = input_for(id, bench.input_shape, BATCH, 0xF17);
    let tiny = scale == ModelScale::Tiny;
    let tag = format!("{}/{}", id.name(), if tiny { "tiny" } else { "reduced" });
    let base_counts = node_counters(graph, input.shape(), &ExecOptions::baseline()).expect("twin");
    let mut consumers = vec![Vec::new(); graph.len()];
    for node in graph.nodes() {
        for v in &node.inputs {
            consumers[v.0 as usize].push(node.id.0 as usize);
        }
    }
    let mut rows = Vec::new();
    // Every pair's exact minimum per node: a node's exact row is their
    // median, a minimum over as many runs as any pair row's.
    let mut exact_mins = vec![Vec::new(); graph.len()];
    let mut paired = Vec::new();
    for node in graph.nodes() {
        let i = node.id.0 as usize;
        let mut touched: Vec<usize> = node.inputs.iter().map(|v| v.0 as usize).collect();
        touched.push(i);
        touched.extend(&consumers[i]);
        touched.sort_unstable();
        touched.dedup();
        for knob in registry.knobs(node.op.class(), KnobSet::HardwareIndependent) {
            if knob.id == KnobId::BASELINE || (thin && is_offset_variant(&knob.label)) {
                continue;
            }
            let mut config = vec![at_ir::ApproxChoice::BASELINE; graph.len()];
            config[i] = knob.choice;
            let opts = ExecOptions {
                config,
                promise_seed: 0,
            };
            let counts = node_counters(graph, input.shape(), &opts).expect("twin");
            let (exact, timed) = paired_node_times(graph, &input, &opts, reps);
            for (m, &e) in exact_mins.iter_mut().zip(&exact) {
                m.push(e);
            }
            let mut sums = (0.0, 0.0);
            for &v in &touched {
                if !counts[v].is_zero() {
                    sums.1 += timed[v];
                    if counts[v] != base_counts[v] {
                        rows.push(Row {
                            group: format!("{tag}/{v}"),
                            tiny,
                            counters: counts[v],
                            seconds: timed[v],
                        });
                    }
                }
                if !base_counts[v].is_zero() {
                    sums.0 += exact[v];
                }
            }
            paired.push(Paired {
                node: i,
                knob: knob.id,
                measured: sums.0 / sums.1.max(1e-12),
                base: touched.iter().map(|&v| base_counts[v]).collect(),
                knobbed: touched.iter().map(|&v| counts[v]).collect(),
            });
        }
    }
    for (v, (c, mins)) in base_counts.iter().zip(exact_mins).enumerate() {
        if !c.is_zero() && !mins.is_empty() {
            rows.push(Row {
                group: format!("{tag}/{v}"),
                tiny,
                counters: *c,
                seconds: median(mins),
            });
        }
    }
    (rows, paired)
}

/// Non-negative least squares (Lawson–Hanson) of `min ‖A·x − b‖` over
/// `x ≥ 0`, given `AᵀA` and `Aᵀb`.
fn nnls(ata: &[Vec<f64>], atb: &[f64]) -> Vec<f64> {
    let n = atb.len();
    let mut x = vec![0.0; n];
    let mut passive = vec![false; n];
    let grad = |x: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| atb[i] - (0..n).map(|j| ata[i][j] * x[j]).sum::<f64>())
            .collect()
    };
    for _ in 0..3 * n {
        let w = grad(&x);
        let next = (0..n)
            .filter(|&i| !passive[i] && w[i] > 1e-12)
            .max_by(|&a, &b| w[a].total_cmp(&w[b]));
        let Some(j) = next else { break };
        passive[j] = true;
        loop {
            let z = solve_passive(ata, atb, &passive);
            if (0..n).all(|i| !passive[i] || z[i] > 0.0) {
                x = z;
                break;
            }
            // Step towards z until the first passive coordinate hits zero.
            let alpha = (0..n)
                .filter(|&i| passive[i] && z[i] <= 0.0)
                .map(|i| x[i] / (x[i] - z[i]).max(1e-300))
                .fold(f64::INFINITY, f64::min);
            for i in 0..n {
                x[i] += alpha * (z[i] - x[i]);
                if passive[i] && x[i] <= 1e-15 {
                    passive[i] = false;
                    x[i] = 0.0;
                }
            }
        }
    }
    x
}

/// The unconstrained least-squares solution over the passive coordinates
/// (zero elsewhere), by Gaussian elimination with partial pivoting.
fn solve_passive(ata: &[Vec<f64>], atb: &[f64], passive: &[bool]) -> Vec<f64> {
    let idx: Vec<usize> = (0..atb.len()).filter(|&i| passive[i]).collect();
    let m = idx.len();
    let mut a: Vec<Vec<f64>> = idx
        .iter()
        .map(|&i| {
            let mut row: Vec<f64> = idx.iter().map(|&j| ata[i][j]).collect();
            row[idx.iter().position(|&j| j == i).unwrap_or(0)] *= 1.0 + 1e-10;
            row.push(atb[i]);
            row
        })
        .collect();
    for c in 0..m {
        let p = (c..m)
            .max_by(|&x, &y| a[x][c].abs().total_cmp(&a[y][c].abs()))
            .unwrap_or(c);
        a.swap(c, p);
        let d = a[c][c];
        if d.abs() < 1e-300 {
            continue;
        }
        let pivot = a[c].clone();
        for (_, row) in a.iter_mut().enumerate().filter(|(r, _)| *r != c) {
            let f = row[c] / d;
            for (x, &p) in row[c..].iter_mut().zip(&pivot[c..]) {
                *x -= f * p;
            }
        }
    }
    let mut z = vec![0.0; atb.len()];
    for (c, &i) in idx.iter().enumerate() {
        z[i] = if a[c][c].abs() < 1e-300 {
            0.0
        } else {
            a[c][m] / a[c][c]
        };
    }
    z
}

/// Features of a row: the call indicator, then every counter.
fn features(c: &Counters) -> [f64; COUNTER_FIELDS + 1] {
    let mut f = [1.0; COUNTER_FIELDS + 1];
    for (d, v) in f[1..].iter_mut().zip(c.values()) {
        *d = v as f64;
    }
    f
}

/// `(c_call, weights)` minimising the squared relative error over `rows`.
fn fit(rows: &[&Row]) -> (f64, [f64; COUNTER_FIELDS]) {
    const N: usize = COUNTER_FIELDS + 1;
    // Columns scaled to unit maximum, rows by 1/seconds (relative error).
    let mut scale = [0.0f64; N];
    for r in rows {
        for (s, f) in scale.iter_mut().zip(features(&r.counters)) {
            *s = s.max(f / r.seconds);
        }
    }
    let mut ata = vec![vec![0.0; N]; N];
    let mut atb = vec![0.0; N];
    for r in rows {
        let f = features(&r.counters);
        let a: Vec<f64> = (0..N)
            .map(|j| {
                if scale[j] > 0.0 {
                    f[j] / r.seconds / scale[j]
                } else {
                    0.0
                }
            })
            .collect();
        for i in 0..N {
            atb[i] += a[i];
            for j in 0..N {
                ata[i][j] += a[i] * a[j];
            }
        }
    }
    let x = nnls(&ata, &atb);
    let unscale = |j: usize| if scale[j] > 0.0 { x[j] / scale[j] } else { 0.0 };
    let mut w = [0.0; COUNTER_FIELDS];
    for (j, wj) in w.iter_mut().enumerate() {
        *wj = unscale(j + 1);
    }
    (unscale(0), w)
}

fn predict(model: &(f64, [f64; COUNTER_FIELDS]), c: &Counters) -> f64 {
    model.0
        + c.values()
            .iter()
            .zip(&model.1)
            .map(|(&v, &w)| v as f64 * w)
            .sum::<f64>()
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Kendall's τ-a of two equally long sequences (0 for fewer than 2).
pub(crate) fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let s = (a[i] - a[j]).signum() * (b[i] - b[j]).signum();
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * n.saturating_sub(1) / 2).max(1) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Fit quality on one scale's rows.
#[derive(Serialize)]
struct ScaleCheck {
    scale: String,
    rows: usize,
    groups: usize,
    median_abs_residual: f64,
    p90_abs_residual: f64,
    loso_median_abs_error: f64,
    per_node_tau_median: f64,
    per_node_tau_min: f64,
    nodes_tau_at_least_0_8: usize,
    nodes_with_tau: usize,
}

fn scale_check(
    name: &str,
    rows: &[Row],
    all: &[Row],
    model: &(f64, [f64; COUNTER_FIELDS]),
) -> ScaleCheck {
    let rel = |m: &(f64, [f64; COUNTER_FIELDS]), r: &Row| {
        (predict(m, &r.counters) / r.seconds - 1.0).abs()
    };
    let mut residuals: Vec<f64> = rows.iter().map(|r| rel(model, r)).collect();
    residuals.sort_by(f64::total_cmp);
    let mut groups: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for r in rows {
        groups.entry(&r.group).or_default().push(r);
    }
    // Leave one node shape out: refit on every other row of both scales.
    let mut held_out = Vec::new();
    for (g, members) in &groups {
        let rest: Vec<&Row> = all.iter().filter(|r| r.group != *g).collect();
        let m = fit(&rest);
        held_out.extend(members.iter().map(|r| rel(&m, r)));
    }
    // Per node, over its distinct work points (knobs that count the same
    // work, such as a sampling knob's offsets, are one point at their
    // median time).
    let taus: Vec<f64> = groups
        .values()
        .filter_map(|m| {
            let mut points: Vec<(Counters, Vec<f64>)> = Vec::new();
            for r in m {
                match points.iter_mut().find(|(c, _)| *c == r.counters) {
                    Some((_, times)) => times.push(r.seconds),
                    None => points.push((r.counters, vec![r.seconds])),
                }
            }
            (points.len() >= 3).then(|| {
                let p: Vec<f64> = points.iter().map(|(c, _)| predict(model, c)).collect();
                let s: Vec<f64> = points.into_iter().map(|(_, t)| median(t)).collect();
                kendall_tau(&p, &s)
            })
        })
        .collect();
    ScaleCheck {
        scale: name.into(),
        rows: rows.len(),
        groups: groups.len(),
        median_abs_residual: median(residuals.clone()),
        p90_abs_residual: residuals
            .get(residuals.len() * 9 / 10)
            .copied()
            .unwrap_or(0.0),
        loso_median_abs_error: median(held_out),
        per_node_tau_median: median(taus.clone()),
        per_node_tau_min: taus.iter().copied().fold(1.0, f64::min),
        nodes_tau_at_least_0_8: taus.iter().filter(|&&t| t >= 0.8).count(),
        nodes_with_tau: taus.len(),
    }
}

#[derive(Serialize)]
struct FitReport {
    machine: String,
    source: String,
    reps: usize,
    batch: usize,
    c_call_s: f64,
    weights: BTreeMap<String, f64>,
    admit_margin: f64,
    checks: Vec<ScaleCheck>,
    /// Alexnet2-Tiny's 4→4 conv at 32² and 8→8 conv at 16² run the same
    /// multiplies; the model must order their exact times as measured.
    equal_multiply_pair: BTreeMap<String, f64>,
    admitted_at_or_above_1_10: usize,
    rejected_at_or_above_1_10: usize,
    rejected_at_or_below_0_90: usize,
    admitted_at_or_below_0_90: usize,
    pairs: Vec<PairTiming>,
}

/// This machine's CPU model and logical CPU count.
fn machine() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']))
        })
        .unwrap_or("unknown CPU");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {cpus} logical CPUs")
}

/// The checked-out commit, as `git describe` names it (`-dirty` when the
/// working tree differs from it).
fn source() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn table_source(
    machine: &str,
    source: &str,
    model: &(f64, [f64; COUNTER_FIELDS]),
    margin: f64,
) -> String {
    let mut s = String::new();
    s += "//! The CPU cost model's weights, generated by `repro cost_fit` — do not edit\n";
    s += "//! by hand; rerun `cost_fit` when a kernel or a counter changes.\n//!\n";
    s += &format!("//! Fitted on: {machine}\n//! Source: commit {source}\n\n");
    s += "/// The counters the weights apply to, in `Counters::FIELDS` order.\n";
    s += &format!("pub const FEATURES: [&str; {COUNTER_FIELDS}] = [\n");
    for f in Counters::FIELDS {
        s += &format!("    \"{f}\",\n");
    }
    s += "];\n\n/// Seconds of one kernel call beyond its counted work.\n";
    s += &format!("pub const C_CALL: f64 = {:e};\n\n", model.0);
    s += "/// Seconds per unit of each counter, in [`FEATURES`] order.\n";
    s += &format!("pub const WEIGHTS: [f64; {COUNTER_FIELDS}] = [\n");
    for (f, w) in Counters::FIELDS.iter().zip(&model.1) {
        s += &format!("    // {f}\n    {w:e},\n");
    }
    s += "];\n\n/// A (node, knob) pair is profiled only when its modelled node speedup\n";
    s += "/// over exact is above this margin: one plus the median relative error\n";
    s += "/// of the modelled node speedups above one at Tiny scale, rounded up to\n";
    s += "/// a percent.\n";
    s += &format!("pub const ADMIT_MARGIN: f64 = {margin:.2};\n");
    s
}

/// `repro cost_fit`.
pub(crate) fn run_fit(sizing: &Sizing) -> Artifact {
    let registry = KnobRegistry::new();
    let reps = REPS_PER_KERNEL_REP * sizing.kernel_reps.max(1);
    let models = [
        BenchmarkId::AlexNet2,
        BenchmarkId::LeNet,
        BenchmarkId::MobileNet,
    ];
    let mut rows = Vec::new();
    let mut tiny_pairs = Vec::new();
    for scale in [ModelScale::Tiny, ModelScale::Reduced] {
        for id in models {
            let started = Instant::now();
            // Every pair where admission is checked, offset 0 elsewhere.
            let thin = scale == ModelScale::Reduced || id == BenchmarkId::MobileNet;
            let (r, p) = one_thread(|| time_model(id, scale, &registry, thin, reps));
            eprintln!(
                "[cost_fit] {} {scale:?}: {} rows in {:.1}s",
                id.name(),
                r.len(),
                started.elapsed().as_secs_f64()
            );
            rows.extend(r);
            if scale == ModelScale::Tiny && id != BenchmarkId::MobileNet {
                tiny_pairs.push((id, p));
            }
        }
    }
    let all: Vec<&Row> = rows.iter().collect();
    let model = fit(&all);
    // The model's node speedup of each Tiny pair, and the margin: one plus
    // the median relative error of the speedups it would admit on.
    let seconds = |cs: &[Counters]| -> f64 {
        cs.iter()
            .filter(|c| !c.is_zero())
            .map(|c| predict(&model, c))
            .sum()
    };
    let modelled: Vec<Vec<f64>> = tiny_pairs
        .iter()
        .map(|(_, ps)| {
            ps.iter()
                .map(|p| seconds(&p.base) / seconds(&p.knobbed))
                .collect()
        })
        .collect();
    let errors: Vec<f64> = tiny_pairs
        .iter()
        .zip(&modelled)
        .flat_map(|((_, ps), ms)| ps.iter().zip(ms))
        .filter(|(_, &m)| m > 1.0)
        .map(|(p, &m)| (m / p.measured - 1.0).abs())
        .collect();
    let margin = 1.0 + (median(errors) * 100.0).ceil() / 100.0;
    let split = |tiny: bool| {
        rows.iter()
            .filter(|r| r.tiny == tiny)
            .cloned()
            .collect::<Vec<_>>()
    };
    let checks = vec![
        scale_check("tiny", &split(true), &rows, &model),
        scale_check("reduced", &split(false), &rows, &model),
    ];

    // The equal-multiply pair: exact rows of Alexnet2-Tiny's convolutions.
    let a2 = build(BenchmarkId::AlexNet2, ModelScale::Tiny);
    let shape = input_for(BenchmarkId::AlexNet2, a2.input_shape, BATCH, 0xF17).shape();
    let shapes = at_ir::shapes::infer_shapes(&a2.graph, shape).expect("shapes");
    let mut equal = BTreeMap::new();
    for node in a2.graph.nodes() {
        let at_ir::OpKind::Conv2d { weight, .. } = node.op else {
            continue;
        };
        let (k, c, _, _) = a2.graph.param(weight).shape().as_nchw().expect("nchw");
        let hw = shapes[node.inputs[0].0 as usize].dims()[2];
        if (c, k, hw) == (4, 4, 32) || (c, k, hw) == (8, 8, 16) {
            let key = format!("{c}->{k}@{hw}");
            let group = format!("{}/tiny/{}", a2.id.name(), node.id.0);
            let base = node_counters(&a2.graph, shape, &ExecOptions::baseline()).expect("twin")
                [node.id.0 as usize];
            if let Some(r) = rows.iter().find(|r| r.group == group && r.counters == base) {
                equal.insert(format!("{key} measured_s"), r.seconds);
                equal.insert(format!("{key} predicted_s"), predict(&model, &r.counters));
            }
        }
    }

    // Admission at Tiny against the paired node speedups.
    let mut pairs = Vec::new();
    for ((id, timed), modelled) in tiny_pairs.into_iter().zip(modelled) {
        let graph = build(id, ModelScale::Tiny).graph;
        for (p, modelled) in timed.into_iter().zip(modelled) {
            let class = graph.nodes()[p.node].op.class();
            pairs.push(PairTiming {
                model: id.name().into(),
                node: p.node,
                knob: registry.table(class)[usize::from(p.knob.0)].label.clone(),
                measured: p.measured,
                modelled,
                admitted: modelled > margin,
            });
        }
    }
    let count = |f: &dyn Fn(&PairTiming) -> bool| pairs.iter().filter(|p| f(p)).count();
    let report = FitReport {
        machine: machine(),
        source: source(),
        reps,
        batch: BATCH,
        c_call_s: model.0,
        weights: Counters::FIELDS
            .iter()
            .zip(model.1)
            .map(|(f, w)| (f.to_string(), w))
            .collect(),
        admit_margin: margin,
        checks,
        equal_multiply_pair: equal,
        admitted_at_or_above_1_10: count(&|p| p.measured >= ADMIT_ABOVE && p.admitted),
        rejected_at_or_above_1_10: count(&|p| p.measured >= ADMIT_ABOVE && !p.admitted),
        rejected_at_or_below_0_90: count(&|p| p.measured <= REJECT_BELOW && !p.admitted),
        admitted_at_or_below_0_90: count(&|p| p.measured <= REJECT_BELOW && p.admitted),
        pairs,
    };

    let mut t = Table::new(&[
        "scale",
        "rows",
        "median |res|",
        "LOSO median",
        "node τ median",
        "τ ≥ 0.8",
    ]);
    for c in &report.checks {
        t.row(vec![
            c.scale.clone(),
            c.rows.to_string(),
            report::pct(100.0 * c.median_abs_residual),
            report::pct(100.0 * c.loso_median_abs_error),
            format!("{:.2}", c.per_node_tau_median),
            format!("{}/{}", c.nodes_tau_at_least_0_8, c.nodes_with_tau),
        ]);
    }
    t.print();
    println!(
        "margin {margin:.2}; Tiny pairs ≥ {ADMIT_ABOVE}: {} admitted, {} rejected; ≤ {REJECT_BELOW}: {} rejected, {} admitted",
        report.admitted_at_or_above_1_10,
        report.rejected_at_or_above_1_10,
        report.rejected_at_or_below_0_90,
        report.admitted_at_or_below_0_90
    );
    let path = report::artifact_path(TABLE_PATH, crate::env::overridden());
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(
        &path,
        table_source(&report.machine, &report.source, &model, margin),
    ) {
        Ok(()) => eprintln!("[results] wrote {}", path.display()),
        Err(e) => eprintln!("[results] failed to write {}: {e}", path.display()),
    }
    Artifact::results("cost_fit", &report)
}

/// One model and seed of `cost_rank`.
#[derive(Serialize)]
struct RankRow {
    model: String,
    seed: u64,
    configs: usize,
    op_count_tau: f64,
    cpu_tau: f64,
    op_count_geomean_ratio: f64,
    cpu_geomean_ratio: f64,
    /// Pairs `collect` profiles under each price, per knob family.
    admitted_cpu: BTreeMap<String, usize>,
    admitted_op_count: BTreeMap<String, usize>,
}

/// The knob family of a label: its mechanism and precision.
fn family(label: &str) -> String {
    let prec = if label.ends_with("fp16") {
        "fp16"
    } else {
        "fp32"
    };
    match label.split('-').next().unwrap_or(label) {
        "samp" => format!("samp-{prec}"),
        "perf" if label.contains("-row-") => format!("perf-row-{prec}"),
        "perf" => format!("perf-col-{prec}"),
        "lutmul" => "lutmul".into(),
        "red" => format!("red-{prec}"),
        _ => prec.into(),
    }
}

/// Configurations ranked per model and seed.
const RANK_CONFIGS: usize = 60;

/// `repro cost_rank`.
pub(crate) fn run_rank(sizing: &Sizing) -> Artifact {
    let registry = KnobRegistry::new();
    let reps = REPS_PER_KERNEL_REP * sizing.kernel_reps.max(1);
    let mut out = Vec::new();
    for id in [BenchmarkId::AlexNet2, BenchmarkId::LeNet] {
        let bench = build(id, ModelScale::Tiny);
        let graph = &bench.graph;
        for seed in [7u64, 11] {
            let input = input_for(id, bench.input_shape, BATCH, seed);
            let perf = PerfModel::new(graph, &registry, input.shape()).expect("perf model");
            let space = SearchSpace::new(registry.node_knobs(graph, KnobSet::HardwareIndependent));
            let mut rng = StdRng::seed_from_u64(seed);
            let configs: Vec<Config> = (0..RANK_CONFIGS).map(|_| space.random(&mut rng)).collect();
            let measured: Vec<f64> = one_thread(|| {
                configs
                    .iter()
                    .map(|c| {
                        let opts = ExecOptions {
                            config: c.decode(&registry, graph),
                            promise_seed: 0,
                        };
                        let (mut exact, mut approx) = (f64::INFINITY, f64::INFINITY);
                        for _ in 0..reps {
                            for (t, o) in
                                [(&mut exact, &ExecOptions::baseline()), (&mut approx, &opts)]
                            {
                                let started = Instant::now();
                                std::hint::black_box(execute(graph, &input, o).expect("run"));
                                *t = t.min(started.elapsed().as_secs_f64());
                            }
                        }
                        exact / approx
                    })
                    .collect()
            });
            let predicted = |p: Pricing| -> Vec<f64> {
                configs
                    .iter()
                    .map(|c| perf.speedup(c, &p).expect("price"))
                    .collect()
            };
            let (op, cpu) = (predicted(Pricing::OpCount), predicted(Pricing::Cpu));
            let geo = |p: &[f64]| {
                let logs: f64 = p.iter().zip(&measured).map(|(p, m)| (p / m).ln()).sum();
                (logs / measured.len() as f64).exp()
            };
            let mut admitted_cpu = BTreeMap::new();
            let mut admitted_op_count = BTreeMap::new();
            for node in graph.nodes() {
                let class = node.op.class();
                if class == OpClass::Input {
                    continue;
                }
                for knob in registry.knobs(class, KnobSet::HardwareIndependent) {
                    if knob.id == KnobId::BASELINE {
                        continue;
                    }
                    let f = family(&knob.label);
                    *admitted_op_count.entry(f.clone()).or_insert(0) += 1;
                    let s = perf
                        .cpu_node_speedup(node.id.0 as usize, knob.id)
                        .expect("cpu price");
                    *admitted_cpu.entry(f).or_insert(0) += usize::from(s > ADMIT_MARGIN);
                }
            }
            out.push(RankRow {
                model: id.name().into(),
                seed,
                configs: configs.len(),
                op_count_tau: kendall_tau(&op, &measured),
                cpu_tau: kendall_tau(&cpu, &measured),
                op_count_geomean_ratio: geo(&op),
                cpu_geomean_ratio: geo(&cpu),
                admitted_cpu,
                admitted_op_count,
            });
        }
    }
    let mut t = Table::new(&[
        "model",
        "seed",
        "τ OpCount",
        "τ Cpu",
        "pred/meas OpCount",
        "pred/meas Cpu",
    ]);
    for r in &out {
        t.row(vec![
            r.model.clone(),
            r.seed.to_string(),
            format!("{:.2}", r.op_count_tau),
            format!("{:.2}", r.cpu_tau),
            report::fx(r.op_count_geomean_ratio),
            report::fx(r.cpu_geomean_ratio),
        ]);
    }
    t.print();
    Artifact::results("cost_rank", &out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnls_recovers_a_non_negative_model_and_clamps_a_negative_one() {
        // b = 2·x0 + 3·x1 exactly: recovered.
        let a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let normal = |b: [f64; 3]| {
            let ata: Vec<Vec<f64>> = (0..2)
                .map(|i| {
                    (0..2)
                        .map(|j| a.iter().map(|r| r[i] * r[j]).sum())
                        .collect()
                })
                .collect();
            let atb: Vec<f64> = (0..2)
                .map(|i| a.iter().zip(&b).map(|(r, y)| r[i] * y).sum())
                .collect();
            nnls(&ata, &atb)
        };
        let x = normal([2.0, 3.0, 5.0]);
        assert!(
            (x[0] - 2.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9,
            "{x:?}"
        );
        // The unconstrained fit wants x1 < 0: clamped to 0, x0 refitted.
        let x = normal([2.0, -3.0, -1.0]);
        assert_eq!(x[1], 0.0);
        assert!(x[0] > 0.0);
    }

    #[test]
    fn kendall_tau_counts_concordant_pairs() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), -1.0);
    }
}
