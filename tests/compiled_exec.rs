//! A compiled configuration changes no output bit.
//!
//! `execute`, `execute_suffix` and `execute_with_records` keep the last
//! configuration each thread compiled (`at_ir::exec::Compiled`: the plan,
//! every convolution's lowering and prepared weights, every dense layer's
//! packed weights) and reuse it while the graph, the input shape, the first
//! node and the configuration stay the same. Each case here runs on one
//! thread, so it reads what an earlier call compiled, and must equal, bit
//! for bit, the same call on a fresh thread, where nothing was compiled:
//!
//! - a weight changed through `Graph::param_mut` between two calls;
//! - two configurations, two batch sizes and two suffix starts, each
//!   case run after every other;
//! - `serve::GraphExecutor`'s compiled curve points, selected by index,
//!   against `execute` under each point's options.
//!
//! Meant for `--release` (the kernels vectorise only there), and fast
//! enough at the Tiny scale to run in the debug suite too.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::core::pareto::{TradeoffCurve, TradeoffPoint};
use approxtuner::core::serve::GraphExecutor;
use approxtuner::ir::graph::ParamId;
use approxtuner::ir::{
    execute, execute_all, execute_suffix, execute_with_records, ExecOptions, Graph, NodeId,
    OpClass, OpKind,
};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn lenet() -> Graph {
    build(BenchmarkId::LeNet, ModelScale::Tiny).graph
}

fn input(graph: &Graph, batch: usize, seed: u64) -> Tensor {
    let d = build(BenchmarkId::LeNet, ModelScale::Tiny).input_shape;
    assert_eq!(graph.nodes()[0].op, OpKind::Input);
    let d = d.dims();
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(Shape::nchw(batch, d[1], d[2], d[3]), -1.0, 1.0, &mut rng)
}

/// The configuration with the knob `label` on every node of `classes`
/// whose table has it, baseline elsewhere.
fn rung(graph: &Graph, registry: &KnobRegistry, classes: &[OpClass], label: &str) -> Config {
    let mut config = Config::baseline(graph);
    for node in graph.nodes() {
        let class = node.op.class();
        let knob = registry.table(class).iter().find(|k| k.label == label);
        if let (true, Some(knob)) = (classes.contains(&class), knob) {
            config.set_knob(node.id.0 as usize, knob.id);
        }
    }
    config
}

fn opts(graph: &Graph, registry: &KnobRegistry, config: &Config, seed: u64) -> ExecOptions {
    ExecOptions {
        config: config.decode(registry, graph),
        promise_seed: seed,
    }
}

/// `f` on a thread of its own, whose compiled configuration and arena start
/// empty.
fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
}

/// The weight parameters of every convolution and dense layer.
fn weights(graph: &Graph) -> Vec<ParamId> {
    let weight = |op: &OpKind| match *op {
        OpKind::Conv2d { weight, .. } | OpKind::Dense { weight, .. } => Some(weight),
        _ => None,
    };
    graph.nodes().iter().filter_map(|n| weight(&n.op)).collect()
}

#[test]
fn a_weight_changed_through_param_mut_is_never_run_from_a_stale_compile() {
    let registry = KnobRegistry::new();
    let mut graph = lenet();
    let x = input(&graph, 2, 7);
    let both = [OpClass::Conv, OpClass::Dense];
    let configs = [
        Config::baseline(&graph),
        rung(&graph, &registry, &both, "fp16"),
        rung(&graph, &registry, &[OpClass::Conv], "samp-50%-o0-fp32"),
        rung(&graph, &registry, &both, "lutmul-8b"),
    ];
    fresh(|| {
        for config in &configs {
            for p in weights(&graph) {
                let o = opts(&graph, &registry, config, 3);
                let before = execute(&graph, &x, &o).expect("before");
                // Compiled now; change one weight of this layer under it.
                let w = graph.param_mut(p).data_mut();
                w.iter_mut().step_by(3).for_each(|v| *v = -1.5 * *v + 0.25);
                let after = execute(&graph, &x, &o).expect("after");
                let all = execute_all(&graph, &x, &o).expect("all");
                let want = fresh(|| execute(&graph, &x, &o).expect("fresh"));
                assert_ne!(bits(&before), bits(&want), "{config:?}: the change shows");
                assert_eq!(bits(&after), bits(&want), "{config:?}: param {p:?}");
                assert_eq!(bits(all.last().expect("output")), bits(&want));
            }
        }
    });
}

#[test]
fn alternating_configurations_batches_and_suffix_starts_match_fresh_threads() {
    let registry = KnobRegistry::new();
    let graph = lenet();
    let convs: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op.class() == OpClass::Conv)
        .map(|n| n.id)
        .collect();
    assert!(convs.len() >= 2, "LeNet has two convolutions");
    let configs = [
        opts(&graph, &registry, &Config::baseline(&graph), 5),
        opts(
            &graph,
            &registry,
            &rung(&graph, &registry, &[OpClass::Conv], "perf-50%-row-o0-fp32"),
            5,
        ),
    ];
    let inputs = [input(&graph, 1, 11), input(&graph, 3, 12)];
    let caches: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|x| execute_all(&graph, x, &ExecOptions::baseline()).expect("cache"))
        .collect();
    // (configuration, batch, first node): `None` runs `execute`, `Some`
    // the suffix from that node.
    let mut cases = Vec::new();
    for c in 0..2 {
        for b in 0..2 {
            for start in [None, Some(convs[0]), Some(convs[1])] {
                cases.push((c, b, start));
            }
        }
    }
    let run = |&(c, b, start): &(usize, usize, Option<NodeId>)| {
        let (x, o) = (&inputs[b], &configs[c]);
        let out = match start {
            None => execute(&graph, x, o),
            Some(from) => execute_suffix(&graph, x, &caches[b], from, o),
        };
        bits(&out.expect("run"))
    };
    let want: Vec<Vec<u32>> = cases.iter().map(|case| fresh(|| run(case))).collect();
    // Every ordered pair of cases, so each switch of configuration, batch
    // or start alone (and every combination) follows a compiled call, and
    // each case also runs right after itself.
    fresh(|| {
        for i in 0..cases.len() {
            for j in 0..cases.len() {
                for k in [i, j] {
                    assert_eq!(
                        run(&cases[k]),
                        want[k],
                        "case {:?} after {:?}",
                        cases[k],
                        cases[i]
                    );
                }
            }
        }
        // A traced run reads the same compiled configuration.
        let (out, _) = execute_with_records(&graph, &inputs[1], &configs[1]).expect("records");
        assert_eq!(bits(&out), run(&(1, 1, None)));
    });
}

#[test]
fn graph_executor_points_by_index_equal_execute_under_their_options() {
    let registry = KnobRegistry::new();
    let graph = lenet();
    let x = input(&graph, 2, 21);
    let both = [OpClass::Conv, OpClass::Dense];
    let labels = [
        "fp16",
        "samp-50%-o0-fp32",
        "perf-50%-row-o0-fp32",
        "lutmul-8b",
        "promise-P1",
    ];
    let points = labels
        .iter()
        .enumerate()
        .map(|(i, label)| TradeoffPoint {
            qos: 99.0 - i as f64,
            perf: 1.1 + i as f64,
            config: rung(&graph, &registry, &both, label),
        })
        .collect();
    let curve = TradeoffCurve::from_points(points);
    assert_eq!(curve.len(), labels.len(), "every point is on the curve");
    let exec = GraphExecutor::new(&graph, x.clone())
        .and_then(|e| e.with_curve(&curve, &registry))
        .expect("executor");
    for k in [0usize, 7, 1] {
        let exact = opts(&graph, &registry, &Config::baseline(&graph), k as u64);
        assert_eq!(
            bits(&exec.infer(k, None).expect("exact")),
            bits(&execute(&graph, &x, &exact).expect("exact"))
        );
        for (r, point) in curve.points().iter().enumerate().rev() {
            let want = execute(
                &graph,
                &x,
                &opts(&graph, &registry, &point.config, k as u64),
            );
            let got = exec.infer(k, Some(r)).expect("point");
            assert_eq!(
                bits(&got),
                bits(&want.expect("execute")),
                "k {k}, point {r}"
            );
        }
    }
    assert!(exec.infer(0, Some(curve.len())).is_err(), "no such point");
}
