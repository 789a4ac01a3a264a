//! What the executor reports per node (`execute_with_records`).
//!
//! Fusion is visible in the records: every convolution → `tanh` pair of
//! Alexnet2-Tiny and LeNet-Tiny is planned fused under exact FP32, and none
//! is where DESIGN.md rules it out (an FP16 activation, a PROMISE-executed
//! convolution). Multiplies travel by return value, so each run's per-node
//! counts are its own however many runs share the pool.

use approxtuner::ir::{
    execute, execute_with_records, ApproxChoice, ExecOptions, Graph, OpClass, OpKind, PlanAction,
};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::promise::VoltageLevel;
use approxtuner::tensor::ops::UnaryOp;
use approxtuner::tensor::{ConvApprox, MulApprox, PerforationDim, Precision, ReduceApprox};
use approxtuner::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(id: BenchmarkId, batch: usize) -> (Graph, Tensor) {
    let bench = build(id, ModelScale::Tiny);
    let d = bench.input_shape.dims().to_vec();
    let mut rng = StdRng::seed_from_u64(0x5EC0 ^ id as u64);
    let input = Tensor::uniform(Shape::nchw(batch, d[1], d[2], d[3]), -1.0, 1.0, &mut rng);
    (bench.graph, input)
}

/// `choice` on every node of `class`, the baseline elsewhere.
fn on_class(graph: &Graph, class: OpClass, choice: ApproxChoice) -> ExecOptions {
    let config = graph
        .nodes()
        .iter()
        .map(|n| {
            if n.op.class() == class {
                choice
            } else {
                ApproxChoice::BASELINE
            }
        })
        .collect();
    ExecOptions {
        config,
        promise_seed: 3,
    }
}

/// Every (convolution, `tanh`) pair: a `tanh` whose operand is a conv.
fn conv_tanh_pairs(graph: &Graph) -> Vec<(usize, usize)> {
    let nodes = graph.nodes();
    let pairs: Vec<_> = nodes
        .iter()
        .filter(|n| n.op == OpKind::Tanh)
        .map(|n| (n.inputs[0].0 as usize, n.id.0 as usize))
        .filter(|&(c, _)| matches!(nodes[c].op, OpKind::Conv2d { .. }))
        .collect();
    let convs = nodes.iter().filter(|n| n.op.class() == OpClass::Conv);
    let convs = convs.filter(|n| matches!(n.op, OpKind::Conv2d { .. }));
    assert_eq!(pairs.len(), convs.count(), "every conv feeds a tanh");
    pairs
}

#[test]
fn conv_tanh_pairs_fuse_exactly_where_the_design_allows() {
    for id in [BenchmarkId::AlexNet2, BenchmarkId::LeNet] {
        let (graph, input) = model(id, 1);
        let pairs = conv_tanh_pairs(&graph);
        let actions = |opts: &ExecOptions| {
            let (out, records) = execute_with_records(&graph, &input, opts).expect("traced");
            assert_eq!(out, execute(&graph, &input, opts).expect("untraced"));
            pairs
                .iter()
                .map(|&(c, t)| (records[c].action, records[t].action))
                .collect::<Vec<_>>()
        };
        let fused = (
            PlanAction::KernelFused(UnaryOp::Tanh),
            PlanAction::AppliedByProducer,
        );
        let unfused = (PlanAction::Kernel, PlanAction::InPlace);
        let name = id.name();
        assert_eq!(
            actions(&ExecOptions::baseline()),
            vec![fused; pairs.len()],
            "{name}: exact FP32"
        );
        let fp16_tanh = on_class(&graph, OpClass::Other, ApproxChoice::FP16);
        assert_eq!(
            actions(&fp16_tanh),
            vec![unfused; pairs.len()],
            "{name}: FP16 tanh"
        );
        let promise = on_class(
            &graph,
            OpClass::Conv,
            ApproxChoice::Promise(VoltageLevel::P3),
        );
        assert_eq!(
            actions(&promise),
            vec![unfused; pairs.len()],
            "{name}: PROMISE conv"
        );
    }
}

/// Eight distinct conv knobs, each on every convolution of Alexnet2-Tiny.
fn configurations(graph: &Graph) -> Vec<ExecOptions> {
    let fp32 = |conv| ApproxChoice::digital(conv, ReduceApprox::Exact, Precision::Fp32);
    let lut = |bits| {
        let exact = (ConvApprox::Exact, ReduceApprox::Exact, Precision::Fp32);
        ApproxChoice::digital_mul(exact.0, exact.1, exact.2, MulApprox::Lut { bits })
    };
    let perf = |dim, k| ConvApprox::Perforation { dim, k, offset: 0 };
    [
        ApproxChoice::BASELINE,
        ApproxChoice::FP16,
        fp32(ConvApprox::FilterSampling { k: 2, offset: 0 }),
        fp32(ConvApprox::FilterSampling { k: 4, offset: 1 }),
        fp32(perf(PerforationDim::Row, 2)),
        fp32(perf(PerforationDim::Col, 3)),
        lut(8),
        ApproxChoice::Promise(VoltageLevel::P5),
    ]
    .into_iter()
    .map(|c| on_class(graph, OpClass::Conv, c))
    .collect()
}

#[test]
fn per_node_multiplies_belong_to_their_own_run_under_concurrent_runs() {
    use rayon::prelude::*;
    let (graph, input) = model(BenchmarkId::AlexNet2, 4);
    let configs = configurations(&graph);
    let pool = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
    };
    let muls = |opts: &ExecOptions| -> Vec<u64> {
        let (_, records) = execute_with_records(&graph, &input, opts).expect("traced");
        records.iter().map(|r| r.counters.muls).collect()
    };
    let alone: Vec<_> = pool(1).install(|| configs.iter().map(muls).collect());
    let mut distinct = alone.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        5,
        "exact work, two samplings, two perforations"
    );
    for threads in [2, 8] {
        let pool = pool(threads);
        // Every configuration at once, and each alone with its kernels
        // forked over the batch.
        let together: Vec<_> = pool.install(|| configs.par_iter().map(muls).collect());
        let forked: Vec<_> = pool.install(|| configs.iter().map(muls).collect());
        assert_eq!(together, alone, "{threads} threads, runs in parallel");
        assert_eq!(forked, alone, "{threads} threads, kernels in parallel");
    }
}
