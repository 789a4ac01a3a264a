//! Arena slots never leak one run's values into another.
//!
//! `execute` writes every node output into a slot of the calling thread's
//! arena and keeps the slots between calls, so a slot a run reads may still
//! hold what an earlier run — another configuration, or another graph on
//! the same input shape — left there. On one thread, configurations run in an order
//! that leaves other configurations' data in every slot (forwards, then
//! backwards, then forwards again), and each output must equal, bit for
//! bit, the same configuration run on a fresh thread (empty arena) and the
//! last value of `execute_all` (no slots shared):
//!
//! - the five `LADDER` rungs on every Alexnet2 convolution;
//! - column perforation;
//! - strided and "valid"-padded convolutions, in the geometry ranges of
//!   `differential.rs`'s generators (strides up to 4, padding up to 5,
//!   windows up to 11, odd and even);
//! - FP16 activations (the maps no longer fuse and run out of place or
//!   in place at FP16);
//! - a LUT dense layer;
//! - ResNet-18 on the same input shape as Alexnet2 (so its skip
//!   connections find Alexnet2's values in the slots, and the reverse);
//! - LeNet at batch 1, whose input shape differs (the arena starts over).
//!
//! Meant for `--release` (the kernels vectorise only there), and fast
//! enough at the Tiny scale to run in the debug suite too.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::ir::{
    execute, execute_all, execute_with_trace, ApproxChoice, ExecOptions, Graph, GraphBuilder,
    OpClass, OpKind,
};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::{
    ConvApprox, MulApprox, PerforationDim, Precision, ReduceApprox, Shape, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LADDER: [&str; 5] = [
    "fp32",
    "samp-50%-o0-fp32",
    "perf-50%-row-o0-fp32",
    "fp16",
    "lutmul-8b",
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `choice` on every node `pick` selects, baseline elsewhere.
fn on(graph: &Graph, pick: impl Fn(&OpKind) -> bool, choice: ApproxChoice) -> ExecOptions {
    let config = graph
        .nodes()
        .iter()
        .map(|n| {
            if pick(&n.op) {
                choice
            } else {
                ApproxChoice::BASELINE
            }
        })
        .collect();
    ExecOptions {
        config,
        promise_seed: 0,
    }
}

/// Strided, "valid"-padded and odd/even-window convolutions, each followed
/// by an activation, then pooling, a dense layer and softmax.
fn strided_valid_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x57A1E);
    let mut b = GraphBuilder::new("strided-valid", Shape::nchw(3, 3, 23, 29), &mut rng);
    b.conv(5, 3, (0, 0), (2, 2)).relu(); // valid, stride 2: [3,5,11,14]
    b.conv(6, 2, (0, 0), (1, 1)).tanh(); // valid, even window: [3,6,10,13]
    b.conv(4, 5, (5, 5), (4, 4)).abs(); // padding 5, stride 4: [3,4,4,5]
    b.conv(7, 11, (5, 5), (1, 1)).relu(); // "same" 11×11: [3,7,4,5]
    b.max_pool(2, 2).flatten().dense(9).softmax();
    b.finish().expect("strided/valid graph builds")
}

fn is_conv(op: &OpKind) -> bool {
    matches!(op, OpKind::Conv2d { .. })
}

fn is_activation(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Relu | OpKind::Tanh | OpKind::Abs | OpKind::ClippedRelu { .. }
    )
}

#[test]
fn slots_left_by_other_configurations_never_change_an_output() {
    let registry = KnobRegistry::new();
    let alex = build(BenchmarkId::AlexNet2, ModelScale::Tiny).graph;
    let lenet = build(BenchmarkId::LeNet, ModelScale::Tiny).graph;
    let resnet = build(BenchmarkId::ResNet18, ModelScale::Tiny).graph;
    let strided = strided_valid_graph();
    let mut rng = StdRng::seed_from_u64(0x5107);
    let alex_in = Tensor::uniform(Shape::nchw(4, 3, 32, 32), -1.0, 1.0, &mut rng);
    let lenet_in = Tensor::uniform(Shape::nchw(1, 1, 28, 28), -1.0, 1.0, &mut rng);
    let strided_in = Tensor::uniform(Shape::nchw(3, 3, 23, 29), -1.0, 1.0, &mut rng);

    let rung = |label: &str| {
        let knob = registry
            .table(OpClass::Conv)
            .iter()
            .find(|k| k.label == label)
            .unwrap_or_else(|| panic!("no conv knob labelled {label}"))
            .id;
        let mut config = Config::baseline(&alex);
        for node in alex.nodes().iter().filter(|n| is_conv(&n.op)) {
            config.set_knob(node.id.0 as usize, knob);
        }
        ExecOptions {
            config: config.decode(&registry, &alex),
            promise_seed: 0,
        }
    };
    let col = ConvApprox::Perforation {
        dim: PerforationDim::Col,
        k: 2,
        offset: 1,
    };
    let col = ApproxChoice::digital(col, ReduceApprox::Exact, Precision::Fp32);
    let lut_dense = ApproxChoice::digital_mul(
        ConvApprox::Exact,
        ReduceApprox::Exact,
        Precision::Fp32,
        MulApprox::Lut { bits: 6 },
    );
    let dense = |op: &OpKind| matches!(op, OpKind::Dense { .. });

    let mut cases: Vec<(String, &Graph, &Tensor, ExecOptions)> = LADDER
        .iter()
        .map(|label| (format!("Alexnet2 [{label}]"), &alex, &alex_in, rung(label)))
        .collect();
    cases.extend([
        (
            "Alexnet2 [col perforation]".into(),
            &alex,
            &alex_in,
            on(&alex, is_conv, col),
        ),
        (
            "Alexnet2 [fp16 activations]".into(),
            &alex,
            &alex_in,
            on(&alex, is_activation, ApproxChoice::FP16),
        ),
        (
            "Alexnet2 [lut dense]".into(),
            &alex,
            &alex_in,
            on(&alex, dense, lut_dense),
        ),
        (
            "ResNet-18 [exact]".into(),
            &resnet,
            &alex_in,
            ExecOptions::baseline(),
        ),
        (
            "ResNet-18 [col perforation]".into(),
            &resnet,
            &alex_in,
            on(&resnet, is_conv, col),
        ),
        (
            "LeNet b1 [exact]".into(),
            &lenet,
            &lenet_in,
            ExecOptions::baseline(),
        ),
        (
            "strided/valid [exact]".into(),
            &strided,
            &strided_in,
            ExecOptions::baseline(),
        ),
        (
            "strided/valid [col perforation]".into(),
            &strided,
            &strided_in,
            on(&strided, is_conv, col),
        ),
        (
            "strided/valid [fp16 activations]".into(),
            &strided,
            &strided_in,
            on(&strided, is_activation, ApproxChoice::FP16),
        ),
        (
            "strided/valid [lut dense]".into(),
            &strided,
            &strided_in,
            on(&strided, dense, lut_dense),
        ),
    ]);

    // Each configuration alone: on a fresh thread, and with no slot shared.
    let want: Vec<Vec<u32>> = cases
        .iter()
        .map(|(name, graph, input, opts)| {
            let fresh = std::thread::scope(|s| {
                s.spawn(|| bits(&execute(graph, input, opts).expect("fresh execute")))
                    .join()
                    .expect("fresh thread")
            });
            let all = execute_all(graph, input, opts).expect("execute_all");
            let last = bits(all.last().expect("nodes"));
            assert_eq!(fresh, last, "{name}: fresh-thread execute vs execute_all");
            fresh
        })
        .collect();

    // One thread, every configuration after every other one's leftovers.
    let order: Vec<usize> = (0..cases.len())
        .chain((0..cases.len()).rev())
        .chain(0..cases.len())
        .collect();
    for (step, &c) in order.iter().enumerate() {
        let (name, graph, input, opts) = &cases[c];
        let got = bits(&execute(graph, input, opts).expect("execute"));
        assert_eq!(
            got, want[c],
            "{name}: step {step}, after the slots' earlier tenants"
        );
        let (traced, _) = execute_with_trace(graph, input, opts).expect("execute_with_trace");
        assert_eq!(bits(&traced), want[c], "{name}: step {step}, traced");
    }
}
