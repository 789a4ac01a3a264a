//! The executor's entry points agree, and none of them writes a tensor it
//! does not own.
//!
//! `execute` releases each value after its last consumer, runs element-wise
//! nodes in place, moves `Flatten` and fuses activations into convolutions;
//! `execute_all` does none of that. For every zoo model — ResNet's skip
//! connections are the fan-out case, MobileNet's depthwise convolutions the
//! grouped one — and for the baseline, the five ladder rungs and a mixed
//! configuration, all four entry points must produce the same bits, from
//! every suffix start, and the cache a suffix run reads must come back
//! unchanged.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::ir::execute_with_records;
use approxtuner::ir::{
    execute, execute_all, execute_suffix, execute_with_trace, ExecOptions, Graph, NodeId, OpClass,
};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::{Shape, Tensor};
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

/// FNV-1a over every tensor's bit patterns.
fn fnv1a(tensors: &[Tensor]) -> u64 {
    tensors
        .iter()
        .flat_map(|t| t.data())
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

/// Baseline, each ladder rung set on every convolution, and one
/// configuration that gives every node a different knob of its class
/// (FP16 activations and pools, PROMISE and LUT layers, sampled reductions).
fn configurations(graph: &Graph, registry: &KnobRegistry) -> Vec<(String, ExecOptions)> {
    let decode = |config: Config| ExecOptions {
        config: config.decode(registry, graph),
        promise_seed: 11,
    };
    let mut out = vec![("baseline".to_string(), ExecOptions::baseline())];
    for label in LADDER {
        let knob = registry
            .table(OpClass::Conv)
            .iter()
            .find(|k| k.label == label)
            .unwrap_or_else(|| panic!("no conv knob labelled {label}"))
            .id;
        let mut config = Config::baseline(graph);
        for node in graph.nodes() {
            if node.op.class() == OpClass::Conv {
                config.set_knob(node.id.0 as usize, knob);
            }
        }
        out.push((label.to_string(), decode(config)));
    }
    let mut mixed = Config::baseline(graph);
    for (i, node) in graph.nodes().iter().enumerate().skip(1) {
        let table = registry.table(node.op.class());
        mixed.set_knob(i, table[(i * 7 + 3) % table.len()].id);
    }
    out.push(("mixed".to_string(), decode(mixed)));
    out
}

#[test]
fn every_entry_point_agrees_on_every_zoo_model_and_leaves_the_cache_alone() {
    let registry = KnobRegistry::new();
    for id in BenchmarkId::ALL {
        let bench = build(id, ModelScale::Tiny);
        let graph = &bench.graph;
        let d = bench.input_shape.dims().to_vec();
        let mut rng = StdRng::seed_from_u64(0xA11A5 ^ id as u64);
        let input = Tensor::uniform(Shape::nchw(1, d[1], d[2], d[3]), -1.0, 1.0, &mut rng);
        for (name, opts) in configurations(graph, &registry) {
            let ctx = format!("{} [{name}]", id.name());
            let want = bits(&execute(graph, &input, &opts).expect("execute"));
            let (traced, times) = execute_with_trace(graph, &input, &opts).expect("trace");
            assert_eq!(bits(&traced), want, "{ctx}: execute_with_trace");
            assert_eq!(times.len(), graph.len(), "{ctx}: one time per node");
            let all = execute_all(graph, &input, &opts).expect("execute_all");
            assert_eq!(all.len(), graph.len(), "{ctx}: one output per node");
            assert_eq!(bits(all.last().expect("nodes")), want, "{ctx}: execute_all");

            // Node by node: re-evaluating node `i` alone, from the outputs
            // `execute_all` kept for its operands, reproduces what
            // `execute_all` kept for `i` — so no kept output was overwritten
            // by a later node. The prefix graph ending at `i` makes `i` the
            // program output of a one-node suffix run.
            let cache_hash = fnv1a(&all);
            let mut prefix = Graph::new(graph.name());
            for p in graph.params() {
                prefix.add_param(p.clone());
            }
            for (i, node) in graph.nodes().iter().enumerate() {
                prefix.add_node(node.op.clone(), node.inputs.clone(), node.label.clone());
                let alone = execute_suffix(&prefix, &input, &all[..=i], NodeId(i as u32), &opts)
                    .expect("one-node suffix");
                assert_eq!(bits(&alone), bits(&all[i]), "{ctx}: node {i} alone");
            }

            // Every suffix start, the in-place and fused paths included.
            for from in 0..graph.len() {
                let out = execute_suffix(graph, &input, &all, NodeId(from as u32), &opts)
                    .expect("suffix");
                assert_eq!(bits(&out), want, "{ctx}: suffix from {from}");
            }
            assert_eq!(
                fnv1a(&all),
                cache_hash,
                "{ctx}: a suffix run wrote its cache"
            );
        }
    }
}

/// Whole-graph multiplies of each ladder rung set on every convolution of
/// Alexnet2-Tiny and LeNet-Tiny, on the inputs above (one per `LADDER`
/// entry, in order): the sum over the traced run's per-node records.
const LADDER_MULS: [(BenchmarkId, [u64; 5]); 2] = [
    (
        BenchmarkId::AlexNet2,
        [619_392, 308_608, 310_656, 619_392, 619_392],
    ),
    (BenchmarkId::LeNet, [82_726, 42_742, 43_526, 82_726, 82_726]),
];

#[test]
fn ladder_multiply_counts_are_pinned() {
    let registry = KnobRegistry::new();
    for (id, pins) in LADDER_MULS {
        let bench = build(id, ModelScale::Tiny);
        let graph = &bench.graph;
        let d = bench.input_shape.dims().to_vec();
        let mut rng = StdRng::seed_from_u64(0xA11A5 ^ id as u64);
        let input = Tensor::uniform(Shape::nchw(1, d[1], d[2], d[3]), -1.0, 1.0, &mut rng);
        let configs = configurations(graph, &registry);
        for (label, want) in LADDER.into_iter().zip(pins) {
            let (_, opts) = configs
                .iter()
                .find(|(name, _)| name == label)
                .expect("rung");
            let (_, records) = execute_with_records(graph, &input, opts).expect("records");
            let muls: u64 = records.iter().map(|r| r.counters.muls).sum();
            assert_eq!(muls, want, "{} [{label}]", id.name());
        }
    }
}
