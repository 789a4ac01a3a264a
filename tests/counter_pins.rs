//! Pins of the work counters and of what the CPU cost model admits.
//!
//! The CPU price of a configuration (`Pricing::Cpu`) is its nodes' kernel
//! work counters weighed by the committed fit of `at_core::cost_table`, so
//! a kernel change that moves a counter moves every CPU-priced curve. These
//! pins make such a move visible: the whole-graph counters of the five
//! `infer_ladder` rungs on Alexnet2-Tiny at batch 16 and of LeNet-Tiny at
//! batch 1 (executed, and equal to the analytic twin), the pairs profile
//! collection admits per knob family on Alexnet2 and LeNet at Tiny, and the
//! table's feature list, which must be `Counters::FIELDS` in order — a
//! counter added without rerunning `repro cost_fit` fails here.

use approxtuner::core::config::Config;
use approxtuner::core::cost_table;
use approxtuner::core::knobs::{KnobId, KnobRegistry, KnobSet};
use approxtuner::core::perf::PerfModel;
use approxtuner::ir::exec::node_counters;
use approxtuner::ir::{execute_with_records, ExecOptions, Graph, OpClass};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::instrument::Counters;
use approxtuner::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const LADDER: [&str; 5] = [
    "fp32",
    "samp-50%-o0-fp32",
    "perf-50%-row-o0-fp32",
    "fp16",
    "lutmul-8b",
];

/// The non-zero fields of whole-graph counters, `name=value`, in field
/// order.
fn nonzero(c: &Counters) -> String {
    Counters::FIELDS
        .iter()
        .zip(c.values())
        .filter(|(_, v)| *v != 0)
        .map(|(f, v)| format!("{f}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Whole-graph counters of `config` on a `batch`-image input, executed and
/// checked against the twin.
fn whole_graph(graph: &Graph, registry: &KnobRegistry, input: Shape, config: &Config) -> Counters {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::uniform(input, -1.0, 1.0, &mut rng);
    let opts = ExecOptions {
        config: config.decode(registry, graph),
        promise_seed: 0,
    };
    let (_, records) = execute_with_records(graph, &x, &opts).expect("run");
    let executed: Counters = records.iter().map(|r| r.counters).sum();
    let twin: Counters = node_counters(graph, input, &opts)
        .expect("twin")
        .into_iter()
        .sum();
    assert_eq!(executed, twin);
    executed
}

fn rung(graph: &Graph, registry: &KnobRegistry, label: &str) -> Config {
    let knob = registry
        .table(OpClass::Conv)
        .iter()
        .find(|k| k.label == label)
        .expect("ladder knob")
        .id;
    let mut config = Config::baseline(graph);
    for node in graph.nodes() {
        if node.op.class() == OpClass::Conv {
            config.set_knob(node.id.0 as usize, knob);
        }
    }
    config
}

fn batch_of(id: BenchmarkId, batch: usize) -> (Graph, Shape) {
    let bench = build(id, ModelScale::Tiny);
    let d = bench.input_shape.dims().to_vec();
    (bench.graph, Shape::nchw(batch, d[1], d[2], d[3]))
}

/// Alexnet2-Tiny at batch 16, one line per `LADDER` rung. The multiplies
/// are 16× `tests/exec_agreement.rs`' batch-1 pins.
const ALEXNET2_LADDER: [&str; 5] = [
    "muls=9910272 fma_steps=311808 gemm_calls=97 stage_copy_fp32=608256 stage_rows=624 \
     epi_affine=221344 epi_tanh=221184 pool_reads=110592 pool_rows=2816 ew_softmax=160 \
     dense_pack=6144",
    "muls=4937728 fma_steps=156416 gemm_calls=97 stage_copy_fp32=608256 stage_rows=624 \
     operand_prep=1636 epi_affine=221344 epi_tanh=221184 pool_reads=110592 pool_rows=2816 \
     ew_softmax=160 dense_pack=6144",
    "muls=4970496 fma_steps=157440 gemm_calls=97 stage_copy_fp32=608256 stage_rows=6768 \
     scatter=221184 scatter_rows=11264 epi_affine=110752 epi_tanh=221184 pool_reads=110592 \
     pool_rows=2816 ew_softmax=160 dense_pack=6144",
    "muls=9910272 fma_steps=311808 gemm_calls=97 stage_copy_fp16=608256 stage_rows=624 \
     operand_prep=3324 epi_affine=221344 epi_fp16=221184 epi_tanh=221184 pool_reads=110592 \
     pool_rows=2816 ew_softmax=160 dense_pack=6144",
    "muls=9910272 fma_steps=3072 lut_steps=308736 gemm_calls=97 stage_copy_lut=608256 \
     stage_rows=624 operand_prep=190872 epi_affine=221344 epi_tanh=221184 pool_reads=110592 \
     pool_rows=2816 ew_softmax=160 dense_pack=6144",
];
/// LeNet-Tiny at batch 1, exact (82 726 multiplies, as in
/// `tests/exec_agreement.rs`).
const LENET_B1: &str = "muls=82726 fma_steps=4768 gemm_calls=4 stage_copy_fp32=7000 stage_rows=3 \
     epi_affine=2383 epi_tanh=2352 pool_reads=2352 pool_rows=56 ew_tanh=21 ew_softmax=10 \
     dense_pack=6944";

#[test]
fn ladder_and_small_model_counters_are_pinned() {
    let registry = KnobRegistry::new();
    let (graph, input) = batch_of(BenchmarkId::AlexNet2, 16);
    for (label, want) in LADDER.into_iter().zip(ALEXNET2_LADDER) {
        let got = whole_graph(&graph, &registry, input, &rung(&graph, &registry, label));
        assert_eq!(nonzero(&got), want, "Alexnet2-Tiny b16 [{label}]");
    }
    let (graph, input) = batch_of(BenchmarkId::LeNet, 1);
    let got = whole_graph(&graph, &registry, input, &Config::baseline(&graph));
    assert_eq!(nonzero(&got), LENET_B1, "LeNet-Tiny b1");
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

/// Pairs `collect` profiles under the CPU price at batch 16, per family.
/// Only filter sampling pays on these layers; its FP16 variants only where
/// the saved tile steps outweigh the binary16 staging and epilogue.
const ADMITTED: [(BenchmarkId, &str); 2] = [
    (BenchmarkId::AlexNet2, "samp-fp16=18 samp-fp32=54"),
    (BenchmarkId::LeNet, "samp-fp16=4 samp-fp32=18"),
];

#[test]
fn admitted_pairs_per_knob_family_are_pinned() {
    let registry = KnobRegistry::new();
    for (id, want) in ADMITTED {
        let (graph, input) = batch_of(id, 16);
        let perf = PerfModel::new(&graph, &registry, input).expect("perf model");
        let mut admitted: BTreeMap<String, usize> = BTreeMap::new();
        for node in graph.nodes() {
            for knob in registry.knobs(node.op.class(), KnobSet::HardwareIndependent) {
                if knob.id == KnobId::BASELINE {
                    continue;
                }
                let speedup = perf
                    .cpu_node_speedup(node.id.0 as usize, knob.id)
                    .expect("cpu price");
                if speedup > cost_table::ADMIT_MARGIN {
                    *admitted.entry(family(&knob.label)).or_insert(0) += 1;
                }
            }
        }
        let got: Vec<String> = admitted.iter().map(|(f, n)| format!("{f}={n}")).collect();
        assert_eq!(got.join(" "), want, "{}", id.name());
    }
}

#[test]
fn cost_table_features_are_the_counter_fields_in_order() {
    assert_eq!(cost_table::FEATURES, Counters::FIELDS);
    assert_eq!(cost_table::WEIGHTS.len(), Counters::FIELDS.len());
    assert!(cost_table::WEIGHTS
        .iter()
        .all(|w| w.is_finite() && *w >= 0.0));
    assert!(cost_table::C_CALL.is_finite() && cost_table::C_CALL >= 0.0);
    const { assert!(cost_table::ADMIT_MARGIN >= 1.0) };
}
