//! The executed work counters and their analytic twin agree.
//!
//! Every node record of a traced run carries the [`Counters`] its kernels
//! returned, counted where the work happens; `node_counters` computes the
//! same values from shapes and knobs without running anything, and the CPU
//! cost model prices configurations by the twin alone. For every Tiny zoo
//! model, the baseline and every single-node (node, knob) pair of the
//! development-time knob set must give the same counters on every node, at
//! batch 2 (a PROMISE knob runs the exact kernels, so it counts what the
//! baseline counts). Counts do not depend on the thread count, so the sweep
//! runs on a one-thread pool, where a parallel region never asks the
//! machine for its thread count. The unoptimised build (≈ 100× slower
//! kernels) sweeps Alexnet2 and LeNet, the models whose admitted pairs
//! `tests/counter_pins.rs` pins; the release build, which CI runs, sweeps
//! all ten.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::{KnobRegistry, KnobSet};
use approxtuner::ir::exec::node_counters;
use approxtuner::ir::{execute_with_records, ExecOptions};
use approxtuner::models::{build, BenchmarkId, ModelScale};
use approxtuner::tensor::instrument::Counters;
use approxtuner::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn analytic_counters_equal_executed_counters_on_every_pair() {
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    one_thread.install(sweep);
}

fn sweep() {
    let registry = KnobRegistry::new();
    let models: &[BenchmarkId] = if cfg!(debug_assertions) {
        &[BenchmarkId::AlexNet2, BenchmarkId::LeNet]
    } else {
        &BenchmarkId::ALL
    };
    for &id in models {
        let bench = build(id, ModelScale::Tiny);
        let graph = &bench.graph;
        let d = bench.input_shape.dims().to_vec();
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ id as u64);
        let batch = 2;
        let input = Tensor::uniform(Shape::nchw(batch, d[1], d[2], d[3]), -1.0, 1.0, &mut rng);
        {
            let mut configs = vec![Config::baseline(graph)];
            for (node, knobs) in registry
                .node_knobs(graph, KnobSet::HardwareIndependent)
                .iter()
                .enumerate()
            {
                for &k in knobs.iter().skip(1) {
                    let mut c = Config::baseline(graph);
                    c.set_knob(node, k);
                    configs.push(c);
                }
            }
            for config in &configs {
                let opts = ExecOptions {
                    config: config.decode(&registry, graph),
                    promise_seed: 3,
                };
                let (_, records) = execute_with_records(graph, &input, &opts).expect("run");
                let twin = node_counters(graph, input.shape(), &opts).expect("twin");
                let executed: Vec<Counters> = records.iter().map(|r| r.counters).collect();
                assert_eq!(executed, twin, "{} b{batch}: {:?}", id.name(), config);
            }
        }
    }
}
