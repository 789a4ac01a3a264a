//! The inference hot path's allocation budget, as a count.
//!
//! A counting `#[global_allocator]` (this test binary only) records every
//! block of at least 64 KiB. Once the per-thread convolution scratch has
//! grown to the model's largest layer, one exact inference may allocate only
//! its large node outputs — each released after its last consumer, so the
//! allocator hands the same blocks back — and the counts repeat exactly from
//! call to call, so they are asserted, not sampled.
//!
//! The `fp16` rung (that knob on every convolution) holds the same line for
//! the FP16 lowering: the input is quantised row by row as it is staged, so
//! no quantised copy of it is allocated.
//!
//! One `#[test]`: the counters are process-wide.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::ir::{execute, execute_all, execute_suffix, ExecOptions, NodeId, OpClass};
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const LARGE: usize = 64 * 1024;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn record(size: usize) {
        if size >= LARGE {
            BLOCKS.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Large blocks and their bytes allocated by `f`.
fn large_allocations(f: impl FnOnce()) -> (u64, u64) {
    let before = (BLOCKS.load(Relaxed), BYTES.load(Relaxed));
    f();
    (
        BLOCKS.load(Relaxed) - before.0,
        BYTES.load(Relaxed) - before.1,
    )
}

/// Asserts that each of 100 calls of `f`, after 5 warm-ups, allocates the
/// same large blocks, within the budget.
fn assert_steady(what: &str, max_blocks: u64, max_bytes: u64, f: impl Fn()) {
    for _ in 0..5 {
        f();
    }
    let first = large_allocations(&f);
    assert!(
        first.0 <= max_blocks && first.1 <= max_bytes,
        "{what}: {} large blocks, {} bytes per call (budget {max_blocks}, {max_bytes})",
        first.0,
        first.1
    );
    for call in 1..100 {
        assert_eq!(large_allocations(&f), first, "{what}: call {call} differs");
    }
}

#[test]
fn exact_inference_allocates_only_its_large_outputs() {
    // Parent commit, same counter: Alexnet2 7.475 MB in 61 blocks, LeNet
    // 1.559 MB in 19.
    for (id, max_blocks, max_bytes) in [
        (BenchmarkId::AlexNet2, 6, 1_100_000),
        (BenchmarkId::LeNet, 1, 110_000),
    ] {
        let bench = build(id, ModelScale::Tiny);
        let input = &build_dataset(&bench, 16, 16, 7).batches[0];
        let opts = ExecOptions::baseline();
        assert_steady(
            &format!("{} b16 execute", id.name()),
            max_blocks,
            max_bytes,
            || {
                execute(&bench.graph, input, &opts).expect("inference");
            },
        );

        let cache = execute_all(&bench.graph, input, &opts).expect("cache");
        let first_conv = bench
            .graph
            .nodes()
            .iter()
            .find(|n| n.op.class() == OpClass::Conv)
            .expect("a convolution")
            .id;
        assert_steady(
            &format!("{} b16 execute_suffix", id.name()),
            max_blocks,
            max_bytes,
            || {
                let from = NodeId(first_conv.0);
                execute_suffix(&bench.graph, input, &cache, from, &opts).expect("suffix");
            },
        );
    }

    // Parent commit, same counter: 9 blocks, 1.507 MB — the 5 large outputs
    // plus a binary16 copy of each of the four convolution inputs of 64 KiB
    // or more (`input.to_f16()`), which staging now quantises in passing.
    let bench = build(BenchmarkId::AlexNet2, ModelScale::Tiny);
    let input = &build_dataset(&bench, 16, 16, 7).batches[0];
    let registry = KnobRegistry::new();
    let fp16 = registry
        .table(OpClass::Conv)
        .iter()
        .find(|k| k.label == "fp16")
        .expect("a conv knob labelled fp16")
        .id;
    let mut config = Config::baseline(&bench.graph);
    for node in bench.graph.nodes() {
        if node.op.class() == OpClass::Conv {
            config.set_knob(node.id.0 as usize, fp16);
        }
    }
    let opts = ExecOptions {
        config: config.decode(&registry, &bench.graph),
        promise_seed: 0,
    };
    assert_steady("Alexnet2 b16 fp16 execute", 5, 900_000, || {
        execute(&bench.graph, input, &opts).expect("fp16 inference");
    });
}
