//! The inference hot path's allocation budget, as a count.
//!
//! A counting `#[global_allocator]` (this test binary only) records every
//! block of at least 64 KiB. Once the per-thread convolution scratch and the
//! executor's per-thread arena have grown to the model's largest layer and
//! its peak live set, a call allocates **no** large block: every node output
//! is written into an arena slot, and only the program output (small here)
//! is a tensor of its own. That holds for `execute`, `execute_with_trace`
//! and `execute_suffix` from every convolution (what profile collection
//! runs), under the exact configuration and the `fp16`, `samp-50%`,
//! `perf-50%-row` and `lutmul-8b` rungs on every convolution, and for LeNet
//! at batch 1.
//!
//! The arena itself holds no more than the plan's peak live bytes.
//!
//! One `#[test]`: the counters are process-wide.

use approxtuner::core::config::Config;
use approxtuner::core::knobs::KnobRegistry;
use approxtuner::ir::exec::{arena_bytes, peak_live_bytes};
use approxtuner::ir::{
    execute, execute_all, execute_suffix, execute_with_trace, ExecOptions, Graph, NodeId, OpClass,
};
use approxtuner::models::data::build_dataset;
use approxtuner::models::{build, BenchmarkId, ModelScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const LARGE: usize = 64 * 1024;

/// LeNet's node outputs at batch 1 are 4–25 KiB, so its calls are counted
/// from this size on.
const SMALL: usize = 4 * 1024;

/// Blocks and bytes of at least `LARGE`, and of at least `SMALL`.
static BLOCKS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
static BYTES: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

struct Counting;

impl Counting {
    fn record(size: usize) {
        for (i, min) in [LARGE, SMALL].into_iter().enumerate() {
            if size >= min {
                BLOCKS[i].fetch_add(1, Relaxed);
                BYTES[i].fetch_add(size as u64, Relaxed);
            }
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

/// Blocks of at least `min` (`LARGE` or `SMALL`) and their bytes
/// allocated by `f`.
fn allocations(min: usize, f: impl FnOnce()) -> (u64, u64) {
    let i = usize::from(min == SMALL);
    let before = (BLOCKS[i].load(Relaxed), BYTES[i].load(Relaxed));
    f();
    (
        BLOCKS[i].load(Relaxed) - before.0,
        BYTES[i].load(Relaxed) - before.1,
    )
}

/// Asserts that none of 20 calls of `f`, after 3 warm-ups, allocates a
/// block of `min` bytes or more.
fn assert_steady(what: &str, min: usize, f: impl Fn()) {
    for _ in 0..3 {
        f();
    }
    for call in 0..20 {
        let (blocks, bytes) = allocations(min, &f);
        assert_eq!(
            (blocks, bytes),
            (0, 0),
            "{what}: call {call} allocated {blocks} blocks of {min} B or more, {bytes} bytes"
        );
    }
}

/// The options that set the conv knob `label` on every convolution.
fn rung(graph: &Graph, registry: &KnobRegistry, label: &str) -> ExecOptions {
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
    ExecOptions {
        config: config.decode(registry, graph),
        promise_seed: 0,
    }
}

#[test]
fn warm_calls_allocate_no_large_block() {
    // Before the arena, same counters: Alexnet2 b16 allocated 5 large
    // blocks (851,968 bytes) per `execute`, `execute_with_trace` or suffix
    // from the first convolution under every rung here (4, 2, 1, 0 and 0
    // from the later ones) — each node output of 64 KiB or more, every
    // call; LeNet b1 2 blocks of 4 KiB or more (31,360 bytes: its first
    // convolution's output and the dense layer's packed weights).
    let registry = KnobRegistry::new();
    for (id, batch, min) in [
        (BenchmarkId::AlexNet2, 16, LARGE),
        (BenchmarkId::LeNet, 1, SMALL),
    ] {
        let bench = build(id, ModelScale::Tiny);
        let graph = &bench.graph;
        let input = &build_dataset(&bench, batch, batch, 7).batches[0];
        let mut configs = vec![("exact", ExecOptions::baseline())];
        if id == BenchmarkId::AlexNet2 {
            for label in [
                "fp16",
                "samp-50%-o0-fp32",
                "perf-50%-row-o0-fp32",
                "lutmul-8b",
            ] {
                configs.push((label, rung(graph, &registry, label)));
            }
        }
        let convs: Vec<NodeId> = graph
            .nodes()
            .iter()
            .filter(|n| n.op.class() == OpClass::Conv)
            .map(|n| n.id)
            .collect();
        // A fresh thread starts from an empty arena, so what it holds after
        // the calls is what these calls grew it to.
        std::thread::scope(|s| {
            s.spawn(|| {
                for (label, opts) in &configs {
                    let what = format!("{} b{batch} [{label}]", id.name());
                    assert_steady(&format!("{what} execute"), min, || {
                        execute(graph, input, opts).expect("inference");
                    });
                    assert_steady(&format!("{what} execute_with_trace"), min, || {
                        execute_with_trace(graph, input, opts).expect("traced inference");
                    });
                    let peak = peak_live_bytes(graph, input.shape(), opts).expect("plan");
                    assert!(
                        arena_bytes() <= peak,
                        "{what}: arena holds {} bytes, the plan's peak live set is {peak}",
                        arena_bytes()
                    );
                    let cache = execute_all(graph, input, &ExecOptions::baseline()).expect("cache");
                    for &from in &convs {
                        assert_steady(
                            &format!("{what} execute_suffix from {}", from.0),
                            min,
                            || {
                                execute_suffix(graph, input, &cache, from, opts).expect("suffix");
                            },
                        );
                    }
                }
            });
        });
    }
}
