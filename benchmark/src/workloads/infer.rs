//! `infer_ladder`: the run-time side without the tuner. Alexnet2 batch 16
//! under five fixed knob rungs set by label on every convolution, then
//! LeNet at batch 1 (the executor-overhead regime). One closed-loop caller.

use super::tune::{conv_rung, LADDER};
use super::{
    best_time_s, first_setups, resample_setup, run_all_modes, setup_median, summarize, timed,
    Block, Ctx, Measured, Mode,
};
use crate::stats;
use crate::trace::Tracer;
use at_core::knobs::KnobRegistry;
use at_ir::{execute, execute_all, execute_with_trace, ExecOptions, Graph, OpClass, OpKind};
use at_models::data::build_dataset;
use at_models::{build, BenchmarkId, ModelScale};
use at_tensor::instrument::count_muls;
use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::reference::{conv2d_reference, matmul_reference};
use at_tensor::ops::{conv2d, matmul_abft, matmul_ex};
use at_tensor::{ConvApprox, MulApprox, PerforationDim, Precision, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Calls per pass for each Alexnet2 rung (same order as [`LADDER`]) and for
/// LeNet b1. A pass takes about 1.5 s, so a 20 s run collects about 500
/// exact samples (p95 keeps 25 beyond it), and the exact rung and the four
/// approximate rungs together each take a comparable share of the pass.
const RUNG_CALLS: [usize; 5] = [40, 20, 20, 8, 8];
const SMALL_CALLS: usize = 600;
/// Discarded warm-up calls per rung before the first pass.
const WARMUP: [usize; 5] = [20, 10, 10, 4, 4];
/// Side of the square GEMM the kernel probes and checks run.
const GEMM_DIM: usize = 512;

struct Setup {
    alex: Graph,
    alex_in: Tensor,
    lenet: Graph,
    lenet_in: Tensor,
    rungs: Vec<ExecOptions>,
    build_ms: f64,
    dataset_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let ((alex, lenet), build_s) = timed(|| {
        (
            build(BenchmarkId::AlexNet2, ModelScale::Tiny),
            build(BenchmarkId::LeNet, ModelScale::Tiny),
        )
    });
    let ((alex_ds, lenet_ds), dataset_s) = timed(|| {
        (
            build_dataset(&alex, 16, 16, ctx.sub_seed(1)),
            build_dataset(&lenet, 4, 1, ctx.sub_seed(2)),
        )
    });
    let registry = KnobRegistry::new();
    let rungs = LADDER
        .iter()
        .map(|label| {
            conv_rung(&alex.graph, &registry, label).map(|c| ExecOptions {
                config: c.decode(&registry, &alex.graph),
                promise_seed: 0,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let alex_in = alex_ds.batches[0].clone();
    execute(&alex.graph, &alex_in, &ExecOptions::baseline())
        .map_err(|e| format!("warm-up inference failed: {e}"))?;
    Ok(Setup {
        alex: alex.graph,
        alex_in,
        lenet: lenet.graph,
        lenet_in: lenet_ds.batches[0].clone(),
        rungs,
        build_ms: build_s * 1e3,
        dataset_ms: dataset_s * 1e3,
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Mean squared error over the exact result's mean square — the scale-free
/// error `crates/tensor/tests/differential.rs` pins its envelopes on.
fn rel_mse(approx: &Tensor, exact: &Tensor) -> f64 {
    let ms = exact
        .data()
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        / exact.len().max(1) as f64;
    approx.mse(exact).map_or(f64::NAN, |e| e / ms.max(1e-30))
}

/// Samples and node-time sums accumulated over the passes of one mode.
#[derive(Default)]
struct Acc {
    /// Wall ms per call, per Alexnet2 rung.
    rung_ms: [Vec<f64>; 5],
    small_ms: Vec<f64>,
    /// Node seconds by op class (conv, dense, other), per rung.
    class_s: [[f64; 3]; 5],
    /// `execute` wall minus the node times, ms, LeNet b1.
    small_overhead_ms: Vec<f64>,
    calls: u64,
    errors: u64,
}

fn class_index(graph: &Graph, node: usize) -> usize {
    match graph.nodes()[node].op.class() {
        OpClass::Conv => 0,
        OpClass::Dense => 1,
        _ => 2,
    }
}

/// One inference. Untraced it is the plain `execute`; traced it is
/// `execute_with_trace` (the same code path) so the program's own per-node
/// times become child spans. Returns (wall ms, node seconds by class).
fn call(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
    expect: Option<&[u32]>,
    name: &str,
    tr: &mut Tracer,
    errors: &mut u64,
) -> (f64, [f64; 3]) {
    let mut by_class = [0.0; 3];
    let sp = tr.enter("ir.exec", name);
    let t0 = Instant::now();
    let out = if tr.enabled() {
        execute_with_trace(graph, black_box(input), opts).map(|(out, times)| {
            let wall = t0.elapsed();
            for (i, &s) in times.iter().enumerate() {
                by_class[class_index(graph, i)] += s;
            }
            // One child per op class, not per node: a run makes ~10^4
            // calls, and the per-layer rows only need the class sums.
            tr.children_from_durations(&[
                ("tensor.conv", "conv nodes", by_class[0]),
                ("tensor.dense", "dense nodes", by_class[1]),
                ("tensor.other", "other nodes", by_class[2]),
            ]);
            (out, wall)
        })
    } else {
        execute(graph, black_box(input), opts).map(|out| (out, t0.elapsed()))
    };
    tr.exit(sp);
    let wall_ms = match out {
        Ok((out, wall)) => {
            let ok =
                out.data().iter().all(|v| v.is_finite()) && expect.is_none_or(|e| bits(&out) == e);
            if !ok {
                *errors += 1;
            }
            wall.as_secs_f64() * 1e3
        }
        Err(_) => {
            *errors += 1;
            t0.elapsed().as_secs_f64() * 1e3
        }
    };
    (wall_ms, by_class)
}

/// The tensors of Alexnet2's widest convolution at batch 16: its real
/// input activation (from an exact run), weights, bias and geometry.
struct ConvCase {
    x: Tensor,
    w: Tensor,
    b: Option<Tensor>,
    base: Conv2dParams,
}

fn widest_conv(s: &Setup) -> Result<ConvCase, String> {
    let outs = execute_all(&s.alex, &s.alex_in, &ExecOptions::baseline())
        .map_err(|e| format!("execute_all failed: {e}"))?;
    let node = s
        .alex
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, OpKind::Conv2d { .. }))
        .max_by_key(|n| match &n.op {
            OpKind::Conv2d { weight, .. } => s.alex.param(*weight).shape().dims()[0],
            _ => 0,
        })
        .ok_or("Alexnet2 has no convolution")?;
    let OpKind::Conv2d {
        weight,
        bias,
        pad,
        stride,
        groups,
    } = &node.op
    else {
        unreachable!("filtered to Conv2d above");
    };
    Ok(ConvCase {
        x: outs[node.inputs[0].0 as usize].clone(),
        w: s.alex.param(*weight).clone(),
        b: bias.map(|p| s.alex.param(p).clone()),
        base: Conv2dParams {
            pad: *pad,
            stride: *stride,
            groups: *groups,
            ..Conv2dParams::default()
        },
    })
}

/// The approximate conv settings of the ladder with the rel-MSE envelope
/// `differential.rs` pins for each family.
fn conv_variants(base: Conv2dParams) -> [(&'static str, Conv2dParams, f64); 4] {
    [
        (
            "samp50",
            Conv2dParams {
                approx: ConvApprox::FilterSampling { k: 2, offset: 0 },
                ..base
            },
            4.0,
        ),
        (
            "perf50",
            Conv2dParams {
                approx: ConvApprox::Perforation {
                    dim: PerforationDim::Row,
                    k: 2,
                    offset: 0,
                },
                ..base
            },
            4.0,
        ),
        (
            "fp16",
            Conv2dParams {
                precision: Precision::Fp16,
                ..base
            },
            1e-4,
        ),
        (
            "lut8",
            Conv2dParams {
                mul: MulApprox::Lut { bits: 8 },
                ..base
            },
            0.5,
        ),
    ]
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut setups = first_setups(&mut m, || setup(ctx))?;
    m.layer
        .insert("models.build_ms", setup_median(&setups, |s| s.build_ms));
    m.layer
        .insert("models.dataset_ms", setup_median(&setups, |s| s.dataset_ms));
    let s = setups.pop().expect("at least one set-up runs");
    drop(setups);

    // Reference outputs: every exact call must reproduce these bit for bit.
    let alex_exact = execute(&s.alex, &s.alex_in, &ExecOptions::baseline())
        .map_err(|e| format!("exact inference failed: {e}"))?;
    let lenet_exact = execute(&s.lenet, &s.lenet_in, &ExecOptions::baseline())
        .map_err(|e| format!("exact inference failed: {e}"))?;
    let (alex_bits, lenet_bits) = (bits(&alex_exact), bits(&lenet_exact));

    let mut warm_errors = 0u64;
    for (r, opts) in s.rungs.iter().enumerate() {
        for _ in 0..ctx.reps(WARMUP[r], 1) {
            call(
                &s.alex,
                &s.alex_in,
                opts,
                None,
                LADDER[r],
                tracer,
                &mut warm_errors,
            );
        }
    }
    for _ in 0..ctx.reps(20, 1) {
        let opts = ExecOptions::baseline();
        call(
            &s.lenet,
            &s.lenet_in,
            &opts,
            None,
            "small",
            tracer,
            &mut warm_errors,
        );
    }

    let mut plain = Acc::default();
    let mut traced = Acc::default();
    let mut all_cores = Acc::default();
    let mut later_setups = Vec::new();
    run_all_modes(ctx, tracer, &mut m, |mode, tr| {
        if mode == Mode::Plain && plain.calls > 0 {
            resample_setup(&mut later_setups, || setup(ctx));
        }
        let acc = match mode {
            Mode::Plain => &mut plain,
            Mode::Traced => &mut traced,
            Mode::AllCores => &mut all_cores,
        };
        // Every call runs a fixed config on a fixed shape: all fixed work.
        let mut blocks = Vec::with_capacity(LADDER.len() + 1);
        for (r, opts) in s.rungs.iter().enumerate() {
            let expect = (r == 0).then_some(alex_bits.as_slice());
            let t0 = Instant::now();
            for _ in 0..ctx.reps(RUNG_CALLS[r], 2) {
                let (ms, by_class) = call(
                    &s.alex,
                    &s.alex_in,
                    opts,
                    expect,
                    LADDER[r],
                    tr,
                    &mut acc.errors,
                );
                acc.rung_ms[r].push(ms);
                for (sum, c) in acc.class_s[r].iter_mut().zip(by_class) {
                    *sum += c;
                }
                acc.calls += 1;
            }
            blocks.push(Block {
                name: LADDER[r],
                secs: t0.elapsed().as_secs_f64(),
                fixed: true,
            });
        }
        let opts = ExecOptions::baseline();
        let t0 = Instant::now();
        for _ in 0..ctx.reps(SMALL_CALLS, 10) {
            let (ms, by_class) = call(
                &s.lenet,
                &s.lenet_in,
                &opts,
                Some(&lenet_bits),
                "small",
                tr,
                &mut acc.errors,
            );
            acc.small_ms.push(ms);
            acc.small_overhead_ms
                .push(ms - by_class.iter().sum::<f64>() * 1e3);
            acc.calls += 1;
        }
        blocks.push(Block {
            name: "small",
            secs: t0.elapsed().as_secs_f64(),
            fixed: true,
        });
        Ok(blocks)
    })?;
    m.setup_s.extend(later_setups);

    // ---- end-to-end, untraced passes only --------------------------------
    let p50 = |v: &[f64]| stats::median(v);
    m.e2e.insert("infer_exact_ms_p50", p50(&plain.rung_ms[0]));
    m.e2e.insert(
        "infer_exact_ms_p95",
        stats::percentile(&plain.rung_ms[0], 95.0),
    );
    let approx: Vec<f64> = plain.rung_ms[1..].iter().map(|v| p50(v)).collect();
    m.e2e.insert("infer_approx_ms_p50", stats::geomean(&approx));
    m.e2e.insert("infer_small_ms_p50", p50(&plain.small_ms));
    for (r, label) in LADDER.iter().enumerate() {
        m.samples.insert(
            format!("alexnet2_b16[{label}]_ms"),
            summarize(&plain.rung_ms[r], "ms"),
        );
    }
    m.samples
        .insert("lenet_b1[fp32]_ms".into(), summarize(&plain.small_ms, "ms"));

    // ---- operations and the correctness gate ------------------------------
    m.attempted = plain.calls + traced.calls + all_cores.calls;
    m.failed = plain.errors + traced.errors + all_cores.errors + warm_errors;
    m.check(
        "infer: every inference finite, every exact one bit-identical to the first",
        m.failed == 0,
        format!("{} of {} calls failed", m.failed, m.attempted),
    );
    kernel_checks(ctx, &s, &alex_bits, &lenet_bits, &mut m)?;
    m.e2e.insert(
        "ops_failed_share",
        m.failed as f64 / m.attempted.max(1) as f64,
    );

    // ---- per-layer, traced passes and probes -------------------------------
    if ctx.traced {
        let node_s: f64 = traced.class_s[0].iter().sum();
        for (i, name) in [
            "ir.exec.conv_share",
            "ir.exec.dense_share",
            "ir.exec.other_share",
        ]
        .into_iter()
        .enumerate()
        {
            m.layer
                .insert(name, traced.class_s[0][i] / node_s.max(1e-12));
        }
        m.layer.insert(
            "ir.exec.overhead_ms",
            stats::median(&traced.small_overhead_ms),
        );
        m.layer.insert("ir.exec.nodes", s.alex.len() as f64);
        for (r, label) in LADDER.iter().enumerate() {
            let c = traced.class_s[r];
            let total = c.iter().sum::<f64>().max(1e-12);
            m.notes.push(format!(
                "node-time share on Alexnet2 b16 [{label}]: conv {:.3} dense {:.3} other {:.3}",
                c[0] / total,
                c[1] / total,
                c[2] / total
            ));
        }
        kernel_probes(ctx, &s, &mut m)?;
    }
    Ok(m)
}

fn gemm_operands(ctx: &Ctx) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(ctx.sub_seed(3));
    let shape = Shape::mat(GEMM_DIM, GEMM_DIM);
    (
        Tensor::uniform(shape, -1.0, 1.0, &mut rng),
        Tensor::uniform(shape, -1.0, 1.0, &mut rng),
    )
}

/// The gate on kernels and executor: exact paths bit-for-bit against the
/// naive references, approximate paths inside their pinned envelopes,
/// and the three ways of running a graph agreeing bit for bit.
fn kernel_checks(
    ctx: &Ctx,
    s: &Setup,
    alex_bits: &[u32],
    lenet_bits: &[u32],
    m: &mut Measured,
) -> Result<(), String> {
    let case = widest_conv(s)?;
    let err = |e| format!("kernel check failed to run: {e}");
    let exact = conv2d(&case.x, &case.w, case.b.as_ref(), case.base).map_err(err)?;
    let naive = conv2d_reference(&case.x, &case.w, case.b.as_ref(), case.base).map_err(err)?;
    m.check(
        "tensor: exact conv equals conv2d_reference bit for bit",
        bits(&exact) == bits(&naive),
        format!(
            "input {:?} weight {:?}",
            case.x.shape().dims(),
            case.w.shape().dims()
        ),
    );
    for (name, params, cap) in conv_variants(case.base) {
        let out = conv2d(&case.x, &case.w, case.b.as_ref(), params).map_err(err)?;
        let e = rel_mse(&out, &exact);
        m.check(
            &format!("tensor: conv {name} inside its rel-MSE envelope"),
            e.is_finite() && e < cap,
            format!("rel MSE {e:.3e} < {cap}"),
        );
    }

    let (a, b) = gemm_operands(ctx);
    let exact = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).map_err(err)?;
    let naive = matmul_reference(&a, &b, Precision::Fp32).map_err(err)?;
    m.check(
        "tensor: exact GEMM equals matmul_reference bit for bit",
        bits(&exact) == bits(&naive),
        format!("{GEMM_DIM}^3"),
    );
    for (name, precision, mul, cap) in [
        ("fp16", Precision::Fp16, MulApprox::Exact, 1e-4),
        ("lut8", Precision::Fp32, MulApprox::Lut { bits: 8 }, 0.3),
    ] {
        let out = matmul_ex(&a, &b, None, precision, mul).map_err(err)?;
        let e = rel_mse(&out, &exact);
        m.check(
            &format!("tensor: GEMM {name} inside its rel-MSE envelope"),
            e.is_finite() && e < cap,
            format!("rel MSE {e:.3e} < {cap}"),
        );
    }

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("1-thread pool: {e}"))?;
    let base = ExecOptions::baseline();
    for (name, graph, input, want) in [
        ("Alexnet2 b16", &s.alex, &s.alex_in, alex_bits),
        ("LeNet b1", &s.lenet, &s.lenet_in, lenet_bits),
    ] {
        let traced = execute_with_trace(graph, input, &base).map(|(t, _)| bits(&t));
        let single = one_thread.install(|| execute(graph, input, &base).map(|t| bits(&t)));
        m.check(
            &format!("ir.exec: execute, execute_with_trace and 1-thread execute agree on {name}"),
            traced.is_ok_and(|t| t == want) && single.is_ok_and(|t| t == want),
            "bitwise",
        );
    }
    Ok(())
}

/// Kernel-level rows: GEMM at 512³ and Alexnet2's widest conv at batch 16
/// under each ladder knob, ABFT cost, multiply counts and bytes touched.
fn kernel_probes(ctx: &Ctx, s: &Setup, m: &mut Measured) -> Result<(), String> {
    let (a, b) = gemm_operands(ctx);
    let gemm = |precision, mul| {
        black_box(matmul_ex(black_box(&a), black_box(&b), None, precision, mul).is_ok());
    };
    let flop = 2.0 * (GEMM_DIM as f64).powi(3);
    let reps = ctx.reps(9, 1);
    // The run's pool has one thread; only the first row widens it.
    let all_cores = rayon::ThreadPoolBuilder::new()
        .num_threads(crate::provenance::logical_cores())
        .build()
        .map_err(|e| format!("all-cores pool: {e}"))?;
    let exact_pool_s =
        all_cores.install(|| best_time_s(reps, || gemm(Precision::Fp32, MulApprox::Exact)));
    m.layer
        .insert("tensor.gemm_exact_gflops", flop / exact_pool_s * 1e-9);
    let exact_s = best_time_s(reps, || gemm(Precision::Fp32, MulApprox::Exact));
    m.layer
        .insert("tensor.gemm_exact_1t_gflops", flop / exact_s * 1e-9);
    m.layer.insert(
        "tensor.gemm_fp16_ms",
        best_time_s(ctx.reps(5, 1), || gemm(Precision::Fp16, MulApprox::Exact)) * 1e3,
    );
    m.layer.insert(
        "tensor.gemm_lut8_ms",
        best_time_s(ctx.reps(3, 1), || {
            gemm(Precision::Fp32, MulApprox::Lut { bits: 8 })
        }) * 1e3,
    );
    let abft_s = best_time_s(reps, || {
        black_box(
            matmul_abft(
                black_box(&a),
                black_box(&b),
                None,
                Precision::Fp32,
                MulApprox::Exact,
            )
            .is_ok(),
        );
    });
    m.layer.insert(
        "tensor.abft_overhead_pct",
        100.0 * (abft_s - exact_s) / exact_s,
    );

    let case = widest_conv(s)?;
    let conv = |p: Conv2dParams| {
        black_box(conv2d(black_box(&case.x), black_box(&case.w), case.b.as_ref(), p).is_ok());
    };
    let reps = ctx.reps(201, 3);
    m.layer.insert(
        "tensor.conv_exact_ms",
        best_time_s(reps, || conv(case.base)) * 1e3,
    );
    m.layer
        .insert("tensor.muls_exact", count_muls(|| conv(case.base)).1 as f64);
    for (name, params, _) in conv_variants(case.base) {
        let (ms_row, muls_row) = match name {
            "samp50" => ("tensor.conv_samp50_ms", Some("tensor.muls_samp50")),
            "perf50" => ("tensor.conv_perf50_ms", Some("tensor.muls_perf50")),
            "fp16" => ("tensor.conv_fp16_ms", None),
            _ => ("tensor.conv_lut8_ms", None),
        };
        m.layer
            .insert(ms_row, best_time_s(reps, || conv(params)) * 1e3);
        if let Some(row) = muls_row {
            m.layer.insert(row, count_muls(|| conv(params)).1 as f64);
        }
    }
    // Computed from tensor sizes, not measured: the f32 bytes an exact
    // convolution must read (input, weights, bias) and write (output).
    let out_len = conv2d(&case.x, &case.w, case.b.as_ref(), case.base)
        .map_err(|e| format!("conv probe: {e}"))?
        .len();
    let elems = case.x.len() + case.w.len() + case.b.as_ref().map_or(0, Tensor::len) + out_len;
    m.layer.insert("tensor.bytes_exact", 4.0 * elems as f64);
    Ok(())
}
