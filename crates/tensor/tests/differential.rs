//! Differential kernel test harness.
//!
//! The optimized tiled/SIMD kernels (`ops::matmul_ex`, `ops::conv2d` via
//! im2col+GEMM, the pooling folds) are checked against the frozen naive
//! oracle in `ops::reference` under proptest-fuzzed shapes and knob
//! settings:
//!
//! * exact FP32 paths must match the oracle **bit for bit** — the fast
//!   kernels accumulate every output element in the same strictly
//!   increasing-k order as the naive loops;
//! * approximate paths (FP16, filter sampling, perforation, LUT
//!   multipliers) must also match the oracle bitwise, *and* stay inside
//!   pinned error envelopes relative to the exact FP32 result — so a bug
//!   that drifts oracle and kernel together still trips the harness;
//! * results must be identical across rayon thread counts (1/2/4), since
//!   partitioning never splits one output element's accumulation chain.
//!
//! The convolution lowering reads its patch matrix in place, out of an image
//! staged once ([`at_tensor::ops::im2col`]), through windows that are plain
//! slices. In this (debug) profile a tap-offset table, run or slack that
//! pointed outside the staged buffer is therefore a bounds panic here, never
//! a stray read; CI runs the file again with `--release`, where the
//! microkernel is actually vectorised.

use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::reference::Pooling;
use at_tensor::ops::{
    conv2d, conv2d_abft, conv2d_into, map_unary_in_place, matmul_ex, pool2d_into, reference,
    UnaryOp,
};
use at_tensor::{
    ConvApprox, MulApprox, PerforationDim, Precision, ReduceApprox, Shape, Tensor, TensorError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, -1.0, 1.0, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// `conv2d` with `act` fused into its epilogue.
fn conv2d_fused(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    p: Conv2dParams,
    act: UnaryOp,
) -> Result<Tensor, TensorError> {
    let mut out = conv2d(x, w, b, p)?;
    conv2d_into(x.view(), w, b, p, Some(act), out.data_mut())?;
    Ok(out)
}

/// Mean squared error normalised by the exact result's mean square, so the
/// envelope is scale-free.
fn rel_mse(approx: &Tensor, exact: &Tensor) -> f64 {
    let ms: f64 = exact
        .data()
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        / exact.data().len().max(1) as f64;
    approx.mse(exact).unwrap() / ms.max(1e-30)
}

/// A fuzzed conv setting: shape, padding/stride, grouping.
#[derive(Debug, Clone)]
struct ConvCase {
    n: usize,
    groups: usize,
    cpg: usize,
    kpg: usize,
    h: usize,
    w: usize,
    r: usize,
    s: usize,
    pad: (usize, usize),
    stride: (usize, usize),
    seed: u64,
}

impl ConvCase {
    fn tensors(&self) -> (Tensor, Tensor, Tensor) {
        let cin = self.groups * self.cpg;
        let k = self.groups * self.kpg;
        let x = tensor(Shape::nchw(self.n, cin, self.h, self.w), self.seed);
        let wt = tensor(Shape::nchw(k, self.cpg, self.r, self.s), self.seed ^ 0xABCD);
        let b = tensor(Shape::new(&[k]), self.seed ^ 0x1234);
        (x, wt, b)
    }

    fn params(&self, approx: ConvApprox, precision: Precision, mul: MulApprox) -> Conv2dParams {
        Conv2dParams {
            pad: self.pad,
            stride: self.stride,
            groups: self.groups,
            approx,
            precision,
            mul,
        }
    }
}

type RawConvCase = (
    (usize, usize, usize, usize),          // n, groups, cpg, kpg
    (usize, usize, usize, usize),          // h, w, r, s
    ((usize, usize), (usize, usize), u64), // pad, stride, seed
);

/// Names the fuzzed tuple and keeps only kernels that fit the padded input.
fn conv_cases(raw: impl Strategy<Value = RawConvCase>) -> impl Strategy<Value = ConvCase> {
    raw.prop_map(
        |((n, groups, cpg, kpg), (h, w, r, s), (pad, stride, seed))| ConvCase {
            n,
            groups,
            cpg,
            kpg,
            h,
            w,
            r,
            s,
            pad,
            stride,
            seed,
        },
    )
    .prop_filter("kernel fits", |c| {
        c.h + 2 * c.pad.0 >= c.r && c.w + 2 * c.pad.1 >= c.s
    })
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    conv_cases((
        (1usize..=2, 1usize..=3, 1usize..=3, 1usize..=3),
        // h; w crosses the 8-wide SIMD panel boundary; r/s kernel extents.
        (1usize..=9, 1usize..=11, 1usize..=3, 1usize..=3),
        (
            (0usize..=2, 0usize..=2),
            (1usize..=2, 1usize..=3),
            0u64..1000,
        ),
    ))
}

/// Geometry aimed at the edges of the staged layout: `ho·wo` off the
/// 32-column panel grid, `wo` below one lane group and down to 1 (strides up
/// to 4 per dimension, independently), inputs shorter than the window (rows
/// of the staged image that are all padding), padding up to 5, windows from
/// 1×1 to 11×11, grouped and depthwise (`cpg` = 1) channels, and up to 9
/// output channels per group so every row-group height occurs.
///
/// Half the draws are `same_width_conv_case`s, the geometry whose tap
/// planes are staged as shifted copies of one centre plane; drawn freely,
/// only about 3 % of cases meet it.
fn staged_conv_case() -> impl Strategy<Value = ConvCase> {
    let window = || proptest::sample::select(vec![1usize, 2, 3, 4, 5, 7, 11]);
    let free = conv_cases((
        (1usize..=2, 1usize..=3, 1usize..=3, 1usize..=9),
        (1usize..=12, 1usize..=40, window(), window()),
        (
            (0usize..=5, 0usize..=5),
            (1usize..=4, 1usize..=4),
            0u64..1000,
        ),
    ));
    (prop::bool::ANY, free, same_width_conv_case()).prop_map(
        |(same, free, same_width)| {
            if same {
                same_width
            } else {
                free
            }
        },
    )
}

/// Odd window widths with "same" width padding and unit width stride, so
/// the output is as wide as the input — widths from 1 up, narrower than the
/// window included — with the rows free: any window height, row padding and
/// row stride (phase-major staged rows), under the same channel and group
/// ranges as the free draws.
fn same_width_conv_case() -> impl Strategy<Value = ConvCase> {
    let odd = || proptest::sample::select(vec![1usize, 3, 5, 7, 11]);
    let window = proptest::sample::select(vec![1usize, 2, 3, 4, 5, 7, 11]);
    let raw = (
        (1usize..=2, 1usize..=3, 1usize..=3, 1usize..=9),
        (1usize..=12, 1usize..=40, window, odd()),
        (0usize..=5, 1usize..=4, 0u64..1000),
    );
    conv_cases(raw.prop_map(|(counts, (h, w, r, s), (ph, sh, seed))| {
        (counts, (h, w, r, s), ((ph, s / 2), (sh, 1), seed))
    }))
}

/// Exact, then every filter-sampling `(k, offset)`, then every perforation
/// `(dim, k, offset)`: 28 settings.
fn conv_approximations() -> Vec<ConvApprox> {
    let mut all = vec![ConvApprox::Exact];
    all.extend(ConvApprox::all_filter_sampling());
    all.extend(ConvApprox::all_perforation());
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact FP32 matmul: bit-for-bit against the naive oracle, across
    /// shapes that straddle every panel boundary (ragged and full 32-wide
    /// panels and every row-group height).
    #[test]
    fn matmul_fp32_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// FP16 matmul: bitwise against the oracle, and inside the pinned
    /// quality envelope vs exact FP32 (operand+output quantisation at
    /// 2^-11 relative error each).
    #[test]
    fn matmul_fp16_bitwise_and_enveloped(
        m in 1usize..16,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let fast = matmul_ex(&a, &b, None, Precision::Fp16, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp16).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
        let exact = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        let e = rel_mse(&fast, &exact);
        prop_assert!(e < 1e-4, "fp16 rel MSE {} out of envelope", e);
    }

    /// LUT-multiplier matmul: bitwise against the oracle (integer
    /// accumulation is order-free, so this holds at any thread count) and
    /// inside a pinned envelope vs exact.
    #[test]
    fn matmul_lut_bitwise_and_enveloped(
        m in 1usize..12,
        k in 2usize..24,
        n in 1usize..24,
        bits_w in proptest::sample::select(vec![8u8, 6, 4]),
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let mul = MulApprox::Lut { bits: bits_w };
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, mul).unwrap();
        let naive = reference::matmul_ex_reference(&a, &b, None, Precision::Fp32, mul).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
        let exact = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        let e = rel_mse(&fast, &exact);
        // 4-bit quantisation plus Mitchell bias is coarse but must never be
        // garbage; 8-bit stays much tighter.
        let cap = if bits_w == 8 { 0.3 } else { 2.0 };
        prop_assert!(e.is_finite() && e < cap, "lut{} rel MSE {}", bits_w, e);
    }

    /// Exact FP32 conv (arbitrary stride/padding/groups, including
    /// depthwise when groups == cin): bit-for-bit against the oracle.
    #[test]
    fn conv_fp32_bitwise(case in conv_case()) {
        let (x, w, b) = case.tensors();
        let p = case.params(ConvApprox::Exact, Precision::Fp32, MulApprox::Exact);
        let fast = conv2d(&x, &w, Some(&b), p).unwrap();
        let naive = reference::conv2d_reference(&x, &w, Some(&b), p).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// Approximate conv paths: every fuzzed case is checked bitwise against
    /// the oracle and against pinned envelopes vs the exact result.
    #[test]
    fn conv_approx_bitwise_and_enveloped(
        case in conv_case(),
        which in 0usize..4,
    ) {
        let (x, w, b) = case.tensors();
        let exact_p = case.params(ConvApprox::Exact, Precision::Fp32, MulApprox::Exact);
        let exact = conv2d(&x, &w, Some(&b), exact_p).unwrap();
        let (approx, precision, mul, cap) = match which {
            0 => (ConvApprox::Exact, Precision::Fp16, MulApprox::Exact, 1e-4),
            1 => (
                ConvApprox::FilterSampling { k: 2, offset: 0 },
                Precision::Fp32,
                MulApprox::Exact,
                4.0,
            ),
            2 => (
                ConvApprox::Perforation { dim: PerforationDim::Col, k: 2, offset: 0 },
                Precision::Fp32,
                MulApprox::Exact,
                4.0,
            ),
            _ => (ConvApprox::Exact, Precision::Fp32, MulApprox::Lut { bits: 8 }, 0.5),
        };
        let p = case.params(approx, precision, mul);
        if let Ok(fast) = conv2d(&x, &w, Some(&b), p) {
            let naive = reference::conv2d_reference(&x, &w, Some(&b), p).unwrap();
            prop_assert_eq!(bits(&fast), bits(&naive));
            let e = rel_mse(&fast, &exact);
            prop_assert!(e.is_finite() && e < cap, "{:?} rel MSE {}", p.approx, e);
        } else {
            // Knob invalid for this shape (e.g. sampling a 1x1 kernel);
            // the oracle must reject it identically.
            prop_assert!(reference::conv2d_reference(&x, &w, Some(&b), p).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The staged-window lowering against the oracle, bits only: every
    /// approximation (so filter-sampled offset tables, column-compacted
    /// planes and the phase-major rows of strided or row-perforated runs all
    /// occur, with run boundaries falling mid-panel) × FP32 / FP16 / LUT
    /// 8, 6, 4 operands × the plain, fused-activation and ABFT entry points
    /// × 1, 2 and 4 pool threads.
    #[test]
    fn conv_lowering_bitwise_over_the_staged_layout(
        case in staged_conv_case(),
        approx in proptest::sample::select(conv_approximations()),
        (precision, mul) in proptest::sample::select(vec![
            (Precision::Fp32, MulApprox::Exact),
            (Precision::Fp16, MulApprox::Exact),
            (Precision::Fp32, MulApprox::Lut { bits: 8 }),
            (Precision::Fp32, MulApprox::Lut { bits: 6 }),
            (Precision::Fp32, MulApprox::Lut { bits: 4 }),
        ]),
        act in proptest::sample::select(vec![UnaryOp::Relu, UnaryOp::Tanh]),
    ) {
        let (x, wt, b) = case.tensors();
        let p = case.params(approx, precision, mul);
        // A knob invalid for the shape is rejected by both sides alike.
        let naive = reference::conv2d_reference(&x, &wt, Some(&b), p).ok();
        prop_assert_eq!(conv2d(&x, &wt, Some(&b), p).is_ok(), naive.is_some(), "{:?}", p);
        let want = naive.map(|mut t| {
            let plain = bits(&t);
            map_unary_in_place(t.data_mut(), act, Precision::Fp32).unwrap();
            (plain, bits(&t))
        });
        for (threads, (plain, activated)) in [1usize, 2, 4].into_iter().zip(want.iter().cycle()) {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| {
                [
                    conv2d(&x, &wt, Some(&b), p),
                    conv2d_abft(&x, &wt, Some(&b), p),
                    conv2d_fused(&x, &wt, Some(&b), p, act),
                ]
                .map(|out| bits(&out.unwrap()))
            });
            prop_assert_eq!(&got[0], plain, "conv2d at {} threads", threads);
            prop_assert_eq!(&got[1], plain, "conv2d_abft at {} threads", threads);
            prop_assert_eq!(&got[2], activated, "fused conv2d_into at {} threads", threads);
        }
    }
}

/// A pooling input: uniform in `[−4, 4)`, one element in four replaced by
/// a value that separates fold orders and tie rules — both zeros, both
/// infinities, NaN, magnitudes whose sums round differently in another
/// order, and values binary16 flushes, overflows or rounds.
fn pooling_input(shape: Shape, seed: u64) -> Tensor {
    use rand::Rng;
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-8,
        -3.0e7,
        7.0e4,
        1.0 + 1.0 / 4096.0,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..shape.volume())
        .map(|_| match rng.gen_range(0..4 * specials.len()) {
            i if i < specials.len() => specials[i],
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect();
    Tensor::from_vec(shape, values).unwrap()
}

/// Input dims, then window, padding and stride, each up to 4 a side so that
/// windows overlap, leave gaps, exceed the input and have corner windows of
/// padding only.
type PoolCase = (
    (usize, usize, usize, usize),
    ((usize, usize), (usize, usize), (usize, usize)),
);

fn pool_case() -> impl Strategy<Value = PoolCase> {
    (
        (1usize..=2, 1usize..=3, 1usize..=12, 1usize..=19),
        (
            (1usize..=4, 1usize..=4),
            (0usize..=3, 0usize..=3),
            (1usize..=4, 1usize..=4),
        ),
    )
        .prop_filter(
            "window fits the padded input",
            |((_, _, h, w), (k, p, _))| k.0 <= h + 2 * p.0 && k.1 <= w + 2 * p.1,
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Max, mean and every sampled mean, FP32 and FP16, at 1, 2 and 4 pool
    /// threads: bit for bit against the per-window oracle.
    #[test]
    fn pooling_bitwise_against_the_per_window_oracle(
        ((n, c, h, w), (window, pad, stride)) in pool_case(),
        pooling in proptest::sample::select(
            [Pooling::Max, Pooling::Avg(ReduceApprox::Exact)]
                .into_iter()
                .chain(ReduceApprox::ALL_SAMPLING.map(Pooling::Avg))
                .collect::<Vec<_>>(),
        ),
        precision in proptest::sample::select(vec![Precision::Fp32, Precision::Fp16]),
        seed in 0u64..1000,
    ) {
        let x = pooling_input(Shape::nchw(n, c, h, w), seed);
        let want = reference::pool2d_reference(&x, pooling, window, pad, stride, precision).unwrap();
        let mut got = Tensor::zeros(want.shape());
        let want = bits(&want);
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let geometry = [window, pad, stride];
            pool.install(|| pool2d_into(x.view(), geometry, pooling, precision, got.data_mut()))
                .unwrap();
            prop_assert_eq!(
                &bits(&got),
                &want,
                "{:?} {:?} at {} threads",
                pooling,
                precision,
                threads
            );
        }
    }
}

/// Pooling at the shapes the zoo runs it on: the five Tiny-model pool
/// inputs at batch 16, odd planes, and 38 planes of 128×130, whose 16 640
/// taps each (at 2×2, stride 2) fork the planes over 2 and over 4 threads.
/// Under the zoo's unpadded 2×2 window at stride 2, a padded one and an
/// overlapping padded 3×3 one at stride 2 (each where it fits the input),
/// every pooling kind at FP32 and FP16, at 1, 2 and 4 pool threads: bit
/// for bit against the per-window oracle.
#[test]
fn pooling_bitwise_at_zoo_shapes() {
    let shapes = [
        (16, 4, 32, 32),
        (16, 8, 16, 16),
        (16, 12, 8, 8),
        (16, 2, 28, 28),
        (16, 4, 14, 14),
        (2, 3, 15, 17),
        (3, 2, 1, 1),
        (2, 19, 128, 130),
    ];
    let geometries = [
        [(2, 2), (0, 0), (2, 2)],
        [(2, 2), (1, 1), (2, 2)],
        [(3, 3), (1, 1), (2, 2)],
    ];
    let poolings: Vec<Pooling> = [Pooling::Max, Pooling::Avg(ReduceApprox::Exact)]
        .into_iter()
        .chain(ReduceApprox::ALL_SAMPLING.map(Pooling::Avg))
        .collect();
    let pools = [1usize, 2, 4].map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
    });
    for (seed, (n, c, h, w)) in shapes.into_iter().enumerate() {
        let x = pooling_input(Shape::nchw(n, c, h, w), seed as u64);
        for [window, pad, stride] in geometries {
            if window.0 > h + 2 * pad.0 || window.1 > w + 2 * pad.1 {
                continue;
            }
            for (&pooling, precision) in poolings
                .iter()
                .flat_map(|p| [(p, Precision::Fp32), (p, Precision::Fp16)])
            {
                let want = reference::pool2d_reference(&x, pooling, window, pad, stride, precision)
                    .unwrap();
                let mut got = Tensor::zeros(want.shape());
                for pool in &pools {
                    let geometry = [window, pad, stride];
                    pool.install(|| {
                        pool2d_into(x.view(), geometry, pooling, precision, got.data_mut())
                    })
                    .unwrap();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{pooling:?} {precision:?} {} {geometry:?} at {} threads",
                        x.shape(),
                        pool.current_num_threads()
                    );
                }
            }
        }
    }
}

/// Every row-group height (8, 4, 2, 1, their sums, and the edges of the
/// 64-row block a rayon task covers panel by panel)
/// against every column regime — below one lane group, exactly one, a ragged
/// and a full panel, several panels with a ragged edge — and the empty and
/// single-step reductions: bit for bit against the naive oracle.
#[test]
fn gemm_bitwise_for_every_row_group_and_panel_edge() {
    for m in (1..=17).chain([63, 64, 65, 77]) {
        for n in [1, 15, 16, 31, 32, 33, 77, 128] {
            for k in [0, 1, 17] {
                let a = tensor(Shape::mat(m, k), (m * 1000 + n * 10 + k) as u64);
                let b = tensor(Shape::mat(k, n), (m * 1000 + n * 10 + k) as u64 ^ 0x77);
                let fast = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
                let naive = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
                assert_eq!(bits(&fast), bits(&naive), "matmul {m}x{k}x{n}");
            }
        }
    }
}

/// Degenerate shapes the tiling must survive: 1×1 kernels, K=1 reduction,
/// widths below one SIMD lane-group, single-pixel planes.
#[test]
fn degenerate_shapes_bitwise() {
    let cases = [
        (1, 1, 1, 1, 1, 1, 1), // everything 1
        (1, 1, 3, 3, 1, 1, 1), // 1x1 kernel
        (2, 3, 5, 6, 2, 3, 3), // W < 8 (sub-lane width)
        (1, 2, 1, 9, 1, 1, 1), // single-row input
    ];
    for &(n, c, h, w, k, r, s) in &cases {
        let x = tensor(Shape::nchw(n, c, h, w), 42);
        let wt = tensor(Shape::nchw(k, c, r, s), 43);
        let p = Conv2dParams::default();
        let fast = conv2d(&x, &wt, None, p).unwrap();
        let naive = reference::conv2d_reference(&x, &wt, None, p).unwrap();
        assert_eq!(
            bits(&fast),
            bits(&naive),
            "case {n}x{c}x{h}x{w} k{k} {r}x{s}"
        );
    }
    // K=1 matmul (single reduction step) and 1-wide output.
    for (m, k, n) in [(5, 1, 7), (1, 9, 1), (8, 8, 1)] {
        let a = tensor(Shape::mat(m, k), 7);
        let b = tensor(Shape::mat(k, n), 8);
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        assert_eq!(bits(&fast), bits(&naive), "matmul {m}x{k}x{n}");
    }
}

/// The kernels must produce identical bits no matter how many rayon worker
/// partitions execute them: partitioning is by whole output rows (a GEMM) or
/// whole images (a convolution), so no accumulation chain is ever split.
#[test]
fn deterministic_across_thread_counts() {
    // Large enough that regions really fork under the kernels' grain rule:
    // 5 GEMM row blocks, 4 images of 1.3–1.7 M multiplies each (a thread
    // forks from 1 Mi), a 51 k-element input for the LUT quantiser's scale.
    let a = tensor(Shape::mat(300, 96), 11);
    let b = tensor(Shape::mat(96, 165), 12);
    let x = tensor(Shape::nchw(4, 8, 40, 40), 13);
    let w = tensor(Shape::nchw(16, 8, 3, 3), 14);
    let w_grouped = tensor(Shape::nchw(16, 4, 5, 5), 15);
    let perforated = |dim| Conv2dParams {
        approx: ConvApprox::Perforation {
            dim,
            k: 3,
            offset: 1,
        },
        ..Default::default()
    };
    let params = [
        Conv2dParams::default(),
        perforated(PerforationDim::Row),
        perforated(PerforationDim::Col),
        Conv2dParams {
            precision: Precision::Fp16,
            ..Default::default()
        },
        Conv2dParams {
            mul: MulApprox::Lut { bits: 6 },
            ..Default::default()
        },
    ];
    let grouped = Conv2dParams {
        pad: (2, 2),
        stride: (2, 1),
        groups: 2,
        ..Default::default()
    };
    let run = || {
        let mm = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let mut convs: Vec<Vec<u32>> = Vec::new();
        for &p in &params {
            convs.push(bits(&conv2d(&x, &w, None, p).unwrap()));
            convs.push(bits(&conv2d_abft(&x, &w, None, p).unwrap()));
        }
        convs.push(bits(&conv2d(&x, &w_grouped, None, grouped).unwrap()));
        convs.push(bits(
            &conv2d_fused(&x, &w_grouped, None, grouped, UnaryOp::Tanh).unwrap(),
        ));
        (bits(&mm), convs)
    };
    let reference_run = run();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(run);
        assert_eq!(got, reference_run, "results differ at {threads} threads");
    }
}
