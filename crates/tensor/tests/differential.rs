//! Differential kernel test harness.
//!
//! The optimized tiled/SIMD kernels (`ops::matmul_ex`, `ops::conv2d` via
//! im2col+GEMM) are checked against the frozen naive oracle in
//! `ops::reference` under proptest-fuzzed shapes and knob settings:
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

use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::{conv2d, matmul_ex, reference};
use at_tensor::{ConvApprox, MulApprox, PerforationDim, Precision, Shape, Tensor};
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

/// [`conv_case`] with the geometry widened past what the zoo uses: padding
/// at least as wide as the kernel (whole taps pad away), inputs narrower
/// than the kernel, kernels up to 4×5.
fn wide_conv_case() -> impl Strategy<Value = ConvCase> {
    conv_cases((
        (1usize..=2, 1usize..=2, 1usize..=2, 1usize..=5),
        (1usize..=8, 1usize..=9, 1usize..=4, 1usize..=5),
        (
            (0usize..=4, 0usize..=5),
            (1usize..=2, 1usize..=2),
            0u64..1000,
        ),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact FP32 matmul: bit-for-bit against the naive oracle, across
    /// shapes that straddle every panel boundary (ragged and full 32-wide
    /// panels, every row-group height, and the 8-row rayon blocks).
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

    /// Both im2col paths against the oracle, bits only, over the widened
    /// geometry and every approximation family: unit width-stride without
    /// column perforation packs each (filter element, output row) as one
    /// contiguous copy, anything else gathers element by element.
    #[test]
    fn conv_lowering_bitwise_on_both_im2col_paths(
        case in wide_conv_case(),
        which in 0usize..6,
        (pk, poff) in (2usize..=4, 0usize..4),
    ) {
        let offset = poff % pk;
        let (approx, precision, mul) = match which {
            0 => (ConvApprox::Exact, Precision::Fp32, MulApprox::Exact),
            1 => (ConvApprox::FilterSampling { k: pk, offset }, Precision::Fp32, MulApprox::Exact),
            2 => (
                ConvApprox::Perforation { dim: PerforationDim::Row, k: pk, offset },
                Precision::Fp32,
                MulApprox::Exact,
            ),
            3 => (
                ConvApprox::Perforation { dim: PerforationDim::Col, k: pk, offset },
                Precision::Fp32,
                MulApprox::Exact,
            ),
            4 => (ConvApprox::Exact, Precision::Fp16, MulApprox::Exact),
            _ => (ConvApprox::Exact, Precision::Fp32, MulApprox::Lut { bits: 8 }),
        };
        let (x, wt, b) = case.tensors();
        let p = case.params(approx, precision, mul);
        let naive = reference::conv2d_reference(&x, &wt, Some(&b), p);
        match conv2d(&x, &wt, Some(&b), p) {
            Ok(fast) => prop_assert_eq!(bits(&fast), bits(&naive.unwrap())),
            Err(_) => prop_assert!(naive.is_err(), "only the lowered kernel rejected {:?}", p),
        }
    }
}

/// Every row-group height (8, 4, 2, 1 and their sums up to two row blocks)
/// against every column regime — below one lane group, exactly one, a ragged
/// and a full panel, several panels with a ragged edge — and the empty and
/// single-step reductions: bit for bit against the naive oracle.
#[test]
fn gemm_bitwise_for_every_row_group_and_panel_edge() {
    for m in 1..=17 {
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
/// partitions execute them: partitioning is by whole output rows/planes, so
/// no accumulation chain is ever split.
#[test]
fn deterministic_across_thread_counts() {
    // Large enough that regions really fork under the kernels' grain rule:
    // 38 GEMM row blocks, 51 k-element conv operands for the FP16 and LUT
    // quantisers, 16-row LUT GEMMs.
    let a = tensor(Shape::mat(300, 96), 11);
    let b = tensor(Shape::mat(96, 165), 12);
    let x = tensor(Shape::nchw(4, 8, 40, 40), 13);
    let w = tensor(Shape::nchw(16, 8, 3, 3), 14);
    let params = [
        Conv2dParams::default(),
        Conv2dParams {
            approx: ConvApprox::Perforation {
                dim: PerforationDim::Row,
                k: 2,
                offset: 0,
            },
            ..Default::default()
        },
        Conv2dParams {
            precision: Precision::Fp16,
            ..Default::default()
        },
        Conv2dParams {
            mul: MulApprox::Lut { bits: 6 },
            ..Default::default()
        },
    ];
    let run = || {
        let mm = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let convs: Vec<Vec<u32>> = params
            .iter()
            .map(|&p| bits(&conv2d(&x, &w, None, p).unwrap()))
            .collect();
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
