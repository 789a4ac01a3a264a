//! Golden regression tests: pinned output checksums per knob family.
//!
//! Every kernel here is bit-deterministic (fixed accumulation order for
//! floats, integer accumulation for LUT paths), so a single FNV-1a hash of
//! the output bit patterns pins the *entire* numerical behaviour of a knob
//! family. Any change to accumulation order, epilogue placement, rounding,
//! or table contents shows up as a checksum mismatch — including changes
//! that drift the kernel and the naive oracle together, which the
//! differential suite alone cannot see.
//!
//! If a checksum changes *intentionally* (e.g. a deliberate semantics fix),
//! re-pin it and say why in the commit.

use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::{conv2d, conv2d_abft, map_unary_into, matmul_abft, matmul_ex, UnaryOp};
use at_tensor::{ConvApprox, MulApprox, PerforationDim, Precision, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, -1.0, 1.0, &mut rng)
}

fn map_unary(input: &Tensor, op: UnaryOp, precision: Precision) -> Tensor {
    let mut out = Tensor::zeros(input.shape());
    map_unary_into(input.view(), op, precision, out.data_mut()).unwrap();
    out
}

/// FNV-1a over the little-endian output bit patterns.
fn checksum(t: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in t.data() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn conv_out(approx: ConvApprox, precision: Precision, mul: MulApprox) -> Tensor {
    let x = tensor(Shape::nchw(1, 3, 8, 9), 123);
    let w = tensor(Shape::nchw(4, 3, 3, 3), 124);
    let b = tensor(Shape::new(&[4]), 125);
    conv2d(
        &x,
        &w,
        Some(&b),
        Conv2dParams {
            pad: (1, 1),
            stride: (1, 1),
            groups: 1,
            approx,
            precision,
            mul,
        },
    )
    .unwrap()
}

fn matmul_out(precision: Precision, mul: MulApprox) -> Tensor {
    let a = tensor(Shape::mat(7, 13), 126);
    let b = tensor(Shape::mat(13, 9), 127);
    let bias = tensor(Shape::new(&[9]), 128);
    matmul_ex(&a, &b, Some(&bias), precision, mul).unwrap()
}

/// Seeded values in `[-10, 10)` — past `tanh`'s saturation on both sides —
/// with the inputs where an element-wise kernel changes regime written over
/// the first few: signed zeros, `f32` and binary16 subnormals, the
/// 2^-25 rounding tie and its successor, `tanh`'s identity and saturation
/// thresholds with their predecessors, binary16's overflow midpoint,
/// infinities and NaN.
fn elementwise_input() -> Tensor {
    let mut t = tensor(Shape::vec(1000), 129);
    let edges = [
        0x0000_0000_u32, // 0
        0x0000_0001,     // smallest f32 subnormal
        0x3300_0000,     // 2^-25
        0x3300_0001,
        0x3380_0000, // 2^-24, smallest binary16 subnormal
        0x3687_2B02, // 4.03e-6, a binary16 subnormal
        0x39D1_B716,
        0x39D1_B717, // 0.0004
        0x40FF_F643,
        0x40FF_F644, // 7.9988117
        0x477F_EFFF,
        0x477F_F000, // 65520
        0x7F80_0000, // infinity
    ];
    let data = t.data_mut();
    data.iter_mut().for_each(|v| *v *= 10.0);
    for (i, &e) in edges.iter().enumerate() {
        data[2 * i] = f32::from_bits(e);
        data[2 * i + 1] = -f32::from_bits(e);
    }
    data[2 * edges.len()] = f32::NAN;
    t
}

#[test]
fn golden_checksums_per_knob_family() {
    use ConvApprox::{Exact, FilterSampling, Perforation};
    use MulApprox::Lut;
    use PerforationDim::{Col, Row};
    use Precision::{Fp16, Fp32};

    let cases: Vec<(&str, Tensor, u64)> = vec![
        (
            "conv-exact-fp32",
            conv_out(Exact, Fp32, MulApprox::Exact),
            0xdbd011d3fc864330,
        ),
        (
            "conv-exact-fp16",
            conv_out(Exact, Fp16, MulApprox::Exact),
            0x001a1125f4beffd8,
        ),
        (
            "conv-samp-50-o0",
            conv_out(FilterSampling { k: 2, offset: 0 }, Fp32, MulApprox::Exact),
            0x4319c08f581fd146,
        ),
        (
            "conv-perf-row-50-o0",
            conv_out(
                Perforation {
                    dim: Row,
                    k: 2,
                    offset: 0,
                },
                Fp32,
                MulApprox::Exact,
            ),
            0x3eeaaa5ffe080dad,
        ),
        (
            "conv-perf-col-33-o1-fp16",
            conv_out(
                Perforation {
                    dim: Col,
                    k: 3,
                    offset: 1,
                },
                Fp16,
                MulApprox::Exact,
            ),
            0xbfb096b0fb182439,
        ),
        (
            "conv-lutmul-8b",
            conv_out(Exact, Fp32, Lut { bits: 8 }),
            0x49cf8dc7df385290,
        ),
        (
            "conv-lutmul-6b",
            conv_out(Exact, Fp32, Lut { bits: 6 }),
            0xd7ebe67a7371a710,
        ),
        (
            "conv-lutmul-4b",
            conv_out(Exact, Fp32, Lut { bits: 4 }),
            0xa82cd7c392698110,
        ),
        (
            "matmul-exact-fp32",
            matmul_out(Fp32, MulApprox::Exact),
            0x09e61479f654c555,
        ),
        (
            "matmul-exact-fp16",
            matmul_out(Fp16, MulApprox::Exact),
            0xf62fcda1838c34ea,
        ),
        (
            "matmul-lutmul-8b",
            matmul_out(Fp32, Lut { bits: 8 }),
            0x27e41ce146a000b9,
        ),
        (
            "tanh-fp32",
            map_unary(&elementwise_input(), UnaryOp::Tanh, Fp32),
            0x73ff16498910f3c6,
        ),
        (
            "tanh-fp16",
            map_unary(&elementwise_input(), UnaryOp::Tanh, Fp16),
            0x1be24fc76f6b5221,
        ),
        (
            "relu-fp16",
            map_unary(&elementwise_input(), UnaryOp::Relu, Fp16),
            0x09375eb8a1e532fd,
        ),
        ("to-f16", elementwise_input().to_f16(), 0xbfecca179a7b9efc),
    ];

    let mut mismatches = Vec::new();
    for (name, out, pinned) in &cases {
        let got = checksum(out);
        if got != *pinned {
            mismatches.push(format!("(\"{name}\", 0x{got:016x})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden checksum mismatches — if intentional, re-pin:\n{}",
        mismatches.join("\n")
    );
}

/// The ABFT-verified kernels must be *bit-identical* to the unverified
/// ones — verification reads operands and output but never rewrites the
/// result — so they pin to the very same golden checksums as above. A
/// mismatch here means the checksummed path changed the numerics, which
/// would silently invalidate every tradeoff curve shipped for the
/// unverified kernels.
#[test]
fn abft_kernels_pin_to_the_same_golden_checksums() {
    let x = tensor(Shape::nchw(1, 3, 8, 9), 123);
    let w = tensor(Shape::nchw(4, 3, 3, 3), 124);
    let cb = tensor(Shape::new(&[4]), 125);
    let conv = conv2d_abft(
        &x,
        &w,
        Some(&cb),
        Conv2dParams {
            pad: (1, 1),
            stride: (1, 1),
            groups: 1,
            approx: ConvApprox::Exact,
            precision: Precision::Fp32,
            mul: MulApprox::Exact,
        },
    )
    .unwrap();
    assert_eq!(
        checksum(&conv),
        0xdbd011d3fc864330,
        "conv2d_abft must match the pinned conv-exact-fp32 checksum"
    );

    let a = tensor(Shape::mat(7, 13), 126);
    let b = tensor(Shape::mat(13, 9), 127);
    let bias = tensor(Shape::new(&[9]), 128);
    let mm = matmul_abft(&a, &b, Some(&bias), Precision::Fp32, MulApprox::Exact).unwrap();
    assert_eq!(
        checksum(&mm),
        0x09e61479f654c555,
        "matmul_abft must match the pinned matmul-exact-fp32 checksum"
    );

    let mm_lut = matmul_abft(
        &a,
        &b,
        Some(&bias),
        Precision::Fp32,
        MulApprox::Lut { bits: 8 },
    )
    .unwrap();
    assert_eq!(
        checksum(&mm_lut),
        0x27e41ce146a000b9,
        "matmul_abft must match the pinned matmul-lutmul-8b checksum"
    );
}
