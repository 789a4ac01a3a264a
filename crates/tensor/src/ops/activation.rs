//! Elementwise activation / map operations.
//!
//! Every op is a pure, branch-free scalar function, and that purity is the
//! determinism rule: the value written for element `i` depends on `xs[i]`
//! alone — never on its SIMD lane, on whether it fell in a vector body or a
//! scalar tail, or on where `crate::par` cut the range — because every
//! lane runs the same IEEE operation sequence and Rust neither contracts
//! nor reassociates floats. The compiler is therefore free to vectorise
//! these loops while inference stays bit-identical at any thread count.

use crate::error::TensorError;
use crate::instrument::Counters;
use crate::knobs::Precision;
use crate::tensor::{check_len, View};
use crate::{f16, par};

/// Elementwise unary operations supported as `map` ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// max(x, 0)
    Relu,
    /// clamp(x, lo, hi)
    ClippedRelu(f32, f32),
    /// hyperbolic tangent: a rational approximant within 5 ulp of the
    /// correctly rounded value, not libm (contract in DESIGN.md §4h)
    Tanh,
    /// absolute value
    Abs,
    /// x * s
    Scale(f32),
    /// x + c
    Offset(f32),
    /// square root of max(x, 0)
    SqrtPos,
}

impl UnaryOp {
    /// Applies the op to a scalar.
    #[inline]
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => max0(x),
            // `f32::clamp` without its per-call `lo <= hi` assertion, which
            // keeps a slice loop from vectorising; the entries check once.
            UnaryOp::ClippedRelu(lo, hi) => {
                let y = if x < lo { lo } else { x };
                if y > hi {
                    hi
                } else {
                    y
                }
            }
            UnaryOp::Tanh => tanh(x),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Scale(s) => x * s,
            UnaryOp::Offset(c) => x + c,
            UnaryOp::SqrtPos => max0(x).sqrt(),
        }
    }
}

/// `max(x, 0)` as a select, so `−0` and NaN both map to `+0` in every build:
/// `f32::max` leaves the sign of `max(−0, +0)` to the code generator, and
/// debug and release builds disagree on it.
#[inline]
fn max0(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// From this magnitude on (and at `±∞`) [`tanh`] is exactly `±1`: the
/// smallest `f32` at which the rational evaluates to `1.0`; below it the
/// rational stays under `1.0`.
const TANH_SATURATION: f32 = 7.998_811_7;
/// Below this magnitude [`tanh`] returns `x` itself: `x − x³/3` is within an
/// ulp of `x` there, closer than the rational's own rounding gets.
const TANH_IDENTITY_BELOW: f32 = 0.0004;

/// The crate's only `tanh`: the odd 13/6-degree rational minimax approximant
/// Eigen and XLA use, as fused multiply–adds and one IEEE division. libm's
/// `tanhf` is an opaque call per element (≈ 10 ns) that cannot vectorise;
/// this is ≈ 0.3 ns per element in a slice loop.
///
/// Contract, checked over every `f32` by `exhaustive_tanh_contract`: odd by
/// bits (`tanh(−x)` is `tanh(x)` with the sign flipped, `±0 → ±0`); `|y| ≤ 1`,
/// exactly `±1` from [`TANH_SATURATION`] on; NaN in, NaN out; `y = x` below
/// [`TANH_IDENTITY_BELOW`]; at most 5 ulp and 2.92 × 10⁻⁷ from `f64::tanh`
/// (glibc's `tanhf`: 2 ulp, 1.0 × 10⁻⁷) — three orders of magnitude inside
/// the FP16 knob's 2⁻¹¹ relative error. Monotonicity is *not* promised:
/// where the curve is flatter than an ulp, neighbouring inputs may step
/// down by one.
#[inline]
fn tanh(x: f32) -> f32 {
    // NaN passes through `clamp`; `±∞` becomes `±TANH_SATURATION`.
    let x = x.clamp(-TANH_SATURATION, TANH_SATURATION);
    let x2 = x * x;
    let mut p = -2.760_768_4e-16_f32;
    p = x2.mul_add(p, 2.000_188e-13);
    p = x2.mul_add(p, -8.604_672e-11);
    p = x2.mul_add(p, 5.122_297_3e-8);
    p = x2.mul_add(p, 1.485_722_35e-5);
    p = x2.mul_add(p, 6.372_619_5e-4);
    p = x2.mul_add(p, 4.893_524_6e-3);
    let mut q = 1.198_258_4e-6_f32;
    q = x2.mul_add(q, 1.185_347_1e-4);
    q = x2.mul_add(q, 2.268_434_7e-3);
    q = x2.mul_add(q, 4.893_525e-3);
    let y = x * p / q;
    if x.abs() < TANH_IDENTITY_BELOW {
        x
    } else {
        y
    }
}

/// A loop that wants `op`'s scalar function as a closure. [`UnaryOp::with_fn`]
/// matches the op once, outside the loop: each arm hands the loop a closure
/// in which `apply`'s own `match` folds to the one expression, so every
/// (op, loop) pair is its own monomorphised, vectorisable body.
trait ElementLoop {
    type Out;
    fn run(self, f: impl Fn(f32) -> f32 + Sync) -> Self::Out;
}

impl UnaryOp {
    /// Rejects a clipped ReLU whose bounds are out of order or NaN.
    pub fn validate(self) -> Result<(), TensorError> {
        match self {
            UnaryOp::ClippedRelu(lo, hi) if lo.is_nan() || hi.is_nan() || lo > hi => {
                Err(TensorError::InvalidKnob {
                    op: "clipped_relu",
                    detail: format!("bounds out of order: {lo} > {hi}"),
                })
            }
            _ => Ok(()),
        }
    }

    fn with_fn<L: ElementLoop>(self, body: L) -> L::Out {
        use UnaryOp::*;
        match self {
            Relu => body.run(|x| Relu.apply(x)),
            ClippedRelu(lo, hi) => body.run(|x| ClippedRelu(lo, hi).apply(x)),
            Tanh => body.run(|x| Tanh.apply(x)),
            Abs => body.run(|x| Abs.apply(x)),
            Scale(s) => body.run(|x| Scale(s).apply(x)),
            Offset(c) => body.run(|x| Offset(c).apply(x)),
            SqrtPos => body.run(|x| SqrtPos.apply(x)),
        }
    }

    /// Applies the op to every element of `xs` in place, on the calling
    /// thread: the GEMM epilogue's fused activation, where the rows are
    /// already spread over the pool.
    pub(crate) fn apply_slice(self, xs: &mut [f32]) {
        struct Rows<'a>(&'a mut [f32]);
        impl ElementLoop for Rows<'_> {
            type Out = ();
            fn run(self, f: impl Fn(f32) -> f32 + Sync) {
                self.0.iter_mut().for_each(|x| *x = f(*x));
            }
        }
        self.with_fn(Rows(xs))
    }
}

/// `f` under FP16: both its operand and its result are rounded through
/// binary16.
fn through_f16(f: impl Fn(f32) -> f32 + Sync) -> impl Fn(f32) -> f32 + Sync {
    move |x| f16::quantize(f(f16::quantize(x)))
}

/// The work [`map_unary_into`] and [`map_unary_in_place`] return for `op`
/// over `n` elements: under FP16 each element is rounded through binary16
/// on its way in and out.
pub fn map_unary_work(op: UnaryOp, n: usize, precision: Precision) -> Counters {
    let mut c = Counters::map(op, n);
    if precision == Precision::Fp16 {
        c.ew_fp16 += 2 * n as u64;
    }
    c
}

/// Applies a unary map over `input` into `out`, which must be as long as
/// `input`, honouring FP16 semantics. Returns the work it did.
pub fn map_unary_into(
    input: View,
    op: UnaryOp,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    struct IntoSlice<'a>(&'a [f32], &'a mut [f32], Precision);
    impl ElementLoop for IntoSlice<'_> {
        type Out = ();
        fn run(self, f: impl Fn(f32) -> f32 + Sync) {
            match self.2 {
                Precision::Fp32 => par::map_into(self.0, self.1, f),
                Precision::Fp16 => par::map_into(self.0, self.1, through_f16(f)),
            }
        }
    }
    check_len(input.shape(), out.len())?;
    op.validate()?;
    op.with_fn(IntoSlice(input.data(), out, precision));
    Ok(map_unary_work(op, out.len(), precision))
}

/// [`map_unary_into`] overwriting its operand: the same value for every element,
/// without the second buffer. For a caller that owns `xs` and has no other
/// reader of it (the graph executor, once a value's last consumer runs).
pub fn map_unary_in_place(
    xs: &mut [f32],
    op: UnaryOp,
    precision: Precision,
) -> Result<Counters, TensorError> {
    struct InPlace<'a>(&'a mut [f32], Precision);
    impl ElementLoop for InPlace<'_> {
        type Out = ();
        fn run(self, f: impl Fn(f32) -> f32 + Sync) {
            match self.1 {
                Precision::Fp32 => par::map_in_place(self.0, f),
                Precision::Fp16 => par::map_in_place(self.0, through_f16(f)),
            }
        }
    }
    op.validate()?;
    let n = xs.len();
    op.with_fn(InPlace(xs, precision));
    Ok(map_unary_work(op, n, precision))
}

/// `out = a + b` element-wise, rounded through binary16 under FP16: the
/// graph's `Add` node.
pub fn add_into(
    a: View,
    b: View,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add",
            detail: format!("{} vs {}", a.shape(), b.shape()),
        });
    }
    check_len(a.shape(), out.len())?;
    for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
        *o = x + y;
    }
    let mut c = Counters {
        ew_add: out.len() as u64,
        ..Counters::default()
    };
    if precision == Precision::Fp16 {
        f16::quantize_slice(out);
        c.ew_fp16 += out.len() as u64;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::Shape;

    fn map_unary(input: &Tensor, op: UnaryOp, precision: Precision) -> Result<Tensor, TensorError> {
        Tensor::written_by(input.shape(), |out| {
            map_unary_into(input.view(), op, precision, out).map(drop)
        })
    }

    fn relu(t: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
        map_unary(t, UnaryOp::Relu, precision)
    }

    fn clipped_relu(t: &Tensor, lo: f32, hi: f32, p: Precision) -> Result<Tensor, TensorError> {
        map_unary(t, UnaryOp::ClippedRelu(lo, hi), p)
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(Shape::vec(4), vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let r = relu(&t, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn clipped_relu6() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-2.0, 3.0, 9.0]).unwrap();
        let r = clipped_relu(&t, 0.0, 6.0, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn clipped_relu_with_reversed_or_nan_bounds_is_a_typed_error() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-2.0, 0.5, 9.0]).unwrap();
        for (lo, hi) in [(1.0, 0.0), (f32::NAN, 1.0), (0.0, f32::NAN)] {
            let op = UnaryOp::ClippedRelu(lo, hi);
            let bad = |r: Result<_, TensorError>| matches!(r, Err(TensorError::InvalidKnob { .. }));
            assert!(bad(map_unary(&t, op, Precision::Fp32).map(drop)));
            let mut xs = t.data().to_vec();
            assert!(bad(
                map_unary_in_place(&mut xs, op, Precision::Fp16).map(drop)
            ));
        }
    }

    #[test]
    fn tanh_bounded() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-100.0, 0.0, 100.0]).unwrap();
        let r = map_unary(&t, UnaryOp::Tanh, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[-1.0, 0.0, 1.0]);
    }

    /// The envelope measured over every finite `f32`, at the inputs where it
    /// is attained. Asserted as equalities: drift in either direction fails.
    const MAX_ULP: (u32, u32) = (5, 0x406F_2FBF);
    const MAX_ABS: (f32, u32) = (2.918_385e-7, 0x40A4_0883);

    /// Checks every per-input line of the `tanh` contract on the given
    /// non-negative patterns (and, by bits, on their negations) and returns
    /// the largest ulp and absolute distance from `f64::tanh` seen.
    fn tanh_envelope(patterns: impl Iterator<Item = u32>) -> (u32, f32) {
        let (mut max_ulp, mut max_abs) = (0, 0.0_f64);
        for bits in patterns {
            let x = f32::from_bits(bits);
            let y = tanh(x);
            assert_eq!(
                tanh(-x).to_bits(),
                y.to_bits() ^ 0x8000_0000,
                "odd at {bits:#x}"
            );
            assert!(y <= 1.0, "tanh({x:e}) = {y:e} exceeds 1");
            if x < TANH_IDENTITY_BELOW {
                assert_eq!(
                    y.to_bits(),
                    bits,
                    "identity below the threshold at {bits:#x}"
                );
            }
            assert_eq!(y == 1.0, x >= TANH_SATURATION, "saturation at {bits:#x}");
            let exact = f64::from(x).tanh();
            max_ulp = max_ulp.max(y.to_bits().abs_diff((exact as f32).to_bits()));
            max_abs = max_abs.max((f64::from(y) - exact).abs());
        }
        (max_ulp, max_abs as f32)
    }

    #[test]
    fn tanh_contract_on_strided_sweep_and_range_boundaries() {
        let inf = f32::INFINITY.to_bits();
        let edges = [
            0,
            TANH_IDENTITY_BELOW.to_bits(),
            TANH_SATURATION.to_bits(),
            inf,
            MAX_ULP.1,
            MAX_ABS.1,
        ];
        let near = edges
            .iter()
            .flat_map(|&e| e.saturating_sub(64)..=(e + 64).min(inf));
        let envelope = tanh_envelope((0..=inf).step_by(1021).chain(near));
        assert_eq!(envelope, (MAX_ULP.0, MAX_ABS.0));
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
            assert!(tanh(nan).is_nan());
        }
    }

    /// `cargo test --release -p at-tensor -- --ignored exhaustive`
    #[test]
    #[ignore = "every non-negative f32 against f64::tanh; ~15 s in release"]
    fn exhaustive_tanh_contract() {
        let envelope = tanh_envelope(0..=f32::INFINITY.to_bits());
        assert_eq!(envelope, (MAX_ULP.0, MAX_ABS.0));
        for bits in 0x7F80_0001..=0x7FFF_FFFF_u32 {
            assert!(tanh(f32::from_bits(bits)).is_nan());
            assert!(tanh(f32::from_bits(bits | 0x8000_0000)).is_nan());
        }
    }

    /// Every op, with parameters where it takes them.
    const ALL_OPS: [UnaryOp; 7] = [
        UnaryOp::Relu,
        UnaryOp::ClippedRelu(-0.5, 2.0),
        UnaryOp::Tanh,
        UnaryOp::Abs,
        UnaryOp::Scale(-1.7),
        UnaryOp::Offset(0.3),
        UnaryOp::SqrtPos,
    ];

    #[test]
    fn slice_map_equals_scalar_apply_at_any_length_and_thread_count() {
        use rand::{rngs::StdRng, SeedableRng};
        // 0..=67 covers every vector-body/scalar-tail split up to four
        // 16-lane vectors; the two long lengths are cut by `par` into two
        // and three parts that start and end off any lane boundary.
        let lengths = (0..=67).chain([2 * par::GRAIN + 1, 3 * par::GRAIN + 17]);
        let mut rng = StdRng::seed_from_u64(67);
        let tensors: Vec<Tensor> = lengths
            .map(|n| Tensor::uniform(Shape::vec(n), -9.0, 9.0, &mut rng))
            .collect();
        let pools = [1, 2, 3, 8].map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
        });
        // Index of the first element whose bits differ from the scalar's.
        let first_diff = |got: &Tensor, want: &[f32]| {
            let pairs = got.data().iter().zip(want);
            pairs
                .into_iter()
                .position(|(g, w)| g.to_bits() != w.to_bits())
        };
        for (t, op) in tensors.iter().flat_map(|t| ALL_OPS.map(|op| (t, op))) {
            let scalar16 = |&x: &f32| f16::quantize(op.apply(f16::quantize(x)));
            let want: Vec<f32> = t.data().iter().map(|&x| op.apply(x)).collect();
            let want16: Vec<f32> = t.data().iter().map(scalar16).collect();
            for pool in &pools {
                let ctx = format!(
                    "{op:?} n={} threads={}",
                    want.len(),
                    pool.current_num_threads()
                );
                let got = pool.install(|| map_unary(t, op, Precision::Fp32)).unwrap();
                assert_eq!(first_diff(&got, &want), None, "fp32 {ctx}");
                let got = pool.install(|| map_unary(t, op, Precision::Fp16)).unwrap();
                assert_eq!(first_diff(&got, &want16), None, "fp16 {ctx}");
            }
        }
    }

    #[test]
    fn fp16_map_quantises() {
        let x = 1.0 + 2.0_f32.powi(-13); // not representable in fp16
        let t = Tensor::from_vec(Shape::vec(1), vec![x]).unwrap();
        let r = relu(&t, Precision::Fp16).unwrap();
        assert_eq!(r.data()[0], 1.0);
    }
}
