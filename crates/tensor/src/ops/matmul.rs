//! Matrix multiplication (dense/fully-connected layers) on the tiled GEMM
//! core, with FP16 and LUT approximate-multiplier support.
//!
//! [`matmul_ex`] fuses the per-column bias add and selects the multiplier,
//! so the IR executor's dense layers run in one kernel without
//! materialising the unbiased product; with no bias and the exact
//! multiplier it keeps the naive kernel's semantics bit for bit (the
//! differential suite enforces this against [`super::reference`]). Its
//! ABFT twin [`super::matmul_abft`] is the same step with the product's
//! checksums verified.

use crate::error::TensorError;
use crate::f16;
use crate::instrument::{self, Counters};
use crate::knobs::{MulApprox, Precision};
use crate::lut;
use crate::ops::abft;
use crate::ops::gemm::{self, Epilogue, Fma, LutMul, PackedB, PANEL};
use crate::tensor::{check_len, Tensor, View};
use crate::Shape;

/// Fused dense layer: `C = epilogue(A × B)` for `A: [M,K]`, `B: [K,N]` on
/// the register-blocked kernel, with optional per-column bias, FP16
/// semantics and a selectable multiplier.
///
/// `Precision::Fp16` quantises both operands and the result through
/// binary16 while accumulating in f32. Bit-compatibility contract: with
/// `MulApprox::Exact` this equals the unfused naive matmul → bias-add
/// sequence of [`super::reference::matmul_ex_reference`] exactly (same
/// quantisation points, same accumulation order). With `MulApprox::Lut`,
/// operands are symmetric-quantised per tensor and every product is
/// Mitchell's (the bitwidth's table as a closed form), summed exactly.
pub fn matmul_ex(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
) -> Result<Tensor, TensorError> {
    dense(a, b, bias, precision, mul, false)
}

/// [`matmul_ex`] into `out`, which must hold `[M, N]`. Returns the work it
/// did.
pub fn matmul_into(
    a: View,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    dense_into(a, b, bias, precision, mul, false, out)
}

/// [`matmul_ex`], or with `verify` [`super::matmul_abft`], into a new
/// tensor; the multiplies go to this thread's tally.
pub(crate) fn dense(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
    verify: bool,
) -> Result<Tensor, TensorError> {
    let shape = Shape::mat(a.shape().as_mat()?.0, b.shape().as_mat()?.1);
    instrument::tallied(shape, |out| {
        dense_into(a.view(), b, bias, precision, mul, verify, out)
    })
}

/// The one dense step: quantise `B` as it is packed into this thread's
/// slab buffer, then [`PreparedDense::run`] — checksum-verified before the
/// epilogue under `verify` ([`abft::gemm_windows_abft`]).
fn dense_into(
    a: View,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
    verify: bool,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    mul.validate()?;
    let (k, n) = b.shape().as_mat()?;
    let prepared = PreparedDense::pack(k, n, b.data(), precision, mul, PackedB::call_buf());
    let done = prepared.run(a, bias, verify, out);
    prepared.packed.recycle();
    done
}

/// A dense layer's weights packed once under their quantiser:
/// [`matmul_into`] packs on every call, a compiled graph once per
/// configuration.
pub struct PreparedDense {
    packed: PackedB,
    n: usize,
    precision: Precision,
    mul: MulApprox,
    /// The LUT weights' quantisation scale.
    b_scale: f32,
}

impl PreparedDense {
    /// Validates the multiplier and packs `weight` (`[K, N]`) under it.
    pub fn new(
        weight: &Tensor,
        precision: Precision,
        mul: MulApprox,
    ) -> Result<PreparedDense, TensorError> {
        mul.validate()?;
        let (k, n) = weight.shape().as_mat()?;
        Ok(PreparedDense::pack(
            k,
            n,
            weight.data(),
            precision,
            mul,
            Vec::new(),
        ))
    }

    /// Packs the row-major `K×N` `b` into `buf`'s storage, FP16 and LUT
    /// quantising it on the way in: one closure type per quantiser, so the
    /// plain FP32 packing stays a copy.
    fn pack(
        k: usize,
        n: usize,
        b: &[f32],
        precision: Precision,
        mul: MulApprox,
        buf: Vec<f32>,
    ) -> PreparedDense {
        let fp16 = precision == Precision::Fp16;
        let (packed, b_scale) = match mul {
            MulApprox::Exact if fp16 => (PackedB::new(k, n, b, f16::quantize, buf), 1.0),
            MulApprox::Exact => (PackedB::new(k, n, b, |v| v, buf), 1.0),
            MulApprox::Lut { bits } => {
                // Both operands come out of the symmetric quantiser, so they
                // are on the grid the kernel's closed form assumes.
                let b16 = |v| if fp16 { f16::quantize(v) } else { v };
                let bs = lut::Symmetric::fit(lut::max_abs(b.iter().map(|&v| b16(v))), bits);
                (PackedB::new(k, n, b, |v| bs.q(b16(v)), buf), bs.scale)
            }
        };
        PreparedDense {
            packed,
            n,
            precision,
            mul,
            b_scale,
        }
    }

    /// `out = epilogue(a × B)` for `a: [M, K]`, with the optional per-column
    /// `bias`, into `out`, which must hold `[M, N]`. Returns the work it
    /// did, the packing included.
    pub fn run(
        &self,
        a: View,
        bias: Option<&Tensor>,
        verify: bool,
        out: &mut [f32],
    ) -> Result<Counters, TensorError> {
        let (m, ka) = a.shape().as_mat()?;
        let (k, n) = (self.packed.k, self.n);
        check_len(Shape::mat(m, n), out.len())?;
        if ka != k {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                detail: format!("inner dims {ka} vs {k}"),
            });
        }
        if let Some(bt) = bias {
            if bt.len() != n {
                return Err(TensorError::ShapeMismatch {
                    op: "bias_add",
                    detail: format!("bias len {} != cols {n}", bt.len()),
                });
            }
        }
        let fp16 = self.precision == Precision::Fp16;
        let qa = fp16.then(|| a.to_f16());
        let a = qa.as_ref().map_or(a, Tensor::view);
        let epi = Epilogue::Dense {
            bias: bias.map(|t| t.data()),
            fp16,
        };
        let mut work = prep_work(m, k, n, self.precision, self.mul);
        work.dense_pack = gemm::packed_len(k, n) as u64;
        let (a, b, w) = (a.data(), self.packed.windows(), &mut work);
        match self.mul {
            MulApprox::Exact => abft::gemm_windows_abft(&Fma, m, a, &b, out, &epi, verify, w)?,
            MulApprox::Lut { bits } => {
                let aq = lut::quantize_symmetric(a, bits);
                let kern = LutMul {
                    dequant: aq.scale * self.b_scale,
                };
                abft::gemm_windows_abft(&kern, m, &aq.q, &b, out, &epi, verify, w)?
            }
        }
        Ok(work)
    }
}

/// Elements the dense step passes through a quantiser or a scale scan
/// before its GEMM: FP16 rounds `A` and `B`; LUT scans and quantises `A`,
/// scans `B` and quantises it as it is packed.
fn prep_work(m: usize, k: usize, n: usize, precision: Precision, mul: MulApprox) -> Counters {
    let (ak, kn) = ((m * k) as u64, (k * n) as u64);
    Counters {
        operand_prep: match mul {
            MulApprox::Exact if precision == Precision::Fp16 => ak + kn,
            MulApprox::Exact => 0,
            MulApprox::Lut { .. } => 2 * ak + 2 * kn,
        },
        ..Counters::default()
    }
}

/// The work [`matmul_into`] returns for `[m, k] × [k, n]`, a bias if
/// `bias`, and these knobs — computed from shapes alone.
pub fn matmul_work(
    (m, k, n): (usize, usize, usize),
    bias: bool,
    precision: Precision,
    mul: MulApprox,
) -> Counters {
    let mut c = prep_work(m, k, n, precision, mul);
    let panels = n.div_ceil(PANEL);
    c.dense_pack = gemm::packed_len(k, n) as u64;
    if m == 0 || n == 0 {
        return c;
    }
    c.muls += (m * k * n) as u64;
    c.gemm_calls = 1;
    let steps = (panels * gemm::padded_rows(m) * k) as u64;
    match mul {
        MulApprox::Exact => c.fma_steps += steps,
        MulApprox::Lut { .. } => c.lut_steps += steps,
    }
    let epi = Epilogue::Dense {
        bias: bias.then_some(&[][..]),
        fp16: precision == Precision::Fp16,
    };
    epi.count_rows(m as u64, n, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matmul(a: &Tensor, b: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
        matmul_ex(a, b, None, precision, MulApprox::Exact)
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::mat(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b, Precision::Fp32).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::uniform(Shape::mat(4, 4), -1.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros(Shape::mat(4, 4));
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        let c = matmul(&a, &eye, Precision::Fp32).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::zeros(Shape::mat(2, 3));
        let b = Tensor::zeros(Shape::mat(4, 2));
        assert!(matmul(&a, &b, Precision::Fp32).is_err());
    }

    #[test]
    fn fp16_small_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::uniform(Shape::mat(8, 16), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(16, 8), -1.0, 1.0, &mut rng);
        let c32 = matmul(&a, &b, Precision::Fp32).unwrap();
        let c16 = matmul(&a, &b, Precision::Fp16).unwrap();
        let mse = c32.mse(&c16).unwrap();
        assert!(mse > 0.0 && mse < 1e-4, "mse {mse}");
    }

    #[test]
    fn bias_add() {
        let x = Tensor::from_vec(Shape::mat(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let eye = Tensor::from_vec(Shape::mat(2, 2), vec![1., 0., 0., 1.]).unwrap();
        let b = Tensor::from_vec(Shape::vec(2), vec![10., 20.]).unwrap();
        let y = matmul_ex(&x, &eye, Some(&b), Precision::Fp32, MulApprox::Exact).unwrap();
        assert_eq!(y.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn fused_equals_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::uniform(Shape::mat(5, 37), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(37, 91), -1.0, 1.0, &mut rng);
        let bias = Tensor::uniform(Shape::vec(91), -0.5, 0.5, &mut rng);
        for precision in Precision::ALL {
            // The oracle runs the naive matmul, then adds the bias.
            let unfused = crate::ops::reference::matmul_ex_reference(
                &a,
                &b,
                Some(&bias),
                precision,
                MulApprox::Exact,
            )
            .unwrap();
            let fused = matmul_ex(&a, &b, Some(&bias), precision, MulApprox::Exact).unwrap();
            for (u, f) in unfused.data().iter().zip(fused.data()) {
                assert_eq!(u.to_bits(), f.to_bits(), "{precision:?}");
            }
        }
    }

    #[test]
    fn lut_multiplier_error_bounded_and_graded() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::uniform(Shape::mat(12, 48), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(48, 20), -1.0, 1.0, &mut rng);
        let exact = matmul(&a, &b, Precision::Fp32).unwrap();
        let mse_at = |bits: u8| {
            let approx = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Lut { bits }).unwrap();
            exact.mse(&approx).unwrap()
        };
        let (m8, m6, m4) = (mse_at(8), mse_at(6), mse_at(4));
        assert!(m8 > 0.0, "LUT path must actually approximate");
        assert!(
            m8 < m6 && m6 < m4,
            "error must grow as bits shrink: {m8} {m6} {m4}"
        );
        assert!(m4 < 1.0, "even 4-bit stays in the ballpark: {m4}");
    }

    #[test]
    fn invalid_mul_rejected() {
        let a = Tensor::zeros(Shape::mat(2, 2));
        let b = Tensor::zeros(Shape::mat(2, 2));
        assert!(matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Lut { bits: 1 }).is_err());
    }
}
