//! Matrix multiplication (dense/fully-connected layers) on the tiled GEMM
//! core, with FP16 and LUT approximate-multiplier support.
//!
//! [`matmul`] keeps the original naive-kernel semantics bit-for-bit (the
//! differential suite enforces this against [`super::reference`]);
//! [`matmul_ex`] additionally fuses the per-column bias add and selects the
//! multiplier, so the IR executor's dense layers run in one kernel without
//! materialising the unbiased product.

use crate::error::TensorError;
use crate::f16;
use crate::instrument;
use crate::knobs::{MulApprox, Precision};
use crate::lut;
use crate::ops::gemm::{self, Epilogue, Fma, LutMul};
use crate::tensor::{check_len, Tensor, View};
use crate::Shape;

/// `C = A × B` for `A: [M,K]`, `B: [K,N]` on the register-blocked kernel.
///
/// `Precision::Fp16` quantises both operands and the result through binary16
/// while accumulating in f32.
pub fn matmul(a: &Tensor, b: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, None, precision, MulApprox::Exact)
}

/// Fused dense layer: `C = epilogue(A × B)` with optional per-column bias,
/// FP16 semantics and a selectable multiplier.
///
/// Bit-compatibility contract: with `MulApprox::Exact` this equals the
/// unfused `matmul` → [`bias_add_rows`] sequence exactly (same quantisation
/// points, same accumulation order). With `MulApprox::Lut`, operands are
/// symmetric-quantised per tensor and every product is Mitchell's (the
/// bitwidth's table as a closed form), summed exactly.
pub fn matmul_ex(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
) -> Result<Tensor, TensorError> {
    let shape = Shape::mat(a.shape().as_mat()?.0, b.shape().as_mat()?.1);
    instrument::tallied(shape, |out| {
        matmul_into(a.view(), b, bias, precision, mul, out)
    })
}

/// [`matmul_ex`] into `out`, which must hold `[M, N]`. Returns the
/// multiplies it ran.
pub fn matmul_into(
    a: View,
    b: &Tensor,
    bias: Option<&Tensor>,
    precision: Precision,
    mul: MulApprox,
    out: &mut [f32],
) -> Result<u64, TensorError> {
    mul.validate()?;
    let (m, ka) = a.shape().as_mat()?;
    let (kb, n) = b.shape().as_mat()?;
    check_len(Shape::mat(m, n), out.len())?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("inner dims {ka} vs {kb}"),
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

    // FP16 and LUT quantise `B` as it is packed, one closure type per
    // quantiser so the plain FP32 packing stays a copy.
    let fp16 = precision == Precision::Fp16;
    let qa = fp16.then(|| a.to_f16());
    let a = qa.as_ref().map_or(a, Tensor::view);
    let epi = Epilogue::Dense {
        bias: bias.map(|t| t.data()),
        fp16,
    };
    let (a, b) = (a.data(), b.data());
    Ok(match mul {
        MulApprox::Exact if fp16 => {
            gemm::gemm_dense(&Fma, m, ka, n, a, b, f16::quantize, out, &epi)
        }
        MulApprox::Exact => gemm::gemm_dense(&Fma, m, ka, n, a, b, |v| v, out, &epi),
        MulApprox::Lut { bits } => {
            // Both operands come out of the quantiser, so they are in
            // `gemm_lut`'s range by construction.
            let b16 = |v| if fp16 { f16::quantize(v) } else { v };
            let aq = lut::quantize_symmetric(a, bits);
            let bs = lut::Symmetric::fit(lut::max_abs(b.iter().map(|&v| b16(v))), bits);
            let kern = LutMul {
                dequant: aq.scale * bs.scale,
            };
            let quant = |v| bs.q(b16(v));
            gemm::gemm_dense(&kern, m, ka, n, &aq.q, b, quant, out, &epi)
        }
    })
}

/// Adds a bias row-vector `[N]` to every row of `x: [M,N]`.
pub fn bias_add_rows(
    x: &Tensor,
    bias: &Tensor,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    let (m, n) = x.shape().as_mat()?;
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "bias_add",
            detail: format!("bias len {} != cols {n}", bias.len()),
        });
    }
    let bd = bias.data();
    let mut out = x.data().to_vec();
    for row in 0..m {
        for col in 0..n {
            out[row * n + col] += bd[col];
        }
    }
    let mut t = Tensor::from_vec(x.shape(), out)?;
    if precision == Precision::Fp16 {
        t.quantize_f16();
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let b = Tensor::from_vec(Shape::vec(2), vec![10., 20.]).unwrap();
        let y = bias_add_rows(&x, &b, Precision::Fp32).unwrap();
        assert_eq!(y.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn fused_equals_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::uniform(Shape::mat(5, 37), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(37, 91), -1.0, 1.0, &mut rng);
        let bias = Tensor::uniform(Shape::vec(91), -0.5, 0.5, &mut rng);
        for precision in Precision::ALL {
            let unfused =
                bias_add_rows(&matmul(&a, &b, precision).unwrap(), &bias, precision).unwrap();
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
