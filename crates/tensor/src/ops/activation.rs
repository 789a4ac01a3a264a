//! Elementwise activation / map operations.

use crate::error::TensorError;
use crate::knobs::Precision;
use crate::tensor::Tensor;
use crate::{f16, par};

/// Elementwise unary operations supported as `map` ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// max(x, 0)
    Relu,
    /// clamp(x, lo, hi)
    ClippedRelu(f32, f32),
    /// hyperbolic tangent
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
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::ClippedRelu(lo, hi) => x.clamp(lo, hi),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Scale(s) => x * s,
            UnaryOp::Offset(c) => x + c,
            UnaryOp::SqrtPos => x.max(0.0).sqrt(),
        }
    }
}

/// Applies a unary map over the tensor, honouring FP16 semantics.
pub fn map_unary(input: &Tensor, op: UnaryOp, precision: Precision) -> Result<Tensor, TensorError> {
    let data = match precision {
        Precision::Fp32 => par::map(input.data(), |x| op.apply(x)),
        Precision::Fp16 => par::map(input.data(), |x| f16::quantize(op.apply(f16::quantize(x)))),
    };
    // The map preserves length; shape unchanged.
    Tensor::from_vec(input.shape(), data)
}

/// ReLU activation.
pub fn relu(input: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::Relu, precision)
}

/// Clipped ReLU (e.g. ReLU6 in MobileNet).
pub fn clipped_relu(
    input: &Tensor,
    lo: f32,
    hi: f32,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::ClippedRelu(lo, hi), precision)
}

/// Tanh activation.
pub fn tanh_op(input: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::Tanh, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

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
    fn tanh_bounded() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-100.0, 0.0, 100.0]).unwrap();
        let r = tanh_op(&t, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn fp16_map_quantises() {
        let x = 1.0 + 2.0_f32.powi(-13); // not representable in fp16
        let t = Tensor::from_vec(Shape::vec(1), vec![x]).unwrap();
        let r = relu(&t, Precision::Fp16).unwrap();
        assert_eq!(r.data()[0], 1.0);
    }
}
