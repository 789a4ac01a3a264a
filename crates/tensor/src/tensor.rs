//! Dense row-major tensor of `f32` values.

use crate::error::TensorError;
use crate::f16;
use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major tensor of `f32` elements.
///
/// All kernels in this crate compute in `f32`; FP16 execution is modelled by
/// quantising operands and results through [`crate::F16`] (see
/// `Tensor::quantize_f16`).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}(", self.shape)?;
        let n = self.data.len().min(8);
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

/// A shape over borrowed data of exactly its volume: what a kernel reads,
/// whether the values sit in a [`Tensor`] or in a buffer its caller reuses.
#[derive(Clone, Copy)]
pub struct View<'a> {
    shape: Shape,
    data: &'a [f32],
}

/// `Err(DataLength)` unless `len` is `shape`'s volume.
pub(crate) fn check_len(shape: Shape, len: usize) -> Result<(), TensorError> {
    if shape.volume() == len {
        return Ok(());
    }
    Err(TensorError::DataLength {
        expected: shape.volume(),
        got: len,
    })
}

impl<'a> View<'a> {
    /// Reads `data` as a tensor of `shape`.
    pub fn new(shape: Shape, data: &'a [f32]) -> Result<Self, TensorError> {
        check_len(shape, data.len())?;
        Ok(View { shape, data })
    }

    /// The shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The elements.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// An owned copy.
    pub fn to_tensor(&self) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.to_vec(),
        }
    }

    /// An FP16-quantised copy.
    pub fn to_f16(&self) -> Tensor {
        Tensor {
            shape: self.shape,
            data: f16::quantized(self.data),
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        check_len(shape, data.len())?;
        Ok(Tensor { shape, data })
    }

    /// A tensor of `shape` whose every element `write` sets: the allocating
    /// form of a kernel's `_into` entry.
    pub(crate) fn written_by(
        shape: Shape,
        write: impl FnOnce(&mut [f32]) -> Result<(), TensorError>,
    ) -> Result<Tensor, TensorError> {
        let mut data = vec![0.0; shape.volume()];
        write(&mut data)?;
        Ok(Tensor { shape, data })
    }

    /// The tensor as a [`View`].
    pub fn view(&self) -> View<'_> {
        View {
            shape: self.shape,
            data: &self.data,
        }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.volume()],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.volume()],
        }
    }

    /// A tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(shape: Shape, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data = (0..shape.volume()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// A tensor with elements drawn from N(0, std^2) via Box–Muller.
    pub fn randn<R: Rng + ?Sized>(shape: Shape, std: f32, rng: &mut R) -> Self {
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Mutable element at a 4-D NCHW coordinate.
    #[inline(always)]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.shape.idx4(n, c, h, w);
        &mut self.data[i]
    }

    /// Quantises every element through IEEE binary16 (round-trip), modelling
    /// FP16 storage semantics.
    pub(crate) fn quantize_f16(&mut self) {
        f16::quantize_slice(&mut self.data);
    }

    /// Returns an FP16-quantised copy.
    pub fn to_f16(&self) -> Tensor {
        self.view().to_f16()
    }

    /// Elementwise sum of absolute values (L1 norm).
    pub fn l1(&self) -> f64 {
        self.data.iter().map(|&x| x.abs() as f64).sum()
    }

    /// Mean squared error against another tensor of the same shape.
    pub fn mse(&self, other: &Tensor) -> Result<f64, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "mse",
                detail: format!("{} vs {}", self.shape, other.shape),
            });
        }
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        Ok(sum / self.data.len() as f64)
    }

    /// Elementwise difference (`self - other`).
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "sub",
                detail: format!("{} vs {}", self.shape, other.shape),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Ok(Tensor {
            shape: self.shape,
            data,
        })
    }

    /// Scales every element by `s`, in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `other * s` into `self` (axpy). Shapes must match.
    pub fn axpy(&mut self, s: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                detail: format!("{} vs {}", self.shape, other.shape),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(Shape::vec(3), vec![1.0, 2.0]).is_err());
        assert!(Tensor::from_vec(Shape::vec(2), vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(Shape::vec(100_000), 2.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.len() as f32;
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn mse_and_norms() {
        let a = Tensor::from_vec(Shape::vec(4), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(Shape::vec(4), vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        assert_eq!(a.mse(&b).unwrap(), 1.0);
        assert_eq!(a.l1(), 10.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(Shape::vec(3), 1.0);
        let b = Tensor::from_vec(Shape::vec(3), vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn f16_roundtrip_reduces_precision() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(Shape::vec(128), -10.0, 10.0, &mut rng);
        let q = t.to_f16();
        // Quantisation error present but small.
        let mse = t.mse(&q).unwrap();
        assert!(mse > 0.0);
        assert!(mse < 1e-4, "mse {mse}");
    }
}
