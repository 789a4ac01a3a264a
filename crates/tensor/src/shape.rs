//! Shape algebra for NCHW tensors.
//!
//! Shapes are small (`rank <= 4` in every workload of the paper), so they
//! are stored inline in a fixed array to keep `Shape` `Copy` and free of
//! heap allocation — tensor metadata is touched on every kernel dispatch.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum tensor rank supported by the library (NCHW).
pub(crate) const MAX_RANK: usize = 4;

/// A tensor shape: up to `MAX_RANK` dimensions stored inline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Builds a shape from a slice of dimensions.
    ///
    /// # Panics
    /// Panics if `dims.len() > MAX_RANK`. Use the `TryFrom` conversion for a
    /// fallible variant.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: d,
            rank: dims.len() as u8,
        }
    }

    /// 4-D NCHW constructor.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape::new(&[n, c, h, w])
    }

    /// 2-D matrix constructor.
    pub fn mat(rows: usize, cols: usize) -> Self {
        Shape::new(&[rows, cols])
    }

    /// 1-D vector constructor.
    pub fn vec(len: usize) -> Self {
        Shape::new(&[len])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Dimension at `axis`, or an error if out of range.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        if axis < self.rank() {
            Ok(self.dims[axis])
        } else {
            Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
        }
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.dims().iter().product()
    }

    /// Flat index of a 4-D NCHW coordinate. Only valid for rank-4 shapes.
    #[inline(always)]
    pub(crate) fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 4);
        ((n * self.dims[1] + c) * self.dims[2] + h) * self.dims[3] + w
    }

    /// Interprets the shape as NCHW, returning `(n, c, h, w)`.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize), TensorError> {
        if self.rank() == 4 {
            Ok((self.dims[0], self.dims[1], self.dims[2], self.dims[3]))
        } else {
            Err(TensorError::ShapeMismatch {
                op: "as_nchw",
                detail: format!("expected rank 4, got {self}"),
            })
        }
    }

    /// Interprets the shape as a matrix, returning `(rows, cols)`.
    pub fn as_mat(&self) -> Result<(usize, usize), TensorError> {
        if self.rank() == 2 {
            Ok((self.dims[0], self.dims[1]))
        } else {
            Err(TensorError::ShapeMismatch {
                op: "as_mat",
                detail: format!("expected rank 2, got {self}"),
            })
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Output spatial size of a convolution/pooling window along one axis.
///
/// `input` elements, window of `kernel`, symmetric padding `pad`, `stride`.
pub fn conv_out_dim(input: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    debug_assert!(stride > 0);
    (input + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// Full output shape of a 2-D convolution in NCHW layout.
///
/// `input` is `[N, C, H, W]`, `weight` is `[K, C, R, S]`.
pub(crate) fn conv2d_out_shape(
    input: Shape,
    weight: Shape,
    pad: (usize, usize),
    stride: (usize, usize),
) -> Result<Shape, TensorError> {
    let (n, c, h, w) = input.as_nchw()?;
    let (k, wc, r, s) = weight.as_nchw()?;
    if c != wc {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("input channels {c} != weight channels {wc}"),
        });
    }
    if r > h + 2 * pad.0 || s > w + 2 * pad.1 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("kernel {r}x{s} larger than padded input {h}x{w} (pad {pad:?})"),
        });
    }
    Ok(Shape::nchw(
        n,
        k,
        conv_out_dim(h, r, pad.0, stride.0),
        conv_out_dim(w, s, pad.1, stride.1),
    ))
}

/// Full output shape of 2-D pooling in NCHW layout: `window` over `input`
/// with symmetric `pad` and `stride`.
pub(crate) fn pool2d_out_shape(
    input: Shape,
    window: (usize, usize),
    pad: (usize, usize),
    stride: (usize, usize),
) -> Result<Shape, TensorError> {
    let (n, c, h, w) = input.as_nchw()?;
    if window.0 == 0 || window.1 == 0 || stride.0 == 0 || stride.1 == 0 {
        return Err(TensorError::InvalidKnob {
            op: "pool2d",
            detail: "window and stride must be positive".into(),
        });
    }
    if window.0 > h + 2 * pad.0 || window.1 > w + 2 * pad.1 {
        return Err(TensorError::ShapeMismatch {
            op: "pool2d",
            detail: format!("window {window:?} larger than padded input {h}x{w}"),
        });
    }
    Ok(Shape::nchw(
        n,
        c,
        conv_out_dim(h, window.0, pad.0, stride.0),
        conv_out_dim(w, window.1, pad.1, stride.1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.volume(), 120);
        assert_eq!(s.idx4(1, 2, 3, 4), 60 + 40 + 15 + 4);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::mat(7, 9).to_string(), "[7x9]");
    }

    #[test]
    fn conv_shape() {
        // 3x3 conv, pad 1, stride 1 preserves spatial dims.
        let out = conv2d_out_shape(
            Shape::nchw(1, 3, 32, 32),
            Shape::nchw(16, 3, 3, 3),
            (1, 1),
            (1, 1),
        )
        .unwrap();
        assert_eq!(out, Shape::nchw(1, 16, 32, 32));
        // stride 2 halves.
        let out = conv2d_out_shape(
            Shape::nchw(1, 3, 32, 32),
            Shape::nchw(16, 3, 3, 3),
            (1, 1),
            (2, 2),
        )
        .unwrap();
        assert_eq!(out, Shape::nchw(1, 16, 16, 16));
    }

    #[test]
    fn conv_shape_channel_mismatch() {
        let err = conv2d_out_shape(
            Shape::nchw(1, 3, 8, 8),
            Shape::nchw(4, 5, 3, 3),
            (0, 0),
            (1, 1),
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn axis_out_of_range() {
        let s = Shape::mat(2, 2);
        assert!(s.dim(1).is_ok());
        assert!(matches!(
            s.dim(2),
            Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })
        ));
    }
}
