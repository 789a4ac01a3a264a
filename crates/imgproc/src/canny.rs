//! The Canny edge-detection pipeline on the tensor substrate.
//!
//! Structure (Canny, 1986): Gaussian smoothing → Sobel gradients → gradient
//! magnitude → non-maximum suppression → double-threshold hysteresis.
//! The smoothing and gradient stages are dataflow-graph convolutions and
//! maps — the units the tuner approximates (perforation/sampling/FP16);
//! non-maximum suppression and hysteresis are cheap, exact post-processing
//! stages applied when computing the PSNR QoS.

use at_ir::{Graph, GraphBuilder};
use at_tensor::{Shape, Tensor, TensorError};

/// A normalised 2-D Gaussian kernel as a `[1, 1, k, k]` weight tensor.
/// Fails (rather than panics) on an even kernel size.
pub fn gaussian_kernel(k: usize, sigma: f32) -> Result<Tensor, TensorError> {
    if k % 2 != 1 {
        return Err(TensorError::ShapeMismatch {
            op: "gaussian_kernel",
            detail: format!("kernel size {k} must be odd"),
        });
    }
    let c = (k / 2) as f32;
    let mut data = Vec::with_capacity(k * k);
    let mut sum = 0.0f32;
    for y in 0..k {
        for x in 0..k {
            let dy = y as f32 - c;
            let dx = x as f32 - c;
            let v = (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
            data.push(v);
            sum += v;
        }
    }
    for v in &mut data {
        *v /= sum;
    }
    Tensor::from_vec(Shape::nchw(1, 1, k, k), data)
}

/// The Sobel x/y operators as a single `[2, 1, 3, 3]` weight tensor
/// (channel 0 = Gx, channel 1 = Gy).
pub(crate) fn sobel_kernels() -> Result<Tensor, TensorError> {
    let gx = [-1.0f32, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];
    let gy = [-1.0f32, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0];
    let mut data = Vec::with_capacity(18);
    data.extend_from_slice(&gx);
    data.extend_from_slice(&gy);
    Tensor::from_vec(Shape::nchw(2, 1, 3, 3), data)
}

/// Builds the tunable part of the Canny pipeline as a dataflow graph over
/// `[N, 1, H, W]` grayscale images:
///
/// `input → gaussian blur → sobel (Gx, Gy stacked) → |·| →
///  reduce-sum over the channel axis (L1 gradient magnitude)`.
///
/// The reduce is a genuine *reduction* op, so reduction sampling applies,
/// and both convolutions accept the full convolution knob set.
pub fn build_canny_graph(h: usize, w: usize) -> Result<Graph, TensorError> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0); // unused: fixed weights
    let input = Shape::nchw(1, 1, h, w);
    let mut b = GraphBuilder::new("canny", input, &mut rng);
    b.conv_fixed(gaussian_kernel(5, 1.4)?, (2, 2), (1, 1));
    b.conv_fixed(sobel_kernels()?, (1, 1), (1, 1));
    b.abs();
    // Sum |Gx| + |Gy| over the channel axis (axis 1 of NCHW).
    b.reduce(1, at_tensor::ops::ReduceKind::Sum);
    b.finish().map_err(TensorError::from)
}

/// Non-maximum suppression on an `[N, H, W]` (or `[N,1,H,W]`) gradient
/// magnitude tensor: keeps a pixel only when it is a local maximum among
/// its 8-neighbourhood (a simplification of direction-aware NMS that keeps
/// the pipeline tensor-only).
pub fn non_max_suppression(mag: &Tensor) -> Result<Tensor, TensorError> {
    let dims = mag.shape().dims().to_vec();
    let (n, h, w) = match dims.len() {
        3 => (dims[0], dims[1], dims[2]),
        4 => (dims[0] * dims[1], dims[2], dims[3]),
        _ => {
            return Err(TensorError::ShapeMismatch {
                op: "non_max_suppression",
                detail: format!("expected [N,H,W] or [N,1,H,W], got {dims:?}"),
            })
        }
    };
    let src = mag.data();
    let mut out = vec![0.0f32; src.len()];
    for img in 0..n {
        let base = img * h * w;
        for y in 0..h {
            for x in 0..w {
                let v = src[base + y * w + x];
                let mut is_max = true;
                'scan: for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        if dy == 0 && dx == 0 {
                            continue;
                        }
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if ny >= 0
                            && ny < h as i32
                            && nx >= 0
                            && nx < w as i32
                            && src[base + ny as usize * w + nx as usize] > v
                        {
                            is_max = false;
                            break 'scan;
                        }
                    }
                }
                out[base + y * w + x] = if is_max { v } else { 0.0 };
            }
        }
    }
    Tensor::from_vec(mag.shape(), out)
}

/// Double-threshold hysteresis: strong pixels (≥ `hi`) are edges; weak
/// pixels (≥ `lo`) become edges when 8-connected to an edge (iterated to a
/// fixed point). Output is a binary {0, 1} edge map.
pub fn hysteresis(mag: &Tensor, lo: f32, hi: f32) -> Result<Tensor, TensorError> {
    let dims = mag.shape().dims().to_vec();
    let (n, h, w) = match dims.len() {
        3 => (dims[0], dims[1], dims[2]),
        4 => (dims[0] * dims[1], dims[2], dims[3]),
        _ => {
            return Err(TensorError::ShapeMismatch {
                op: "hysteresis",
                detail: format!("expected [N,H,W] or [N,1,H,W], got {dims:?}"),
            })
        }
    };
    let src = mag.data();
    // 0 = off, 1 = weak, 2 = strong.
    let mut state: Vec<u8> = src
        .iter()
        .map(|&v| {
            if v >= hi {
                2
            } else if v >= lo {
                1
            } else {
                0
            }
        })
        .collect();
    for img in 0..n {
        let base = img * h * w;
        // Fixed-point propagation from strong into weak pixels.
        let mut changed = true;
        while changed {
            changed = false;
            for y in 0..h {
                for x in 0..w {
                    let i = base + y * w + x;
                    if state[i] != 1 {
                        continue;
                    }
                    'nb: for dy in -1i32..=1 {
                        for dx in -1i32..=1 {
                            let ny = y as i32 + dy;
                            let nx = x as i32 + dx;
                            if ny >= 0
                                && ny < h as i32
                                && nx >= 0
                                && nx < w as i32
                                && state[base + ny as usize * w + nx as usize] == 2
                            {
                                state[i] = 2;
                                changed = true;
                                break 'nb;
                            }
                        }
                    }
                }
            }
        }
    }
    let out: Vec<f32> = state
        .iter()
        .map(|&s| if s == 2 { 1.0 } else { 0.0 })
        .collect();
    Tensor::from_vec(mag.shape(), out)
}

/// The complete reference pipeline: executes the (possibly approximated)
/// graph on a `[N,1,H,W]` batch and applies exact NMS + hysteresis.
pub fn canny_reference(
    graph: &Graph,
    batch: &Tensor,
    opts: &at_ir::ExecOptions,
    lo: f32,
    hi: f32,
) -> Result<Tensor, at_tensor::TensorError> {
    let mag = at_ir::execute(graph, batch, opts)?;
    let nms = non_max_suppression(&mag)?;
    hysteresis(&nms, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_ir::ExecOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_kernel_normalised_and_peaked() {
        let k = gaussian_kernel(5, 1.4).unwrap();
        let sum: f32 = k.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        // Centre is the max.
        let centre = k.data()[2 * 5 + 2];
        assert!(k.data().iter().all(|&v| v <= centre));
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        // Image: left half 0, right half 1 → strong |Gx| response at the
        // boundary column.
        let h = 8;
        let w = 8;
        let mut img = Tensor::zeros(Shape::nchw(1, 1, h, w));
        for y in 0..h {
            for x in w / 2..w {
                *img.at4_mut(0, 0, y, x) = 1.0;
            }
        }
        let g = build_canny_graph(h, w).unwrap();
        let mag = at_ir::execute(&g, &img, &ExecOptions::baseline()).unwrap();
        // Magnitude highest near the boundary (x = 3..=4), low far away.
        let dims = mag.shape().dims().to_vec();
        assert_eq!(dims, vec![1, h, w]);
        let at = |y: usize, x: usize| mag.data()[y * w + x];
        assert!(at(4, 3) > 1.0, "boundary response {}", at(4, 3));
        assert!(at(4, 0) < 0.2, "far-field response {}", at(4, 0));
    }

    #[test]
    fn nms_thins_plateau() {
        // A wide plateau survives only at local maxima.
        let mut t = Tensor::zeros(Shape::new(&[1, 5, 5]));
        t.data_mut()[2 * 5 + 2] = 2.0; // sharp peak
        t.data_mut()[2 * 5 + 1] = 1.0;
        t.data_mut()[2 * 5 + 3] = 1.0;
        let out = non_max_suppression(&t).unwrap();
        assert_eq!(out.data()[2 * 5 + 2], 2.0);
        assert_eq!(out.data()[2 * 5 + 1], 0.0);
        assert_eq!(out.data()[2 * 5 + 3], 0.0);
    }

    #[test]
    fn hysteresis_connects_weak_to_strong() {
        let mut t = Tensor::zeros(Shape::new(&[1, 3, 5]));
        // Row 1: strong, weak, weak, weak, off-threshold weak chain.
        t.data_mut()[5] = 1.0; // strong (hi = 0.8)
        t.data_mut()[6] = 0.5; // weak
        t.data_mut()[7] = 0.5; // weak
        t.data_mut()[9] = 0.5; // weak but disconnected (gap at index 8)
        let out = hysteresis(&t, 0.3, 0.8).unwrap();
        assert_eq!(out.data()[5], 1.0);
        assert_eq!(out.data()[6], 1.0, "weak connected to strong");
        assert_eq!(out.data()[7], 1.0, "weak connected transitively");
        assert_eq!(out.data()[9], 0.0, "disconnected weak dropped");
    }

    #[test]
    fn full_pipeline_binary_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let img = Tensor::uniform(Shape::nchw(2, 1, 16, 16), 0.0, 1.0, &mut rng);
        let g = build_canny_graph(16, 16).unwrap();
        let edges = canny_reference(&g, &img, &ExecOptions::baseline(), 0.4, 1.2).unwrap();
        assert!(edges.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn approximated_pipeline_differs_but_overlaps() {
        let mut rng = StdRng::seed_from_u64(2);
        let img = Tensor::uniform(Shape::nchw(1, 1, 24, 24), 0.0, 1.0, &mut rng);
        let g = build_canny_graph(24, 24).unwrap();
        let exact = canny_reference(&g, &img, &ExecOptions::baseline(), 0.4, 1.2).unwrap();
        let mut config = vec![at_ir::ApproxChoice::BASELINE; g.len()];
        // Perforate the Gaussian blur (node 1).
        config[1] = at_ir::ApproxChoice::digital(
            at_tensor::ConvApprox::Perforation {
                dim: at_tensor::PerforationDim::Row,
                k: 2,
                offset: 0,
            },
            at_tensor::ReduceApprox::Exact,
            at_tensor::Precision::Fp32,
        );
        let approx = canny_reference(
            &g,
            &img,
            &at_ir::ExecOptions {
                config,
                promise_seed: 0,
            },
            0.4,
            1.2,
        )
        .unwrap();
        let mse = exact.mse(&approx).unwrap();
        assert!(mse > 0.0, "approximation should perturb the edge map");
        assert!(mse < 0.5, "edge maps should still broadly agree, mse {mse}");
    }
}
