//! Inference-mode batch normalisation.

use crate::error::TensorError;
use crate::instrument::Counters;
use crate::knobs::Precision;
use crate::tensor::{check_len, Tensor, View};
use crate::{f16, par};
use rayon::prelude::*;

/// Inference batch normalisation over NCHW input into `out`, which must be
/// as long as `input`, with per-channel `[gamma, beta, mean, var]` (each of
/// length `C`; `mean` and `var` the running statistics). Returns the work it
/// did.
pub fn batchnorm2d_into(
    input: View,
    [gamma, beta, mean, var]: [&Tensor; 4],
    eps: f32,
    precision: Precision,
    out: &mut [f32],
) -> Result<Counters, TensorError> {
    let (_, c, h, w) = input.shape().as_nchw()?;
    check_len(input.shape(), out.len())?;
    for (name, t) in [
        ("gamma", gamma),
        ("beta", beta),
        ("mean", mean),
        ("var", var),
    ] {
        if t.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm2d",
                detail: format!("{name} length {} != channels {c}", t.len()),
            });
        }
    }

    let qin;
    let input_t = match precision {
        Precision::Fp32 => input,
        Precision::Fp16 => {
            qin = input.to_f16();
            qin.view()
        }
    };

    // Precompute per-channel affine: y = x * a + b.
    let a: Vec<f32> = (0..c)
        .map(|i| gamma.data()[i] / (var.data()[i] + eps).sqrt())
        .collect();
    let b: Vec<f32> = (0..c)
        .map(|i| beta.data()[i] - mean.data()[i] * a[i])
        .collect();

    let plane = h * w;
    let data = input_t.data();
    out.par_chunks_mut(plane.max(1))
        .with_min_len(par::min_chunks(plane))
        .enumerate()
        .for_each(|(idx, op)| {
            let ch = idx % c;
            let base = idx * plane;
            for (o, &x) in op.iter_mut().zip(&data[base..base + plane]) {
                *o = x * a[ch] + b[ch];
            }
        });

    let mut work = Counters {
        ew_norm: out.len() as u64,
        ..Counters::default()
    };
    if precision == Precision::Fp16 {
        f16::quantize_slice(out);
        // The input on its way in, the result on its way out.
        work.ew_fp16 += 2 * out.len() as u64;
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batchnorm2d(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
        precision: Precision,
    ) -> Result<Tensor, TensorError> {
        Tensor::written_by(x.shape(), |out| {
            batchnorm2d_into(x.view(), [gamma, beta, mean, var], eps, precision, out).map(drop)
        })
    }
    use crate::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalises_to_unit_stats() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn(Shape::nchw(4, 2, 8, 8), 3.0, &mut rng);
        // Compute per-channel stats of x and feed them as running stats.
        let (n, c, h, w) = x.shape().as_nchw().unwrap();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let cnt = (n * h * w) as f32;
        for b in 0..n {
            for (ch, m) in mean.iter_mut().enumerate() {
                for y in 0..h {
                    for xx in 0..w {
                        *m += x.data()[x.shape().idx4(b, ch, y, xx)];
                    }
                }
            }
        }
        for m in &mut mean {
            *m /= cnt;
        }
        for b in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        let d = x.data()[x.shape().idx4(b, ch, y, xx)] - mean[ch];
                        var[ch] += d * d;
                    }
                }
            }
        }
        for v in &mut var {
            *v /= cnt;
        }
        let gamma = Tensor::full(Shape::vec(c), 1.0);
        let beta = Tensor::zeros(Shape::vec(c));
        let mean_t = Tensor::from_vec(Shape::vec(c), mean).unwrap();
        let var_t = Tensor::from_vec(Shape::vec(c), var).unwrap();
        let y = batchnorm2d(&x, &gamma, &beta, &mean_t, &var_t, 1e-5, Precision::Fp32).unwrap();
        // Normalised output has ~zero mean, ~unit variance per channel.
        let m_out = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!(m_out.abs() < 1e-4, "mean {m_out}");
        let v_out = y.data().iter().map(|&v| v * v).sum::<f32>() / y.len() as f32;
        assert!((v_out - 1.0).abs() < 1e-2, "var {v_out}");
    }

    #[test]
    fn affine_applied() {
        let x = Tensor::full(Shape::nchw(1, 1, 2, 2), 5.0);
        let gamma = Tensor::full(Shape::vec(1), 2.0);
        let beta = Tensor::full(Shape::vec(1), 1.0);
        let mean = Tensor::full(Shape::vec(1), 5.0);
        let var = Tensor::full(Shape::vec(1), 1.0);
        let y = batchnorm2d(&x, &gamma, &beta, &mean, &var, 0.0, Precision::Fp32).unwrap();
        // (5-5)/1*2+1 = 1.
        for &v in y.data() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn wrong_param_length() {
        let x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        let p1 = Tensor::zeros(Shape::vec(3));
        let bad = Tensor::zeros(Shape::vec(2));
        assert!(batchnorm2d(&x, &bad, &p1, &p1, &p1, 1e-5, Precision::Fp32).is_err());
    }
}
