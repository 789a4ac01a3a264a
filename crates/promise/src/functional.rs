//! Functional simulation: exact computation plus calibrated analog noise.
//!
//! The voltage swings of the analog compute path "introduce statistical
//! (normally distributed) errors in the output values" (§2.3). A PROMISE
//! layer is therefore the exact digital kernel's result plus i.i.d.
//! Gaussian noise whose standard deviation is the level's relative error
//! times the RMS magnitude of the exact output — preserving the key
//! property that error scales with signal amplitude in analog compute. The
//! graph executor computes the exact convolution or product into its slot
//! and calls [`inject_noise`] there.

use crate::voltage::VoltageLevel;
use rand::Rng;

/// Adds level-calibrated Gaussian noise to an exact output, turning it into
/// what PROMISE computes at `level`.
pub fn inject_noise<R: Rng + ?Sized>(data: &mut [f32], level: VoltageLevel, rng: &mut R) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let rms = (data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / n as f64).sqrt();
    let std = (level.error_rel_std() * rms) as f32;
    if std == 0.0 {
        return;
    }
    // Box–Muller pairs.
    let mut i = 0;
    while i < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data[i] += r * theta.cos() * std;
        if i + 1 < n {
            data[i + 1] += r * theta.sin() * std;
        }
        i += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_tensor::ops::conv::{conv2d, Conv2dParams};
    use at_tensor::ops::matmul_ex;
    use at_tensor::{MulApprox, Precision, Shape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        matmul_ex(a, b, None, Precision::Fp32, MulApprox::Exact).unwrap()
    }

    /// A matrix multiplication on PROMISE: the exact product plus its noise.
    fn promise_matmul(a: &Tensor, b: &Tensor, level: VoltageLevel, rng: &mut StdRng) -> Tensor {
        let mut out = exact_matmul(a, b);
        inject_noise(out.data_mut(), level, rng);
        out
    }

    #[test]
    fn noise_scales_with_level() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::uniform(Shape::mat(32, 32), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(32, 32), -1.0, 1.0, &mut rng);
        let exact = exact_matmul(&a, &b);
        let mse_at = |level: VoltageLevel| {
            // Average over several seeds for a stable estimate.
            let mut total = 0.0;
            for s in 0..8 {
                let mut r = StdRng::seed_from_u64(100 + s);
                let noisy = promise_matmul(&a, &b, level, &mut r);
                total += exact.mse(&noisy).unwrap();
            }
            total / 8.0
        };
        let m1 = mse_at(VoltageLevel::P1);
        let m4 = mse_at(VoltageLevel::P4);
        let m7 = mse_at(VoltageLevel::P7);
        assert!(m1 > m4 && m4 > m7, "m1={m1} m4={m4} m7={m7}");
        assert!(m7 > 0.0, "no PROMISE level is exact");
    }

    #[test]
    fn noise_magnitude_matches_calibration() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::uniform(Shape::mat(64, 64), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(64, 64), -1.0, 1.0, &mut rng);
        let exact = exact_matmul(&a, &b);
        let rms = (exact
            .data()
            .iter()
            .map(|&x| (x as f64).powi(2))
            .sum::<f64>()
            / exact.len() as f64)
            .sqrt();
        let level = VoltageLevel::P3;
        let mut r = StdRng::seed_from_u64(3);
        let noisy = promise_matmul(&a, &b, level, &mut r);
        let err_std = exact.mse(&noisy).unwrap().sqrt();
        let expected = level.error_rel_std() * rms;
        let rel = (err_std - expected).abs() / expected;
        assert!(rel < 0.15, "err std {err_std} vs expected {expected}");
    }

    #[test]
    fn conv_path_also_noisy() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::uniform(Shape::nchw(1, 2, 8, 8), -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(Shape::nchw(2, 2, 3, 3), -1.0, 1.0, &mut rng);
        let exact = conv2d(&x, &w, None, Conv2dParams::default()).unwrap();
        let mut noisy = exact.clone();
        inject_noise(noisy.data_mut(), VoltageLevel::P5, &mut rng);
        assert_eq!(exact.shape(), noisy.shape());
        assert!(exact.mse(&noisy).unwrap() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::uniform(Shape::mat(8, 8), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(8, 8), -1.0, 1.0, &mut rng);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let o1 = promise_matmul(&a, &b, VoltageLevel::P2, &mut r1);
        let o2 = promise_matmul(&a, &b, VoltageLevel::P2, &mut r2);
        assert_eq!(o1.data(), o2.data());
    }
}
