//! Property tests on the PROMISE simulator.

use at_promise::{inject_noise, PromiseModel, VoltageLevel};
use at_tensor::cost::OpCounts;
use at_tensor::ops::matmul_ex;
use at_tensor::{MulApprox, Precision, Shape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn noise_is_unbiased(seed in 0u64..500, level_idx in 0usize..7) {
        let level = VoltageLevel::ALL[level_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::uniform(Shape::mat(24, 24), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(Shape::mat(24, 24), -1.0, 1.0, &mut rng);
        let exact = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let mut nrng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut noisy = exact.clone();
        inject_noise(noisy.data_mut(), level, &mut nrng);
        let diff = noisy.sub(&exact).unwrap();
        let mean_err = diff.data().iter().sum::<f32>() / diff.len() as f32;
        // Mean of N(0, σ) over 576 samples: within ~4σ/√n of zero.
        let rms = (exact.data().iter().map(|&x| (x as f64).powi(2)).sum::<f64>()
            / exact.len() as f64).sqrt();
        let sigma = level.error_rel_std() * rms;
        let bound = 4.0 * sigma / (diff.len() as f64).sqrt();
        prop_assert!((mean_err as f64).abs() < bound,
            "bias {mean_err} exceeds bound {bound} at {level:?}");
    }

    #[test]
    fn energy_and_time_scale_linearly_with_work(
        macs in 1.0e3f64..1.0e9,
        factor in 2.0f64..10.0,
        level_idx in 0usize..7,
    ) {
        let level = VoltageLevel::ALL[level_idx];
        let m = PromiseModel::paper();
        let small = OpCounts { compute: 2.0 * macs, memory: macs };
        let big = OpCounts { compute: 2.0 * macs * factor, memory: macs * factor };
        let es = m.op_energy(small, level);
        let eb = m.op_energy(big, level);
        prop_assert!((eb / es - factor).abs() < 1e-9, "energy not linear");
        // Time includes a constant offload overhead, so it is affine:
        let ts = m.op_time(small, level) - m.offload_overhead_s;
        let tb = m.op_time(big, level) - m.offload_overhead_s;
        prop_assert!((tb / ts - factor).abs() < 1e-6, "time not affine");
    }

    #[test]
    fn advantage_ordering_is_total(level_a in 0usize..7, level_b in 0usize..7) {
        let m = PromiseModel::paper();
        let a = VoltageLevel::ALL[level_a];
        let b = VoltageLevel::ALL[level_b];
        // Lower level ⇒ at least as large an energy advantage and at least
        // as much error.
        if a <= b {
            prop_assert!(m.energy_advantage(a) >= m.energy_advantage(b));
            prop_assert!(a.error_rel_std() >= b.error_rel_std());
        }
    }
}
