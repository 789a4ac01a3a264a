//! Skip-work proof: approximation must *avoid* work, not discard results.
//!
//! Perforation and filter sampling are lowered by pruning the im2col GEMM's
//! columns/rows before the multiply loops run, so the skipped products are
//! never computed. This test proves it two ways with the process-wide
//! multiply counter and wall-clock timing:
//!
//! 1. the counted multiplies of the approximate kernels are strictly below
//!    the exact kernel's (and close to the analytical fraction);
//! 2. k=2 column perforation is measurably faster than the exact kernel on
//!    the same shape (minimum over repetitions: the two kernels differ by the
//!    work they do, and the minimum is the repetition least disturbed by
//!    anything else on the machine). The shape is one image, 16 → 32
//!    channels of 64×64 at 3×3: with 32 output channels the multiplies
//!    outweigh the patch packing, which perforation also halves but whose
//!    strided gather costs more per element than the exact path's row
//!    copies. On the 4–12-channel layers of the Tiny zoo models packing
//!    dominates and column perforation does *not* beat exact; only the
//!    multiply counts of part 1 hold on every shape.
//!
//! Everything runs inside one `#[test]` so the global counter windows and
//! the timing comparison cannot interleave with other tests.

use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::conv2d;
use at_tensor::{instrument, ConvApprox, PerforationDim, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn min_time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn approximations_execute_fewer_multiplies_and_run_faster() {
    let mut rng = StdRng::seed_from_u64(99);
    let x = Tensor::uniform(Shape::nchw(1, 16, 64, 64), -1.0, 1.0, &mut rng);
    let w = Tensor::uniform(Shape::nchw(32, 16, 3, 3), -1.0, 1.0, &mut rng);
    let params = |approx| Conv2dParams {
        pad: (1, 1),
        approx,
        ..Default::default()
    };

    // --- 1. multiply counting -------------------------------------------
    let (_, exact_muls) = instrument::count_muls(|| {
        conv2d(&x, &w, None, params(ConvApprox::Exact)).unwrap();
    });
    assert!(exact_muls > 0, "exact kernel reported no multiplies");

    let perf_col = ConvApprox::Perforation {
        dim: PerforationDim::Col,
        k: 2,
        offset: 0,
    };
    let (_, perf_muls) = instrument::count_muls(|| {
        conv2d(&x, &w, None, params(perf_col)).unwrap();
    });
    assert!(
        perf_muls < exact_muls,
        "perforation must skip multiplies: {perf_muls} vs {exact_muls}"
    );
    // k=2 keeps ~half the output columns; allow slack for odd widths.
    let frac = perf_muls as f64 / exact_muls as f64;
    assert!(
        (0.4..0.6).contains(&frac),
        "perforated multiply fraction {frac} far from 1/2"
    );

    let samp = ConvApprox::FilterSampling { k: 2, offset: 0 };
    let (_, samp_muls) = instrument::count_muls(|| {
        conv2d(&x, &w, None, params(samp)).unwrap();
    });
    assert!(
        samp_muls < exact_muls,
        "filter sampling must skip multiplies: {samp_muls} vs {exact_muls}"
    );
    let frac = samp_muls as f64 / exact_muls as f64;
    assert!(
        (0.4..0.6).contains(&frac),
        "sampled multiply fraction {frac} far from 1/2"
    );

    // Deeper perforation skips strictly more.
    let perf3 = ConvApprox::Perforation {
        dim: PerforationDim::Row,
        k: 3,
        offset: 0,
    };
    let (_, perf3_muls) = instrument::count_muls(|| {
        conv2d(&x, &w, None, params(perf3)).unwrap();
    });
    assert!(perf3_muls < exact_muls);

    // --- 2. wall-clock ---------------------------------------------------
    // Warm up once (rayon pool spawn, LUT-free path, page faults).
    conv2d(&x, &w, None, params(ConvApprox::Exact)).unwrap();
    let t_exact = min_time_s(15, || {
        conv2d(&x, &w, None, params(ConvApprox::Exact)).unwrap();
    });
    let t_perf = min_time_s(15, || {
        conv2d(&x, &w, None, params(perf_col)).unwrap();
    });
    let speedup = t_exact / t_perf;
    assert!(
        speedup > 1.05,
        "k=2 perforation should be measurably faster: exact {t_exact:.4}s, \
         perforated {t_perf:.4}s, speedup {speedup:.2}x"
    );
}
