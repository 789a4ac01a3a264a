//! Kernel micro-benchmark: wall-clock speed of the tiled/SIMD GEMM and
//! implicit-GEMM conv kernels against the frozen naive reference, per knob
//! family, writing `BENCH_kernels.json` at the repo root.
//!
//! Two headline numbers back the fast-kernel claims:
//!
//! * the optimized exact FP32 matmul vs the naive triple loop on the
//!   largest measured square GEMM (the register-blocked panels eliminate
//!   the per-`k` output-row read-modify-write traffic, which is worth
//!   several × even single-threaded);
//! * k=2 column perforation vs the exact conv on the same shape (skipped
//!   output columns are never staged, so they never reach the GEMM: the
//!   saving is real executed work, cross-checked by the multiply counter
//!   in `tests/skipwork.rs`).
//!
//! Sizing is env-tunable so CI can smoke-run it in seconds:
//! `AT_BENCH_DIM` caps the largest matmul dimension, `AT_BENCH_REPS` the
//! repetitions per measurement (best-of).

use crate::env::Sizing;
use crate::report;
use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::{conv2d, matmul_ex, reference};
use at_tensor::{ConvApprox, MulApprox, PerforationDim, Precision, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One timed knob setting on a fixed shape.
#[derive(serde::Serialize)]
pub struct KnobTiming {
    /// Knob-family label (registry mnemonics where they exist).
    pub label: String,
    /// Best-of-reps wall-clock seconds per invocation.
    pub time_s: f64,
    /// Speedup over the optimized exact FP32 kernel on the same shape.
    pub speedup_vs_exact: f64,
}

/// Per-shape matmul results.
#[derive(serde::Serialize)]
pub struct MatmulRow {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Naive reference (the pre-optimization kernel), seconds.
    pub naive_s: f64,
    /// Optimized exact FP32 kernel, seconds.
    pub exact_s: f64,
    /// naive / exact — the tiling/SIMD win at identical bit-level results.
    pub speedup_vs_naive: f64,
    pub knobs: Vec<KnobTiming>,
}

/// Per-shape conv results.
#[derive(serde::Serialize)]
pub struct ConvRow {
    pub input: Vec<usize>,
    pub weight: Vec<usize>,
    pub naive_s: f64,
    pub exact_s: f64,
    pub speedup_vs_naive: f64,
    pub knobs: Vec<KnobTiming>,
}

/// The whole `BENCH_kernels.json` artifact.
#[derive(serde::Serialize)]
pub struct Artifact {
    pub schema_version: u32,
    pub bench: String,
    pub reps: usize,
    pub threads: usize,
    pub matmul: Vec<MatmulRow>,
    pub conv: Vec<ConvRow>,
    /// naive/exact on the largest measured square GEMM.
    pub headline_matmul_speedup: f64,
    /// exact/perforated(k=2, col) conv time on the largest conv shape.
    pub headline_perforation_speedup: f64,
}

fn tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, -1.0, 1.0, &mut rng)
}

/// Best-of-reps wall clock: the minimum is the standard low-noise estimator
/// for a deterministic kernel — every slower sample is the same work plus
/// interference, so the smallest observation is the closest to the true
/// cost. Applied identically to the reference and optimized kernels.
fn best_s(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_matmul(dim: usize, reps: usize) -> MatmulRow {
    let (m, k, n) = (dim, dim, dim);
    let a = tensor(Shape::mat(m, k), 0xA0 + dim as u64);
    let b = tensor(Shape::mat(k, n), 0xB0 + dim as u64);
    let naive_s = best_s(reps, || {
        reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
    });
    let exact_s = best_s(reps, || {
        matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
    });
    let knob_settings: [(&str, Precision, MulApprox); 4] = [
        ("fp16", Precision::Fp16, MulApprox::Exact),
        ("lutmul-8b", Precision::Fp32, MulApprox::Lut { bits: 8 }),
        ("lutmul-6b", Precision::Fp32, MulApprox::Lut { bits: 6 }),
        ("lutmul-4b", Precision::Fp32, MulApprox::Lut { bits: 4 }),
    ];
    let knobs = knob_settings
        .iter()
        .map(|&(label, precision, mul)| {
            let t = best_s(reps, || {
                matmul_ex(&a, &b, None, precision, mul).unwrap();
            });
            KnobTiming {
                label: label.to_string(),
                time_s: t,
                speedup_vs_exact: exact_s / t.max(1e-12),
            }
        })
        .collect();
    MatmulRow {
        m,
        k,
        n,
        naive_s,
        exact_s,
        speedup_vs_naive: naive_s / exact_s.max(1e-12),
        knobs,
    }
}

fn bench_conv(input: Shape, weight: Shape, reps: usize) -> ConvRow {
    let x = tensor(input, 0xC0);
    let w = tensor(weight, 0xD0);
    let params = |approx, precision, mul| Conv2dParams {
        pad: (1, 1),
        stride: (1, 1),
        groups: 1,
        approx,
        precision,
        mul,
    };
    let exact_p = params(ConvApprox::Exact, Precision::Fp32, MulApprox::Exact);
    let naive_s = best_s(reps, || {
        reference::conv2d_reference(&x, &w, None, exact_p).unwrap();
    });
    let exact_s = best_s(reps, || {
        conv2d(&x, &w, None, exact_p).unwrap();
    });
    let knob_settings: [(&str, ConvApprox, Precision, MulApprox); 5] = [
        ("fp16", ConvApprox::Exact, Precision::Fp16, MulApprox::Exact),
        (
            "samp-50%-o0-fp32",
            ConvApprox::FilterSampling { k: 2, offset: 0 },
            Precision::Fp32,
            MulApprox::Exact,
        ),
        (
            "perf-50%-row-o0-fp32",
            ConvApprox::Perforation {
                dim: PerforationDim::Row,
                k: 2,
                offset: 0,
            },
            Precision::Fp32,
            MulApprox::Exact,
        ),
        (
            "perf-50%-col-o0-fp32",
            ConvApprox::Perforation {
                dim: PerforationDim::Col,
                k: 2,
                offset: 0,
            },
            Precision::Fp32,
            MulApprox::Exact,
        ),
        (
            "lutmul-8b",
            ConvApprox::Exact,
            Precision::Fp32,
            MulApprox::Lut { bits: 8 },
        ),
    ];
    let knobs = knob_settings
        .iter()
        .map(|&(label, approx, precision, mul)| {
            let p = params(approx, precision, mul);
            let t = best_s(reps, || {
                conv2d(&x, &w, None, p).unwrap();
            });
            KnobTiming {
                label: label.to_string(),
                time_s: t,
                speedup_vs_exact: exact_s / t.max(1e-12),
            }
        })
        .collect();
    ConvRow {
        input: input.dims().to_vec(),
        weight: weight.dims().to_vec(),
        naive_s,
        exact_s,
        speedup_vs_naive: naive_s / exact_s.max(1e-12),
        knobs,
    }
}

/// Builds the full artifact (separated from `run` so the schema test can
/// validate a freshly built small artifact).
pub fn build_artifact(max_dim: usize, reps: usize) -> Artifact {
    let dims: Vec<usize> = [128usize, 256, 512]
        .iter()
        .copied()
        .filter(|&d| d <= max_dim)
        .chain((max_dim < 128).then_some(max_dim))
        .collect();
    let matmul: Vec<MatmulRow> = dims.iter().map(|&d| bench_matmul(d, reps)).collect();

    // First the layer the tuner actually searches — Alexnet2-Tiny's second
    // convolution at batch 16, where staging and per-call costs weigh as
    // much as the multiplies — then shapes where the multiplies dominate
    // (the last one carries the perforation headline).
    let mut conv_shapes = vec![(Shape::nchw(16, 4, 32, 32), Shape::nchw(4, 4, 3, 3))];
    if max_dim >= 256 {
        conv_shapes.extend([
            (Shape::nchw(1, 16, 32, 32), Shape::nchw(32, 16, 3, 3)),
            (Shape::nchw(1, 32, 56, 56), Shape::nchw(64, 32, 3, 3)),
        ]);
    } else {
        conv_shapes.push((Shape::nchw(1, 8, 16, 16), Shape::nchw(8, 8, 3, 3)));
    }
    let conv: Vec<ConvRow> = conv_shapes
        .iter()
        .map(|&(i, w)| bench_conv(i, w, reps))
        .collect();

    let headline_matmul_speedup = matmul.last().map_or(1.0, |r| r.speedup_vs_naive);
    let headline_perforation_speedup = conv
        .last()
        .and_then(|r| {
            r.knobs
                .iter()
                .find(|t| t.label.starts_with("perf-50%-col"))
                .map(|t| t.speedup_vs_exact)
        })
        .unwrap_or(1.0);

    Artifact {
        schema_version: report::RESULTS_SCHEMA_VERSION,
        bench: "kernels".to_string(),
        reps,
        threads: rayon::current_num_threads(),
        matmul,
        conv,
        headline_matmul_speedup,
        headline_perforation_speedup,
    }
}

/// The `bench_kernels` experiment, writer of `BENCH_kernels.json`.
pub(crate) fn run(sizing: &Sizing) -> report::Artifact {
    let (max_dim, reps) = (sizing.kernel_dim, sizing.kernel_reps);
    eprintln!("[kernels] max dim {max_dim}, {reps} reps (best-of)");
    let artifact = build_artifact(max_dim, reps);

    let mut table = report::Table::new(&["gemm", "naive", "exact", "speedup"]);
    for r in &artifact.matmul {
        table.row(vec![
            format!("{}x{}x{}", r.m, r.k, r.n),
            format!("{:.4}s", r.naive_s),
            format!("{:.4}s", r.exact_s),
            report::fx(r.speedup_vs_naive),
        ]);
    }
    table.print();
    let mut table = report::Table::new(&["conv", "knob", "time", "vs exact"]);
    for r in &artifact.conv {
        for t in &r.knobs {
            table.row(vec![
                format!("{:?}", r.input),
                t.label.clone(),
                format!("{:.4}s", t.time_s),
                report::fx(t.speedup_vs_exact),
            ]);
        }
    }
    table.print();
    eprintln!(
        "[kernels] headline: exact GEMM {} vs naive; k=2 col perforation {} vs exact conv",
        report::fx(artifact.headline_matmul_speedup),
        report::fx(artifact.headline_perforation_speedup),
    );
    report::Artifact::bench("kernels", &artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{envelope, validate_artifact};

    #[test]
    fn small_artifact_conforms_and_orders_sanely() {
        let a = build_artifact(32, 1);
        assert_eq!(a.matmul.len(), 1);
        assert!(!a.conv.is_empty());
        for r in &a.matmul {
            assert!(r.naive_s > 0.0 && r.exact_s > 0.0);
            assert_eq!(r.knobs.len(), 4);
        }
        let tree = envelope(serde_json::to_value(&a));
        validate_artifact(&tree).expect("fresh kernels artifact must conform");
        let pairs = tree.as_object().unwrap();
        assert!(
            !pairs.iter().any(|(k, _)| k == "data"),
            "already versioned; must not be double-wrapped"
        );
    }
}
