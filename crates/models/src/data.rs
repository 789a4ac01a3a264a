//! Synthetic datasets with teacher-calibrated labels.
//!
//! The paper evaluates on MNIST / CIFAR-10 / ImageNet with 10 K images per
//! benchmark, split 50/50 into a calibration set (for autotuning) and a
//! test set (for evaluation) (§6). Those datasets — and trained weights —
//! are not available here, so we generate class-structured synthetic
//! inputs and *calibrate* the labels against the FP32 baseline network:
//! each sample's ground-truth label equals the baseline prediction with
//! probability `p = paper baseline accuracy`, otherwise a uniformly random
//! different class.
//!
//! Consequences (why the substitution preserves the tuner-relevant
//! behaviour):
//! * the FP32 baseline accuracy equals the paper's Table 1 value in
//!   expectation, by construction;
//! * an approximated network's accuracy is `p · agreement + noise`, where
//!   `agreement` is the fraction of samples whose prediction survives the
//!   output perturbation — low-margin samples flip first, so accuracy
//!   degrades gracefully and monotonically with error magnitude, exactly
//!   the structure accuracy-aware tuning exploits.

use crate::zoo::Benchmark;
use at_ir::{execute, ExecOptions};
use at_tensor::{Shape, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled synthetic dataset, pre-batched for efficient inference.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Input batches, each `[B, C, H, W]`.
    pub batches: Vec<Tensor>,
    /// Ground-truth labels per batch (length = batch rows).
    pub labels: Vec<Vec<usize>>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.labels.iter().map(|l| l.len()).sum()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into (calibration, test) halves, as in §6 ("we divide the 10K
    /// images into calibration set … and test set … with 5K images each").
    pub fn split(self) -> (Dataset, Dataset) {
        let half = self.batches.len() / 2;
        let (cal_b, test_b) = {
            let mut b = self.batches;
            let t = b.split_off(half);
            (b, t)
        };
        let (cal_l, test_l) = {
            let mut l = self.labels;
            let t = l.split_off(half);
            (l, t)
        };
        (
            Dataset {
                batches: cal_b,
                labels: cal_l,
                classes: self.classes,
            },
            Dataset {
                batches: test_b,
                labels: test_l,
                classes: self.classes,
            },
        )
    }

    /// A shard of the batches, for distributed profile collection
    /// (device `i` of `n` gets every `n`-th batch starting at `i`).
    pub fn shard(&self, i: usize, n: usize) -> Dataset {
        assert!(n > 0 && i < n);
        Dataset {
            batches: self
                .batches
                .iter()
                .enumerate()
                .filter(|(j, _)| j % n == i)
                .map(|(_, b)| b.clone())
                .collect(),
            labels: self
                .labels
                .iter()
                .enumerate()
                .filter(|(j, _)| j % n == i)
                .map(|(_, l)| l.clone())
                .collect(),
            classes: self.classes,
        }
    }
}

/// Generates class-structured inputs: each class has a smooth random
/// prototype; a sample is its class prototype plus i.i.d. noise. The
/// class structure gives the (random-weight) networks consistent,
/// margin-varied predictions.
pub(crate) fn synthetic_inputs(
    per_sample: Shape,
    classes: usize,
    samples: usize,
    batch: usize,
    seed: u64,
) -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = per_sample.dims();
    assert_eq!(dims[0], 1, "per-sample shape must have N=1");
    let sample_vol = per_sample.volume();
    let prototypes: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..sample_vol).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();

    let mut batches = Vec::new();
    let mut intents = Vec::new();
    let mut made = 0usize;
    while made < samples {
        let b = batch.min(samples - made);
        let mut data = Vec::with_capacity(b * sample_vol);
        let mut intent = Vec::with_capacity(b);
        for _ in 0..b {
            let class = rng.gen_range(0..classes);
            intent.push(class);
            for p in &prototypes[class] {
                data.push(p + rng.gen_range(-0.25..0.25));
            }
        }
        let shape = Shape::new(
            &std::iter::once(b)
                .chain(dims[1..].iter().copied())
                .collect::<Vec<_>>(),
        );
        batches.push(Tensor::from_vec(shape, data).expect("sizes agree"));
        intents.push(intent);
        made += b;
    }
    (batches, intents)
}

/// Computes teacher-calibrated labels: runs the FP32 baseline on every
/// batch and sets each label to the baseline prediction with probability
/// `baseline_accuracy` (a fraction in (0, 1]), else a random other class.
pub(crate) fn calibrated_labels(
    bench: &Benchmark,
    batches: &[Tensor],
    baseline_accuracy: f64,
    seed: u64,
) -> Result<Vec<Vec<usize>>, TensorError> {
    assert!(
        (0.0..=1.0).contains(&baseline_accuracy),
        "accuracy must be a fraction"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = Vec::with_capacity(batches.len());
    for batch in batches {
        let out = execute(&bench.graph, batch, &ExecOptions::baseline())?;
        let (rows, classes) = out.shape().as_mat()?;
        let mut batch_labels = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &out.data()[r * classes..(r + 1) * classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let label = if rng.gen_bool(baseline_accuracy) {
                pred
            } else {
                // A different class, uniformly.
                let mut l = rng.gen_range(0..classes - 1);
                if l >= pred {
                    l += 1;
                }
                l
            };
            batch_labels.push(label);
        }
        labels.push(batch_labels);
    }
    Ok(labels)
}

/// Builds the full synthetic dataset for a benchmark: inputs + calibrated
/// labels reproducing the paper's baseline accuracy.
pub fn build_dataset(bench: &Benchmark, samples: usize, batch: usize, seed: u64) -> Dataset {
    let (batches, _) = synthetic_inputs(bench.input_shape, bench.classes, samples, batch, seed);
    let labels = calibrated_labels(
        bench,
        &batches,
        bench.id.paper_baseline_accuracy() / 100.0,
        seed ^ 0x5EED,
    )
    .expect("baseline execution succeeds on generated inputs");
    Dataset {
        batches,
        labels,
        classes: bench.classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build, BenchmarkId, ModelScale};

    #[test]
    fn baseline_accuracy_matches_calibration() {
        let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
        let ds = build_dataset(&bench, 400, 50, 7);
        // Measure baseline accuracy.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (batch, labels) in ds.batches.iter().zip(&ds.labels) {
            let out = execute(&bench.graph, batch, &ExecOptions::baseline()).unwrap();
            let (rows, c) = out.shape().as_mat().unwrap();
            for (r, label) in labels.iter().enumerate().take(rows) {
                let row = &out.data()[r * c..(r + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                if pred == *label {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = 100.0 * correct as f64 / total as f64;
        let target = BenchmarkId::LeNet.paper_baseline_accuracy();
        assert!(
            (acc - target).abs() < 3.0,
            "measured {acc:.2}% vs calibrated {target:.2}%"
        );
    }

    #[test]
    fn split_halves() {
        let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
        let ds = build_dataset(&bench, 100, 10, 7);
        let n = ds.len();
        let (cal, test) = ds.split();
        assert_eq!(cal.len() + test.len(), n);
        assert_eq!(cal.len(), 50);
    }

    #[test]
    fn shards_partition() {
        let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
        let ds = build_dataset(&bench, 100, 10, 7);
        let total: usize = (0..4).map(|i| ds.shard(i, 4).len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let bench = build(BenchmarkId::LeNet, ModelScale::Tiny);
        let a = build_dataset(&bench, 20, 10, 3);
        let b = build_dataset(&bench, 20, 10, 3);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.batches[0].data(), b.batches[0].data());
    }

    #[test]
    fn class_structure_present() {
        // Samples of the same class are closer to each other than to other
        // classes' samples (sanity of the prototype generator).
        let (batches, intents) = synthetic_inputs(Shape::nchw(1, 1, 8, 8), 4, 40, 40, 11);
        let data = batches[0].data();
        let vol = 64;
        let dist = |i: usize, j: usize| -> f32 {
            (0..vol)
                .map(|k| (data[i * vol + k] - data[j * vol + k]).powi(2))
                .sum()
        };
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for i in 0..40 {
            for j in (i + 1)..40 {
                if intents[0][i] == intents[0][j] {
                    same = (same.0 + dist(i, j), same.1 + 1);
                } else {
                    diff = (diff.0 + dist(i, j), diff.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1.max(1) as f32;
        let diff_avg = diff.0 / diff.1.max(1) as f32;
        assert!(
            same_avg < diff_avg,
            "same-class distance {same_avg} should be < cross-class {diff_avg}"
        );
    }
}
