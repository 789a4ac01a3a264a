//! Quality-of-service metrics (§2.1, §6.1).
//!
//! A QoS metric maps the program's output tensors (and a reference — labels
//! or golden outputs) to a scalar where **higher is better**: classification
//! accuracy in percent for the CNNs, PSNR in dB for image processing. A QoS
//! constraint is a lower bound on this scalar.

use at_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which QoS metric a program is tuned under.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum QosMetric {
    /// Top-1 classification accuracy (%) against ground-truth labels.
    Accuracy,
    /// Peak signal-to-noise ratio (dB) against golden outputs:
    /// `-10·log10(MSE)` (§6.1; the predictive models use the MSE itself,
    /// "the exponential of PSNR").
    Psnr,
}

/// The reference data a metric is computed against.
#[derive(Clone, Debug)]
pub enum QosReference {
    /// Ground-truth labels per batch.
    Labels(Vec<Vec<usize>>),
    /// Golden (exact-execution) output tensors per batch.
    Golden(Vec<Tensor>),
}

/// The predicted class of one output row: the index of its first maximum
/// (`v > row[best]`: a tie keeps the lower index, a NaN is never chosen
/// past index 0 and one at index 0 is never replaced, and an empty row
/// predicts 0).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Top-1 accuracy in percent of batched `[B, classes]` outputs.
pub fn accuracy(outputs: &[Tensor], labels: &[Vec<usize>]) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (out, labs) in outputs.iter().zip(labels) {
        let (rows, classes) = match out.shape().as_mat() {
            Ok(v) => v,
            Err(_) => continue,
        };
        for (r, &lab) in labs.iter().enumerate().take(rows) {
            if argmax(&out.data()[r * classes..(r + 1) * classes]) == lab {
                correct += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * correct as f64 / total as f64
    }
}

/// Mean squared error of outputs against golden outputs, averaged over
/// batches.
pub(crate) fn mse(outputs: &[Tensor], golden: &[Tensor]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (o, g) in outputs.iter().zip(golden) {
        if let Ok(m) = o.mse(g) {
            sum += m;
            n += 1;
        }
    }
    if n == 0 {
        f64::INFINITY
    } else {
        sum / n as f64
    }
}

/// PSNR in dB: `-10·log10(MSE)`, clamped for the exact-match case.
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse <= 0.0 {
        // Exact match: report a very high but finite PSNR.
        150.0
    } else {
        -10.0 * mse.log10()
    }
}

/// PSNR of outputs against golden outputs.
pub(crate) fn psnr(outputs: &[Tensor], golden: &[Tensor]) -> f64 {
    psnr_from_mse(mse(outputs, golden))
}

/// Computes the configured metric.
pub(crate) fn measure(metric: QosMetric, outputs: &[Tensor], reference: &QosReference) -> f64 {
    match (metric, reference) {
        (QosMetric::Accuracy, QosReference::Labels(labels)) => accuracy(outputs, labels),
        (QosMetric::Psnr, QosReference::Golden(golden)) => psnr(outputs, golden),
        _ => panic!("QoS metric/reference mismatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_tensor::Shape;

    #[test]
    fn argmax_keeps_the_first_maximum() {
        assert_eq!(
            argmax(&[0.5, 2.0, 2.0, -1.0]),
            1,
            "a tie keeps the lower index"
        );
        assert_eq!(
            argmax(&[1.0, f32::NAN, 3.0]),
            2,
            "a NaN past index 0 never wins"
        );
        assert_eq!(
            argmax(&[f32::NAN, 3.0]),
            0,
            "a NaN at index 0 is never replaced"
        );
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let out = Tensor::from_vec(Shape::mat(3, 2), vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]).unwrap();
        let labels = vec![vec![0usize, 1, 1]];
        // Predictions: 0, 1, 0 → 2 of 3 correct.
        let acc = accuracy(&[out], &labels);
        assert!((acc - 66.666).abs() < 0.01);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a = Tensor::full(Shape::vec(100), 1.0);
        let small = Tensor::full(Shape::vec(100), 1.01);
        let large = Tensor::full(Shape::vec(100), 1.5);
        let p_small = psnr(&[small], std::slice::from_ref(&a));
        let p_large = psnr(&[large], std::slice::from_ref(&a));
        assert!(p_small > p_large);
        // Exact: the finite cap.
        assert_eq!(
            psnr(std::slice::from_ref(&a), std::slice::from_ref(&a)),
            150.0
        );
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 0.01 → PSNR = 20 dB.
        assert!((psnr_from_mse(0.01) - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn metric_reference_mismatch_panics() {
        let r = QosReference::Labels(vec![]);
        let _ = measure(QosMetric::Psnr, &[], &r);
    }
}
