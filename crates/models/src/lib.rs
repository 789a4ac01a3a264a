#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # at-models — the CNN model zoo and synthetic datasets (Table 1)
//!
//! The paper evaluates 10 CNNs trained on MNIST, CIFAR-10 and ImageNet.
//! Trained weights and the original datasets are not available here, so
//! this crate provides the documented substitution (see `DESIGN.md`):
//!
//! * [`zoo`] — the ten architectures of Table 1 built at a reduced scale
//!   with seeded He-normal weights: LeNet-5, AlexNet (CIFAR-10 and
//!   ImageNet variants), AlexNet2, VGG-16 (CIFAR-10 / CIFAR-100 /
//!   ImageNet), ResNet-18, ResNet-50 and MobileNet. Layer counts match the
//!   paper (e.g. ResNet-18 has 22 tunable conv/dense layers, MobileNet 28).
//! * [`data`] — synthetic classification datasets with **teacher-calibrated
//!   labels**: a sample's ground-truth label equals the FP32 baseline
//!   prediction with probability equal to the paper's reported baseline
//!   accuracy. Baseline accuracy therefore matches Table 1 by construction,
//!   and approximation-induced output perturbations flip low-margin
//!   predictions first — reproducing graceful accuracy degradation.
//! * [`prune`] — magnitude-based filter pruning used by the §8
//!   pruning-interaction study.

pub mod data;
pub mod prune;
pub mod zoo;

pub use data::Dataset;
pub use zoo::{build, Benchmark, BenchmarkId, ModelScale};
