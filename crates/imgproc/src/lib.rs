#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # at-imgproc — Canny edge detection and the combined CNN + image
//! processing benchmark (§7.6)
//!
//! The paper's eleventh benchmark combines a CNN classifier (AlexNet2 on
//! CIFAR-10) with the Canny edge-detection pipeline: classified images
//! from five of the ten classes are forwarded to edge detection, and the
//! application is tuned under a *pair* of QoS metrics — classification
//! accuracy for the CNN and PSNR for the edge maps (Figure 7).
//!
//! * [`canny`] — the pipeline: Gaussian blur and Sobel gradients expressed
//!   as (tunable) dataflow-graph convolutions, plus the exact
//!   non-maximum-suppression and hysteresis post-processing applied when
//!   computing PSNR.
//! * [`combined`] — the joint application and its two-component QoS.

pub mod canny;
pub mod combined;

pub use canny::{build_canny_graph, canny_reference, gaussian_kernel};
pub use combined::CombinedApp;
