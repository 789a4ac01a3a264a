//! Approximation *mechanisms* for tensor kernels.
//!
//! This module defines the parameter types that the kernels in [`crate::ops`]
//! understand. The mapping from ApproxTuner's integer *knob identifiers*
//! (paper §2.1: "an approximation knob is a discrete-valued parameter …
//! represented using integers") to these mechanisms lives in `at-core`,
//! keeping the compute substrate independent of the tuner.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};

/// Numeric precision for an operation.
///
/// `Fp16` has hardware-independent semantics (paper §2.1): operands and
/// results are quantised through IEEE binary16 while arithmetic accumulates
/// in f32, matching mixed-precision accumulate-in-FP32 hardware behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Precision {
    /// Full single precision — the paper's baseline.
    Fp32,
    /// IEEE binary16 storage semantics.
    Fp16,
}

impl Precision {
    /// All precisions, in knob order (FP32 first: "a zero value denotes no
    /// approximation").
    pub const ALL: [Precision; 2] = [Precision::Fp32, Precision::Fp16];
}

/// Which output dimension a perforated convolution skips.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PerforationDim {
    /// Skip output rows (height dimension).
    Row,
    /// Skip output columns (width dimension).
    Col,
}

/// Algorithmic approximation applied to a convolution.
///
/// The paper's knob counts (§2.3): filter sampling has 9 settings
/// (skip 1-out-of-k for k ∈ {2,3,4}, offsets 0..k), perforation has 18
/// (row/col × k ∈ {2,3,4} × offsets 0..k).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ConvApprox {
    /// No algorithmic approximation.
    Exact,
    /// Filter sampling: skip 1-out-of-`k` filter elements starting at
    /// `offset`, rescaling the kept contributions by `k/(k-1)`.
    FilterSampling {
        /// Skip period; one element out of every `k` is dropped.
        k: usize,
        /// Initial offset in `0..k`.
        offset: usize,
    },
    /// Output perforation: skip 1-out-of-`k` output rows or columns
    /// starting at `offset`, interpolating skipped outputs from computed
    /// neighbours.
    Perforation {
        /// Skipped dimension.
        dim: PerforationDim,
        /// Skip period; one row/column out of every `k` is dropped.
        k: usize,
        /// Initial offset in `0..k`.
        offset: usize,
    },
}

impl ConvApprox {
    /// Validates the parameters (k ∈ {2,3,4}, offset ∈ 0..k).
    pub(crate) fn validate(&self) -> Result<(), TensorError> {
        match *self {
            ConvApprox::Exact => Ok(()),
            ConvApprox::FilterSampling { k, offset }
            | ConvApprox::Perforation { k, offset, .. } => {
                if !(2..=4).contains(&k) {
                    return Err(TensorError::InvalidKnob {
                        op: "conv2d",
                        detail: format!("skip period k={k} outside 2..=4"),
                    });
                }
                if offset >= k {
                    return Err(TensorError::InvalidKnob {
                        op: "conv2d",
                        detail: format!("offset {offset} >= k {k}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Enumerates the 9 filter-sampling settings of the paper.
    pub fn all_filter_sampling() -> Vec<ConvApprox> {
        let mut v = Vec::with_capacity(9);
        for k in 2..=4 {
            for offset in 0..k {
                v.push(ConvApprox::FilterSampling { k, offset });
            }
        }
        v
    }

    /// Enumerates the 18 perforation settings of the paper.
    pub fn all_perforation() -> Vec<ConvApprox> {
        let mut v = Vec::with_capacity(18);
        for dim in [PerforationDim::Row, PerforationDim::Col] {
            for k in 2..=4 {
                for offset in 0..k {
                    v.push(ConvApprox::Perforation { dim, k, offset });
                }
            }
        }
        v
    }

    /// Fraction of work *kept* by this approximation (1.0 for exact).
    ///
    /// Used by the §3.4 performance model: the compute reduction factor is
    /// `1 / kept_fraction`.
    pub fn kept_fraction(&self) -> f64 {
        match *self {
            ConvApprox::Exact => 1.0,
            ConvApprox::FilterSampling { k, .. } | ConvApprox::Perforation { k, .. } => {
                (k as f64 - 1.0) / k as f64
            }
        }
    }
}

/// Multiplier-level approximation applied to GEMM-shaped ops (convolution
/// and dense layers).
///
/// `Lut { bits }` emulates a hardware approximate multiplier (Mitchell's
/// logarithmic multiplier) over operands symmetric-quantised to signed
/// `bits`-bit integers, served from a precomputed lookup table
/// ([`crate::lut`]) — the AdaPT knob family. Like FP16, the *semantics* are
/// hardware-independent (the LUT defines them exactly); the speed/energy
/// benefit is modelled by `at-hw`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MulApprox {
    /// Exact f32 multiplication.
    Exact,
    /// LUT-emulated approximate multiplier over `bits`-bit operands.
    Lut {
        /// Operand bitwidth (2..=8).
        bits: u8,
    },
}

impl MulApprox {
    /// The registered LUT bitwidths, most to least accurate.
    pub const ALL_LUT: [MulApprox; 3] = [
        MulApprox::Lut { bits: 8 },
        MulApprox::Lut { bits: 6 },
        MulApprox::Lut { bits: 4 },
    ];

    /// Validates the bitwidth.
    pub(crate) fn validate(&self) -> Result<(), TensorError> {
        match *self {
            MulApprox::Exact => Ok(()),
            MulApprox::Lut { bits } => {
                if (crate::lut::MIN_BITS..=crate::lut::MAX_BITS).contains(&bits) {
                    Ok(())
                } else {
                    Err(TensorError::InvalidKnob {
                        op: "mul",
                        detail: format!(
                            "LUT multiplier bitwidth {bits} outside {}..={}",
                            crate::lut::MIN_BITS,
                            crate::lut::MAX_BITS
                        ),
                    })
                }
            }
        }
    }
}

/// Algorithmic approximation applied to a reduction (paper: 3 sampling
/// ratios — 50%, 40% and 25% of the inputs are used).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ReduceApprox {
    /// Use every input.
    Exact,
    /// Use `num`-out-of-every-`den` inputs, rescaling scale-sensitive
    /// reductions (sum/mean/product) accordingly.
    Sampling {
        /// Numerator of the kept fraction.
        num: usize,
        /// Denominator of the kept fraction.
        den: usize,
    },
}

impl ReduceApprox {
    /// 50% sampling (1 of 2).
    pub(crate) const HALF: ReduceApprox = ReduceApprox::Sampling { num: 1, den: 2 };
    /// 40% sampling (2 of 5).
    pub(crate) const FORTY: ReduceApprox = ReduceApprox::Sampling { num: 2, den: 5 };
    /// 25% sampling (1 of 4).
    pub(crate) const QUARTER: ReduceApprox = ReduceApprox::Sampling { num: 1, den: 4 };

    /// The paper's three sampling ratios, most to least accurate.
    pub const ALL_SAMPLING: [ReduceApprox; 3] = [
        ReduceApprox::HALF,
        ReduceApprox::FORTY,
        ReduceApprox::QUARTER,
    ];

    /// Validates the ratio.
    pub(crate) fn validate(&self) -> Result<(), TensorError> {
        match *self {
            ReduceApprox::Exact => Ok(()),
            ReduceApprox::Sampling { num, den } => {
                if num == 0 || den == 0 || num >= den {
                    Err(TensorError::InvalidKnob {
                        op: "reduce",
                        detail: format!("sampling ratio {num}/{den} not a proper fraction"),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Fraction of inputs used.
    pub(crate) fn kept_fraction(&self) -> f64 {
        match *self {
            ReduceApprox::Exact => 1.0,
            ReduceApprox::Sampling { num, den } => num as f64 / den as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerations_match_paper_counts() {
        assert_eq!(ConvApprox::all_filter_sampling().len(), 9);
        assert_eq!(ConvApprox::all_perforation().len(), 18);
        assert_eq!(ReduceApprox::ALL_SAMPLING.len(), 3);
    }

    #[test]
    fn validation() {
        assert!(ConvApprox::FilterSampling { k: 2, offset: 0 }
            .validate()
            .is_ok());
        assert!(ConvApprox::FilterSampling { k: 5, offset: 0 }
            .validate()
            .is_err());
        assert!(ConvApprox::FilterSampling { k: 3, offset: 3 }
            .validate()
            .is_err());
        assert!(ReduceApprox::Sampling { num: 2, den: 2 }
            .validate()
            .is_err());
        assert!(ReduceApprox::FORTY.validate().is_ok());
    }

    #[test]
    fn kept_fractions() {
        assert_eq!(ConvApprox::Exact.kept_fraction(), 1.0);
        assert_eq!(
            ConvApprox::FilterSampling { k: 2, offset: 0 }.kept_fraction(),
            0.5
        );
        assert!((ReduceApprox::FORTY.kept_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn all_settings_validate() {
        for a in ConvApprox::all_filter_sampling()
            .into_iter()
            .chain(ConvApprox::all_perforation())
        {
            a.validate().unwrap();
        }
        for m in MulApprox::ALL_LUT {
            m.validate().unwrap();
        }
    }

    #[test]
    fn mul_approx_bounds() {
        assert!(MulApprox::Exact.validate().is_ok());
        assert!(MulApprox::Lut { bits: 8 }.validate().is_ok());
        assert!(MulApprox::Lut { bits: 1 }.validate().is_err());
        assert!(MulApprox::Lut { bits: 9 }.validate().is_err());
    }
}
