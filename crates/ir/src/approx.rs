//! Per-node approximation choice applied at execution time.
//!
//! A *configuration* in the paper maps every tensor operation to an integer
//! knob value. `at-core` owns that integer registry; this module holds the
//! decoded mechanism the executor consumes.

use at_promise::VoltageLevel;
use at_tensor::{ConvApprox, MulApprox, Precision, ReduceApprox};
use serde::{Deserialize, Serialize};

/// Decoded approximation choice for one dataflow node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApproxChoice {
    /// Execute on a digital unit (GPU/CPU) with the given mechanisms.
    Digital {
        /// Convolution approximation (ignored for non-conv ops).
        conv: ConvApprox,
        /// Reduction approximation (ignored for non-reduction ops).
        reduce: ReduceApprox,
        /// Numeric precision.
        precision: Precision,
        /// Multiplier-level approximation (GEMM-shaped ops: convolutions
        /// and dense layers).
        mul: MulApprox,
    },
    /// Offload to the PROMISE analog accelerator at a voltage level
    /// (convolutions and dense layers only).
    Promise(VoltageLevel),
}

impl ApproxChoice {
    /// The baseline: exact FP32 on a digital unit.
    pub const BASELINE: ApproxChoice = ApproxChoice::Digital {
        conv: ConvApprox::Exact,
        reduce: ReduceApprox::Exact,
        precision: Precision::Fp32,
        mul: MulApprox::Exact,
    };

    /// Exact computation in FP16.
    pub const FP16: ApproxChoice = ApproxChoice::Digital {
        conv: ConvApprox::Exact,
        reduce: ReduceApprox::Exact,
        precision: Precision::Fp16,
        mul: MulApprox::Exact,
    };

    /// Convenience constructor for a digital choice with an exact
    /// multiplier.
    pub fn digital(conv: ConvApprox, reduce: ReduceApprox, precision: Precision) -> ApproxChoice {
        ApproxChoice::Digital {
            conv,
            reduce,
            precision,
            mul: MulApprox::Exact,
        }
    }

    /// Convenience constructor selecting the multiplier as well.
    pub fn digital_mul(
        conv: ConvApprox,
        reduce: ReduceApprox,
        precision: Precision,
        mul: MulApprox,
    ) -> ApproxChoice {
        ApproxChoice::Digital {
            conv,
            reduce,
            precision,
            mul,
        }
    }

    /// Whether this choice performs no approximation at all.
    pub fn is_exact(&self) -> bool {
        *self == ApproxChoice::BASELINE
    }
}

impl Default for ApproxChoice {
    fn default() -> Self {
        ApproxChoice::BASELINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_exact() {
        assert!(ApproxChoice::BASELINE.is_exact());
        assert!(!ApproxChoice::FP16.is_exact());
        assert!(!ApproxChoice::Promise(VoltageLevel::P7).is_exact());
        assert!(!ApproxChoice::digital_mul(
            ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Lut { bits: 8 },
        )
        .is_exact());
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(ApproxChoice::default(), ApproxChoice::BASELINE);
        assert_eq!(
            ApproxChoice::digital(ConvApprox::Exact, ReduceApprox::Exact, Precision::Fp32),
            ApproxChoice::BASELINE
        );
    }
}
