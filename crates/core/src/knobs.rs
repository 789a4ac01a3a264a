//! The integer knob registry (paper §2.1 / §2.3).
//!
//! "An approximation knob is a discrete-valued parameter of an
//! approximation method (represented using integers in ApproxTuner) … A
//! zero value denotes no approximation."
//!
//! Per-op knob counts match the paper, extended with the LUT-based
//! approximate-multiplier family (AdaPT-style; see `at_tensor::lut`):
//! * **convolution** — FP32 (knob 0), FP16, 9 filter-sampling × {fp32,fp16},
//!   18 perforation × {fp32,fp16}, 7 PROMISE levels, 3 LUT-multiplier
//!   bitwidths: `2 + 18 + 36 + 7 + 3 = 66`;
//! * **reduction** — {exact, 3 sampling ratios} × {fp32, fp16}: `8`;
//! * **other ops** — {fp32, fp16}: `2`;
//! * **dense** — {fp32, fp16} at development time, plus the 7 PROMISE
//!   levels at install time (PROMISE accelerates matrix multiplications)
//!   and the 3 LUT-multiplier bitwidths: `12`.

use at_ir::{ApproxChoice, Graph, OpClass};
use at_promise::VoltageLevel;
use at_tensor::{ConvApprox, MulApprox, Precision, ReduceApprox};
use serde::{Deserialize, Serialize};

/// Index of a knob within an op class's knob list. Knob 0 is always the
/// exact FP32 baseline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct KnobId(pub u16);

impl KnobId {
    /// The no-approximation knob.
    pub const BASELINE: KnobId = KnobId(0);
}

/// Which knobs are in play: development-time tuning uses only
/// hardware-independent knobs; install-time tuning adds hardware-specific
/// ones (PROMISE).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum KnobSet {
    /// Hardware-independent knobs only (development time).
    HardwareIndependent,
    /// All knobs, including PROMISE voltage levels (install time).
    WithHardware,
}

/// A single knob: an integer id bound to a decoded approximation mechanism.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Knob {
    /// Integer identifier (0 = baseline).
    pub id: KnobId,
    /// Decoded mechanism applied at execution time.
    pub choice: ApproxChoice,
    /// Short mnemonic (used in Table 3-style reports).
    pub label: String,
    /// Whether this knob requires hardware support not known at
    /// development time (true only for PROMISE levels).
    pub hardware_specific: bool,
}

/// The per-class knob tables.
#[derive(Clone, Debug)]
pub struct KnobRegistry {
    conv: Vec<Knob>,
    dense: Vec<Knob>,
    reduction: Vec<Knob>,
    other: Vec<Knob>,
}

fn knob(id: usize, choice: ApproxChoice, label: String, hw: bool) -> Knob {
    Knob {
        id: KnobId(id as u16),
        choice,
        label,
        hardware_specific: hw,
    }
}

impl Default for KnobRegistry {
    fn default() -> Self {
        KnobRegistry::new()
    }
}

impl KnobRegistry {
    /// Builds the paper's knob tables.
    pub fn new() -> KnobRegistry {
        let mut conv = Vec::with_capacity(66);
        // Knob 0/1: exact FP32 / FP16.
        conv.push(knob(0, ApproxChoice::BASELINE, "fp32".into(), false));
        conv.push(knob(1, ApproxChoice::FP16, "fp16".into(), false));
        // Filter sampling and perforation, each in FP32 and FP16 variants.
        for prec in Precision::ALL {
            let ptag = match prec {
                Precision::Fp32 => "fp32",
                Precision::Fp16 => "fp16",
            };
            for a in ConvApprox::all_filter_sampling() {
                if let ConvApprox::FilterSampling { k, offset } = a {
                    conv.push(knob(
                        conv.len(),
                        ApproxChoice::digital(a, ReduceApprox::Exact, prec),
                        format!("samp-{}%-o{offset}-{ptag}", 100 / k),
                        false,
                    ));
                }
            }
            for a in ConvApprox::all_perforation() {
                if let ConvApprox::Perforation { dim, k, offset } = a {
                    let d = match dim {
                        at_tensor::PerforationDim::Row => "row",
                        at_tensor::PerforationDim::Col => "col",
                    };
                    conv.push(knob(
                        conv.len(),
                        ApproxChoice::digital(a, ReduceApprox::Exact, prec),
                        format!("perf-{}%-{d}-o{offset}-{ptag}", 100 / k),
                        false,
                    ));
                }
            }
        }
        // PROMISE voltage levels.
        for level in VoltageLevel::ALL {
            conv.push(knob(
                conv.len(),
                ApproxChoice::Promise(level),
                format!("promise-P{}", level.index()),
                true,
            ));
        }
        // LUT approximate-multiplier bitwidths. The emulated multiplier has
        // hardware-*independent* semantics (the truth table fixes its
        // numerical effect), so these are development-time knobs; only the
        // speed/energy benefit is hardware-specific, priced by `at-hw`.
        for mul in MulApprox::ALL_LUT {
            if let MulApprox::Lut { bits } = mul {
                conv.push(knob(
                    conv.len(),
                    ApproxChoice::digital_mul(
                        ConvApprox::Exact,
                        ReduceApprox::Exact,
                        Precision::Fp32,
                        mul,
                    ),
                    format!("lutmul-{bits}b"),
                    false,
                ));
            }
        }
        debug_assert_eq!(conv.len(), 66);

        let mut dense = vec![
            knob(0, ApproxChoice::BASELINE, "fp32".into(), false),
            knob(1, ApproxChoice::FP16, "fp16".into(), false),
        ];
        for level in VoltageLevel::ALL {
            dense.push(knob(
                dense.len(),
                ApproxChoice::Promise(level),
                format!("promise-P{}", level.index()),
                true,
            ));
        }
        for mul in MulApprox::ALL_LUT {
            if let MulApprox::Lut { bits } = mul {
                dense.push(knob(
                    dense.len(),
                    ApproxChoice::digital_mul(
                        ConvApprox::Exact,
                        ReduceApprox::Exact,
                        Precision::Fp32,
                        mul,
                    ),
                    format!("lutmul-{bits}b"),
                    false,
                ));
            }
        }
        debug_assert_eq!(dense.len(), 12);

        let mut reduction = Vec::with_capacity(8);
        for prec in Precision::ALL {
            let ptag = match prec {
                Precision::Fp32 => "fp32",
                Precision::Fp16 => "fp16",
            };
            reduction.push(knob(
                reduction.len(),
                ApproxChoice::digital(ConvApprox::Exact, ReduceApprox::Exact, prec),
                format!("red-exact-{ptag}"),
                false,
            ));
            for a in ReduceApprox::ALL_SAMPLING {
                if let ReduceApprox::Sampling { num, den } = a {
                    reduction.push(knob(
                        reduction.len(),
                        ApproxChoice::digital(ConvApprox::Exact, a, prec),
                        format!("red-{}%-{ptag}", 100 * num / den),
                        false,
                    ));
                }
            }
        }
        debug_assert_eq!(reduction.len(), 8);

        let other = vec![
            knob(0, ApproxChoice::BASELINE, "fp32".into(), false),
            knob(1, ApproxChoice::FP16, "fp16".into(), false),
        ];

        KnobRegistry {
            conv,
            dense,
            reduction,
            other,
        }
    }

    /// The knob table for an op class (Input gets the single baseline knob).
    pub fn table(&self, class: OpClass) -> &[Knob] {
        match class {
            OpClass::Conv => &self.conv,
            OpClass::Dense => &self.dense,
            OpClass::Reduction => &self.reduction,
            OpClass::Other => &self.other,
            OpClass::Input => &self.other[..1],
        }
    }

    /// Knobs of a class filtered to a knob set.
    pub fn knobs(&self, class: OpClass, set: KnobSet) -> Vec<&Knob> {
        self.table(class)
            .iter()
            .filter(|k| set == KnobSet::WithHardware || !k.hardware_specific)
            .collect()
    }

    /// Decodes a knob id for an op class into its execution mechanism.
    /// Out-of-range ids decode to the baseline.
    pub fn decode(&self, class: OpClass, id: KnobId) -> ApproxChoice {
        self.table(class)
            .get(id.0 as usize)
            .map(|k| k.choice)
            .unwrap_or(ApproxChoice::BASELINE)
    }

    /// The label of a knob.
    pub(crate) fn label(&self, class: OpClass, id: KnobId) -> &str {
        self.table(class)
            .get(id.0 as usize)
            .map(|k| k.label.as_str())
            .unwrap_or("fp32")
    }

    /// Per-node knob lists for a whole graph under a knob set.
    pub fn node_knobs(&self, graph: &Graph, set: KnobSet) -> Vec<Vec<KnobId>> {
        graph
            .nodes()
            .iter()
            .map(|n| self.knobs(n.op.class(), set).iter().map(|k| k.id).collect())
            .collect()
    }

    /// log10 of the configuration search-space size (Table 1's last
    /// column). Computed in log space because e.g. ResNet-50's space is
    /// ~1e91.
    pub fn search_space_log10(&self, graph: &Graph, set: KnobSet) -> f64 {
        graph
            .nodes()
            .iter()
            .map(|n| {
                let cnt = self.knobs(n.op.class(), set).len().max(1);
                (cnt as f64).log10()
            })
            .sum()
    }

    /// Decodes a whole configuration (one knob per node) into per-node
    /// execution choices, coercing illegal ids to the baseline.
    pub(crate) fn decode_config(&self, graph: &Graph, knobs: &[KnobId]) -> Vec<ApproxChoice> {
        graph
            .nodes()
            .iter()
            .map(|n| {
                let id = knobs
                    .get(n.id.0 as usize)
                    .copied()
                    .unwrap_or(KnobId::BASELINE);
                self.decode(n.op.class(), id)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_knob_counts() {
        let r = KnobRegistry::new();
        assert_eq!(r.table(OpClass::Conv).len(), 66);
        assert_eq!(r.table(OpClass::Reduction).len(), 8);
        assert_eq!(r.table(OpClass::Other).len(), 2);
        assert_eq!(r.table(OpClass::Dense).len(), 12);
        // Development-time (hardware-independent) conv knobs: 66 - 7 PROMISE.
        assert_eq!(
            r.knobs(OpClass::Conv, KnobSet::HardwareIndependent).len(),
            59
        );
        assert_eq!(r.knobs(OpClass::Conv, KnobSet::WithHardware).len(), 66);
    }

    #[test]
    fn lutmul_knobs_registered_and_graded() {
        let r = KnobRegistry::new();
        for class in [OpClass::Conv, OpClass::Dense] {
            let luts: Vec<_> = r
                .table(class)
                .iter()
                .filter(|k| k.label.starts_with("lutmul-"))
                .collect();
            assert_eq!(luts.len(), 3, "{class:?}");
            assert!(luts.iter().all(|k| !k.hardware_specific));
            let bits: Vec<u8> = luts
                .iter()
                .map(|k| match k.choice {
                    ApproxChoice::Digital {
                        mul: MulApprox::Lut { bits },
                        ..
                    } => bits,
                    other => panic!("lutmul knob decodes to {other:?}"),
                })
                .collect();
            assert_eq!(bits, vec![8, 6, 4]);
        }
    }

    #[test]
    fn knob_zero_is_baseline_everywhere() {
        let r = KnobRegistry::new();
        for class in [
            OpClass::Conv,
            OpClass::Dense,
            OpClass::Reduction,
            OpClass::Other,
            OpClass::Input,
        ] {
            assert_eq!(r.decode(class, KnobId::BASELINE), ApproxChoice::BASELINE);
        }
    }

    #[test]
    fn ids_are_positional() {
        let r = KnobRegistry::new();
        for (i, k) in r.table(OpClass::Conv).iter().enumerate() {
            assert_eq!(k.id.0 as usize, i);
        }
    }

    #[test]
    fn out_of_range_decodes_to_baseline() {
        let r = KnobRegistry::new();
        assert_eq!(r.decode(OpClass::Other, KnobId(99)), ApproxChoice::BASELINE);
    }

    #[test]
    fn labels_distinct_within_class() {
        let r = KnobRegistry::new();
        let labels: std::collections::HashSet<_> =
            r.table(OpClass::Conv).iter().map(|k| &k.label).collect();
        assert_eq!(labels.len(), 66, "labels must be unique");
    }

    #[test]
    fn promise_knobs_marked_hardware_specific() {
        let r = KnobRegistry::new();
        let hw: Vec<_> = r
            .table(OpClass::Conv)
            .iter()
            .filter(|k| k.hardware_specific)
            .collect();
        assert_eq!(hw.len(), 7);
        assert!(hw
            .iter()
            .all(|k| matches!(k.choice, ApproxChoice::Promise(_))));
    }

    #[test]
    fn lenet_search_space_matches_table1_order() {
        // LeNet has 2 convs: dev-time space = 56² · (small factors for the
        // rest) ≈ 3e3 before counting the dense/other knobs; Table 1 says
        // 3e+3. Check the conv-only magnitude.
        let space = 56f64.powi(2);
        assert!((space.log10() - 3e3f64.log10()).abs() < 0.2);
    }
}
