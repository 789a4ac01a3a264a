//! The shipped tuning artifact (§2.2: "the final tradeoff curve is included
//! with the program binary").
//!
//! A [`ShippedArtifact`] bundles the tradeoff curve(s) with the metadata an
//! installer needs to use them safely: a program fingerprint (so a curve is
//! never applied to a different graph), the knob-registry version, the QoS
//! metric and bound it was tuned for, and which knob set was used. Since
//! "FP16 availability is not guaranteed on each hardware platform … we
//! allow users to tune the program with and without FP16 support, creating
//! two separate curves" (§3.5), the artifact can hold both variants.

use crate::pareto::{TradeoffCurve, TradeoffPoint};
use crate::qos::QosMetric;
use at_ir::Graph;
use serde::{Deserialize, Serialize};

/// Version tag of the artifact schema (bump on incompatible change).
pub const ARTIFACT_VERSION: u32 = 1;

/// The FNV-1a start state.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a: folds `bytes` into the state `h`. Every fingerprint and draw in
/// this crate hashes through it.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// A cheap structural fingerprint of a graph: op names, arity and
/// parameter sizes hashed with FNV-1a. Two structurally different programs
/// collide with negligible probability; weight *values* are not included
/// (install-time refinement re-measures QoS anyway).
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    eat(graph.name().as_bytes());
    for n in graph.nodes() {
        eat(n.op.name().as_bytes());
        eat(&(n.inputs.len() as u32).to_le_bytes());
        for i in &n.inputs {
            eat(&i.0.to_le_bytes());
        }
    }
    eat(&(graph.param_count() as u64).to_le_bytes());
    h
}

/// A content fingerprint of a graph's *weights*: FNV-1a over every
/// parameter tensor's shape and f32 bit patterns, in parameter order.
/// Unlike [`graph_fingerprint`] this sees value changes — a single flipped
/// mantissa bit anywhere in the model changes the result — so an executor
/// constructed against a pinned fingerprint can refuse silently corrupted
/// weights with a typed error instead of serving garbage.
pub fn weights_fingerprint(graph: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    for p in graph.params() {
        eat(&(p.shape().dims().len() as u32).to_le_bytes());
        for &d in p.shape().dims() {
            eat(&(d as u64).to_le_bytes());
        }
        for &v in p.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// The artifact shipped alongside the program binary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShippedArtifact {
    /// Schema version.
    pub version: u32,
    /// Program name.
    pub program: String,
    /// Structural fingerprint of the graph the curves were tuned for.
    pub fingerprint: u64,
    /// QoS metric the curves are expressed in.
    pub metric: QosMetric,
    /// The QoS bound used during tuning.
    pub qos_min: f64,
    /// Curve tuned *with* FP16 knobs available.
    pub curve_fp16: Option<TradeoffCurve>,
    /// Curve tuned with FP32-only knobs (for targets without FP16 units).
    pub curve_fp32_only: Option<TradeoffCurve>,
}

/// Errors raised when loading an artifact on a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipError {
    /// The artifact JSON could not be parsed.
    Malformed(String),
    /// Schema version newer than this library understands.
    VersionMismatch {
        /// Version found in the artifact.
        found: u32,
    },
    /// The artifact was tuned for a different program.
    WrongProgram {
        /// Fingerprint in the artifact.
        expected: u64,
        /// Fingerprint of the local graph.
        got: u64,
    },
    /// No curve variant suits the platform.
    NoUsableCurve,
    /// A curve point carries non-finite QoS or performance — the artifact
    /// was corrupted or written by a buggy tuner.
    NonFinitePoint {
        /// Which curve variant (`"fp16"` or `"fp32"`).
        curve: &'static str,
        /// Index of the offending point.
        index: usize,
    },
    /// Curve points are not strictly increasing in performance — the
    /// runtime's index arithmetic over the curve would silently pick wrong
    /// configurations, so the artifact is refused.
    UnsortedCurve {
        /// Which curve variant (`"fp16"` or `"fp32"`).
        curve: &'static str,
        /// Index of the first out-of-order point.
        index: usize,
    },
}

impl std::fmt::Display for ShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipError::Malformed(e) => write!(f, "malformed artifact: {e}"),
            ShipError::VersionMismatch { found } => {
                write!(
                    f,
                    "artifact schema v{found} newer than supported v{ARTIFACT_VERSION}"
                )
            }
            ShipError::WrongProgram { expected, got } => write!(
                f,
                "artifact tuned for program {expected:#x}, local graph is {got:#x}"
            ),
            ShipError::NoUsableCurve => write!(f, "artifact holds no curve for this platform"),
            ShipError::NonFinitePoint { curve, index } => {
                write!(f, "{curve} curve point {index} has non-finite qos/perf")
            }
            ShipError::UnsortedCurve { curve, index } => write!(
                f,
                "{curve} curve point {index} breaks strict speedup ordering"
            ),
        }
    }
}

impl std::error::Error for ShipError {}

impl ShippedArtifact {
    /// Creates an artifact for a tuned program.
    pub fn new(
        graph: &Graph,
        metric: QosMetric,
        qos_min: f64,
        curve_fp16: Option<TradeoffCurve>,
        curve_fp32_only: Option<TradeoffCurve>,
    ) -> ShippedArtifact {
        ShippedArtifact {
            version: ARTIFACT_VERSION,
            program: graph.name().to_string(),
            fingerprint: graph_fingerprint(graph),
            metric,
            qos_min,
            curve_fp16,
            curve_fp32_only,
        }
    }

    /// Serialises to the JSON that ships with the binary. Serialisation
    /// failure degrades to a JSON error object rather than a panic.
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(s) => s,
            Err(e) => format!("{{\"error\":\"artifact serialisation failed: {e}\"}}"),
        }
    }

    /// Loads and checks an artifact on a device: schema version, program
    /// fingerprint, curve finiteness and strict speedup ordering, then
    /// picks the curve matching the platform's FP16 support. Strict: a
    /// corrupted curve is refused (see [`ShippedArtifact::load_repaired`]
    /// for the salvaging variant). Never panics on malformed input.
    pub fn load(
        json: &str,
        graph: &Graph,
        platform_has_fp16: bool,
    ) -> Result<TradeoffCurve, ShipError> {
        let art = Self::parse_checked(json, graph)?;
        let (name, curve) = art.select_curve(platform_has_fp16)?;
        validate_curve(name, &curve)?;
        Ok(curve)
    }

    /// The tolerant sibling of [`ShippedArtifact::load`]: instead of
    /// refusing a curve with bad points, drops every non-finite point,
    /// re-Pareto-filters and re-sorts what remains, and reports what was
    /// done. Header problems (malformed JSON, wrong program, version skew)
    /// are *not* repairable and still fail. Fails with
    /// [`ShipError::NoUsableCurve`] when nothing survives repair.
    pub fn load_repaired(
        json: &str,
        graph: &Graph,
        platform_has_fp16: bool,
    ) -> Result<(TradeoffCurve, RepairReport), ShipError> {
        let art = Self::parse_checked(json, graph)?;
        let (_, curve) = art.select_curve(platform_has_fp16)?;
        let total = curve.len();
        let finite: Vec<TradeoffPoint> = curve
            .points()
            .iter()
            .filter(|p| p.qos.is_finite() && p.perf.is_finite())
            .cloned()
            .collect();
        let dropped_non_finite = total - finite.len();
        let repaired = TradeoffCurve::from_points(finite);
        if repaired.is_empty() {
            return Err(ShipError::NoUsableCurve);
        }
        let report = RepairReport {
            original: total,
            dropped_non_finite,
            kept: repaired.len(),
        };
        Ok((repaired, report))
    }

    /// Parses an artifact and checks the header invariants that do not
    /// depend on the program: a schema version this library understands
    /// and a finite `qos_min`. Curves are not checked here; loading them
    /// for a program goes through [`ShippedArtifact::load`] or
    /// [`ShippedArtifact::load_repaired`], which start with this.
    pub fn from_json(json: &str) -> Result<ShippedArtifact, ShipError> {
        let art: ShippedArtifact =
            serde_json::from_str(json).map_err(|e| ShipError::Malformed(e.to_string()))?;
        if art.version > ARTIFACT_VERSION {
            return Err(ShipError::VersionMismatch { found: art.version });
        }
        if !art.qos_min.is_finite() {
            return Err(ShipError::Malformed(format!(
                "non-finite qos_min {}",
                art.qos_min
            )));
        }
        Ok(art)
    }

    /// [`ShippedArtifact::from_json`] plus the program fingerprint check
    /// shared by [`ShippedArtifact::load`] and
    /// [`ShippedArtifact::load_repaired`].
    fn parse_checked(json: &str, graph: &Graph) -> Result<ShippedArtifact, ShipError> {
        let art = Self::from_json(json)?;
        let got = graph_fingerprint(graph);
        if art.fingerprint != got {
            return Err(ShipError::WrongProgram {
                expected: art.fingerprint,
                got,
            });
        }
        Ok(art)
    }

    fn select_curve(
        self,
        platform_has_fp16: bool,
    ) -> Result<(&'static str, TradeoffCurve), ShipError> {
        if platform_has_fp16 {
            if let Some(c) = self.curve_fp16 {
                return Ok(("fp16", c));
            }
        }
        self.curve_fp32_only
            .map(|c| ("fp32", c))
            .ok_or(ShipError::NoUsableCurve)
    }
}

/// What [`ShippedArtifact::load_repaired`] did to a damaged curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// Points in the shipped curve before repair.
    pub original: usize,
    /// Points dropped for non-finite QoS/perf.
    pub dropped_non_finite: usize,
    /// Points in the repaired curve (after re-Pareto-filtering).
    pub kept: usize,
}

impl RepairReport {
    /// True when the curve loaded clean (nothing was dropped or reordered
    /// away).
    pub fn was_clean(&self) -> bool {
        self.dropped_non_finite == 0 && self.kept == self.original
    }
}

/// The curve invariants a device relies on: every point finite, points
/// strictly increasing in performance.
fn validate_curve(name: &'static str, curve: &TradeoffCurve) -> Result<(), ShipError> {
    let pts = curve.points();
    if pts.is_empty() {
        return Err(ShipError::NoUsableCurve);
    }
    for (i, p) in pts.iter().enumerate() {
        if !p.qos.is_finite() || !p.perf.is_finite() {
            return Err(ShipError::NonFinitePoint {
                curve: name,
                index: i,
            });
        }
    }
    for i in 1..pts.len() {
        if pts[i].perf <= pts[i - 1].perf {
            return Err(ShipError::UnsortedCurve {
                curve: name,
                index: i,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::pareto::TradeoffPoint;
    use at_ir::GraphBuilder;
    use at_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new("ship-test", Shape::nchw(1, 3, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .flatten()
            .dense(5)
            .softmax();
        b.finish().unwrap()
    }

    fn curve() -> TradeoffCurve {
        TradeoffCurve::from_points(vec![TradeoffPoint {
            qos: 90.0,
            perf: 1.5,
            config: Config::from_knobs(vec![]),
        }])
    }

    #[test]
    fn roundtrip_and_fp16_selection() {
        let g = graph(1);
        let art = ShippedArtifact::new(&g, QosMetric::Accuracy, 88.0, Some(curve()), Some(curve()));
        let json = art.to_json();
        let with = ShippedArtifact::load(&json, &g, true).unwrap();
        let without = ShippedArtifact::load(&json, &g, false).unwrap();
        assert_eq!(with.len(), 1);
        assert_eq!(without.len(), 1);
    }

    #[test]
    fn fp16_only_artifact_rejected_on_fp32_platform() {
        let g = graph(1);
        let art = ShippedArtifact::new(&g, QosMetric::Accuracy, 88.0, Some(curve()), None);
        let err = ShippedArtifact::load(&art.to_json(), &g, false).unwrap_err();
        assert_eq!(err, ShipError::NoUsableCurve);
        // But usable where FP16 exists.
        assert!(ShippedArtifact::load(&art.to_json(), &g, true).is_ok());
    }

    #[test]
    fn wrong_program_detected() {
        let g1 = graph(1);
        // A structurally different program (extra relu).
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new("ship-test", Shape::nchw(1, 3, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .relu()
            .flatten()
            .dense(5)
            .softmax();
        let g2 = b.finish().unwrap();
        let art = ShippedArtifact::new(&g1, QosMetric::Accuracy, 88.0, Some(curve()), None);
        let err = ShippedArtifact::load(&art.to_json(), &g2, true).unwrap_err();
        assert!(matches!(err, ShipError::WrongProgram { .. }));
    }

    #[test]
    fn same_structure_different_weights_share_fingerprint() {
        // Fingerprint is structural: retrained weights keep the artifact
        // valid (install-time re-validation covers QoS drift).
        let g1 = graph(1);
        let g2 = graph(99);
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2));
    }

    #[test]
    fn weights_fingerprint_sees_single_bit_flips() {
        let g1 = graph(1);
        let g2 = graph(99);
        // Structurally identical, so the program fingerprint agrees, but the
        // weight fingerprint is a content hash and must not.
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_ne!(weights_fingerprint(&g1), weights_fingerprint(&g2));
        // Deterministic over identical contents.
        assert_eq!(weights_fingerprint(&g1), weights_fingerprint(&graph(1)));
        // A single flipped mantissa bit anywhere in the model is visible to
        // the weight hash while remaining invisible to the structural one.
        let mut flipped = graph(1);
        let data = flipped.param_mut(at_ir::graph::ParamId(0)).data_mut();
        data[3] = f32::from_bits(data[3].to_bits() ^ 1);
        assert_ne!(weights_fingerprint(&g1), weights_fingerprint(&flipped));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&flipped));
    }

    #[test]
    fn future_version_rejected() {
        let g = graph(1);
        let mut art = ShippedArtifact::new(&g, QosMetric::Accuracy, 88.0, Some(curve()), None);
        art.version = ARTIFACT_VERSION + 1;
        let err = ShippedArtifact::load(&art.to_json(), &g, true).unwrap_err();
        assert!(matches!(err, ShipError::VersionMismatch { .. }));
    }

    #[test]
    fn malformed_json_rejected() {
        let g = graph(1);
        assert!(matches!(
            ShippedArtifact::load("{not json", &g, true),
            Err(ShipError::Malformed(_))
        ));
    }
}
