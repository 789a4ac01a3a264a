//! Profile collection (Algorithm 1, lines 12–15), configuration execution
//! helpers, and QoS validation of tuned points (step 5 and install time).
//!
//! "QoS profiles are gathered for each unique pair of tensor operation and
//! approximation knob. … The profiles are collected by running the entire
//! program (with calibration inputs) but we approximate a single operator
//! at a time." The profile stores both the end-to-end QoS delta `ΔQ`
//! (consumed by Π2) and the raw final-output tensor delta `ΔT` (consumed by
//! Π1).
//!
//! Because only one operator changes per profiled pair, we re-execute only
//! that operator's *suffix* of the dataflow graph (`at_ir::execute_suffix`),
//! reusing the cached baseline prefix — a large constant-factor saving with
//! bit-identical results.

use crate::config::{single_op_configs, Config};
use crate::cost_table::ADMIT_MARGIN;
use crate::knobs::{KnobId, KnobRegistry};
use crate::pareto::TradeoffPoint;
use crate::perf::{PerfModel, Pricing};
use crate::predict::PredictionModel;
use crate::qos::{measure, QosMetric, QosReference};
use crate::tuner::{PredictiveTuner, TunerParams};
use at_ir::{execute, execute_all, execute_suffix, ExecOptions, Graph, NodeId};
use at_tensor::{Tensor, TensorError};
use rayon::ParallelSlice;

/// Executes a configuration over all calibration batches, returning the
/// program outputs per batch.
pub(crate) fn run_config(
    graph: &Graph,
    registry: &KnobRegistry,
    config: &Config,
    inputs: &[Tensor],
    promise_seed: u64,
) -> Result<Vec<Tensor>, TensorError> {
    let choices = config.decode(registry, graph);
    let opts = ExecOptions {
        config: choices,
        promise_seed,
    };
    inputs
        .iter()
        .map(|b| execute(graph, b, &opts).map_err(TensorError::from))
        .collect()
}

/// Executes a configuration and measures its QoS.
pub fn measure_config(
    graph: &Graph,
    registry: &KnobRegistry,
    config: &Config,
    inputs: &[Tensor],
    metric: QosMetric,
    reference: &QosReference,
    promise_seed: u64,
) -> Result<f64, TensorError> {
    let outs = run_config(graph, registry, config, inputs, promise_seed)?;
    Ok(measure(metric, &outs, reference))
}

/// `PredictiveTuner::validate` over any QoS measurement.
fn keep_valid(
    points: &[TradeoffPoint],
    qos_min: f64,
    measure: impl Fn(&Config) -> Result<f64, TensorError> + Sync,
) -> Result<Vec<TradeoffPoint>, TensorError> {
    let measured: Vec<Result<f64, TensorError>> =
        points.par_iter().map(|p| measure(&p.config)).collect();
    let mut kept = Vec::new();
    for (p, qos) in points.iter().zip(measured) {
        let qos = qos?;
        if qos.is_finite() && qos > qos_min {
            kept.push(TradeoffPoint {
                qos,
                perf: p.perf,
                config: p.config.clone(),
            });
        }
    }
    Ok(kept)
}

/// The per-(op, knob) QoS profiles of Algorithm 1 (the `Q` and `T` tables).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct QosProfiles {
    /// The profiled (node index, knob) pairs, in collection order.
    pub pairs: Vec<(usize, KnobId)>,
    /// Baseline QoS (`QoS_base`).
    pub qos_base: f64,
    /// Baseline raw program outputs per calibration batch (`T_base`).
    pub t_base: Vec<Tensor>,
    /// `ΔQ(op, knob)`: end-to-end QoS change per pair.
    pub dq: Vec<f64>,
    /// `ΔT(op, knob)`: raw-output delta per pair, per batch. Empty when
    /// tensor profiles were not collected (Π2-only mode).
    pub dt: Vec<Vec<Tensor>>,
    /// Wall-clock seconds spent collecting.
    pub collection_time_s: f64,
}

impl QosProfiles {
    /// Whether tensor (Π1) profiles are available.
    pub(crate) fn has_tensor_profiles(&self) -> bool {
        !self.dt.is_empty() && self.dt.iter().all(|b| !b.is_empty())
    }

    /// Merges profiles collected on different devices over *different
    /// calibration shards* (install-time distributed tuning, §4): ΔQ is
    /// averaged, ΔT batches are concatenated. All shards must have profiled
    /// the same pairs in the same order.
    pub(crate) fn merge(shards: Vec<QosProfiles>) -> Option<QosProfiles> {
        let mut it = shards.into_iter();
        let mut acc = it.next()?;
        let mut n = 1usize;
        for s in it {
            if s.pairs != acc.pairs {
                return None;
            }
            for (a, b) in acc.dq.iter_mut().zip(&s.dq) {
                *a += b;
            }
            for (a, b) in acc.dt.iter_mut().zip(s.dt) {
                a.extend(b);
            }
            acc.t_base.extend(s.t_base);
            acc.collection_time_s = acc.collection_time_s.max(s.collection_time_s);
            // Baseline QoS: running mean.
            acc.qos_base = (acc.qos_base * n as f64 + s.qos_base) / (n as f64 + 1.0);
            n += 1;
        }
        for a in &mut acc.dq {
            *a /= n as f64;
        }
        Some(acc)
    }
}

/// Where each profiled (node, knob) pair sits in the [`QosProfiles`] tables:
/// a dense node × knob table of positions built once from `pairs`, so a
/// lookup is one index instead of a scan of every pair.
pub(crate) struct PairIndex {
    knobs: usize,
    /// `slot[node · knobs + knob]`: the pair's position, `u32::MAX` if it
    /// was not profiled.
    slot: Vec<u32>,
}

impl PairIndex {
    pub(crate) fn new(pairs: &[(usize, KnobId)]) -> PairIndex {
        let nodes = pairs.iter().map(|&(n, _)| n + 1).max().unwrap_or(0);
        let knobs = pairs
            .iter()
            .map(|&(_, k)| usize::from(k.0) + 1)
            .max()
            .unwrap_or(0);
        let mut slot = vec![u32::MAX; nodes * knobs];
        // Reversed, so a pair profiled twice resolves to its first position.
        for (i, &(n, k)) in pairs.iter().enumerate().rev() {
            slot[n * knobs + usize::from(k.0)] = i as u32;
        }
        PairIndex { knobs, slot }
    }

    /// Position of a (node, knob) pair in the tables; `None` for the
    /// baseline knob and for pairs that were not profiled.
    pub(crate) fn get(&self, node: usize, knob: KnobId) -> Option<usize> {
        let k = usize::from(knob.0);
        if knob == KnobId::BASELINE || k >= self.knobs {
            return None;
        }
        let i = *self.slot.get(node * self.knobs + k)?;
        (i != u32::MAX).then_some(i as usize)
    }
}

impl PredictiveTuner<'_> {
    /// Runs `config` on the calibration inputs and measures its QoS
    /// ([`measure_config`] over the handle).
    pub fn measure(&self, config: &Config) -> Result<f64, TensorError> {
        measure_config(
            self.graph,
            self.registry,
            config,
            self.inputs,
            self.metric,
            self.reference,
            self.promise_seed,
        )
    }

    /// Step 5 of Algorithm 1, and the QoS half of install-time refinement:
    /// measures the real QoS of every point's configuration, concurrently on
    /// the pool, and keeps, in input order, the points whose QoS is finite
    /// and above `qos_min`, with the measured QoS and the point's own
    /// `perf`. The first error in input order is returned.
    pub(crate) fn validate(
        &self,
        points: &[TradeoffPoint],
        qos_min: f64,
    ) -> Result<Vec<TradeoffPoint>, TensorError> {
        keep_valid(points, qos_min, |config| self.measure(config))
    }

    /// Step 1 of Algorithm 1: the QoS profile of every (op, knob) pair of
    /// `params.knob_set` — under [`Pricing::Cpu`] only of the pairs whose
    /// modelled node speedup over exact is above
    /// [`crate::cost_table::ADMIT_MARGIN`] (profiling a pair that runs
    /// slower than exact buys a point no curve ships), and of every
    /// hardware-specific pair. `ΔT` (needed by Π1)
    /// is stored only when `params.model` is Π1; Π2 only needs `ΔQ`.
    pub fn collect(&self, params: &TunerParams) -> Result<QosProfiles, TensorError> {
        let PredictiveTuner {
            graph,
            registry,
            inputs,
            metric,
            reference,
            promise_seed,
            ..
        } = *self;
        let collect_tensors = params.model == PredictionModel::Pi1;
        let started = std::time::Instant::now();
        let mut pairs = single_op_configs(graph, registry, params.knob_set);
        if matches!(params.pricing, Pricing::Cpu) {
            let perf = PerfModel::new(graph, registry, self.input_shape)?;
            let mut admitted = Vec::with_capacity(pairs.len());
            for (node, knob) in pairs {
                // A hardware-specific knob's gain is on its device, which the
                // CPU model does not price: always profiled.
                let class = graph.node(NodeId(node as u32)).op.class();
                let elsewhere = registry.table(class)[usize::from(knob.0)].hardware_specific;
                if elsewhere || perf.cpu_node_speedup(node, knob)? > ADMIT_MARGIN {
                    admitted.push((node, knob));
                }
            }
            pairs = admitted;
        }

        // Baseline pass, caching every node output per batch for suffix reuse.
        let baseline_opts = ExecOptions::baseline();
        let mut caches = Vec::with_capacity(inputs.len());
        let mut t_base = Vec::with_capacity(inputs.len());
        for b in inputs {
            let all = execute_all(graph, b, &baseline_opts)?;
            let last = all.last().ok_or(TensorError::EmptyGraph)?;
            t_base.push(last.clone());
            caches.push(all);
        }
        let qos_base = measure(metric, &t_base, reference);

        // Per-pair suffix executions, in parallel: each pair re-executes only
        // its own graph suffix against the shared read-only baseline caches, so
        // pairs are independent and results are collected in pair order
        // (bit-identical to the sequential loop).
        let per_pair: Result<Vec<(f64, Vec<Tensor>)>, TensorError> = pairs
            .par_iter()
            .map(|&(node, knob)| {
                let class = graph.node(NodeId(node as u32)).op.class();
                let choice = registry.decode(class, knob);
                let mut config = vec![at_ir::ApproxChoice::BASELINE; graph.len()];
                config[node] = choice;
                let opts = ExecOptions {
                    config,
                    promise_seed,
                };
                let mut outs = Vec::with_capacity(inputs.len());
                for (b, cache) in inputs.iter().zip(&caches) {
                    outs.push(execute_suffix(graph, b, cache, NodeId(node as u32), &opts)?);
                }
                let q = measure(metric, &outs, reference);
                let deltas = if collect_tensors {
                    outs.iter()
                        .zip(&t_base)
                        .map(|(o, b)| o.sub(b))
                        .collect::<Result<Vec<Tensor>, TensorError>>()?
                } else {
                    Vec::new()
                };
                Ok((q - qos_base, deltas))
            })
            .collect();
        let mut dq = Vec::with_capacity(pairs.len());
        let mut dt: Vec<Vec<Tensor>> =
            Vec::with_capacity(if collect_tensors { pairs.len() } else { 0 });
        for (d, deltas) in per_pair? {
            dq.push(d);
            if collect_tensors {
                dt.push(deltas);
            }
        }

        Ok(QosProfiles {
            pairs,
            qos_base,
            t_base,
            dq,
            dt,
            collection_time_s: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobSet;
    use at_ir::{GraphBuilder, OpClass};
    use at_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Vec<Tensor>, QosReference) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new("t", Shape::nchw(8, 2, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .max_pool(2, 2)
            .flatten()
            .dense(5)
            .softmax();
        let g = b.finish().unwrap();
        let mut rng2 = StdRng::seed_from_u64(2);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(Shape::nchw(8, 2, 8, 8), -1.0, 1.0, &mut rng2))
            .collect();
        // Labels = baseline predictions (accuracy 100% at baseline).
        let mut labels = Vec::new();
        for b in &inputs {
            let out = execute(&g, b, &ExecOptions::baseline()).unwrap();
            let (rows, c) = out.shape().as_mat().unwrap();
            labels.push(
                (0..rows)
                    .map(|r| {
                        let row = &out.data()[r * c..(r + 1) * c];
                        row.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                            .unwrap()
                            .0
                    })
                    .collect(),
            );
        }
        (g, inputs, QosReference::Labels(labels))
    }

    fn tuner<'a>(
        g: &'a Graph,
        r: &'a KnobRegistry,
        inputs: &'a [Tensor],
        reference: &'a QosReference,
    ) -> PredictiveTuner<'a> {
        PredictiveTuner {
            graph: g,
            registry: r,
            inputs,
            metric: QosMetric::Accuracy,
            reference,
            input_shape: inputs[0].shape(),
            promise_seed: 0,
        }
    }

    /// Parameters that collect `ΔT` (Π1) or only `ΔQ` (Π2) over every
    /// hardware-independent pair (Eq. 3 pricing admits them all).
    fn collecting(model: PredictionModel) -> TunerParams {
        TunerParams {
            knob_set: KnobSet::HardwareIndependent,
            model,
            pricing: Pricing::OpCount,
            ..TunerParams::default()
        }
    }

    #[test]
    fn baseline_profile_properties() {
        let (g, inputs, reference) = setup();
        let r = KnobRegistry::new();
        let p = tuner(&g, &r, &inputs, &reference)
            .collect(&collecting(PredictionModel::Pi1))
            .unwrap();
        // Labels were set to baseline predictions.
        assert_eq!(p.qos_base, 100.0);
        assert_eq!(p.dq.len(), p.pairs.len());
        assert!(p.has_tensor_profiles());
        // ΔQ is never positive here (labels == baseline predictions, so no
        // knob can beat the baseline).
        assert!(p.dq.iter().all(|&d| d <= 1e-9));
        // Every ΔT has the output shape.
        for batches in &p.dt {
            for t in batches {
                assert_eq!(t.shape(), Shape::mat(8, 5));
            }
        }
    }

    #[test]
    fn pair_index_agrees_with_a_scan_of_the_pairs() {
        let pairs: Vec<(usize, KnobId)> = [(3, 4), (0, 2), (7, 1), (3, 9), (0, 2), (5, 4)]
            .into_iter()
            .map(|(n, k)| (n, KnobId(k)))
            .collect();
        let index = PairIndex::new(&pairs);
        for node in 0..10 {
            for k in 0..12 {
                let knob = KnobId(k);
                let scan = pairs.iter().position(|&p| p == (node, knob));
                let want = scan.filter(|_| knob != KnobId::BASELINE);
                assert_eq!(index.get(node, knob), want, "({node}, {k})");
            }
        }
        assert_eq!(PairIndex::new(&[]).get(0, KnobId(1)), None);
    }

    #[test]
    fn suffix_profiles_match_full_execution() {
        let (g, inputs, reference) = setup();
        let r = KnobRegistry::new();
        let t = tuner(&g, &r, &inputs, &reference);
        let p = t.collect(&collecting(PredictionModel::Pi2)).unwrap();
        // Cross-check one pair against a full (non-suffix) execution.
        let (node, knob) = p.pairs[10];
        let mut config = Config::baseline(&g);
        config.set_knob(node, knob);
        let q = t.measure(&config).unwrap();
        assert!(
            (p.dq[10] - (q - p.qos_base)).abs() < 1e-9,
            "suffix ΔQ mismatch"
        );
    }

    #[test]
    fn validate_keeps_order_floor_and_perf() {
        let (g, inputs, reference) = setup();
        let r = KnobRegistry::new();
        let t = tuner(&g, &r, &inputs, &reference);
        let measured = |c: &Config| t.measure(c).unwrap();
        // Every knob of the conv, each tagged with its position as its perf.
        let conv = g
            .nodes()
            .iter()
            .position(|n| n.op.class() == OpClass::Conv)
            .unwrap();
        let points: Vec<TradeoffPoint> = r
            .table(OpClass::Conv)
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut config = Config::baseline(&g);
                config.set_knob(conv, k.id);
                TradeoffPoint {
                    qos: f64::NAN,
                    perf: i as f64,
                    config,
                }
            })
            .collect();
        let qos: Vec<f64> = points.iter().map(|p| measured(&p.config)).collect();
        // A floor equal to the best QoS below the baseline's 100 %: the
        // points measuring exactly the floor are dropped with those below.
        let floor = qos
            .iter()
            .copied()
            .filter(|&q| q < 100.0)
            .fold(f64::MIN, f64::max);
        assert!(floor > f64::MIN, "no approximate config loses accuracy");
        let kept = t.validate(&points, floor).unwrap();
        let expected: Vec<TradeoffPoint> = points
            .iter()
            .zip(&qos)
            .filter(|(_, &q)| q > floor)
            .map(|(p, &q)| TradeoffPoint {
                qos: q,
                ..p.clone()
            })
            .collect();
        assert_eq!(kept, expected);
        assert!(kept.len() < points.len(), "the floor dropped nothing");
        // At or below: a floor equal to the baseline's 100 % keeps nothing.
        assert!(t.validate(&points, 100.0).unwrap().is_empty());
    }

    #[test]
    fn kept_points_skip_non_finite_qos_and_report_the_first_error() {
        let points: Vec<TradeoffPoint> = (0..6u16)
            .map(|k| TradeoffPoint {
                qos: 0.0,
                perf: f64::from(k),
                config: Config::from_knobs(vec![KnobId(k)]),
            })
            .collect();
        let qos = [f64::NAN, 95.0, f64::INFINITY, 90.0, f64::NEG_INFINITY, 91.0];
        let kept = keep_valid(&points, 90.0, |c| Ok(qos[c.knobs()[0].0 as usize])).unwrap();
        let kept: Vec<(f64, f64)> = kept.iter().map(|p| (p.qos, p.perf)).collect();
        assert_eq!(kept, vec![(95.0, 1.0), (91.0, 5.0)]);

        // Whichever measurement fails first on a four-thread pool, the
        // error reported is the one of the earliest failing point.
        let failing = |c: &Config| {
            let k = c.knobs()[0].0;
            if k >= 2 {
                Err(TensorError::Transient {
                    detail: format!("point {k}"),
                })
            } else {
                Ok(99.0)
            }
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let err = pool
            .install(|| keep_valid(&points, 90.0, failing))
            .unwrap_err();
        assert_eq!(
            err,
            TensorError::Transient {
                detail: "point 2".into()
            }
        );
    }

    #[test]
    fn merge_averages_dq_and_concats_dt() {
        let (g, inputs, reference) = setup();
        let r = KnobRegistry::new();
        let mk = |slice: &[Tensor]| {
            tuner(&g, &r, slice, &reference)
                .collect(&collecting(PredictionModel::Pi1))
                .unwrap()
        };
        // NOTE: both shards use the same reference for simplicity; merge
        // semantics are what is under test.
        let a = mk(&inputs[..2]);
        let b = mk(&inputs[..2]);
        let merged = QosProfiles::merge(vec![a.clone(), b]).unwrap();
        assert_eq!(merged.pairs, a.pairs);
        // Same shards → ΔQ unchanged by averaging; ΔT batches doubled.
        assert!((merged.dq[0] - a.dq[0]).abs() < 1e-9);
        assert_eq!(merged.dt[0].len(), 2 * a.dt[0].len());
    }

    #[test]
    fn merge_rejects_mismatched_pairs() {
        let (g, inputs, reference) = setup();
        let r = KnobRegistry::new();
        let a = tuner(&g, &r, &inputs[..1], &reference)
            .collect(&collecting(PredictionModel::Pi2))
            .unwrap();
        let mut b = a.clone();
        b.pairs.pop();
        b.dq.pop();
        assert!(QosProfiles::merge(vec![a, b]).is_none());
    }
}
