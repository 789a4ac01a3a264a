//! Configurations: "a map Config : op → Int that assigns an approximation
//! knob value to every tensor operation in the program" (§2.1).

use crate::knobs::{KnobId, KnobRegistry, KnobSet};
use at_ir::{ApproxChoice, Graph};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One point of the search space: a knob id per graph node.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Config {
    knobs: Vec<KnobId>,
}

impl Config {
    /// The all-baseline (exact FP32) configuration for a graph.
    pub fn baseline(graph: &Graph) -> Config {
        Config {
            knobs: vec![KnobId::BASELINE; graph.len()],
        }
    }

    /// Builds from explicit knob ids (one per node).
    pub fn from_knobs(knobs: Vec<KnobId>) -> Config {
        Config { knobs }
    }

    /// A uniformly random configuration over the allowed per-node knobs.
    pub(crate) fn random<R: Rng + ?Sized>(node_knobs: &[Vec<KnobId>], rng: &mut R) -> Config {
        Config {
            knobs: node_knobs
                .iter()
                .map(|ks| {
                    if ks.is_empty() {
                        KnobId::BASELINE
                    } else {
                        ks[rng.gen_range(0..ks.len())]
                    }
                })
                .collect(),
        }
    }

    /// The knob ids, indexed by node.
    pub fn knobs(&self) -> &[KnobId] {
        &self.knobs
    }

    /// The knob for one node.
    pub fn knob(&self, node: usize) -> KnobId {
        self.knobs.get(node).copied().unwrap_or(KnobId::BASELINE)
    }

    /// Sets the knob for one node.
    pub fn set_knob(&mut self, node: usize, id: KnobId) {
        if node < self.knobs.len() {
            self.knobs[node] = id;
        }
    }

    /// Number of nodes with a non-baseline knob.
    pub fn approximated_ops(&self) -> usize {
        self.knobs
            .iter()
            .filter(|&&k| k != KnobId::BASELINE)
            .count()
    }

    /// Decodes to per-node execution choices via the registry.
    pub fn decode(&self, registry: &KnobRegistry, graph: &Graph) -> Vec<ApproxChoice> {
        registry.decode_config(graph, &self.knobs)
    }

    /// Mutates `n_sites` random tunable nodes to random allowed knobs.
    pub fn mutate<R: Rng + ?Sized>(
        &self,
        node_knobs: &[Vec<KnobId>],
        n_sites: usize,
        rng: &mut R,
    ) -> Config {
        let tunable: Vec<usize> = node_knobs
            .iter()
            .enumerate()
            .filter(|(_, ks)| ks.len() > 1)
            .map(|(i, _)| i)
            .collect();
        let mut next = self.clone();
        if tunable.is_empty() {
            return next;
        }
        for _ in 0..n_sites.max(1) {
            let site = tunable[rng.gen_range(0..tunable.len())];
            let ks = &node_knobs[site];
            next.knobs[site] = ks[rng.gen_range(0..ks.len())];
        }
        next
    }

    /// Coarser histogram grouping FP16 into one bucket and dropping offsets
    /// (matches the presentation of Table 3, e.g. "perf-50%: 6, FP16: 13").
    pub fn coarse_histogram(&self, registry: &KnobRegistry, graph: &Graph) -> Vec<(String, usize)> {
        let mut hist: Vec<(String, usize)> = Vec::new();
        for (i, &k) in self.knobs.iter().enumerate() {
            if k == KnobId::BASELINE {
                continue;
            }
            let class = graph.node(at_ir::NodeId(i as u32)).op.class();
            let label = registry.label(class, k);
            let coarse = if label == "fp16" {
                "FP16".to_string()
            } else if let Some(rest) = label.strip_prefix("samp-") {
                format!("samp-{}", rest.split('-').next().unwrap_or(rest))
            } else if let Some(rest) = label.strip_prefix("perf-") {
                format!("perf-{}", rest.split('-').next().unwrap_or(rest))
            } else if label.starts_with("promise-") {
                label.to_string()
            } else if let Some(rest) = label.strip_prefix("red-") {
                format!("red-{}", rest.split('-').next().unwrap_or(rest))
            } else {
                label.to_string()
            };
            if let Some(e) = hist.iter_mut().find(|(l, _)| *l == coarse) {
                e.1 += 1;
            } else {
                hist.push((coarse, 1));
            }
        }
        hist.sort_by_key(|e| std::cmp::Reverse(e.1));
        hist
    }
}

/// Enumerates every knob assignment for a *single* node while all other
/// nodes stay at the baseline — the (op, knob) pairs profiled in Algorithm
/// 1, lines 13–15.
pub fn single_op_configs(
    graph: &Graph,
    registry: &KnobRegistry,
    set: KnobSet,
) -> Vec<(usize, KnobId)> {
    let mut pairs = Vec::new();
    for node in graph.nodes() {
        for k in registry.knobs(node.op.class(), set) {
            if k.id != KnobId::BASELINE {
                pairs.push((node.id.0 as usize, k.id));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_ir::GraphBuilder;
    use at_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> Graph {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new("t", Shape::nchw(1, 3, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .avg_pool(2, 2)
            .flatten()
            .dense(10)
            .softmax();
        b.finish().unwrap()
    }

    #[test]
    fn baseline_has_no_approx() {
        let g = graph();
        let c = Config::baseline(&g);
        assert_eq!(c.approximated_ops(), 0);
    }

    #[test]
    fn random_respects_allowed_knobs() {
        let g = graph();
        let r = KnobRegistry::new();
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = Config::random(&nk, &mut rng);
            for (i, &k) in c.knobs().iter().enumerate() {
                assert!(nk[i].contains(&k), "node {i} got disallowed knob {k:?}");
            }
        }
    }

    #[test]
    fn mutation_changes_some_site() {
        let g = graph();
        let r = KnobRegistry::new();
        let nk = r.node_knobs(&g, KnobSet::HardwareIndependent);
        let mut rng = StdRng::seed_from_u64(3);
        let base = Config::baseline(&g);
        let mut changed = 0;
        for _ in 0..20 {
            if base.mutate(&nk, 2, &mut rng) != base {
                changed += 1;
            }
        }
        assert!(changed > 10, "mutation almost never changed the config");
    }

    #[test]
    fn single_op_pairs_cover_all_non_baseline_knobs() {
        let g = graph();
        let r = KnobRegistry::new();
        let pairs = single_op_configs(&g, &r, KnobSet::HardwareIndependent);
        // conv:58 + relu:1 + avgpool:7 + flatten:1 + dense:4 + softmax:1 = 72
        // (58 = 66 conv knobs − 7 PROMISE − baseline; dense = fp16 + 3 lutmul).
        assert_eq!(pairs.len(), 58 + 1 + 7 + 1 + 4 + 1);
        assert!(pairs.iter().all(|&(_, k)| k != KnobId::BASELINE));
    }

    #[test]
    fn histogram_counts_knobs() {
        let g = graph();
        let r = KnobRegistry::new();
        let mut c = Config::baseline(&g);
        c.set_knob(1, KnobId(1)); // conv fp16
        c.set_knob(2, KnobId(1)); // relu fp16
        let hist = c.coarse_histogram(&r, &g);
        assert_eq!(hist, vec![("FP16".to_string(), 2)]);
    }

    #[test]
    fn decode_roundtrip_baseline() {
        let g = graph();
        let r = KnobRegistry::new();
        let choices = Config::baseline(&g).decode(&r, &g);
        assert!(choices.iter().all(|c| c.is_exact()));
    }
}
