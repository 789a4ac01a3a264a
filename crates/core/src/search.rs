//! OpenTuner-style ensemble search (§6.4).
//!
//! "we use the default OpenTuner setting that uses an ensemble of search
//! techniques including Torczon hillclimbers, variants of Nelder-Mead
//! search, a number of evolutionary mutation techniques, and random
//! search." The ensemble is coordinated by OpenTuner's AUC-bandit
//! meta-technique, reproduced here: each iteration the bandit picks the
//! technique with the best recent improvement record plus an exploration
//! bonus.
//!
//! Configurations are manipulated as vectors of *knob indices* (positions
//! within each node's allowed-knob list), which gives the geometric
//! techniques a meaningful coordinate space.

use crate::config::Config;
use crate::knobs::KnobId;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The per-node allowed-knob lists defining the search space.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    node_knobs: Vec<Vec<KnobId>>,
    tunable: Vec<usize>,
}

impl SearchSpace {
    /// Builds a space from per-node knob lists.
    pub fn new(node_knobs: Vec<Vec<KnobId>>) -> SearchSpace {
        let tunable = node_knobs
            .iter()
            .enumerate()
            .filter(|(_, k)| k.len() > 1)
            .map(|(i, _)| i)
            .collect();
        SearchSpace {
            node_knobs,
            tunable,
        }
    }

    /// The allowed knobs per node.
    pub fn node_knobs(&self) -> &[Vec<KnobId>] {
        &self.node_knobs
    }

    /// Converts a config to the tunable-dimension index vector.
    pub fn to_indices(&self, config: &Config) -> Vec<usize> {
        self.tunable
            .iter()
            .map(|&n| {
                self.node_knobs[n]
                    .iter()
                    .position(|&k| k == config.knob(n))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Builds a config from a tunable-dimension index vector (indices are
    /// clamped to each node's range).
    pub fn from_indices(&self, idx: &[usize]) -> Config {
        let mut knobs = vec![KnobId::BASELINE; self.node_knobs.len()];
        for (d, &n) in self.tunable.iter().enumerate() {
            let ks = &self.node_knobs[n];
            let i = idx.get(d).copied().unwrap_or(0).min(ks.len() - 1);
            knobs[n] = ks[i];
        }
        Config::from_knobs(knobs)
    }

    /// A uniformly random config.
    pub fn random(&self, rng: &mut StdRng) -> Config {
        Config::random(&self.node_knobs, rng)
    }
}

/// One search technique of the ensemble.
trait Technique {
    fn propose(
        &mut self,
        space: &SearchSpace,
        best: Option<&(Config, f64)>,
        rng: &mut StdRng,
    ) -> Config;
    fn feedback(&mut self, space: &SearchSpace, config: &Config, fitness: f64, improved: bool);
    /// The technique's adaptive state, for checkpoints.
    fn state(&self) -> TechniqueState;
}

/// Serialised adaptive state of one ensemble technique — everything a
/// technique mutates across iterations, so a checkpointed tuner resumes
/// with the exact ensemble it stopped with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TechniqueState {
    /// `RandomSearch` is stateless.
    Random,
    /// `GreedyMutation`'s adaptive mutation strength.
    Evolutionary {
        /// Current mutation sites.
        sites: usize,
    },
    /// `TorczonHillclimber`'s pattern state.
    Torczon {
        /// Current search center on the index lattice, if established.
        center: Option<Vec<usize>>,
        /// Current step length.
        step: usize,
    },
    /// `NelderMead`'s simplex.
    NelderMead {
        /// `(index vector, fitness)` vertices.
        simplex: Vec<(Vec<usize>, f64)>,
        /// Vertex capacity.
        max_vertices: usize,
    },
}

fn technique_from_state(state: &TechniqueState) -> Box<dyn Technique> {
    match state {
        TechniqueState::Random => Box::new(RandomSearch),
        TechniqueState::Evolutionary { sites } => Box::new(GreedyMutation { sites: *sites }),
        TechniqueState::Torczon { center, step } => Box::new(TorczonHillclimber {
            center: center.clone(),
            step: *step,
        }),
        TechniqueState::NelderMead {
            simplex,
            max_vertices,
        } => Box::new(NelderMead {
            simplex: simplex.clone(),
            max_vertices: *max_vertices,
        }),
    }
}

/// Pure random sampling.
struct RandomSearch;

impl Technique for RandomSearch {
    fn propose(
        &mut self,
        space: &SearchSpace,
        _best: Option<&(Config, f64)>,
        rng: &mut StdRng,
    ) -> Config {
        space.random(rng)
    }
    fn feedback(&mut self, _: &SearchSpace, _: &Config, _: f64, _: bool) {}
    fn state(&self) -> TechniqueState {
        TechniqueState::Random
    }
}

/// Evolutionary greedy mutation of the incumbent.
struct GreedyMutation {
    sites: usize,
}

impl Technique for GreedyMutation {
    fn propose(
        &mut self,
        space: &SearchSpace,
        best: Option<&(Config, f64)>,
        rng: &mut StdRng,
    ) -> Config {
        match best {
            Some((b, _)) => b.mutate(space.node_knobs(), self.sites, rng),
            None => space.random(rng),
        }
    }
    fn feedback(&mut self, _: &SearchSpace, _: &Config, _: f64, improved: bool) {
        // Adapt mutation strength: shrink on success (exploit), grow on
        // failure (explore), within [1, 4].
        if improved {
            self.sites = (self.sites.saturating_sub(1)).max(1);
        } else {
            self.sites = (self.sites + 1).min(4);
        }
    }
    fn state(&self) -> TechniqueState {
        TechniqueState::Evolutionary { sites: self.sites }
    }
}

/// Torczon-style pattern search over the knob-index lattice.
struct TorczonHillclimber {
    center: Option<Vec<usize>>,
    step: usize,
}

impl Technique for TorczonHillclimber {
    fn propose(
        &mut self,
        space: &SearchSpace,
        best: Option<&(Config, f64)>,
        rng: &mut StdRng,
    ) -> Config {
        let center = match (&self.center, best) {
            (Some(c), _) => c.clone(),
            (None, Some((b, _))) => space.to_indices(b),
            (None, None) => return space.random(rng),
        };
        // Move along a random coordinate by ±step.
        let mut idx = center;
        if !idx.is_empty() {
            let d = rng.gen_range(0..idx.len());
            let delta = self.step as isize * if rng.gen_bool(0.5) { 1 } else { -1 };
            idx[d] = (idx[d] as isize + delta).max(0) as usize;
        }
        space.from_indices(&idx)
    }
    fn feedback(&mut self, space: &SearchSpace, config: &Config, _fitness: f64, improved: bool) {
        if improved {
            // Expand around the new point.
            self.center = Some(space.to_indices(config));
            self.step = (self.step * 2).min(8);
        } else {
            // Contract.
            self.step = (self.step / 2).max(1);
        }
    }
    fn state(&self) -> TechniqueState {
        TechniqueState::Torczon {
            center: self.center.clone(),
            step: self.step,
        }
    }
}

/// A compact Nelder–Mead variant on the discrete index lattice: reflects
/// the worst simplex vertex through the centroid of the rest.
struct NelderMead {
    simplex: Vec<(Vec<usize>, f64)>,
    max_vertices: usize,
}

impl Technique for NelderMead {
    fn propose(
        &mut self,
        space: &SearchSpace,
        best: Option<&(Config, f64)>,
        rng: &mut StdRng,
    ) -> Config {
        if self.simplex.len() < self.max_vertices {
            // Seed the simplex with random points (plus the incumbent).
            if self.simplex.is_empty() {
                if let Some((b, f)) = best {
                    self.simplex.push((space.to_indices(b), *f));
                }
            }
            return space.random(rng);
        }
        // Reflect worst vertex through the centroid of the others.
        // total_cmp: a NaN fitness must never panic the ensemble (the
        // supervision layer filters NaN out, but the sort stays robust).
        self.simplex.sort_by(|a, b| b.1.total_cmp(&a.1));
        let worst = &self.simplex[self.simplex.len() - 1].0;
        let d = worst.len();
        let mut centroid = vec![0.0f64; d];
        for (v, _) in &self.simplex[..self.simplex.len() - 1] {
            for (c, &x) in centroid.iter_mut().zip(v) {
                *c += x as f64;
            }
        }
        let n = (self.simplex.len() - 1).max(1) as f64;
        let idx: Vec<usize> = (0..d)
            .map(|i| {
                let c = centroid[i] / n;
                let r = 2.0 * c - worst[i] as f64;
                r.round().max(0.0) as usize
            })
            .collect();
        space.from_indices(&idx)
    }
    fn feedback(&mut self, space: &SearchSpace, config: &Config, fitness: f64, _improved: bool) {
        let idx = space.to_indices(config);
        if self.simplex.len() < self.max_vertices {
            self.simplex.push((idx, fitness));
            return;
        }
        // Replace the worst vertex when the proposal beats it.
        if let Some(worst) = self.simplex.iter_mut().min_by(|a, b| a.1.total_cmp(&b.1)) {
            if fitness > worst.1 {
                *worst = (idx, fitness);
            }
        }
    }
    fn state(&self) -> TechniqueState {
        TechniqueState::NelderMead {
            simplex: self.simplex.clone(),
            max_vertices: self.max_vertices,
        }
    }
}

/// AUC-bandit meta-technique statistics for one arm.
#[derive(Default)]
struct Arm {
    history: std::collections::VecDeque<bool>,
    uses: usize,
}

impl Arm {
    const WINDOW: usize = 50;

    fn record(&mut self, improved: bool) {
        self.history.push_back(improved);
        if self.history.len() > Self::WINDOW {
            self.history.pop_front();
        }
        self.uses += 1;
    }

    /// Area-under-curve credit: recent improvements weigh more.
    fn auc(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let n = self.history.len();
        let denom = (n * (n + 1) / 2) as f64;
        let score: f64 = self
            .history
            .iter()
            .enumerate()
            .map(|(i, &imp)| if imp { (i + 1) as f64 } else { 0.0 })
            .sum();
        score / denom
    }
}

/// Serialised state of one AUC-bandit arm.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmState {
    /// Improvement history window, oldest first.
    pub history: Vec<bool>,
    /// Total uses of the arm.
    pub uses: usize,
}

/// Serialised state of an [`Autotuner`]: everything that advances as the
/// search runs (RNG stream, bandit statistics, technique state, incumbent,
/// convergence counters). Restoring into a tuner constructed with the same
/// space and budgets resumes the exact proposal stream — the backbone of
/// the checkpoint/resume guarantee.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TunerState {
    /// Raw xoshiro256++ RNG state.
    pub rng: [u64; 4],
    /// Iterations executed.
    pub iterations: usize,
    /// Iterations since the incumbent last improved.
    pub since_improvement: usize,
    /// The incumbent `(config, fitness)`.
    pub best: Option<(Config, f64)>,
    /// Per-technique bandit statistics.
    pub arms: Vec<ArmState>,
    /// Per-technique adaptive state (same order as `arms`).
    pub techniques: Vec<TechniqueState>,
}

/// A configuration awaiting its fitness report
/// ([`Autotuner::report_proposal`]).
pub struct Proposal {
    /// The proposed configuration.
    pub config: Config,
    /// Which technique proposed it (index into the ensemble); `None` for a
    /// seed.
    technique_index: Option<usize>,
}

impl Proposal {
    /// A configuration supplied from outside the ensemble (a seed anchor):
    /// its report moves the incumbent and the budget but credits no
    /// technique.
    pub fn seed(config: Config) -> Proposal {
        Proposal {
            config,
            technique_index: None,
        }
    }
}

/// The ensemble autotuner.
///
/// Usage: while [`Autotuner::continue_tuning`], take a batch from
/// [`Autotuner::propose_batch`] (one proposal reproduces the classic
/// one-at-a-time loop), evaluate each configuration's fitness (higher is
/// better) and report every proposal, in order, with
/// [`Autotuner::report_proposal`] — see [`crate::evaluate`].
pub struct Autotuner {
    space: SearchSpace,
    techniques: Vec<Box<dyn Technique>>,
    arms: Vec<Arm>,
    rng: StdRng,
    best: Option<(Config, f64)>,
    iterations: usize,
    max_iterations: usize,
    since_improvement: usize,
    convergence_window: usize,
}

impl Autotuner {
    /// Creates a tuner over a space with iteration and convergence bounds
    /// (the paper: max 30 K iterations, convergence after 1 K without
    /// improvement).
    pub fn new(
        space: SearchSpace,
        max_iterations: usize,
        convergence_window: usize,
        seed: u64,
    ) -> Autotuner {
        use rand::SeedableRng;
        let techniques: Vec<Box<dyn Technique>> = vec![
            Box::new(RandomSearch),
            Box::new(GreedyMutation { sites: 2 }),
            Box::new(TorczonHillclimber {
                center: None,
                step: 1,
            }),
            Box::new(NelderMead {
                simplex: Vec::new(),
                max_vertices: 8,
            }),
        ];
        let arms = techniques.iter().map(|_| Arm::default()).collect();
        Autotuner {
            space,
            techniques,
            arms,
            rng: StdRng::seed_from_u64(seed),
            best: None,
            iterations: 0,
            max_iterations,
            since_improvement: 0,
            convergence_window,
        }
    }

    /// Whether tuning should continue (Algorithm 1's
    /// `autotuner.continueTuning()`).
    pub fn continue_tuning(&self) -> bool {
        self.iterations < self.max_iterations && self.since_improvement < self.convergence_window
    }

    /// Iterations executed so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// The incumbent best (config, fitness).
    pub fn best(&self) -> Option<&(Config, f64)> {
        self.best.as_ref()
    }

    /// AUC-bandit arm selection: best recent credit + exploration bonus.
    /// `in_batch` holds per-arm uses and `extra_iters` proposals already
    /// issued within the current (unreported) batch, so one batch spreads
    /// across arms like the same number of sequential picks would.
    fn select_technique_with(&self, in_batch: &[usize], extra_iters: usize) -> usize {
        let t = (self.iterations + extra_iters + 1) as f64;
        let mut best_i = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, arm) in self.arms.iter().enumerate() {
            let uses = arm.uses + in_batch[i];
            let exploration = (2.0 * t.ln() / uses.max(1) as f64).sqrt();
            let score = arm.auc() + exploration;
            if score > best_score {
                best_score = score;
                best_i = i;
            }
        }
        best_i
    }

    /// Algorithm 1's `autotuner.nextConfig()`, `k` at a time: proposes up to
    /// `k` configurations, capped at the remaining iteration budget.
    ///
    /// Technique selection and proposal advance only sequential state (the
    /// bandit statistics and the shared RNG), so the proposal stream of a
    /// seeded tuner is identical no matter how many threads later evaluate
    /// the batch. All proposals are generated against the incumbent best of
    /// the previous round (batch-synchronous semantics).
    pub fn propose_batch(&mut self, k: usize) -> Vec<Proposal> {
        let remaining = self.max_iterations.saturating_sub(self.iterations);
        let k = k.min(remaining);
        let mut in_batch = vec![0usize; self.techniques.len()];
        let mut proposals = Vec::with_capacity(k);
        for j in 0..k {
            let ti = self.select_technique_with(&in_batch, j);
            in_batch[ti] += 1;
            let config =
                self.techniques[ti].propose(&self.space, self.best.as_ref(), &mut self.rng);
            proposals.push(Proposal {
                config,
                technique_index: Some(ti),
            });
        }
        proposals
    }

    /// Algorithm 1's `autotuner.setConfigFitness(...)`: reports the fitness
    /// (higher is better) of one proposal. Callers must report every
    /// proposal of a batch, in proposal order, so seeded runs stay
    /// deterministic.
    pub fn report_proposal(&mut self, proposal: &Proposal, fitness: f64) {
        let config = &proposal.config;
        self.iterations += 1;
        let improved = match &self.best {
            Some((_, f)) => fitness > *f,
            None => true,
        };
        if improved {
            self.best = Some((config.clone(), fitness));
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }
        if let Some(ti) = proposal.technique_index {
            self.arms[ti].record(improved);
            self.techniques[ti].feedback(&self.space, config, fitness, improved);
        }
    }

    /// Captures all advancing state for a checkpoint. The search space and
    /// the iteration/convergence budgets are *not* captured — a resumed
    /// tuner must be constructed with the same parameters, which the tuning
    /// entry points derive deterministically from [`crate::tuner::TunerParams`].
    pub(crate) fn snapshot(&self) -> TunerState {
        TunerState {
            rng: self.rng.state(),
            iterations: self.iterations,
            since_improvement: self.since_improvement,
            best: self.best.clone(),
            arms: self
                .arms
                .iter()
                .map(|a| ArmState {
                    history: a.history.iter().copied().collect(),
                    uses: a.uses,
                })
                .collect(),
            techniques: self.techniques.iter().map(|t| t.state()).collect(),
        }
    }

    /// Restores state captured by [`Autotuner::snapshot`]. The proposal
    /// stream continues bit-identically from the snapshot point.
    pub(crate) fn restore(&mut self, state: &TunerState) {
        self.rng = StdRng::from_state(state.rng);
        self.iterations = state.iterations;
        self.since_improvement = state.since_improvement;
        self.best = state.best.clone();
        self.arms = state
            .arms
            .iter()
            .map(|a| Arm {
                history: a.history.iter().copied().collect(),
                uses: a.uses,
            })
            .collect();
        self.techniques = state.techniques.iter().map(technique_from_state).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn space(nodes: usize, knobs: usize) -> SearchSpace {
        SearchSpace::new(
            (0..nodes)
                .map(|_| (0..knobs as u16).map(KnobId).collect())
                .collect(),
        )
    }

    /// The classic loop: one proposal per round until the tuner stops.
    fn run_one_at_a_time(tuner: &mut Autotuner, fit: impl Fn(&Config, &SearchSpace) -> f64) {
        while tuner.continue_tuning() {
            for p in tuner.propose_batch(1) {
                let f = fit(&p.config, &tuner.space);
                tuner.report_proposal(&p, f);
            }
        }
    }

    #[test]
    fn indices_roundtrip() {
        let s = space(5, 4);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let c = s.random(&mut rng);
            let idx = s.to_indices(&c);
            let back = s.from_indices(&idx);
            assert_eq!(back, c);
        }
    }

    #[test]
    fn from_indices_clamps() {
        let s = space(3, 4);
        let c = s.from_indices(&[100, 100, 100]);
        for &k in c.knobs() {
            assert!(k.0 < 4);
        }
    }

    /// A separable toy objective: fitness is the negated distance of the
    /// knob-index vector from a hidden optimum. The ensemble should get
    /// close fast.
    #[test]
    fn ensemble_optimises_separable_objective() {
        let s = space(8, 6);
        let target: Vec<usize> = vec![3, 1, 5, 0, 2, 4, 1, 3];
        let fitness = |c: &Config, s: &SearchSpace| -> f64 {
            let idx = s.to_indices(c);
            -idx.iter()
                .zip(&target)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .sum::<f64>()
        };
        // Budget sized for the vendored deterministic RNG stream (the
        // paper runs 30 K iterations; 4 K is ample for 8 dimensions).
        let mut tuner = Autotuner::new(s, 4000, 1000, 42);
        run_one_at_a_time(&mut tuner, fitness);
        let (_, best_f) = tuner.best().unwrap();
        assert!(
            *best_f >= -2.0,
            "ensemble should approach the optimum, best fitness {best_f}"
        );
    }

    #[test]
    fn beats_pure_random_on_structured_objective() {
        // The same objective, same budget: ensemble vs random-only.
        let target: Vec<usize> = vec![3, 1, 5, 0, 2, 4, 1, 3, 2, 2];
        let fit = |c: &Config, s: &SearchSpace| -> f64 {
            let idx = s.to_indices(c);
            -idx.iter()
                .zip(&target)
                .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
                .sum::<f64>()
        };
        let budget = 400;
        let mut ensemble_best = f64::NEG_INFINITY;
        {
            let s = space(10, 6);
            let mut tuner = Autotuner::new(s, budget, budget, 7);
            run_one_at_a_time(&mut tuner, fit);
            ensemble_best = ensemble_best.max(tuner.best().unwrap().1);
        }
        let mut random_best = f64::NEG_INFINITY;
        {
            let s = space(10, 6);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..budget {
                let c = s.random(&mut rng);
                random_best = random_best.max(fit(&c, &s));
            }
        }
        assert!(
            ensemble_best >= random_best,
            "ensemble {ensemble_best} vs random {random_best}"
        );
    }

    #[test]
    fn convergence_window_stops_tuning() {
        let s = space(4, 3);
        let mut tuner = Autotuner::new(s, 10_000, 50, 1);
        // Constant fitness: no improvement after the first report.
        run_one_at_a_time(&mut tuner, |_, _| 0.0);
        assert!(tuner.iterations() <= 52, "did not converge");
    }

    #[test]
    fn propose_batch_respects_iteration_budget() {
        let mut tuner = Autotuner::new(space(4, 3), 10, 10, 2);
        assert_eq!(tuner.propose_batch(64).len(), 10);
        for p in tuner.propose_batch(64) {
            tuner.report_proposal(&p, 0.0);
        }
        assert_eq!(tuner.iterations(), 10);
        assert!(tuner.propose_batch(64).is_empty());
    }

    #[test]
    fn seeds_move_the_incumbent_but_credit_no_technique() {
        let mut tuner = Autotuner::new(space(3, 3), 10, 10, 1);
        let seed = Proposal::seed(Config::from_knobs(vec![KnobId(1); 3]));
        tuner.report_proposal(&seed, 5.0);
        assert_eq!(tuner.iterations(), 1);
        assert_eq!(tuner.best(), Some(&(seed.config.clone(), 5.0)));
        assert!(tuner
            .arms
            .iter()
            .all(|a| a.uses == 0 && a.history.is_empty()));
    }

    #[test]
    fn batch_spreads_across_techniques() {
        // With no history, the exploration bonus must not hand the whole
        // batch to one arm: in-batch uses count toward the bonus.
        let mut tuner = Autotuner::new(space(6, 5), 100, 100, 5);
        let batch = tuner.propose_batch(8);
        let distinct: std::collections::HashSet<usize> =
            batch.iter().filter_map(|p| p.technique_index).collect();
        assert!(distinct.len() >= 3, "batch used only {distinct:?}");
    }

    #[test]
    fn snapshot_restore_resumes_identical_stream() {
        // Run to completion once; re-run restoring a mid-flight snapshot
        // into a tuner with a *different* seed. Both must finish in the
        // same final state, proposal for proposal.
        let fit = |c: &Config, s: &SearchSpace| -> f64 {
            -(s.to_indices(c).iter().sum::<usize>() as f64)
        };
        let drive = |tuner: &mut Autotuner, snap_at: Option<usize>| -> Option<TunerState> {
            let mut snap = None;
            let mut round = 0;
            while tuner.continue_tuning() {
                let batch = tuner.propose_batch(4);
                if batch.is_empty() {
                    break;
                }
                for p in batch {
                    let f = fit(&p.config, &tuner.space);
                    tuner.report_proposal(&p, f);
                }
                round += 1;
                if snap_at == Some(round) {
                    snap = Some(tuner.snapshot());
                }
            }
            snap
        };
        let mut full = Autotuner::new(space(6, 5), 200, 200, 13);
        let snap = drive(&mut full, Some(5)).expect("snapshot at round 5");

        let mut resumed = Autotuner::new(space(6, 5), 200, 200, 999);
        resumed.restore(&snap);
        drive(&mut resumed, None);

        assert_eq!(full.iterations(), resumed.iterations());
        assert_eq!(full.best(), resumed.best());
        assert_eq!(full.snapshot(), resumed.snapshot());
    }

    #[test]
    fn auc_weights_recent_history() {
        let mut a = Arm::default();
        for _ in 0..10 {
            a.record(false);
        }
        let low = a.auc();
        for _ in 0..5 {
            a.record(true);
        }
        assert!(a.auc() > low);
    }
}
