//! Step 3 of Algorithm 1 and the selection after it: the `Evaluator`
//! abstraction over predictive and measured (QoS, perf) scoring, a
//! config-keyed memoisation cache, `search` — the one batch-synchronous
//! search driver of both the predictive ([`PredictiveTuner::tune`]) and
//! empirical ([`PredictiveTuner::tune_empirical`]) tuners — and `select`,
//! the ε-Pareto cut both apply to what the search found.
//!
//! # Batch-synchronous search
//!
//! Round 0 reports the seed anchors; every later round the AUC-bandit
//! ensemble proposes a *batch* of candidates
//! ([`crate::search::Autotuner::propose_batch`]). Each round is scored by
//! an `Evaluator` — concurrently for configurations not already in the
//! `EvalCache` — and the (fitness, config) results are reported back to
//! the bandit **in proposal order**. All bandit and RNG state advances only
//! on the sequential propose/report path, and every evaluator is a pure
//! function of the configuration, so a seeded run produces bit-identical
//! results regardless of the evaluation thread count.
//!
//! The only semantic difference from the one-at-a-time loop is staleness:
//! all proposals of a round are generated against the incumbent best of the
//! *previous* round, and the convergence window is checked per round rather
//! than per iteration (so a run can overshoot the window by at most one
//! batch).

use crate::checkpoint::{SearchCheckpoint, CHECKPOINT_VERSION};
use crate::config::Config;
use crate::fault::FaultyEvaluator;
use crate::pareto::{cap_points, eps_for_budget, pareto_set_eps, TradeoffCurve, TradeoffPoint};
use crate::perf::{PerfModel, Pricing};
use crate::predict::Predictor;
use crate::qos::QosReference;
use crate::search::{Autotuner, Proposal, SearchSpace};
use crate::supervise::{EvalError, FaultStats, SupervisedEvaluator};
use crate::tuner::{PredictiveTuner, TunerParams, TuningResult};
use at_tensor::TensorError;
use rayon::ParallelSlice;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One candidate's estimated quality and performance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// QoS estimate (same unit as the driving metric).
    pub qos: f64,
    /// Speedup estimate relative to the exact baseline.
    pub perf: f64,
}

/// Anything that can score a configuration with a (QoS, perf) pair.
///
/// `attempt` counts the supervisor's retries of one configuration
/// ([`crate::supervise`]). Real evaluators are pure per configuration —
/// the same configuration always yields the same evaluation — and ignore
/// it; the fault injector ([`crate::fault`]) draws from it, so an injected
/// transient fault can clear on retry while staying a pure function of
/// `(config, attempt)`. Results are memoised by the [`EvalCache`] and
/// unseen configurations are evaluated concurrently (hence the `Sync`
/// bound).
pub(crate) trait Evaluator: Sync {
    /// Scores one configuration on the given attempt.
    fn evaluate(&self, config: &Config, attempt: u32) -> Result<Evaluation, TensorError>;
}

/// The predictive path of Algorithm 1: QoS from the Π1/Π2 error-composition
/// models, performance from the analytical model. Cheap enough that the
/// cache mostly saves bookkeeping; parallelism still helps on Π1, which
/// composes full output tensors.
pub(crate) struct PredictiveEvaluator<'a> {
    /// The (calibrated) QoS predictor.
    pub predictor: &'a Predictor<'a>,
    /// The analytical performance model.
    pub perf: &'a PerfModel<'a>,
    /// The development-time price ([`TunerParams::pricing`]).
    pub pricing: Pricing<'a>,
    /// Reference data of the QoS metric.
    pub reference: &'a QosReference,
}

impl Evaluator for PredictiveEvaluator<'_> {
    fn evaluate(&self, config: &Config, _attempt: u32) -> Result<Evaluation, TensorError> {
        Ok(Evaluation {
            qos: self.predictor.predict(config, self.reference),
            perf: self.perf.speedup(config, &self.pricing)?,
        })
    }
}

/// The conventional empirical path: QoS from actually running the program
/// on the tuning run's calibration inputs (expensive — this is where
/// batching pays), performance from the analytical model.
pub(crate) struct EmpiricalEvaluator<'a> {
    /// The tuning run: program, calibration inputs, metric and seed.
    pub tuner: &'a PredictiveTuner<'a>,
    /// The analytical performance model.
    pub perf: &'a PerfModel<'a>,
    /// The development-time price ([`TunerParams::pricing`]).
    pub pricing: Pricing<'a>,
}

impl Evaluator for EmpiricalEvaluator<'_> {
    fn evaluate(&self, config: &Config, _attempt: u32) -> Result<Evaluation, TensorError> {
        Ok(Evaluation {
            qos: self.tuner.measure(config)?,
            perf: self.perf.speedup(config, &self.pricing)?,
        })
    }
}

/// Counters of the evaluation cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered by a previously stored evaluation.
    pub hits: usize,
    /// Lookups that required an evaluator invocation.
    pub misses: usize,
    /// Duplicate configurations within a single batch, coalesced into one
    /// evaluator invocation (counted separately from `hits` because the
    /// result was not yet stored when the batch was formed).
    pub dedup: usize,
}

impl CacheStats {
    /// Total lookups served.
    pub(crate) fn lookups(&self) -> usize {
        self.hits + self.misses + self.dedup
    }

    /// Fraction of lookups that avoided an evaluator invocation.
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            (self.hits + self.dedup) as f64 / n as f64
        }
    }
}

/// A config-keyed memoisation cache over an [`Evaluator`].
///
/// The search ensemble frequently re-proposes configurations it has already
/// visited (mutation of an incumbent, hillclimber contraction, random
/// collisions in small spaces); on the empirical path every such repeat
/// would re-run the whole program. The cache guarantees at most one
/// evaluator invocation per distinct configuration.
#[derive(Default)]
pub(crate) struct EvalCache {
    map: HashMap<Config, Evaluation>,
    stats: CacheStats,
}

impl EvalCache {
    /// An empty cache.
    pub(crate) fn new() -> EvalCache {
        EvalCache::default()
    }

    /// The hit/miss/dedup counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Scores a batch of configurations through a [`SupervisedEvaluator`],
    /// returning a per-config result in input order. Configurations not in
    /// the cache are evaluated concurrently (duplicates within the batch
    /// are coalesced first); everything else is served from memory. Only
    /// successful (finite) evaluations enter the cache; failures are
    /// reported as typed [`EvalError`]s, and in-batch duplicates of a
    /// failed config share its error.
    pub(crate) fn evaluate_batch_supervised(
        &mut self,
        supervisor: &SupervisedEvaluator<'_>,
        configs: &[Config],
    ) -> Vec<Result<Evaluation, EvalError>> {
        let mut fresh: Vec<Config> = Vec::new();
        let mut in_flight: HashMap<&Config, ()> = HashMap::new();
        for c in configs {
            if self.map.contains_key(c) {
                self.stats.hits += 1;
            } else if in_flight.contains_key(c) {
                self.stats.dedup += 1;
            } else {
                in_flight.insert(c, ());
                fresh.push(c.clone());
                self.stats.misses += 1;
            }
        }
        drop(in_flight);
        let results: Vec<Result<Evaluation, EvalError>> =
            fresh.par_iter().map(|c| supervisor.evaluate(c)).collect();
        let mut failed: HashMap<&Config, EvalError> = HashMap::new();
        for (c, r) in fresh.iter().zip(results) {
            match r {
                Ok(e) => {
                    self.map.insert(c.clone(), e);
                }
                Err(err) => {
                    failed.insert(c, err);
                }
            }
        }
        configs
            .iter()
            .map(|c| match self.map.get(c) {
                Some(e) => Ok(*e),
                None => Err(failed[c].clone()),
            })
            .collect()
    }

    /// Serialisable snapshot of the cache: entries sorted by knob vector
    /// (so two identical runs snapshot identically) plus the counters.
    pub(crate) fn snapshot(&self) -> CacheSnapshot {
        let mut entries: Vec<(Config, Evaluation)> =
            self.map.iter().map(|(c, e)| (c.clone(), *e)).collect();
        entries.sort_by_key(|(c, _)| c.knobs().to_vec());
        CacheSnapshot {
            entries,
            stats: self.stats,
        }
    }

    /// Rebuilds a cache from a [`EvalCache::snapshot`].
    pub(crate) fn from_snapshot(snap: &CacheSnapshot) -> EvalCache {
        EvalCache {
            map: snap.entries.iter().cloned().collect(),
            stats: snap.stats,
        }
    }
}

/// Serialised form of an `EvalCache`, stored inside checkpoints.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// `(config, evaluation)` pairs, sorted by knob vector.
    pub entries: Vec<(Config, Evaluation)>,
    /// The hit/miss/dedup counters at snapshot time.
    pub stats: CacheStats,
}

/// One round of per-batch telemetry from `search`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchTelemetry {
    /// Round index (0 = the seed-anchor round).
    pub round: usize,
    /// Configurations proposed this round.
    pub proposed: usize,
    /// Lookups served from the cache this round (hits + in-batch dedups).
    pub cached: usize,
    /// Evaluator invocations this round (cache misses).
    pub evaluated: usize,
    /// Candidates that failed supervision this round (skipped).
    pub failed: usize,
    /// Best fitness seen so far (after this round's reports).
    pub best_fitness: f64,
}

/// Everything the search produced.
pub(crate) struct SearchOutcome {
    /// Constraint-satisfying candidates, in report order.
    pub candidates: Vec<TradeoffPoint>,
    /// Per-round telemetry.
    pub telemetry: Vec<BatchTelemetry>,
    /// What supervision absorbed (faults, retries, quarantines, skips).
    pub faults: FaultStats,
    /// `true` if the loop stopped early at `halt_after_rounds` (a
    /// simulated crash) rather than by convergence or budget.
    pub halted: bool,
    /// Configurations reported to the bandit, seeds included.
    pub iterations: usize,
    /// The evaluation cache's counters.
    pub cache: CacheStats,
}

impl SearchOutcome {
    /// Packages the outcome with the curve a tuner built from it.
    pub(crate) fn into_result(
        self,
        curve: TradeoffCurve,
        search_time_s: f64,
        validation_time_s: f64,
        alpha: f64,
    ) -> TuningResult {
        TuningResult {
            curve,
            search_time_s,
            validation_time_s,
            iterations: self.iterations,
            // §7.3 "configurations generated": every iteration proposes one.
            candidates: self.iterations,
            alpha,
            cache: self.cache,
            telemetry: self.telemetry,
            faults: self.faults,
            halted: self.halted,
        }
    }
}

/// The fitness reported to the bandit for a candidate that failed
/// supervision (errors/panics on every attempt, poisoned readings, or
/// quarantine). Strongly negative so no failing technique looks good, yet
/// finite so telemetry and checkpoints serialise exactly.
pub(crate) const FAILED_FITNESS: f64 = -1.0e9;

/// Step 3 of Algorithm 1, the search loop of both tuners.
///
/// `seeds` are round 0: scored through the same cache path as every
/// proposal batch and reported without technique attribution. Then, while
/// [`Autotuner::continue_tuning`], the bandit proposes up to
/// `params.batch_size` candidates per round, the supervised cache path
/// scores them, and the fitness `perf if qos ≥ qos_min else qos − qos_min`
/// is reported back in proposal order. Candidates with `qos > qos_min` are
/// collected as tradeoff points.
///
/// `params.robustness` wires in everything else. The optional fault plan
/// wraps the evaluator, and every candidate runs under the supervision
/// policy's isolation/retry/quarantine envelope: a candidate that fails for
/// good is *skipped* — it is reported to the bandit as [`FAILED_FITNESS`]
/// (so bandit and RNG state advance identically on every replay) but never
/// enters the cache or the candidate set, and the round continues. A
/// checkpoint policy writes a [`SearchCheckpoint`] every N completed rounds
/// (I/O failures are logged and ignored — an unwritable disk must not kill
/// a tuning campaign), and `halt_after_rounds` stops the loop there with
/// `halted = true`. `resume_from` is checked against the run's parameters
/// and restores tuner, cache and supervision state, and the loop continues
/// from the following round; a resumed run is bit-identical to one that
/// never stopped.
pub(crate) fn search(
    space: SearchSpace,
    evaluator: &dyn Evaluator,
    seeds: &[Config],
    params: &TunerParams,
) -> Result<SearchOutcome, TensorError> {
    let qos_min = params.qos_min;
    let batch_size = params.batch_size.max(1);
    let robustness = &params.robustness;
    let resume = robustness.resume_from.as_ref();
    if let Some(cp) = resume {
        cp.validate_run(qos_min, batch_size)
            .map_err(|e| TensorError::Transient {
                detail: e.to_string(),
            })?;
    }
    let faulty;
    let evaluator: &dyn Evaluator = match &robustness.fault_plan {
        Some(plan) => {
            faulty = FaultyEvaluator::new(evaluator, plan.clone());
            &faulty
        }
        None => evaluator,
    };
    let supervisor = SupervisedEvaluator::new(evaluator);
    let mut tuner = Autotuner::new(
        space,
        params.max_iters,
        params.convergence_window,
        params.seed,
    );
    let mut cache = EvalCache::new();
    let mut candidates: Vec<TradeoffPoint> = Vec::new();
    // One entry per completed round, so its length is the round count.
    let mut telemetry: Vec<BatchTelemetry> = Vec::new();
    if let Some(cp) = resume {
        tuner.restore(&cp.tuner);
        cache = EvalCache::from_snapshot(&cp.cache);
        supervisor.restore(&cp.supervision);
        candidates = cp.candidates.clone();
        telemetry = cp.telemetry.clone();
    }

    let save_checkpoint = |tuner: &Autotuner,
                           cache: &EvalCache,
                           candidates: &[TradeoffPoint],
                           telemetry: &[BatchTelemetry]| {
        if let Some(policy) = &robustness.checkpoint {
            let cp = SearchCheckpoint {
                version: CHECKPOINT_VERSION,
                qos_min,
                batch_size,
                rounds: telemetry.len(),
                tuner: tuner.snapshot(),
                cache: cache.snapshot(),
                candidates: candidates.to_vec(),
                telemetry: telemetry.to_vec(),
                supervision: supervisor.snapshot(),
                // `save` seals the written copy.
                fingerprint: 0,
            };
            if let Err(e) = cp.save(&policy.path) {
                eprintln!(
                    "[at-core] checkpoint write to {} failed (continuing): {e}",
                    policy.path.display()
                );
            }
        }
    };

    let mut halted = false;
    let mut proposals: Vec<Proposal> = if telemetry.is_empty() {
        seeds.iter().cloned().map(Proposal::seed).collect()
    } else {
        Vec::new()
    };
    loop {
        if proposals.is_empty() {
            if !tuner.continue_tuning() {
                break;
            }
            if robustness
                .halt_after_rounds
                .is_some_and(|h| telemetry.len() >= h)
            {
                // A simulated crash still leaves a checkpoint at the exact
                // halt round so resume tests have a well-defined restart
                // point.
                halted = true;
                save_checkpoint(&tuner, &cache, &candidates, &telemetry);
                break;
            }
            proposals = tuner.propose_batch(batch_size);
            if proposals.is_empty() {
                break;
            }
        }
        let configs: Vec<Config> = proposals.iter().map(|p| p.config.clone()).collect();
        let before = cache.stats();
        let results = cache.evaluate_batch_supervised(&supervisor, &configs);
        let mut failed = 0usize;
        for (proposal, result) in proposals.iter().zip(&results) {
            let fitness = supervised_fitness(
                &proposal.config,
                result,
                qos_min,
                &mut candidates,
                &mut failed,
            );
            tuner.report_proposal(proposal, fitness);
        }
        supervisor.note_skipped(failed as u64);
        telemetry.push(round_entry(
            telemetry.len(),
            proposals.len(),
            failed,
            before,
            cache.stats(),
            &tuner,
        ));
        if robustness
            .checkpoint
            .as_ref()
            .is_some_and(|p| telemetry.len().is_multiple_of(p.every_rounds.max(1)))
        {
            save_checkpoint(&tuner, &cache, &candidates, &telemetry);
        }
        proposals.clear();
    }

    Ok(SearchOutcome {
        candidates,
        telemetry,
        faults: supervisor.stats(),
        halted,
        iterations: tuner.iterations(),
        cache: cache.stats(),
    })
}

/// Step 4 of Algorithm 1: the configurations within ε of the Pareto set of
/// `candidates`, with ε chosen per benchmark so at most `budget` survive,
/// each configuration once, capped at `budget`.
pub(crate) fn select(candidates: &[TradeoffPoint], budget: usize) -> Vec<TradeoffPoint> {
    let eps = eps_for_budget(candidates, budget);
    let mut kept = pareto_set_eps(candidates, eps);
    kept.sort_by(|a, b| a.perf.total_cmp(&b.perf));
    kept.dedup_by(|a, b| a.config == b.config);
    cap_points(kept, budget)
}

/// The shared fitness shape: maximise speedup subject to the QoS
/// constraint; a violated constraint scores by (negative) violation so the
/// search is pulled back toward feasibility. Feasible candidates are
/// collected as tradeoff points; failed candidates are skipped and score
/// [`FAILED_FITNESS`].
fn supervised_fitness(
    config: &Config,
    result: &Result<Evaluation, EvalError>,
    qos_min: f64,
    candidates: &mut Vec<TradeoffPoint>,
    failed: &mut usize,
) -> f64 {
    match result {
        Ok(eval) => {
            if eval.qos > qos_min {
                candidates.push(TradeoffPoint {
                    qos: eval.qos,
                    perf: eval.perf,
                    config: config.clone(),
                });
            }
            if eval.qos >= qos_min {
                eval.perf
            } else {
                eval.qos - qos_min
            }
        }
        Err(_) => {
            *failed += 1;
            FAILED_FITNESS
        }
    }
}

fn round_entry(
    round: usize,
    proposed: usize,
    failed: usize,
    before: CacheStats,
    after: CacheStats,
    tuner: &Autotuner,
) -> BatchTelemetry {
    BatchTelemetry {
        round,
        proposed,
        cached: (after.hits - before.hits) + (after.dedup - before.dedup),
        evaluated: after.misses - before.misses,
        failed,
        // `f64::MIN`, not −∞: telemetry lives inside checkpoints, and the
        // vendored serde_json maps non-finite floats to `null`.
        best_fitness: tuner.best().map_or(f64::MIN, |(_, f)| *f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pure synthetic evaluator that counts its invocations.
    struct CountingEvaluator {
        calls: AtomicUsize,
    }

    impl Evaluator for CountingEvaluator {
        fn evaluate(&self, config: &Config, _attempt: u32) -> Result<Evaluation, TensorError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            // A deterministic, position-weighted landscape so distinct
            // knob vectors score distinctly.
            let s: u32 = config
                .knobs()
                .iter()
                .enumerate()
                .map(|(i, k)| (i as u32 + 1) * k.0 as u32)
                .sum();
            Ok(Evaluation {
                qos: 100.0 - s as f64,
                perf: 1.0 + 0.3 * s as f64,
            })
        }
    }

    fn tiny_space() -> SearchSpace {
        // 2 tunable nodes × 3 knobs → at most 9 distinct configurations.
        SearchSpace::new(vec![
            (0..3u16).map(KnobId).collect(),
            (0..3u16).map(KnobId).collect(),
        ])
    }

    fn search_params(max_iters: usize, batch_size: usize, seed: u64) -> TunerParams {
        TunerParams {
            qos_min: 90.0,
            max_iters,
            convergence_window: max_iters,
            batch_size,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn cache_bounds_evaluator_invocations_by_space_size() {
        let evaluator = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let outcome = search(tiny_space(), &evaluator, &[], &search_params(300, 16, 11)).unwrap();
        let calls = evaluator.calls.load(Ordering::SeqCst);
        let stats = outcome.cache;
        assert!(calls <= 9, "evaluator ran {calls} times for ≤ 9 configs");
        assert_eq!(calls, stats.misses, "misses must equal real invocations");
        assert!(stats.hits > 0, "300 iterations over 9 configs must hit");
        assert_eq!(stats.lookups(), outcome.iterations);
        assert!(!outcome.telemetry.is_empty());
        assert!(stats.hit_rate() > 0.9, "hit rate {}", stats.hit_rate());
    }

    #[test]
    fn seeds_are_round_zero_of_the_same_loop() {
        let evaluator = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let seed = Config::from_knobs(vec![KnobId(0), KnobId(0)]);
        let seeds = vec![seed.clone(), seed];
        let outcome = search(tiny_space(), &evaluator, &seeds, &search_params(20, 4, 3)).unwrap();
        let round0 = outcome.telemetry[0];
        assert_eq!((round0.round, round0.proposed), (0, 2));
        assert_eq!((round0.evaluated, round0.cached), (1, 1));
        // Seeds count against the iteration budget like any proposal.
        assert_eq!(outcome.iterations, 20);
        assert_eq!(outcome.cache.lookups(), 20);
    }

    #[test]
    fn batch_evaluations_preserve_input_order_and_dedup() {
        let evaluator = CountingEvaluator {
            calls: AtomicUsize::new(0),
        };
        let sup = SupervisedEvaluator::new(&evaluator);
        let mut cache = EvalCache::new();
        let a = Config::from_knobs(vec![KnobId(0), KnobId(2)]);
        let b = Config::from_knobs(vec![KnobId(1), KnobId(1)]);
        let batch = vec![a.clone(), b.clone(), a.clone()];
        let evals = cache.evaluate_batch_supervised(&sup, &batch);
        assert!(evals.iter().all(Result::is_ok));
        assert_eq!(evals[0], evals[2], "same config, same evaluation");
        assert_ne!(evals[0], evals[1]);
        assert_eq!(evaluator.calls.load(Ordering::SeqCst), 2);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                dedup: 1
            }
        );
        // A second batch of known configs is served entirely from memory.
        let again = cache.evaluate_batch_supervised(&sup, &batch);
        assert_eq!(again, evals);
        assert_eq!(evaluator.calls.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn batched_evaluation_overlaps_evaluator_latency() {
        // A latency-bound evaluator (the empirical path measuring a real
        // program, a remote device, I/O) must be overlapped by the batch
        // path: 16 distinct configs at 10 ms each take ~160 ms
        // sequentially, so with 8 evaluation threads the wall clock must
        // drop at least 2x. This holds even on a single-core machine
        // because the latency, not the CPU, is the bottleneck.
        struct Sleepy;
        impl Evaluator for Sleepy {
            fn evaluate(&self, config: &Config, _attempt: u32) -> Result<Evaluation, TensorError> {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(Evaluation {
                    qos: f64::from(config.knobs()[0].0),
                    perf: 1.0,
                })
            }
        }
        let configs: Vec<Config> = (0..16u16)
            .map(|i| Config::from_knobs(vec![KnobId(i)]))
            .collect();
        let timed = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let sup = SupervisedEvaluator::new(&Sleepy);
            let mut cache = EvalCache::new();
            let started = std::time::Instant::now();
            let evals = pool.install(|| cache.evaluate_batch_supervised(&sup, &configs));
            let elapsed = started.elapsed().as_secs_f64();
            assert!(evals.iter().all(Result::is_ok));
            elapsed
        };
        let single = timed(1);
        let multi = timed(8);
        assert!(
            multi * 2.0 <= single,
            "expected >=2x batch throughput with 8 threads: single {single:.3}s, multi {multi:.3}s"
        );
    }

    #[test]
    fn batched_search_matches_sequential_iteration_budget() {
        // batch_size 1 must behave like the classic loop: the iteration
        // count respects max_iters exactly.
        for batch in [1usize, 7, 16] {
            let evaluator = CountingEvaluator {
                calls: AtomicUsize::new(0),
            };
            let outcome =
                search(tiny_space(), &evaluator, &[], &search_params(50, batch, 3)).unwrap();
            assert!(
                outcome.iterations <= 50,
                "batch {batch}: iterations {} exceed the budget",
                outcome.iterations
            );
        }
    }

    #[test]
    fn select_dedups_and_honours_the_budget() {
        let point = |k: u16, qos: f64, perf: f64| TradeoffPoint {
            qos,
            perf,
            config: Config::from_knobs(vec![KnobId(k)]),
        };
        let candidates: Vec<TradeoffPoint> = (0..40u16)
            .map(|k| point(k, 100.0 - f64::from(k), 1.0 + 0.1 * f64::from(k)))
            .chain((0..40u16).map(|k| point(k, 100.0 - f64::from(k), 1.0 + 0.1 * f64::from(k))))
            .collect();
        let kept = select(&candidates, 12);
        assert!(!kept.is_empty() && kept.len() <= 12, "{} kept", kept.len());
        for pair in kept.windows(2) {
            assert!(pair[0].perf <= pair[1].perf, "not sorted by perf");
            assert_ne!(pair[0].config, pair[1].config, "duplicate config kept");
        }
    }
}
