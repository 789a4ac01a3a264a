//! Supervised candidate evaluation: isolation, retry, quarantine.
//!
//! The batch driver in [`crate::evaluate`] hands every candidate to a
//! `SupervisedEvaluator` instead of calling the raw evaluator directly.
//! Supervision provides four guarantees the long-running tuning phases
//! need (ISSUE 3):
//!
//! 1. **Isolation** — a panicking evaluation is caught per candidate
//!    (`catch_unwind`), so one bad measurement cannot abort a round.
//! 2. **Retry** — transient failures are retried at once, up to an attempt
//!    budget. There is no backoff: an attempt's outcome depends only on
//!    `(config, attempt)`, so waiting between attempts could not change it.
//! 3. **Quarantine** — configs that exhaust their budget repeatedly are
//!    quarantined and refused instantly on later proposals, so the bandit
//!    cannot keep burning the budget on a poisoned corner of the space.
//! 4. **Sanitisation** — non-finite QoS/perf readings become typed
//!    `EvalError::NonFinite` values; they never enter the
//!    `crate::evaluate::EvalCache` or the Pareto front.
//!
//! Determinism: attempt indices are tracked *per config* and persist in
//! checkpoints, so a resumed campaign replays the same
//! `(config, attempt)` fault draws as an uninterrupted one.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::config::Config;
use crate::evaluate::{Evaluation, Evaluator};
use crate::fault::InjectedPanic;
use at_tensor::TensorError;

/// Why a supervised evaluation failed for good.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum EvalError {
    /// The underlying evaluator returned an error on every attempt; this
    /// is the last one.
    Tensor(TensorError),
    /// The evaluation panicked on every attempt; `detail` describes the
    /// last payload.
    Panicked {
        /// Rendered panic payload.
        detail: String,
    },
    /// The evaluator answered, but with non-finite QoS or performance.
    NonFinite {
        /// Reported QoS (possibly NaN/±inf).
        qos: f64,
        /// Reported relative performance (possibly NaN/±inf).
        perf: f64,
    },
    /// The config is quarantined after repeated budget exhaustion; it was
    /// refused without running.
    Quarantined,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Tensor(e) => write!(f, "evaluation failed: {e}"),
            EvalError::Panicked { detail } => write!(f, "evaluation panicked: {detail}"),
            EvalError::NonFinite { qos, perf } => {
                write!(f, "non-finite evaluation (qos={qos}, perf={perf})")
            }
            EvalError::Quarantined => write!(f, "config is quarantined"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Attempts per candidate per round.
const MAX_ATTEMPTS: u32 = 4;
/// Rounds of budget exhaustion before a config is quarantined.
const QUARANTINE_THRESHOLD: u32 = 1;

/// Counters describing what supervision absorbed during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Evaluation attempts actually executed.
    pub attempts: u64,
    /// Retries (attempts beyond the first for a candidate in a round).
    pub retries: u64,
    /// Typed evaluator errors caught.
    pub errors_caught: u64,
    /// Panics caught and contained.
    pub panics_caught: u64,
    /// Evaluations discarded for non-finite QoS/perf.
    pub poisoned: u64,
    /// Candidates that exhausted their attempt budget in some round.
    pub exhausted: u64,
    /// Configs currently quarantined.
    pub quarantined: u64,
    /// Evaluations refused because the config was already quarantined.
    pub quarantine_hits: u64,
    /// Candidates skipped by the driver (failed for good in a round).
    pub skipped: u64,
}

impl FaultStats {
    /// Total faults absorbed (errors + panics + poisoned readings).
    pub fn faults_absorbed(&self) -> u64 {
        self.errors_caught + self.panics_caught + self.poisoned
    }

    /// Accumulates `other` into `self`, except `quarantined` which is a
    /// level, not a counter (the caller sets it from the quarantine set).
    fn merge(&mut self, other: &FaultStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.errors_caught += other.errors_caught;
        self.panics_caught += other.panics_caught;
        self.poisoned += other.poisoned;
        self.exhausted += other.exhausted;
        self.quarantine_hits += other.quarantine_hits;
        self.skipped += other.skipped;
    }
}

/// Mutable supervision state, serialisable for checkpoints.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SupervisionSnapshot {
    /// Accumulated counters.
    pub stats: FaultStats,
    /// Quarantined configs, sorted by knob vector for determinism.
    pub quarantine: Vec<Config>,
    /// Budget-exhaustion counts per config (sorted), for configs not yet
    /// over the quarantine threshold.
    pub failures: Vec<(Config, u32)>,
    /// Next attempt index per config (sorted), so resumed runs replay the
    /// same `(config, attempt)` fault draws.
    pub attempt_base: Vec<(Config, u32)>,
}

struct SupState {
    stats: FaultStats,
    quarantine: HashSet<Config>,
    failures: HashMap<Config, u32>,
    attempt_base: HashMap<Config, u32>,
}

/// Wraps an evaluator with isolation, retry, quarantine and sanitisation.
/// Shared across the batch driver's worker threads; the internal mutex
/// guards only bookkeeping, never an in-flight evaluation.
pub(crate) struct SupervisedEvaluator<'a> {
    inner: &'a dyn Evaluator,
    state: Mutex<SupState>,
}

impl<'a> SupervisedEvaluator<'a> {
    /// Supervises `inner`.
    pub(crate) fn new(inner: &'a dyn Evaluator) -> Self {
        SupervisedEvaluator {
            inner,
            state: Mutex::new(SupState {
                stats: FaultStats::default(),
                quarantine: HashSet::new(),
                failures: HashMap::new(),
                attempt_base: HashMap::new(),
            }),
        }
    }

    /// Evaluates `config` under supervision: up to [`MAX_ATTEMPTS`] isolated
    /// attempts, refusing quarantined configs and rejecting non-finite
    /// readings.
    pub(crate) fn evaluate(&self, config: &Config) -> Result<Evaluation, EvalError> {
        let base = {
            let mut st = self.state.lock().expect("supervision state poisoned");
            if st.quarantine.contains(config) {
                st.stats.quarantine_hits += 1;
                return Err(EvalError::Quarantined);
            }
            *st.attempt_base.get(config).unwrap_or(&0)
        };

        // Run the attempts without holding the lock; accumulate locally.
        let mut local = FaultStats::default();
        let mut outcome = Err(EvalError::Panicked {
            detail: "no attempts executed".into(),
        });
        for i in 0..MAX_ATTEMPTS {
            if i > 0 {
                local.retries += 1;
            }
            local.attempts += 1;
            let attempt = base + i;
            match catch_unwind(AssertUnwindSafe(|| self.inner.evaluate(config, attempt))) {
                Ok(Ok(e)) if e.qos.is_finite() && e.perf.is_finite() => {
                    outcome = Ok(e);
                    break;
                }
                Ok(Ok(e)) => {
                    local.poisoned += 1;
                    outcome = Err(EvalError::NonFinite {
                        qos: e.qos,
                        perf: e.perf,
                    });
                }
                Ok(Err(e)) => {
                    local.errors_caught += 1;
                    outcome = Err(EvalError::Tensor(e));
                }
                Err(payload) => {
                    local.panics_caught += 1;
                    outcome = Err(EvalError::Panicked {
                        detail: describe_panic(&payload),
                    });
                }
            }
        }

        let mut st = self.state.lock().expect("supervision state poisoned");
        st.stats.merge(&local);
        // Advance the per-config attempt cursor past everything we drew,
        // so a later round (or a resumed run) sees fresh fault draws.
        let consumed = local.attempts.min(u32::MAX as u64) as u32;
        st.attempt_base.insert(config.clone(), base + consumed);
        if outcome.is_err() {
            st.stats.exhausted += 1;
            let n = st.failures.entry(config.clone()).or_insert(0);
            *n += 1;
            if *n >= QUARANTINE_THRESHOLD {
                st.quarantine.insert(config.clone());
                st.failures.remove(config);
            }
            st.stats.quarantined = st.quarantine.len() as u64;
        }
        outcome
    }

    /// Accumulated counters (with `quarantined` set to the current level).
    pub(crate) fn stats(&self) -> FaultStats {
        let st = self.state.lock().expect("supervision state poisoned");
        let mut s = st.stats;
        s.quarantined = st.quarantine.len() as u64;
        s
    }

    /// Records `n` driver-level skips (candidates dropped from a round).
    pub(crate) fn note_skipped(&self, n: u64) {
        self.state
            .lock()
            .expect("supervision state poisoned")
            .stats
            .skipped += n;
    }

    /// Serialisable snapshot of all supervision state (sorted, so two
    /// identical runs snapshot identically despite hash-map internals).
    pub(crate) fn snapshot(&self) -> SupervisionSnapshot {
        let st = self.state.lock().expect("supervision state poisoned");
        let sort_key = |c: &Config| c.knobs().to_vec();
        let mut quarantine: Vec<Config> = st.quarantine.iter().cloned().collect();
        quarantine.sort_by_key(sort_key);
        let mut failures: Vec<(Config, u32)> =
            st.failures.iter().map(|(c, n)| (c.clone(), *n)).collect();
        failures.sort_by_key(|(c, _)| sort_key(c));
        let mut attempt_base: Vec<(Config, u32)> = st
            .attempt_base
            .iter()
            .map(|(c, n)| (c.clone(), *n))
            .collect();
        attempt_base.sort_by_key(|(c, _)| sort_key(c));
        let mut stats = st.stats;
        stats.quarantined = st.quarantine.len() as u64;
        SupervisionSnapshot {
            stats,
            quarantine,
            failures,
            attempt_base,
        }
    }

    /// Restores state captured by [`SupervisedEvaluator::snapshot`].
    pub(crate) fn restore(&self, snap: &SupervisionSnapshot) {
        let mut st = self.state.lock().expect("supervision state poisoned");
        st.stats = snap.stats;
        st.quarantine = snap.quarantine.iter().cloned().collect();
        st.failures = snap.failures.iter().cloned().collect();
        st.attempt_base = snap.attempt_base.iter().cloned().collect();
    }
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic (attempt {})", p.attempt)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultMix, FaultPlan, FaultyEvaluator};
    use crate::knobs::KnobId;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Good;
    impl Evaluator for Good {
        fn evaluate(&self, _: &Config, _: u32) -> Result<Evaluation, TensorError> {
            Ok(Evaluation {
                qos: 95.0,
                perf: 2.0,
            })
        }
    }

    /// Fails the first `fail_first` calls, then succeeds.
    struct FlakyN {
        fail_first: u64,
        calls: AtomicU64,
    }
    impl Evaluator for FlakyN {
        fn evaluate(&self, _: &Config, _: u32) -> Result<Evaluation, TensorError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(TensorError::Transient {
                    detail: format!("flaky call {n}"),
                })
            } else {
                Ok(Evaluation {
                    qos: 90.0,
                    perf: 1.2,
                })
            }
        }
    }

    struct AlwaysPanics;
    impl Evaluator for AlwaysPanics {
        fn evaluate(&self, _: &Config, _: u32) -> Result<Evaluation, TensorError> {
            panic!("genuine bug");
        }
    }

    fn cfg(x: u16) -> Config {
        Config::from_knobs(vec![KnobId(x)])
    }

    #[test]
    fn clean_evaluator_passes_through() {
        let sup = SupervisedEvaluator::new(&Good);
        let e = sup.evaluate(&cfg(1)).unwrap();
        assert_eq!(e.qos, 95.0);
        let s = sup.stats();
        assert_eq!(s.attempts, 1);
        assert_eq!(s.retries, 0);
        assert_eq!(s.faults_absorbed(), 0);
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let flaky = FlakyN {
            fail_first: 2,
            calls: AtomicU64::new(0),
        };
        let sup = SupervisedEvaluator::new(&flaky);
        let e = sup.evaluate(&cfg(1)).unwrap();
        assert_eq!(e.perf, 1.2);
        let s = sup.stats();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.errors_caught, 2);
        assert_eq!(s.exhausted, 0);
    }

    #[test]
    fn panics_are_contained_and_budget_respected() {
        let sup = SupervisedEvaluator::new(&AlwaysPanics);
        let err = sup.evaluate(&cfg(1)).unwrap_err();
        assert!(matches!(err, EvalError::Panicked { .. }), "{err}");
        let s = sup.stats();
        assert_eq!(s.attempts, 4);
        assert_eq!(s.panics_caught, 4);
        assert_eq!(s.exhausted, 1);
    }

    #[test]
    fn exhausted_configs_are_quarantined_and_refused() {
        let sup = SupervisedEvaluator::new(&AlwaysPanics);
        assert!(sup.evaluate(&cfg(7)).is_err());
        // Default threshold quarantines after one exhausted round.
        let err = sup.evaluate(&cfg(7)).unwrap_err();
        assert_eq!(err, EvalError::Quarantined);
        let s = sup.stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.quarantine_hits, 1);
        // The quarantined retry did not run any attempts.
        assert_eq!(s.attempts, 4);
    }

    #[test]
    fn non_finite_evaluations_become_typed_errors() {
        struct Poison;
        impl Evaluator for Poison {
            fn evaluate(&self, _: &Config, _: u32) -> Result<Evaluation, TensorError> {
                Ok(Evaluation {
                    qos: f64::NAN,
                    perf: 1.0,
                })
            }
        }
        let sup = SupervisedEvaluator::new(&Poison);
        let err = sup.evaluate(&cfg(1)).unwrap_err();
        assert!(matches!(err, EvalError::NonFinite { .. }), "{err}");
        assert_eq!(sup.stats().poisoned, 4);
    }

    #[test]
    fn injected_faults_recover_within_budget() {
        let plan = FaultPlan {
            rate: 0.4,
            seed: 11,
            mix: FaultMix {
                error: 1.0,
                panic: 0.0,
                stall: 0.0,
                poison_qos: 0.0,
                poison_perf: 0.0,
            },
            stall_ms: 0,
        };
        let faulty = FaultyEvaluator::new(&Good, plan);
        let sup = SupervisedEvaluator::new(&faulty);
        let mut ok = 0;
        for x in 0..100u16 {
            if sup.evaluate(&cfg(x)).is_ok() {
                ok += 1;
            }
        }
        // P(4 consecutive faults) = 0.4^4 ≈ 2.6%; nearly all succeed.
        assert!(ok >= 90, "only {ok}/100 recovered");
        assert!(sup.stats().errors_caught > 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_attempt_cursors() {
        let flaky = FlakyN {
            fail_first: 2,
            calls: AtomicU64::new(0),
        };
        let sup = SupervisedEvaluator::new(&flaky);
        sup.evaluate(&cfg(1)).unwrap();
        let snap = sup.snapshot();
        assert_eq!(snap.attempt_base, vec![(cfg(1), 3)]);

        let sup2 = SupervisedEvaluator::new(&Good);
        sup2.restore(&snap);
        assert_eq!(sup2.snapshot(), snap);
        assert_eq!(sup2.stats(), sup.stats());
    }
}
