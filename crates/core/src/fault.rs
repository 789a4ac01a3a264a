//! Deterministic fault injection for the tuning pipeline.
//!
//! Development-time autotuning runs for hours against simulators and (at
//! install time) real edge devices, so candidate evaluation is the part of
//! the pipeline most exposed to transient failures: flaky device
//! measurements, simulator crashes, stragglers, and corrupted readings.
//! This module provides the *test harness* side of that story: a seeded,
//! replayable [`FaultPlan`] and a `FaultyEvaluator` wrapper that injects
//! faults into any evaluator so the supervision layer
//! ([`crate::supervise`]) can be exercised — and the whole tuner proven
//! fault-tolerant — without any real hardware misbehaving on cue.
//!
//! Every injection decision is a pure function of `(config, attempt,
//! seed)`: re-running a seeded tuning campaign replays exactly the same
//! faults at exactly the same points regardless of thread count or wall
//! clock, which is what makes the fault-rate sweeps (`tune_faults`) and the
//! crash/resume tests reproducible.

use crate::config::Config;
use crate::evaluate::{Evaluation, Evaluator};
use crate::guard::{mix64, unit_interval};
use crate::ship::{fnv1a, FNV_OFFSET};
use at_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The evaluator returns a transient [`TensorError`] (retry-worthy).
    TransientError,
    /// The evaluator panics mid-evaluation.
    Panic,
    /// The evaluator stalls (a simulated straggler) before answering.
    Stall,
    /// The evaluator answers with a non-finite QoS value.
    PoisonQos,
    /// The evaluator answers with a non-finite performance value.
    PoisonPerf,
}

/// Relative weights of the fault kinds within a plan.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultMix {
    /// Weight of `FaultKind::TransientError`.
    pub error: f64,
    /// Weight of `FaultKind::Panic`.
    pub panic: f64,
    /// Weight of `FaultKind::Stall`.
    pub stall: f64,
    /// Weight of `FaultKind::PoisonQos`.
    pub poison_qos: f64,
    /// Weight of `FaultKind::PoisonPerf`.
    pub poison_perf: f64,
}

impl Default for FaultMix {
    fn default() -> Self {
        // Errors dominate (the realistic case), panics and poisoned values
        // are common enough to matter, stragglers are rare.
        FaultMix {
            error: 4.0,
            panic: 2.0,
            stall: 1.0,
            poison_qos: 2.0,
            poison_perf: 1.0,
        }
    }
}

impl FaultMix {
    fn total(&self) -> f64 {
        self.error + self.panic + self.stall + self.poison_qos + self.poison_perf
    }

    /// Picks a kind from a uniform draw in `[0, 1)`.
    fn pick(&self, u: f64) -> FaultKind {
        let total = self.total();
        if total <= 0.0 {
            return FaultKind::TransientError;
        }
        let mut x = u * total;
        for (w, k) in [
            (self.error, FaultKind::TransientError),
            (self.panic, FaultKind::Panic),
            (self.stall, FaultKind::Stall),
            (self.poison_qos, FaultKind::PoisonQos),
            (self.poison_perf, FaultKind::PoisonPerf),
        ] {
            if x < w {
                return k;
            }
            x -= w;
        }
        FaultKind::PoisonPerf
    }
}

/// A seeded, replayable fault-injection plan.
///
/// `fault_for(config, attempt)` is pure: the same `(config, attempt,
/// seed)` triple always yields the same decision, so a retried attempt sees
/// a *fresh* (but still deterministic) draw — transient faults clear on
/// retry with probability `1 - rate` per attempt, exactly like a flaky
/// device would.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-attempt fault probability in `[0, 1]`.
    pub rate: f64,
    /// Seed decorrelating this plan from the search RNG.
    pub seed: u64,
    /// Relative weights of the injected fault kinds.
    pub mix: FaultMix,
    /// Simulated straggler delay for `FaultKind::Stall`, milliseconds.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// SplitMix64-style finalizer over an FNV-1a hash of the triple.
    fn draw(&self, config: &Config, attempt: u32, stream: u64) -> f64 {
        let mut h = FNV_OFFSET ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        for k in config.knobs() {
            eat(&k.0.to_le_bytes());
        }
        eat(&attempt.to_le_bytes());
        eat(&stream.to_le_bytes());
        // Finalize so nearby triples decorrelate.
        unit_interval(mix64(h))
    }

    /// The (pure, replayable) injection decision for one evaluation
    /// attempt: `None` means the attempt runs clean.
    pub(crate) fn fault_for(&self, config: &Config, attempt: u32) -> Option<FaultKind> {
        if self.draw(config, attempt, 0) < self.rate {
            Some(self.mix.pick(self.draw(config, attempt, 1)))
        } else {
            None
        }
    }
}

/// The panic payload used by injected panics, so the supervision layer and
/// the test panic hook can tell them apart from genuine bugs.
#[derive(Debug)]
pub(crate) struct InjectedPanic {
    /// The attempt index the panic was injected into.
    pub attempt: u32,
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr report for [`InjectedPanic`] payloads only;
/// every other panic still reports through the previously installed hook.
/// Without this, a 20% fault-rate sweep floods the log with thousands of
/// backtraces for panics that are part of the experiment.
pub(crate) fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Wraps any evaluator with the faults of a [`FaultPlan`].
///
/// The injection decision depends on the attempt index: supervision
/// retries see fresh draws, so transient faults actually behave
/// transiently.
pub(crate) struct FaultyEvaluator<'a> {
    inner: &'a dyn Evaluator,
    plan: FaultPlan,
}

impl<'a> FaultyEvaluator<'a> {
    /// Wraps `inner` with `plan`. Also installs the injected-panic hook
    /// filter — the injector knows its own panics are noise.
    pub(crate) fn new(inner: &'a dyn Evaluator, plan: FaultPlan) -> FaultyEvaluator<'a> {
        silence_injected_panics();
        FaultyEvaluator { inner, plan }
    }
}

impl Evaluator for FaultyEvaluator<'_> {
    fn evaluate(&self, config: &Config, attempt: u32) -> Result<Evaluation, TensorError> {
        match self.plan.fault_for(config, attempt) {
            None => self.inner.evaluate(config, attempt),
            Some(FaultKind::TransientError) => Err(TensorError::Transient {
                detail: format!("injected fault (attempt {attempt})"),
            }),
            Some(FaultKind::Panic) => std::panic::panic_any(InjectedPanic { attempt }),
            Some(FaultKind::Stall) => {
                // A straggler, not a failure: the answer arrives late but
                // correct. Keeps the batch driver's latency overlap honest.
                std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
                self.inner.evaluate(config, attempt)
            }
            Some(FaultKind::PoisonQos) => {
                let mut e = self.inner.evaluate(config, attempt)?;
                e.qos = if self.draw_bit(config, attempt) {
                    f64::NAN
                } else {
                    f64::INFINITY
                };
                Ok(e)
            }
            Some(FaultKind::PoisonPerf) => {
                let mut e = self.inner.evaluate(config, attempt)?;
                e.perf = if self.draw_bit(config, attempt) {
                    f64::NAN
                } else {
                    f64::NEG_INFINITY
                };
                Ok(e)
            }
        }
    }
}

impl FaultyEvaluator<'_> {
    fn draw_bit(&self, config: &Config, attempt: u32) -> bool {
        self.plan.draw(config, attempt, 2) < 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobId;

    struct Const;
    impl Evaluator for Const {
        fn evaluate(&self, _: &Config, _: u32) -> Result<Evaluation, TensorError> {
            Ok(Evaluation {
                qos: 90.0,
                perf: 1.5,
            })
        }
    }

    fn plan_at(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            rate,
            seed,
            mix: FaultMix::default(),
            stall_ms: 5,
        }
    }

    fn cfg(bits: u16) -> Config {
        Config::from_knobs(vec![KnobId(bits), KnobId(bits >> 3)])
    }

    #[test]
    fn decisions_are_pure_and_replayable() {
        let plan = plan_at(0.3, 42);
        for c in 0..200u16 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.fault_for(&cfg(c), attempt),
                    plan.fault_for(&cfg(c), attempt)
                );
            }
        }
    }

    #[test]
    fn rate_is_respected_roughly() {
        let plan = plan_at(0.25, 7);
        let n = 4000;
        let faults = (0..n)
            .filter(|&i| plan.fault_for(&cfg(i as u16), i as u32 % 3).is_some())
            .count();
        let frac = faults as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "observed fault rate {frac}");
    }

    #[test]
    fn zero_rate_injects_nothing_and_full_rate_everything() {
        let none = plan_at(0.0, 1);
        let all = plan_at(1.0, 1);
        for c in 0..100u16 {
            assert_eq!(none.fault_for(&cfg(c), 0), None);
            assert!(all.fault_for(&cfg(c), 0).is_some());
        }
    }

    #[test]
    fn attempts_draw_independently() {
        // A config that faults on attempt 0 must (at 30% rate) usually run
        // clean on some later attempt — that's what makes faults transient.
        let plan = plan_at(0.3, 9);
        let mut recovered = 0;
        let mut faulted = 0;
        for c in 0..500u16 {
            if plan.fault_for(&cfg(c), 0).is_some() {
                faulted += 1;
                if (1..4).any(|a| plan.fault_for(&cfg(c), a).is_none()) {
                    recovered += 1;
                }
            }
        }
        assert!(faulted > 100, "rate too low to test ({faulted})");
        assert!(
            recovered as f64 >= 0.9 * faulted as f64,
            "only {recovered}/{faulted} faulty configs recover within 3 retries"
        );
    }

    #[test]
    fn injected_faults_have_the_declared_shape() {
        let mk = |mix: FaultMix| {
            FaultyEvaluator::new(
                &Const,
                FaultPlan {
                    rate: 1.0,
                    seed: 3,
                    mix,
                    stall_ms: 0,
                },
            )
        };
        let errors = mk(FaultMix {
            error: 1.0,
            panic: 0.0,
            stall: 0.0,
            poison_qos: 0.0,
            poison_perf: 0.0,
        });
        assert!(matches!(
            errors.evaluate(&cfg(1), 0),
            Err(TensorError::Transient { .. })
        ));
        let poison = mk(FaultMix {
            error: 0.0,
            panic: 0.0,
            stall: 0.0,
            poison_qos: 1.0,
            poison_perf: 0.0,
        });
        let e = poison.evaluate(&cfg(1), 0).unwrap();
        assert!(!e.qos.is_finite());
        assert!(e.perf.is_finite());
        let stall = mk(FaultMix {
            error: 0.0,
            panic: 0.0,
            stall: 1.0,
            poison_qos: 0.0,
            poison_perf: 0.0,
        });
        let e = stall.evaluate(&cfg(1), 0).unwrap();
        assert_eq!(e.qos, 90.0);
    }

    #[test]
    fn injected_panics_carry_typed_payload() {
        let panics = FaultyEvaluator::new(
            &Const,
            FaultPlan {
                rate: 1.0,
                seed: 3,
                mix: FaultMix {
                    error: 0.0,
                    panic: 1.0,
                    stall: 0.0,
                    poison_qos: 0.0,
                    poison_perf: 0.0,
                },
                stall_ms: 0,
            },
        );
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| panics.evaluate(&cfg(1), 2)));
        let payload = caught.expect_err("must panic");
        let injected = payload
            .downcast_ref::<InjectedPanic>()
            .expect("typed payload");
        assert_eq!(injected.attempt, 2);
    }
}
