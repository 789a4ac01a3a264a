//! Trust-but-verify QoS guard for the run-time phase (§2.3, §5).
//!
//! The shipped tradeoff curve is a set of *promises*: "this configuration
//! loses at most so much QoS for so much speedup". The run-time phase (and
//! the serving ladder built on it, [`mod@crate::serve`]) selects knobs by
//! believing those promises — but approximate-kernel error is strongly
//! input- and platform-dependent, so a curve calibrated at development time
//! can silently lie on the deployed device. This module closes that gap
//! with four mechanisms:
//!
//! * **Shadow canary re-execution** — a seeded, deterministic
//!   [`CanarySampler`] picks a small fraction of served requests; each
//!   canary is re-executed with the exact (knob-free) configuration through
//!   the same executor and the true per-request QoS is computed with the
//!   existing [`crate::qos`] metrics.
//! * **Per-config error accounting** — a [`ResidualWindow`] per curve point
//!   ring-buffers the observed-vs-promised QoS residuals with NaN-safe
//!   (`total_cmp`) statistics; non-finite observations are counted as
//!   *poisoned* rather than stored, so a single NaN can never corrupt the
//!   stats.
//! * **Curve quarantine + online repair** — a point whose observed loss
//!   exceeds its promise beyond a dead-banded tolerance for ≥K consecutive
//!   canaries is quarantined (removed from the
//!   [`crate::runtime::RuntimeTuner`]'s selectable range) and its QoS
//!   promise is repaired in place to the observed estimate, so the
//!   degradation ladder and closed loop immediately plan against honest
//!   numbers. Every transition is a typed [`GuardEvent`] in a log capped at
//!   [`crate::serve::EVENT_LIMIT`] events, mirroring the serve breaker's
//!   state machine.
//! * **Exact-fallback safety net** — when quarantine exhausts every point
//!   at or above the QoS floor, the guard clamps to the exact configuration
//!   and emits a typed [`GuardEventKind::QosFloorUnrecoverable`] event
//!   instead of panicking or silently breaching.
//!
//! Everything is a pure function of its inputs: the sampler is a stateless
//! hash of `(seed, request index)`, so guard decisions are bit-identical
//! across machines and thread counts.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::pareto::{TradeoffCurve, TradeoffPoint};
use crate::replica::EventRing;
use crate::serve::{RequestExecutor, EVENT_LIMIT};
use at_tensor::TensorError;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Deterministic canary sampling
// ---------------------------------------------------------------------------

/// NaN-safe floor check: `true` when `qos` is *not* at or above `floor`,
/// so a poisoned (NaN) observation counts as failing the floor instead of
/// slipping past an ordinary `<`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn fails_floor(qos: f64, floor: f64) -> bool {
    !(qos >= floor)
}

/// SplitMix64: a high-quality stateless mixer. Used instead of a sequential
/// RNG so whether request `k` is a canary depends only on `(seed, k)` —
/// never on how many other decisions the guard has taken.
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// SplitMix64's finaliser alone: decorrelates nearby inputs (a hash that
/// already spread its state needs no golden-ratio step first).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit draw to `[0, 1)` through its top 53 bits — every value a
/// multiple of 2⁻⁵³, exact in an `f64`.
pub fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded, deterministic Bernoulli sampler over request indices.
#[derive(Clone, Copy, Debug)]
pub struct CanarySampler {
    seed: u64,
    /// Sampled fraction, clamped to [0, 1].
    fraction: f64,
}

impl CanarySampler {
    /// A sampler that canaries roughly `fraction` of requests.
    pub fn new(seed: u64, fraction: f64) -> CanarySampler {
        CanarySampler {
            seed,
            fraction: if fraction.is_finite() {
                fraction.clamp(0.0, 1.0)
            } else {
                0.0
            },
        }
    }

    /// Whether execution `k` is shadow-canaried. Pure in `(seed, k)`.
    pub fn is_canary(&self, k: usize) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        if self.fraction >= 1.0 {
            return true;
        }
        unit_interval(splitmix64(self.seed ^ k as u64)) < self.fraction
    }

    /// The configured fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

// ---------------------------------------------------------------------------
// Residual accounting
// ---------------------------------------------------------------------------

/// Ring-buffered window of observed-vs-promised QoS residuals for one curve
/// point. A residual is `promised_qos - observed_qos`: positive means the
/// config lost more QoS than it promised. Non-finite residuals are counted
/// as `poisoned` and never stored, so every statistic over the window is
/// finite by construction; ordering uses `total_cmp` as a second line of
/// defence.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResidualWindow {
    values: Vec<f64>,
    cap: usize,
    total: usize,
    poisoned: usize,
    evicted: usize,
}

impl ResidualWindow {
    /// A window retaining the `cap` most recent finite residuals (a cap of
    /// 0 keeps counters only).
    pub fn new(cap: usize) -> ResidualWindow {
        ResidualWindow {
            cap,
            ..ResidualWindow::default()
        }
    }

    /// Records one residual. Non-finite values bump `poisoned` and are
    /// dropped; finite values enter the ring.
    pub fn push(&mut self, residual: f64) {
        self.total += 1;
        if !residual.is_finite() {
            self.poisoned += 1;
            return;
        }
        self.values.push(residual);
        while self.values.len() > self.cap {
            self.values.remove(0);
            self.evicted += 1;
        }
    }

    /// Finite residuals currently retained, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Residuals recorded in total (finite and poisoned).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Non-finite residuals rejected.
    pub fn poisoned(&self) -> usize {
        self.poisoned
    }

    /// Finite residuals evicted by the ring cap.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Mean of the retained residuals (`None` when empty). Always finite.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let m = self.values.iter().sum::<f64>() / self.values.len() as f64;
        // Retained values are finite, but their sum can still overflow.
        if m.is_finite() {
            Some(m)
        } else {
            Some(self.values[self.values.len() - 1])
        }
    }

    /// Largest retained residual (worst observed lie), `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().max_by(f64::total_cmp)
    }

    /// Smallest retained residual, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().min_by(f64::total_cmp)
    }
}

// ---------------------------------------------------------------------------
// Typed events and the per-point state machine
// ---------------------------------------------------------------------------

/// Trust state of one curve point — the guard's per-config mirror of the
/// serve breaker's `Closed / HalfOpen / Open`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointTrust {
    /// No unresolved canary misses.
    Trusted,
    /// One or more consecutive canary misses; not yet convicted.
    Suspect,
    /// Convicted: removed from the selectable range for the rest of the
    /// run, promise repaired to the observed estimate.
    Quarantined,
}

/// A logged guard transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GuardEventKind {
    /// A canary observed QoS below the point's promise beyond the
    /// dead-banded tolerance (strike `strikes` of the conviction budget).
    CanaryMiss {
        /// Curve index of the lying point.
        rung: usize,
        /// Observed per-request QoS.
        observed_qos: f64,
        /// The shipped promise.
        promised_qos: f64,
        /// Consecutive misses so far.
        strikes: usize,
    },
    /// A canaried request observed QoS below the guard's floor.
    FloorBreach {
        /// Curve index serving the request.
        rung: usize,
        /// Observed per-request QoS.
        observed_qos: f64,
    },
    /// A point reached the strike budget and left the selectable range.
    Quarantined {
        /// Curve index of the convicted point.
        rung: usize,
        /// The promise it shipped with.
        promised_qos: f64,
    },
    /// The convicted point's promise was repaired in place.
    Repaired {
        /// Curve index of the repaired point.
        rung: usize,
        /// The promise before repair.
        from_qos: f64,
        /// The observed estimate written into the curve.
        to_qos: f64,
    },
    /// Quarantine exhausted every point at or above the QoS floor: the
    /// guard clamped to the exact configuration.
    QosFloorUnrecoverable {
        /// The floor that can no longer be met approximately.
        floor: f64,
    },
}

/// One typed, timestamped guard event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuardEvent {
    /// Simulated time of the transition, seconds.
    pub time_s: f64,
    /// Executions completed when it happened.
    pub completed: usize,
    /// The transition.
    pub kind: GuardEventKind,
}

impl GuardEvent {
    /// Compact, deterministic one-line rendering (golden-test unit).
    pub(crate) fn compact(&self) -> String {
        let body = match &self.kind {
            GuardEventKind::CanaryMiss {
                rung,
                observed_qos,
                promised_qos,
                strikes,
            } => format!(
                "canary-miss rung={rung} obs={observed_qos:.3} promised={promised_qos:.3} strikes={strikes}"
            ),
            GuardEventKind::FloorBreach { rung, observed_qos } => {
                format!("floor-breach rung={rung} obs={observed_qos:.3}")
            }
            GuardEventKind::Quarantined { rung, promised_qos } => {
                format!("quarantine rung={rung} promised={promised_qos:.3}")
            }
            GuardEventKind::Repaired {
                rung,
                from_qos,
                to_qos,
            } => format!("repair rung={rung} {from_qos:.3}->{to_qos:.3}"),
            GuardEventKind::QosFloorUnrecoverable { floor } => {
                format!("floor-unrecoverable floor={floor:.3}")
            }
        };
        format!("t={:.4} n={} {}", self.time_s, self.completed, body)
    }
}

// ---------------------------------------------------------------------------
// Parameters, verdicts, report
// ---------------------------------------------------------------------------

/// Ring capacity of each point's [`ResidualWindow`].
const RESIDUAL_WINDOW: usize = 32;

/// Guard configuration.
#[derive(Clone, Debug)]
pub struct GuardParams {
    /// Fraction of served requests shadow-canaried (0–1).
    pub canary_fraction: f64,
    /// Seed of the deterministic canary sampler.
    pub canary_seed: u64,
    /// Dead-banded tolerance: a canary only counts as a miss when the
    /// observed QoS is below `promise - tolerance` (same unit as QoS), so
    /// measurement noise never convicts an honest point.
    pub tolerance: f64,
    /// Consecutive canary misses that convict a point.
    pub strikes_to_quarantine: usize,
    /// The QoS floor served requests must not be planned below.
    pub qos_floor: f64,
}

impl Default for GuardParams {
    fn default() -> GuardParams {
        GuardParams {
            canary_fraction: 0.05,
            canary_seed: 0xCA9A,
            tolerance: 1.0,
            strikes_to_quarantine: 3,
            qos_floor: 0.0,
        }
    }
}

/// What the caller must do after a canary observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuardVerdict {
    /// Within tolerance (or already convicted): nothing to do.
    Ok,
    /// Below promise but not yet at the strike budget.
    Strike,
    /// Convicted: remove `rung` from the selectable range and repair its
    /// promise to `repaired_qos`.
    Quarantine {
        /// Curve index to quarantine.
        rung: usize,
        /// Honest QoS estimate to write into the curve.
        repaired_qos: f64,
    },
}

/// Per-point account in the final report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PointAccount {
    /// Trust state at end of run.
    pub trust: PointTrust,
    /// Canary observations charged to this point.
    pub canaries: usize,
    /// Consecutive misses at end of run.
    pub strikes: usize,
    /// The residual window (observed-vs-promised stats).
    pub window: ResidualWindow,
    /// The promise the point shipped with.
    pub shipped_qos: f64,
}

/// Everything the guard did during one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GuardReport {
    /// Canary observations processed.
    pub canaries: usize,
    /// Canary misses (observed below promise − tolerance).
    pub misses: usize,
    /// Non-finite canary observations.
    pub poisoned: usize,
    /// Canaried requests that observed QoS below the floor.
    pub floor_breaches: usize,
    /// Rungs quarantined, in conviction order.
    pub quarantined: Vec<usize>,
    /// Points whose shipped promise was already below the floor and were
    /// therefore excluded from selection before serving began.
    pub premasked_below_floor: Vec<usize>,
    /// In-place promise repairs applied.
    pub repairs: usize,
    /// Whether the exact-fallback safety net engaged.
    pub exact_fallback: bool,
    /// Per-point accounts, indexed by curve rung.
    pub accounts: Vec<PointAccount>,
    /// The curve as the run ended — quarantined points carry their
    /// repaired (honest) promises.
    pub repaired_curve: TradeoffCurve,
    /// Retained guard events (the most recent [`EVENT_LIMIT`]).
    pub events: Vec<GuardEvent>,
    /// Events dropped by the ring cap.
    pub events_evicted: usize,
}

impl GuardReport {
    /// Compact rendering of the whole event sequence (golden-test unit).
    pub fn event_log(&self) -> Vec<String> {
        self.events.iter().map(GuardEvent::compact).collect()
    }
}

// ---------------------------------------------------------------------------
// The guard
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Account {
    trust: PointTrust,
    canaries: usize,
    strikes: usize,
    window: ResidualWindow,
    shipped_qos: f64,
}

/// The trust-but-verify QoS guard. Owns the canary sampler, the per-point
/// error accounts and the event log; the caller (the serving loop) owns the
/// [`crate::runtime::RuntimeTuner`] and applies [`GuardVerdict`]s to it.
#[derive(Clone, Debug)]
pub struct QosGuard {
    params: GuardParams,
    sampler: CanarySampler,
    accounts: Vec<Account>,
    quarantined: Vec<usize>,
    events: EventRing<GuardEvent>,
    canaries: usize,
    misses: usize,
    poisoned: usize,
    floor_breaches: usize,
    repairs: usize,
    premasked: Vec<usize>,
    exact_fallback: bool,
}

impl QosGuard {
    /// A guard over a shipped curve's promises.
    pub fn new(params: &GuardParams, curve: &TradeoffCurve) -> QosGuard {
        let accounts = curve
            .points()
            .iter()
            .map(|p| Account {
                trust: PointTrust::Trusted,
                canaries: 0,
                strikes: 0,
                window: ResidualWindow::new(RESIDUAL_WINDOW),
                shipped_qos: p.qos,
            })
            .collect();
        QosGuard {
            sampler: CanarySampler::new(params.canary_seed, params.canary_fraction),
            params: params.clone(),
            accounts,
            quarantined: Vec::new(),
            events: EventRing::new(EVENT_LIMIT),
            canaries: 0,
            misses: 0,
            poisoned: 0,
            floor_breaches: 0,
            repairs: 0,
            premasked: Vec::new(),
            exact_fallback: false,
        }
    }

    /// Whether execution `k` should be shadow-canaried.
    pub fn is_canary(&self, k: usize) -> bool {
        self.sampler.is_canary(k)
    }

    /// The configured parameters.
    pub(crate) fn params(&self) -> &GuardParams {
        &self.params
    }

    /// Records that `rung` was excluded from selection before serving
    /// because its shipped promise was already below the QoS floor.
    pub(crate) fn note_premask(&mut self, rung: usize) {
        self.premasked.push(rung);
    }

    /// Whether the exact-fallback safety net has engaged.
    pub(crate) fn exact_fallback(&self) -> bool {
        self.exact_fallback
    }

    /// Marks the run unrecoverable: quarantine exhausted every point at or
    /// above the floor, so the caller clamped to the exact configuration.
    /// Idempotent; logs one typed event.
    pub(crate) fn note_unrecoverable(&mut self, time_s: f64, completed: usize) {
        if self.exact_fallback {
            return;
        }
        self.exact_fallback = true;
        self.push_event(
            time_s,
            completed,
            GuardEventKind::QosFloorUnrecoverable {
                floor: self.params.qos_floor,
            },
        );
    }

    /// Processes one canary observation for the request served on `rung`
    /// with the shipped promise `promised_qos`. `observed_qos` is the true
    /// per-request QoS from shadow re-execution (non-finite = poisoned
    /// measurement, treated as a violation). Returns the action the caller
    /// must apply to its tuner.
    pub fn observe(
        &mut self,
        time_s: f64,
        completed: usize,
        rung: usize,
        promised_qos: f64,
        observed_qos: f64,
    ) -> GuardVerdict {
        let strikes_needed = self.params.strikes_to_quarantine.max(1);
        let tolerance = self.params.tolerance.max(0.0);
        let floor = self.params.qos_floor;
        let (was_quarantined, strikes) = {
            let Some(acct) = self.accounts.get_mut(rung) else {
                return GuardVerdict::Ok;
            };
            acct.canaries += 1;
            acct.window.push(promised_qos - observed_qos);
            (acct.trust == PointTrust::Quarantined, acct.strikes)
        };
        self.canaries += 1;
        if !observed_qos.is_finite() {
            self.poisoned += 1;
        }

        // Floor accounting: a NaN observation is *not* at or above the
        // floor, so [`fails_floor`] counts it as a breach.
        if fails_floor(observed_qos, floor) {
            self.floor_breaches += 1;
            self.push_event(
                time_s,
                completed,
                GuardEventKind::FloorBreach { rung, observed_qos },
            );
        }

        if was_quarantined {
            // A convicted point can still drain already-started requests;
            // nothing further to decide.
            return GuardVerdict::Ok;
        }

        // Dead-banded comparator, NaN-safe: a poisoned observation fails
        // the `>=` and counts as a miss.
        let honest = observed_qos >= promised_qos - tolerance;
        if honest {
            if let Some(acct) = self.accounts.get_mut(rung) {
                acct.strikes = 0;
                acct.trust = PointTrust::Trusted;
            }
            return GuardVerdict::Ok;
        }

        self.misses += 1;
        let strikes = strikes + 1;
        if let Some(acct) = self.accounts.get_mut(rung) {
            acct.strikes = strikes;
            acct.trust = PointTrust::Suspect;
        }
        self.push_event(
            time_s,
            completed,
            GuardEventKind::CanaryMiss {
                rung,
                observed_qos,
                promised_qos,
                strikes,
            },
        );
        if strikes < strikes_needed {
            return GuardVerdict::Strike;
        }

        // Conviction: quarantine and repair to the observed estimate. The
        // estimate is the windowed mean residual subtracted from the
        // promise; with no finite observation at all (every canary
        // poisoned) the point is marked just below the floor — finite, and
        // honest about being unusable.
        let mean_residual = {
            let Some(acct) = self.accounts.get_mut(rung) else {
                return GuardVerdict::Ok;
            };
            acct.trust = PointTrust::Quarantined;
            acct.window.mean()
        };
        // The "unusable" sentinel sits below the floor; with a non-finite
        // floor that expression overflows, so it bottoms out at the most
        // negative finite QoS.
        let unusable = {
            let u = floor - tolerance - 1.0;
            if u.is_finite() {
                u
            } else {
                -f64::MAX
            }
        };
        let repaired_qos = match mean_residual {
            Some(mean_residual) => promised_qos - mean_residual,
            None => unusable,
        };
        let repaired_qos = if repaired_qos.is_finite() {
            repaired_qos
        } else {
            unusable
        };
        self.quarantined.push(rung);
        self.repairs += 1;
        self.push_event(
            time_s,
            completed,
            GuardEventKind::Quarantined { rung, promised_qos },
        );
        self.push_event(
            time_s,
            completed,
            GuardEventKind::Repaired {
                rung,
                from_qos: promised_qos,
                to_qos: repaired_qos,
            },
        );
        GuardVerdict::Quarantine { rung, repaired_qos }
    }

    fn push_event(&mut self, time_s: f64, completed: usize, kind: GuardEventKind) {
        self.events.push(GuardEvent {
            time_s,
            completed,
            kind,
        });
    }

    /// Finalises the guard into its report. `repaired_curve` is the curve
    /// the run ended with (promises repaired in place by the caller's
    /// tuner).
    pub fn into_report(self, repaired_curve: TradeoffCurve) -> GuardReport {
        let (events, events_evicted) = self.events.into_parts();
        GuardReport {
            canaries: self.canaries,
            misses: self.misses,
            poisoned: self.poisoned,
            floor_breaches: self.floor_breaches,
            quarantined: self.quarantined,
            premasked_below_floor: self.premasked,
            repairs: self.repairs,
            exact_fallback: self.exact_fallback,
            accounts: self
                .accounts
                .into_iter()
                .map(|a| PointAccount {
                    trust: a.trust,
                    canaries: a.canaries,
                    strikes: a.strikes,
                    window: a.window,
                    shipped_qos: a.shipped_qos,
                })
                .collect(),
            repaired_curve,
            events,
            events_evicted,
        }
    }
}

// ---------------------------------------------------------------------------
// Miscalibration injection
// ---------------------------------------------------------------------------

/// A simulation executor whose *honest* per-rung QoS differs from the
/// curve's promises — the guard experiments' tool for injecting curve
/// miscalibration on cue. `execute` always succeeds; a canary on rung `r`
/// observes `honest_qos[r]` plus a deterministic, per-request jitter in
/// `±jitter` (a pure [`splitmix64`] function of `(seed, k, r)`, so runs are
/// bit-identical on any thread count).
pub struct MiscalibratedExecutor {
    /// True QoS delivered by each curve rung.
    pub honest_qos: Vec<f64>,
    /// Amplitude of the deterministic per-request observation noise.
    pub jitter: f64,
    /// Seed of the jitter hash.
    pub seed: u64,
}

impl RequestExecutor for MiscalibratedExecutor {
    fn execute(&self, _k: usize) -> Result<(), TensorError> {
        Ok(())
    }

    fn canary_qos(&self, k: usize, rung: usize, _point: &TradeoffPoint) -> Option<f64> {
        let honest = self.honest_qos.get(rung).copied()?;
        let h = splitmix64(
            self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((rung as u64) << 48),
        );
        Some(honest + (2.0 * unit_interval(h) - 1.0) * self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    #[test]
    fn draws_map_into_the_unit_interval_at_the_two_ends() {
        assert_eq!(unit_interval(0), 0.0);
        assert_eq!(unit_interval(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert!(unit_interval(u64::MAX) < 1.0);
        // `splitmix64` is the finaliser after one golden-ratio step.
        assert_eq!(
            splitmix64(7),
            mix64(7u64.wrapping_add(0x9E37_79B9_7F4A_7C15))
        );
    }

    fn curve(qos: &[f64]) -> TradeoffCurve {
        TradeoffCurve::from_points(
            qos.iter()
                .enumerate()
                .map(|(i, &q)| TradeoffPoint {
                    qos: q,
                    perf: 1.2 + 0.3 * i as f64,
                    config: Config::from_knobs(vec![]),
                })
                .collect(),
        )
    }

    #[test]
    fn sampler_is_deterministic_and_tracks_fraction() {
        let s = CanarySampler::new(7, 0.25);
        let picks: Vec<bool> = (0..10_000).map(|k| s.is_canary(k)).collect();
        let again: Vec<bool> = (0..10_000).map(|k| s.is_canary(k)).collect();
        assert_eq!(
            picks, again,
            "sampling must be a pure function of (seed, k)"
        );
        let frac = picks.iter().filter(|&&b| b).count() as f64 / picks.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed fraction {frac}");
        // Different seeds decorrelate.
        let other = CanarySampler::new(8, 0.25);
        assert!((0..10_000).any(|k| s.is_canary(k) != other.is_canary(k)));
        // Degenerate fractions.
        assert!(!CanarySampler::new(1, 0.0).is_canary(3));
        assert!(CanarySampler::new(1, 1.0).is_canary(3));
        assert!(!CanarySampler::new(1, f64::NAN).is_canary(3));
    }

    #[test]
    fn residual_window_rings_and_rejects_poison() {
        let mut w = ResidualWindow::new(3);
        for v in [1.0, 2.0, f64::NAN, 3.0, f64::INFINITY, 4.0] {
            w.push(v);
        }
        assert_eq!(w.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(w.total(), 6);
        assert_eq!(w.poisoned(), 2);
        assert_eq!(w.evicted(), 1);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.max(), Some(4.0));
        assert_eq!(w.min(), Some(2.0));
        // Serde roundtrip.
        let json = serde_json::to_string(&w).unwrap();
        let back: ResidualWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(back.values(), w.values());
        assert_eq!(back.poisoned(), w.poisoned());
    }

    #[test]
    fn honest_canaries_never_convict() {
        let c = curve(&[98.0, 96.0, 94.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                tolerance: 1.0,
                qos_floor: 90.0,
                ..GuardParams::default()
            },
            &c,
        );
        for k in 0..100 {
            // Observed within the dead band of the promise.
            let v = g.observe(k as f64, k, 1, 96.0, 95.5);
            assert_eq!(v, GuardVerdict::Ok);
        }
        let r = g.into_report(c);
        assert_eq!(r.misses, 0);
        assert!(r.quarantined.is_empty());
        assert_eq!(r.floor_breaches, 0);
        assert_eq!(r.accounts[1].trust, PointTrust::Trusted);
        assert_eq!(r.accounts[1].canaries, 100);
    }

    #[test]
    fn strikes_convict_and_repair_to_observed_estimate() {
        let c = curve(&[98.0, 96.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                tolerance: 1.0,
                strikes_to_quarantine: 3,
                qos_floor: 85.0,
                ..GuardParams::default()
            },
            &c,
        );
        assert_eq!(g.observe(0.1, 1, 1, 96.0, 90.0), GuardVerdict::Strike);
        assert_eq!(g.observe(0.2, 2, 1, 96.0, 90.0), GuardVerdict::Strike);
        let v = g.observe(0.3, 3, 1, 96.0, 90.0);
        match v {
            GuardVerdict::Quarantine { rung, repaired_qos } => {
                assert_eq!(rung, 1);
                assert!(
                    (repaired_qos - 90.0).abs() < 1e-9,
                    "repaired {repaired_qos}"
                );
            }
            other => panic!("expected conviction, got {other:?}"),
        }
        // Further canaries on a convicted point are inert.
        assert_eq!(g.observe(0.4, 4, 1, 96.0, 90.0), GuardVerdict::Ok);
        let r = g.into_report(c);
        assert_eq!(r.quarantined, vec![1]);
        assert_eq!(r.repairs, 1);
        assert_eq!(r.accounts[1].trust, PointTrust::Quarantined);
        // Typed sequence: three misses, then quarantine, then repair.
        let kinds: Vec<&GuardEventKind> = r.events.iter().map(|e| &e.kind).collect();
        assert!(matches!(
            kinds[0],
            GuardEventKind::CanaryMiss { strikes: 1, .. }
        ));
        assert!(matches!(
            kinds[2],
            GuardEventKind::CanaryMiss { strikes: 3, .. }
        ));
        assert!(matches!(
            kinds[3],
            GuardEventKind::Quarantined { rung: 1, .. }
        ));
        assert!(
            matches!(kinds[4], GuardEventKind::Repaired { rung: 1, to_qos, .. } if (*to_qos - 90.0).abs() < 1e-9)
        );
    }

    #[test]
    fn dead_band_tolerates_noise_and_honest_canary_resets_strikes() {
        let c = curve(&[98.0, 96.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                tolerance: 2.0,
                strikes_to_quarantine: 2,
                ..GuardParams::default()
            },
            &c,
        );
        // Within the ±2 dead band: never a miss.
        assert_eq!(g.observe(0.1, 1, 0, 98.0, 96.5), GuardVerdict::Ok);
        // One miss, then an honest canary resets the strike count.
        assert_eq!(g.observe(0.2, 2, 0, 98.0, 90.0), GuardVerdict::Strike);
        assert_eq!(g.observe(0.3, 3, 0, 98.0, 97.5), GuardVerdict::Ok);
        assert_eq!(g.observe(0.4, 4, 0, 98.0, 90.0), GuardVerdict::Strike);
        let r = g.into_report(c);
        assert!(r.quarantined.is_empty(), "reset strikes must not convict");
        assert_eq!(r.accounts[0].trust, PointTrust::Suspect);
    }

    #[test]
    fn poisoned_observations_are_violations_and_repair_stays_finite() {
        let c = curve(&[98.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                strikes_to_quarantine: 2,
                qos_floor: 90.0,
                tolerance: 1.0,
                ..GuardParams::default()
            },
            &c,
        );
        assert_eq!(g.observe(0.1, 1, 0, 98.0, f64::NAN), GuardVerdict::Strike);
        let v = g.observe(0.2, 2, 0, 98.0, f64::NEG_INFINITY);
        let GuardVerdict::Quarantine { repaired_qos, .. } = v else {
            panic!("poisoned stream must convict, got {v:?}");
        };
        assert!(repaired_qos.is_finite(), "repair must stay finite");
        assert!(repaired_qos < 90.0, "all-poisoned repair lands below floor");
        let r = g.into_report(c);
        assert_eq!(r.poisoned, 2);
        // NaN observations are floor breaches by definition.
        assert_eq!(r.floor_breaches, 2);
    }

    #[test]
    fn unrecoverable_is_idempotent_and_typed() {
        let c = curve(&[98.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                qos_floor: 95.0,
                ..GuardParams::default()
            },
            &c,
        );
        g.note_unrecoverable(1.0, 10);
        g.note_unrecoverable(2.0, 20);
        let r = g.into_report(c);
        assert!(r.exact_fallback);
        let n = r
            .events
            .iter()
            .filter(|e| matches!(e.kind, GuardEventKind::QosFloorUnrecoverable { .. }))
            .count();
        assert_eq!(n, 1, "unrecoverable must log exactly once");
        assert!(
            matches!(r.events[0].kind, GuardEventKind::QosFloorUnrecoverable { floor } if (floor - 95.0).abs() < 1e-12)
        );
    }

    #[test]
    fn event_log_cap_evicts_but_counts() {
        let c = curve(&[98.0]);
        let mut g = QosGuard::new(
            &GuardParams {
                strikes_to_quarantine: usize::MAX,
                qos_floor: -1.0e9,
                ..GuardParams::default()
            },
            &c,
        );
        // One canary miss per observation: 16 more than the ring holds.
        let n = EVENT_LIMIT + 16;
        for k in 0..n {
            let _ = g.observe(k as f64, k, 0, 98.0, 50.0);
        }
        let r = g.into_report(c);
        assert_eq!(r.events.len(), EVENT_LIMIT);
        assert_eq!(r.events_evicted, 16);
        assert_eq!(r.misses, n);
        // The oldest events went: the first retained one is the 17th miss.
        assert!(matches!(
            r.events[0].kind,
            GuardEventKind::CanaryMiss { strikes: 17, .. }
        ));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let c = curve(&[98.0, 96.0]);
        let mut g = QosGuard::new(&GuardParams::default(), &c);
        let _ = g.observe(0.1, 1, 0, 98.0, 80.0);
        g.note_premask(1);
        let r = g.into_report(c);
        let json = serde_json::to_string(&r).unwrap();
        let back: GuardReport = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.event_log(), r.event_log());
        assert_eq!(back.premasked_below_floor, vec![1]);
    }
}
