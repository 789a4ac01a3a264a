//! Seeded, replayable fleet chaos: scripted replica crashes with delayed
//! restart, gray failures (silent service-time inflation), router↔replica
//! partitions with message loss, and bit-flip windows (silent data
//! corruption).
//!
//! A [`ChaosPlan`] is a time-sorted script of [`ChaosEvent`]s that the
//! fleet loop (`fleet::run_fleet`) merges into its discrete-event stream.
//! Plans are either hand-scripted ([`ChaosPlan::scripted`]) or drawn from
//! a seed ([`ChaosPlan::campaign`]) with the same stateless splitmix64
//! discipline as `fault.rs`: every draw is a pure function of
//! `(seed, stream, index)`, never of call order, so a campaign replays
//! bit-identically regardless of how the simulation is threaded.
//!
//! Gray failures are deliberately *not* delivered as stream events: a gray
//! replica keeps accepting and completing work, just slower. The plan
//! instead hands each replica its windows (`ChaosPlan::silent_windows`),
//! and `SilentWindows::gray_inflation_at` is a pure function of the time
//! that the fleet multiplies into raw service time, and
//! detection is left entirely to the router's ejection logic — the
//! simulation never tells the router a replica has gone gray.
//!
//! Bit-flip windows follow the same silent discipline: while a window is
//! active (`SilentWindows::bitflip_at`), each request started on the target
//! replica draws a flip with the window's per-request rate via
//! `ChaosPlan::draw_flip` — pure in `(seed, replica, draw index)`, never
//! in call order. The fleet is never told a flip happened; the ABFT layer
//! has to *detect* it, and the injector's ground truth is what makes
//! escapes measurable.

use crate::guard::splitmix64;
use serde::{Deserialize, Serialize};

/// What a chaos event does to its target replica.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// The replica process dies: its in-flight request is lost, its queue
    /// is redistributed or shed, and a warm restart from the replica's
    /// pre-crash control state is scheduled `restart_after_s` later.
    Crash {
        /// Delay between the crash and the warm restart, in seconds.
        restart_after_s: f64,
    },
    /// Gray failure: for `len_s` seconds the replica silently serves
    /// `inflation`× slower. No event is surfaced to the router; defense is
    /// the router's own EWMA-based ejection.
    Gray {
        /// Window length in seconds.
        len_s: f64,
        /// Service-time multiplier (≥ 1) while the window is active.
        inflation: f64,
    },
    /// Router↔replica partition: for `len_s` seconds the replica is
    /// unreachable (treated like an open breaker by routing and stealing),
    /// and up to `lost_messages` already-queued requests are dropped on
    /// the wire — accounted as `ShedReason::ReplicaLost`, never silently.
    Partition {
        /// Window length in seconds.
        len_s: f64,
        /// Queued requests lost when the partition opens.
        lost_messages: usize,
    },
    /// Silent-data-corruption window: for `len_s` seconds each request
    /// started on the replica independently flips one bit (probability
    /// `rate`) in the given target buffer. Like gray failures, nothing is
    /// surfaced to the router — detection is the ABFT layer's job.
    BitFlip {
        /// Window length in seconds.
        len_s: f64,
        /// Per-request flip probability in `[0, 1]`.
        rate: f64,
        /// Which buffer the flip lands in.
        target: FlipTarget,
        /// Lowest bit position drawn (flipped bits are uniform in
        /// `min_bit..32`); low mantissa bits perturb below approximation
        /// noise, so raising the floor concentrates on consequential flips.
        min_bit: u32,
    },
}

/// Which buffer a bit flip corrupts. The targets mirror the data a
/// GEMM-shaped kernel touches; which defense layer catches each is part of
/// the fault model (weight fingerprints catch resident weight corruption,
/// ABFT checksums catch the rest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlipTarget {
    /// Packed weight panel (model parameters resident on the replica).
    WeightPanel,
    /// im2col activation/patch buffer (per-request scratch).
    ActivationBuffer,
    /// GEMM output accumulator.
    Accumulator,
}

impl FlipTarget {
    /// All targets, in draw order.
    pub const ALL: [FlipTarget; 3] = [
        FlipTarget::WeightPanel,
        FlipTarget::ActivationBuffer,
        FlipTarget::Accumulator,
    ];
}

/// An active bit-flip window's parameters, as seen by `SilentWindows::bitflip_at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BitFlipWindow {
    /// Per-request flip probability.
    pub rate: f64,
    /// Corrupted buffer.
    pub target: FlipTarget,
    /// Lowest bit position drawn.
    pub min_bit: u32,
}

/// One injected flip, drawn by [`ChaosPlan::draw_flip`]: ground truth the
/// fleet report uses to measure detection coverage and escapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InjectedFlip {
    /// Corrupted buffer.
    pub target: FlipTarget,
    /// Flipped bit position (`min_bit..32`).
    pub bit: u32,
}

impl ChaosKind {
    /// Stable tie-break rank for same-instant events on the same replica.
    fn rank(&self) -> u8 {
        match self {
            ChaosKind::Crash { .. } => 0,
            ChaosKind::Gray { .. } => 1,
            ChaosKind::Partition { .. } => 2,
            ChaosKind::BitFlip { .. } => 3,
        }
    }
}

/// One scripted chaos event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Simulation time at which the event fires.
    pub at_s: f64,
    /// Target replica index. Events aimed past the fleet are ignored.
    pub replica: usize,
    /// What happens.
    pub kind: ChaosKind,
}

/// A time-sorted, sanitized script of chaos events.
///
/// The default plan is empty: a fleet run with `ChaosPlan::default()`
/// injects no failure.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

/// Maps a splitmix64 draw to `[0, 1)`.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let h = splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD134_2543_DE82_EF95),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Picks a replica index in `[0, n)` from a splitmix64 draw.
fn pick(seed: u64, stream: u64, i: u64, n: usize) -> usize {
    let h = splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD134_2543_DE82_EF95),
    );
    (h % n.max(1) as u64) as usize
}

impl ChaosPlan {
    /// An empty plan (no chaos).
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Builds a plan from explicit events, sanitizing and time-sorting.
    ///
    /// Sanitization drops events with a non-finite or negative fire time,
    /// clamps crash restart delays to finite non-negative, drops gray /
    /// partition windows with non-positive length, and clamps gray
    /// inflation into `[1, ∞)` (finite). Events are then sorted by
    /// `(at_s, replica, kind)` so merge order is total.
    pub fn scripted(events: impl IntoIterator<Item = ChaosEvent>) -> ChaosPlan {
        let mut kept: Vec<ChaosEvent> = events
            .into_iter()
            .filter_map(|mut e| {
                if !e.at_s.is_finite() || e.at_s < 0.0 {
                    return None;
                }
                match &mut e.kind {
                    ChaosKind::Crash { restart_after_s } => {
                        if !restart_after_s.is_finite() || *restart_after_s < 0.0 {
                            *restart_after_s = 0.0;
                        }
                    }
                    ChaosKind::Gray { len_s, inflation } => {
                        if !len_s.is_finite() || *len_s <= 0.0 {
                            return None;
                        }
                        if !inflation.is_finite() || *inflation < 1.0 {
                            *inflation = 1.0;
                        }
                    }
                    ChaosKind::Partition { len_s, .. } => {
                        if !len_s.is_finite() || *len_s <= 0.0 {
                            return None;
                        }
                    }
                    ChaosKind::BitFlip {
                        len_s,
                        rate,
                        min_bit,
                        ..
                    } => {
                        if !len_s.is_finite() || *len_s <= 0.0 || !rate.is_finite() {
                            return None;
                        }
                        *rate = rate.clamp(0.0, 1.0);
                        *min_bit = (*min_bit).min(31);
                    }
                }
                Some(e)
            })
            .collect();
        kept.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| a.replica.cmp(&b.replica))
                .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
        });
        ChaosPlan { events: kept }
    }

    /// Draws a seeded chaos campaign over a `horizon_s`-second run against
    /// `replicas` replicas: `crashes` crash/restart pairs, `grays` gray
    /// windows, and `partitions` partition windows, all placed inside the
    /// middle of the horizon so recovery is observable before the run ends.
    /// Pure in `(seed, horizon_s, replicas, counts)`.
    pub fn campaign(
        seed: u64,
        horizon_s: f64,
        replicas: usize,
        crashes: usize,
        grays: usize,
        partitions: usize,
    ) -> ChaosPlan {
        if !horizon_s.is_finite() || horizon_s <= 0.0 || replicas == 0 {
            return ChaosPlan::default();
        }
        let mut events = Vec::with_capacity(crashes + grays + partitions);
        for i in 0..crashes {
            let i = i as u64;
            events.push(ChaosEvent {
                at_s: (0.15 + 0.55 * unit(seed, 1, i)) * horizon_s,
                replica: pick(seed, 2, i, replicas),
                kind: ChaosKind::Crash {
                    restart_after_s: (0.02 + 0.06 * unit(seed, 3, i)) * horizon_s,
                },
            });
        }
        for i in 0..grays {
            let i = i as u64;
            events.push(ChaosEvent {
                at_s: (0.10 + 0.50 * unit(seed, 4, i)) * horizon_s,
                replica: pick(seed, 5, i, replicas),
                kind: ChaosKind::Gray {
                    len_s: (0.08 + 0.12 * unit(seed, 6, i)) * horizon_s,
                    inflation: 3.0 + 5.0 * unit(seed, 7, i),
                },
            });
        }
        for i in 0..partitions {
            let i = i as u64;
            events.push(ChaosEvent {
                at_s: (0.10 + 0.55 * unit(seed, 8, i)) * horizon_s,
                replica: pick(seed, 9, i, replicas),
                kind: ChaosKind::Partition {
                    len_s: (0.02 + 0.05 * unit(seed, 10, i)) * horizon_s,
                    lost_messages: 1
                        + (splitmix64(seed ^ 11 ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9)) % 4)
                            as usize,
                },
            });
        }
        ChaosPlan::scripted(events)
    }

    /// The sanitized, time-sorted events.
    pub(crate) fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// `(crashes, grays, partitions)` in the plan.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in &self.events {
            match e.kind {
                ChaosKind::Crash { .. } => c.0 += 1,
                ChaosKind::Gray { .. } => c.1 += 1,
                ChaosKind::Partition { .. } => c.2 += 1,
                ChaosKind::BitFlip { .. } => {}
            }
        }
        c
    }

    /// Appends a seeded bit-flip campaign to the plan: `windows` corruption
    /// windows placed inside the middle of the horizon, each with the given
    /// per-request flip `rate` and bit floor, targets cycling through
    /// [`FlipTarget::ALL`] by seeded draw. Pure in its inputs; an existing
    /// plan's events are preserved (the merged script is re-sorted).
    pub fn with_bitflip_campaign(
        self,
        seed: u64,
        horizon_s: f64,
        replicas: usize,
        windows: usize,
        rate: f64,
        min_bit: u32,
    ) -> ChaosPlan {
        if !horizon_s.is_finite() || horizon_s <= 0.0 || replicas == 0 {
            return self;
        }
        let mut events = self.events;
        for i in 0..windows {
            let i = i as u64;
            events.push(ChaosEvent {
                at_s: (0.10 + 0.55 * unit(seed, 12, i)) * horizon_s,
                replica: pick(seed, 13, i, replicas),
                kind: ChaosKind::BitFlip {
                    len_s: (0.08 + 0.15 * unit(seed, 14, i)) * horizon_s,
                    rate,
                    target: FlipTarget::ALL[pick(seed, 15, i, FlipTarget::ALL.len())],
                    min_bit,
                },
            });
        }
        ChaosPlan::scripted(events)
    }

    /// The plan's gray and bit-flip windows grouped by target replica, one
    /// entry per replica in `0..replicas`, each in plan order. Windows aimed
    /// past the fleet are dropped, as the fleet ignores them.
    pub(crate) fn silent_windows(&self, replicas: usize) -> Vec<SilentWindows> {
        let mut by_replica = vec![SilentWindows::default(); replicas];
        for e in &self.events {
            let Some(w) = by_replica.get_mut(e.replica) else {
                continue;
            };
            match e.kind {
                ChaosKind::Gray { len_s, inflation } => w.grays.push((e.at_s, len_s, inflation)),
                ChaosKind::BitFlip {
                    len_s,
                    rate,
                    target,
                    min_bit,
                } => w.flips.push((
                    e.at_s,
                    len_s,
                    BitFlipWindow {
                        rate,
                        target,
                        min_bit,
                    },
                )),
                ChaosKind::Crash { .. } | ChaosKind::Partition { .. } => {}
            }
        }
        by_replica
    }

    /// Draws whether the `k`-th corruption-eligible request on `replica`
    /// flips a bit under `window`, and which bit. Pure in
    /// `(seed, replica, k)` — never in call order — so campaigns replay
    /// bit-identically at any thread count.
    pub(crate) fn draw_flip(
        seed: u64,
        replica: usize,
        k: u64,
        window: &BitFlipWindow,
    ) -> Option<InjectedFlip> {
        let rseed = seed ^ (replica as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        if unit(rseed, 16, k) >= window.rate {
            return None;
        }
        let span = 32 - window.min_bit.min(31);
        let bit = window.min_bit + pick(rseed, 17, k, span as usize) as u32;
        Some(InjectedFlip {
            target: window.target,
            bit,
        })
    }
}

/// One replica's silent windows, which a started request queries: gray
/// inflation and bit-flip windows, each list in plan order.
#[derive(Clone, Debug, Default)]
pub(crate) struct SilentWindows {
    /// `(start, length, inflation)` of each gray window.
    grays: Vec<(f64, f64, f64)>,
    /// `(start, length, parameters)` of each bit-flip window.
    flips: Vec<(f64, f64, BitFlipWindow)>,
}

impl SilentWindows {
    /// The silent service-time multiplier at time `t`: the product of all
    /// gray windows active there, `1.0` when none are.
    pub(crate) fn gray_inflation_at(&self, t: f64) -> f64 {
        let mut factor = 1.0;
        for &(at_s, len_s, inflation) in &self.grays {
            if t >= at_s && t < at_s + len_s {
                factor *= inflation;
            }
        }
        factor
    }

    /// The bit-flip window active at time `t`, if any — the
    /// earliest-starting active window wins when windows overlap (a single
    /// flip per request is the modelled fault).
    pub(crate) fn bitflip_at(&self, t: f64) -> Option<BitFlipWindow> {
        self.flips
            .iter()
            .find(|&&(at_s, len_s, _)| t >= at_s && t < at_s + len_s)
            .map(|&(_, _, window)| window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitflips(plan: &ChaosPlan) -> usize {
        plan.events()
            .iter()
            .filter(|e| matches!(e.kind, ChaosKind::BitFlip { .. }))
            .count()
    }

    #[test]
    fn scripted_sorts_and_sanitizes() {
        let plan = ChaosPlan::scripted([
            ChaosEvent {
                at_s: 5.0,
                replica: 1,
                kind: ChaosKind::Crash {
                    restart_after_s: -2.0,
                },
            },
            ChaosEvent {
                at_s: 1.0,
                replica: 0,
                kind: ChaosKind::Gray {
                    len_s: 2.0,
                    inflation: 0.5,
                },
            },
            ChaosEvent {
                at_s: f64::NAN,
                replica: 0,
                kind: ChaosKind::Partition {
                    len_s: 1.0,
                    lost_messages: 3,
                },
            },
            ChaosEvent {
                at_s: 3.0,
                replica: 2,
                kind: ChaosKind::Partition {
                    len_s: 0.0,
                    lost_messages: 3,
                },
            },
        ]);
        // NaN fire time and zero-length partition are dropped.
        assert_eq!(plan.events().len(), 2);
        // Sorted by time.
        assert_eq!(plan.events()[0].at_s, 1.0);
        // Sub-unity inflation clamps to the identity.
        assert_eq!(
            plan.events()[0].kind,
            ChaosKind::Gray {
                len_s: 2.0,
                inflation: 1.0
            }
        );
        // Negative restart delay clamps to immediate restart.
        assert_eq!(
            plan.events()[1].kind,
            ChaosKind::Crash {
                restart_after_s: 0.0
            }
        );
    }

    #[test]
    fn campaign_is_deterministic_and_in_horizon() {
        let a = ChaosPlan::campaign(42, 100.0, 8, 4, 2, 2);
        let b = ChaosPlan::campaign(42, 100.0, 8, 4, 2, 2);
        assert_eq!(a, b);
        assert_eq!(a.counts(), (4, 2, 2));
        for e in a.events() {
            assert!(e.at_s >= 0.0 && e.at_s <= 100.0);
            assert!(e.replica < 8);
        }
        let c = ChaosPlan::campaign(43, 100.0, 8, 4, 2, 2);
        assert_ne!(a, c, "different seeds must draw different campaigns");
    }

    #[test]
    fn campaign_degenerate_inputs_are_empty() {
        assert!(ChaosPlan::campaign(1, f64::NAN, 8, 4, 2, 2)
            .events()
            .is_empty());
        assert!(ChaosPlan::campaign(1, -5.0, 8, 4, 2, 2).events().is_empty());
        assert!(ChaosPlan::campaign(1, 100.0, 0, 4, 2, 2)
            .events()
            .is_empty());
    }

    #[test]
    fn gray_inflation_composes_and_defaults_to_identity() {
        let plan = ChaosPlan::scripted([
            ChaosEvent {
                at_s: 10.0,
                replica: 3,
                kind: ChaosKind::Gray {
                    len_s: 5.0,
                    inflation: 4.0,
                },
            },
            ChaosEvent {
                at_s: 12.0,
                replica: 3,
                kind: ChaosKind::Gray {
                    len_s: 5.0,
                    inflation: 2.0,
                },
            },
        ]);
        let windows = plan.silent_windows(4);
        assert_eq!(windows[3].gray_inflation_at(9.9), 1.0);
        assert_eq!(windows[3].gray_inflation_at(10.0), 4.0);
        assert_eq!(windows[3].gray_inflation_at(13.0), 8.0);
        assert_eq!(windows[3].gray_inflation_at(15.5), 2.0);
        assert_eq!(windows[2].gray_inflation_at(13.0), 1.0);
        assert_eq!(
            ChaosPlan::none().silent_windows(1)[0].gray_inflation_at(1.0),
            1.0
        );
        assert!(plan
            .silent_windows(3)
            .iter()
            .all(|w| w.gray_inflation_at(13.0) == 1.0));
    }

    #[test]
    fn bitflip_windows_sanitize_query_and_draw_deterministically() {
        let plan = ChaosPlan::scripted([
            ChaosEvent {
                at_s: 10.0,
                replica: 2,
                kind: ChaosKind::BitFlip {
                    len_s: 5.0,
                    rate: 7.0, // clamps to 1.0
                    target: FlipTarget::Accumulator,
                    min_bit: 99, // clamps to 31
                },
            },
            ChaosEvent {
                at_s: 1.0,
                replica: 0,
                kind: ChaosKind::BitFlip {
                    len_s: -1.0, // dropped
                    rate: 0.5,
                    target: FlipTarget::WeightPanel,
                    min_bit: 16,
                },
            },
        ]);
        assert_eq!(bitflips(&plan), 1);
        assert_eq!(plan.counts(), (0, 0, 0), "bit flips are counted apart");
        let windows = plan.silent_windows(3);
        let w = windows[2].bitflip_at(12.0).unwrap();
        assert_eq!(w.rate, 1.0);
        assert_eq!(w.min_bit, 31);
        assert!(
            windows[2].bitflip_at(15.0).is_none(),
            "window end exclusive"
        );
        assert!(windows[1].bitflip_at(12.0).is_none(), "other replica clean");

        // Draws are pure in (seed, replica, k): rate 1.0 always flips, the
        // same key always draws the same bit, different keys vary.
        let f1 = ChaosPlan::draw_flip(42, 2, 0, &w).unwrap();
        let f2 = ChaosPlan::draw_flip(42, 2, 0, &w).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(f1.target, FlipTarget::Accumulator);
        assert!(f1.bit >= 31 && f1.bit < 32);
        let lo = BitFlipWindow {
            rate: 1.0,
            target: FlipTarget::ActivationBuffer,
            min_bit: 16,
        };
        let mut seen = std::collections::HashSet::new();
        for k in 0..64 {
            let f = ChaosPlan::draw_flip(42, 2, k, &lo).unwrap();
            assert!((16..32).contains(&f.bit));
            seen.insert(f.bit);
        }
        assert!(seen.len() > 8, "bits spread over the floor..32 range");
        // Rate 0 never flips.
        let off = BitFlipWindow { rate: 0.0, ..lo };
        assert!(ChaosPlan::draw_flip(42, 2, 0, &off).is_none());
    }

    #[test]
    fn per_replica_windows_answer_what_the_plan_walk_answers() {
        // The walk over every plan event that the per-replica index
        // replaced: the gray product in plan order, the first active flip
        // window in plan order.
        fn gray_walk(plan: &ChaosPlan, replica: usize, t: f64) -> f64 {
            let mut factor = 1.0;
            for e in plan.events() {
                if let ChaosKind::Gray { len_s, inflation } = e.kind {
                    if e.replica == replica && t >= e.at_s && t < e.at_s + len_s {
                        factor *= inflation;
                    }
                }
            }
            factor
        }
        fn flip_walk(plan: &ChaosPlan, replica: usize, t: f64) -> Option<BitFlipWindow> {
            plan.events().iter().find_map(|e| match e.kind {
                ChaosKind::BitFlip {
                    len_s,
                    rate,
                    target,
                    min_bit,
                } if e.replica == replica && t >= e.at_s && t < e.at_s + len_s => {
                    Some(BitFlipWindow {
                        rate,
                        target,
                        min_bit,
                    })
                }
                _ => None,
            })
        }
        // Few replicas and many windows, so windows overlap on a replica;
        // distinct rates tell overlapping flip windows apart.
        let mut plan = ChaosPlan::campaign(3, 50.0, 3, 4, 12, 4);
        for (i, rate) in [0.1, 0.2, 0.3].into_iter().enumerate() {
            plan = plan.with_bitflip_campaign(30 + i as u64, 50.0, 3, 6, rate, 8 + i as u32);
        }
        let windows = plan.silent_windows(3);
        let (mut stacked, mut overlapping_flips) = (0, 0);
        for k in 0..2000 {
            let t = k as f64 * 0.025;
            for (r, w) in windows.iter().enumerate() {
                let gray = w.gray_inflation_at(t);
                assert_eq!(
                    gray.to_bits(),
                    gray_walk(&plan, r, t).to_bits(),
                    "r{r} t{t}"
                );
                assert_eq!(w.bitflip_at(t), flip_walk(&plan, r, t), "r{r} t{t}");
                let active = |e: &&ChaosEvent| {
                    e.replica == r
                        && matches!(e.kind, ChaosKind::BitFlip { len_s, .. }
                            if t >= e.at_s && t < e.at_s + len_s)
                };
                stacked += usize::from(gray > 8.0);
                overlapping_flips += usize::from(plan.events().iter().filter(active).count() > 1);
            }
        }
        assert!(
            stacked > 0 && overlapping_flips > 0,
            "{stacked} {overlapping_flips}"
        );
        // Windows aimed past the fleet are dropped.
        assert!(plan.silent_windows(0).is_empty());
    }

    #[test]
    fn bitflip_campaign_is_pure_and_preserves_existing_events() {
        let base = ChaosPlan::campaign(7, 100.0, 8, 2, 1, 1);
        let a = base.clone().with_bitflip_campaign(7, 100.0, 8, 3, 0.2, 12);
        let b = base.clone().with_bitflip_campaign(7, 100.0, 8, 3, 0.2, 12);
        assert_eq!(a, b);
        assert_eq!(a.counts(), base.counts());
        assert_eq!(bitflips(&a), 3);
        for e in a.events() {
            assert!(e.at_s >= 0.0 && e.at_s <= 100.0);
            assert!(e.replica < 8);
        }
        // Degenerate inputs leave the plan untouched.
        let same = base
            .clone()
            .with_bitflip_campaign(7, f64::NAN, 8, 3, 0.2, 12);
        assert_eq!(same, base);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan =
            ChaosPlan::campaign(7, 60.0, 4, 2, 1, 1).with_bitflip_campaign(7, 60.0, 4, 2, 0.3, 16);
        let json = serde_json::to_string(&serde_json::to_value(&plan))
            .unwrap_or_else(|e| panic!("serialize: {e:?}"));
        let back: ChaosPlan =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserialize: {e:?}"));
        assert_eq!(plan, back);
    }
}
