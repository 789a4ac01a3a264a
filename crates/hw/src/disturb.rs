//! Scripted time-varying hardware disturbances against the simulated device.
//!
//! The paper's run-time experiments (§6.4) step the TX2 GPU through 12 DVFS
//! frequencies and show the dynamic tuner re-selecting curve points to hold
//! the performance target. A real board exposes those disturbances through
//! its governor and sensors; here a [`Scenario`] scripts them against the
//! device model so closed-loop adaptation is *deterministic and testable*:
//! the state of the device at invocation `i` is a pure function of the
//! scenario (plus its fixed seed), never of wall-clock time.
//!
//! Supported disturbance classes:
//!
//! * [`Disturbance::GovernorStep`] — the DVFS governor pins the clock to a
//!   step of the [`FrequencyLadder`] (§6.4's 12-step sweep).
//! * [`Disturbance::ThermalRamp`] — thermal throttling linearly lowers the
//!   clock towards a floor step and holds it there.
//! * [`Disturbance::Brownout`] — a power-rail brownout scales the effective
//!   clock by a factor for a bounded interval.
//! * [`Disturbance::LoadSpike`] — a transient co-running load multiplies
//!   invocation time without any clock change (invisible to the frequency
//!   sensor, so only feedback control can counteract it).
//! * [`Disturbance::SensorDropout`] — the freq/power sensors report `None`
//!   for an interval (the I2C profiler goes away; control must degrade
//!   gracefully).
//! * [`Disturbance::TimingJitter`] — multiplicative per-invocation timing
//!   noise from a seeded RNG, for exercising switch hysteresis.

use crate::dvfs::FrequencyLadder;
use crate::power::PowerModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Effective device condition during one invocation, resolved from every
/// active disturbance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceState {
    /// Effective clock in MHz (> 0; after governor, thermal and brownout).
    pub freq_mhz: f64,
    /// Multiplier on invocation time from external load and jitter (> 0).
    pub load_factor: f64,
    /// Whether the freq/power sensors report readings this invocation.
    pub sensors_ok: bool,
}

/// One scripted event on the timeline. Invocation indices are 0-based;
/// an interval `{ at, len }` covers invocations `at .. at + len`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Disturbance {
    /// The DVFS governor pins the clock to `ladder_idx` from invocation
    /// `at` onwards (until a later step overrides it).
    GovernorStep {
        /// First affected invocation.
        at: usize,
        /// Target ladder step (0 = highest frequency; clamped to the
        /// ladder).
        ladder_idx: usize,
    },
    /// Thermal throttling: from invocation `at`, the clock ramps linearly
    /// over `len` invocations down to the `floor_idx` ladder frequency and
    /// stays there (heat does not script its own recovery).
    ThermalRamp {
        /// First affected invocation.
        at: usize,
        /// Ramp length in invocations (0 = immediate).
        len: usize,
        /// Ladder step whose frequency is the throttle floor.
        floor_idx: usize,
    },
    /// Power-rail brownout: the effective clock is multiplied by
    /// `frequency_factor` for `len` invocations.
    Brownout {
        /// First affected invocation.
        at: usize,
        /// Duration in invocations.
        len: usize,
        /// Clock multiplier in (0, 1].
        frequency_factor: f64,
    },
    /// Transient co-running load: invocation time is multiplied by
    /// `time_factor` for `len` invocations, with no clock change.
    LoadSpike {
        /// First affected invocation.
        at: usize,
        /// Duration in invocations.
        len: usize,
        /// Time multiplier (≥ 1 for a slowdown).
        time_factor: f64,
    },
    /// Sensor dropout: `freq_mhz` / `power_w` read as `None` for `len`
    /// invocations.
    SensorDropout {
        /// First affected invocation.
        at: usize,
        /// Duration in invocations.
        len: usize,
    },
    /// Multiplicative timing noise: every invocation's time is scaled by
    /// `1 + U(-amplitude, amplitude)` drawn from the scenario's seeded RNG.
    TimingJitter {
        /// Noise amplitude in (0, 1).
        amplitude: f64,
    },
}

impl Disturbance {
    fn active(at: usize, len: usize, i: usize) -> bool {
        i >= at && i < at.saturating_add(len)
    }
}

/// A named, scripted timeline of disturbances over a fixed number of
/// invocations. The device state at any invocation is a pure function of
/// the scenario, so identical scenarios replay bit-identical traces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    name: String,
    ladder: FrequencyLadder,
    disturbances: Vec<Disturbance>,
    invocations: usize,
    seed: u64,
}

impl Scenario {
    /// An empty scenario (device at nominal conditions throughout).
    pub fn new(name: &str, ladder: FrequencyLadder, invocations: usize, seed: u64) -> Scenario {
        assert!(!ladder.is_empty(), "scenario ladder must not be empty");
        Scenario {
            name: name.to_string(),
            ladder,
            disturbances: Vec::new(),
            invocations,
            seed,
        }
    }

    /// Adds a disturbance (builder style).
    pub fn with(mut self, d: Disturbance) -> Scenario {
        self.disturbances.push(d);
        self
    }

    /// Adds several disturbances at once (builder style).
    pub(crate) fn with_all(mut self, ds: impl IntoIterator<Item = Disturbance>) -> Scenario {
        self.disturbances.extend(ds);
        self
    }

    /// Re-sizes the scripted horizon (builder style). Serving workloads
    /// derive their invocation count from an arrival trace, not the other
    /// way round, so the horizon is adjusted after composition.
    pub fn with_invocations(mut self, invocations: usize) -> Scenario {
        self.invocations = invocations;
        self
    }

    /// A brownout storm: a power-rail brownout over `at .. at + len` with a
    /// sensor dropout across the same window (the rail dip takes the I2C
    /// profiler with it) plus mild timing jitter. The canonical "hardware
    /// degrades exactly when traffic spikes" composition for overload
    /// experiments.
    pub fn brownout_storm(
        invocations: usize,
        at: usize,
        len: usize,
        frequency_factor: f64,
        seed: u64,
    ) -> Scenario {
        Scenario::new(
            "brownout-storm",
            FrequencyLadder::tx2_gpu(),
            invocations,
            seed,
        )
        .with_all([
            Disturbance::Brownout {
                at,
                len,
                frequency_factor,
            },
            Disturbance::SensorDropout { at, len },
            Disturbance::TimingJitter { amplitude: 0.02 },
        ])
    }

    /// The paper's §6.4 experiment: the governor walks the full ladder from
    /// the highest to the lowest step, dwelling `dwell` invocations on each.
    pub fn tx2_dvfs_sweep(dwell: usize) -> Scenario {
        let ladder = FrequencyLadder::tx2_gpu();
        let steps = ladder.len();
        let mut s = Scenario::new("tx2-dvfs-sweep", ladder, steps * dwell.max(1), 0);
        for idx in 0..steps {
            s.disturbances.push(Disturbance::GovernorStep {
                at: idx * dwell.max(1),
                ladder_idx: idx,
            });
        }
        s
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total scripted invocations.
    pub fn invocations(&self) -> usize {
        self.invocations
    }

    /// Nominal (highest-step) frequency in MHz.
    pub fn nominal_mhz(&self) -> f64 {
        self.ladder.max()
    }

    /// Resolves the device state at invocation `i`.
    ///
    /// Resolution order: the latest governor step at or before `i` sets the
    /// base clock; thermal ramps lower it further (the ramp interpolates
    /// from the unthrottled clock down to the floor frequency); brownouts
    /// multiply it; the clock is floored at 1 MHz. Load spikes and jitter
    /// multiply the load factor, and any active dropout masks the sensors.
    /// The result is always finite with positive clock and load.
    pub fn state_at(&self, i: usize) -> DeviceState {
        let mut ladder_idx = 0usize;
        let mut step_at = 0usize;
        for d in &self.disturbances {
            if let Disturbance::GovernorStep { at, ladder_idx: li } = d {
                if *at <= i && *at >= step_at {
                    step_at = *at;
                    ladder_idx = (*li).min(self.ladder.len() - 1);
                }
            }
        }
        let mut freq = self.ladder.at(ladder_idx);
        let mut load = 1.0f64;
        let mut sensors_ok = true;
        for d in &self.disturbances {
            match *d {
                Disturbance::GovernorStep { .. } => {}
                Disturbance::ThermalRamp { at, len, floor_idx } => {
                    if i >= at {
                        let floor = self.ladder.at(floor_idx.min(self.ladder.len() - 1));
                        let progress = if len == 0 {
                            1.0
                        } else {
                            ((i - at) as f64 / len as f64).min(1.0)
                        };
                        let throttled = freq + (floor - freq) * progress;
                        freq = freq.min(throttled);
                    }
                }
                Disturbance::Brownout {
                    at,
                    len,
                    frequency_factor,
                } => {
                    if Disturbance::active(at, len, i) {
                        freq *= frequency_factor.clamp(1e-3, 1.0);
                    }
                }
                Disturbance::LoadSpike {
                    at,
                    len,
                    time_factor,
                } => {
                    if Disturbance::active(at, len, i) {
                        load *= time_factor.max(1e-3);
                    }
                }
                Disturbance::SensorDropout { at, len } => {
                    if Disturbance::active(at, len, i) {
                        sensors_ok = false;
                    }
                }
                Disturbance::TimingJitter { amplitude } => {
                    let a = amplitude.clamp(0.0, 0.99);
                    if a > 0.0 {
                        // Per-invocation RNG keyed on (seed, i) keeps the
                        // state a pure function of the invocation index.
                        let mut rng = StdRng::seed_from_u64(
                            self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        load *= 1.0 + rng.gen_range(-a..a);
                    }
                }
            }
        }
        DeviceState {
            freq_mhz: freq.max(1.0),
            load_factor: load.max(1e-3),
            sensors_ok,
        }
    }
}

/// The disturbed simulated device: a scenario plus the rail power model,
/// exposing exactly what a closed-loop controller can interact with — an
/// invocation-time response and (possibly absent) sensor readings.
#[derive(Clone, Debug)]
pub struct DisturbedDevice {
    scenario: Scenario,
    power: PowerModel,
}

impl DisturbedDevice {
    /// Wraps a scenario with the TX2 power model.
    pub fn tx2(scenario: Scenario) -> DisturbedDevice {
        DisturbedDevice {
            scenario,
            power: PowerModel::tx2(),
        }
    }

    /// Wraps a scenario with a custom power model.
    pub fn new(scenario: Scenario, power: PowerModel) -> DisturbedDevice {
        DisturbedDevice { scenario, power }
    }

    /// The scripted scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Device state at invocation `i`.
    pub fn state_at(&self, i: usize) -> DeviceState {
        self.scenario.state_at(i)
    }

    /// Simulated wall time of one invocation under `state` for a program
    /// whose nominal-condition baseline takes `baseline_time_s` and whose
    /// current configuration delivers `speedup`.
    ///
    /// The paper's CNN invocations are compute-bound on the TX2 GPU
    /// (`at_hw::timing`), so time scales inversely with the clock; external
    /// load multiplies it. The result is clamped finite and positive —
    /// disturbances can never produce a NaN or negative time.
    pub fn invocation_time(&self, state: &DeviceState, baseline_time_s: f64, speedup: f64) -> f64 {
        let slow = self.scenario.nominal_mhz() / state.freq_mhz.max(1.0);
        let t = baseline_time_s * slow * state.load_factor / speedup.max(1e-12);
        if t.is_finite() && t > 0.0 {
            t
        } else {
            baseline_time_s.max(1e-12)
        }
    }

    /// Sensor readings `(freq_mhz, power_w)` for an invocation: the clock
    /// and the system rail power at full utilisation, or `(None, None)`
    /// during a sensor dropout.
    pub fn sensors(&self, state: &DeviceState) -> (Option<f64>, Option<f64>) {
        if state.sensors_ok {
            let p = self.power.rails(state.freq_mhz, 1.0).sys();
            (Some(state.freq_mhz), Some(p))
        } else {
            (None, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scenario_is_nominal() {
        let s = Scenario::new("idle", FrequencyLadder::tx2_gpu(), 10, 0);
        for i in 0..10 {
            let st = s.state_at(i);
            assert_eq!(st.freq_mhz, 1300.5);
            assert_eq!(st.load_factor, 1.0);
            assert!(st.sensors_ok);
        }
    }

    #[test]
    fn sweep_visits_every_ladder_step_in_order() {
        let s = Scenario::tx2_dvfs_sweep(5);
        assert_eq!(s.invocations(), 60);
        let ladder = FrequencyLadder::tx2_gpu();
        for step in 0..12 {
            for k in 0..5 {
                let st = s.state_at(step * 5 + k);
                assert_eq!(st.freq_mhz, ladder.at(step), "step {step}");
            }
        }
    }

    #[test]
    fn latest_governor_step_wins() {
        let s = Scenario::new("steps", FrequencyLadder::tx2_gpu(), 10, 0)
            .with(Disturbance::GovernorStep {
                at: 2,
                ladder_idx: 4,
            })
            .with(Disturbance::GovernorStep {
                at: 5,
                ladder_idx: 1,
            });
        let ladder = FrequencyLadder::tx2_gpu();
        assert_eq!(s.state_at(0).freq_mhz, ladder.at(0));
        assert_eq!(s.state_at(3).freq_mhz, ladder.at(4));
        assert_eq!(s.state_at(7).freq_mhz, ladder.at(1));
    }

    #[test]
    fn thermal_ramp_reaches_and_holds_floor() {
        let ladder = FrequencyLadder::tx2_gpu();
        let floor = ladder.at(6);
        let s = Scenario::new("thermal", ladder, 40, 0).with(Disturbance::ThermalRamp {
            at: 10,
            len: 10,
            floor_idx: 6,
        });
        assert_eq!(s.state_at(9).freq_mhz, 1300.5);
        let mid = s.state_at(15).freq_mhz;
        assert!(mid < 1300.5 && mid > floor, "mid-ramp {mid}");
        for i in 20..40 {
            assert!((s.state_at(i).freq_mhz - floor).abs() < 1e-9);
        }
    }

    #[test]
    fn brownout_and_spike_are_bounded_intervals() {
        let s = Scenario::new("mix", FrequencyLadder::tx2_gpu(), 30, 0)
            .with(Disturbance::Brownout {
                at: 5,
                len: 5,
                frequency_factor: 0.5,
            })
            .with(Disturbance::LoadSpike {
                at: 8,
                len: 4,
                time_factor: 2.0,
            });
        assert_eq!(s.state_at(4).freq_mhz, 1300.5);
        assert_eq!(s.state_at(5).freq_mhz, 650.25);
        assert_eq!(s.state_at(9).freq_mhz, 650.25);
        assert_eq!(s.state_at(9).load_factor, 2.0);
        assert_eq!(s.state_at(10).freq_mhz, 1300.5);
        assert_eq!(s.state_at(12).load_factor, 1.0);
    }

    #[test]
    fn sensor_dropout_masks_sensors() {
        let s = Scenario::new("drop", FrequencyLadder::tx2_gpu(), 10, 0)
            .with(Disturbance::SensorDropout { at: 3, len: 4 });
        let d = DisturbedDevice::tx2(s);
        assert_eq!(d.sensors(&d.state_at(2)).0, Some(1300.5));
        let (f, p) = d.sensors(&d.state_at(3));
        assert_eq!(f, None);
        assert_eq!(p, None);
        assert!(d.sensors(&d.state_at(7)).0.is_some());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mk = || {
            Scenario::new("jit", FrequencyLadder::tx2_gpu(), 50, 42)
                .with(Disturbance::TimingJitter { amplitude: 0.05 })
        };
        let (a, b) = (mk(), mk());
        for i in 0..50 {
            let (sa, sb) = (a.state_at(i), b.state_at(i));
            assert_eq!(sa.load_factor, sb.load_factor, "jitter not replayable");
            assert!((sa.load_factor - 1.0).abs() <= 0.05 + 1e-12);
        }
        // Not all identical: the noise actually varies.
        let distinct: std::collections::BTreeSet<u64> = (0..50)
            .map(|i| a.state_at(i).load_factor.to_bits())
            .collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn invocation_time_tracks_slowdown_and_speedup() {
        let s = Scenario::tx2_dvfs_sweep(1);
        let d = DisturbedDevice::tx2(s);
        let bottom = d.state_at(11);
        let t = d.invocation_time(&bottom, 1.0, 1.0);
        assert!((t - 1300.5 / 318.75).abs() < 1e-9);
        let adapted = d.invocation_time(&bottom, 1.0, 1300.5 / 318.75);
        assert!((adapted - 1.0).abs() < 1e-9);
    }

    #[test]
    fn brownout_storm_composes_rail_and_sensor_failures() {
        let s = Scenario::brownout_storm(100, 20, 10, 0.5, 7).with_invocations(200);
        assert_eq!(s.invocations(), 200);
        let before = s.state_at(19);
        assert!(before.sensors_ok);
        assert_eq!(before.freq_mhz, 1300.5);
        let during = s.state_at(25);
        assert!(!during.sensors_ok, "dropout must cover the brownout");
        assert!((during.freq_mhz - 650.25).abs() < 1e-9);
        let after = s.state_at(30);
        assert!(after.sensors_ok);
        assert_eq!(after.freq_mhz, 1300.5);
        // Jitter present but bounded.
        assert!((s.state_at(3).load_factor - 1.0).abs() <= 0.02 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_ladder_rejected() {
        let _ = Scenario::new("bad", FrequencyLadder::new(vec![]), 1, 0);
    }
}
