//! Versioned checkpoints for long tuning campaigns.
//!
//! Development-time tuning runs for hours (§4); a crash near the end of a
//! campaign must not throw the whole run away. Every N rounds the search
//! driver (`crate::evaluate::search`) serialises a
//! [`SearchCheckpoint`] capturing *all* advancing state — bandit and RNG
//! state ([`TunerState`]), the evaluation cache, the collected candidates
//! and telemetry, and the supervision bookkeeping (quarantine, per-config
//! attempt cursors) — so a resumed run replays the exact proposal stream
//! and fault draws of an uninterrupted one, bit for bit.
//!
//! The on-disk format is versioned JSON, written atomically (temp file +
//! rename) so a crash mid-write can never leave a truncated checkpoint in
//! place of a good one. Loading is strict: version, structure, float
//! finiteness and the content fingerprint are all validated into typed
//! [`CheckpointError`]s. This is the one state the repo writes to disk to
//! resume from; a crashed fleet replica's warm-restart state never leaves
//! memory (`crate::fleet`).

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::evaluate::{BatchTelemetry, CacheSnapshot};
use crate::pareto::TradeoffPoint;
use crate::search::TunerState;
use crate::ship::{fnv1a, FNV_OFFSET};
use crate::supervise::SupervisionSnapshot;

/// Current checkpoint schema version; bumped on any layout change.
/// Version 2 added the content fingerprint.
pub const CHECKPOINT_VERSION: u32 = 2;

/// When and where the batch driver writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Write after every N completed rounds (values < 1 behave as 1).
    pub every_rounds: usize,
    /// Checkpoint file path (overwritten atomically each time).
    pub path: PathBuf,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every `every_rounds` rounds.
    pub fn new(every_rounds: usize, path: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            every_rounds,
            path: path.into(),
        }
    }
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (rendered, since `io::Error` is not `Clone`).
    Io(String),
    /// The file is not a structurally valid checkpoint.
    Malformed(String),
    /// The file is a checkpoint of an incompatible schema version.
    VersionMismatch {
        /// The version found in the file.
        found: u32,
    },
    /// The checkpoint is valid but was written by a run with different
    /// parameters than the one trying to resume from it.
    Mismatch(String),
    /// The checkpoint's content fingerprint disagrees with its contents:
    /// the file was corrupted (bit rot, partial overwrite, manual edit)
    /// after it was sealed. Resuming from it would silently diverge, so it
    /// is refused instead.
    FingerprintMismatch {
        /// Fingerprint recomputed from the contents.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version {found} incompatible with supported version {CHECKPOINT_VERSION}"
            ),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint/run mismatch: {e}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: contents hash to {expected:#018x} but the file claims {found:#018x} — the checkpoint was corrupted after sealing"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------------
// The sealed envelope
// ---------------------------------------------------------------------------

/// Minimal probe deserialising only the version field (tolerates any
/// trailing fields because the vendored deserializer ignores unknown keys).
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

// ---------------------------------------------------------------------------
// Search checkpoints
// ---------------------------------------------------------------------------

/// Everything needed to resume a batched search mid-campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// The QoS constraint of the run.
    pub qos_min: f64,
    /// The batch size of the run.
    pub batch_size: usize,
    /// Completed rounds (seed-anchor round included).
    pub rounds: usize,
    /// Bandit, RNG, and technique state.
    pub tuner: TunerState,
    /// The evaluation cache (sorted entries + counters).
    pub cache: CacheSnapshot,
    /// Constraint-satisfying candidates collected so far.
    pub candidates: Vec<TradeoffPoint>,
    /// Per-round telemetry so far.
    pub telemetry: Vec<BatchTelemetry>,
    /// Supervision state: fault counters, quarantine, attempt cursors.
    pub supervision: SupervisionSnapshot,
    /// Content fingerprint: FNV-1a over the canonical JSON of this
    /// checkpoint with this field zeroed. Stamped by [`Self::seal`] (and by
    /// [`Self::save`]); checked on every load so a corrupted file is
    /// refused with a typed error instead of silently resuming wrong.
    pub fingerprint: u64,
}

impl SearchCheckpoint {
    /// Serialises the checkpoint to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint state contains only finite floats")
    }

    /// Recomputes the content fingerprint, FNV-1a over the canonical JSON
    /// of everything but the fingerprint field itself.
    fn content_fingerprint(&self) -> u64 {
        let mut z = self.clone();
        z.fingerprint = 0;
        fnv1a(FNV_OFFSET, z.to_json().as_bytes())
    }

    /// Stamps the content fingerprint. A checkpoint must be sealed before
    /// its JSON can pass [`Self::from_json`].
    pub fn seal(&mut self) {
        self.fingerprint = self.content_fingerprint();
    }

    /// Parses and validates a checkpoint from JSON: schema version,
    /// structure, finiteness, then the content fingerprint — a corrupted
    /// file is refused with a typed error instead of silently resuming
    /// wrong.
    pub fn from_json(s: &str) -> Result<SearchCheckpoint, CheckpointError> {
        // Peek at the version first so an old-format file reports a version
        // mismatch, not an opaque structural error.
        if let Ok(v) = serde_json::from_str::<VersionProbe>(s) {
            if v.version != CHECKPOINT_VERSION {
                return Err(CheckpointError::VersionMismatch { found: v.version });
            }
        }
        let cp: SearchCheckpoint =
            serde_json::from_str(s).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch { found: cp.version });
        }
        if !cp.qos_min.is_finite() {
            return Err(CheckpointError::Malformed("non-finite qos_min".into()));
        }
        let expected = cp.content_fingerprint();
        if cp.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                expected,
                found: cp.fingerprint,
            });
        }
        Ok(cp)
    }

    /// Writes the checkpoint atomically: serialise to `<path>.tmp`, then
    /// rename over `path`, so a crash mid-write never leaves a truncated
    /// file where a good checkpoint used to be. The written copy is always
    /// sealed.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut cp = self.clone();
        cp.seal();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, cp.to_json()).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Loads and validates a checkpoint from disk.
    pub fn load(path: &Path) -> Result<SearchCheckpoint, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        SearchCheckpoint::from_json(&json)
    }

    /// Checks that this checkpoint belongs to a run with the given
    /// parameters — resuming under different parameters would silently
    /// break bit-identical replay, so it is refused instead.
    pub fn validate_run(&self, qos_min: f64, batch_size: usize) -> Result<(), CheckpointError> {
        if self.qos_min != qos_min {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint qos_min {} vs run qos_min {}",
                self.qos_min, qos_min
            )));
        }
        if self.batch_size != batch_size.max(1) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint batch_size {} vs run batch_size {}",
                self.batch_size, batch_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::evaluate::{CacheStats, Evaluation};
    use crate::knobs::KnobId;
    use crate::search::{ArmState, TechniqueState};
    use crate::supervise::FaultStats;

    fn sample() -> SearchCheckpoint {
        let mut cp = SearchCheckpoint {
            version: CHECKPOINT_VERSION,
            qos_min: 89.5,
            batch_size: 16,
            rounds: 3,
            tuner: TunerState {
                rng: [1, 2, 3, u64::MAX],
                iterations: 48,
                since_improvement: 7,
                best: Some((Config::from_knobs(vec![KnobId(2), KnobId(0)]), 1.75)),
                arms: vec![ArmState {
                    history: vec![true, false, true],
                    uses: 12,
                }],
                techniques: vec![
                    TechniqueState::Random,
                    TechniqueState::Evolutionary { sites: 3 },
                    TechniqueState::Torczon {
                        center: Some(vec![1, 0]),
                        step: 2,
                    },
                    TechniqueState::NelderMead {
                        simplex: vec![(vec![0, 1], 1.25)],
                        max_vertices: 8,
                    },
                ],
            },
            cache: CacheSnapshot {
                entries: vec![(
                    Config::from_knobs(vec![KnobId(2), KnobId(0)]),
                    Evaluation {
                        qos: 92.125,
                        perf: 1.75,
                    },
                )],
                stats: CacheStats {
                    hits: 30,
                    misses: 17,
                    dedup: 1,
                },
            },
            candidates: vec![TradeoffPoint {
                qos: 92.125,
                perf: 1.75,
                config: Config::from_knobs(vec![KnobId(2), KnobId(0)]),
            }],
            telemetry: vec![BatchTelemetry {
                round: 0,
                proposed: 2,
                cached: 0,
                evaluated: 2,
                failed: 0,
                best_fitness: 1.75,
            }],
            supervision: SupervisionSnapshot {
                stats: FaultStats {
                    attempts: 20,
                    retries: 3,
                    errors_caught: 2,
                    panics_caught: 1,
                    poisoned: 0,
                    exhausted: 1,
                    quarantined: 1,
                    quarantine_hits: 2,
                    skipped: 1,
                },
                quarantine: vec![Config::from_knobs(vec![KnobId(1), KnobId(1)])],
                failures: vec![],
                attempt_base: vec![(Config::from_knobs(vec![KnobId(2), KnobId(0)]), 4)],
            },
            fingerprint: 0,
        };
        cp.seal();
        cp
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let cp = sample();
        let back = SearchCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn disk_roundtrip_is_exact_and_atomic() {
        let dir = std::env::temp_dir().join("at_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let cp = sample();
        cp.save(&path).unwrap();
        // No stray temp file left behind.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut cp = sample();
        cp.version = CHECKPOINT_VERSION + 1;
        let err = SearchCheckpoint::from_json(&cp.to_json()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::VersionMismatch {
                found: CHECKPOINT_VERSION + 1
            }
        );
    }

    #[test]
    fn truncated_json_is_malformed_not_a_panic() {
        let json = sample().to_json();
        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            let err = SearchCheckpoint::from_json(&json[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Malformed(_) | CheckpointError::VersionMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SearchCheckpoint::load(Path::new("/nonexistent/at/cp.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn tampered_contents_are_a_typed_fingerprint_mismatch() {
        // Structurally valid, version intact, but a field changed after
        // sealing: the fingerprint no longer matches the contents.
        let mut cp = sample();
        cp.qos_min = 90.0;
        let err = SearchCheckpoint::from_json(&cp.to_json()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "{err}"
        );
        // Re-sealing repairs it.
        cp.seal();
        assert!(SearchCheckpoint::from_json(&cp.to_json()).is_ok());
    }

    #[test]
    fn unsealed_checkpoint_is_rejected() {
        let mut cp = sample();
        cp.fingerprint = 0;
        let err = SearchCheckpoint::from_json(&cp.to_json()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { found: 0, .. }),
            "{err}"
        );
    }

    /// Fixture: `sample()` as sealed version-2 JSON, captured as a string.
    /// The format and the fingerprint discipline are a compatibility
    /// surface: such files must keep loading.
    #[test]
    fn sealed_v2_checkpoint_fixtures_still_load() {
        let search = concat!(
            r#"{"version":2,"qos_min":89.5,"batch_size":16,"rounds":3,"tuner":{"rng":[1,2,3,1844674"#,
            r#"4073709551615],"iterations":48,"since_improvement":7,"best":[{"knobs":[2,0]},1.75],""#,
            r#"arms":[{"history":[true,false,true],"uses":12}],"techniques":["Random",{"Evolutionar"#,
            r#"y":{"sites":3}},{"Torczon":{"center":[1,0],"step":2}},{"NelderMead":{"simplex":[[[0,"#,
            r#"1],1.25]],"max_vertices":8}}]},"cache":{"entries":[[{"knobs":[2,0]},{"qos":92.125,"p"#,
            r#"erf":1.75}]],"stats":{"hits":30,"misses":17,"dedup":1}},"candidates":[{"qos":92.125,"#,
            r#""perf":1.75,"config":{"knobs":[2,0]}}],"telemetry":[{"round":0,"proposed":2,"cached""#,
            r#":0,"evaluated":2,"failed":0,"best_fitness":1.75}],"supervision":{"stats":{"attempts""#,
            r#":20,"retries":3,"errors_caught":2,"panics_caught":1,"poisoned":0,"exhausted":1,"quar"#,
            r#"antined":1,"quarantine_hits":2,"skipped":1},"quarantine":[{"knobs":[1,1]}],"failures"#,
            r#"":[],"attempt_base":[[{"knobs":[2,0]},4]]},"fingerprint":786458776996160725}"#
        );
        assert_eq!(SearchCheckpoint::from_json(search).unwrap(), sample());
    }

    #[test]
    fn run_validation_rejects_parameter_drift() {
        let cp = sample();
        cp.validate_run(89.5, 16).unwrap();
        assert!(matches!(
            cp.validate_run(90.0, 16),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            cp.validate_run(89.5, 8),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
