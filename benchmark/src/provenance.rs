//! Machine and build fingerprint recorded in every result file.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;

/// Version of the result-file layout; bump when a field changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// The flags the root `.cargo/config.toml` must have applied. A build
/// without them measures different kernels (SSE2 instead of AVX), so the
/// benchmark refuses to run.
const REQUIRED_RUSTFLAGS: [&str; 2] = ["target-cpu=native", "-prefer-256-bit"];

#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Provenance {
    pub schema_version: u32,
    pub cpu_model: String,
    pub logical_cores: usize,
    pub rayon_threads: usize,
    pub rustc: String,
    pub rustflags: String,
    pub git_sha: String,
    pub git_dirty: bool,
    pub seed: u64,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(sha, dirty)` of the checkout at `root`; `("unknown", false)` when it is
/// not a git repository (the benchmark also runs from plain source trees).
fn git_state(root: &Path) -> (String, bool) {
    if !root.join(".git").exists() {
        return ("unknown".into(), false);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    (sha, dirty)
}

/// Returns the missing required flag, if the build lacks one.
pub fn missing_rustflag() -> Option<&'static str> {
    let flags = env!("BENCH_RUSTFLAGS");
    REQUIRED_RUSTFLAGS.into_iter().find(|f| !flags.contains(f))
}

pub fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn collect(root: &Path, seed: u64, rayon_threads: usize) -> Provenance {
    let (git_sha, git_dirty) = git_state(root);
    Provenance {
        schema_version: SCHEMA_VERSION,
        cpu_model: cpu_model(),
        logical_cores: logical_cores(),
        rayon_threads,
        rustc: env!("BENCH_RUSTC_VERSION").to_string(),
        rustflags: env!("BENCH_RUSTFLAGS").to_string(),
        git_sha,
        git_dirty,
        seed,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
