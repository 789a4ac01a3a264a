//! Kernel instrumentation: a process-wide multiply counter.
//!
//! The skip-work tests for perforation and filter sampling need proof that
//! approximate kernels *execute* fewer multiplies than exact ones, not
//! merely that they discard results after computing them. Every GEMM panel
//! and LUT inner loop reports its multiply count here in bulk (one atomic
//! add per kernel invocation, so the counter costs nothing measurable even
//! on hot paths).
//!
//! The counter is global and relaxed: concurrent kernels from rayon workers
//! all add to it, and the total for a fixed workload is deterministic
//! because the amount of work is. Tests that read it must serialise the
//! workloads they count (run them inside a single `#[test]`, or take the
//! `counting_lock`) so unrelated kernels do not pollute the window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static MULS: AtomicU64 = AtomicU64::new(0);
static COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Adds `n` multiplies to the global counter (relaxed; call once per
/// kernel/panel, not per element).
#[inline]
pub(crate) fn add_muls(n: u64) {
    MULS.fetch_add(n, Ordering::Relaxed);
}

/// Current multiply count since process start.
pub(crate) fn muls() -> u64 {
    MULS.load(Ordering::Relaxed)
}

/// Serialises counting windows across tests in one process. Hold the guard
/// around `muls`/workload/`muls` sequences.
pub(crate) fn counting_lock() -> std::sync::MutexGuard<'static, ()> {
    COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the counting lock and returns (result, multiplies
/// executed by `f`).
pub fn count_muls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _guard = counting_lock();
    let before = muls();
    let out = f();
    (out, muls().saturating_sub(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let (_, n) = count_muls(|| {
            add_muls(3);
            add_muls(4);
        });
        assert_eq!(n, 7);
    }
}
