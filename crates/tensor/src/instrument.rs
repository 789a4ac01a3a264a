//! Kernel instrumentation: multiplies travel by return value.
//!
//! The skip-work tests for perforation and filter sampling need proof that
//! approximate kernels *execute* fewer multiplies than exact ones, not
//! merely that they discard results after computing them. Every GEMM
//! returns the multiplies it ran (`m·k·n`), and the `_into` entries above
//! it (`conv2d_into`, `matmul_into`) return their totals, so the graph
//! executor can record them per node, and the skip-work tests read them
//! from `conv2d_into`. The entries that return a new tensor (`conv2d`,
//! `matmul_ex` and their ABFT twins `conv2d_abft`, `matmul_abft`) add
//! theirs, on the calling thread, to that thread's tally, which
//! [`count_muls`] reads. The other allocating entries — `conv2d_fused`,
//! `conv2d_fused_abft`, `matmul`, `map_unary`, `max_pool2d`, `avg_pool2d`
//! and `at_promise`'s `promise_conv2d`/`promise_matmul` — are retired: their
//! `_into` forms (or `inject_noise` over an exact product) are the one path.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::Cell;

thread_local! {
    /// Multiplies of the tensor-returning entries called on this thread.
    static TALLY: Cell<u64> = const { Cell::new(0) };
}

/// [`Tensor::written_by`] for an `_into` entry that returns the multiplies
/// it ran, which go to this thread's tally.
pub(crate) fn tallied(
    shape: Shape,
    write: impl FnOnce(&mut [f32]) -> Result<u64, TensorError>,
) -> Result<Tensor, TensorError> {
    let mut muls = 0;
    let t = Tensor::written_by(shape, |out| {
        muls = write(out)?;
        Ok(())
    })?;
    TALLY.set(TALLY.get().wrapping_add(muls));
    Ok(t)
}

/// Runs `f` and returns (result, multiplies of the tensor-returning entries
/// `f` called on this thread). A kernel forked onto other threads is
/// counted by the entry that forked it; another thread's own calls never
/// are. Its only caller outside this crate's tests is the frozen
/// `benchmark/` harness; ROADMAP item 4 deletes it with the harness's next
/// change.
pub fn count_muls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = TALLY.get();
    let out = f();
    (out, TALLY.get().wrapping_sub(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let (_, n) = count_muls(|| {
            tallied(Shape::vec(1), |_| Ok(3)).unwrap();
            tallied(Shape::vec(2), |_| Ok(4)).unwrap();
        });
        assert_eq!(n, 7);
    }
}
