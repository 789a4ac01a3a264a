//! The crate's one fork-or-inline rule for data-parallel loops.
//!
//! Handing a part of a loop to another thread costs a channel send and a
//! condvar wake-up — 6–8 µs measured below, tens on a busy host — so a loop
//! forks only when every thread gets at least [`GRAIN`] element-wise items
//! of work (rayon's `with_min_len`); anything smaller runs inline on the
//! caller. Partitioning never changes results: parts are contiguous, each
//! element is computed by exactly one thread, and no reduction crosses a
//! part boundary.

use rayon::prelude::*;

/// Minimum element-wise items (one `tanh`, one binary16 round-trip, one
/// pooling-window tap) per thread.
///
/// Measured with the element-wise map on the 2-vCPU Xeon VM (min of 300, µs, inline
/// → forked in two): the vectorised maps cost 0.15 (ReLU) to 0.7 (`tanh`
/// under FP16) ns per item, and forking adds a fixed 6–8 µs at any size —
/// 32 Ki ReLU 4.0 → 10.8, 32 Ki `tanh` 10.1 → 16.2, 128 Ki `tanh` 34 → 48.
/// 128 Ki items are 20–90 µs of such work, so the hand-off stays under a
/// third of what each thread is given; at the 16 Ki that suited libm `tanh`
/// and the soft-float (3–15 ns per item) it would exceed the work itself.
/// LeNet's activations and Alexnet2-Tiny's 64 k-element ones at batch 16
/// (20 µs of `tanh`) stay inline; at batch 64 the latter split in two.
pub(crate) const GRAIN: usize = 1 << 17;

/// Chunk length of [`map_in_place`]: long enough for the inner loop to
/// vectorise, short enough that parts stay balanced.
const CHUNK: usize = 1 << 10;

/// Order-preserving element-wise map into a new vector.
pub(crate) fn map<T: Copy + Sync, R: Send>(xs: &[T], f: impl Fn(T) -> R + Sync) -> Vec<R> {
    xs.par_iter().with_min_len(GRAIN).map(|&x| f(x)).collect()
}

/// Order-preserving element-wise map into `out` (as long as `xs`).
pub(crate) fn map_into<T: Copy + Sync, R: Send + Sync>(
    xs: &[T],
    out: &mut [R],
    f: impl Fn(T) -> R + Sync,
) {
    out.par_chunks_mut(CHUNK)
        .with_min_len(GRAIN / CHUNK)
        .zip(xs.par_chunks(CHUNK))
        .for_each(|(o, x)| o.iter_mut().zip(x).for_each(|(o, &x)| *o = f(x)));
}

/// Element-wise map in place.
pub(crate) fn map_in_place<T: Copy + Send + Sync>(xs: &mut [T], f: impl Fn(T) -> T + Sync) {
    xs.par_chunks_mut(CHUNK)
        .with_min_len(GRAIN / CHUNK)
        .for_each(|chunk| chunk.iter_mut().for_each(|x| *x = f(*x)));
}

/// `with_min_len` for a `par_chunks_mut` loop whose chunks each cost `work`
/// element-wise items.
pub(crate) fn min_chunks(work: usize) -> usize {
    GRAIN.div_ceil(work.max(1))
}
