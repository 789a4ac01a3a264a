//! The crate's one fork-or-inline rule for data-parallel loops.
//!
//! Handing a part of a loop to another thread costs a channel send and a
//! condvar wake-up — tens of microseconds on a small VM — so a loop forks
//! only when every thread gets at least [`GRAIN`] element-wise items of
//! work (rayon's `with_min_len`); anything smaller runs inline on the
//! caller. Partitioning never changes results: parts are contiguous, each
//! element is computed by exactly one thread, and no reduction crosses a
//! part boundary.

use rayon::prelude::*;

/// Minimum element-wise items (one `tanh`, one binary16 round-trip, one
/// pooling-window tap) per thread. 16 Ki items are 50–250 µs of such work:
/// LeNet's 1.5 k-element activations stay inline, Alexnet2's 64 k-element
/// ones split across at most four threads.
pub(crate) const GRAIN: usize = 1 << 14;

/// Chunk length of [`map_in_place`]: long enough for the inner loop to
/// vectorise, short enough that parts stay balanced.
const CHUNK: usize = 1 << 10;

/// Order-preserving element-wise map into a new vector.
pub(crate) fn map<T: Copy + Sync, R: Send>(xs: &[T], f: impl Fn(T) -> R + Sync) -> Vec<R> {
    xs.par_iter().with_min_len(GRAIN).map(|&x| f(x)).collect()
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
