//! Kernel instrumentation: the work a kernel did travels by return value.
//!
//! The skip-work tests for perforation and filter sampling need proof that
//! approximate kernels *execute* less work than exact ones, not merely that
//! they discard results after computing them, and the CPU cost model
//! (`at_core::perf`) prices a configuration by the work its kernels do.
//! Every `_into` entry the graph executor dispatches therefore returns a
//! [`Counters`]: each count is taken beside the work it counts (per GEMM
//! tile and row block, per staged image, per scattered plane, per pooling
//! or element-wise call — never inside a microkernel, staging or window
//! loop, where a counter cost 5–20 % of the loop), and
//! `at_ir::exec::node_counters` computes the same values from shapes and
//! knobs alone. The entries that return a new tensor (`conv2d`,
//! `matmul_ex` and their ABFT twins `conv2d_abft`, `matmul_abft`) add their
//! multiplies, on the calling thread, to that thread's tally, which
//! [`count_muls`] reads.

use crate::error::TensorError;
use crate::ops::activation::UnaryOp;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::ops::{Add, AddAssign};

/// Declares [`Counters`] with one `u64` per listed field, and
/// [`Counters::FIELDS`] naming them in declaration order.
macro_rules! counters {
    ($($(#[doc = $doc:expr])+ $name:ident,)+) => {
        /// The work one kernel call (or one graph node, or one run) did, in
        /// units a CPU cost model can weigh: microkernel steps, staged and
        /// scattered elements, epilogue and element-wise elements by op,
        /// pooling reads and packed elements. Counts are deterministic: they
        /// depend on shapes and knobs, never on data or thread count.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl Counters {
            /// The field names, in declaration order: the feature list of the
            /// committed CPU cost table.
            pub const FIELDS: [&'static str; COUNTER_FIELDS] = [$(stringify!($name)),+];

            /// The field values, in [`Counters::FIELDS`] order.
            pub fn values(&self) -> [u64; COUNTER_FIELDS] {
                [$(self.$name),+]
            }
        }

        impl AddAssign for Counters {
            fn add_assign(&mut self, other: Counters) {
                $(self.$name += other.$name;)+
            }
        }
    };
}

/// Tile rows a microkernel step is counted as at least (see
/// `Counters::fma_steps`).
pub const MIN_TILE_ROWS: usize = 4;

/// Number of fields of [`Counters`].
pub const COUNTER_FIELDS: usize = 29;

counters! {
    /// Multiplies the GEMMs ran (`m·k·n`).
    muls,
    /// Exact-multiplier microkernel steps: one `k` step of one tile row over
    /// a whole panel (a ragged panel's surplus lanes included), with a
    /// tile's rows padded to [`MIN_TILE_ROWS`] — below that a step waits on
    /// the FMA chains' latency, not on their throughput.
    fma_steps,
    /// LUT-multiplier microkernel steps, counted like `fma_steps`.
    lut_steps,
    /// GEMM calls (one per convolution image and group, one per dense
    /// layer): the set-up a microkernel step does not see.
    gemm_calls,
    /// Elements the shifted-copy staging path writes, FP32 operands.
    stage_copy_fp32,
    /// Elements the shifted-copy staging path writes, FP16 operands.
    stage_copy_fp16,
    /// Elements the shifted-copy staging path writes, LUT operands.
    stage_copy_lut,
    /// Elements the gathered-row staging path writes, FP32 operands.
    stage_gather_fp32,
    /// Elements the gathered-row staging path writes, FP16 operands.
    stage_gather_fp16,
    /// Elements the gathered-row staging path writes, LUT operands.
    stage_gather_lut,
    /// Pieces the staging quantises one at a time: a whole channel when
    /// its rows are staged in order, else one row each.
    stage_rows,
    /// Output elements a perforated convolution scatters or interpolates.
    scatter,
    /// Output rows a perforated convolution scatters or interpolates.
    scatter_rows,
    /// Operand elements quantised or gathered before a GEMM: FP16 weights,
    /// bias and dense inputs, LUT scale scans and quantised weights and
    /// inputs, and filter sampling's kept weights.
    operand_prep,
    /// Epilogue elements scaled and biased (conv) or biased (dense).
    epi_affine,
    /// Epilogue elements rounded through binary16.
    epi_fp16,
    /// Epilogue elements through a piecewise-linear activation (ReLU,
    /// clipped ReLU, `abs`).
    epi_relu,
    /// Epilogue elements through `tanh`.
    epi_tanh,
    /// Taps pooling windows read.
    pool_reads,
    /// Output rows pooling folds (each clips its windows once).
    pool_rows,
    /// Elements of a standalone piecewise-linear map.
    ew_relu,
    /// Elements of a standalone `tanh`.
    ew_tanh,
    /// Elements of an element-wise `Add`.
    ew_add,
    /// Elements of a batch normalisation.
    ew_norm,
    /// Elements of a row softmax.
    ew_softmax,
    /// Elements a reduction reads.
    ew_reduce,
    /// Elements copied as they are (a `Flatten` that cannot rename).
    ew_copy,
    /// Elements rounded through binary16 outside a GEMM: FP16 maps, pools,
    /// normalisations, softmax, reductions and adds.
    ew_fp16,
    /// Elements a dense layer packs into panel slabs (padding included).
    dense_pack,
}

impl Counters {
    /// Whether no work at all was counted.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }

    /// Counts `n` elements of a standalone element-wise map `op`.
    pub(crate) fn map(op: UnaryOp, n: usize) -> Counters {
        let mut c = Counters::default();
        *c.map_field(op) += n as u64;
        c
    }

    /// The field counting elements of a standalone map `op`.
    fn map_field(&mut self, op: UnaryOp) -> &mut u64 {
        match op {
            UnaryOp::Tanh => &mut self.ew_tanh,
            _ => &mut self.ew_relu,
        }
    }

    /// The field counting elements of `op` applied in a GEMM epilogue.
    pub(crate) fn epi_field(&mut self, op: UnaryOp) -> &mut u64 {
        match op {
            UnaryOp::Tanh => &mut self.epi_tanh,
            _ => &mut self.epi_relu,
        }
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(mut self, other: Counters) -> Counters {
        self += other;
        self
    }
}

impl std::iter::Sum for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), Add::add)
    }
}

thread_local! {
    /// Multiplies of the tensor-returning entries called on this thread.
    static TALLY: Cell<u64> = const { Cell::new(0) };
}

/// [`Tensor::written_by`] for an `_into` entry that returns its
/// [`Counters`], whose multiplies go to this thread's tally.
pub(crate) fn tallied(
    shape: Shape,
    write: impl FnOnce(&mut [f32]) -> Result<Counters, TensorError>,
) -> Result<Tensor, TensorError> {
    let mut muls = 0;
    let t = Tensor::written_by(shape, |out| {
        muls = write(out)?.muls;
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
            tallied(Shape::vec(1), |_| {
                Ok(Counters {
                    muls: 3,
                    ..Counters::default()
                })
            })
            .unwrap();
            tallied(Shape::vec(2), |_| {
                Ok(Counters {
                    muls: 4,
                    ..Counters::default()
                })
            })
            .unwrap();
        });
        assert_eq!(n, 7);
    }
}
