//! The four workloads and what they share: the pass loop, timed blocks,
//! sample sets, the correctness ledger and seed derivation.

pub mod fleet;
pub mod infer;
pub mod tune;

use crate::stats;
use crate::trace::Tracer;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups before the first pass; the last one built is the one used.
const SETUP_REPS: usize = 3;
/// Further set-ups timed before every later untraced pass.
const SETUPS_PER_PASS: usize = 2;

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Measuring budget of the untraced passes.
    pub seconds: f64,
    /// Also run traced passes and the per-layer probes.
    pub traced: bool,
    /// Shrinks repetitions (never shapes) for the self-tests.
    pub quick: bool,
}

impl Ctx {
    /// A sub-seed for one purpose, so no two generators share a stream.
    pub fn sub_seed(&self, tag: u64) -> u64 {
        at_core::guard::splitmix64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// `full` repetitions, or `quick` of them under `--quick`.
    pub fn reps(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One named correctness check and its outcome.
#[derive(Clone, Debug, Serialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Sample count and order statistics behind one reported percentile.
#[derive(Clone, Debug, Serialize)]
pub struct SampleSummary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it, if any.
    pub tail_percentile: Option<f64>,
    pub tail_value: Option<f64>,
    pub unit: &'static str,
}

pub fn summarize(samples: &[f64], unit: &'static str) -> SampleSummary {
    let tail = stats::supported_tail(samples.len());
    SampleSummary {
        n: samples.len(),
        p50: stats::median(samples),
        tail_percentile: tail,
        tail_value: tail.map(|p| stats::percentile(samples, p)),
        unit,
    }
}

/// One timed stretch of a pass: a phase of the tuning flow, the calls of
/// one ladder rung, one `run_fleet`.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub name: &'static str,
    pub secs: f64,
    /// Whether the block does the same amount of work for every seed.
    pub fixed: bool,
}

/// The timed blocks of one pass, in execution order.
pub type Pass = Vec<Block>;

/// Sum, over the distinct blocks of `passes` that `keep` admits, of each
/// block's fastest pass. Interference on these shared VMs arrives in bursts
/// of seconds, so it spoils some blocks of some passes; taking each block
/// at its best repeats to a few percent where the median pass moves by 10.
pub fn sum_of_bests(passes: &[Pass], keep: impl Fn(&Block) -> bool) -> f64 {
    let mut best: BTreeMap<&'static str, f64> = BTreeMap::new();
    for block in passes.iter().flatten().filter(|b| keep(b)) {
        let slot = best.entry(block.name).or_insert(f64::INFINITY);
        *slot = slot.min(block.secs);
    }
    best.values().sum()
}

/// Everything a workload measured in one run.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Timed blocks of each untraced pass: the source of end-to-end times.
    pub plain: Vec<Pass>,
    /// Timed blocks of each traced pass.
    pub traced: Vec<Pass>,
    /// The one pass a traced run repeats with the rayon pool at every core
    /// instead of one thread.
    pub all_cores: Option<Pass>,
    /// The workload's own end-to-end metrics, from untraced passes only.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics, from traced passes and probes.
    pub layer: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<String, SampleSummary>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Free-form findings for the trace file (worst rank inversions, …).
    pub notes: Vec<String>,
}

/// The named blocks together, each at its fastest pass of `passes`.
pub fn best_of(passes: &[Pass], names: &[&str]) -> f64 {
    sum_of_bests(passes, |b| names.contains(&b.name))
}

impl Measured {
    /// Records a check; a failed one also counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// `wall_s`: every timed block at its fastest untraced pass.
    pub fn wall_s(&self) -> f64 {
        sum_of_bests(&self.plain, |_| true)
    }

    /// `fixed_work_s`: the same over the blocks whose work no seed changes.
    pub fn fixed_work_s(&self) -> f64 {
        sum_of_bests(&self.plain, |b| b.fixed)
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The set-ups before the first pass, timed into `m.setup_s`.
pub fn first_setups<S>(
    m: &mut Measured,
    setup: impl Fn() -> Result<S, String>,
) -> Result<Vec<S>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let (built, secs) = timed(&setup);
            m.setup_s.push(secs);
            built
        })
        .collect()
}

/// Median of one field over the run's first set-ups.
pub fn setup_median<S>(setups: &[S], field: impl Fn(&S) -> f64) -> f64 {
    stats::median(&setups.iter().map(field).collect::<Vec<_>>())
}

/// Times further set-ups (built and dropped). Called between passes, so a
/// run's set-up samples are spread over its whole length and not bunched in
/// its first second, where one burst of interference would move them all;
/// `setup_s` is the median of all of them.
pub fn resample_setup<S>(samples: &mut Vec<f64>, setup: impl Fn() -> S) {
    for _ in 0..SETUPS_PER_PASS {
        samples.push(timed(&setup).1);
    }
}

/// Fastest of `reps` calls to `f` (at least one), in seconds.
pub fn best_time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    stats::best(&samples)
}

/// Which of a run's three kinds of pass is being run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off, one rayon thread: the source of end-to-end metrics.
    Plain,
    /// Spans on, one rayon thread: the source of per-layer metrics.
    Traced,
    /// Tracing off, the pool at every core: only its wall is kept.
    AllCores,
}

/// Repeats `pass` until `budget_s` of measuring is used up: another pass
/// starts only while it is predicted (from the slowest pass so far) to end
/// inside the budget. Always runs at least one.
fn run_passes(
    budget_s: f64,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut slowest = 0.0f64;
    loop {
        tracer.set_pass(passes.len() as u32);
        let (blocks, wall) = timed(|| pass(tracer));
        passes.push(blocks?);
        slowest = slowest.max(wall);
        if started.elapsed().as_secs_f64() + slowest > budget_s {
            return Ok(passes);
        }
    }
}

/// Untraced passes for `ctx.seconds`; then, on a traced run, traced passes
/// for the same budget and one untraced pass with the pool at every core.
/// Fills the passes of `m`.
pub fn run_all_modes(
    ctx: &Ctx,
    tracer: &mut Tracer,
    m: &mut Measured,
    mut pass: impl FnMut(Mode, &mut Tracer) -> Result<Pass, String>,
) -> Result<(), String> {
    tracer.set_enabled(false);
    m.plain = run_passes(ctx.seconds, tracer, |tr| pass(Mode::Plain, tr))?;
    if ctx.traced {
        tracer.set_enabled(true);
        let traced = run_passes(ctx.seconds, tracer, |tr| pass(Mode::Traced, tr));
        tracer.set_enabled(false);
        m.traced = traced?;
        let all_cores = rayon::ThreadPoolBuilder::new()
            .num_threads(crate::provenance::logical_cores())
            .build()
            .map_err(|e| e.to_string())?;
        m.all_cores = Some(all_cores.install(|| pass(Mode::AllCores, tracer))?);
    }
    Ok(())
}

/// Per-layer rows every workload derives from its spans and passes.
pub fn bench_layer_rows(m: &mut Measured, tracer: &Tracer) {
    let plain = m.wall_s();
    let traced = sum_of_bests(&m.traced, |_| true);
    if plain > 0.0 && traced > 0.0 {
        m.layer
            .insert("bench.trace_overhead_pct", 100.0 * (traced - plain) / plain);
    }
    let all_cores: f64 = m.all_cores.iter().flatten().map(|b| b.secs).sum();
    if all_cores > 0.0 {
        m.layer.insert("bench.pool_speedup", plain / all_cores);
    }
    m.layer.insert("bench.spans", tracer.spans().len() as f64);
    // The benchmark drives the program from its one main thread; no load
    // generator threads exist to compete with the rayon pool.
    m.layer.insert("bench.generator_threads", 0.0);
    // Every span is a call into the program, so the layers' self times add
    // up to the time inside calls; what is left of the traced passes' timed
    // blocks is the benchmark's own loop around them.
    let in_spans: f64 = crate::trace::layer_self_s(tracer.spans()).values().sum();
    let blocks: f64 = m.traced.iter().flatten().map(|b| b.secs).sum();
    if blocks > 0.0 {
        let own = (1.0 - in_spans / blocks).max(0.0);
        m.layer.insert("bench.self_time_share", own);
        m.check(
            "trace: per-layer self times add up to within 5 % of the traced blocks' wall",
            (in_spans / blocks - 1.0).abs() <= 0.05,
            format!("{in_spans:.3} s in spans of {blocks:.3} s timed"),
        );
    }
}

pub fn run(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Result<Measured, String> {
    match name {
        "tune_conv" => tune::run(&tune::CONV, ctx, tracer),
        "tune_small" => tune::run(&tune::SMALL, ctx, tracer),
        "infer_ladder" => infer::run(ctx, tracer),
        "fleet_storm" => fleet::run(ctx, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &'static str, secs: f64, fixed: bool) -> Block {
        Block { name, secs, fixed }
    }

    #[test]
    fn each_block_counts_at_its_fastest_pass() {
        let passes = vec![
            vec![block("a", 2.0, true), block("b", 1.0, false)],
            vec![block("a", 1.5, true), block("b", 3.0, false)],
            // A block a pass skipped simply has fewer samples.
            vec![block("a", 1.8, true)],
        ];
        assert_eq!(sum_of_bests(&passes, |_| true), 2.5);
        assert_eq!(sum_of_bests(&passes, |b| b.fixed), 1.5);
        assert_eq!(sum_of_bests(&passes, |b| b.name == "missing"), 0.0);
        assert_eq!(sum_of_bests(&[], |_| true), 0.0);
    }
}
