//! Experiment sizing — the one place this crate reads the environment.
//!
//! [`Sizing::from_env`] parses every `AT_*` variable once; the `repro`
//! driver hands the result to each experiment. An unset or unparseable
//! variable falls back to its default; README.md tabulates names, defaults
//! and meanings.

use at_core::runtime::Policy;
use at_models::BenchmarkId;

/// Everything an experiment can be sized or steered by.
#[derive(Clone, Debug)]
pub struct Sizing {
    /// `AT_SAMPLES`: total synthetic samples per benchmark (split 50/50
    /// calibration/test, as in §6).
    pub samples: usize,
    /// `AT_BATCH`: batch size.
    pub batch: usize,
    /// `AT_ITERS`: maximum autotuning iterations.
    pub max_iters: usize,
    /// `AT_CONV`: convergence window (iterations without improvement).
    pub convergence: usize,
    /// `AT_MAXCFG`: validated and shipped curve budget.
    pub max_cfg: usize,
    /// `AT_BATCH_SIZE`: candidates evaluated per search round.
    pub batch_size: usize,
    /// `AT_EMP_ITERS`: empirical-tuner iteration budget; `None` lets each
    /// figure cap `max_iters` itself (see `Sizing::empirical_budget`).
    pub emp_iters: Option<usize>,
    /// `AT_EDGE`: simulated edge devices of install-time distributed tuning.
    pub edge_devices: usize,
    /// `AT_ONLY`: the (lower-cased, comma-separated) benchmarks a sweep runs.
    pub only: Option<Vec<String>>,
    /// `AT_FULL`: sweeps with a default subset run all ten benchmarks instead.
    pub full: bool,
    /// `AT_BENCH`: the benchmark of the single-model experiments (`lenet`,
    /// `alexnet`, `alexnet2`, `resnet18`); `None` keeps each experiment's own
    /// default.
    pub bench: Option<BenchmarkId>,
    /// `AT_POLICY`: runtime control policy of `fig6` (`1` enforces the target
    /// in each invocation; otherwise on average).
    pub policy: Policy,
    /// `AT_FAULT_SEED`: fault-injection seed of `tune_faults`.
    pub fault_seed: u64,
    /// `AT_BENCH_DIM`: largest kernel matmul dimension.
    pub kernel_dim: usize,
    /// `AT_BENCH_REPS`: repetitions per kernel measurement (best-of).
    pub kernel_reps: usize,
    /// `AT_BENCH_REQUESTS`: fleet total arrival target.
    pub requests: usize,
    /// `AT_BENCH_REPLICAS`: fleet replica count.
    pub replicas: usize,
    /// `AT_BENCH_SEED`: fleet / chaos simulation seed.
    pub seed: u64,
    /// `AT_BENCH_SDC_TRIALS`: kernel bit-flip injections per (target, bit).
    pub sdc_trials: usize,
    /// `AT_BENCH_ABFT_DIM`: ABFT overhead GEMM dimension.
    pub abft_dim: usize,
}

impl Sizing {
    /// Reads the sizing from the process environment.
    pub fn from_env() -> Sizing {
        Sizing::from_lookup(|name| std::env::var(name).ok())
    }

    /// Builds the sizing from any name → value source (the environment in
    /// production, a closure in tests).
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Sizing {
        fn num<T: std::str::FromStr>(value: Option<String>, default: T) -> T {
            value.and_then(|v| v.trim().parse().ok()).unwrap_or(default)
        }
        Sizing {
            samples: num(get("AT_SAMPLES"), 64),
            batch: num(get("AT_BATCH"), 16),
            max_iters: num(get("AT_ITERS"), 400),
            convergence: num(get("AT_CONV"), 150),
            max_cfg: num(get("AT_MAXCFG"), 30),
            batch_size: num(get("AT_BATCH_SIZE"), 16),
            emp_iters: get("AT_EMP_ITERS").and_then(|v| v.trim().parse().ok()),
            edge_devices: num(get("AT_EDGE"), 100),
            only: get("AT_ONLY").map(|v| v.split(',').map(|s| s.trim().to_lowercase()).collect()),
            full: get("AT_FULL").is_some(),
            bench: match get("AT_BENCH").as_deref() {
                Some("lenet") => Some(BenchmarkId::LeNet),
                Some("alexnet") => Some(BenchmarkId::AlexNetImageNet),
                Some("alexnet2") => Some(BenchmarkId::AlexNet2),
                Some("resnet18") => Some(BenchmarkId::ResNet18),
                _ => None,
            },
            policy: match get("AT_POLICY").as_deref() {
                Some("1") => Policy::EnforceEachInvocation,
                _ => Policy::AverageOverTime,
            },
            fault_seed: num(get("AT_FAULT_SEED"), 0xF417),
            kernel_dim: num(get("AT_BENCH_DIM"), 512),
            kernel_reps: num(get("AT_BENCH_REPS"), 7),
            requests: num(get("AT_BENCH_REQUESTS"), 1_200_000).max(1),
            replicas: num(get("AT_BENCH_REPLICAS"), 8).max(1),
            seed: num(get("AT_BENCH_SEED"), 7),
            sdc_trials: num(get("AT_BENCH_SDC_TRIALS"), 8).max(1),
            abft_dim: num(get("AT_BENCH_ABFT_DIM"), 512).max(16),
        }
    }

    /// The empirical tuner's iteration budget: `AT_EMP_ITERS`, else
    /// `max_iters` capped at the figure's own `cap` — empirical tuning runs
    /// the program every iteration, so each figure bounds it to regenerate
    /// in reasonable time.
    pub(crate) fn empirical_budget(&self, cap: usize) -> usize {
        self.emp_iters.unwrap_or(self.max_iters.min(cap))
    }
}

impl Default for Sizing {
    /// The sizing of a run with no `AT_*` variable set.
    fn default() -> Sizing {
        Sizing::from_lookup(|_| None)
    }
}

/// Whether any `AT_*` variable is set — every sizing, selection and seed
/// knob of the harness lives in that family, so this is "the run was not
/// sized by the defaults". The report writers use it to keep a down-sized
/// smoke run from overwriting the committed full-scale artifacts.
pub(crate) fn overridden() -> bool {
    std::env::vars_os().any(|(k, _)| k.to_string_lossy().starts_with("AT_"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_at_variable_marks_the_run_as_overridden() {
        std::env::set_var("AT_TEST_OVERRIDE_E", "");
        assert!(overridden(), "even an empty AT_* variable counts");
        std::env::remove_var("AT_TEST_OVERRIDE_E");
    }

    #[test]
    fn unset_and_unparseable_fall_back_to_default() {
        let d = Sizing::default();
        assert_eq!(
            (d.samples, d.batch, d.requests, d.seed),
            (64, 16, 1_200_000, 7)
        );
        assert_eq!(d.empirical_budget(200), 200);
        let s = Sizing::from_lookup(|name| match name {
            "AT_SAMPLES" => Some("not-a-number".to_string()),
            "AT_BATCH" => Some(" 8 ".to_string()),
            "AT_ITERS" => Some("40".to_string()),
            "AT_BENCH_REPLICAS" => Some("0".to_string()),
            "AT_BENCH" => Some("vgg".to_string()),
            "AT_ONLY" => Some("Lenet, Resnet18".to_string()),
            "AT_FULL" => Some(String::new()),
            _ => None,
        });
        assert_eq!((s.samples, s.batch, s.max_iters), (64, 8, 40));
        assert_eq!(s.replicas, 1, "a fleet needs at least one replica");
        assert_eq!(
            s.bench, None,
            "an unknown model keeps the experiment's default"
        );
        assert_eq!(
            s.only,
            Some(vec!["lenet".to_string(), "resnet18".to_string()])
        );
        assert!(s.full, "AT_FULL counts when set, whatever its value");
        assert_eq!(
            s.empirical_budget(200),
            40,
            "the cap only ever lowers max_iters"
        );
    }
}
