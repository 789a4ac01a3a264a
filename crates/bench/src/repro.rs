//! The `repro` driver: a static registry of every experiment and the
//! command line over it.

use crate::env::Sizing;
use crate::report::Artifact;
use crate::{
    bench_kernels, cost_fit, fig7, fleet_chaos, fleet_sdc, paper, qos_guard, runtime_adapt,
    serve_fleet, serve_storm, tune_faults,
};

/// One registered experiment.
pub struct Experiment {
    /// What `repro <name>` selects.
    pub name: &'static str,
    /// What it regenerates.
    pub regenerates: &'static str,
    /// The paper's headline for it (or this repo's own bar).
    pub headline: &'static str,
    /// Runs it and returns the artifact to write.
    pub run: fn(&Sizing) -> Artifact,
}

/// Every experiment, in the order `repro all` runs them.
pub const EXPERIMENTS: [Experiment; 23] = [
    Experiment {
        name: "table1",
        regenerates: "Table 1: benchmarks, layer counts, baseline accuracy, search space",
        headline: "10 CNNs, search spaces up to ~1e91",
        run: paper::table1,
    },
    Experiment {
        name: "fig2",
        regenerates: "Fig. 2: GPU speedup and energy reduction at ΔQoS 1/2/3%",
        headline: "geomeans 2.14x/2.23x/2.28x speedup, 1.99x/2.06x/2.11x energy",
        run: paper::fig2,
    },
    Experiment {
        name: "cpu_results",
        regenerates: "§7.1: CPU speedups (no FP16 hardware: sampling/perforation only)",
        headline: "geomeans 1.31x/1.38x/1.42x, max 1.89x (VGG16-CIFAR10)",
        run: paper::cpu_results,
    },
    Experiment {
        name: "fig3",
        regenerates: "Fig. 3: predictive Π1/Π2 vs empirical tuning, speedups at ΔQoS 3%",
        headline: "geomeans Π1 2.27x, Π2 1.97x, empirical 2.25x",
        run: paper::fig3,
    },
    Experiment {
        name: "table3",
        regenerates: "Table 3: knobs of the best GPU configuration at ΔQoS 3%",
        headline: "FP16 everywhere, sampling/perforation on most convolutions",
        run: paper::table3,
    },
    Experiment {
        name: "table4",
        regenerates: "Table 4: tuning times, predictive vs empirical",
        headline: "geomean reductions Π1 12.76x, Π2 20.37x",
        run: paper::table4,
    },
    Experiment {
        name: "curve_size",
        regenerates: "§7.3: tradeoff-curve size reduction + ε ablation",
        headline: "~4360 candidates → ≤50 shipped, ~87x",
        run: paper::curve_size,
    },
    Experiment {
        name: "fig4",
        regenerates: "Fig. 4: GPU+PROMISE energy reduction, install-time distributed tuning, ΔQoS 3%",
        headline: "geomeans Π1 4.7x, Π2 3.3x, empirical 4.8x",
        run: paper::fig4,
    },
    Experiment {
        name: "fig5",
        regenerates: "Fig. 5: rail power vs GPU frequency (ResNet-18 running)",
        headline: "GPU power ~7x, SYS ~1.9x from 1300 to 319 MHz",
        run: paper::fig5,
    },
    Experiment {
        name: "fig6",
        regenerates: "Fig. 6: runtime adaptation across GPU frequencies",
        headline: "static time grows with the slowdown; dynamic stays ~1.0 while accuracy degrades",
        run: runtime_adapt::fig6,
    },
    Experiment {
        name: "fig7",
        regenerates: "Fig. 7: combined CNN+Canny speedups over (accuracy, PSNR) thresholds",
        headline: "speedup grows as either threshold is relaxed",
        run: fig7::run,
    },
    Experiment {
        name: "table5",
        regenerates: "Table 5: capability comparison (reproduced from §9)",
        headline: "only ApproxTuner combines all ten capabilities",
        run: paper::table5,
    },
    Experiment {
        name: "pruning_study",
        regenerates: "§8: pruning + perforation study",
        headline: "MACs ↓1.2–1.3x on pruned models at <1pp loss",
        run: paper::pruning_study,
    },
    Experiment {
        name: "runtime_adapt",
        regenerates: "§5/§6.4: closed-loop adaptation under injected disturbances → results/runtime_adapt.json",
        headline: "dynamic time ~1.0 down the DVFS ladder under both policies",
        run: runtime_adapt::run,
    },
    Experiment {
        name: "tune_faults",
        regenerates: "fault-tolerant tuning sweep + crash recovery → results/fault_tolerance.json",
        headline: "resume bit-identical to the uninterrupted run",
        run: tune_faults::run,
    },
    Experiment {
        name: "serve_storm",
        regenerates: "overload-resilient serving: steady, bursty, storm → results/serve_storm.json",
        headline: "storm admissions meet the deadline; the breaker trips and recovers",
        run: serve_storm::run,
    },
    Experiment {
        name: "qos_guard",
        regenerates: "trust-but-verify QoS guard under miscalibration → results/qos_guard.json",
        headline: "every lying point quarantined, the honest control convicts nothing",
        run: qos_guard::run,
    },
    Experiment {
        name: "serve_fleet",
        regenerates: "fleet load test, every router policy under a brownout → BENCH_serve.json",
        headline: "sustained simulated requests/s; reports bit-identical across threads",
        run: serve_fleet::run,
    },
    Experiment {
        name: "fleet_chaos",
        regenerates: "chaos campaign: crashes, gray failures, partitions → BENCH_chaos.json",
        headline: "requests_unaccounted = 0; availability and recovery time under chaos",
        run: fleet_chaos::run,
    },
    Experiment {
        name: "fleet_sdc",
        regenerates: "silent-data-corruption campaign: ABFT coverage, overhead, fleet → BENCH_sdc.json",
        headline: "≥99% coverage, ≤10% ABFT overhead, no honest tenant convicted",
        run: fleet_sdc::run,
    },
    Experiment {
        name: "bench_kernels",
        regenerates: "kernel micro-benchmark per knob family → BENCH_kernels.json",
        headline: "exact GEMM vs naive; k=2 column perforation vs exact conv",
        run: bench_kernels::run,
    },
    Experiment {
        name: "cost_fit",
        regenerates: "CPU cost model: per-(node, knob) timings, NNLS fit → crates/core/src/cost_table.rs, results/cost_fit.json",
        headline: "leave-one-shape-out median error ≤ 15%, per-node τ ≥ 0.8",
        run: cost_fit::run_fit,
    },
    Experiment {
        name: "cost_rank",
        regenerates: "whole-configuration ranking, OpCount vs Cpu price → results/cost_rank.json",
        headline: "§3.4: the cost model ranks configurations by their speedup",
        run: cost_fit::run_rank,
    },
];

/// The experiments `names` select, in command-line order: registry names,
/// or `all`. No name, or an unknown one, is an error listing the valid ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Err(usage());
    }
    let mut selected = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => selected.push(e),
            None if name == "all" => selected.extend(&EXPERIMENTS),
            None => return Err(format!("unknown experiment `{name}`; {}", usage())),
        }
    }
    Ok(selected)
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro list | all | <name>…, with <name> one of:\n  {}",
        names.join(" ")
    )
}

/// Runs the command line (`args` without the program name) and returns the
/// process exit code: 0, 1 when an artifact could not be written, 2 on a
/// usage error.
pub fn main(args: Vec<String>) -> i32 {
    if args == ["list"] {
        for e in &EXPERIMENTS {
            println!(
                "{:<14} {}\n{:<14} paper: {}",
                e.name, e.regenerates, "", e.headline
            );
        }
        return 0;
    }
    let selected = match select(&args) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let sizing = Sizing::from_env();
    let mut written = true;
    for e in selected {
        println!(
            "\n== {}: {}\n   (paper: {})\n",
            e.name, e.regenerates, e.headline
        );
        written &= (e.run)(&sizing).write();
    }
    if written {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_artifact;

    #[test]
    fn names_are_unique_and_unknown_ones_are_refused_with_the_list() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|f| f.name != e.name),
                "{}",
                e.name
            );
        }
        let err = select(&["fig2".to_string(), "fig8".to_string()])
            .err()
            .unwrap();
        assert!(err.contains("`fig8`"));
        assert!(EXPERIMENTS.iter().all(|e| err.contains(e.name)), "{err}");
        assert_eq!(
            select(&["all".to_string()]).unwrap().len(),
            EXPERIMENTS.len()
        );
        assert_eq!(main(vec!["fig8".to_string()]), 2);
        assert_eq!(main(vec![]), 2);
    }

    #[test]
    fn data_only_experiments_run_through_the_registry_and_conform() {
        for name in ["fig5", "table5"] {
            let selected = select(&[name.to_string()]).unwrap();
            let artifact = (selected[0].run)(&Sizing::default());
            validate_artifact(&artifact.value).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rows = &artifact.value.as_object().unwrap()[1].1;
            assert!(
                matches!(rows, serde::Value::Array(rows) if rows.len() >= 5),
                "{name}"
            );
        }
    }
}
