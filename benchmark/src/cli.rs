//! Command line:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark all [--seed <n>] [--seconds <s>] [--quick]
//! benchmark compare <runs-A…> -- <runs-B…>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload,
//! its table on standard error, a result file under `benchmark/out/`, and
//! the result line as the last line of standard output. `all` runs the
//! four workloads traced (a traced run measures the untraced passes too),
//! each in a process of its own so that peak memory is per workload.

use crate::metrics::WORKLOADS;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx};
use crate::{compare, provenance, report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const DEFAULT_SEED: u64 = 7;
/// Default measuring budget; `BENCHMARK.json`'s `run_seconds` is the same.
pub const DEFAULT_SECONDS: f64 = 20.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                out.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage:\n  benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n  \
         benchmark all [--seed N] [--seconds S] [--quick]\n  \
         benchmark compare <runs-A...> -- <runs-B...>",
        names.join("|")
    );
    ExitCode::from(2)
}

/// The directory this package was built from; results go to `out/` in it
/// and the checkout's root is its parent.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload; returns whether its correctness gate passed.
fn run_one(workload: &'static str, args: &RunArgs) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
    };
    // One rayon thread, whatever RAYON_NUM_THREADS says, and no thread of
    // the benchmark's own. On the 2-vCPU VMs this runs on, the pool's
    // condvar hand-off between vCPUs flips between a fast and a 3.5x slower
    // regime within seconds, which no bound survives; one thread repeats
    // to about 1 %. A traced run repeats one pass with the pool at every
    // core and reports the ratio as `bench.pool_speedup`.
    let threads = 1;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(workload);
    let mut measured = pool.install(|| workloads::run(workload, &ctx, &mut tracer))?;
    if ctx.traced {
        workloads::bench_layer_rows(&mut measured, &tracer);
    }
    let root = package_dir().parent().unwrap_or(package_dir());
    let prov = provenance::collect(root, ctx.seed, threads);
    let assembled = report::assemble(workload, &ctx, &measured);
    let result = report::result_json(workload, &ctx, &prov, &measured, &assembled, &tracer);
    let trace = ctx
        .traced
        .then(|| report::trace_json(workload, &prov, &measured, &tracer));
    let path = report::write_outputs(&package_dir().join("out"), workload, &ctx, &result, trace)?;
    report::print_table(workload, &prov, &measured, &assembled);
    eprintln!("result file: {}", path.display());
    println!("{}", report::driver_line(&ctx, &measured, &assembled));
    Ok(measured.correct())
}

/// `all`: one traced run per workload, each a child process of this
/// executable (waited for before the next starts).
fn cmd_all(args: &[String]) -> ExitCode {
    if let Err(e) = parse_run_args(args) {
        eprintln!("{e}");
        return usage();
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args(args)
            .status();
        all_correct &= status.is_ok_and(|s| s.success());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if let Some(flag) = provenance::missing_rustflag() {
        eprintln!(
            "refusing to measure: this build lacks `{flag}`; build from the repo root so its \
             .cargo/config.toml applies"
        );
        return ExitCode::from(2);
    }
    let Some(workload) = parsed
        .workload
        .as_deref()
        .and_then(|name| WORKLOADS.iter().find(|w| w.name == name))
    else {
        return usage();
    };
    match run_one(workload.name, &parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("{}: correctness gate FAILED", workload.name);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        return usage();
    };
    let paths = |s: &[String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
    let (a, b) = (paths(&args[..split]), paths(&args[split + 1..]));
    if a.is_empty() || b.is_empty() {
        return usage();
    }
    match compare::compare(&a, &b) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("{n} metric(s) regressed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some(_) => cmd_run(&args),
        None => usage(),
    }
}
