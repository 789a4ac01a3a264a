//! `repro list | all | <name>…` — the one entry point regenerating every
//! table, figure and perf report; see `at_bench::repro`.

fn main() {
    std::process::exit(at_bench::repro::main(std::env::args().skip(1).collect()));
}
