fn main() -> std::process::ExitCode {
    at_benchmark::cli::main()
}
