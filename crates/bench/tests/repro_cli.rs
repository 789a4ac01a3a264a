//! The `repro` binary from the outside: it lists every former per-figure
//! binary, refuses unknown names with the list, and every experiment the
//! docs and CI tell people to run resolves through it.

use at_bench::repro::{select, EXPERIMENTS};
use std::path::Path;
use std::process::Command;

/// The 21 binaries `repro` replaced.
const FORMER_BINS: [&str; 21] = [
    "table1",
    "fig2",
    "cpu_results",
    "fig3",
    "table3",
    "table4",
    "curve_size",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table5",
    "pruning_study",
    "runtime_adapt",
    "tune_faults",
    "serve_storm",
    "qos_guard",
    "serve_fleet",
    "fleet_chaos",
    "fleet_sdc",
    "bench_kernels",
];

fn repro(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn list_names_every_former_binary() {
    let (ok, stdout, _) = repro(&["list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered);
    for bin in FORMER_BINS {
        assert!(listed.contains(&bin), "`repro list` lost {bin}");
    }
}

#[test]
fn an_unknown_name_fails_listing_the_valid_ones() {
    for args in [&["fig8"][..], &["fig5", "nope"], &[]] {
        let (ok, stdout, stderr) = repro(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} must run nothing: {stdout}");
        for e in &EXPERIMENTS {
            assert!(stderr.contains(e.name), "{args:?}: {stderr}");
        }
    }
}

/// The experiment names a document cites: inside its code (inline spans,
/// fenced blocks; all of it for a non-markdown file), the words after each
/// `repro` on the same line up to the first that is not a name (`--` is
/// skipped).
fn cited(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("unreadable {}: {e}", path.display()));
    let markdown = path.extension().is_some_and(|x| x == "md");
    let code: Vec<&str> = if markdown {
        text.split('`').skip(1).step_by(2).collect()
    } else {
        vec![&text]
    };
    let is_name = |w: &str| {
        w.starts_with(|c: char| c.is_ascii_lowercase())
            && w.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let mut names = Vec::new();
    for line in code.iter().flat_map(|span| span.lines()) {
        let mut words = line.split_whitespace();
        while let Some(word) = words.next() {
            if word == "repro" || word.ends_with("/repro") {
                let args = words.by_ref().skip_while(|w| *w == "--");
                names.extend(args.take_while(|w| is_name(w)).map(str::to_string));
            }
        }
    }
    names
}

#[test]
fn every_experiment_the_docs_and_ci_cite_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (doc, at_least) in [
        ("README.md", 21),
        ("DESIGN.md", 21),
        ("EXPERIMENTS.md", 3),
        (".github/workflows/ci.yml", 15),
    ] {
        let names = cited(&root.join(doc));
        assert!(
            names.len() >= at_least,
            "{doc} cites {} experiments, expected ≥ {at_least}: {names:?}",
            names.len()
        );
        for name in names.iter().filter(|n| *n != "list") {
            let resolved = select(std::slice::from_ref(name));
            assert!(resolved.is_ok(), "{doc} cites `repro {name}`");
        }
    }
}
