//! The `atune` binary end to end: `tune` → `inspect` → `install`, on both
//! sides of the platform's FP16 switch.
//!
//! Regression: `tune` used to ship only the FP16 curve slot, so the artifact
//! it wrote was rejected by `install --no-fp16` ("artifact holds no curve
//! for this platform") — a failure no library-level test could see, because
//! the slots are filled in the binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn atune(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atune"))
        .args(args)
        .output()
        .expect("atune runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        stdout(out),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn tuned_artifact_installs_with_and_without_fp16() {
    let path: PathBuf = std::env::temp_dir().join(format!("atune-cli-{}.json", std::process::id()));
    let artifact = path.to_str().expect("utf-8 temp path");
    let small = ["--samples", "32"];

    let tune = atune(&[
        "tune",
        "Lenet",
        "--qos-drop",
        "3",
        "--iters",
        "40",
        "--samples",
        "32",
        "--out",
        artifact,
    ]);
    assert_ok(&tune, "tune");

    let inspect = atune(&["inspect", artifact]);
    assert_ok(&inspect, "inspect");
    let listing = stdout(&inspect);
    for tag in ["fp16", "fp32-only"] {
        assert!(
            listing.contains(&format!("curve [{tag}]: "))
                && !listing.contains(&format!("curve [{tag}]: absent")),
            "inspect shows no {tag} curve:\n{listing}"
        );
    }

    for extra in [&[][..], &["--no-fp16"][..]] {
        let mut args = vec!["install", "Lenet", artifact];
        args.extend_from_slice(extra);
        args.extend_from_slice(&small);
        let install = atune(&args);
        assert_ok(&install, &format!("install {extra:?}"));
        let printed = stdout(&install);
        assert!(
            printed.contains("install-time curve on"),
            "install {extra:?} printed no curve:\n{printed}"
        );
        // The points are priced by a device model, not timed on the host.
        assert!(
            printed.contains("device model:")
                && printed.contains("modelled speedup")
                && !printed.contains("measured speedup"),
            "install {extra:?} mislabels its pricing:\n{printed}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inspect_refuses_an_artifact_install_would_refuse() {
    // A header from a newer schema: `install` rejects it, so `inspect`
    // must not present it as a valid artifact.
    let path: PathBuf =
        std::env::temp_dir().join(format!("atune-cli-v99-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"version":99,"program":"lenet","fingerprint":0,"metric":"Accuracy",
            "qos_min":88.0,"curve_fp16":null,"curve_fp32_only":null}"#,
    )
    .expect("write the artifact");
    let inspect = atune(&["inspect", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&inspect.stderr);
    assert!(
        !inspect.status.success(),
        "inspect accepted a v99 artifact:\n{}",
        stdout(&inspect)
    );
    assert!(
        stderr.contains("v99"),
        "inspect did not name the version: {stderr}"
    );
}
