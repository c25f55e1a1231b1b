//! The `figures` binary's argument checks, run as a user runs them.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn an_unknown_artifact_is_refused_before_the_study_runs() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-unknown-artifact");
    let _ = fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "tiny", "--out"])
        .arg(&out_dir)
        .args(["fig2", "fig99", "fgi3"])
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown artifact `fig99`"), "{stderr}");
    assert!(stderr.contains("usage: figures"), "{stderr}");
    assert!(!stderr.contains("running the study"), "{stderr}");
    assert!(!out_dir.exists(), "{} was created", out_dir.display());
}
