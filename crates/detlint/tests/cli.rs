//! End-to-end checks through the built `detlint` binary: exit codes,
//! the SARIF/DOT artifacts, and the suppression-audit mode.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/detlint sits two levels below the workspace root")
        .to_path_buf()
}

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn workspace_is_clean_under_deny() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .args(["--deny", "--no-json"])
        .output()
        .expect("binary must run");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fixture_roots_exit_two() {
    for name in [
        "layering",
        "float_fold",
        "wall_clock",
        "unordered_iter",
        "unseeded_rng",
        "forbid_unsafe",
        "unused_suppression",
        "panic",
    ] {
        let out = bin()
            .arg("--root")
            .arg(fixture_root(name))
            .arg("--no-json")
            .output()
            .expect("binary must run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} should exit 2 under the workspace policy\nstdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn sarif_and_dot_artifacts_are_written() {
    let dir = std::env::temp_dir().join(format!("detlint-cli-{}", std::process::id()));
    let sarif_path = dir.join("lint.sarif");
    let dot_path = dir.join("deps.dot");
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--no-json")
        .arg("--sarif")
        .arg(&sarif_path)
        .arg("--graph-dot")
        .arg(&dot_path)
        .output()
        .expect("binary must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let sarif_text = std::fs::read_to_string(&sarif_path).expect("SARIF artifact must exist");
    let doc = detlint::sarif::parse(&sarif_text).expect("SARIF must round-trip strictly");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "SARIF version pinned"
    );

    let dot_text = std::fs::read_to_string(&dot_path).expect("DOT artifact must exist");
    assert!(dot_text.starts_with("digraph"));
    assert!(
        dot_text.contains("\"scanner\" -> \"netsim\""),
        "realized workspace edge missing from the DOT export"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_mode_inventories_suppressions() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .args(["--no-json", "--audit-suppressions"])
        .output()
        .expect("binary must run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("suppressions (") && text.contains("active"),
        "audit summary missing:\n{text}"
    );
    assert!(
        !text.contains("STALE"),
        "the workspace must carry no stale suppressions:\n{text}"
    );
}
