//! End-to-end tests of the `teldiff` binary: exit codes and report
//! output over real exposition files.

use std::path::PathBuf;
use std::process::{Command, Output};
use telemetry::catalog::{NET_FAILURE_DNS, NET_FAILURE_TCP, NET_LATENCY_MS, SCAN_HOURLY_PROBES};
use telemetry::Registry;

fn registry() -> Registry {
    let mut r = Registry::new();
    r.add(SCAN_HOURLY_PROBES, "r0", 100);
    r.incr(NET_FAILURE_TCP, "Virginia");
    r.observe(NET_LATENCY_MS, "Virginia", 40);
    r
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn teldiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_teldiff"))
        .args(args)
        .output()
        .expect("run teldiff")
}

#[test]
fn identical_runs_exit_zero() {
    let a = write_temp("same-a.prom", &registry().to_prometheus());
    let b = write_temp("same-b.prom", &registry().to_prometheus());
    let out = teldiff(&[a.to_str().expect("path"), b.to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no differences\n");
}

#[test]
fn perturbed_counter_exits_two() {
    let a = write_temp("perturb-a.prom", &registry().to_prometheus());
    let mut r = registry();
    r.incr(SCAN_HOURLY_PROBES, "r0");
    let b = write_temp("perturb-b.prom", &r.to_prometheus());
    let out = teldiff(&[a.to_str().expect("path"), b.to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("scan.hourly.probes{r0} 100 -> 101"),
        "{stdout}"
    );
    assert!(stdout.contains("BREACH"), "{stdout}");
}

#[test]
fn thresholds_config_blesses_the_same_change() {
    let a = write_temp("blessed-a.prom", &registry().to_prometheus());
    let mut r = registry();
    r.incr(SCAN_HOURLY_PROBES, "r0");
    let b = write_temp("blessed-b.prom", &r.to_prometheus());
    let config = write_temp("blessed.toml", "[\"scan.hourly.probes\"]\nrel = 0.05\n");
    let out = teldiff(&[
        "--config",
        config.to_str().expect("path"),
        a.to_str().expect("path"),
        b.to_str().expect("path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");
    assert!(!stdout.contains("BREACH"), "{stdout}");
}

#[test]
fn quiet_suppresses_the_report() {
    let a = write_temp("quiet-a.prom", &registry().to_prometheus());
    let mut r = registry();
    r.incr(NET_FAILURE_DNS, "x");
    let b = write_temp("quiet-b.prom", &r.to_prometheus());
    let out = teldiff(&[
        "--quiet",
        a.to_str().expect("path"),
        b.to_str().expect("path"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
}

#[test]
fn usage_and_io_errors_exit_one() {
    let out = teldiff(&["only-one-path"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let a = write_temp("errors-a.prom", &registry().to_prometheus());
    let out = teldiff(&[a.to_str().expect("path"), "/definitely/not/a/file"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("teldiff:"));
    let bad = write_temp("errors-bad.prom", "# TYPE m gauge\n");
    let out = teldiff(&[a.to_str().expect("path"), bad.to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
