//! The `ocspd` binary's argument checks, run as a user runs them.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

fn ocspd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ocspd"))
        .args(args)
        .output()
        .expect("run ocspd")
}

#[test]
fn each_subcommand_refuses_a_flag_it_does_not_take() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ocspd-cli");
    let _ = fs::remove_dir_all(&out_dir);
    fs::create_dir_all(&out_dir).expect("create the scratch directory");
    let request = out_dir.join("req.der");
    let request = request.to_str().expect("a UTF-8 path");
    for (args, bad) in [
        (
            &[
                "offline",
                "--seed",
                "42",
                "--requests",
                "5",
                "--malformed-evry",
                "7",
            ][..],
            "--malformed-evry",
        ),
        (&["offline", "--addr", "127.0.0.1:1"], "--addr"),
        (
            &[
                "request",
                "--seed",
                "42",
                "--requests",
                "5",
                "--out",
                request,
            ],
            "--requests",
        ),
        // Refused before binding or connecting. `--max-conns 0` makes
        // a daemon that took the flag exit at once instead of serving.
        (
            &["serve", "--max-conns", "0", "--requests", "5"],
            "--requests",
        ),
        (
            &["probe", "--addr", "127.0.0.1:1", "--out", request],
            "--out",
        ),
        (&["serve", "--max-conns", "0", "--help"], "--help"),
    ] {
        let out = ocspd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown flag \"{bad}\"")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(!Path::new(request).exists(), "{args:?} wrote {request}");
    }

    let out = ocspd(&["offline", "--seed", "42", "--requests"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--requests needs a value"));
    let out = ocspd(&["offline", "--seed", "1", "--seed", "2"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed given twice"));

    // Each subcommand's own flags are still taken.
    let out = ocspd(&[
        "offline",
        "--seed",
        "42",
        "--requests",
        "20",
        "--malformed-every",
        "7",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("health_transitions"));
    let out = ocspd(&["request", "--seed", "42", "--out", request]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(fs::metadata(request).expect("the request file").len() > 0);
}
