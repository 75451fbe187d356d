//! CLI contract tests for the bench binaries: bad output paths must fail
//! fast (before any bench work runs) with a message that names the flag
//! and the missing directory — not a bare `io::Error` panic after minutes
//! of simulation.

use std::process::Command;

/// Run `load_engine` with `args` and return (success, stderr).
fn run_load_engine(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_load_engine"))
        .args(args)
        .output()
        .expect("spawn load_engine");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_into_missing_directory_fails_with_a_clear_error() {
    let (ok, stderr) = run_load_engine(&[
        "--flows",
        "1",
        "--out",
        "/no-such-bench-dir-7f3a/BENCH_engine.json",
    ]);
    assert!(!ok, "a missing --out directory must fail the run");
    assert!(
        stderr.contains("--out") && stderr.contains("does not exist"),
        "error must name the flag and the missing directory, got:\n{stderr}"
    );
    assert!(
        stderr.contains("/no-such-bench-dir-7f3a"),
        "error must echo the offending path, got:\n{stderr}"
    );
}

#[test]
fn trace_out_into_missing_directory_fails_with_a_clear_error() {
    let (ok, stderr) = run_load_engine(&[
        "--flows",
        "1",
        "--trace-out",
        "/no-such-trace-dir-7f3a/trace.jsonl",
    ]);
    assert!(!ok, "a missing --trace-out directory must fail the run");
    assert!(
        stderr.contains("--trace-out") && stderr.contains("does not exist"),
        "error must name the flag and the missing directory, got:\n{stderr}"
    );
}

#[test]
fn trace_stream_into_missing_directory_fails_with_a_clear_error() {
    // The stream file is created mid-run, so a typo'd directory must fail
    // at parse time — before the 1024-flow flight-recorder run.
    let (ok, stderr) = run_load_engine(&[
        "--flows",
        "1",
        "--trace-stream",
        "/no-such-stream-dir-7f3a/trace.jsonl",
    ]);
    assert!(!ok, "a missing --trace-stream directory must fail the run");
    assert!(
        stderr.contains("--trace-stream") && stderr.contains("does not exist"),
        "error must name the flag and the missing directory, got:\n{stderr}"
    );
    assert!(
        stderr.contains("/no-such-stream-dir-7f3a"),
        "error must echo the offending path, got:\n{stderr}"
    );
}

#[test]
fn unknown_flags_fail_with_usage() {
    // A trace is sliced when it is read (`jq` over the stream), never by a
    // flag, so `--trace-flow` and `--trace-kind` are unknown flags too.
    for args in [
        &["--no-such-flag"][..],
        &["--flows", "1", "--trace-flow", "7"],
        &["--flows", "1", "--trace-kind", "rto"],
    ] {
        let (ok, stderr) = run_load_engine(args);
        assert!(!ok, "{args:?} must fail the run");
        assert!(
            stderr.contains("usage:"),
            "unknown flags must print usage, got:\n{stderr}"
        );
    }
}
