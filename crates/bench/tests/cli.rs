//! Command-line argument errors: a malformed number or an out-of-range
//! selection makes `run` and `tables` say what was wrong and exit with
//! status 2 — never a panic, never a silent fallback.

use std::process::Command;

/// Run `bin` with `args`; assert it exits 2 with a message and no panic.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    assert!(out.stdout.is_empty(), "{args:?}: printed output");
}

#[test]
fn run_rejects_malformed_numbers() {
    let bad: &[&[&str]] = &[
        &["--procs", "x"],
        &["--procs", "-4"],
        &["--latency-us", "-3"],
        &["--poll-us", "x"],
        &["--time-scale", "x"],
        &["--wall-timeout-s", "1.5"],
        &["--partial", "x"],
        &["--chunk-ms", "x"],
        &["--procs"],
    ];
    for args in bad {
        assert_usage_error(env!("CARGO_BIN_EXE_run"), args);
    }
}

#[test]
fn tables_rejects_unknown_selections() {
    let bad: &[&[&str]] = &[
        &["--table", "9"],
        &["--table", "0"],
        &["--table", "x"],
        &["--figure", "3"],
        &["--figure", "x"],
        &["--table"],
    ];
    for args in bad {
        assert_usage_error(env!("CARGO_BIN_EXE_tables"), args);
    }
}
