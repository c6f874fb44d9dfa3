//! Command-line behaviour of `run` and `tables`.
//!
//! Argument errors: a malformed number or an out-of-range selection makes
//! `run` and `tables` say what was wrong and exit with status 2 — never a
//! panic, never a silent fallback; `run` has one `--comm-thread on|off`
//! flag for both backends and no flag for its fixed poll period. Selections: the wall-clock §4.5 table is
//! printed by `tables --threaded` alone, never by `--all`.

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
fn run_has_one_comm_thread_flag() {
    let bad: &[&[&str]] = &[
        &["--threaded"],
        &["--no-comm-thread"],
        &["--comm-thread"],
        &["--comm-thread", "maybe"],
        &["--poll-us", "50"],
    ];
    for args in bad {
        assert_usage_error(env!("CARGO_BIN_EXE_run"), args);
    }
}

#[test]
fn run_comm_thread_on_and_off_work_on_both_backends() {
    for backend in ["sim", "threaded"] {
        for mode in ["on", "off"] {
            let args = [
                "--matrix",
                "TWOTONE",
                "--procs",
                "8",
                "--backend",
                backend,
                "--comm-thread",
                mode,
            ];
            let out = Command::new(env!("CARGO_BIN_EXE_run"))
                .args(args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        }
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

/// Run `tables` with `args`; assert it succeeds and return its stdout.
fn tables_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

const THREADED_TITLE: &str = "== §4.5 threaded execution backend";

#[test]
fn tables_threaded_selection_prints_only_the_threaded_table() {
    let out = tables_ok(&["--quick", "--threaded"]);
    assert!(out.starts_with(THREADED_TITLE), "{out}");
    assert_eq!(out.matches("\n== ").count(), 0, "{out}");
    for mech in ["naive", "increments", "snapshot"] {
        assert!(out.lines().any(|l| l.starts_with(mech)), "{mech}: {out}");
    }
}

#[test]
fn tables_all_leaves_out_the_wall_clock_table() {
    let out = tables_ok(&["--quick", "--all"]);
    assert!(out.starts_with("== Tables 1-2"), "{out}");
    assert!(!out.contains(THREADED_TITLE), "{out}");
}
