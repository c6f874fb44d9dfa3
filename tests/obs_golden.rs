//! Golden tests for the observability layer. A fixed run's JSONL event
//! stream and Chrome trace must match the files committed under
//! `tests/golden/` byte for byte; the same deterministic SimNet run must
//! export identically twice; and the metrics registry must agree with the
//! report's own MechStats totals.

use loadex::core::MechKind;
use loadex::obs::{chrome, jsonl, Recorder};
use loadex::solver::{run_observed, RunReport, SolverConfig, Strategy};
use loadex::sparse::AssemblyTree;
use serde::Serialize;

/// `run --matrix TWOTONE --procs 8 --mech snapshot --events-out … --trace-out …`
/// (its other settings at their defaults). The run uses every event variant,
/// broadcast sends (`"to":null`) included.
const GOLDEN_JSONL: &str = include_str!("golden/twotone8_snapshot.jsonl");
const GOLDEN_CHROME: &str = include_str!("golden/twotone8_snapshot.chrome.json");

mod common;
use common::twotone;

fn cfg() -> SolverConfig {
    SolverConfig::new(4).with_mechanism(MechKind::Snapshot)
}

fn observed_run(tree: &AssemblyTree, c: &SolverConfig) -> (RunReport, String, String) {
    let rec = Recorder::enabled();
    let r = run_observed(tree, c, rec.clone()).unwrap();
    let events = rec.take();
    assert!(!events.is_empty());
    let mut jsonl = Vec::new();
    jsonl::write_to(&events, &mut jsonl).unwrap();
    let mut chrome = Vec::new();
    chrome::write_to(&events, &mut chrome).unwrap();
    (
        r,
        String::from_utf8(jsonl).unwrap(),
        String::from_utf8(chrome).unwrap(),
    )
}

#[test]
fn exports_match_the_committed_golden_files() {
    let tree = twotone();
    let c = SolverConfig::new(8)
        .with_mechanism(MechKind::Snapshot)
        .with_strategy(Strategy::WorkloadBased);
    let (_, jsonl, chrome) = observed_run(&tree, &c);
    // Compare line by line first, so a mismatch names its first line.
    for (n, (got, want)) in jsonl.lines().zip(GOLDEN_JSONL.lines()).enumerate() {
        assert_eq!(got, want, "JSONL line {} differs", n + 1);
    }
    assert!(jsonl == GOLDEN_JSONL, "JSONL export differs in length");
    for (n, (got, want)) in chrome.lines().zip(GOLDEN_CHROME.lines()).enumerate() {
        assert_eq!(got, want, "Chrome trace line {} differs", n + 1);
    }
    assert!(chrome == GOLDEN_CHROME, "Chrome trace differs in length");
}

#[test]
fn same_seed_runs_produce_identical_exports() {
    let tree = twotone();
    let c = cfg();
    let (r1, jsonl1, chrome1) = observed_run(&tree, &c);
    let (r2, jsonl2, chrome2) = observed_run(&tree, &c);
    assert_eq!(r1.factor_time, r2.factor_time);
    assert_eq!(jsonl1, jsonl2, "JSONL event stream must be deterministic");
    assert_eq!(chrome1, chrome2, "Chrome trace must be deterministic");
    assert_eq!(
        r1.to_json(),
        r2.to_json(),
        "report JSON must be deterministic"
    );
}

#[test]
fn exports_are_well_formed_and_metrics_match_report() {
    let tree = twotone();
    let c = cfg();
    let (r, jsonl, chrome) = observed_run(&tree, &c);

    // JSONL shape: every line a flat object starting with the timestamp.
    assert!(jsonl.ends_with('\n'));
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"t\":"), "bad JSONL line: {line}");
        assert!(line.ends_with('}'), "bad JSONL line: {line}");
    }

    // Chrome trace wrapper.
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert!(
        !chrome.contains("}{"),
        "missing comma between array elements"
    );
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "unbalanced braces in trace JSON"
    );
    for name in ["\"Busy\"", "\"name\":\"snapshot\"", "\"name\":\"decision\""] {
        assert!(chrome.contains(name), "trace missing {name}");
    }

    // The frozen metrics registry must agree with MechStats totals.
    assert_eq!(r.metrics.counter("state_msgs_sent"), r.state_msgs);
    assert_eq!(r.metrics.counter("decisions"), r.decisions);
    assert!(r.metrics.histograms["snapshot_duration_ns"].count > 0);

    // The report JSON carries the same numbers.
    let json = r.to_json();
    assert!(json.contains(&format!("\"state_msgs\":{}", r.state_msgs)));
    assert!(json.contains("\"snapshot_duration_ns\""));
}

#[test]
fn disabled_recorder_changes_nothing() {
    let tree = twotone();
    let c = cfg();
    let (r_obs, _, _) = observed_run(&tree, &c);
    let r_plain = run_observed(&tree, &c, Recorder::disabled()).unwrap();
    assert_eq!(r_plain.factor_time, r_obs.factor_time);
    assert_eq!(r_plain.state_msgs, r_obs.state_msgs);
    assert_eq!(r_plain.decisions, r_obs.decisions);
    assert!(
        r_plain.metrics.histograms.is_empty(),
        "no histograms without a recorder"
    );
}
