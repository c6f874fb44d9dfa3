//! Golden-style determinism tests for the observability layer: the same
//! seed (here, the same deterministic SimNet run) must produce a
//! byte-identical JSONL event stream and Chrome trace, and the metrics
//! registry must agree with the report's own MechStats totals.

use loadex::core::MechKind;
use loadex::obs::{chrome, jsonl, Recorder};
use loadex::solver::{run_observed, RunReport, SolverConfig};
use loadex::sparse::{gen, symbolic, AssemblyTree, Symmetry};
use serde::Serialize;

fn small_tree() -> AssemblyTree {
    let p = gen::grid2d(20, 20);
    symbolic::analyze_with_ordering(
        &p,
        symbolic::Ordering::NestedDissection,
        symbolic::SymbolicOptions {
            amalg_pivots: 8,
            sym: Symmetry::Symmetric,
        },
    )
    .tree
}

fn cfg() -> SolverConfig {
    let mut c = SolverConfig::new(4).with_mechanism(MechKind::Snapshot);
    c.type2_min_front = 20;
    c.type3_min_front = 60;
    c.kmin_rows = 4;
    c
}

fn observed_run(tree: &AssemblyTree, c: &SolverConfig) -> (RunReport, String, String) {
    let rec = Recorder::enabled();
    let r = run_observed(tree, c, rec.clone()).unwrap();
    let events = rec.take();
    assert!(!events.is_empty());
    (r, jsonl::to_string(&events), chrome::to_string(&events))
}

#[test]
fn same_seed_runs_produce_identical_exports() {
    let tree = small_tree();
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
    let tree = small_tree();
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
fn jsonl_round_trips_through_the_parser() {
    let tree = small_tree();
    let c = cfg();
    let rec = Recorder::enabled();
    let _ = run_observed(&tree, &c, rec.clone()).unwrap();
    let events = rec.take();
    assert!(!events.is_empty());

    let text = jsonl::to_string(&events);
    let parsed = jsonl::parse(&text).expect("exporter output must parse");
    assert_eq!(
        parsed, events,
        "parse(to_string(events)) must reproduce the records"
    );

    // And the round trip is a fixed point: re-serializing the parsed records
    // yields the same bytes.
    assert_eq!(jsonl::to_string(&parsed), text);

    // Blank lines are tolerated, garbage is a positioned error.
    let padded = format!("\n{text}\n\n");
    assert_eq!(jsonl::parse(&padded).unwrap(), events);
    let bad = format!("{text}not json\n");
    let err = jsonl::parse(&bad).unwrap_err();
    assert_eq!(err.line, events.len() + 1, "error reports the 1-based line");
}

#[test]
fn disabled_recorder_changes_nothing() {
    let tree = small_tree();
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
