//! End-to-end tests of the view-accuracy probe and the protocol auditor:
//! both execution backends must produce the same accuracy-summary schema,
//! and every seeded run of the tier-1 mechanisms must pass the protocol
//! invariant audit with zero violations.

use loadex::core::MechKind;
use loadex::obs::{ProtocolAuditor, Recorder};
use loadex::sim::SimTime;
use loadex::solver::{self, CommMode, ExecBackend, SolverConfig, ThreadedBackend};
use serde::Serialize;
use std::time::Duration;

mod common;
use common::twotone;

fn cfg(nprocs: usize, mech: MechKind) -> SolverConfig {
    SolverConfig::new(nprocs)
        .with_mechanism(mech)
        .with_accuracy(true)
}

fn fast() -> ThreadedBackend {
    ThreadedBackend::new()
        .with_time_scale(0.002)
        .with_wall_timeout(Duration::from_secs(60))
}

/// The top-level keys of a flat JSON object (the accuracy summary has no
/// string values, so every quoted token followed by `:` is a key).
fn keys(flat: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = flat.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let end = flat[start..].find('"').expect("closing quote") + start;
            if bytes.get(end + 1) == Some(&b':') {
                out.push(flat[start..end].to_string());
            }
            i = end + 2;
        } else {
            i += 1;
        }
    }
    out
}

#[test]
fn sim_accuracy_summary_is_finite_and_counts_decisions() {
    let tree = twotone();
    for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
        let r = solver::run(&tree, &cfg(4, mech)).unwrap();
        let acc = r.accuracy.as_ref().expect("accuracy enabled");
        let s = acc.summary;
        assert!(s.is_finite(), "{mech}: non-finite summary: {s:?}");
        assert_eq!(s.decisions, r.decisions, "{mech}: every decision replayed");
        assert!(s.regrets <= s.decisions, "{mech}");
        assert!(s.horizon_s > 0.0, "{mech}");
        assert!(s.max_staleness_s >= s.mean_staleness_s, "{mech}");
        assert!(
            s.max_abs_err_work >= 0.0 && s.max_rel_err_work <= 1.0,
            "{mech}"
        );
    }
}

#[test]
fn accuracy_probe_does_not_perturb_the_simulation() {
    let tree = twotone();
    let plain = {
        let mut c = cfg(4, MechKind::Increments);
        c.accuracy = false;
        solver::run(&tree, &c).unwrap()
    };
    let probed = solver::run(&tree, &cfg(4, MechKind::Increments)).unwrap();
    assert_eq!(plain.factor_time, probed.factor_time);
    assert_eq!(plain.state_msgs, probed.state_msgs);
    assert!(plain.accuracy.is_none());
    assert!(probed.accuracy.is_some());
}

#[test]
fn both_backends_emit_the_same_accuracy_schema() {
    let tree = twotone();
    let c = cfg(4, MechKind::Increments);
    let sim = solver::run(&tree, &c).unwrap();
    let thr = solver::run(
        &tree,
        &c.clone()
            .with_backend(ExecBackend::Threaded(fast()))
            .with_comm(CommMode::CommThread),
    )
    .unwrap();
    let (ss, ts) = (
        sim.accuracy.as_ref().expect("sim accuracy").summary,
        thr.accuracy.as_ref().expect("threaded accuracy").summary,
    );
    assert!(ss.is_finite() && ts.is_finite());
    assert_eq!(
        keys(&ss.to_json()),
        keys(&ts.to_json()),
        "summary schemas must be identical across backends"
    );
    assert!(!keys(&ss.to_json()).is_empty());
    // The static plan is shared: both backends replay the same decisions,
    // and both sample the master's view error against every peer at each.
    assert_eq!(ss.decisions, ts.decisions);
    assert!(ts.horizon_s > 0.0);
    assert!(ts.decision_err_samples > 0, "threaded decision-time error");
    assert_eq!(ss.decision_err_samples, ss.decisions * 3);
    assert_eq!(ts.decision_err_samples, ts.decisions * 3);
}

#[test]
fn auditor_is_clean_on_every_mechanism_sim() {
    let tree = twotone();
    for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
        let rec = Recorder::enabled();
        let r = solver::run_observed(&tree, &cfg(4, mech), rec.clone()).unwrap();
        assert!(r.factor_time > SimTime::ZERO);
        let events = rec.take();
        assert!(!events.is_empty(), "{mech}");
        let report = ProtocolAuditor::strict().audit(&events);
        assert!(
            report.is_clean(),
            "{mech}: {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        );
        assert_eq!(report.events, events.len());
    }
}

#[test]
fn auditor_is_clean_on_the_threaded_backend() {
    let tree = twotone();
    let c = cfg(4, MechKind::Snapshot)
        .with_backend(ExecBackend::Threaded(fast()))
        .with_comm(CommMode::CommThread);
    let rec = Recorder::enabled();
    let r = solver::run_observed(&tree, &c, rec.clone()).unwrap();
    assert!(r.factor_time > SimTime::ZERO);
    let events = rec.take();
    assert!(!events.is_empty());
    // Normal (per-actor) mode: the cross-actor strict checks assume the
    // deterministic sim interleaving; per-actor sequencing must hold on real
    // threads too.
    let report = ProtocolAuditor::new().audit(&events);
    assert!(
        report.is_clean(),
        "{} violations, first: {}",
        report.violations.len(),
        report.violations[0]
    );
}
