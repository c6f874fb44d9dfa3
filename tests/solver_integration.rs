//! Cross-crate integration: a paper model's assembly tree through mapping
//! and simulated factorization, under every mechanism, strategy and
//! communication mode.

use loadex::core::MechKind;
use loadex::obs::span::{render_gantt, spans_from_events};
use loadex::obs::Recorder;
use loadex::solver::mapping::{plan, MappingParams};
use loadex::solver::{run, run_observed, CommMode, SolverConfig, Strategy};

mod common;
use common::twotone;

#[test]
fn full_matrix_of_configurations_completes() {
    let tree = twotone();
    for mech in MechKind::ALL {
        for strat in [Strategy::MemoryBased, Strategy::WorkloadBased] {
            for comm in [CommMode::MainLoop, CommMode::CommThread] {
                let cfg = SolverConfig::new(6)
                    .with_mechanism(mech)
                    .with_strategy(strat)
                    .with_comm(comm);
                let r = run(&tree, &cfg).unwrap();
                assert!(
                    r.factor_time.as_nanos() > 0,
                    "{mech}/{}/{comm:?}: no progress",
                    strat.name()
                );
                assert!(
                    r.efficiency() > 0.0 && r.efficiency() <= 1.0 + 1e-9,
                    "{mech}: efficiency {} out of range",
                    r.efficiency()
                );
            }
        }
    }
}

#[test]
fn all_active_memory_is_released_at_the_end() {
    let tree = twotone();
    for mech in MechKind::ALL {
        let r = run(&tree, &SolverConfig::new(4).with_mechanism(mech)).unwrap();
        for (p, proc) in r.procs.iter().enumerate() {
            assert!(
                proc.mem_final_entries.abs() < 1e-6,
                "{mech}: P{p} leaked {} entries of active memory",
                proc.mem_final_entries
            );
        }
    }
}

#[test]
fn decision_count_is_mechanism_independent() {
    // The classification is static, so all mechanisms must take exactly the
    // same number of dynamic decisions.
    let tree = twotone();
    let cfg = SolverConfig::new(6);
    let expected = plan(&tree, 6, MappingParams::from(&cfg)).n_decisions as u64;
    assert!(expected > 0, "test needs parallel tasks");
    for mech in MechKind::ALL {
        let r = run(&tree, &cfg.clone().with_mechanism(mech)).unwrap();
        assert_eq!(r.decisions, expected, "{mech}");
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let tree = twotone();
    for mech in MechKind::ALL {
        let cfg = SolverConfig::new(5).with_mechanism(mech);
        let a = run(&tree, &cfg).unwrap();
        let b = run(&tree, &cfg).unwrap();
        assert_eq!(a.factor_time, b.factor_time, "{mech}");
        assert_eq!(a.state_msgs, b.state_msgs, "{mech}");
        assert_eq!(a.app_msgs, b.app_msgs, "{mech}");
        assert_eq!(a.mem_peak_entries(), b.mem_peak_entries(), "{mech}");
        assert_eq!(a.snapshot_union_time, b.snapshot_union_time, "{mech}");
    }
}

#[test]
fn single_process_degenerates_gracefully() {
    let tree = twotone();
    for mech in MechKind::ALL {
        let r = run(&tree, &SolverConfig::new(1).with_mechanism(mech)).unwrap();
        assert_eq!(r.state_msgs, 0, "{mech}: nobody to talk to");
        assert_eq!(r.decisions, 0, "{mech}: no parallel tasks");
        assert!(r.factor_time.as_nanos() > 0);
    }
}

#[test]
fn snapshot_mechanism_blocks_and_accounts_time() {
    let tree = twotone();
    let r = run(
        &tree,
        &SolverConfig::new(6).with_mechanism(MechKind::Snapshot),
    )
    .unwrap();
    assert!(r.decisions > 0);
    assert!(
        r.snapshot_union_time.as_nanos() > 0,
        "snapshots must take nonzero time"
    );
    assert!(r.snapshots_started >= r.decisions);
    assert!(r.snapshot_max_concurrent >= 1);
    // Maintained-view mechanisms never block.
    let r2 = run(
        &tree,
        &SolverConfig::new(6).with_mechanism(MechKind::Increments),
    )
    .unwrap();
    assert_eq!(r2.snapshot_union_time.as_nanos(), 0);
    assert_eq!(r2.snapshot_max_concurrent, 0);
}

#[test]
fn snapshot_sends_fewer_messages_than_increments() {
    let tree = twotone();
    let inc = run(
        &tree,
        &SolverConfig::new(8).with_mechanism(MechKind::Increments),
    )
    .unwrap();
    let snp = run(
        &tree,
        &SolverConfig::new(8).with_mechanism(MechKind::Snapshot),
    )
    .unwrap();
    assert!(
        snp.state_msgs < inc.state_msgs,
        "snapshot {} !< increments {}",
        snp.state_msgs,
        inc.state_msgs
    );
}

#[test]
fn threading_reduces_snapshot_time() {
    // The §4.5 effect needs task durations well above the 50 µs poll period
    // (on the paper's machine and on this tree they are).
    let tree = twotone();
    let base = SolverConfig::new(6).with_mechanism(MechKind::Snapshot);
    let single = run(&tree, &base).unwrap();
    let threaded = run(&tree, &base.clone().with_comm(CommMode::CommThread)).unwrap();
    assert!(
        threaded.snapshot_union_time <= single.snapshot_union_time,
        "threaded union {} > single {}",
        threaded.snapshot_union_time,
        single.snapshot_union_time
    );
}

#[test]
fn more_processes_do_not_lose_work() {
    // Total busy time (work done) must be within float noise of the tree's
    // flops / speed, independent of the process count. The tree is large
    // enough that compute dominates the per-message processing overheads
    // that `busy` also includes.
    let tree = twotone();
    let total_flops = tree.total_flops();
    for np in [1usize, 2, 4, 8] {
        let cfg = SolverConfig::new(np);
        let r = run(&tree, &cfg).unwrap();
        let busy: f64 = r.procs.iter().map(|p| p.busy.as_secs_f64()).sum();
        let expected = total_flops / cfg.speed_flops;
        assert!(
            busy >= expected * 0.99 && busy <= expected * 1.30,
            "np={np}: busy {busy} vs flops-time {expected}"
        );
    }
}

#[test]
fn disabled_chunking_still_completes() {
    use loadex::sim::SimDuration;
    let tree = twotone();
    for mech in MechKind::ALL {
        let mut cfg = SolverConfig::new(4).with_mechanism(mech);
        cfg.task_chunk = SimDuration::ZERO;
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{mech}");
    }
}

#[test]
fn no_more_master_reduces_traffic() {
    let tree = twotone();
    let with = run(&tree, &SolverConfig::new(8)).unwrap();
    let mut cfg = SolverConfig::new(8);
    cfg.no_more_master = false;
    let without = run(&tree, &cfg).unwrap();
    assert!(
        with.state_msgs < without.state_msgs,
        "NoMoreMaster must cut messages: {} !< {}",
        with.state_msgs,
        without.state_msgs
    );
}

#[test]
fn extension_mechanisms_complete_and_disseminate() {
    // The 100 ms default timer period is a small fraction of this tree's
    // makespan, so both timers fire many times.
    let tree = twotone();
    for mech in [MechKind::Periodic, MechKind::Gossip] {
        let cfg = SolverConfig::new(6).with_mechanism(mech);
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{mech}");
        assert!(r.state_msgs > 0, "{mech}: timers must produce traffic");
        for (p, proc) in r.procs.iter().enumerate() {
            assert!(
                proc.mem_final_entries.abs() < 1e-6,
                "{mech}: P{p} leaked memory"
            );
        }
    }
}

#[test]
fn gossip_uses_fewer_messages_than_naive_per_round() {
    let tree = twotone();
    let naive_cfg = SolverConfig::new(8).with_mechanism(MechKind::Periodic);
    let mut gossip_cfg = SolverConfig::new(8).with_mechanism(MechKind::Gossip);
    gossip_cfg.gossip_fanout = 2;
    let p = run(&tree, &naive_cfg).unwrap();
    let g = run(&tree, &gossip_cfg).unwrap();
    // Periodic broadcasts to N-1 = 7 peers when active; gossip to 2 always.
    // Gossip messages are larger but fewer per unit time under churn.
    assert!(p.factor_time.as_nanos() > 0 && g.factor_time.as_nanos() > 0);
    assert!(g.state_msgs > 0 && p.state_msgs > 0);
}

#[test]
fn partial_snapshots_cut_traffic_at_engine_level() {
    let tree = twotone();
    let full = run(
        &tree,
        &SolverConfig::new(8).with_mechanism(MechKind::Snapshot),
    )
    .unwrap();
    let mut cfg = SolverConfig::new(8).with_mechanism(MechKind::Snapshot);
    cfg.snapshot_candidates = Some(3);
    let partial = run(&tree, &cfg).unwrap();
    assert!(partial.factor_time.as_nanos() > 0);
    assert_eq!(partial.decisions, full.decisions);
    assert!(
        partial.state_msgs < full.state_msgs,
        "partial {} !< full {}",
        partial.state_msgs,
        full.state_msgs
    );
    for (p, proc) in partial.procs.iter().enumerate() {
        assert!(proc.mem_final_entries.abs() < 1e-6, "P{p} leaked memory");
    }
}

#[test]
fn leader_policy_changes_behavior_not_correctness() {
    use loadex::core::LeaderPolicy;
    let tree = twotone();
    for policy in [LeaderPolicy::MinRank, LeaderPolicy::MaxRank] {
        let mut cfg = SolverConfig::new(6).with_mechanism(MechKind::Snapshot);
        cfg.leader_policy = policy;
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{policy:?}");
        assert!(r.decisions > 0);
    }
}

#[test]
fn coherence_probe_collects_samples() {
    use loadex::sim::SimDuration;
    let tree = twotone();
    let mut cfg = SolverConfig::new(4).with_accuracy(true);
    cfg.coherence_probe = Some(SimDuration::from_millis(100));
    let r = run(&tree, &cfg).unwrap();
    let acc = r.accuracy.as_ref().expect("accuracy enabled");
    assert!(!acc.series.is_empty(), "probe must sample");
    assert_eq!(
        acc.summary.decision_err_samples,
        r.decisions * 3,
        "decisions must sample every peer"
    );
    assert!(acc.series.iter().all(|p| p.mean_abs_err_work >= 0.0));
    // Without the sampling period, only decision samples appear.
    let r2 = run(&tree, &SolverConfig::new(4).with_accuracy(true)).unwrap();
    let acc2 = r2.accuracy.as_ref().expect("accuracy enabled");
    assert!(acc2.series.is_empty());
    assert!(acc2.summary.decision_err_samples > 0);
}

#[test]
fn snapshot_decision_views_are_most_accurate() {
    // The paper's quality ordering (§4.4): at decision time the snapshot's
    // view beats increments, which beats naive.
    let tree = twotone();
    let mut errs = Vec::new();
    for mech in MechKind::ALL {
        let cfg = SolverConfig::new(8)
            .with_mechanism(mech)
            .with_accuracy(true);
        let r = run(&tree, &cfg).unwrap();
        let acc = r.accuracy.as_ref().expect("accuracy enabled");
        errs.push((mech, acc.summary.mean_decision_err_work));
    }
    let get = |k: MechKind| errs.iter().find(|(m, _)| *m == k).unwrap().1;
    assert!(
        get(MechKind::Snapshot) <= get(MechKind::Naive),
        "snapshot {} !<= naive {}",
        get(MechKind::Snapshot),
        get(MechKind::Naive)
    );
}

#[test]
fn timeline_records_and_renders() {
    let tree = twotone();
    let cfg = SolverConfig::new(4).with_mechanism(MechKind::Snapshot);
    let rec = Recorder::enabled();
    let r = run_observed(&tree, &cfg, rec.clone()).unwrap();
    let spans = spans_from_events(&rec.take(), 4, r.factor_time);
    assert_eq!(spans.len(), 4);
    assert!(spans.iter().all(|s| !s.is_empty()));
    // Spans are time-ordered and do not overlap.
    for s in &spans {
        for w in s.windows(2) {
            assert!(w[0].start <= w[0].end && w[0].end <= w[1].start);
        }
    }
    let g = render_gantt(&spans, r.factor_time, 60);
    assert!(g.contains("P0"), "{g}");
    assert!(g.contains('#'), "someone must compute:\n{g}");
    assert!(g.contains('S'), "snapshot blocking must appear:\n{g}");
}

#[test]
fn heterogeneous_speeds_slow_the_makespan_but_stay_correct() {
    let tree = twotone();
    let homo = run(&tree, &SolverConfig::new(6)).unwrap();
    let mut cfg = SolverConfig::new(6);
    cfg.speed_factors = vec![1.0, 0.25, 1.0, 0.25, 1.0, 0.25];
    let hetero = run(&tree, &cfg).unwrap();
    assert!(
        hetero.factor_time > homo.factor_time,
        "slow processors must cost time: {} !> {}",
        hetero.factor_time,
        homo.factor_time
    );
    for (p, proc) in hetero.procs.iter().enumerate() {
        assert!(proc.mem_final_entries.abs() < 1e-6, "P{p} leaked");
    }
    // But far less than 4x: the dynamic scheduler routes around them.
    let ratio = hetero.factor_time.as_secs_f64() / homo.factor_time.as_secs_f64();
    assert!(ratio < 4.0, "scheduler failed to adapt: ratio {ratio}");
}
