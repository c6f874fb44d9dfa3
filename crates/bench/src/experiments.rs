//! The experiments: one function per table/figure of the paper.

use crate::paper;
use crate::table::{f, Table};
use loadex_core::{
    ChangeOrigin, IncrementMechanism, Load, MechKind, Mechanism, NaiveMechanism, Outbox, StateMsg,
    Threshold,
};
use loadex_sim::ActorId;
use loadex_solver::mapping::{self, MappingParams, NodeType};
use loadex_solver::{
    derive_threshold, run, CommMode, ExecBackend, RunReport, SolverConfig, Strategy,
    ThreadedBackend,
};
use loadex_sparse::models::{paper_matrices, MatrixModel, ProblemSet};
use loadex_sparse::Symmetry;

/// Baseline configuration used by all table experiments.
pub fn config_for(nprocs: usize) -> SolverConfig {
    SolverConfig::new(nprocs)
}

fn sym_str(s: Symmetry) -> &'static str {
    match s {
        Symmetry::Symmetric => "SYM",
        Symmetry::Unsymmetric => "UNS",
    }
}

/// Tables 1 and 2: the test problems.
pub fn table1_2() -> Table {
    let mut t = Table::new(
        "Tables 1-2: test problems (modeled)",
        &["matrix", "order", "nnz", "type", "set", "description"],
    );
    for m in paper_matrices() {
        t.row(vec![
            m.name.to_string(),
            m.order.to_string(),
            m.nnz.to_string(),
            sym_str(m.sym).to_string(),
            match m.set {
                ProblemSet::Small => "T1".into(),
                ProblemSet::Large => "T2".into(),
            },
            m.description.to_string(),
        ]);
    }
    t
}

/// Table 3: number of dynamic decisions for 32/64/128 processors.
/// Purely static (classification), so it is cheap for every matrix.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: number of dynamic decisions",
        &["matrix", "32", "paper", "64", "paper", "128", "paper"],
    );
    for m in paper_matrices() {
        let tree = m.build_tree();
        let mut cells = vec![m.name.to_string()];
        for np in [32usize, 64, 128] {
            let cfg = config_for(np);
            let plan = mapping::plan(&tree, np, MappingParams::from(&cfg));
            cells.push(plan.n_decisions.to_string());
            cells.push(
                paper::table3(m.name, np)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        t.row(cells);
    }
    t
}

/// Table 4: peak of active memory (millions of entries), memory-based
/// scheduling, per mechanism.
pub fn table4(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Table 4: peak of active memory (M entries), memory-based, {nprocs} procs"),
        &[
            "matrix", "incr", "snap", "naive", "p.incr", "p.snap", "p.naive",
        ],
    );
    for m in matrices {
        let tree = m.build_tree();
        let mut vals = Vec::new();
        for mech in [MechKind::Increments, MechKind::Snapshot, MechKind::Naive] {
            let cfg = config_for(nprocs)
                .with_mechanism(mech)
                .with_strategy(Strategy::MemoryBased);
            vals.push(run(&tree, &cfg).unwrap().mem_peak_millions());
        }
        let p = paper::table4(m.name, nprocs);
        let pcell =
            |sel: fn((f64, f64, f64)) -> f64| p.map(|v| f(sel(v))).unwrap_or_else(|| "-".into());
        t.row(vec![
            m.name.to_string(),
            f(vals[0]),
            f(vals[1]),
            f(vals[2]),
            pcell(|v| v.0),
            pcell(|v| v.1),
            pcell(|v| v.2),
        ]);
    }
    t
}

/// Table 5: factorization time (s), workload-based, increments vs snapshot.
pub fn table5(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Table 5: factorization time (s), workload-based, {nprocs} procs"),
        &["matrix", "incr", "snap", "p.incr", "p.snap"],
    );
    for m in matrices {
        let tree = m.build_tree();
        let mut vals = Vec::new();
        for mech in [MechKind::Increments, MechKind::Snapshot] {
            let cfg = config_for(nprocs).with_mechanism(mech);
            vals.push(run(&tree, &cfg).unwrap().seconds());
        }
        let p = paper::table5(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            f(vals[0]),
            f(vals[1]),
            p.map(|v| f(v.0)).unwrap_or_else(|| "-".into()),
            p.map(|v| f(v.1)).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// Table 6: total state-exchange messages, increments vs snapshot.
pub fn table6(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Table 6: total load-exchange messages, {nprocs} procs"),
        &["matrix", "incr", "snap", "p.incr", "p.snap"],
    );
    for m in matrices {
        let tree = m.build_tree();
        let mut vals = Vec::new();
        for mech in [MechKind::Increments, MechKind::Snapshot] {
            let cfg = config_for(nprocs).with_mechanism(mech);
            vals.push(run(&tree, &cfg).unwrap().state_msgs);
        }
        let p = paper::table6(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            vals[0].to_string(),
            vals[1].to_string(),
            p.map(|v| v.0.to_string()).unwrap_or_else(|| "-".into()),
            p.map(|v| v.1.to_string()).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// Table 7: factorization time (s) with the threaded exchange variant, plus
/// the §4.5 snapshot-time breakdown (single-threaded vs threaded union time).
pub fn table7(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Table 7: threaded load exchange, time (s), {nprocs} procs"),
        &[
            "matrix",
            "incr",
            "snap",
            "p.incr",
            "p.snap",
            "snpT.1thr",
            "snpT.comm",
        ],
    );
    for m in matrices {
        let tree = m.build_tree();
        let mut vals = Vec::new();
        let mut snp_union_threaded = 0.0;
        for mech in [MechKind::Increments, MechKind::Snapshot] {
            let cfg = config_for(nprocs)
                .with_mechanism(mech)
                .with_comm(CommMode::threaded_default());
            let r = run(&tree, &cfg).unwrap();
            if mech == MechKind::Snapshot {
                snp_union_threaded = r.snapshot_union_time.as_secs_f64();
            }
            vals.push(r.seconds());
        }
        // Single-threaded snapshot union for the §4.5 "100 s → 14 s" story.
        let single = run(
            &tree,
            &config_for(nprocs).with_mechanism(MechKind::Snapshot),
        )
        .unwrap();
        let p = paper::table7(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            f(vals[0]),
            f(vals[1]),
            p.map(|v| f(v.0)).unwrap_or_else(|| "-".into()),
            p.map(|v| f(v.1)).unwrap_or_else(|| "-".into()),
            f(single.snapshot_union_time.as_secs_f64()),
            f(snp_union_threaded),
        ]);
    }
    t
}

/// Figure 1: the naive mechanism's coherence problem, as a scripted 3-process
/// scenario. Returns a human-readable trace demonstrating the double
/// selection under the naive mechanism and its absence under increments.
pub fn figure1() -> String {
    let n = 3;
    let thr = Threshold::new(1.0, 1.0);
    let p0 = ActorId(0);
    let p1 = ActorId(1);
    let p2 = ActorId(2);
    let mut out = Outbox::new();
    let mut log = String::new();
    log.push_str("Figure 1 scenario: P2 starts a long task at t1; P0 selects slaves at t2;\n");
    log.push_str("P1 selects slaves at t3 < t4 (end of P2's task).\n\n");

    // --- Naive mechanism at P1 ---
    let naive_p1 = NaiveMechanism::new(p1, n, thr);
    // t2: P0 assigns 100 units to P2. Under the naive mechanism *nothing* is
    // broadcast by P0; P2 is busy and cannot even receive the task yet.
    log.push_str("t2 (naive):      P0 -> P2: 100 units of work. No reservation message exists.\n");
    // t3: P1 consults its view of P2.
    let view_p2 = naive_p1.view().get(p2);
    log.push_str(&format!(
        "t3 (naive):      P1's view of P2 = {:.0} work units -> P1 ALSO selects P2 (double selection!)\n",
        view_p2.work
    ));
    assert_eq!(view_p2.work, 0.0);

    // --- Increment mechanism at P1 ---
    let mut inc_p1 = IncrementMechanism::new(p1, n, thr);
    // t2: P0's decision arrives at P1 as the MasterToAll reservation.
    inc_p1.on_state_msg(
        p0,
        StateMsg::MasterToAll {
            assignments: vec![(p2, Load::work(100.0))],
        },
        &mut out,
    );
    let view_p2 = inc_p1.view().get(p2);
    log.push_str(&format!(
        "t2 (increments): P0 broadcasts MasterToAll{{P2: +100}}.\n\
         t3 (increments): P1's view of P2 = {:.0} work units -> P1 avoids P2.\n",
        view_p2.work
    ));
    assert_eq!(view_p2.work, 100.0);

    // Even at t4, when P2 finally processes the task message, the increment
    // mechanism does not double count (Algorithm 3 line (1)).
    let mut inc_p2 = IncrementMechanism::new(p2, n, thr);
    inc_p2.on_state_msg(
        p0,
        StateMsg::MasterToAll {
            assignments: vec![(p2, Load::work(100.0))],
        },
        &mut out,
    );
    inc_p2.on_local_change(Load::work(100.0), ChangeOrigin::SlaveTask, &mut out);
    log.push_str(&format!(
        "t4 (increments): P2 processes the task; its own load stays {:.0} (no double count).\n",
        inc_p2.view().my_load().work
    ));
    assert_eq!(inc_p2.view().my_load().work, 100.0);
    log
}

/// Figure 2: distribution of a multifrontal assembly tree over 4 processors
/// (subtrees, Type 1/2/3).
pub fn figure2() -> Table {
    let m = paper_matrices()
        .into_iter()
        .find(|m| m.name == "TWOTONE")
        .unwrap();
    let tree = m.build_tree();
    let nprocs = 4;
    let mut cfg = config_for(nprocs);
    cfg.type2_min_front = 300;
    let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
    let depths = tree.depths();
    let mut t = Table::new(
        "Figure 2: tree distribution over 4 processors (upper tree)",
        &["node", "depth", "nfront", "npiv", "type", "proc"],
    );
    for v in plan.upper_nodes() {
        let i = v as usize;
        t.row(vec![
            v.to_string(),
            depths[i].to_string(),
            tree.nodes[i].nfront.to_string(),
            tree.nodes[i].npiv.to_string(),
            match plan.ntype[i] {
                NodeType::Type1 => "Type 1",
                NodeType::Type2 => "Type 2",
                NodeType::Type3 => "Type 3",
                _ => unreachable!(),
            }
            .to_string(),
            format!("P{}", plan.owner[i]),
        ]);
    }
    // Summary row: subtree counts per process.
    let mut per_proc = vec![0usize; nprocs];
    for (i, ty) in plan.ntype.iter().enumerate() {
        if *ty == NodeType::SubtreeRoot {
            per_proc[plan.owner[i] as usize] += 1;
        }
    }
    t.row(vec![
        "subtrees".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "leaf".into(),
        per_proc
            .iter()
            .enumerate()
            .map(|(p, c)| format!("P{p}:{c}"))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    t
}

/// §2.3 ablation: message count with and without `NoMoreMaster` (the paper
/// observed "the number of messages could be divided by 2").
pub fn ablation_nomaster(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Ablation: NoMoreMaster optimisation (§2.3), increments, {nprocs} procs"),
        &["matrix", "with", "without", "ratio"],
    );
    for m in matrices {
        let tree = m.build_tree();
        let with = run(&tree, &config_for(nprocs)).unwrap().state_msgs;
        let mut cfg = config_for(nprocs);
        cfg.no_more_master = false;
        let without = run(&tree, &cfg).unwrap().state_msgs;
        t.row(vec![
            m.name.to_string(),
            with.to_string(),
            without.to_string(),
            format!("{:.2}", without as f64 / with.max(1) as f64),
        ]);
    }
    t
}

/// §5 ablation: a high-latency network. The paper conjectures the increments
/// mechanism's many messages would start to hurt, while the snapshot's fewer
/// messages would become comparatively attractive.
pub fn ablation_latency(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    use loadex_net::NetworkModel;
    let mut t = Table::new(
        format!("Ablation: network latency (§5 discussion), {nprocs} procs, time (s)"),
        &["matrix", "net", "incr", "snap", "snap/incr"],
    );
    for m in matrices {
        let tree = m.build_tree();
        for (name, net) in [
            ("ibm-sp", NetworkModel::ibm_sp_like()),
            ("high-lat", NetworkModel::high_latency()),
        ] {
            let mut vals = Vec::new();
            for mech in [MechKind::Increments, MechKind::Snapshot] {
                let mut cfg = config_for(nprocs).with_mechanism(mech);
                cfg.network = net;
                vals.push(run(&tree, &cfg).unwrap().seconds());
            }
            t.row(vec![
                m.name.to_string(),
                name.to_string(),
                f(vals[0]),
                f(vals[1]),
                format!("{:.2}", vals[1] / vals[0]),
            ]);
        }
    }
    t
}

/// Ablation: broadcast threshold sweep for the increments mechanism — the
/// traffic/accuracy trade-off of §2.3.
pub fn ablation_threshold(nprocs: usize, model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: increments threshold sweep, {} on {nprocs} procs",
            model.name
        ),
        &["threshold x", "messages", "time (s)", "mem peak (M)"],
    );
    let tree = model.build_tree();
    let mut cfg = config_for(nprocs);
    let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
    for scale in [0.25f64, 1.0, 4.0, 16.0] {
        // The threshold a run derives by default, scaled.
        cfg.threshold = Some(derive_threshold(&tree, &plan, &cfg, scale));
        let r = run(&tree, &cfg).unwrap();
        t.row(vec![
            format!("{scale}"),
            r.state_msgs.to_string(),
            f(r.seconds()),
            f(r.mem_peak_millions()),
        ]);
    }
    t
}

/// Extension experiment: quantify each mechanism's **view coherence** — the
/// error between what processes believe about each other's load and the
/// ground truth, both sampled uniformly in time (the accuracy probe's
/// series) and at the decision instants (the error the schedulers actually
/// consume). This is the property the paper discusses qualitatively
/// throughout; here it is measured.
pub fn ablation_coherence(nprocs: usize, model: &MatrixModel) -> Table {
    use loadex_sim::SimDuration;
    let mut t = Table::new(
        format!(
            "Extension: view coherence (work-unit error), {} on {nprocs} procs",
            model.name
        ),
        &[
            "mechanism",
            "t-mean",
            "t-max",
            "dec-mean",
            "dec-max",
            "msgs",
        ],
    );
    let tree = model.build_tree();
    for mech in MechKind::ALL {
        let mut cfg = config_for(nprocs).with_mechanism(mech).with_accuracy(true);
        cfg.coherence_probe = Some(SimDuration::from_millis(500));
        let r = run(&tree, &cfg).unwrap();
        let acc = r.accuracy.as_ref().expect("accuracy was enabled");
        // Every tick averages the same number of pairs, so the mean of the
        // tick means is the mean over all sampled pairs.
        let ticks = acc.series.len().max(1) as f64;
        let t_mean = acc.series.iter().map(|p| p.mean_abs_err_work).sum::<f64>() / ticks;
        let t_max = acc
            .series
            .iter()
            .map(|p| p.max_abs_err_work)
            .fold(0.0, f64::max);
        t.row(vec![
            mech.name().to_string(),
            format!("{t_mean:.3e}"),
            format!("{t_max:.3e}"),
            format!("{:.3e}", acc.summary.mean_decision_err_work),
            format!("{:.3e}", acc.summary.max_decision_err_work),
            r.state_msgs.to_string(),
        ]);
    }
    t
}

/// Extension experiment: **accuracy vs. message cost**. For each of the
/// paper's three mechanisms, run with the [`ViewAccuracyProbe`] attached and
/// tabulate the time-weighted view error, the information staleness, and the
/// decision regret (selections that the ground-truth view would have made
/// differently) against the state-message traffic that bought them. This is
/// the quantitative form of the paper's central trade-off: the snapshot
/// mechanism pays more per decision but decides on exact views (§3), the
/// increment mechanism is cheap but stale between thresholds (§2.2), and the
/// naive mechanism floods without ever being sharp (§2.1).
///
/// [`ViewAccuracyProbe`]: loadex_obs::ViewAccuracyProbe
pub fn accuracy_vs_cost(nprocs: usize, model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: accuracy vs. message cost, {} on {nprocs} procs",
            model.name
        ),
        &[
            "mechanism",
            "err-mean",
            "err-max",
            "stale-mean (s)",
            "decisions",
            "regrets",
            "gap-mean",
            "msgs",
        ],
    );
    let tree = model.build_tree();
    for mech in MechKind::ALL {
        let cfg = config_for(nprocs).with_mechanism(mech).with_accuracy(true);
        let r = run(&tree, &cfg).unwrap();
        let s = r.accuracy.as_ref().expect("accuracy was enabled").summary;
        t.row(vec![
            mech.name().to_string(),
            format!("{:.3e}", s.mean_abs_err_work),
            format!("{:.3e}", s.max_abs_err_work),
            f(s.mean_staleness_s),
            s.decisions.to_string(),
            s.regrets.to_string(),
            format!("{:.3e}", s.mean_regret_gap),
            r.state_msgs.to_string(),
        ]);
    }
    t
}

/// §5 perspective: the leader-election criterion. The paper conjectures it
/// "probably \[has\] a significant impact on the overall behaviour"; here we
/// compare min-rank (the paper's) against max-rank election.
pub fn ablation_leader(nprocs: usize, model: &MatrixModel) -> Table {
    use loadex_core::LeaderPolicy;
    let mut t = Table::new(
        format!(
            "Extension: leader-election criterion (§5), snapshot, {} on {nprocs} procs",
            model.name
        ),
        &["policy", "time (s)", "snp time (s)", "rebroadcasts"],
    );
    let tree = model.build_tree();
    for (name, policy) in [
        ("min-rank", LeaderPolicy::MinRank),
        ("max-rank", LeaderPolicy::MaxRank),
    ] {
        let mut cfg = config_for(nprocs).with_mechanism(MechKind::Snapshot);
        cfg.leader_policy = policy;
        let r = run(&tree, &cfg).unwrap();
        t.row(vec![
            name.to_string(),
            f(r.seconds()),
            f(r.snapshot_union_time.as_secs_f64()),
            (r.snapshots_started - r.decisions).to_string(),
        ]);
    }
    t
}

/// §5 perspective: **partial snapshots** — each decision queries only the k
/// least-loaded candidates, "with the double objective of reducing the
/// amount of messages and having a weaker synchronization".
pub fn ablation_partial_snapshot(nprocs: usize, model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: partial snapshots (§5), {} on {nprocs} procs",
            model.name
        ),
        &["candidates", "time (s)", "snp time (s)", "msgs", "mem (M)"],
    );
    let tree = model.build_tree();
    let mut ks = vec![None, Some(nprocs / 2), Some(nprocs / 4), Some(4)];
    ks.dedup();
    for k in ks {
        let mut cfg = config_for(nprocs).with_mechanism(MechKind::Snapshot);
        cfg.snapshot_candidates = k;
        let r = run(&tree, &cfg).unwrap();
        t.row(vec![
            k.map(|v| v.to_string()).unwrap_or_else(|| "all".into()),
            f(r.seconds()),
            f(r.snapshot_union_time.as_secs_f64()),
            r.state_msgs.to_string(),
            f(r.mem_peak_millions()),
        ]);
    }
    t
}

/// Extension experiment: the paper's three mechanisms side by side with two
/// designs from the wider systems literature — time-driven heartbeating and
/// epidemic gossip (the memberlist/Serf style of load dissemination). Same
/// solver, same tree, same decisions: only the dissemination changes.
pub fn extended_comparison(nprocs: usize, model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: five dissemination mechanisms, {} on {nprocs} procs",
            model.name
        ),
        &[
            "mechanism",
            "time (s)",
            "msgs",
            "bytes",
            "mem (M)",
            "dec-err",
        ],
    );
    let tree = model.build_tree();
    for mech in MechKind::EXTENDED {
        let cfg = config_for(nprocs).with_mechanism(mech).with_accuracy(true);
        let r = run(&tree, &cfg).unwrap();
        let acc = r.accuracy.as_ref().expect("accuracy was enabled");
        t.row(vec![
            mech.name().to_string(),
            f(r.seconds()),
            r.state_msgs.to_string(),
            r.state_bytes.to_string(),
            f(r.mem_peak_millions()),
            format!("{:.2e}", acc.summary.mean_decision_err_work),
        ]);
    }
    t
}

/// Ablation: task interruption granularity — how often a computing process
/// reaches a message-handling boundary. This is the knob behind the §4.5
/// observation that "a long task involving no communication will delay all
/// the other processes": coarser boundaries inflate the snapshot cost.
pub fn ablation_chunk(nprocs: usize, model: &MatrixModel) -> Table {
    use loadex_sim::SimDuration;
    let mut t = Table::new(
        format!(
            "Ablation: task interruption granularity, snapshot, {} on {nprocs} procs",
            model.name
        ),
        &[
            "chunk (ms)",
            "incr time",
            "snap time",
            "snap/incr",
            "snpT (s)",
        ],
    );
    let tree = model.build_tree();
    for ms in [100u64, 400, 1500, 6000] {
        let mut times = Vec::new();
        let mut snp_t = 0.0;
        for mech in [MechKind::Increments, MechKind::Snapshot] {
            let mut cfg = config_for(nprocs).with_mechanism(mech);
            cfg.task_chunk = SimDuration::from_millis(ms);
            let r = run(&tree, &cfg).unwrap();
            if mech == MechKind::Snapshot {
                snp_t = r.snapshot_union_time.as_secs_f64();
            }
            times.push(r.seconds());
        }
        t.row(vec![
            ms.to_string(),
            f(times[0]),
            f(times[1]),
            format!("{:.2}", times[1] / times[0]),
            f(snp_t),
        ]);
    }
    t
}

/// Ablation: message-count scalability with the process count. §4.5 warns
/// that the increments mechanism's broadcast traffic "can be a problem if we
/// consider systems with a large number of computational nodes (more than
/// 512 processors for example)".
pub fn ablation_scalability(model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: traffic scalability (§4.5 remark), {}",
            model.name
        ),
        &[
            "procs",
            "incr msgs",
            "snap msgs",
            "ratio",
            "incr time",
            "snap time",
        ],
    );
    let tree = model.build_tree();
    for np in [32usize, 64, 128, 256, 512] {
        let mut msgs = Vec::new();
        let mut times = Vec::new();
        for mech in [MechKind::Increments, MechKind::Snapshot] {
            let cfg = config_for(np).with_mechanism(mech);
            let r = run(&tree, &cfg).unwrap();
            msgs.push(r.state_msgs);
            times.push(r.seconds());
        }
        t.row(vec![
            np.to_string(),
            msgs[0].to_string(),
            msgs[1].to_string(),
            format!("{:.1}", msgs[0] as f64 / msgs[1].max(1) as f64),
            f(times[0]),
            f(times[1]),
        ]);
    }
    t
}

/// Extension (§4 intro): heterogeneous platforms. Half the processors run
/// at a fraction of full speed; dynamic schedulers must route work away
/// from them, and the quality of the load view decides how well they do.
pub fn ablation_heterogeneous(nprocs: usize, model: &MatrixModel) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: heterogeneous processors, {} on {nprocs} procs, workload-based",
            model.name
        ),
        &["slow fraction", "mechanism", "time (s)", "efficiency"],
    );
    let tree = model.build_tree();
    for slow in [1.0f64, 0.5, 0.25] {
        for mech in MechKind::ALL {
            let mut cfg = config_for(nprocs).with_mechanism(mech);
            cfg.speed_factors = (0..nprocs)
                .map(|p| if p % 2 == 0 { 1.0 } else { slow })
                .collect();
            let r = run(&tree, &cfg).unwrap();
            t.row(vec![
                format!("{slow}"),
                mech.name().to_string(),
                f(r.seconds()),
                format!("{:.0}%", r.efficiency() * 100.0),
            ]);
        }
    }
    t
}

/// §4.5 across execution backends: the same factorization on the
/// discrete-event simulator and on the real-thread backend, with and without
/// the dedicated communication thread. The story to look for is the snapshot
/// row: total blocked time collapses once state messages are serviced
/// concurrently with the computation instead of at task-chunk boundaries.
/// `backend` sets the real-thread runs' options (time scale, timeout); they
/// run once with and once without the communication thread.
pub fn threaded_backend_comparison(
    nprocs: usize,
    model: &MatrixModel,
    backend: ThreadedBackend,
) -> Table {
    let mut t = Table::new(
        format!(
            "§4.5 threaded execution backend: {} on {nprocs} procs",
            model.name
        ),
        &[
            "mechanism",
            "sim t(s)",
            "thr t(s) comm",
            "thr t(s) main",
            "blocked(s) comm",
            "blocked(s) main",
        ],
    );
    let tree = model.build_tree();
    let blocked_sum = |r: &RunReport| r.procs.iter().map(|p| p.blocked.as_secs_f64()).sum::<f64>();
    for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
        let cfg = config_for(nprocs).with_mechanism(mech);
        let sim = run(&tree, &cfg).unwrap();
        let threaded = cfg.clone().with_backend(ExecBackend::Threaded(backend));
        let comm = run(&tree, &threaded.clone().with_comm(CommMode::CommThread)).unwrap();
        let main = run(&tree, &threaded.with_comm(CommMode::MainLoop)).unwrap();
        t.row(vec![
            mech.name().to_string(),
            f(sim.seconds()),
            f(comm.seconds()),
            f(main.seconds()),
            f(blocked_sum(&comm)),
            f(blocked_sum(&main)),
        ]);
    }
    t
}

/// The Table 1 (small) problem set.
pub fn small_set() -> Vec<MatrixModel> {
    paper_matrices()
        .into_iter()
        .filter(|m| m.set == ProblemSet::Small)
        .collect()
}

/// The Table 2 (large) problem set.
pub fn large_set() -> Vec<MatrixModel> {
    paper_matrices()
        .into_iter()
        .filter(|m| m.set == ProblemSet::Large)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_demonstrates_the_incoherence() {
        let log = figure1();
        assert!(log.contains("double selection"));
        assert!(log.contains("P1 avoids P2"));
    }

    #[test]
    fn figure2_has_all_three_types() {
        let t = figure2();
        let all = t.render();
        assert!(all.contains("Type 2"));
        assert!(all.contains("Type 3") || all.contains("Type 1"));
        assert!(all.contains("subtrees"));
    }

    #[test]
    fn table1_2_lists_eleven_problems() {
        assert_eq!(table1_2().rows.len(), 11);
    }

    #[test]
    fn table3_has_measured_and_paper_columns() {
        let t = table3();
        assert_eq!(t.columns.len(), 7);
        assert_eq!(t.rows.len(), 11);
        // GUPTA3 reproduces the paper exactly: 8 decisions at 32 and 64.
        let gupta = t.rows.iter().find(|r| r[0] == "GUPTA3").unwrap();
        assert_eq!(gupta[1], "8");
        assert_eq!(gupta[3], "8");
    }

    #[test]
    fn quick_table4_on_one_small_matrix() {
        let ms: Vec<MatrixModel> = small_set()
            .into_iter()
            .filter(|m| m.name == "TWOTONE")
            .collect();
        let t = table4(8, &ms);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn quick_accuracy_vs_cost_snapshot_has_least_regret() {
        let ms: Vec<MatrixModel> = small_set()
            .into_iter()
            .filter(|m| m.name == "TWOTONE")
            .collect();
        let t = accuracy_vs_cost(8, &ms[0]);
        assert_eq!(t.rows.len(), 3, "one row per mechanism");
        let regret = |name: &str| -> u64 {
            let row = t.rows.iter().find(|r| r[0] == name).unwrap();
            row[5].parse().unwrap()
        };
        // §3's selling point, measured: deciding on an exact snapshot view
        // never regrets more than deciding on a stale broadcast view.
        assert!(regret("snapshot") <= regret("increments"));
        assert!(regret("snapshot") <= regret("naive"));
    }

    #[test]
    fn quick_nomaster_ablation_reduces_messages() {
        let ms: Vec<MatrixModel> = small_set()
            .into_iter()
            .filter(|m| m.name == "TWOTONE")
            .collect();
        let t = ablation_nomaster(8, &ms);
        let ratio: f64 = t.rows[0][3].parse().unwrap();
        assert!(ratio > 1.0, "NoMoreMaster must reduce traffic: {ratio}");
    }
}
