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
use loadex_sparse::{AssemblyTree, Symmetry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Baseline configuration used by all table experiments.
pub fn config_for(nprocs: usize) -> SolverConfig {
    SolverConfig::new(nprocs)
}

/// Run every `(tree, configuration)` job and return the reports in job
/// order. The jobs are shared out to `available_parallelism` workers (at
/// most one per job), the calling thread among them; each worker takes the
/// next job from a shared counter. A simulated run depends only on its tree
/// and configuration, so the reports, and every table built from them, do
/// not depend on which worker ran which job.
fn run_all(jobs: &[(&AssemblyTree, SolverConfig)]) -> Vec<RunReport> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs.len());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out job indices; the reports
            // come back through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((tree, cfg)) = jobs.get(i) else {
                return done;
            };
            done.push((i, run(tree, cfg).expect("a table's run completes")));
        }
    };
    let mut reports: Vec<Option<RunReport>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mine = work();
        let theirs = spawned
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        for (i, report) in theirs.chain(mine) {
            reports[i] = Some(report);
        }
    });
    reports
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Run every configuration on every matrix, building each tree once. The
/// reports come back matrix by matrix, each matrix's in `cfgs` order: one
/// chunk of `cfgs.len()` per matrix.
fn run_grid(matrices: &[MatrixModel], cfgs: &[SolverConfig]) -> Vec<RunReport> {
    let trees: Vec<AssemblyTree> = matrices.iter().map(MatrixModel::build_tree).collect();
    let jobs: Vec<(&AssemblyTree, SolverConfig)> = trees
        .iter()
        .flat_map(|tree| cfgs.iter().map(move |cfg| (tree, cfg.clone())))
        .collect();
    run_all(&jobs)
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
    let cfgs = [MechKind::Increments, MechKind::Snapshot, MechKind::Naive].map(|mech| {
        config_for(nprocs)
            .with_mechanism(mech)
            .with_strategy(Strategy::MemoryBased)
    });
    let reports = run_grid(matrices, &cfgs);
    for (m, r) in matrices.iter().zip(reports.chunks(cfgs.len())) {
        let p = paper::table4(m.name, nprocs);
        let pcell =
            |sel: fn((f64, f64, f64)) -> f64| p.map(|v| f(sel(v))).unwrap_or_else(|| "-".into());
        t.row(vec![
            m.name.to_string(),
            f(r[0].mem_peak_millions()),
            f(r[1].mem_peak_millions()),
            f(r[2].mem_peak_millions()),
            pcell(|v| v.0),
            pcell(|v| v.1),
            pcell(|v| v.2),
        ]);
    }
    t
}

/// Increments then snapshot, on the baseline configuration.
fn incr_snap(nprocs: usize) -> [SolverConfig; 2] {
    [MechKind::Increments, MechKind::Snapshot].map(|mech| config_for(nprocs).with_mechanism(mech))
}

/// Table 5: factorization time (s), workload-based, increments vs snapshot.
pub fn table5(nprocs: usize, matrices: &[MatrixModel]) -> Table {
    let mut t = Table::new(
        format!("Table 5: factorization time (s), workload-based, {nprocs} procs"),
        &["matrix", "incr", "snap", "p.incr", "p.snap"],
    );
    let reports = run_grid(matrices, &incr_snap(nprocs));
    for (m, r) in matrices.iter().zip(reports.chunks(2)) {
        let p = paper::table5(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            f(r[0].seconds()),
            f(r[1].seconds()),
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
    let reports = run_grid(matrices, &incr_snap(nprocs));
    for (m, r) in matrices.iter().zip(reports.chunks(2)) {
        let p = paper::table6(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            r[0].state_msgs.to_string(),
            r[1].state_msgs.to_string(),
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
    let [incr, snap] = incr_snap(nprocs);
    // The third run is the single-threaded snapshot, for the §4.5
    // "100 s → 14 s" union-time story.
    let cfgs = [
        incr.with_comm(CommMode::CommThread),
        snap.clone().with_comm(CommMode::CommThread),
        snap,
    ];
    let reports = run_grid(matrices, &cfgs);
    for (m, r) in matrices.iter().zip(reports.chunks(cfgs.len())) {
        let p = paper::table7(m.name, nprocs);
        t.row(vec![
            m.name.to_string(),
            f(r[0].seconds()),
            f(r[1].seconds()),
            p.map(|v| f(v.0)).unwrap_or_else(|| "-".into()),
            p.map(|v| f(v.1)).unwrap_or_else(|| "-".into()),
            f(r[2].snapshot_union_time.as_secs_f64()),
            f(r[1].snapshot_union_time.as_secs_f64()),
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
    let mut off = config_for(nprocs);
    off.no_more_master = false;
    let reports = run_grid(matrices, &[config_for(nprocs), off]);
    for (m, r) in matrices.iter().zip(reports.chunks(2)) {
        let (with, without) = (r[0].state_msgs, r[1].state_msgs);
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
    let nets = [
        ("ibm-sp", NetworkModel::ibm_sp_like()),
        ("high-lat", NetworkModel::high_latency()),
    ];
    let cfgs: Vec<SolverConfig> = nets
        .iter()
        .flat_map(|&(_, net)| {
            incr_snap(nprocs).map(|mut cfg| {
                cfg.network = net;
                cfg
            })
        })
        .collect();
    let reports = run_grid(matrices, &cfgs);
    for (m, per_matrix) in matrices.iter().zip(reports.chunks(cfgs.len())) {
        for ((name, _), r) in nets.iter().zip(per_matrix.chunks(2)) {
            let (incr, snap) = (r[0].seconds(), r[1].seconds());
            t.row(vec![
                m.name.to_string(),
                name.to_string(),
                f(incr),
                f(snap),
                format!("{:.2}", snap / incr),
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
    let cfg = config_for(nprocs);
    let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
    let scales = [0.25f64, 1.0, 4.0, 16.0];
    let jobs: Vec<(&AssemblyTree, SolverConfig)> = scales
        .iter()
        .map(|&scale| {
            // The threshold a run derives by default, scaled.
            let mut scaled = cfg.clone();
            scaled.threshold = Some(derive_threshold(&tree, &plan, &cfg, scale));
            (&tree, scaled)
        })
        .collect();
    for (scale, r) in scales.iter().zip(run_all(&jobs)) {
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
    let cfgs = MechKind::ALL.map(|mech| {
        let mut cfg = config_for(nprocs).with_mechanism(mech).with_accuracy(true);
        cfg.coherence_probe = Some(SimDuration::from_millis(500));
        cfg
    });
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (mech, r) in MechKind::ALL.into_iter().zip(reports) {
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
    let cfgs =
        MechKind::ALL.map(|mech| config_for(nprocs).with_mechanism(mech).with_accuracy(true));
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (mech, r) in MechKind::ALL.into_iter().zip(reports) {
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
    let policies = [
        ("min-rank", LeaderPolicy::MinRank),
        ("max-rank", LeaderPolicy::MaxRank),
    ];
    let cfgs = policies.map(|(_, policy)| {
        let mut cfg = config_for(nprocs).with_mechanism(MechKind::Snapshot);
        cfg.leader_policy = policy;
        cfg
    });
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for ((name, _), r) in policies.into_iter().zip(reports) {
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
    let mut ks = vec![None, Some(nprocs / 2), Some(nprocs / 4), Some(4)];
    ks.dedup();
    let cfgs: Vec<SolverConfig> = ks
        .iter()
        .map(|&k| {
            let mut cfg = config_for(nprocs).with_mechanism(MechKind::Snapshot);
            cfg.snapshot_candidates = k;
            cfg
        })
        .collect();
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (k, r) in ks.into_iter().zip(reports) {
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
    let cfgs =
        MechKind::EXTENDED.map(|mech| config_for(nprocs).with_mechanism(mech).with_accuracy(true));
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (mech, r) in MechKind::EXTENDED.into_iter().zip(reports) {
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
    let chunks = [100u64, 400, 1500, 6000];
    let cfgs: Vec<SolverConfig> = chunks
        .iter()
        .flat_map(|&ms| {
            incr_snap(nprocs).map(|mut cfg| {
                cfg.task_chunk = SimDuration::from_millis(ms);
                cfg
            })
        })
        .collect();
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (ms, r) in chunks.iter().zip(reports.chunks(2)) {
        let (incr, snap) = (r[0].seconds(), r[1].seconds());
        t.row(vec![
            ms.to_string(),
            f(incr),
            f(snap),
            format!("{:.2}", snap / incr),
            f(r[1].snapshot_union_time.as_secs_f64()),
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
    let procs = [32usize, 64, 128, 256, 512];
    let cfgs: Vec<SolverConfig> = procs.iter().flat_map(|&np| incr_snap(np)).collect();
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (np, r) in procs.iter().zip(reports.chunks(2)) {
        let (incr, snap) = (&r[0], &r[1]);
        t.row(vec![
            np.to_string(),
            incr.state_msgs.to_string(),
            snap.state_msgs.to_string(),
            format!(
                "{:.1}",
                incr.state_msgs as f64 / snap.state_msgs.max(1) as f64
            ),
            f(incr.seconds()),
            f(snap.seconds()),
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
    let runs: Vec<(f64, MechKind)> = [1.0f64, 0.5, 0.25]
        .into_iter()
        .flat_map(|slow| MechKind::ALL.map(|mech| (slow, mech)))
        .collect();
    let cfgs: Vec<SolverConfig> = runs
        .iter()
        .map(|&(slow, mech)| {
            let mut cfg = config_for(nprocs).with_mechanism(mech);
            cfg.speed_factors = (0..nprocs)
                .map(|p| if p % 2 == 0 { 1.0 } else { slow })
                .collect();
            cfg
        })
        .collect();
    let reports = run_grid(std::slice::from_ref(model), &cfgs);
    for (&(slow, mech), r) in runs.iter().zip(reports) {
        t.row(vec![
            format!("{slow}"),
            mech.name().to_string(),
            f(r.seconds()),
            format!("{:.0}%", r.efficiency() * 100.0),
        ]);
    }
    t
}

/// §4.5 across execution backends: the same factorization on the
/// discrete-event simulator and on the real-thread backend, with and without
/// the dedicated communication thread. The story to look for is the snapshot
/// row: total blocked time collapses once state messages are serviced
/// concurrently with the computation instead of at task-chunk boundaries.
/// `backend` sets the real-thread runs' options (time scale, timeout); they
/// run once with and once without the communication thread. Unlike the
/// simulated tables, the runs go one at a time: they are timed by the wall
/// clock, which a concurrent run would disturb.
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
    fn run_all_returns_the_sequential_reports_in_job_order() {
        use serde::Serialize;
        let tree = loadex_sparse::models::by_name("TWOTONE")
            .unwrap()
            .build_tree();
        let jobs: Vec<(&AssemblyTree, SolverConfig)> =
            [MechKind::Increments, MechKind::Snapshot, MechKind::Naive]
                .into_iter()
                .flat_map(|mech| {
                    [CommMode::MainLoop, CommMode::CommThread]
                        .map(|comm| (&tree, config_for(8).with_mechanism(mech).with_comm(comm)))
                })
                .collect();
        let pooled = run_all(&jobs);
        assert_eq!(pooled.len(), jobs.len());
        for ((tree, cfg), report) in jobs.iter().zip(&pooled) {
            let alone = run(tree, cfg).unwrap();
            assert_eq!(report.to_json(), alone.to_json(), "{cfg:?}");
        }
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
