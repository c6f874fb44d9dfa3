//! Experiment entry points: the [`Runtime`] dispatcher and its one-call
//! convenience wrappers.
//!
//! A [`Runtime`] validates a [`SolverConfig`] once, derives the static plan,
//! then dispatches to the configured [`ExecBackend`]: the discrete-event simulator ([`ExecBackend::Sim`]) or
//! the real-thread backend ([`ExecBackend::Threaded`], §4.5). Both produce
//! the same [`RunReport`] schema, and both return typed [`RunError`]s
//! instead of panicking.

use crate::config::{ExecBackend, SolverConfig};
use crate::engine::{Ev, SolverWorld};
use crate::error::{ConfigError, RunError};
use crate::mapping::{self, MappingParams, TreePlan};
use crate::report::RunReport;
use loadex_obs::Recorder;
use loadex_sim::{ActorId, SimConfig, SimTime, Simulator, StopReason};
use loadex_sparse::AssemblyTree;

/// A validated, backend-dispatching experiment runner.
///
/// ```
/// use loadex_solver::{Runtime, SolverConfig};
/// use loadex_core::MechKind;
/// use loadex_sparse::models::by_name;
///
/// let tree = by_name("TWOTONE").unwrap().build_tree();
/// let cfg = SolverConfig::new(8).with_mechanism(MechKind::Increments);
/// let report = Runtime::new(cfg)?.run(&tree)?;
/// assert!(report.seconds() > 0.0);
/// assert!(report.decisions > 0);
/// assert_eq!(report.backend, "sim");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Runtime {
    cfg: SolverConfig,
}

impl Runtime {
    /// Validate `cfg` and build a runner for it. All range errors surface
    /// here, before any run starts.
    pub fn new(cfg: SolverConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Runtime { cfg })
    }

    /// The validated configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Run a full factorization of `tree` on the configured backend.
    pub fn run(&self, tree: &AssemblyTree) -> Result<RunReport, RunError> {
        self.run_observed(tree, Recorder::disabled())
    }

    /// Like [`Runtime::run`], but with an observability sink attached: when
    /// `recorder` is enabled, the full typed protocol-event stream of the
    /// run is captured in it (drain with [`Recorder::take`], export with
    /// `loadex_obs::jsonl` / `loadex_obs::chrome`) and the report's
    /// [`metrics`](RunReport::metrics) carry the latency, snapshot-duration
    /// and view-staleness histograms. Threaded runs stamp events with
    /// scaled wall time, so the same exporters apply to both backends.
    pub fn run_observed(
        &self,
        tree: &AssemblyTree,
        recorder: Recorder,
    ) -> Result<RunReport, RunError> {
        let plan = mapping::plan(tree, self.cfg.nprocs, MappingParams::from(&self.cfg));
        let cfg = self.cfg.clone();
        match cfg.backend {
            ExecBackend::Sim => run_sim(tree, plan, cfg, recorder),
            ExecBackend::Threaded(t) => crate::threaded::run(tree, plan, cfg, t, recorder),
        }
    }
}

/// One-call form of [`Runtime::run`]: validate `cfg`, run `tree`, report.
pub fn run(tree: &AssemblyTree, cfg: &SolverConfig) -> Result<RunReport, RunError> {
    Runtime::new(cfg.clone())?.run(tree)
}

/// One-call form of [`Runtime::run_observed`].
pub fn run_observed(
    tree: &AssemblyTree,
    cfg: &SolverConfig,
    recorder: Recorder,
) -> Result<RunReport, RunError> {
    Runtime::new(cfg.clone())?.run_observed(tree, recorder)
}

/// Drive the discrete-event backend to completion.
fn run_sim(
    tree: &AssemblyTree,
    plan: TreePlan,
    cfg: SolverConfig,
    recorder: Recorder,
) -> Result<RunReport, RunError> {
    let mut world = SolverWorld::new(tree.clone(), plan, cfg.clone());
    world.set_recorder(recorder);
    // Generous livelock valve: proportional to the task count.
    let max_events = 2_000 * (tree.len() as u64 + 64) * (cfg.nprocs as u64 + 4);
    let mut sim = Simulator::new(SimConfig {
        max_events,
        ..Default::default()
    });
    for p in 0..cfg.nprocs {
        sim.schedule_at(SimTime::ZERO, ActorId(p), Ev::Kick);
    }
    match sim.run(&mut world) {
        StopReason::Requested => {}
        StopReason::Drained => {
            if !world.is_done() {
                return Err(RunError::Deadlock {
                    detail: world.debug_dump(),
                });
            }
        }
        StopReason::EventLimit => return Err(RunError::Livelock { events: max_events }),
        StopReason::Horizon => unreachable!("no horizon configured"),
    }
    Ok(world.report())
}

/// The broadcast threshold both backends use when the configuration leaves
/// it unset. §2.3: "it is consistent to choose a threshold of the same order
/// as the granularity of the tasks appearing in the slave selections." We
/// derive it from the mean Type 2 slave share (a quarter of it, so shares
/// themselves always cross the threshold but the small-task noise does not).
///
/// Both components are multiplied by `scale` before they are clamped to at
/// least 1. Runs with no explicit threshold use `scale` 1; the threshold
/// ablation sweeps it.
pub fn derive_threshold(
    tree: &AssemblyTree,
    plan: &crate::mapping::TreePlan,
    cfg: &SolverConfig,
    scale: f64,
) -> loadex_core::Threshold {
    use crate::mapping::NodeType;
    use loadex_sparse::Symmetry;
    let ef = match tree.sym {
        Symmetry::Symmetric => 0.5,
        Symmetry::Unsymmetric => 1.0,
    };
    let mut n = 0u32;
    let mut mem = 0.0f64;
    let mut work = 0.0f64;
    for (i, t) in plan.ntype.iter().enumerate() {
        if *t != NodeType::Type2 {
            continue;
        }
        let node = &tree.nodes[i];
        let ncb = node.ncb().max(1);
        let share_rows = (ncb / 8).clamp(cfg.kmin_rows.min(ncb), cfg.kmax_rows) as f64;
        mem += share_rows * node.nfront as f64 * ef;
        work += tree.flops(i) / ncb as f64 * share_rows;
        n += 1;
    }
    if n == 0 {
        // No parallel tasks: any coarse threshold works; take 1% of totals.
        return loadex_core::Threshold::new(
            (tree.total_flops() * 0.01 * scale).max(1.0),
            (tree.total_factor_entries() * 0.01 * scale).max(1.0),
        );
    }
    loadex_core::Threshold::new(
        (work / n as f64 * 0.25 * scale).max(1.0),
        (mem / n as f64 * 0.25 * scale).max(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommMode, Strategy};
    use loadex_core::MechKind;
    use loadex_sparse::models::by_name;
    use loadex_sparse::{gen, symbolic, Symmetry};

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

    fn cfg(nprocs: usize, mech: MechKind) -> SolverConfig {
        let mut c = SolverConfig::new(nprocs).with_mechanism(mech);
        // Small problems: lower the parallel thresholds so Type 2 exists.
        c.type2_min_front = 20;
        c.type3_min_front = 60;
        c.kmin_rows = 4;
        c
    }

    #[test]
    fn completes_on_one_process() {
        let t = small_tree();
        let r = run(&t, &cfg(1, MechKind::Increments)).unwrap();
        assert!(r.factor_time > SimTime::ZERO);
        assert_eq!(r.decisions, 0, "no dynamic decisions with one process");
        assert_eq!(r.state_msgs, 0);
        assert_eq!(r.backend, "sim");
    }

    #[test]
    fn completes_under_all_mechanisms() {
        let t = small_tree();
        for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
            let r = run(&t, &cfg(4, mech)).unwrap();
            assert!(r.factor_time > SimTime::ZERO, "{mech}: no progress");
            assert!(r.procs.len() == 4);
            assert!(r.mem_peak_entries() > 0.0, "{mech}: no memory tracked");
        }
    }

    #[test]
    fn completes_under_both_strategies() {
        let t = small_tree();
        for strat in [Strategy::MemoryBased, Strategy::WorkloadBased] {
            let c = cfg(4, MechKind::Increments).with_strategy(strat);
            let r = run(&t, &c).unwrap();
            assert!(
                r.factor_time > SimTime::ZERO,
                "{}: no progress",
                strat.name()
            );
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let t = small_tree();
        let mut c = cfg(4, MechKind::Increments);
        c.nprocs = 0;
        assert!(matches!(
            run(&t, &c),
            Err(RunError::Config(ConfigError::ZeroProcs))
        ));
        assert!(Runtime::new(c).is_err());
    }

    #[test]
    fn threaded_mode_completes_and_speeds_up_snapshots() {
        let t = by_name("TWOTONE").unwrap().build_tree();
        let base = SolverConfig::new(8).with_mechanism(MechKind::Snapshot);
        let single = run(&t, &base).unwrap();
        let threaded = run(&t, &base.clone().with_comm(CommMode::threaded_default())).unwrap();
        assert!(single.factor_time > SimTime::ZERO);
        assert!(threaded.factor_time > SimTime::ZERO);
        // The whole point of §4.5: snapshots complete much faster when state
        // messages are serviced during computation.
        assert!(
            threaded.snapshot_union_time < single.snapshot_union_time,
            "threaded {} !< single {}",
            threaded.snapshot_union_time,
            single.snapshot_union_time
        );
    }

    #[test]
    fn snapshot_mechanism_counts_fewer_messages() {
        let t = by_name("TWOTONE").unwrap().build_tree();
        let inc = run(
            &t,
            &SolverConfig::new(8).with_mechanism(MechKind::Increments),
        )
        .unwrap();
        let snp = run(&t, &SolverConfig::new(8).with_mechanism(MechKind::Snapshot)).unwrap();
        assert!(inc.decisions > 0);
        assert_eq!(inc.decisions, snp.decisions, "same static classification");
        assert!(
            snp.state_msgs < inc.state_msgs,
            "snapshot {} !< increments {}",
            snp.state_msgs,
            inc.state_msgs
        );
    }

    #[test]
    fn observed_run_captures_events_and_metrics() {
        let t = small_tree();
        let c = cfg(4, MechKind::Snapshot);
        let rec = Recorder::enabled();
        let r = run_observed(&t, &c, rec.clone()).unwrap();
        let events = rec.take();
        assert!(!events.is_empty(), "an observed run must emit events");
        // The metrics snapshot's per-mechanism totals are the MechStats sums.
        assert_eq!(r.metrics.counter("state_msgs_sent"), r.state_msgs);
        assert_eq!(r.metrics.counter("state_bytes_sent"), r.state_bytes);
        assert_eq!(r.metrics.counter("decisions"), r.decisions);
        assert_eq!(r.metrics.counter("snapshots_started"), r.snapshots_started);
        // The network's counts sit in the same registry.
        assert_eq!(
            r.metrics.counter("net_state_msgs"),
            r.metrics.histograms["state_msg_latency_ns"].count,
            "one latency sample per state message on the wire"
        );
        // Run histograms are populated under the snapshot mechanism.
        assert!(r.metrics.histograms["state_msg_latency_ns"].count > 0);
        assert!(r.metrics.histograms["snapshot_duration_ns"].count > 0);
        // Every protocol event kind the snapshot run exercises shows up.
        for kind in [
            "state_send",
            "state_recv",
            "snapshot_start",
            "snapshot_end",
            "election_won",
            "decision_open",
            "decision_complete",
            "blocked",
            "resumed",
            "task_start",
            "task_end",
            "mem_alloc",
            "mem_free",
        ] {
            assert!(
                events.iter().any(|e| e.event.name() == kind),
                "missing event kind {kind}"
            );
        }
        // Observation must not perturb the simulation itself.
        let r2 = run(&t, &c).unwrap();
        assert_eq!(r2.factor_time, r.factor_time);
        assert_eq!(r2.state_msgs, r.state_msgs);
    }

    #[test]
    fn derived_threshold_is_positive_and_scales() {
        let tree = by_name("GUPTA3").unwrap().build_tree();
        let cfg = SolverConfig::new(8);
        let plan = mapping::plan(&tree, 8, MappingParams::from(&cfg));
        let one = derive_threshold(&tree, &plan, &cfg, 1.0);
        assert!(one.work > 0.0 && one.mem > 0.0);
        let four = derive_threshold(&tree, &plan, &cfg, 4.0);
        assert_eq!(four.work, (one.work * 4.0).max(1.0));
    }

    #[test]
    fn deterministic_runs() {
        let t = small_tree();
        let c = cfg(4, MechKind::Increments);
        let a = run(&t, &c).unwrap();
        let b = run(&t, &c).unwrap();
        assert_eq!(a.factor_time, b.factor_time);
        assert_eq!(a.state_msgs, b.state_msgs);
        assert_eq!(a.mem_peak_entries(), b.mem_peak_entries());
    }

    #[test]
    fn decisions_match_static_plan() {
        let t = by_name("GUPTA3").unwrap().build_tree();
        let c = SolverConfig::new(8);
        let plan = mapping::plan(&t, 8, MappingParams::from(&c));
        let r = run(&t, &c).unwrap();
        assert_eq!(r.decisions as usize, plan.n_decisions);
    }
}
