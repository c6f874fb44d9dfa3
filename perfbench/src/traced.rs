//! The traced pass: `run_sim` rebuilt from outside the solver, with every
//! `SolverWorld::handle` call timed by event kind.
//!
//! It follows `loadex_solver::run` step by step — plan, threshold, world,
//! initial kicks, simulator loop, report — so that its `RunReport` must equal
//! the untraced run's. The caller checks that before trusting the split.

use loadex_core::Threshold;
use loadex_obs::Recorder;
use loadex_sim::{ActorId, Scheduler, SimConfig, SimTime, Simulator, StopReason, World};
use loadex_solver::engine::{Ev, SolverWorld};
use loadex_solver::mapping::{self, MappingParams, NodeType, TreePlan};
use loadex_solver::{RunReport, SolverConfig};
use loadex_sparse::{AssemblyTree, Symmetry};
use std::time::{Duration, Instant};

/// Event kinds in `Ev` declaration order; metric names use these.
pub const KINDS: [&str; 7] = [
    "kick",
    "state",
    "app",
    "task_done",
    "poll",
    "probe",
    "mech_timer",
];

fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Kick => 0,
        Ev::State(..) => 1,
        Ev::App(..) => 2,
        Ev::TaskDone(_) => 3,
        Ev::Poll => 4,
        Ev::Probe => 5,
        Ev::MechTimer => 6,
    }
}

/// Host time by layer, summed over every traced run of a pass.
#[derive(Clone, Debug, Default)]
pub struct Split {
    pub plan: Duration,
    pub world_new: Duration,
    pub report: Duration,
    /// Wall time of `Simulator::run`.
    pub loop_wall: Duration,
    /// `SolverWorld::handle` time per event kind.
    pub handle: [Duration; 7],
    /// Events delivered per kind.
    pub events: [u64; 7],
}

impl Split {
    /// Loop wall minus all handle time: calendar pop, dispatch and timing.
    pub fn loop_self(&self) -> Duration {
        self.loop_wall - self.handle.iter().sum::<Duration>()
    }
}

struct TimedWorld<'a> {
    inner: &'a mut SolverWorld,
    handle: [Duration; 7],
    events: [u64; 7],
}

impl World for TimedWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, actor: ActorId, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let k = kind(&event);
        let start = Instant::now();
        self.inner.handle(now, actor, event, sched);
        self.handle[k] += start.elapsed();
        self.events[k] += 1;
    }

    fn on_finish(&mut self, now: SimTime) {
        self.inner.on_finish(now);
    }
}

pub fn mapping_params(cfg: &SolverConfig) -> MappingParams {
    MappingParams {
        alpha: cfg.mapping_alpha,
        type2_min_front: cfg.type2_min_front,
        kmin_rows: cfg.kmin_rows,
        type3_min_front: cfg.type3_min_front,
        speed_factors: cfg.speed_factors.clone(),
    }
}

/// The broadcast threshold `Runtime` derives when the configuration leaves
/// it unset. `SolverWorld::new` alone would fall back to a different
/// formula (and send ~11% more messages on CONV3D64 at P=512), so the traced
/// pass must set it. Mirrors the crate-private `run::derive_threshold`.
pub fn derive_threshold(tree: &AssemblyTree, plan: &TreePlan, cfg: &SolverConfig) -> Threshold {
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
        return Threshold::new(
            (tree.total_flops() * 0.01).max(1.0),
            (tree.total_factor_entries() * 0.01).max(1.0),
        );
    }
    Threshold::new(
        (work / n as f64 * 0.25).max(1.0),
        (mem / n as f64 * 0.25).max(1.0),
    )
}

/// Run `cfg` on `tree` on the simulator, adding its host time to `split`.
pub fn run(
    tree: &AssemblyTree,
    cfg: &SolverConfig,
    recorder: Recorder,
    split: &mut Split,
) -> Result<RunReport, String> {
    cfg.validate().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let plan = mapping::plan(tree, cfg.nprocs, mapping_params(cfg));
    split.plan += start.elapsed();
    let mut cfg = cfg.clone();
    if cfg.threshold.is_none() {
        cfg.threshold = Some(derive_threshold(tree, &plan, &cfg));
    }
    let tree = tree.clone();
    let max_events = 2_000 * (tree.len() as u64 + 64) * (cfg.nprocs as u64 + 4);
    let nprocs = cfg.nprocs;

    let start = Instant::now();
    let mut world = SolverWorld::new(tree, plan, cfg);
    split.world_new += start.elapsed();
    world.set_recorder(recorder);

    let mut sim = Simulator::new(SimConfig {
        max_events,
        ..Default::default()
    });
    for p in 0..nprocs {
        sim.schedule_at(SimTime::ZERO, ActorId(p), Ev::Kick);
    }
    let mut timed = TimedWorld {
        inner: &mut world,
        handle: Default::default(),
        events: [0; 7],
    };
    let start = Instant::now();
    let reason = sim.run(&mut timed);
    split.loop_wall += start.elapsed();
    for k in 0..KINDS.len() {
        split.handle[k] += timed.handle[k];
        split.events[k] += timed.events[k];
    }
    match reason {
        StopReason::Requested => {}
        StopReason::Drained if world.is_done() => {}
        other => return Err(format!("traced run stopped early: {other:?}")),
    }

    let start = Instant::now();
    let report = world.report();
    split.report += start.elapsed();
    Ok(report)
}
