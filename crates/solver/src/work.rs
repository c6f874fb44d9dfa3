//! Workload model shared by the two execution backends.
//!
//! The discrete-event engine ([`crate::engine`]) and the real-thread backend
//! ([`crate::threaded`]) must agree exactly on what a task is and how many
//! flops each side of a Type 2 front costs — otherwise the sim-vs-threaded
//! comparison (§4.5) would measure modelling drift instead of mechanism
//! behaviour. This module is that single source of truth.

use crate::config::SolverConfig;
use crate::mapping::TreePlan;
use loadex_core::{
    AnyMechanism, GossipMechanism, IncrementMechanism, Load, MechKind, NaiveMechanism,
    SnapshotMechanism, Threshold,
};
use loadex_sim::{ActorId, SimDuration};
use loadex_sparse::{AssemblyTree, Symmetry};

/// What a local ready task is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TaskKind {
    /// A collapsed leaf subtree.
    Subtree,
    /// A sequential Type 1 front.
    Type1,
    /// The pivot-block part of a Type 2 front (master side).
    Type2Master,
    /// A row block of a Type 2 front (slave side); memory already allocated
    /// at message processing.
    Type2Slave { rows: u32 },
    /// Degenerate Type 2 with no slaves: the master factors the whole front.
    Type2Whole,
    /// A 1/P share of the Type 3 root.
    RootPart,
}

impl TaskKind {
    /// The `kind` task events record for this task.
    pub(crate) fn event_kind(self) -> loadex_obs::TaskKind {
        use loadex_obs::TaskKind as Ev;
        match self {
            TaskKind::Subtree => Ev::Subtree,
            TaskKind::Type1 => Ev::Type1,
            TaskKind::Type2Master => Ev::Type2Master,
            TaskKind::Type2Slave { .. } => Ev::Type2Slave,
            TaskKind::Type2Whole => Ev::Type2Whole,
            TaskKind::RootPart => Ev::RootPart,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Task {
    pub(crate) kind: TaskKind,
    pub(crate) node: u32,
    /// Flops still to be computed (tasks run in chunks; message boundaries
    /// occur between chunks).
    pub(crate) remaining: f64,
    /// Whether the start-of-task allocations already happened.
    pub(crate) started: bool,
}

impl Task {
    pub(crate) fn new(kind: TaskKind, node: u32, flops: f64) -> Self {
        Task {
            kind,
            node,
            remaining: flops,
            started: false,
        }
    }
}

/// Fraction of real entries per stored entry: symmetric matrices store half.
pub(crate) fn entry_factor(sym: Symmetry) -> f64 {
    match sym {
        Symmetry::Symmetric => 0.5,
        Symmetry::Unsymmetric => 1.0,
    }
}

/// Master share of a Type 2 node's flops: the pivot-panel factorization.
pub(crate) fn master_flops(tree: &AssemblyTree, node: u32) -> f64 {
    let n = &tree.nodes[node as usize];
    let m = n.nfront as f64;
    let p = n.npiv as f64;
    let c = m - p;
    let total_lu = 2.0 / 3.0 * (m * m * m - c * c * c);
    let master_lu = 2.0 / 3.0 * p * p * p + p * p * c;
    tree.flops(node as usize) * (master_lu / total_lu).clamp(0.0, 1.0)
}

/// Flops of one contribution row handed to a slave of a Type 2 node.
pub(crate) fn slave_flops_per_row(tree: &AssemblyTree, node: u32) -> f64 {
    let total = tree.flops(node as usize);
    let ncb = tree.nodes[node as usize].ncb().max(1) as f64;
    (total - master_flops(tree, node)).max(0.0) / ncb
}

/// Flops per compute chunk (`f64::INFINITY` when chunking is disabled).
pub(crate) fn chunk_flops(cfg: &SolverConfig) -> f64 {
    let c = cfg.task_chunk;
    if c == SimDuration::ZERO {
        f64::INFINITY
    } else {
        (cfg.speed_flops * c.as_secs_f64()).max(1.0)
    }
}

/// Compute speed of process `p` (heterogeneous platforms scale the base
/// speed per process).
pub(crate) fn speed_of(cfg: &SolverConfig, p: usize) -> f64 {
    match cfg.speed_factors.get(p) {
        Some(&f) => cfg.speed_flops * f,
        None => cfg.speed_flops,
    }
}

/// Build and seed process `p`'s mechanism the way both backends expect it:
/// local load initialised to the static subtree work, peer views seeded for
/// the maintained-view mechanisms. (The naive mechanism keeps peer loads at
/// zero: it only learns absolute values from Update messages, consistent
/// with the paper's Algorithm 2 where only the local load is initialised.)
pub(crate) fn build_mechanism(
    cfg: &SolverConfig,
    plan: &TreePlan,
    threshold: Threshold,
    p: usize,
) -> AnyMechanism {
    let nprocs = cfg.nprocs;
    let me = ActorId(p);
    match cfg.mechanism {
        MechKind::Naive => {
            let mut m = NaiveMechanism::new(me, nprocs, threshold);
            m.initialize(Load::work(plan.init_work[p]));
            AnyMechanism::Naive(m)
        }
        MechKind::Increments => {
            let mut m = IncrementMechanism::new(me, nprocs, threshold);
            m.initialize(Load::work(plan.init_work[p]));
            for q in 0..nprocs {
                if q != p {
                    m.initialize_peer(ActorId(q), Load::work(plan.init_work[q]));
                }
            }
            AnyMechanism::Increments(m)
        }
        MechKind::Snapshot => {
            let mut m = SnapshotMechanism::with_policy(me, nprocs, cfg.leader_policy);
            m.initialize(Load::work(plan.init_work[p]));
            for q in 0..nprocs {
                if q != p {
                    m.initialize_peer(ActorId(q), Load::work(plan.init_work[q]));
                }
            }
            AnyMechanism::Snapshot(m)
        }
        MechKind::Periodic => {
            let mut m = NaiveMechanism::heartbeat(me, nprocs, cfg.periodic_interval);
            m.initialize(Load::work(plan.init_work[p]));
            for q in 0..nprocs {
                if q != p {
                    m.initialize_peer(ActorId(q), Load::work(plan.init_work[q]));
                }
            }
            AnyMechanism::Naive(m)
        }
        MechKind::Gossip => {
            let mut m = GossipMechanism::new(me, nprocs, cfg.gossip_interval, cfg.gossip_fanout);
            m.initialize(Load::work(plan.init_work[p]));
            for q in 0..nprocs {
                if q != p {
                    m.initialize_peer(ActorId(q), Load::work(plan.init_work[q]));
                }
            }
            AnyMechanism::Gossip(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_core::Mechanism;
    use loadex_sparse::models::by_name;

    #[test]
    fn flops_partition_every_parallel_node() {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        for (i, node) in tree.nodes.iter().enumerate() {
            if node.ncb() == 0 {
                continue;
            }
            let mf = master_flops(&tree, i as u32);
            let total = tree.flops(i);
            assert!(mf > 0.0 && mf < total, "node {i}: {mf} of {total}");
            let sum = mf + slave_flops_per_row(&tree, i as u32) * node.ncb() as f64;
            assert!((sum - total).abs() < 1e-6 * total);
        }
    }

    #[test]
    fn mechanisms_seed_initial_work() {
        let tree = by_name("GUPTA3").unwrap().build_tree();
        let cfg = SolverConfig::new(4);
        let plan = mapping::plan(&tree, 4, MappingParams::from(&cfg));
        let thr = Threshold::new(1.0, 1.0);
        for kind in MechKind::ALL {
            let m = build_mechanism(&cfg.clone().with_mechanism(kind), &plan, thr, 1);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.view().get(ActorId(1)).work, plan.init_work[1]);
        }
    }
}
