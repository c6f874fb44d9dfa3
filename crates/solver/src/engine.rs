//! The asynchronous factorization engine: Algorithm 1 of the paper, per
//! process, on the discrete-event simulator.
//!
//! Every process runs the loop: *receive state-information messages first,
//! then application messages, else compute a ready task; parallel tasks
//! trigger a slave selection (dynamic decision)*. A process cannot compute
//! and treat messages simultaneously — incoming messages buffer while a task
//! runs and are drained at the next task boundary ([`CommMode::MainLoop`]).
//! The [`CommMode::CommThread`] variant reproduces §4.5: state messages are
//! serviced every `period` even during computation, and the computation is
//! paused while a snapshot is in flight.
//!
//! Application-level protocol (all on the regular channel):
//!
//! * `SlaveTask` — master → slave, a row block of a Type 2 front.
//! * `CbReady` — producer → owner of the parent: a contribution-block piece
//!   is ready. The piece itself stays on the producer's *stack* (multifrontal
//!   memory model) until the parent assembles; the bulk transfer cost is
//!   carried by the assembly-side payloads (`SlaveTask`, `RootPart`).
//! * `CbPlan` — Type 2 master → owner of the parent: how many pieces the
//!   child will deliver (needed to detect assembly completeness).
//! * `RootPart` — Type 3 master → everyone: a share of the 2D root.

use crate::config::{CommMode, SolverConfig};
use crate::mapping::{NodeType, TreePlan};
use crate::report::{Activity, ProcReport, RunReport, Timeline};
use crate::sched;
use crate::work::{self, Task, TaskKind};
use loadex_core::{
    AnyMechanism, ChangeOrigin, Dest, Gate, Load, LoadTable, MechKind, Mechanism, Notify, OutMsg,
    Outbox, StateMsg,
};
use loadex_net::{Channel, SimNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe};
use loadex_sim::{
    ActorId, Scheduler, SimDuration, SimTime, StatSet, TimeWeightedGauge, Welford, World,
};
use loadex_sparse::AssemblyTree;
use std::collections::VecDeque;

/// Application (regular channel) messages.
#[derive(Clone, Debug)]
pub enum AppMsg {
    /// A row block of Type 2 front `node`.
    SlaveTask {
        /// The Type 2 node.
        node: u32,
        /// Rows assigned.
        rows: u32,
    },
    /// A contribution-block piece produced by `node` is ready on the
    /// sender's stack; sent to the owner of `node`'s parent.
    CbReady {
        /// Producing (child) node.
        node: u32,
    },
    /// How many `CbReady`s the Type 2 child `node` will deliver.
    CbPlan {
        /// The child node.
        node: u32,
        /// Expected piece count.
        pieces: u32,
    },
    /// A share of the Type 3 root `node`.
    RootPart {
        /// The root node.
        node: u32,
    },
}

/// Simulator events.
#[derive(Clone, Debug)]
pub enum Ev {
    /// Initial activation of a process.
    Kick,
    /// A state-channel message arrived.
    State(ActorId, StateMsg),
    /// A regular-channel message arrived.
    App(ActorId, AppMsg),
    /// The current compute task finished (`gen` guards staleness).
    TaskDone(u64),
    /// Communication-thread poll tick (threaded mode).
    Poll,
    /// Coherence-probe tick (instrumentation; see
    /// [`SolverConfig::coherence_probe`]).
    Probe,
    /// Dissemination timer of the periodic/gossip extension mechanisms.
    MechTimer,
}

#[derive(Clone, Copy, Debug)]
enum PState {
    Idle,
    Computing {
        end: SimTime,
        task: Task,
    },
    /// Threaded mode: compute suspended by a snapshot.
    Paused {
        task: Task,
        remaining: SimDuration,
    },
    /// Blocked in the snapshot receive loop.
    WaitSnapshot,
}

struct ProcRt {
    mech: AnyMechanism,
    outbox: Outbox,
    state_mb: VecDeque<(ActorId, StateMsg)>,
    app_mb: VecDeque<(ActorId, AppMsg)>,
    ready: VecDeque<Task>,
    state: PState,
    gen: u64,
    pending_decisions: VecDeque<u32>,
    decision_inflight: Option<u32>,
    /// Candidates of the in-flight partial snapshot, if any.
    decision_candidates: Option<Vec<ActorId>>,
    true_mem: f64,
    mem_gauge: TimeWeightedGauge,
    busy: SimDuration,
    blocked_since: Option<SimTime>,
    blocked_total: SimDuration,
    overhead: SimDuration,
    masters_left: u32,
    poll_scheduled: bool,
    timeline: Timeline,
    /// When this process's in-flight snapshot started waiting (drives the
    /// `snapshot_duration_ns` histogram).
    snp_opened_at: Option<SimTime>,
}

#[derive(Clone, Copy, Debug, Default)]
struct NodeRun {
    /// Pieces the parent owner expects from this node (None until known).
    plan_pieces: Option<u32>,
    /// Pieces received at the parent owner.
    pieces_recv: u32,
    /// Whether this node's delivery has been counted toward the parent.
    counted_done: bool,
    /// Children whose deliveries are complete (tracked at the owner).
    children_done: u32,
    activated: bool,
    /// Task parts still running; node completes at 0.
    parts_left: u32,
}

/// The solver world: all processes + network + tree bookkeeping.
pub struct SolverWorld {
    cfg: SolverConfig,
    tree: AssemblyTree,
    plan: TreePlan,
    procs: Vec<ProcRt>,
    net: SimNetwork,
    nodes: Vec<NodeRun>,
    /// Per producing node: `(process, entries)` contribution pieces retained
    /// on that process's stack until the parent assembles.
    cb_pieces: Vec<Vec<(u32, f64)>>,
    nodes_remaining: u64,
    entry_factor: f64,
    app_msgs: u64,
    // Snapshot union accounting.
    snp_active: u32,
    snp_union_from: SimTime,
    snp_union: SimDuration,
    snp_max: u32,
    done_at: Option<SimTime>,
    finished_at: SimTime,
    // Coherence instrumentation.
    /// Committed workload per process: flops irrevocably assigned to it
    /// (including in-flight slave tasks it has not yet received). This is
    /// the ground truth a perfect scheduler would want; the increments
    /// mechanism's reservation broadcast tracks exactly this quantity.
    committed_work: Vec<f64>,
    coh_time_work: Welford,
    coh_time_mem: Welford,
    coh_dec_work: Welford,
    coh_dec_mem: Welford,
    /// View-accuracy probe (enabled by [`SolverConfig::accuracy`]): ground
    /// truth vs. believed views, staleness, decision regret. Pure
    /// bookkeeping — it schedules nothing and never changes a decision.
    probe: Option<ViewAccuracyProbe>,
    // Observability (see [`SolverWorld::set_recorder`]).
    recorder: Recorder,
    metrics: MetricsRegistry,
}

impl SolverWorld {
    /// Build the world. Use [`crate::run::run`] for the full
    /// pipeline (it also seeds initial events).
    pub fn new(tree: AssemblyTree, plan: TreePlan, cfg: SolverConfig) -> Self {
        let nprocs = cfg.nprocs;
        assert_eq!(plan.nprocs, nprocs);
        assert!(
            cfg.speed_factors.is_empty() || cfg.speed_factors.len() == nprocs,
            "speed_factors must be empty or have one entry per process"
        );
        assert!(
            cfg.speed_factors.iter().all(|&f| f > 0.0),
            "speed factors must be positive"
        );
        let entry_factor = work::entry_factor(tree.sym);
        let threshold = cfg
            .threshold
            .unwrap_or_else(|| crate::run::derive_threshold(&tree, &plan, &cfg, 1.0));
        let mut procs: Vec<ProcRt> = (0..nprocs)
            .map(|p| {
                let mech = work::build_mechanism(&cfg, &plan, threshold, p);
                ProcRt {
                    mech,
                    outbox: Outbox::new(),
                    state_mb: VecDeque::new(),
                    app_mb: VecDeque::new(),
                    ready: VecDeque::new(),
                    state: PState::Idle,
                    gen: 0,
                    pending_decisions: VecDeque::new(),
                    decision_inflight: None,
                    decision_candidates: None,
                    true_mem: 0.0,
                    mem_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
                    busy: SimDuration::ZERO,
                    blocked_since: None,
                    blocked_total: SimDuration::ZERO,
                    overhead: SimDuration::ZERO,
                    masters_left: plan.masters_per_proc[p],
                    poll_scheduled: false,
                    timeline: Vec::new(),
                    snp_opened_at: None,
                }
            })
            .collect();
        // The naive mechanism keeps initial peer loads at zero: it only
        // learns absolute values from Update messages, consistent with the
        // paper's Algorithm 2 where only the local load is initialised.
        // (Static subtree costs are known to everyone in MUMPS, so the
        // increment/snapshot views are seeded; naive broadcasts will refresh
        // quickly anyway.)
        let nodes = vec![NodeRun::default(); tree.len()];
        let nodes_remaining = plan
            .ntype
            .iter()
            .filter(|t| !matches!(t, NodeType::InSubtree))
            .count() as u64;
        // Type 1/subtree children always deliver exactly one piece.
        let cb_pieces = vec![Vec::new(); tree.len()];
        let mut world = SolverWorld {
            net: SimNetwork::new(nprocs, cfg.network),
            cfg,
            tree,
            plan,
            procs: Vec::new(),
            nodes,
            cb_pieces,
            nodes_remaining,
            entry_factor,
            app_msgs: 0,
            snp_active: 0,
            snp_union_from: SimTime::ZERO,
            snp_union: SimDuration::ZERO,
            snp_max: 0,
            done_at: None,
            finished_at: SimTime::ZERO,
            committed_work: Vec::new(),
            coh_time_work: Welford::default(),
            coh_time_mem: Welford::default(),
            coh_dec_work: Welford::default(),
            coh_dec_mem: Welford::default(),
            probe: None,
            recorder: Recorder::disabled(),
            metrics: MetricsRegistry::new(),
        };
        for i in 0..world.tree.len() {
            match world.plan.ntype[i] {
                NodeType::SubtreeRoot => {
                    world.nodes[i].plan_pieces = Some(1);
                    world.nodes[i].parts_left = 1;
                }
                NodeType::Type1 => {
                    world.nodes[i].plan_pieces = Some(1);
                    world.nodes[i].parts_left = 1;
                }
                NodeType::Type3 => {
                    world.nodes[i].plan_pieces = Some(0);
                    world.nodes[i].parts_left = world.plan.nprocs as u32;
                }
                // Type 2 plans are decided dynamically.
                _ => {}
            }
        }
        // Masters that will never take a decision announce NoMoreMaster at
        // kick time; handled in `kick`.
        world.procs = std::mem::take(&mut procs);
        world.committed_work = world.plan.init_work.clone();
        if world.cfg.accuracy {
            // Seed the probe with the initial ground truth and each
            // mechanism's (possibly pre-seeded) starting view.
            let mut probe = ViewAccuracyProbe::new(nprocs);
            for q in 0..nprocs {
                let l = world.true_load(q);
                probe.set_truth(SimTime::ZERO, q, l.work, l.mem);
            }
            for p in 0..nprocs {
                let view = world.procs[p].mech.view();
                for q in 0..nprocs {
                    if q != p {
                        let l = view.get(ActorId(q));
                        probe.set_belief(SimTime::ZERO, p, q, l.work, l.mem);
                    }
                }
            }
            world.probe = Some(probe);
        }
        world
    }

    /// Attach an event recorder. When it is enabled, every mechanism outbox
    /// starts staging [`ProtocolEvent`]s (stamped `(time, rank)` here as they
    /// are flushed), the engine emits its own decision/task/memory/blocking
    /// events, and the latency / snapshot-duration / view-staleness
    /// histograms are populated. A disabled recorder keeps all of this at a
    /// single boolean check per site.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let on = recorder.is_enabled();
        for proc in &mut self.procs {
            proc.outbox.set_observe(on);
        }
        self.recorder = recorder;
    }

    // ----- helpers -------------------------------------------------------

    /// Whether observability sinks are live.
    #[inline]
    fn obs(&self) -> bool {
        self.recorder.is_enabled()
    }

    fn ef(&self) -> f64 {
        self.entry_factor
    }

    fn task(&self, kind: TaskKind, node: u32, flops: f64) -> Task {
        Task::new(kind, node, flops)
    }

    /// Flops per compute chunk (`f64::INFINITY` when chunking is disabled).
    fn chunk_flops(&self) -> f64 {
        work::chunk_flops(&self.cfg)
    }

    /// Compute speed of process `p` (heterogeneous platforms scale the base
    /// speed per process).
    fn speed_of(&self, p: usize) -> f64 {
        work::speed_of(&self.cfg, p)
    }

    fn node_m(&self, node: u32) -> f64 {
        self.tree.nodes[node as usize].nfront as f64
    }

    fn node_p(&self, node: u32) -> f64 {
        self.tree.nodes[node as usize].npiv as f64
    }

    fn node_ncb(&self, node: u32) -> u32 {
        self.tree.nodes[node as usize].ncb()
    }

    /// Master share of a Type 2 node's flops: the pivot-panel factorization.
    fn master_flops(&self, node: u32) -> f64 {
        work::master_flops(&self.tree, node)
    }

    fn slave_flops_per_row(&self, node: u32) -> f64 {
        work::slave_flops_per_row(&self.tree, node)
    }

    fn set_mem(&mut self, p: usize, now: SimTime, delta: f64) {
        let proc = &mut self.procs[p];
        proc.true_mem = (proc.true_mem + delta).max(0.0);
        let v = proc.true_mem;
        proc.mem_gauge.set(now, v);
        self.recorder.emit_with(now, ActorId(p), || {
            if delta >= 0.0 {
                ProtocolEvent::MemAlloc { entries: delta }
            } else {
                ProtocolEvent::MemFree { entries: -delta }
            }
        });
        self.touch_truth(p, now);
    }

    /// Re-read the ground truth of `q` into the accuracy probe (no-op when
    /// the probe is off). Call after every `committed_work`/`true_mem`
    /// mutation.
    fn touch_truth(&mut self, q: usize, now: SimTime) {
        if self.probe.is_none() {
            return;
        }
        let l = self.true_load(q);
        if let Some(probe) = self.probe.as_mut() {
            probe.set_truth(now, q, l.work, l.mem);
        }
    }

    /// Ground-truth memory of each process (for coherence checks in tests).
    pub fn true_mems(&self) -> Vec<f64> {
        self.procs.iter().map(|p| p.true_mem).collect()
    }

    /// Ground-truth load of process `q`: committed workload (including
    /// in-flight assignments) and its exact current memory.
    fn true_load(&self, q: usize) -> Load {
        Load::new(self.committed_work[q], self.procs[q].true_mem)
    }

    /// Sample the error of `p`'s view against the truth into the given
    /// accumulators.
    fn sample_view_error(&self, p: usize, work: &mut Welford, mem: &mut Welford) {
        for q in 0..self.cfg.nprocs {
            if q == p {
                continue;
            }
            let truth = self.true_load(q);
            let seen = self.procs[p].mech.view().get(ActorId(q));
            work.push((seen.work - truth.work).abs());
            mem.push((seen.mem - truth.mem).abs());
        }
    }

    fn on_probe(&mut self, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let Some(period) = self.cfg.coherence_probe else {
            return;
        };
        let mut work = std::mem::take(&mut self.coh_time_work);
        let mut mem = std::mem::take(&mut self.coh_time_mem);
        for p in 0..self.cfg.nprocs {
            self.sample_view_error(p, &mut work, &mut mem);
        }
        self.coh_time_work = work;
        self.coh_time_mem = mem;
        if let Some(probe) = self.probe.as_mut() {
            probe.sample(now);
        }
        if self.done_at.is_none() {
            sched.schedule_at(now + period, ActorId(0), Ev::Probe);
        }
    }

    fn local_change(
        &mut self,
        p: usize,
        now: SimTime,
        delta: Load,
        origin: ChangeOrigin,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let proc = &mut self.procs[p];
        proc.mech.on_local_change(delta, origin, &mut proc.outbox);
        self.flush_outbox(p, now, sched);
    }

    fn flush_outbox(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let obs = self.obs();
        if obs {
            // Stamp the mechanism's staged protocol events with (time, rank).
            let events: Vec<ProtocolEvent> = self.procs[p].outbox.drain_events().collect();
            for ev in events {
                self.recorder.emit(now, ActorId(p), ev);
            }
        }
        // Every staged message, whatever its destination, is routed as a
        // multicast and lands on the calendar as one fan-out entry per
        // arrival time.
        let from = ActorId(p);
        let staged: Vec<OutMsg> = self.procs[p].outbox.drain().collect();
        for OutMsg { dest, msg } in staged {
            let all_others: Vec<ActorId>;
            let dests: &[ActorId] = match &dest {
                Dest::One(to) => std::slice::from_ref(to),
                Dest::Many(dests) => dests,
                Dest::AllOthers => {
                    all_others = (0..self.cfg.nprocs)
                        .filter(|&q| q != p)
                        .map(ActorId)
                        .collect();
                    &all_others
                }
            };
            let metrics = &mut self.metrics;
            let size = msg.wire_size();
            self.net
                .multicast(now, from, dests, Channel::State, size, |at, group| {
                    if obs {
                        let latency = at.since(now).as_nanos() as f64;
                        for _ in group {
                            metrics.observe("state_msg_latency_ns", latency);
                        }
                    }
                    sched.schedule_fanout_at(at, group, Ev::State(from, msg.clone()));
                });
        }
    }

    fn send_app(
        &mut self,
        now: SimTime,
        from: usize,
        to: u32,
        msg: AppMsg,
        bytes: u64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.app_msgs += 1;
        if to as usize == from {
            // Local handoff: process at the same instant through the mailbox
            // (no network, no overhead — the data never moved).
            sched.schedule_at(now, ActorId(from), Ev::App(ActorId(from), msg));
            return;
        }
        let d = self.net.send(
            now,
            ActorId(from),
            ActorId(to as usize),
            Channel::Regular,
            bytes,
            msg,
        );
        sched.schedule_at(
            d.at,
            ActorId(to as usize),
            Ev::App(ActorId(from), d.envelope.msg),
        );
    }

    fn threaded(&self) -> Option<SimDuration> {
        match self.cfg.comm {
            CommMode::MainLoop => None,
            CommMode::CommThread { period } => Some(period),
        }
    }

    // ----- snapshot accounting -------------------------------------------

    fn snp_begin(&mut self, now: SimTime) {
        if self.snp_active == 0 {
            self.snp_union_from = now;
        }
        self.snp_active += 1;
        self.snp_max = self.snp_max.max(self.snp_active);
    }

    fn snp_end(&mut self, now: SimTime) {
        debug_assert!(self.snp_active > 0);
        self.snp_active -= 1;
        if self.snp_active == 0 {
            self.snp_union += now.since(self.snp_union_from);
        }
    }

    // ----- blocked-time accounting ---------------------------------------

    fn note_activity(&mut self, p: usize, now: SimTime, act: Activity) {
        if !self.cfg.record_timeline {
            return;
        }
        let tl = &mut self.procs[p].timeline;
        if tl.last().map(|&(_, a)| a) == Some(act) {
            return;
        }
        // Collapse same-instant transitions to the latest.
        if tl.last().map(|&(t, _)| t) == Some(now) {
            tl.pop();
            if tl.last().map(|&(_, a)| a) == Some(act) {
                return;
            }
        }
        tl.push((now, act));
    }

    fn note_block_state(&mut self, p: usize, now: SimTime) {
        let blocked = matches!(
            self.procs[p].state,
            PState::WaitSnapshot | PState::Paused { .. }
        );
        {
            let proc = &mut self.procs[p];
            match (blocked, proc.blocked_since) {
                (true, None) => {
                    proc.blocked_since = Some(now);
                    self.recorder
                        .emit_with(now, ActorId(p), || ProtocolEvent::Blocked);
                }
                (false, Some(t0)) => {
                    proc.blocked_total += now.since(t0);
                    proc.blocked_since = None;
                    self.recorder
                        .emit_with(now, ActorId(p), || ProtocolEvent::Resumed);
                }
                _ => {}
            }
        }
        if blocked {
            self.note_activity(p, now, Activity::Blocked);
        } else if matches!(self.procs[p].state, PState::Idle) {
            self.note_activity(p, now, Activity::Idle);
        }
    }

    // ----- state-message processing --------------------------------------

    fn process_state_msg(
        &mut self,
        p: usize,
        now: SimTime,
        from: ActorId,
        msg: StateMsg,
        charge: bool,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        // Which peers does this message carry load information about? Must be
        // computed before the mechanism consumes the message.
        let subjects = if self.probe.is_some() {
            msg.subjects(from, ActorId(p))
        } else {
            Vec::new()
        };
        let notifies = {
            let proc = &mut self.procs[p];
            proc.mech.on_state_msg(from, msg, &mut proc.outbox)
        };
        if charge {
            self.procs[p].overhead += self.cfg.state_msg_cost;
        }
        if let Some(probe) = self.probe.as_mut() {
            let view = self.procs[p].mech.view();
            for q in subjects {
                if q.index() != p {
                    let l = view.get(q);
                    probe.set_belief(now, p, q.index(), l.work, l.mem);
                }
            }
        }
        self.flush_outbox(p, now, sched);
        self.handle_notifies(p, now, notifies, sched);
    }

    fn handle_notifies(
        &mut self,
        p: usize,
        now: SimTime,
        notifies: Vec<Notify>,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        for n in notifies {
            match n {
                Notify::DecisionReady => {
                    if let Some(node) = self.procs[p].decision_inflight.take() {
                        self.do_selection(p, now, node, sched);
                    }
                }
                Notify::Blocked | Notify::Resumed => {
                    // Reconciled below from mech.blocked().
                }
            }
        }
        self.reconcile_block(p, now, sched);
    }

    /// Align the process state with the mechanism's blocked flag: pause /
    /// resume the computation (threaded mode), enter / leave the snapshot
    /// receive loop.
    fn reconcile_block(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let blocked = self.procs[p].mech.blocked();
        let state = self.procs[p].state;
        match (blocked, state) {
            // Only the threaded variant can interrupt a computation.
            (true, PState::Computing { end, task }) if self.threaded().is_some() => {
                let remaining = end.since(now);
                self.procs[p].gen += 1; // invalidate pending TaskDone
                self.procs[p].state = PState::Paused { task, remaining };
                self.note_block_state(p, now);
            }
            (true, PState::Idle) => {
                self.procs[p].state = PState::WaitSnapshot;
                self.note_block_state(p, now);
            }
            (false, PState::Paused { task, remaining }) => {
                let end = now + remaining;
                self.procs[p].gen += 1;
                let gen = self.procs[p].gen;
                self.procs[p].state = PState::Computing { end, task };
                self.note_block_state(p, now);
                sched.schedule_at(end, ActorId(p), Ev::TaskDone(gen));
            }
            (false, PState::WaitSnapshot) => {
                self.procs[p].state = PState::Idle;
                self.note_block_state(p, now);
                self.progress(p, now, sched);
            }
            _ => {}
        }
    }

    // ----- decisions ------------------------------------------------------

    fn try_start_decision(
        &mut self,
        p: usize,
        now: SimTime,
        sched: &mut Scheduler<'_, Ev>,
    ) -> bool {
        if self.procs[p].decision_inflight.is_some() || self.procs[p].mech.blocked() {
            return false;
        }
        let Some(node) = self.procs[p].pending_decisions.pop_front() else {
            return false;
        };
        self.recorder
            .emit_with(now, ActorId(p), || ProtocolEvent::DecisionOpen {
                node: node as u64,
            });
        // §5 extension: partial snapshots query only the k least-loaded
        // candidates (by the master's current view and strategy metric).
        let candidates: Option<Vec<ActorId>> =
            match (self.cfg.snapshot_candidates, &self.procs[p].mech) {
                (Some(k), AnyMechanism::Snapshot(_)) if k < self.cfg.nprocs - 1 => {
                    let view = self.procs[p].mech.view();
                    let mut others: Vec<(ActorId, f64)> = view
                        .others()
                        .map(|(q, l)| {
                            let metric = match self.cfg.strategy {
                                crate::config::Strategy::MemoryBased => l.mem,
                                crate::config::Strategy::WorkloadBased => l.work,
                            };
                            (q, metric)
                        })
                        .collect();
                    others.sort_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .unwrap()
                            .then(a.0.index().cmp(&b.0.index()))
                    });
                    Some(others.into_iter().take(k.max(1)).map(|(q, _)| q).collect())
                }
                _ => None,
            };
        let gate = {
            let proc = &mut self.procs[p];
            match (&candidates, &mut proc.mech) {
                (Some(c), AnyMechanism::Snapshot(m)) => {
                    m.request_decision_among(c, &mut proc.outbox)
                }
                _ => proc.mech.request_decision(&mut proc.outbox),
            }
        };
        self.procs[p].decision_candidates = candidates;
        self.flush_outbox(p, now, sched);
        match gate {
            Gate::Ready => {
                self.do_selection(p, now, node, sched);
            }
            Gate::Wait => {
                self.procs[p].decision_inflight = Some(node);
                self.procs[p].snp_opened_at = Some(now);
                self.snp_begin(now);
                self.reconcile_block(p, now, sched);
            }
        }
        true
    }

    fn do_selection(&mut self, p: usize, now: SimTime, node: u32, sched: &mut Scheduler<'_, Ev>) {
        let was_snapshot = matches!(self.cfg.mechanism, MechKind::Snapshot);
        // Instrumentation: how wrong is the master's view at the instant it
        // schedules? This is the error the paper's mechanisms exist to bound.
        let mut dw = std::mem::take(&mut self.coh_dec_work);
        let mut dm = std::mem::take(&mut self.coh_dec_mem);
        self.sample_view_error(p, &mut dw, &mut dm);
        self.coh_dec_work = dw;
        self.coh_dec_mem = dm;
        if self.obs() {
            // Same samples, but into log-scale histograms: the distribution
            // tail matters more than the mean for scheduling quality.
            for q in 0..self.cfg.nprocs {
                if q == p {
                    continue;
                }
                let truth = self.true_load(q);
                let seen = self.procs[p].mech.view().get(ActorId(q));
                self.metrics.observe(
                    "view_staleness_decision_work",
                    (seen.work - truth.work).abs(),
                );
                self.metrics
                    .observe("view_staleness_decision_mem", (seen.mem - truth.mem).abs());
            }
        }

        let m = self.node_m(node);
        let ncb = self.node_ncb(node);
        let ef = self.ef();
        let mem_per_row = m * ef;
        let work_per_row = self.slave_flops_per_row(node);
        let allowed = self.procs[p].decision_candidates.take();
        let shares = {
            let view = self.procs[p].mech.view();
            sched::select_slaves_among(
                &self.cfg,
                view,
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            )
        };
        // Decision regret: replay the same selection against the ground
        // truth (before this decision commits) and record whether staleness
        // changed the outcome.
        if self.probe.is_some() {
            let mut truth_view = LoadTable::new(ActorId(p), self.cfg.nprocs);
            for q in 0..self.cfg.nprocs {
                truth_view.set(ActorId(q), self.true_load(q));
            }
            let r = sched::selection_regret(
                &self.cfg,
                &truth_view,
                &shares,
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            );
            if let Some(probe) = self.probe.as_mut() {
                probe.record_decision(r.mismatch, r.gap);
            }
        }
        let assignments: Vec<(ActorId, Load)> = shares
            .iter()
            .map(|s| {
                (
                    s.slave,
                    Load::new(work_per_row * s.rows as f64, mem_per_row * s.rows as f64),
                )
            })
            .collect();
        for s in &shares {
            self.committed_work[s.slave.index()] += work_per_row * s.rows as f64;
        }
        for s in &shares {
            self.touch_truth(s.slave.index(), now);
        }
        let notifies = {
            let proc = &mut self.procs[p];
            proc.mech.complete_decision(&assignments, &mut proc.outbox)
        };
        if let Some(probe) = self.probe.as_mut() {
            // The master just applied its own assignments to its view: its
            // beliefs about the selected slaves are refreshed.
            let view = self.procs[p].mech.view();
            for s in &shares {
                let l = view.get(s.slave);
                probe.set_belief(now, p, s.slave.index(), l.work, l.mem);
            }
        }
        self.recorder
            .emit_with(now, ActorId(p), || ProtocolEvent::DecisionComplete {
                node: node as u64,
                slaves: shares.len() as u32,
            });
        self.flush_outbox(p, now, sched);
        if was_snapshot {
            self.snp_end(now);
        }
        if let Some(t0) = self.procs[p].snp_opened_at.take() {
            if self.obs() {
                self.metrics
                    .observe("snapshot_duration_ns", now.since(t0).as_nanos() as f64);
            }
        }

        let parent_owner = self.tree.nodes[node as usize]
            .parent
            .map(|par| self.plan.owner[par as usize]);

        // Assembly: the children's stacked CB pieces are consumed now.
        self.assemble_children(now, node, sched);
        if shares.is_empty() {
            // Degenerate: the master factors the whole front itself.
            let alloc = self.tree.front_entries(node as usize);
            self.nodes[node as usize].parts_left = 1;
            self.set_mem(p, now, alloc);
            let flops = self.tree.flops(node as usize);
            self.committed_work[p] += flops;
            self.touch_truth(p, now);
            self.local_change(p, now, Load::new(flops, alloc), ChangeOrigin::Local, sched);
            if parent_owner.is_some() {
                self.announce_plan(p, now, node, 1, sched);
            }
            let t = self.task(TaskKind::Type2Whole, node, flops);
            self.procs[p].ready.push_back(t);
        } else {
            // Master side: allocate the pivot block.
            let pm = self.node_p(node) * m * ef;
            self.nodes[node as usize].parts_left = shares.len() as u32 + 1;
            self.set_mem(p, now, pm);
            let mflops = self.master_flops(node);
            self.committed_work[p] += mflops;
            self.touch_truth(p, now);
            self.local_change(p, now, Load::new(mflops, pm), ChangeOrigin::Local, sched);
            if parent_owner.is_some() {
                self.announce_plan(p, now, node, shares.len() as u32, sched);
            }
            for s in &shares {
                let bytes = (s.rows as f64 * m * ef * 8.0) as u64;
                self.send_app(
                    now,
                    p,
                    s.slave.index() as u32,
                    AppMsg::SlaveTask { node, rows: s.rows },
                    bytes,
                    sched,
                );
            }
            let t = self.task(TaskKind::Type2Master, node, mflops);
            self.procs[p].ready.push_back(t);
        }
        // NoMoreMaster once the last statically known decision is done.
        self.procs[p].masters_left = self.procs[p].masters_left.saturating_sub(1);
        if self.procs[p].masters_left == 0 && self.cfg.no_more_master {
            let proc = &mut self.procs[p];
            proc.mech.no_more_master(&mut proc.outbox);
            self.flush_outbox(p, now, sched);
        }
        self.handle_notifies(p, now, notifies, sched);
    }

    fn announce_plan(
        &mut self,
        p: usize,
        now: SimTime,
        node: u32,
        pieces: u32,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let parent = self.tree.nodes[node as usize]
            .parent
            .expect("caller checked");
        let owner = self.plan.owner[parent as usize];
        self.send_app(now, p, owner, AppMsg::CbPlan { node, pieces }, 24, sched);
    }

    // ----- application messages ------------------------------------------

    fn handle_app(
        &mut self,
        p: usize,
        now: SimTime,
        _from: ActorId,
        msg: AppMsg,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.procs[p].overhead += self.cfg.app_msg_cost;
        match msg {
            AppMsg::SlaveTask { node, rows } => {
                let m = self.node_m(node);
                let alloc = rows as f64 * m * self.ef();
                let flops = self.slave_flops_per_row(node) * rows as f64;
                self.set_mem(p, now, alloc);
                self.local_change(
                    p,
                    now,
                    Load::new(flops, alloc),
                    ChangeOrigin::SlaveTask,
                    sched,
                );
                let t = self.task(TaskKind::Type2Slave { rows }, node, flops);
                self.procs[p].ready.push_back(t);
            }
            AppMsg::CbReady { node } => {
                self.nodes[node as usize].pieces_recv += 1;
                self.check_child_delivery(p, now, node, sched);
            }
            AppMsg::CbPlan { node, pieces } => {
                self.nodes[node as usize].plan_pieces = Some(pieces);
                self.check_child_delivery(p, now, node, sched);
            }
            AppMsg::RootPart { node } => {
                let share_mem = self.tree.front_entries(node as usize) / self.cfg.nprocs as f64;
                let share_flops = self.tree.flops(node as usize) / self.cfg.nprocs as f64;
                self.set_mem(p, now, share_mem);
                self.committed_work[p] += share_flops;
                self.touch_truth(p, now);
                self.local_change(
                    p,
                    now,
                    Load::new(share_flops, share_mem),
                    ChangeOrigin::Local,
                    sched,
                );
                let t = self.task(TaskKind::RootPart, node, share_flops);
                self.procs[p].ready.push_back(t);
            }
        }
    }

    /// At the owner of `child`'s parent: did `child` finish delivering?
    fn check_child_delivery(
        &mut self,
        p: usize,
        now: SimTime,
        child: u32,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let st = &self.nodes[child as usize];
        let Some(plan) = st.plan_pieces else { return };
        if st.counted_done || st.pieces_recv < plan {
            return;
        }
        self.nodes[child as usize].counted_done = true;
        let parent = self.tree.nodes[child as usize]
            .parent
            .expect("delivery to a root");
        self.nodes[parent as usize].children_done += 1;
        self.try_activate(p, now, parent, sched);
    }

    /// Activate upper node `v` at its owner once all children delivered.
    fn try_activate(&mut self, p: usize, now: SimTime, v: u32, sched: &mut Scheduler<'_, Ev>) {
        debug_assert_eq!(self.plan.owner[v as usize] as usize, p);
        let nchildren = self.tree.nodes[v as usize].children.len() as u32;
        if self.nodes[v as usize].activated || self.nodes[v as usize].children_done < nchildren {
            return;
        }
        self.nodes[v as usize].activated = true;
        match self.plan.ntype[v as usize] {
            NodeType::Type1 => {
                let flops = self.tree.flops(v as usize);
                // Workload is charged at activation (§4.2.2); memory at task
                // start (assembly).
                self.committed_work[p] += flops;
                self.touch_truth(p, now);
                self.local_change(p, now, Load::work(flops), ChangeOrigin::Local, sched);
                let t = self.task(TaskKind::Type1, v, flops);
                self.procs[p].ready.push_back(t);
            }
            NodeType::Type2 => {
                self.procs[p].pending_decisions.push_back(v);
            }
            NodeType::Type3 => {
                self.assemble_children(now, v, sched);
                let share_mem = self.tree.front_entries(v as usize) / self.cfg.nprocs as f64;
                let share_flops = self.tree.flops(v as usize) / self.cfg.nprocs as f64;
                let share_bytes = (share_mem * 8.0) as u64;
                for q in 0..self.cfg.nprocs {
                    if q != p {
                        self.send_app(
                            now,
                            p,
                            q as u32,
                            AppMsg::RootPart { node: v },
                            share_bytes,
                            sched,
                        );
                    }
                }
                self.set_mem(p, now, share_mem);
                self.committed_work[p] += share_flops;
                self.touch_truth(p, now);
                self.local_change(
                    p,
                    now,
                    Load::new(share_flops, share_mem),
                    ChangeOrigin::Local,
                    sched,
                );
                let t = self.task(TaskKind::RootPart, v, share_flops);
                self.procs[p].ready.push_back(t);
            }
            t => unreachable!("activation of {t:?}"),
        }
    }

    // ----- tasks ----------------------------------------------------------

    fn task_alloc_estimate(&self, task: &Task) -> f64 {
        if task.started {
            return 0.0;
        }
        match task.kind {
            TaskKind::Subtree => self.plan.subtree_task_peak[task.node as usize],
            TaskKind::Type1 => self.tree.front_entries(task.node as usize),
            _ => 0.0,
        }
    }

    fn start_task(&mut self, p: usize, now: SimTime, idx: usize, sched: &mut Scheduler<'_, Ev>) {
        let mut task = self.procs[p].ready.remove(idx).expect("task index");
        // Allocation on first entry for assembly-style tasks.
        if !task.started {
            task.started = true;
            match task.kind {
                TaskKind::Subtree => {
                    let peak = self.plan.subtree_task_peak[task.node as usize];
                    self.set_mem(p, now, peak);
                    self.local_change(p, now, Load::mem(peak), ChangeOrigin::Local, sched);
                }
                TaskKind::Type1 => {
                    self.assemble_children(now, task.node, sched);
                    let front = self.tree.front_entries(task.node as usize);
                    self.set_mem(p, now, front);
                    self.local_change(p, now, Load::mem(front), ChangeOrigin::Local, sched);
                }
                _ => {}
            }
        }
        // Compute one chunk; the remainder re-queues at the boundary.
        let seg = task.remaining.min(self.chunk_flops());
        let dur = SimDuration::from_secs_f64(seg / self.speed_of(p)) + self.procs[p].overhead;
        self.procs[p].overhead = SimDuration::ZERO;
        let end = now + dur;
        self.procs[p].gen += 1;
        let gen = self.procs[p].gen;
        self.procs[p].state = PState::Computing { end, task };
        self.procs[p].busy += dur;
        self.note_activity(p, now, Activity::Busy);
        self.recorder
            .emit_with(now, ActorId(p), || ProtocolEvent::TaskStart {
                node: task.node as u64,
                kind: task.kind.name(),
            });
        sched.schedule_at(end, ActorId(p), Ev::TaskDone(gen));
    }

    fn complete_task(&mut self, p: usize, now: SimTime, task: Task, sched: &mut Scheduler<'_, Ev>) {
        let ef = self.ef();
        let node = task.node;
        let parent = self.tree.nodes[node as usize].parent;
        match task.kind {
            TaskKind::Subtree => {
                // The subtree collapses to its root's CB, retained on the
                // local stack until the parent assembles.
                let peak = self.plan.subtree_task_peak[node as usize];
                let cb = self.retained_cb(p, node, self.tree.cb_entries(node as usize), sched);
                self.set_mem(p, now, cb - peak);
                self.local_change(p, now, Load::mem(cb - peak), ChangeOrigin::Local, sched);
                self.notify_cb_ready(p, now, node, sched);
            }
            TaskKind::Type1 => {
                let front = self.tree.front_entries(node as usize);
                let cb = self.retained_cb(p, node, self.tree.cb_entries(node as usize), sched);
                self.set_mem(p, now, cb - front);
                self.local_change(p, now, Load::mem(cb - front), ChangeOrigin::Local, sched);
                self.notify_cb_ready(p, now, node, sched);
            }
            TaskKind::Type2Master => {
                let pm = self.node_p(node) * self.node_m(node) * ef;
                self.set_mem(p, now, -pm);
                self.local_change(p, now, Load::mem(-pm), ChangeOrigin::Local, sched);
            }
            TaskKind::Type2Slave { rows } => {
                let alloc = rows as f64 * self.node_m(node) * ef;
                let piece = rows as f64 * self.node_ncb(node) as f64 * ef;
                let cb = self.retained_cb(p, node, piece, sched);
                self.set_mem(p, now, cb - alloc);
                self.local_change(
                    p,
                    now,
                    Load::mem(cb - alloc),
                    ChangeOrigin::SlaveTask,
                    sched,
                );
                self.notify_cb_ready(p, now, node, sched);
            }
            TaskKind::Type2Whole => {
                let front = self.tree.front_entries(node as usize);
                let cb = self.retained_cb(p, node, self.tree.cb_entries(node as usize), sched);
                self.set_mem(p, now, cb - front);
                self.local_change(p, now, Load::mem(cb - front), ChangeOrigin::Local, sched);
                self.notify_cb_ready(p, now, node, sched);
            }
            TaskKind::RootPart => {
                let share = self.tree.front_entries(node as usize) / self.cfg.nprocs as f64;
                self.set_mem(p, now, -share);
                self.local_change(p, now, Load::mem(-share), ChangeOrigin::Local, sched);
            }
        }
        let _ = parent;
        // Node-part accounting.
        let st = &mut self.nodes[node as usize];
        debug_assert!(st.parts_left > 0, "part underflow at node {node}");
        st.parts_left -= 1;
        if st.parts_left == 0 {
            self.nodes_remaining -= 1;
            if self.nodes_remaining == 0 {
                self.done_at = Some(now);
                sched.request_stop();
            }
        }
    }

    /// Record a CB piece on `p`'s stack (returns the retained entry count,
    /// zero for roots whose CB nobody consumes).
    fn retained_cb(
        &mut self,
        p: usize,
        node: u32,
        entries: f64,
        _sched: &mut Scheduler<'_, Ev>,
    ) -> f64 {
        if self.tree.nodes[node as usize].parent.is_none() || entries <= 0.0 {
            return 0.0;
        }
        self.cb_pieces[node as usize].push((p as u32, entries));
        entries
    }

    /// Tell the parent's owner a piece is ready (small control message).
    fn notify_cb_ready(
        &mut self,
        p: usize,
        now: SimTime,
        node: u32,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some(parent) = self.tree.nodes[node as usize].parent else {
            return; // a root: nothing to contribute
        };
        let owner = self.plan.owner[parent as usize];
        self.send_app(now, p, owner, AppMsg::CbReady { node }, 24, sched);
    }

    /// Assemble node `v`: every stacked CB piece of its children is consumed
    /// (freed on the producers; the data is folded into the new fronts and
    /// the `SlaveTask`/`RootPart` payloads).
    fn assemble_children(&mut self, now: SimTime, v: u32, sched: &mut Scheduler<'_, Ev>) {
        let children = self.tree.nodes[v as usize].children.clone();
        for c in children {
            let pieces = std::mem::take(&mut self.cb_pieces[c as usize]);
            for (q, entries) in pieces {
                self.set_mem(q as usize, now, -entries);
                self.local_change(
                    q as usize,
                    now,
                    Load::mem(-entries),
                    ChangeOrigin::Local,
                    sched,
                );
            }
        }
    }

    // ----- the Algorithm 1 loop ------------------------------------------

    fn progress(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let mainloop = self.threaded().is_none();
        loop {
            match self.procs[p].state {
                PState::Computing { .. } | PState::Paused { .. } => return,
                _ => {}
            }
            // (1) state messages first (Algorithm 1 line 2) — drained even
            // inside the snapshot receive loop, which *only* treats these.
            // In threaded mode the comm thread owns them instead.
            if mainloop {
                if let Some((from, msg)) = self.procs[p].state_mb.pop_front() {
                    self.process_state_msg(p, now, from, msg, true, sched);
                    continue;
                }
            }
            if self.procs[p].mech.blocked() {
                if !matches!(self.procs[p].state, PState::WaitSnapshot) {
                    self.procs[p].state = PState::WaitSnapshot;
                    self.note_block_state(p, now);
                }
                return;
            }
            if matches!(self.procs[p].state, PState::WaitSnapshot) {
                self.procs[p].state = PState::Idle;
                self.note_block_state(p, now);
            }
            // (2) pending dynamic decisions.
            if self.try_start_decision(p, now, sched) {
                continue;
            }
            // (3) other messages (line 4).
            if let Some((from, msg)) = self.procs[p].app_mb.pop_front() {
                self.handle_app(p, now, from, msg, sched);
                continue;
            }
            // (4) compute a ready task (line 7).
            let ready: Vec<sched::ReadyTask> = self.procs[p]
                .ready
                .iter()
                .map(|t| sched::ReadyTask {
                    alloc: self.task_alloc_estimate(t),
                })
                .collect();
            let pick = {
                let view = self.procs[p].mech.view();
                sched::pick_task(&self.cfg, view, &ready)
            };
            if let Some(i) = pick {
                self.start_task(p, now, i, sched);
                return;
            }
            self.procs[p].state = PState::Idle;
            return;
        }
    }

    // ----- event dispatch --------------------------------------------------

    fn kick(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        if p == 0 {
            if let Some(period) = self.cfg.coherence_probe {
                sched.schedule_at(now + period, ActorId(0), Ev::Probe);
            }
        }
        if let Some(period) = self.procs[p].mech.timer_period() {
            sched.schedule_at(now + period, ActorId(p), Ev::MechTimer);
        }
        // Enqueue this process's subtree tasks (ascending node order).
        for r in self.plan.subtrees_of(p as u32) {
            let flops = self.plan.subtree_task_flops[r as usize];
            let t = self.task(TaskKind::Subtree, r, flops);
            self.procs[p].ready.push_back(t);
        }
        // Childless upper nodes activate immediately.
        for v in self.plan.upper_nodes() {
            if self.plan.owner[v as usize] as usize == p
                && self.tree.nodes[v as usize].children.is_empty()
            {
                self.try_activate(p, now, v, sched);
            }
        }
        // Processes that will never be masters announce it right away (§2.3:
        // "this information may be known statically").
        if self.cfg.no_more_master && self.procs[p].masters_left == 0 {
            let proc = &mut self.procs[p];
            proc.mech.no_more_master(&mut proc.outbox);
            self.flush_outbox(p, now, sched);
        }
        self.progress(p, now, sched);
    }

    fn on_state_event(
        &mut self,
        p: usize,
        now: SimTime,
        from: ActorId,
        msg: StateMsg,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        if let Some(period) = self.threaded() {
            self.procs[p].state_mb.push_back((from, msg));
            if !self.procs[p].poll_scheduled {
                self.procs[p].poll_scheduled = true;
                let period_ns = period.as_nanos().max(1);
                let next = (now.as_nanos() / period_ns + 1) * period_ns;
                sched.schedule_at(SimTime(next), ActorId(p), Ev::Poll);
            }
            return;
        }
        match self.procs[p].state {
            PState::Computing { .. } => self.procs[p].state_mb.push_back((from, msg)),
            _ => {
                // Idle or in the snapshot receive loop: treat immediately.
                self.process_state_msg(p, now, from, msg, true, sched);
                self.progress(p, now, sched);
            }
        }
    }

    fn on_poll(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let period = self.threaded().expect("poll event outside threaded mode");
        // The comm thread must take the lock protecting MPI calls (§4.5); a
        // bulk send in flight from this process holds it.
        let lock_free = self.net.egress_free(ActorId(p));
        if lock_free > now {
            sched.schedule_at(lock_free, ActorId(p), Ev::Poll);
            return;
        }
        // One receive per poll iteration: the thread sleeps `period` between
        // channel checks, so a burst drains at one message per tick.
        if let Some((from, msg)) = self.procs[p].state_mb.pop_front() {
            self.process_state_msg(p, now, from, msg, false, sched);
        }
        if self.procs[p].state_mb.is_empty() {
            self.procs[p].poll_scheduled = false;
        } else {
            sched.schedule_at(now + period, ActorId(p), Ev::Poll);
        }
        self.reconcile_block(p, now, sched);
        if matches!(self.procs[p].state, PState::Idle) {
            self.progress(p, now, sched);
        }
    }

    /// Dissemination timer of the periodic/gossip mechanisms. Modeled as a
    /// lightweight helper thread: it fires even while the main thread
    /// computes (these mechanisms exist precisely to bound staleness).
    fn on_mech_timer(&mut self, p: usize, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let Some(period) = self.procs[p].mech.timer_period() else {
            return;
        };
        {
            let proc = &mut self.procs[p];
            proc.mech.on_timer(&mut proc.outbox);
        }
        self.flush_outbox(p, now, sched);
        if self.done_at.is_none() {
            sched.schedule_at(now + period, ActorId(p), Ev::MechTimer);
        }
    }

    fn on_task_done(&mut self, p: usize, now: SimTime, gen: u64, sched: &mut Scheduler<'_, Ev>) {
        if gen != self.procs[p].gen {
            return; // cancelled (paused) task
        }
        let PState::Computing { mut task, .. } = self.procs[p].state else {
            return;
        };
        self.procs[p].state = PState::Idle;
        self.note_activity(p, now, Activity::Idle);
        self.recorder
            .emit_with(now, ActorId(p), || ProtocolEvent::TaskEnd {
                node: task.node as u64,
            });
        // The chunk's work is done: the load drops by that amount ("when a
        // significant amount of work has just been processed", §2.1).
        let seg = task.remaining.min(self.chunk_flops());
        task.remaining -= seg;
        self.committed_work[p] -= seg;
        self.touch_truth(p, now);
        let origin = match task.kind {
            TaskKind::Type2Slave { .. } => ChangeOrigin::SlaveTask,
            _ => ChangeOrigin::Local,
        };
        self.local_change(p, now, Load::work(-seg), origin, sched);
        if task.remaining > 0.0 {
            // Boundary: messages get drained by progress(), then the task
            // resumes (front of the queue, zero extra allocation).
            self.procs[p].ready.push_front(task);
        } else {
            self.complete_task(p, now, task, sched);
        }
        self.progress(p, now, sched);
    }

    // ----- reporting --------------------------------------------------------

    /// Whether the factorization completed.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Human-readable dump of per-process and per-node state, for deadlock
    /// diagnostics.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "nodes_remaining={}", self.nodes_remaining);
        for (p, proc) in self.procs.iter().enumerate() {
            let _ = writeln!(
                s,
                "P{p}: state={:?} blocked={} ready={} state_mb={} app_mb={} pend_dec={:?} inflight={:?}",
                proc.state,
                proc.mech.blocked(),
                proc.ready.len(),
                proc.state_mb.len(),
                proc.app_mb.len(),
                proc.pending_decisions,
                proc.decision_inflight,
            );
            if let AnyMechanism::Snapshot(m) = &proc.mech {
                let _ = writeln!(
                    s,
                    "    snp: missing={} req={} leader_self={}",
                    m.missing_answers(),
                    m.my_request(),
                    m.is_leader(),
                );
            }
        }
        for (i, st) in self.nodes.iter().enumerate() {
            if matches!(self.plan.ntype[i], NodeType::InSubtree) {
                continue;
            }
            if st.parts_left > 0 || !st.activated {
                let _ = writeln!(
                    s,
                    "node {i}: type={:?} owner={} activated={} children_done={}/{} plan={:?} recv={} parts_left={}",
                    self.plan.ntype[i],
                    self.plan.owner[i],
                    st.activated,
                    st.children_done,
                    self.tree.nodes[i].children.len(),
                    st.plan_pieces,
                    st.pieces_recv,
                    st.parts_left,
                );
            }
        }
        s
    }

    /// Build the final report. Call after the simulation stops.
    pub fn report(&self) -> RunReport {
        let mut counters = StatSet::new();
        counters.add("net_state_msgs", self.net.sent_state());
        counters.add("net_regular_msgs", self.net.sent_regular());
        counters.add("net_state_bytes", self.net.bytes_state());
        counters.add("net_regular_bytes", self.net.bytes_regular());
        let procs: Vec<ProcReport> = self
            .procs
            .iter()
            .map(|p| ProcReport {
                mem_peak_entries: p.mem_gauge.peak(),
                mem_final_entries: p.true_mem,
                state_msgs_sent: p.mech.stats().msgs_sent,
                state_bytes_sent: p.mech.stats().bytes_sent,
                decisions: p.mech.stats().decisions,
                busy: p.busy,
                blocked: p.blocked_total,
            })
            .collect();
        let snapshots_started: u64 = self
            .procs
            .iter()
            .map(|p| p.mech.stats().snapshots_started)
            .sum();
        // One source of truth: the metrics snapshot carries everything the
        // report's scalar fields summarize — the per-mechanism totals
        // (MechStats), the network counters, and the run histograms.
        let mut metrics = self.metrics.snapshot();
        for (name, v) in counters.iter() {
            metrics.counters.insert(name.to_string(), v);
        }
        let mut fold = |name: &str, v: u64| {
            metrics.counters.insert(name.to_string(), v);
        };
        fold(
            "state_msgs_sent",
            procs.iter().map(|p| p.state_msgs_sent).sum(),
        );
        fold(
            "state_bytes_sent",
            procs.iter().map(|p| p.state_bytes_sent).sum(),
        );
        fold(
            "state_msgs_received",
            self.procs
                .iter()
                .map(|p| p.mech.stats().msgs_received)
                .sum(),
        );
        fold("decisions", procs.iter().map(|p| p.decisions).sum());
        fold("snapshots_started", snapshots_started);
        fold(
            "snapshot_rebroadcasts",
            self.procs
                .iter()
                .map(|p| p.mech.stats().snapshot_rebroadcasts)
                .sum(),
        );
        fold(
            "delayed_answers",
            self.procs
                .iter()
                .map(|p| p.mech.stats().delayed_answers)
                .sum(),
        );
        fold("app_msgs", self.app_msgs);
        fold("events_dropped", self.recorder.dropped());
        metrics.gauges.insert(
            "mem_peak_entries".to_string(),
            procs.iter().map(|p| p.mem_peak_entries).fold(0.0, f64::max),
        );
        metrics.gauges.insert(
            "factor_time_s".to_string(),
            self.done_at.unwrap_or(self.finished_at).as_secs_f64(),
        );
        metrics
            .gauges
            .insert("snapshot_union_s".to_string(), self.snp_union.as_secs_f64());
        metrics
            .gauges
            .insert("snapshot_max_concurrent".to_string(), self.snp_max as f64);
        RunReport {
            backend: "sim",
            metrics,
            timelines: self.procs.iter().map(|p| p.timeline.clone()).collect(),
            view_err_time_work: self.coh_time_work,
            view_err_time_mem: self.coh_time_mem,
            view_err_decision_work: self.coh_dec_work,
            view_err_decision_mem: self.coh_dec_mem,
            factor_time: self.done_at.unwrap_or(self.finished_at),
            decisions: procs.iter().map(|p| p.decisions).sum(),
            state_msgs: procs.iter().map(|p| p.state_msgs_sent).sum(),
            state_bytes: procs.iter().map(|p| p.state_bytes_sent).sum(),
            app_msgs: self.app_msgs,
            snapshot_union_time: self.snp_union,
            snapshot_max_concurrent: self.snp_max,
            snapshots_started,
            procs,
            counters,
            accuracy: self.probe.as_ref().map(|probe| {
                // Close the integrals at the horizon on a copy: report() can
                // be called repeatedly without double-counting.
                let mut probe = probe.clone();
                probe.finish(self.done_at.unwrap_or(self.finished_at));
                probe.report()
            }),
        }
    }
}

impl World for SolverWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, actor: ActorId, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let p = actor.index();
        match event {
            Ev::Kick => self.kick(p, now, sched),
            Ev::State(from, msg) => self.on_state_event(p, now, from, msg, sched),
            Ev::App(from, msg) => {
                self.procs[p].app_mb.push_back((from, msg));
                if matches!(self.procs[p].state, PState::Idle) {
                    self.progress(p, now, sched);
                }
            }
            Ev::TaskDone(gen) => self.on_task_done(p, now, gen, sched),
            Ev::Poll => self.on_poll(p, now, sched),
            Ev::Probe => self.on_probe(now, sched),
            Ev::MechTimer => self.on_mech_timer(p, now, sched),
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        self.finished_at = now;
        for p in 0..self.procs.len() {
            self.note_block_state(p, now);
            let v = self.procs[p].true_mem;
            self.procs[p].mem_gauge.set(now, v);
        }
        if self.snp_active > 0 {
            self.snp_union += now.since(self.snp_union_from);
            self.snp_active = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_sparse::models::by_name;

    fn mini_world(nprocs: usize) -> SolverWorld {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(nprocs);
        let plan = mapping::plan(
            &tree,
            nprocs,
            MappingParams {
                alpha: cfg.mapping_alpha,
                type2_min_front: cfg.type2_min_front,
                kmin_rows: cfg.kmin_rows,
                type3_min_front: cfg.type3_min_front,
                speed_factors: Vec::new(),
            },
        );
        SolverWorld::new(tree, plan, cfg)
    }

    #[test]
    fn master_flops_is_a_proper_fraction() {
        let w = mini_world(4);
        for (i, node) in w.tree.nodes.iter().enumerate() {
            if node.ncb() == 0 {
                continue;
            }
            let mf = w.master_flops(i as u32);
            let total = w.tree.flops(i);
            assert!(mf > 0.0 && mf < total, "node {i}: {mf} of {total}");
            // The pivot panel share shrinks as the CB grows relative to npiv.
        }
    }

    #[test]
    fn slave_flops_partition_the_node() {
        let w = mini_world(4);
        for (i, node) in w.tree.nodes.iter().enumerate() {
            if node.ncb() == 0 {
                continue;
            }
            let per_row = w.slave_flops_per_row(i as u32);
            let total = w.master_flops(i as u32) + per_row * node.ncb() as f64;
            let expect = w.tree.flops(i);
            assert!(
                (total - expect).abs() < 1e-6 * expect,
                "node {i}: {total} vs {expect}"
            );
        }
    }

    #[test]
    fn chunk_flops_respects_config() {
        let mut w = mini_world(2);
        w.cfg.task_chunk = SimDuration::from_millis(100);
        w.cfg.speed_flops = 1e9;
        assert_eq!(w.chunk_flops(), 1e8);
        w.cfg.task_chunk = SimDuration::ZERO;
        assert_eq!(w.chunk_flops(), f64::INFINITY);
    }

    #[test]
    fn snapshot_union_accounting() {
        let mut w = mini_world(2);
        w.snp_begin(SimTime(1_000));
        w.snp_begin(SimTime(2_000));
        assert_eq!(w.snp_max, 2);
        w.snp_end(SimTime(3_000));
        assert_eq!(
            w.snp_union,
            SimDuration::ZERO,
            "union closes at zero active"
        );
        w.snp_end(SimTime(5_000));
        assert_eq!(w.snp_union, SimDuration::from_nanos(4_000));
        // A second disjoint interval accumulates.
        w.snp_begin(SimTime(10_000));
        w.snp_end(SimTime(11_000));
        assert_eq!(w.snp_union, SimDuration::from_nanos(5_000));
    }

    #[test]
    fn note_activity_deduplicates() {
        let mut w = mini_world(2);
        w.cfg.record_timeline = true;
        w.note_activity(0, SimTime(1), Activity::Busy);
        w.note_activity(0, SimTime(2), Activity::Busy);
        w.note_activity(0, SimTime(2), Activity::Idle);
        w.note_activity(0, SimTime(2), Activity::Blocked);
        assert_eq!(
            w.procs[0].timeline,
            vec![
                (SimTime(1), Activity::Busy),
                (SimTime(2), Activity::Blocked)
            ],
            "same-instant transitions collapse, repeats dedup"
        );
    }

    #[test]
    fn true_load_matches_plan_at_start() {
        let w = mini_world(4);
        for p in 0..4 {
            assert_eq!(w.true_load(p).work, w.plan.init_work[p]);
            assert_eq!(w.true_load(p).mem, 0.0);
        }
    }
}
