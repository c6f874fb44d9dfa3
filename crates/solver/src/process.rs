//! Algorithm 1 of the paper, per process, written once for both execution
//! backends.
//!
//! Every process runs the loop: *receive state-information messages first,
//! then application messages, else compute a ready task; a Type 2
//! activation opens a slave selection (dynamic decision)*. This module holds
//! the procedures of that loop over a per-process [`Proc`]: decision start
//! and slave selection, application messages, node activation, task start
//! and completion, and the contribution-block (CB) bookkeeping. The loop
//! itself, and everything tied to how time passes and messages travel,
//! stays in the backends: [`crate::engine`] drives the procedures from
//! discrete events, [`crate::threaded`] from one OS thread per process.
//!
//! A backend implements [`Host`], which carries only what differs between
//! the two: the clock, access to the mechanism (and the flush of its
//! outbox), application sends, the ground-truth hooks of the accuracy probe,
//! node-part completion, where CB pieces are retained and freed, and the
//! snapshot-union accounting. The procedures are generic over the host
//! (static dispatch): the hot paths — a `local_change` per finished chunk,
//! an outbox flush per state message — cost no allocation and no virtual
//! call.

use crate::config::{SolverConfig, Strategy};
use crate::engine::AppMsg;
use crate::mapping::{NodeType, TreePlan};
use crate::report::ProcOutcome;
use crate::sched;
use crate::work::{self, Task, TaskKind};
use loadex_core::{
    AnyMechanism, ChangeOrigin, Gate, Load, LoadTable, MechKind, MechStats, Mechanism, Notify,
    Outbox, StateMsg,
};
use loadex_obs::{event, ProtocolEvent, Recorder, ViewAccuracyProbe};
use loadex_sim::{ActorId, SimDuration, SimTime};
use loadex_sparse::AssemblyTree;
use std::collections::VecDeque;

/// Time to treat one state message in the main loop (single-threaded
/// receive overhead; a comm thread services them concurrently at no charge).
const STATE_MSG_COST: SimDuration = SimDuration::from_micros(2);
/// Time to treat one application message (unpack, assemble).
const APP_MSG_COST: SimDuration = SimDuration::from_micros(5);

/// The static inputs of a run, shared by every process.
#[derive(Clone, Copy)]
pub(crate) struct Cx<'a> {
    pub(crate) cfg: &'a SolverConfig,
    pub(crate) tree: &'a AssemblyTree,
    pub(crate) plan: &'a TreePlan,
}

impl Cx<'_> {
    fn ef(&self) -> f64 {
        work::entry_factor(self.tree.sym)
    }
}

/// Delivery and activation bookkeeping of one tree node. Delivery fields are
/// touched at the owner of the node's parent, activation fields at the
/// node's own owner. The host keeps the table and lends it to the core.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeState {
    /// Pieces the parent owner expects from this node (None until known).
    pub(crate) plan_pieces: Option<u32>,
    /// Pieces received at the parent owner.
    pub(crate) pieces_recv: u32,
    /// Whether this node's delivery has been counted toward the parent.
    pub(crate) counted_done: bool,
    /// Children whose deliveries are complete (tracked at the owner).
    pub(crate) children_done: u32,
    pub(crate) activated: bool,
}

/// The node table at the start of a run: Type 1 and subtree roots deliver
/// exactly one piece, Type 3 roots none; Type 2 plans are decided
/// dynamically.
pub(crate) fn node_table(plan: &TreePlan) -> Vec<NodeState> {
    plan.ntype
        .iter()
        .map(|t| NodeState {
            plan_pieces: match t {
                NodeType::SubtreeRoot | NodeType::Type1 => Some(1),
                NodeType::Type3 => Some(0),
                _ => None,
            },
            ..NodeState::default()
        })
        .collect()
}

/// Task parts node `i` waits for before it completes. Type 2 counts are set
/// at the decision; in-subtree nodes never complete on their own.
pub(crate) fn initial_parts(plan: &TreePlan, i: usize) -> u32 {
    match plan.ntype[i] {
        NodeType::SubtreeRoot | NodeType::Type1 => 1,
        NodeType::Type3 => plan.nprocs as u32,
        _ => 0,
    }
}

/// Nodes whose completion ends the run (every node outside the subtrees).
pub(crate) fn nodes_to_complete(plan: &TreePlan) -> u64 {
    plan.ntype
        .iter()
        .filter(|t| !matches!(t, NodeType::InSubtree))
        .count() as u64
}

/// The accuracy probe at the start of a run: the ground truth is each
/// process's static subtree work and no memory, the beliefs are each
/// mechanism's (possibly pre-seeded) starting view, `views[p]`.
pub(crate) fn seeded_probe(plan: &TreePlan, views: &[&LoadTable]) -> ViewAccuracyProbe {
    let mut probe = ViewAccuracyProbe::new(views.len());
    for (q, &work) in plan.init_work.iter().enumerate() {
        probe.set_truth(SimTime::ZERO, q, work, 0.0);
    }
    for (p, view) in views.iter().enumerate() {
        for (q, l) in view.others() {
            probe.set_belief(SimTime::ZERO, p, q.index(), l.work, l.mem);
        }
    }
    probe
}

/// The Algorithm 1 state of one process.
pub(crate) struct Proc {
    pub(crate) ready: VecDeque<Task>,
    pub(crate) pending_decisions: VecDeque<u32>,
    pub(crate) decision_inflight: Option<u32>,
    /// Candidates of the in-flight partial snapshot, if any.
    decision_candidates: Option<Vec<ActorId>>,
    /// Ground truth: workload committed to this process (including, in the
    /// simulator, slave tasks still in flight towards it).
    pub(crate) true_work: f64,
    /// Ground truth: active memory in entries.
    pub(crate) true_mem: f64,
    /// Highest `true_mem` reached.
    mem_peak: f64,
    pub(crate) busy: SimDuration,
    /// Message-treatment time charged to the next compute chunk.
    pub(crate) overhead: SimDuration,
    masters_left: u32,
    /// When this process's in-flight snapshot started waiting (drives the
    /// `snapshot_duration_ns` histogram).
    snp_opened_at: Option<SimTime>,
}

impl Proc {
    pub(crate) fn new(plan: &TreePlan, p: usize) -> Self {
        Proc {
            ready: VecDeque::new(),
            pending_decisions: VecDeque::new(),
            decision_inflight: None,
            decision_candidates: None,
            true_work: plan.init_work[p],
            true_mem: 0.0,
            mem_peak: 0.0,
            busy: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            masters_left: plan.masters_per_proc[p],
            snp_opened_at: None,
        }
    }

    /// This process's contribution to the run report.
    pub(crate) fn outcome(&self, stats: MechStats, blocked: SimDuration) -> ProcOutcome {
        ProcOutcome {
            mem_peak_entries: self.mem_peak,
            mem_final_entries: self.true_mem,
            busy: self.busy,
            blocked,
            stats,
        }
    }
}

/// What an execution backend provides to the Algorithm 1 procedures. A host
/// acts for one process at a time, [`Host::rank`].
pub(crate) trait Host<'a> {
    /// Whether a slave's share enters the ground truth when the master
    /// decides (the simulator, which reaches every process's truth) rather
    /// than when the slave receives the task (threads: each worker owns its
    /// truth, so the skew is the real message latency).
    const SHARES_COMMITTED_AT_DECISION: bool;

    /// The static run inputs.
    fn cx(&self) -> Cx<'a>;
    /// The process the host acts for.
    fn rank(&self) -> usize;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// The process's Algorithm 1 state.
    fn proc(&mut self) -> &mut Proc;
    /// The node table.
    fn nodes(&mut self) -> &mut [NodeState];
    /// The protocol-event sink.
    fn recorder(&self) -> &Recorder;
    /// Read the process's mechanism.
    fn mech<R>(&self, f: impl FnOnce(&AnyMechanism) -> R) -> R;
    /// Run `f` on the mechanism and its outbox, then flush the outbox.
    fn mech_mut<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R;
    /// Send an application message (to itself: a local handoff).
    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64);
    /// Run `f` on the view-accuracy probe, if the run has one.
    fn probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe));
    /// Add a slave share to process `q`'s ground truth. Only called when
    /// [`Host::SHARES_COMMITTED_AT_DECISION`] holds.
    fn commit_share(&mut self, q: usize, work: f64);
    /// Type 2 node `node` completes after `parts` task parts.
    fn set_parts(&mut self, node: u32, parts: u32);
    /// One task part of `node` finished; the run ends with the last part of
    /// the last node.
    fn part_done(&mut self, node: u32);
    /// Keep `entries` of `node`'s contribution block on this process's stack
    /// until the parent assembles.
    fn retain_cb(&mut self, node: u32, entries: f64);
    /// The parent of `child` is assembled here: free every retained piece of
    /// `child`, on whichever process holds it (through [`free_cb`] on that
    /// process).
    fn release_cbs(&mut self, child: u32);
    /// A snapshot started waiting (run-wide union accounting).
    fn snapshot_begin(&mut self);
    /// A snapshot decision completed.
    fn snapshot_end(&mut self);
    /// Record a histogram sample.
    fn observe(&mut self, name: &'static str, value: f64);
    /// Align the backend's process state with the mechanism's blocked flag.
    /// Called after notifications and when a decision starts waiting.
    fn reconcile_block(&mut self) {}
}

/// Enqueue the process's subtree tasks (ascending node order), activate its
/// childless upper nodes, and let a process that will never be a master say
/// so right away (§2.3: "this information may be known statically").
pub(crate) fn kick<'a, H: Host<'a>>(h: &mut H) {
    let cx = h.cx();
    let p = h.rank();
    for &r in cx.plan.subtrees_of(p as u32) {
        let flops = cx.plan.subtree_task_flops[r as usize];
        h.proc()
            .ready
            .push_back(Task::new(TaskKind::Subtree, r, flops));
    }
    for &v in cx.plan.childless_uppers_of(p as u32) {
        try_activate(h, v);
    }
    if cx.cfg.no_more_master && h.proc().masters_left == 0 {
        h.mech_mut(|m, out| m.no_more_master(out));
    }
}

// ----- state messages -------------------------------------------------------

/// Treat one state message (Algorithm 1 line 2). With `charge`, its
/// treatment cost delays the next compute chunk. The mechanism reads the
/// message by reference; the accuracy probe (if any) then learns the
/// process's refreshed beliefs about the peers the message informs on.
pub(crate) fn on_state_msg<'a, H: Host<'a>>(
    h: &mut H,
    from: ActorId,
    msg: &StateMsg,
    charge: bool,
) {
    let notifies = h.mech_mut(|m, out| m.on_state(from, msg, out));
    if charge {
        h.proc().overhead += STATE_MSG_COST;
    }
    if h.cx().cfg.accuracy {
        for q in msg.subjects(from, ActorId(h.rank())) {
            refresh_belief(h, q);
        }
    }
    handle_notifies(h, notifies);
}

/// The process's view of `q` changed: tell the accuracy probe.
fn refresh_belief<'a, H: Host<'a>>(h: &mut H, q: ActorId) {
    let (me, now) = (h.rank(), h.now());
    if q.index() != me {
        let l = h.mech(|m| m.view().get(q));
        h.probe(|probe| probe.set_belief(now, me, q.index(), l.work, l.mem));
    }
}

/// Act on mechanism notifications: a ready decision runs its selection.
/// Blocked/Resumed are reconciled from the mechanism's blocked flag.
pub(crate) fn handle_notifies<'a, H: Host<'a>>(
    h: &mut H,
    notifies: impl IntoIterator<Item = Notify>,
) {
    for n in notifies {
        if matches!(n, Notify::DecisionReady) {
            if let Some(node) = h.proc().decision_inflight.take() {
                do_selection(h, node);
            }
        }
    }
    h.reconcile_block();
}

// ----- decisions ----------------------------------------------------------------

/// Open the next pending dynamic decision, unless one is in flight or the
/// mechanism is blocked. Returns whether a decision was opened.
pub(crate) fn try_start_decision<'a, H: Host<'a>>(h: &mut H) -> bool {
    if h.proc().decision_inflight.is_some() || h.mech(|m| m.blocked()) {
        return false;
    }
    let Some(node) = h.proc().pending_decisions.pop_front() else {
        return false;
    };
    let cx = h.cx();
    h.recorder()
        .emit_with(h.now(), ActorId(h.rank()), || ProtocolEvent::DecisionOpen {
            node,
        });
    // §5 extension: partial snapshots query only the k least-loaded
    // candidates (by the master's current view and strategy metric).
    let candidates = match cx.cfg.snapshot_candidates {
        Some(k) if k + 1 < cx.cfg.nprocs => h.mech(|m| match m {
            AnyMechanism::Snapshot(_) => Some(least_loaded(cx.cfg, m.view(), k)),
            _ => None,
        }),
        _ => None,
    };
    let gate = h.mech_mut(|m, out| match (&candidates, m) {
        (Some(c), AnyMechanism::Snapshot(s)) => s.request_decision_among(c, out),
        (_, m) => m.request_decision(out),
    });
    h.proc().decision_candidates = candidates;
    match gate {
        Gate::Ready => do_selection(h, node),
        Gate::Wait => {
            let now = h.now();
            let proc = h.proc();
            proc.decision_inflight = Some(node);
            proc.snp_opened_at = Some(now);
            h.snapshot_begin();
            h.reconcile_block();
        }
    }
    true
}

/// The `k` (at least one) least-loaded peers by the strategy's metric, ties
/// by rank.
fn least_loaded(cfg: &SolverConfig, view: &LoadTable, k: usize) -> Vec<ActorId> {
    let mut others: Vec<(ActorId, f64)> = view
        .others()
        .map(|(q, l)| {
            let metric = match cfg.strategy {
                Strategy::MemoryBased => l.mem,
                Strategy::WorkloadBased => l.work,
            };
            (q, metric)
        })
        .collect();
    others.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
    others.into_iter().take(k.max(1)).map(|(q, _)| q).collect()
}

/// Select the slaves of Type 2 node `node` on the master's current view, and
/// start the master's side of the front.
fn do_selection<'a, H: Host<'a>>(h: &mut H, node: u32) {
    let cx = h.cx();
    let (me, now) = (h.rank(), h.now());
    let n = &cx.tree.nodes[node as usize];
    let m = n.nfront as f64;
    let ncb = n.ncb();
    let ef = cx.ef();
    let mem_per_row = m * ef;
    let work_per_row = work::slave_flops_per_row(cx.tree, node);
    let allowed = h.proc().decision_candidates.take();
    // Select and complete in one mechanism access: in threads, the comm
    // thread cannot slip in between.
    let recorder = h.recorder().clone();
    let (shares, notifies) = h.mech_mut(|mech, out| {
        let shares = sched::select_slaves_among(
            cx.cfg,
            mech.view(),
            ncb,
            mem_per_row,
            work_per_row,
            allowed.as_deref(),
        );
        let assignments: Vec<(ActorId, Load)> = shares
            .iter()
            .map(|s| {
                let rows = s.rows as f64;
                (s.slave, Load::new(work_per_row * rows, mem_per_row * rows))
            })
            .collect();
        recorder.emit_with(now, ActorId(me), || ProtocolEvent::DecisionComplete {
            node,
            slaves: event::narrow(shares.len()),
        });
        let notifies = mech.complete_decision(&assignments, out);
        (shares, notifies)
    });
    // Decision-time view error and regret: compare the master's view with
    // the ground truth (before this decision commits) and replay the same
    // selection against the truth to see whether staleness changed the
    // outcome.
    h.probe(|probe| {
        let mut truth = LoadTable::new(ActorId(me), cx.cfg.nprocs);
        for (q, &(w, mem)) in probe.truth_vector().iter().enumerate() {
            truth.set(ActorId(q), Load::new(w, mem));
        }
        let r = sched::selection_regret(
            cx.cfg,
            &truth,
            &shares,
            ncb,
            mem_per_row,
            work_per_row,
            allowed.as_deref(),
        );
        probe.record_decision(me, r.mismatch, r.gap);
    });
    if H::SHARES_COMMITTED_AT_DECISION {
        for s in &shares {
            h.commit_share(s.slave.index(), work_per_row * s.rows as f64);
        }
    }
    if cx.cfg.accuracy {
        // The master just applied its own assignments to its view: its
        // beliefs about the selected slaves are refreshed.
        for s in &shares {
            refresh_belief(h, s.slave);
        }
    }
    if matches!(cx.cfg.mechanism, MechKind::Snapshot) {
        h.snapshot_end();
    }
    if let Some(t0) = h.proc().snp_opened_at.take() {
        if h.recorder().is_enabled() {
            let waited = h.now().since(t0);
            h.observe("snapshot_duration_ns", waited.as_nanos() as f64);
        }
    }

    let has_parent = n.parent.is_some();
    // Assembly: the children's stacked CB pieces are consumed now.
    assemble_children(h, node);
    if shares.is_empty() {
        // Degenerate: the master factors the whole front itself.
        let alloc = cx.tree.front_entries(node as usize);
        h.set_parts(node, 1);
        set_mem(h, alloc);
        let flops = cx.tree.flops(node as usize);
        commit_work(h, flops);
        local_change(h, Load::new(flops, alloc), ChangeOrigin::Local);
        if has_parent {
            announce_plan(h, node, 1);
        }
        h.proc()
            .ready
            .push_back(Task::new(TaskKind::Type2Whole, node, flops));
    } else {
        // Master side: allocate the pivot block. The part count is set
        // before any slave task leaves, so no slave can finish first.
        let pm = n.npiv as f64 * m * ef;
        h.set_parts(node, shares.len() as u32 + 1);
        set_mem(h, pm);
        let mflops = work::master_flops(cx.tree, node);
        commit_work(h, mflops);
        local_change(h, Load::new(mflops, pm), ChangeOrigin::Local);
        if has_parent {
            announce_plan(h, node, shares.len() as u32);
        }
        for s in &shares {
            let bytes = (s.rows as f64 * m * ef * 8.0) as u64;
            let task = AppMsg::SlaveTask { node, rows: s.rows };
            h.send_app(s.slave.index() as u32, task, bytes);
        }
        h.proc()
            .ready
            .push_back(Task::new(TaskKind::Type2Master, node, mflops));
    }
    // NoMoreMaster once the last statically known decision is done.
    let proc = h.proc();
    proc.masters_left = proc.masters_left.saturating_sub(1);
    if proc.masters_left == 0 && cx.cfg.no_more_master {
        h.mech_mut(|m, out| m.no_more_master(out));
    }
    handle_notifies(h, notifies);
}

/// Tell the owner of `node`'s parent how many CB pieces `node` delivers.
fn announce_plan<'a, H: Host<'a>>(h: &mut H, node: u32, pieces: u32) {
    let cx = h.cx();
    let parent = cx.tree.nodes[node as usize].parent.expect("caller checked");
    let owner = cx.plan.owner[parent as usize];
    h.send_app(owner, AppMsg::CbPlan { node, pieces }, 24);
}

// ----- application messages -----------------------------------------------------

/// Treat one application message (Algorithm 1 line 4).
pub(crate) fn handle_app<'a, H: Host<'a>>(h: &mut H, msg: AppMsg) {
    let cx = h.cx();
    h.proc().overhead += APP_MSG_COST;
    match msg {
        AppMsg::SlaveTask { node, rows } => {
            let m = cx.tree.nodes[node as usize].nfront as f64;
            let alloc = rows as f64 * m * cx.ef();
            let flops = work::slave_flops_per_row(cx.tree, node) * rows as f64;
            set_mem(h, alloc);
            if !H::SHARES_COMMITTED_AT_DECISION {
                commit_work(h, flops);
            }
            local_change(h, Load::new(flops, alloc), ChangeOrigin::SlaveTask);
            let task = Task::new(TaskKind::Type2Slave { rows }, node, flops);
            h.proc().ready.push_back(task);
        }
        AppMsg::CbReady { node } => {
            h.nodes()[node as usize].pieces_recv += 1;
            check_child_delivery(h, node);
        }
        AppMsg::CbPlan { node, pieces } => {
            h.nodes()[node as usize].plan_pieces = Some(pieces);
            check_child_delivery(h, node);
        }
        AppMsg::RootPart { node } => {
            let share_mem = cx.tree.front_entries(node as usize) / cx.cfg.nprocs as f64;
            let share_flops = cx.tree.flops(node as usize) / cx.cfg.nprocs as f64;
            set_mem(h, share_mem);
            commit_work(h, share_flops);
            local_change(h, Load::new(share_flops, share_mem), ChangeOrigin::Local);
            h.proc()
                .ready
                .push_back(Task::new(TaskKind::RootPart, node, share_flops));
        }
    }
}

/// At the owner of `child`'s parent: did `child` finish delivering?
fn check_child_delivery<'a, H: Host<'a>>(h: &mut H, child: u32) {
    let st = &mut h.nodes()[child as usize];
    let Some(plan) = st.plan_pieces else { return };
    if st.counted_done || st.pieces_recv < plan {
        return;
    }
    st.counted_done = true;
    let parent = h.cx().tree.nodes[child as usize]
        .parent
        .expect("delivery to a root");
    h.nodes()[parent as usize].children_done += 1;
    try_activate(h, parent);
}

/// Activate upper node `v` at its owner once all children delivered.
fn try_activate<'a, H: Host<'a>>(h: &mut H, v: u32) {
    let cx = h.cx();
    let p = h.rank();
    debug_assert_eq!(cx.plan.owner[v as usize] as usize, p);
    let nchildren = cx.tree.children(v as usize).len() as u32;
    let st = &mut h.nodes()[v as usize];
    if st.activated || st.children_done < nchildren {
        return;
    }
    st.activated = true;
    match cx.plan.ntype[v as usize] {
        NodeType::Type1 => {
            let flops = cx.tree.flops(v as usize);
            // Workload is charged at activation (§4.2.2); memory at task
            // start (assembly).
            commit_work(h, flops);
            local_change(h, Load::work(flops), ChangeOrigin::Local);
            h.proc()
                .ready
                .push_back(Task::new(TaskKind::Type1, v, flops));
        }
        NodeType::Type2 => h.proc().pending_decisions.push_back(v),
        NodeType::Type3 => {
            assemble_children(h, v);
            let share_mem = cx.tree.front_entries(v as usize) / cx.cfg.nprocs as f64;
            let share_flops = cx.tree.flops(v as usize) / cx.cfg.nprocs as f64;
            let share_bytes = (share_mem * 8.0) as u64;
            for q in (0..cx.cfg.nprocs).filter(|&q| q != p) {
                h.send_app(q as u32, AppMsg::RootPart { node: v }, share_bytes);
            }
            set_mem(h, share_mem);
            commit_work(h, share_flops);
            local_change(h, Load::new(share_flops, share_mem), ChangeOrigin::Local);
            h.proc()
                .ready
                .push_back(Task::new(TaskKind::RootPart, v, share_flops));
        }
        t => unreachable!("activation of {t:?}"),
    }
}

// ----- tasks ----------------------------------------------------------------------

/// Extra memory a ready task allocates when it starts.
fn task_alloc_estimate(cx: Cx<'_>, task: &Task) -> f64 {
    if task.started {
        return 0.0;
    }
    match task.kind {
        TaskKind::Subtree => cx.plan.subtree_task_peak[task.node as usize],
        TaskKind::Type1 => cx.tree.front_entries(task.node as usize),
        _ => 0.0,
    }
}

/// Choose the ready task to compute next (Algorithm 1 line 7).
pub(crate) fn pick_task<'a, H: Host<'a>>(h: &mut H) -> Option<usize> {
    let cx = h.cx();
    if h.proc().ready.is_empty() {
        return None;
    }
    // Out of the process for the call, since `mech` borrows the host.
    let ready = std::mem::take(&mut h.proc().ready);
    let pick = h.mech(|m| {
        sched::pick_task(cx.cfg, m.view(), ready.len(), |i| {
            task_alloc_estimate(cx, &ready[i])
        })
    });
    h.proc().ready = ready;
    pick
}

/// Take ready task `idx` for one compute chunk; its first chunk does the
/// task's allocations. Returns the task and the chunk's duration, which
/// includes the message-treatment overhead charged since the last chunk.
pub(crate) fn start_task<'a, H: Host<'a>>(h: &mut H, idx: usize) -> (Task, SimDuration) {
    let cx = h.cx();
    let p = h.rank();
    let mut task = h.proc().ready.remove(idx).expect("task index");
    if !task.started {
        task.started = true;
        match task.kind {
            TaskKind::Subtree => {
                let peak = cx.plan.subtree_task_peak[task.node as usize];
                set_mem(h, peak);
                local_change(h, Load::mem(peak), ChangeOrigin::Local);
            }
            TaskKind::Type1 => {
                assemble_children(h, task.node);
                let front = cx.tree.front_entries(task.node as usize);
                set_mem(h, front);
                local_change(h, Load::mem(front), ChangeOrigin::Local);
            }
            _ => {}
        }
    }
    let seg = task.remaining.min(work::chunk_flops(cx.cfg));
    let proc = h.proc();
    let dur = SimDuration::from_secs_f64(seg / work::speed_of(cx.cfg, p)) + proc.overhead;
    proc.overhead = SimDuration::ZERO;
    proc.busy += dur;
    h.recorder()
        .emit_with(h.now(), ActorId(p), || ProtocolEvent::TaskStart {
            node: task.node,
            kind: task.kind.event_kind(),
        });
    (task, dur)
}

/// A compute chunk of `task` is done: the load drops by its work ("when a
/// significant amount of work has just been processed", §2.1), and the task
/// either resumes next (front of the queue) or completes.
pub(crate) fn finish_chunk<'a, H: Host<'a>>(h: &mut H, mut task: Task) {
    let cx = h.cx();
    h.recorder()
        .emit_with(h.now(), ActorId(h.rank()), || ProtocolEvent::TaskEnd {
            node: task.node,
        });
    let seg = task.remaining.min(work::chunk_flops(cx.cfg));
    task.remaining -= seg;
    commit_work(h, -seg);
    let origin = match task.kind {
        TaskKind::Type2Slave { .. } => ChangeOrigin::SlaveTask,
        _ => ChangeOrigin::Local,
    };
    local_change(h, Load::work(-seg), origin);
    if task.remaining > 0.0 {
        h.proc().ready.push_front(task);
    } else {
        complete_task(h, task);
    }
}

fn complete_task<'a, H: Host<'a>>(h: &mut H, task: Task) {
    let cx = h.cx();
    let ef = cx.ef();
    let node = task.node;
    let n = &cx.tree.nodes[node as usize];
    // Each producing task leaves its CB piece on the local stack until the
    // parent assembles; the origin is SlaveTask for slave rows only.
    let (freed, cb, origin) = match task.kind {
        TaskKind::Subtree => (
            cx.plan.subtree_task_peak[node as usize],
            Some(cx.tree.cb_entries(node as usize)),
            ChangeOrigin::Local,
        ),
        TaskKind::Type1 | TaskKind::Type2Whole => (
            cx.tree.front_entries(node as usize),
            Some(cx.tree.cb_entries(node as usize)),
            ChangeOrigin::Local,
        ),
        TaskKind::Type2Master => (
            n.npiv as f64 * n.nfront as f64 * ef,
            None,
            ChangeOrigin::Local,
        ),
        TaskKind::Type2Slave { rows } => (
            rows as f64 * n.nfront as f64 * ef,
            Some(rows as f64 * n.ncb() as f64 * ef),
            ChangeOrigin::SlaveTask,
        ),
        TaskKind::RootPart => (
            cx.tree.front_entries(node as usize) / cx.cfg.nprocs as f64,
            None,
            ChangeOrigin::Local,
        ),
    };
    let delta = match cb {
        Some(entries) => retained_cb(h, node, entries) - freed,
        None => -freed,
    };
    set_mem(h, delta);
    local_change(h, Load::mem(delta), origin);
    if cb.is_some() {
        notify_cb_ready(h, node);
    }
    h.part_done(node);
}

/// Retain a CB piece on this process's stack; returns the retained entry
/// count (zero for roots, whose CB nobody consumes).
fn retained_cb<'a, H: Host<'a>>(h: &mut H, node: u32, entries: f64) -> f64 {
    if h.cx().tree.nodes[node as usize].parent.is_none() || entries <= 0.0 {
        return 0.0;
    }
    h.retain_cb(node, entries);
    entries
}

/// Free a retained CB piece of `entries` on the host's process.
pub(crate) fn free_cb<'a, H: Host<'a>>(h: &mut H, entries: f64) {
    set_mem(h, -entries);
    local_change(h, Load::mem(-entries), ChangeOrigin::Local);
}

/// Tell the parent's owner a piece is ready (small control message).
fn notify_cb_ready<'a, H: Host<'a>>(h: &mut H, node: u32) {
    let cx = h.cx();
    let Some(parent) = cx.tree.nodes[node as usize].parent else {
        return; // a root: nothing to contribute
    };
    h.send_app(cx.plan.owner[parent as usize], AppMsg::CbReady { node }, 24);
}

/// Assemble node `v`: every stacked CB piece of its children is consumed
/// (the data is folded into the new front and the `SlaveTask`/`RootPart`
/// payloads).
fn assemble_children<'a, H: Host<'a>>(h: &mut H, v: u32) {
    for &c in h.cx().tree.children(v as usize) {
        h.release_cbs(c);
    }
}

// ----- load and ground truth ----------------------------------------------------

/// Change the process's active memory by `delta` entries.
fn set_mem<'a, H: Host<'a>>(h: &mut H, delta: f64) {
    let now = h.now();
    let proc = h.proc();
    proc.true_mem = (proc.true_mem + delta).max(0.0);
    proc.mem_peak = proc.mem_peak.max(proc.true_mem);
    h.recorder().emit_with(now, ActorId(h.rank()), || {
        if delta >= 0.0 {
            ProtocolEvent::MemAlloc {
                entries: delta.into(),
            }
        } else {
            ProtocolEvent::MemFree {
                entries: (-delta).into(),
            }
        }
    });
    touch_truth(h);
}

/// Commit `work` flops to (or, negative, retire them from) the process's
/// ground-truth workload.
fn commit_work<'a, H: Host<'a>>(h: &mut H, work: f64) {
    h.proc().true_work += work;
    touch_truth(h);
}

/// Push the process's ground truth to the accuracy probe.
fn touch_truth<'a, H: Host<'a>>(h: &mut H) {
    if !h.cx().cfg.accuracy {
        return;
    }
    let (me, now) = (h.rank(), h.now());
    let proc = h.proc();
    let (work, mem) = (proc.true_work, proc.true_mem);
    h.probe(|probe| probe.set_truth(now, me, work, mem));
}

/// Tell the mechanism about a change of the process's own load.
pub(crate) fn local_change<'a, H: Host<'a>>(h: &mut H, delta: Load, origin: ChangeOrigin) {
    h.mech_mut(|m, out| m.on_local_change(delta, origin, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_core::Threshold;
    use loadex_sparse::models::by_name;

    /// A host that only records what the core asks of it.
    struct FakeHost<'a> {
        cx: Cx<'a>,
        p: usize,
        proc: Proc,
        nodes: Vec<NodeState>,
        mech: AnyMechanism,
        outbox: Outbox,
        recorder: Recorder,
        sent: Vec<(u32, AppMsg)>,
        parts: Vec<(u32, u32)>,
    }

    impl<'a> Host<'a> for FakeHost<'a> {
        const SHARES_COMMITTED_AT_DECISION: bool = false;

        fn cx(&self) -> Cx<'a> {
            self.cx
        }
        fn rank(&self) -> usize {
            self.p
        }
        fn now(&self) -> SimTime {
            SimTime(1_000)
        }
        fn proc(&mut self) -> &mut Proc {
            &mut self.proc
        }
        fn nodes(&mut self) -> &mut [NodeState] {
            &mut self.nodes
        }
        fn recorder(&self) -> &Recorder {
            &self.recorder
        }
        fn mech<R>(&self, f: impl FnOnce(&AnyMechanism) -> R) -> R {
            f(&self.mech)
        }
        fn mech_mut<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
            let r = f(&mut self.mech, &mut self.outbox);
            self.outbox.drain().for_each(drop);
            r
        }
        fn send_app(&mut self, to: u32, msg: AppMsg, _bytes: u64) {
            self.sent.push((to, msg));
        }
        fn probe(&mut self, _f: impl FnOnce(&mut ViewAccuracyProbe)) {}
        fn commit_share(&mut self, _q: usize, _work: f64) {
            unreachable!("shares are committed at receipt on this host");
        }
        fn set_parts(&mut self, node: u32, parts: u32) {
            self.parts.push((node, parts));
        }
        fn part_done(&mut self, _node: u32) {}
        fn retain_cb(&mut self, _node: u32, _entries: f64) {}
        fn release_cbs(&mut self, _child: u32) {}
        fn snapshot_begin(&mut self) {}
        fn snapshot_end(&mut self) {}
        fn observe(&mut self, _name: &'static str, _value: f64) {}
    }

    fn fixture(nprocs: usize) -> (AssemblyTree, TreePlan, SolverConfig) {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(nprocs);
        let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
        (tree, plan, cfg)
    }

    fn host<'a>(cx: Cx<'a>, p: usize) -> FakeHost<'a> {
        let thr = Threshold::new(1.0, 1.0);
        FakeHost {
            cx,
            p,
            proc: Proc::new(cx.plan, p),
            nodes: node_table(cx.plan),
            mech: work::build_mechanism(cx.cfg, cx.plan, thr, p),
            outbox: Outbox::new(),
            recorder: Recorder::enabled(),
            sent: Vec::new(),
            parts: Vec::new(),
        }
    }

    #[test]
    fn type2_activation_decides_and_hands_out_slave_tasks() {
        let (tree, plan, cfg) = fixture(4);
        let cx = Cx {
            cfg: &cfg,
            tree: &tree,
            plan: &plan,
        };
        let v = (0..tree.len())
            .find(|&i| plan.ntype[i] == NodeType::Type2 && tree.nodes[i].parent.is_some())
            .expect("TWOTONE on 4 procs has a non-root Type 2 node") as u32;
        let node = &tree.nodes[v as usize];
        let owner = plan.owner[v as usize];
        let parent_owner = plan.owner[node.parent.unwrap() as usize];
        let ef = work::entry_factor(tree.sym);

        // Every child delivered: the activation queues a dynamic decision,
        // which increments grants at once.
        let mut h = host(cx, owner as usize);
        h.nodes[v as usize].children_done = tree.children(v as usize).len() as u32;
        try_activate(&mut h, v);
        assert_eq!(h.proc.pending_decisions, [v]);
        assert!(try_start_decision(&mut h));
        assert!(h.proc.pending_decisions.is_empty() && h.proc.decision_inflight.is_none());

        let slaves: Vec<(u32, u32)> = h
            .sent
            .iter()
            .filter_map(|(to, m)| match *m {
                AppMsg::SlaveTask { node, rows } if node == v => Some((*to, rows)),
                _ => None,
            })
            .collect();
        let k = slaves.len() as u32;
        assert!(k > 0, "no slaves selected");
        assert!(slaves.iter().all(|&(to, _)| to != owner));
        assert_eq!(
            slaves.iter().map(|&(_, rows)| rows).sum::<u32>(),
            node.ncb()
        );
        assert!(matches!(
            h.sent[0],
            (to, AppMsg::CbPlan { node, pieces }) if to == parent_owner && node == v && pieces == k
        ));
        assert_eq!(h.parts, [(v, k + 1)]);
        let master = h.proc.ready.back().unwrap();
        assert_eq!(master.kind, TaskKind::Type2Master);
        assert_eq!(master.remaining, work::master_flops(&tree, v));
        assert_eq!(h.proc.true_mem, node.npiv as f64 * node.nfront as f64 * ef);
        let events: Vec<ProtocolEvent> = h.recorder.take().into_iter().map(|r| r.event()).collect();
        assert!(matches!(events[0], ProtocolEvent::DecisionOpen { node } if node == v));
        assert!(events.iter().any(
            |e| matches!(*e, ProtocolEvent::DecisionComplete { node, slaves } if node == v && slaves == k)
        ));

        // No admissible candidate: the master factors the whole front.
        let mut h = host(cx, owner as usize);
        h.proc.decision_candidates = Some(Vec::new());
        do_selection(&mut h, v);
        assert!(matches!(
            h.sent[..],
            [(to, AppMsg::CbPlan { node, pieces: 1 })] if to == parent_owner && node == v
        ));
        assert_eq!(h.parts, [(v, 1)]);
        let whole = h.proc.ready.back().unwrap();
        assert_eq!(whole.kind, TaskKind::Type2Whole);
        assert_eq!(whole.remaining, tree.flops(v as usize));
        assert_eq!(h.proc.true_mem, tree.front_entries(v as usize));
        assert_eq!(
            h.proc.true_work,
            plan.init_work[owner as usize] + tree.flops(v as usize)
        );
    }
}
