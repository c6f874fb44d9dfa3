//! The asynchronous factorization engine: Algorithm 1 of the paper, per
//! process, on the discrete-event simulator.
//!
//! Every process runs the loop: *receive state-information messages first,
//! then application messages, else compute a ready task; parallel tasks
//! trigger a slave selection (dynamic decision)*. A process cannot compute
//! and treat messages simultaneously — incoming messages buffer while a task
//! runs and are drained at the next task boundary ([`CommMode::MainLoop`]).
//! The [`CommMode::CommThread`] variant reproduces §4.5: state messages are
//! serviced every 50 µs of simulated time (`Ev::Poll`) even during
//! computation, and the computation is paused while a snapshot is in
//! flight. The threaded backend reads the same [`CommMode`] to decide
//! whether to spawn a real communication thread.
//!
//! The procedures of the loop are written once in `crate::process` and
//! shared with the real-thread backend; this module is their discrete-event
//! driver: event dispatch, the message buffers, each process's compute /
//! paused / blocked state, `TaskDone` scheduling and the deadlock dump.
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
//!
//! A state message is one shared payload per send, however many processes
//! it reaches. The outbox flush wraps each staged message in an [`Rc`] once;
//! the calendar's fan-out entry and the buffered message hold a pointer to
//! it, and the mechanisms read it by reference ([`Mechanism::on_state`]),
//! so no receiver copies it. `Rc` suffices because the simulator runs in one
//! thread; it also means [`SolverWorld`] is not `Send`.
//!
//! Nor is the destination set copied: a broadcast reaches the calendar as
//! an all-but-sender rank range
//! ([`Dest::into_dests`](loadex_core::Dest::into_dests)), and a multicast
//! to a mechanism's interested peers as the mechanism's own shared rank
//! set.
//!
//! Nor is a buffered message kept once per receiver. The state messages
//! that wait for a process live in one [`Backlog`] for the whole world: a
//! process is *busy* there while it computes in the main loop, and always
//! with a comm thread (which treats them at its own pace). [`SolverWorld`]
//! treats a popped fan-out entry in one [`World::handle_fanout`] loop that
//! reads each receiver's busy flag: a busy receiver only counts the message
//! as unread, and the loop keeps the message once for all of them; any
//! other receiver treats it as a single delivery would be treated. A busy
//! process later reads its messages back in the order they reached it.

use crate::config::{CommMode, SolverConfig, COMM_POLL_PERIOD};
use crate::mapping::{NodeType, TreePlan};
use crate::process::{self, Cx, Host, NodeState, Proc};
use crate::report::{NetCounters, RunReport, RunTotals, SnapUnion};
use crate::work::{self, Task};
use loadex_core::{AnyMechanism, Mechanism, OutMsg, Outbox, StateMsg};
use loadex_net::{Channel, SimNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe};
use loadex_sim::{ActorId, Backlog, Recipients, Scheduler, SimDuration, SimTime, World};
use loadex_sparse::AssemblyTree;
use std::collections::VecDeque;
use std::rc::Rc;

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
    /// A state-channel message arrived. Every copy of one send shares the
    /// payload; see the [module docs](self).
    State(ActorId, Rc<StateMsg>),
    /// A regular-channel message arrived.
    App(ActorId, AppMsg),
    /// The current compute task finished (`gen` guards staleness).
    TaskDone(u64),
    /// Communication-thread poll tick (threaded mode).
    Poll,
    /// Accuracy-probe sampling tick (instrumentation; see
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

/// One simulated process: its Algorithm 1 core plus the application
/// mailbox, compute state and blocking model of the simulator. Its state
/// messages wait in [`SimState::inbox`].
struct ProcRt {
    core: Proc,
    mech: AnyMechanism,
    outbox: Outbox,
    app_mb: VecDeque<(ActorId, AppMsg)>,
    state: PState,
    gen: u64,
    blocked_since: Option<SimTime>,
    blocked_total: SimDuration,
}

/// The solver world: all processes + network + tree bookkeeping.
pub struct SolverWorld {
    cfg: SolverConfig,
    tree: AssemblyTree,
    plan: TreePlan,
    st: SimState,
}

/// Everything the event handlers mutate.
struct SimState {
    procs: Vec<ProcRt>,
    /// The state messages that wait for busy processes: those computing in
    /// the main loop, every process with a comm thread. A comm thread has a
    /// poll tick pending exactly while its process has unread messages.
    inbox: Backlog<(ActorId, Rc<StateMsg>)>,
    net: SimNetwork,
    /// One node table for the whole run (it is indexed by node, and each
    /// entry is only touched by one process).
    nodes: Vec<NodeState>,
    /// Task parts still running per node; a node completes at 0.
    parts_left: Vec<u32>,
    /// Per producing node: `(process, entries)` contribution pieces retained
    /// on that process's stack until the parent assembles.
    cb_pieces: Vec<Vec<(u32, f64)>>,
    nodes_remaining: u64,
    app_msgs: u64,
    snp: SnapUnion,
    done_at: Option<SimTime>,
    finished_at: SimTime,
    /// View-accuracy probe (enabled by [`SolverConfig::accuracy`]): ground
    /// truth vs. believed views, staleness, decision-time error and regret.
    /// The ground truth is the committed workload: the load a perfect
    /// scheduler would want, in-flight slave tasks included (the increments
    /// mechanism's reservation broadcast tracks exactly this quantity).
    /// Pure bookkeeping — apart from its own sampling ticks it schedules
    /// nothing and never changes a decision.
    probe: Option<ViewAccuracyProbe>,
    // Observability (see [`SolverWorld::set_recorder`]).
    recorder: Recorder,
    metrics: MetricsRegistry,
}

impl SimState {
    /// Open or close `p`'s blocked interval to match its compute state.
    fn note_block_state(&mut self, p: usize, now: SimTime) {
        let rt = &mut self.procs[p];
        let blocked = matches!(rt.state, PState::WaitSnapshot | PState::Paused { .. });
        match (blocked, rt.blocked_since) {
            (true, None) => {
                rt.blocked_since = Some(now);
                self.recorder
                    .emit_with(now, ActorId(p), || ProtocolEvent::Blocked);
            }
            (false, Some(t0)) => {
                rt.blocked_total += now.since(t0);
                rt.blocked_since = None;
                self.recorder
                    .emit_with(now, ActorId(p), || ProtocolEvent::Resumed);
            }
            _ => {}
        }
    }
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
        let threshold = cfg
            .threshold
            .unwrap_or_else(|| crate::run::derive_threshold(&tree, &plan, &cfg, 1.0));
        let procs: Vec<ProcRt> = (0..nprocs)
            .map(|p| ProcRt {
                core: Proc::new(&plan, p),
                mech: work::build_mechanism(&cfg, &plan, threshold, p),
                outbox: Outbox::new(),
                app_mb: VecDeque::new(),
                state: PState::Idle,
                gen: 0,
                blocked_since: None,
                blocked_total: SimDuration::ZERO,
            })
            .collect();
        let mut inbox = Backlog::new(nprocs);
        if cfg.comm == CommMode::CommThread {
            for p in 0..nprocs {
                inbox.set_busy(ActorId(p), true);
            }
        }
        let probe = cfg.accuracy.then(|| {
            let views: Vec<_> = procs.iter().map(|rt| rt.mech.view()).collect();
            process::seeded_probe(&plan, &views)
        });
        let st = SimState {
            procs,
            inbox,
            net: SimNetwork::new(nprocs, cfg.network),
            nodes: process::node_table(&plan),
            parts_left: (0..tree.len())
                .map(|i| process::initial_parts(&plan, i))
                .collect(),
            cb_pieces: vec![Vec::new(); tree.len()],
            nodes_remaining: process::nodes_to_complete(&plan),
            app_msgs: 0,
            snp: SnapUnion::default(),
            done_at: None,
            finished_at: SimTime::ZERO,
            probe,
            recorder: Recorder::disabled(),
            metrics: MetricsRegistry::new(),
        };
        SolverWorld {
            cfg,
            tree,
            plan,
            st,
        }
    }

    /// Attach an event recorder. When it is enabled, every mechanism outbox
    /// starts staging [`ProtocolEvent`]s (stamped `(time, rank)` here as they
    /// are flushed), the engine emits its own decision/task/memory/blocking
    /// events, and the latency / snapshot-duration histograms are
    /// populated. A disabled recorder keeps all of this at a single boolean
    /// check per site.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let on = recorder.is_enabled();
        for rt in &mut self.st.procs {
            rt.outbox.set_observe(on);
        }
        self.st.recorder = recorder;
    }

    /// The host acting for process `p` while it handles an event at `now`.
    fn host<'w, 's, 'e>(
        &'w mut self,
        p: usize,
        now: SimTime,
        sched: &'s mut Scheduler<'e, Ev>,
    ) -> SimHost<'w, 's, 'e> {
        SimHost {
            cx: Cx {
                cfg: &self.cfg,
                tree: &self.tree,
                plan: &self.plan,
            },
            w: &mut self.st,
            p,
            now,
            sched,
        }
    }

    /// Whether the factorization completed.
    pub fn is_done(&self) -> bool {
        self.st.done_at.is_some()
    }

    /// Human-readable dump of per-process and per-node state, for deadlock
    /// diagnostics.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "nodes_remaining={} backlog={}",
            self.st.nodes_remaining,
            self.st.inbox.len()
        );
        for (p, rt) in self.st.procs.iter().enumerate() {
            let _ = writeln!(
                s,
                "P{p}: state={:?} blocked={} ready={} unread={} app_mb={} pend_dec={:?} inflight={:?}",
                rt.state,
                rt.mech.blocked(),
                rt.core.ready.len(),
                self.st.inbox.unread(ActorId(p)),
                rt.app_mb.len(),
                rt.core.pending_decisions,
                rt.core.decision_inflight,
            );
            if let AnyMechanism::Snapshot(m) = &rt.mech {
                let active: Vec<String> = m.active_initiators().map(|q| q.to_string()).collect();
                let leader = m.leader().map_or("-".to_string(), |l| l.to_string());
                let _ = writeln!(
                    s,
                    "    snp: missing={} req={} active=[{}] leader={leader}",
                    m.missing_answers(),
                    m.my_request(),
                    active.join(","),
                );
            }
        }
        for (i, st) in self.st.nodes.iter().enumerate() {
            if matches!(self.plan.ntype[i], NodeType::InSubtree) {
                continue;
            }
            let parts_left = self.st.parts_left[i];
            if parts_left > 0 || !st.activated {
                let _ = writeln!(
                    s,
                    "node {i}: type={:?} owner={} activated={} children_done={}/{} plan={:?} recv={} parts_left={}",
                    self.plan.ntype[i],
                    self.plan.owner[i],
                    st.activated,
                    st.children_done,
                    self.tree.children(i).len(),
                    st.plan_pieces,
                    st.pieces_recv,
                    parts_left,
                );
            }
        }
        s
    }

    /// Build the final report. Call after the simulation stops.
    pub fn report(&self) -> RunReport {
        let st = &self.st;
        let outs = st
            .procs
            .iter()
            .map(|rt| rt.core.outcome(rt.mech.stats().clone(), rt.blocked_total))
            .collect();
        RunReport::build(
            outs,
            RunTotals {
                backend: "sim",
                factor_time: st.done_at.unwrap_or(st.finished_at),
                net: NetCounters {
                    state_msgs: st.net.sent_state(),
                    state_bytes: st.net.bytes_state(),
                    regular_msgs: st.net.sent_regular(),
                    regular_bytes: st.net.bytes_regular(),
                },
                app_msgs: st.app_msgs,
                snapshots: st.snp,
                events_dropped: st.recorder.dropped(),
                metrics: st.metrics.snapshot(),
                // A copy: report() can be called repeatedly.
                probe: st.probe.clone(),
            },
        )
    }
}

/// [`Host`] for one simulated process handling one event: the world's
/// mutable state, bound to a process and an instant.
struct SimHost<'w, 's, 'e> {
    cx: Cx<'w>,
    w: &'w mut SimState,
    p: usize,
    now: SimTime,
    sched: &'s mut Scheduler<'e, Ev>,
}

impl SimHost<'_, '_, '_> {
    fn rt(&mut self) -> &mut ProcRt {
        &mut self.w.procs[self.p]
    }

    /// Whether a modeled comm thread services the state channel.
    fn comm_thread(&self) -> bool {
        self.cx.cfg.comm == CommMode::CommThread
    }

    /// Send what the mechanism staged; with the recorder on, stamp its
    /// protocol events first.
    #[inline]
    fn flush_outbox(&mut self) {
        if self.w.procs[self.p].outbox.is_empty() && !self.w.recorder.is_enabled() {
            return;
        }
        self.send_staged();
    }

    fn send_staged(&mut self) {
        let SimHost {
            w, p, now, sched, ..
        } = self;
        let (p, now) = (*p, *now);
        let SimState {
            procs,
            net,
            recorder,
            metrics,
            ..
        } = &mut **w;
        let nprocs = procs.len();
        let outbox = &mut procs[p].outbox;
        let obs = recorder.is_enabled();
        if obs {
            // Stamp the mechanism's staged protocol events with (time, rank).
            recorder.emit_all(now, ActorId(p), outbox.drain_events());
        }
        if outbox.is_empty() {
            return;
        }
        // Every staged message, whatever its destination, is routed as a
        // multicast and lands on the calendar as one fan-out entry per
        // arrival time, all sharing one payload and, usually, the staged
        // destination set itself.
        let from = ActorId(p);
        for OutMsg { dest, msg } in outbox.drain() {
            let size = msg.wire_size();
            let msg = Rc::new(msg);
            let dests = dest.into_dests(from, nprocs);
            net.multicast(now, from, dests, Channel::State, size, |at, group| {
                if obs {
                    let latency = at.since(now).as_nanos() as f64;
                    for _ in 0..group.len() {
                        metrics.observe("state_msg_latency_ns", latency);
                    }
                }
                sched.schedule_fanout_at(at, group, Ev::State(from, Rc::clone(&msg)));
            });
        }
    }

    // ----- blocked-time accounting ---------------------------------------

    fn note_block_state(&mut self) {
        self.w.note_block_state(self.p, self.now);
    }

    /// Enter compute state `state`. In the main loop a process buffers its
    /// state messages exactly while it computes.
    fn set_state(&mut self, state: PState) {
        if !self.comm_thread() {
            let computing = matches!(state, PState::Computing { .. });
            self.w.inbox.set_busy(ActorId(self.p), computing);
        }
        self.rt().state = state;
    }

    // ----- the Algorithm 1 loop ------------------------------------------

    fn progress(&mut self) {
        let mainloop = !self.comm_thread();
        loop {
            if matches!(
                self.rt().state,
                PState::Computing { .. } | PState::Paused { .. }
            ) {
                return;
            }
            // (1) state messages first (Algorithm 1 line 2) — drained even
            // inside the snapshot receive loop, which *only* treats these.
            // In threaded mode the comm thread owns them instead.
            if mainloop {
                if let Some((from, msg)) = self.w.inbox.pop(ActorId(self.p)) {
                    process::on_state_msg(self, from, &msg, true);
                    continue;
                }
            }
            if self.rt().mech.blocked() {
                if !matches!(self.rt().state, PState::WaitSnapshot) {
                    self.set_state(PState::WaitSnapshot);
                    self.note_block_state();
                }
                return;
            }
            if matches!(self.rt().state, PState::WaitSnapshot) {
                self.set_state(PState::Idle);
                self.note_block_state();
            }
            // (2) pending dynamic decisions.
            if process::try_start_decision(self) {
                continue;
            }
            // (3) other messages (line 4).
            if let Some((_, msg)) = self.rt().app_mb.pop_front() {
                process::handle_app(self, msg);
                continue;
            }
            // (4) compute a ready task (line 7).
            if let Some(i) = process::pick_task(self) {
                let (task, dur) = process::start_task(self, i);
                let end = self.now + dur;
                let rt = self.rt();
                rt.gen += 1;
                let gen = rt.gen;
                self.set_state(PState::Computing { end, task });
                self.sched
                    .schedule_at(end, ActorId(self.p), Ev::TaskDone(gen));
                return;
            }
            self.set_state(PState::Idle);
            return;
        }
    }

    // ----- event handlers --------------------------------------------------

    fn on_kick(&mut self) {
        let (p, now) = (self.p, self.now);
        // The sampling tick only feeds the accuracy probe.
        if p == 0 && self.w.probe.is_some() {
            if let Some(period) = self.cx.cfg.coherence_probe {
                self.sched.schedule_at(now + period, ActorId(0), Ev::Probe);
            }
        }
        if let Some(period) = self.rt().mech.timer_period() {
            self.sched
                .schedule_at(now + period, ActorId(p), Ev::MechTimer);
        }
        process::kick(self);
        self.progress();
    }

    /// One state message for this process alone.
    fn on_state_event(&mut self, from: ActorId, msg: Rc<StateMsg>) {
        match self
            .w
            .inbox
            .offer_single(ActorId(self.p), || (from, Rc::clone(&msg)))
        {
            Some(1) if self.comm_thread() => {
                self.sched
                    .schedule_at(next_poll(self.now), ActorId(self.p), Ev::Poll)
            }
            Some(_) => {}
            None => self.treat_state_now(from, &msg),
        }
    }

    /// A state message reaches the main loop while it does not compute:
    /// idle or in the snapshot receive loop, it treats the message at once.
    fn treat_state_now(&mut self, from: ActorId, msg: &StateMsg) {
        process::on_state_msg(self, from, msg, true);
        self.progress();
    }

    fn on_poll(&mut self) {
        let (p, now) = (self.p, self.now);
        debug_assert!(self.comm_thread(), "poll event outside threaded mode");
        // The comm thread must take the lock protecting MPI calls (§4.5); a
        // bulk send in flight from this process holds it.
        let lock_free = self.w.net.egress_free(ActorId(p));
        if lock_free > now {
            self.sched.schedule_at(lock_free, ActorId(p), Ev::Poll);
            return;
        }
        // One receive per poll iteration: the thread sleeps one period between
        // channel checks, so a burst drains at one message per tick.
        if let Some((from, msg)) = self.w.inbox.pop(ActorId(p)) {
            process::on_state_msg(self, from, &msg, false);
        }
        if self.w.inbox.unread(ActorId(p)) > 0 {
            self.sched
                .schedule_at(now + COMM_POLL_PERIOD, ActorId(p), Ev::Poll);
        }
        self.reconcile_block();
        if matches!(self.rt().state, PState::Idle) {
            self.progress();
        }
    }

    /// Dissemination timer of the periodic/gossip mechanisms. Modeled as a
    /// lightweight helper thread: it fires even while the main thread
    /// computes (these mechanisms exist precisely to bound staleness).
    fn on_mech_timer(&mut self) {
        let Some(period) = self.rt().mech.timer_period() else {
            return;
        };
        self.mech_mut(|m, out| m.on_timer(out));
        if self.w.done_at.is_none() {
            self.sched
                .schedule_at(self.now + period, ActorId(self.p), Ev::MechTimer);
        }
    }

    fn on_task_done(&mut self, gen: u64) {
        let rt = self.rt();
        if gen != rt.gen {
            return; // cancelled (paused) task
        }
        let PState::Computing { task, .. } = rt.state else {
            return;
        };
        self.set_state(PState::Idle);
        process::finish_chunk(self, task);
        self.progress();
    }

    fn on_probe(&mut self) {
        let (Some(period), Some(probe)) = (self.cx.cfg.coherence_probe, self.w.probe.as_mut())
        else {
            return;
        };
        probe.sample(self.now);
        if self.w.done_at.is_none() {
            self.sched
                .schedule_at(self.now + period, ActorId(0), Ev::Probe);
        }
    }
}

impl<'w> Host<'w> for SimHost<'w, '_, '_> {
    const SHARES_COMMITTED_AT_DECISION: bool = true;

    fn cx(&self) -> Cx<'w> {
        self.cx
    }

    fn rank(&self) -> usize {
        self.p
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn proc(&mut self) -> &mut Proc {
        &mut self.w.procs[self.p].core
    }

    fn nodes(&mut self) -> &mut [NodeState] {
        &mut self.w.nodes
    }

    fn recorder(&self) -> &Recorder {
        &self.w.recorder
    }

    fn mech<R>(&self, f: impl FnOnce(&AnyMechanism) -> R) -> R {
        f(&self.w.procs[self.p].mech)
    }

    fn mech_mut<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
        let rt = self.rt();
        let r = f(&mut rt.mech, &mut rt.outbox);
        self.flush_outbox();
        r
    }

    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64) {
        let (from, now) = (ActorId(self.p), self.now);
        self.w.app_msgs += 1;
        if to as usize == self.p {
            // Local handoff: process at the same instant through the mailbox
            // (no network, no overhead — the data never moved).
            self.sched.schedule_at(now, from, Ev::App(from, msg));
            return;
        }
        let to = ActorId(to as usize);
        let d = self.w.net.send(now, from, to, Channel::Regular, bytes, msg);
        self.sched
            .schedule_at(d.at, to, Ev::App(from, d.envelope.msg));
    }

    fn probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe)) {
        if let Some(probe) = self.w.probe.as_mut() {
            f(probe);
        }
    }

    fn commit_share(&mut self, q: usize, work: f64) {
        let core = &mut self.w.procs[q].core;
        core.true_work += work;
        if let Some(probe) = self.w.probe.as_mut() {
            probe.set_truth(self.now, q, core.true_work, core.true_mem);
        }
    }

    fn set_parts(&mut self, node: u32, parts: u32) {
        self.w.parts_left[node as usize] = parts;
    }

    fn part_done(&mut self, node: u32) {
        let left = &mut self.w.parts_left[node as usize];
        debug_assert!(*left > 0, "part underflow at node {node}");
        *left -= 1;
        if *left == 0 {
            self.w.nodes_remaining -= 1;
            if self.w.nodes_remaining == 0 {
                self.w.done_at = Some(self.now);
                self.sched.request_stop();
            }
        }
    }

    fn retain_cb(&mut self, node: u32, entries: f64) {
        self.w.cb_pieces[node as usize].push((self.p as u32, entries));
    }

    /// The simulator frees each piece directly on its producer, acting for
    /// that process for the duration of the free.
    fn release_cbs(&mut self, child: u32) {
        let pieces = std::mem::take(&mut self.w.cb_pieces[child as usize]);
        let me = self.p;
        for (q, entries) in pieces {
            self.p = q as usize;
            process::free_cb(self, entries);
        }
        self.p = me;
    }

    fn snapshot_begin(&mut self) {
        self.w.snp.begin(self.now);
    }

    fn snapshot_end(&mut self) {
        self.w.snp.end(self.now);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.w.metrics.observe(name, value);
    }

    /// Pause / resume the computation (threaded mode), enter / leave the
    /// snapshot receive loop.
    fn reconcile_block(&mut self) {
        let (p, now) = (self.p, self.now);
        let threaded = self.comm_thread();
        let rt = self.rt();
        let blocked = rt.mech.blocked();
        if blocked == matches!(rt.state, PState::Paused { .. } | PState::WaitSnapshot) {
            return; // already in step (the usual case)
        }
        match (blocked, rt.state) {
            // Only the threaded variant can interrupt a computation.
            (true, PState::Computing { end, task }) if threaded => {
                let remaining = end.since(now);
                rt.gen += 1; // invalidate pending TaskDone
                self.set_state(PState::Paused { task, remaining });
                self.note_block_state();
            }
            (true, PState::Idle) => {
                self.set_state(PState::WaitSnapshot);
                self.note_block_state();
            }
            (false, PState::Paused { task, remaining }) => {
                let end = now + remaining;
                rt.gen += 1;
                let gen = rt.gen;
                self.set_state(PState::Computing { end, task });
                self.note_block_state();
                self.sched.schedule_at(end, ActorId(p), Ev::TaskDone(gen));
            }
            (false, PState::WaitSnapshot) => {
                self.set_state(PState::Idle);
                self.note_block_state();
                self.progress();
            }
            _ => {}
        }
    }
}

/// The comm thread's next poll tick after `now`.
fn next_poll(now: SimTime) -> SimTime {
    let period_ns = COMM_POLL_PERIOD.as_nanos();
    SimTime((now.as_nanos() / period_ns + 1) * period_ns)
}

impl World for SolverWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, actor: ActorId, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let mut h = self.host(actor.index(), now, sched);
        match event {
            Ev::Kick => h.on_kick(),
            Ev::State(from, msg) => h.on_state_event(from, msg),
            Ev::App(from, msg) => {
                h.rt().app_mb.push_back((from, msg));
                if matches!(h.rt().state, PState::Idle) {
                    h.progress();
                }
            }
            Ev::TaskDone(gen) => h.on_task_done(gen),
            Ev::Poll => h.on_poll(),
            Ev::Probe => h.on_probe(),
            Ev::MechTimer => h.on_mech_timer(),
        }
    }

    /// A state message's fan-out in one loop: a busy receiver only counts
    /// it as unread, and the loop keeps the message once for all of them in
    /// the backlog; any other is handled as by [`World::handle`].
    fn handle_fanout(
        &mut self,
        now: SimTime,
        recipients: &mut Recipients<'_>,
        event: &Ev,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Ev::State(from, msg) = event else {
            for actor in recipients {
                self.handle(now, actor, event.clone(), sched);
            }
            return;
        };
        let comm_thread = self.cfg.comm == CommMode::CommThread;
        // A stop may cut this fan-out short, or this call may resume one:
        // the kept entry names only the receivers this call reached.
        let start = recipients.taken();
        for actor in recipients.by_ref() {
            match self.st.inbox.offer(actor) {
                Some(1) if comm_thread => sched.schedule_at(next_poll(now), actor, Ev::Poll),
                Some(_) => {}
                None => self
                    .host(actor.index(), now, sched)
                    .treat_state_now(*from, msg),
            }
        }
        self.st
            .inbox
            .close_fanout(|| ((*from, Rc::clone(msg)), recipients.yielded_since(start)));
    }

    fn on_finish(&mut self, now: SimTime) {
        self.st.finished_at = now;
        for p in 0..self.st.procs.len() {
            self.st.note_block_state(p, now);
        }
        self.st.snp.close(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_core::MechKind;
    use loadex_sim::{SimConfig, Simulator, StopReason};
    use loadex_sparse::models::by_name;

    fn mini_world(nprocs: usize) -> SolverWorld {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(nprocs);
        let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
        SolverWorld::new(tree, plan, cfg)
    }

    #[test]
    fn debug_dump_shows_the_snapshot_election_state() {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(3).with_mechanism(MechKind::Snapshot);
        let plan = mapping::plan(&tree, 3, MappingParams::from(&cfg));
        let dump = SolverWorld::new(tree, plan, cfg).debug_dump();
        let lines: Vec<&str> = dump.lines().filter(|l| l.contains("snp:")).collect();
        assert_eq!(lines.len(), 3, "{dump}");
        for l in lines {
            assert!(l.ends_with("active=[] leader=-"), "{l}");
        }
    }

    #[test]
    fn master_flops_is_a_proper_fraction() {
        let w = mini_world(4);
        for (i, node) in w.tree.nodes.iter().enumerate() {
            if node.ncb() == 0 {
                continue;
            }
            let mf = work::master_flops(&w.tree, i as u32);
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
            let per_row = work::slave_flops_per_row(&w.tree, i as u32);
            let total = work::master_flops(&w.tree, i as u32) + per_row * node.ncb() as f64;
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
        assert_eq!(work::chunk_flops(&w.cfg), 1e8);
        w.cfg.task_chunk = SimDuration::ZERO;
        assert_eq!(work::chunk_flops(&w.cfg), f64::INFINITY);
    }

    #[test]
    fn snapshot_union_accounting() {
        let mut u = SnapUnion::default();
        u.begin(SimTime(1_000));
        u.begin(SimTime(2_000));
        assert_eq!(u.max, 2);
        u.end(SimTime(3_000));
        assert_eq!(u.union, SimDuration::ZERO, "union closes at zero active");
        u.end(SimTime(5_000));
        assert_eq!(u.union, SimDuration::from_nanos(4_000));
        // A second disjoint interval accumulates; an open one closes at the
        // end of the run.
        u.begin(SimTime(10_000));
        u.end(SimTime(11_000));
        assert_eq!(u.union, SimDuration::from_nanos(5_000));
        u.begin(SimTime(20_000));
        u.close(SimTime(20_500));
        assert_eq!(u.union, SimDuration::from_nanos(5_500));
    }

    #[test]
    fn events_are_24_bytes() {
        // Every calendar entry scales with this size; perfbench reports it
        // as `sim.ev_bytes`. A buffered state message is not an `Ev`: the
        // backlog keeps one `(sender, Rc)` pair per fan-out.
        assert_eq!(std::mem::size_of::<Ev>(), 24);
    }

    /// The simulator's provided `handle_fanout`: every destination of a
    /// fan-out handed to `SolverWorld::handle` one at a time.
    struct PerDestination<'a>(&'a mut SolverWorld);

    impl World for PerDestination<'_> {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, a: ActorId, ev: Ev, s: &mut Scheduler<'_, Ev>) {
            self.0.handle(now, a, ev, s);
        }

        fn on_finish(&mut self, now: SimTime) {
            self.0.on_finish(now);
        }
    }

    /// An observed, probed TWOTONE run: its report and step count, and its
    /// recorded protocol events.
    fn observed_run(
        nprocs: usize,
        mech: MechKind,
        comm: CommMode,
        per_destination: bool,
    ) -> (String, Vec<loadex_obs::EventRecord>) {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(nprocs)
            .with_mechanism(mech)
            .with_comm(comm)
            .with_accuracy(true);
        let plan = mapping::plan(&tree, nprocs, MappingParams::from(&cfg));
        let mut world = SolverWorld::new(tree, plan, cfg);
        let recorder = Recorder::enabled();
        world.set_recorder(recorder.clone());
        let mut sim = Simulator::new(SimConfig::default());
        for p in 0..nprocs {
            sim.schedule_at(SimTime::ZERO, ActorId(p), Ev::Kick);
        }
        let reason = if per_destination {
            sim.run(&mut PerDestination(&mut world))
        } else {
            sim.run(&mut world)
        };
        assert_eq!(reason, StopReason::Requested, "{mech} {comm:?}");
        let summary = format!("{:?} after {} steps", world.report(), sim.processed());
        (summary, recorder.take())
    }

    #[test]
    fn fanout_override_matches_per_destination_handling() {
        // P = 70: the interested-peer sets span two words.
        for mech in MechKind::EXTENDED {
            for comm in [CommMode::MainLoop, CommMode::CommThread] {
                let batched = observed_run(70, mech, comm, false);
                let per_destination = observed_run(70, mech, comm, true);
                assert!(!batched.1.is_empty());
                assert!(batched == per_destination, "{mech} {comm:?} differ");
            }
        }
    }

    #[test]
    fn true_load_matches_plan_at_start() {
        let w = mini_world(4);
        for p in 0..4 {
            assert_eq!(w.st.procs[p].core.true_work, w.plan.init_work[p]);
            assert_eq!(w.st.procs[p].core.true_mem, 0.0);
        }
    }
}
