//! The real-thread execution backend (§4.5).
//!
//! One OS thread per simulated process runs the Algorithm 1 procedures of
//! `crate::process`, the same ones [`crate::engine`] drives, but over real
//! [`loadex_net::thread`] endpoints and the wall clock: compute chunks become
//! scaled sleeps (see [`WallClock`]), and messages travel through
//! cross-thread channels instead of the discrete-event calendar. With
//! [`CommMode::CommThread`](crate::config::CommMode), the same switch the
//! simulator reads, a dedicated communication thread per process polls the
//! state channel every 50 µs of wall time and services
//! `Mechanism::on_state_msg` *concurrently* with the computation — the
//! paper's §4.5 model, where snapshot answers no longer wait for task-chunk
//! boundaries.
//!
//! Differences from the simulator, all in how a worker implements the
//! process core's `Host`:
//!
//! * **Clock.** Simulated time is scaled wall time, [`WallClock::now`].
//! * **Mechanism access.** The mechanism sits in a `MechCell` shared with
//!   the comm thread; every access takes its lock, and a flush that finds a
//!   peer unreachable fails the run with `RunError::Disconnected`.
//! * **Ground truth.** Each worker owns its truth, so a slave commits its
//!   share when the task arrives, not when the master decides; the skew is
//!   the real message latency. Decision regret is replayed against the
//!   shared probe's truth vector, as in the simulator.
//! * **Node-part completion.** Type 2/3 part counts and global termination
//!   use shared atomics (`Coord`): run-harness bookkeeping the real MUMPS
//!   gets from its symbolic phase.
//! * **Contribution blocks.** The parent's owner cannot free a piece on its
//!   producer directly: it sends an explicit `CbFree` on the regular channel
//!   (not counted as an application message).
//! * **Snapshot union.** One shared `SnapUnion` behind a lock.
//!
//! The report uses the simulator's counter and gauge keys, so table code is
//! backend-agnostic.

use crate::config::{SolverConfig, ThreadedBackend, COMM_POLL_PERIOD};
use crate::engine::AppMsg;
use crate::error::RunError;
use crate::mapping::TreePlan;
use crate::process::{self, Cx, Host, NodeState, Proc};
use crate::report::{NetCounters, ProcOutcome, RunReport, RunTotals, SnapUnion};
use crate::work;
use loadex_core::{AnyMechanism, Dest, Load, Mechanism, Notify, OutMsg, Outbox, StateMsg};
use loadex_net::{Channel, CommEndpoint, Endpoint, Envelope, RecvError, ThreadNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe, WallClock};
use loadex_sim::{ActorId, SimTime};
use loadex_sparse::AssemblyTree;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Wall-time granularity of a compute sleep: the worker re-checks the pause
/// flag, the deadline and the done flag this often while "computing".
const COMPUTE_SLICE: Duration = Duration::from_millis(2);
/// Wall-time granularity of idle / blocked waits.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// A lock is poisoned only when a thread panicked while holding it, and that
/// panic has already failed the run.
const POISONED: &str = "a thread of this run panicked while holding the lock";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

/// Everything that travels between processes. State messages ride the state
/// channel; application messages and `CbFree` ride the regular channel.
#[derive(Clone, Debug)]
enum TMsg {
    State(StateMsg),
    App(AppMsg),
    /// The receiver's stacked contribution block of `node` was assembled by
    /// the parent's owner and can be freed.
    CbFree {
        node: u32,
    },
}

/// Run-wide shared coordination state. The load-exchange protocols never see
/// any of this; it replaces the simulator's omniscient bookkeeping.
struct Coord {
    done: AtomicBool,
    failed: Mutex<Option<RunError>>,
    done_at: Mutex<Option<Instant>>,
    /// Task parts still running per node; a node completes at 0. Type 2
    /// entries are stored by the master before it sends the slave tasks.
    parts_left: Vec<AtomicU32>,
    nodes_remaining: AtomicU64,
    app_msgs: AtomicU64,
    net_state_msgs: AtomicU64,
    net_state_bytes: AtomicU64,
    net_regular_msgs: AtomicU64,
    net_regular_bytes: AtomicU64,
    /// Snapshot-union accounting (any master may open a snapshot).
    snp: Mutex<SnapUnion>,
}

impl Coord {
    fn new(plan: &TreePlan) -> Self {
        Coord {
            done: AtomicBool::new(false),
            failed: Mutex::new(None),
            done_at: Mutex::new(None),
            parts_left: (0..plan.ntype.len())
                .map(|i| AtomicU32::new(process::initial_parts(plan, i)))
                .collect(),
            nodes_remaining: AtomicU64::new(process::nodes_to_complete(plan)),
            app_msgs: AtomicU64::new(0),
            net_state_msgs: AtomicU64::new(0),
            net_state_bytes: AtomicU64::new(0),
            net_regular_msgs: AtomicU64::new(0),
            net_regular_bytes: AtomicU64::new(0),
            snp: Mutex::new(SnapUnion::default()),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Record a failure (first error wins) and stop every thread.
    fn fail(&self, err: RunError) {
        let mut f = lock(&self.failed);
        if f.is_none() {
            *f = Some(err);
        }
        self.done.store(true, Ordering::SeqCst);
    }
}

/// Mechanism state shared between a worker and its communication thread.
struct MechCell {
    mech: AnyMechanism,
    outbox: Outbox,
    /// Notifications produced by the comm thread for the worker to act on
    /// (the worker owns decisions and tasks).
    notifies: Vec<Notify>,
}

type SharedMech = Arc<(Mutex<MechCell>, Condvar)>;

/// The view-accuracy probe shared by every worker and comm thread. Lock
/// ordering: the probe is only ever taken *after* (or without) the mech cell
/// lock, never before it.
type SharedProbe = Arc<Mutex<ViewAccuracyProbe>>;

/// The state-channel send half a flush uses: the worker's own endpoint, or
/// the dedicated comm endpoint (§4.5's "communication thread takes the lock
/// protecting MPI calls").
enum StateTx<'a> {
    Main(&'a Endpoint<TMsg>),
    Comm(&'a CommEndpoint<TMsg>),
}

impl StateTx<'_> {
    fn send(&self, to: ActorId, size: u64, msg: StateMsg) -> bool {
        match self {
            StateTx::Main(ep) => ep.send(to, Channel::State, size, TMsg::State(msg)),
            StateTx::Comm(c) => c.send(to, size, TMsg::State(msg)),
        }
    }

    fn broadcast(&self, size: u64, msg: &StateMsg) -> usize {
        let wrapped = TMsg::State(msg.clone());
        match self {
            StateTx::Main(ep) => ep.broadcast(Channel::State, size, &wrapped),
            StateTx::Comm(c) => c.broadcast(size, &wrapped),
        }
    }
}

/// Drain the cell's staged events and messages onto the wire. Returns false
/// if any peer was unreachable.
fn flush_cell(
    cell: &mut MechCell,
    tx: StateTx<'_>,
    me: usize,
    nprocs: usize,
    coord: &Coord,
    recorder: &Recorder,
    clock: &WallClock,
) -> bool {
    if recorder.is_enabled() {
        recorder.emit_all(clock.now(), ActorId(me), cell.outbox.drain_events());
    }
    let staged: Vec<OutMsg> = cell.outbox.drain().collect();
    let mut ok = true;
    for OutMsg { dest, msg } in staged {
        let size = msg.wire_size();
        let sent = match dest {
            Dest::AllOthers => {
                let delivered = tx.broadcast(size, &msg);
                ok &= delivered == nprocs - 1;
                delivered
            }
            Dest::To(dests) => {
                for to in dests.iter() {
                    ok &= tx.send(to, size, msg.clone());
                }
                dests.len()
            }
        } as u64;
        coord.net_state_msgs.fetch_add(sent, Ordering::Relaxed);
        coord
            .net_state_bytes
            .fetch_add(sent * size, Ordering::Relaxed);
    }
    ok
}

/// §4.5 communication thread: service the state channel every
/// `COMM_POLL_PERIOD` of wall time (the transport also wakes on arrival, so
/// the period bounds the check interval), feed the shared mechanism, and
/// wake the worker.
fn comm_loop(
    comm: CommEndpoint<TMsg>,
    cell: SharedMech,
    coord: &Coord,
    recorder: Recorder,
    clock: WallClock,
    nprocs: usize,
    probe: Option<SharedProbe>,
) {
    let me = comm.rank().index();
    let poll = Duration::from_nanos(COMM_POLL_PERIOD.as_nanos());
    let timer_period = {
        let g = lock(&cell.0);
        g.mech.timer_period()
    };
    let mut next_timer = timer_period.map(|p| Instant::now() + clock.to_wall(p));
    loop {
        if coord.is_done() {
            break;
        }
        // The dissemination timer of the periodic/gossip mechanisms lives on
        // this thread: it must fire even while the worker computes.
        if let (Some(at), Some(period)) = (next_timer, timer_period) {
            if Instant::now() >= at {
                let mut g = lock(&cell.0);
                {
                    let MechCell { mech, outbox, .. } = &mut *g;
                    mech.on_timer(outbox);
                }
                let ok = flush_cell(
                    &mut g,
                    StateTx::Comm(&comm),
                    me,
                    nprocs,
                    coord,
                    &recorder,
                    &clock,
                );
                drop(g);
                cell.1.notify_all();
                if !ok && !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                    break;
                }
                next_timer = Some(at + clock.to_wall(period));
            }
        }
        match comm.recv_timeout(poll) {
            Ok(env) => {
                let TMsg::State(msg) = env.msg else {
                    debug_assert!(false, "application traffic on the state channel");
                    continue;
                };
                let mut g = lock(&cell.0);
                let notifies = {
                    let MechCell { mech, outbox, .. } = &mut *g;
                    mech.on_state(env.from, &msg, outbox)
                };
                let ok = flush_cell(
                    &mut g,
                    StateTx::Comm(&comm),
                    me,
                    nprocs,
                    coord,
                    &recorder,
                    &clock,
                );
                // Read under the cell lock, applied to the probe after it.
                let view = g.mech.view();
                let refreshed: Vec<(usize, Load)> = if probe.is_some() {
                    msg.subjects(env.from, ActorId(me))
                        .filter(|q| q.index() != me)
                        .map(|q| (q.index(), view.get(q)))
                        .collect()
                } else {
                    Vec::new()
                };
                g.notifies.extend(notifies);
                drop(g);
                cell.1.notify_all();
                if let Some(probe) = probe.as_ref() {
                    let now = clock.now();
                    let mut pr = lock(probe);
                    for (q, l) in refreshed {
                        pr.set_belief(now, me, q, l.work, l.mem);
                    }
                }
                if !ok && !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                    break;
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => {
                if !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                }
                break;
            }
        }
    }
}

/// Marks the run failed if this worker's thread unwinds, so the remaining
/// threads stop at the next boundary instead of waiting for the deadline.
struct PanicGuard<'a> {
    coord: &'a Coord,
    p: usize,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.coord.fail(RunError::WorkerPanic {
                proc: ActorId(self.p),
            });
        }
    }
}

/// A worker's results: its report outcome and its histogram samples.
type WorkerOutcome = (ProcOutcome, Vec<(&'static str, f64)>);

/// One process of the factorization: the Algorithm 1 loop on a real thread.
struct Worker<'a> {
    p: usize,
    cx: Cx<'a>,
    coord: &'a Coord,
    cell: SharedMech,
    ep: Endpoint<TMsg>,
    clock: WallClock,
    deadline: Instant,
    wall_timeout: Duration,
    recorder: Recorder,
    comm_enabled: bool,
    proc: Proc,
    /// This worker's node table: it only ever touches the entries of the
    /// nodes it owns and of their children.
    nodes: Vec<NodeState>,
    /// Producers of each child node's CB pieces, learned from `CbReady`
    /// senders (includes ourselves for locally produced pieces).
    producers: HashMap<u32, Vec<ActorId>>,
    /// Entries this process retains on its stack per producing node.
    retained: HashMap<u32, f64>,
    /// Self-addressed application messages (local handoff: no network).
    local_app: VecDeque<(ActorId, AppMsg)>,
    /// View-accuracy probe shared across all threads (`None` unless
    /// [`SolverConfig::accuracy`] is set).
    probe: Option<SharedProbe>,
    blocked_wall: Duration,
    next_timer: Option<Instant>,
    timer_wall: Option<Duration>,
    /// Histogram samples, replayed into the run's registry at the end.
    samples: Vec<(&'static str, f64)>,
}

impl<'a> Host<'a> for Worker<'a> {
    const SHARES_COMMITTED_AT_DECISION: bool = false;

    fn cx(&self) -> Cx<'a> {
        self.cx
    }

    fn rank(&self) -> usize {
        self.p
    }

    fn now(&self) -> SimTime {
        self.clock.now()
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
        f(&lock(&self.cell.0).mech)
    }

    fn mech_mut<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
        let (r, ok) = {
            let mut g = lock(&self.cell.0);
            let MechCell { mech, outbox, .. } = &mut *g;
            let r = f(mech, outbox);
            (r, self.flush_locked(&mut g))
        };
        if !ok {
            self.net_fail();
        }
        r
    }

    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64) {
        self.coord.app_msgs.fetch_add(1, Ordering::Relaxed);
        if to as usize == self.p {
            // Local handoff: the data never moves; processed through the
            // mailbox like the simulator does.
            self.local_app.push_back((ActorId(self.p), msg));
            return;
        }
        self.send_regular(ActorId(to as usize), bytes, TMsg::App(msg));
    }

    fn probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe)) {
        if let Some(probe) = self.probe.as_ref() {
            f(&mut lock(probe));
        }
    }

    fn commit_share(&mut self, _q: usize, _work: f64) {
        // Shares are committed by the slave at receipt.
    }

    fn set_parts(&mut self, node: u32, parts: u32) {
        // Stored before any slave task is sent: the channel provides the
        // happens-before edge to the slaves' decrements.
        self.coord.parts_left[node as usize].store(parts, Ordering::SeqCst);
    }

    fn part_done(&mut self, node: u32) {
        let left = self.coord.parts_left[node as usize].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(left > 0, "part underflow at node {node}");
        if left == 1 && self.coord.nodes_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            *lock(&self.coord.done_at) = Some(Instant::now());
            self.coord.done.store(true, Ordering::SeqCst);
        }
    }

    fn retain_cb(&mut self, node: u32, entries: f64) {
        self.retained.insert(node, entries);
    }

    /// Local pieces are freed here; remote producers get a `CbFree`.
    fn release_cbs(&mut self, child: u32) {
        for q in self.producers.remove(&child).unwrap_or_default() {
            if q.index() == self.p {
                self.free_retained(child);
            } else {
                self.send_regular(q, 16, TMsg::CbFree { node: child });
            }
        }
    }

    fn snapshot_begin(&mut self) {
        let now = self.clock.now();
        lock(&self.coord.snp).begin(now);
    }

    fn snapshot_end(&mut self) {
        let now = self.clock.now();
        lock(&self.coord.snp).end(now);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }
}

impl Worker<'_> {
    fn deadline_hit(&self) -> bool {
        Instant::now() >= self.deadline
    }

    fn net_fail(&self) {
        // With no peers at all, a "disconnected" receive is the permanent
        // steady state, not a failure; pace the caller's retry loop instead.
        if self.cx.cfg.nprocs <= 1 {
            std::thread::sleep(WAIT_SLICE);
            return;
        }
        if !self.coord.is_done() {
            self.coord.fail(RunError::Disconnected {
                proc: ActorId(self.p),
            });
        }
    }

    fn blocked(&self) -> bool {
        self.mech(|m| m.blocked())
    }

    fn flush_locked(&self, g: &mut MechCell) -> bool {
        flush_cell(
            g,
            StateTx::Main(&self.ep),
            self.p,
            self.cx.cfg.nprocs,
            self.coord,
            &self.recorder,
            &self.clock,
        )
    }

    fn send_regular(&mut self, to: ActorId, bytes: u64, msg: TMsg) {
        let ok = self.ep.send(to, Channel::Regular, bytes, msg);
        self.coord.net_regular_msgs.fetch_add(1, Ordering::Relaxed);
        self.coord
            .net_regular_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        if !ok {
            self.net_fail();
        }
    }

    fn free_retained(&mut self, node: u32) {
        if let Some(entries) = self.retained.remove(&node) {
            process::free_cb(self, entries);
        }
    }

    fn receive_app(&mut self, from: ActorId, msg: AppMsg) {
        if let AppMsg::CbReady { node } = msg {
            self.producers.entry(node).or_default().push(from);
        }
        process::handle_app(self, msg);
    }

    fn dispatch_regular(&mut self, env: Envelope<TMsg>) {
        match env.msg {
            TMsg::App(msg) => self.receive_app(env.from, msg),
            TMsg::CbFree { node } => self.free_retained(node),
            TMsg::State(msg) => {
                // Only reachable in main-loop mode through recv_timeout's
                // state-first polling.
                debug_assert!(!self.comm_enabled, "state message on the worker");
                process::on_state_msg(self, env.from, &msg, true);
            }
        }
    }

    fn apply_stashed(&mut self) {
        let notifies = std::mem::take(&mut lock(&self.cell.0).notifies);
        process::handle_notifies(self, notifies);
    }

    /// Fire the periodic/gossip dissemination timer (main-loop mode only —
    /// with a comm thread the timer lives there).
    fn maybe_fire_timer(&mut self) {
        let (Some(at), Some(w)) = (self.next_timer, self.timer_wall) else {
            return;
        };
        if Instant::now() < at {
            return;
        }
        self.mech_mut(|m, out| m.on_timer(out));
        self.next_timer = Some(at + w);
    }

    // ----- blocked waits ---------------------------------------------------

    /// The snapshot receive loop: only state messages are treated until the
    /// mechanism unblocks (Algorithm 1's blocked mode).
    fn wait_unblocked(&mut self) {
        let t0 = self.enter_blocked();
        loop {
            if self.coord.is_done() || self.deadline_hit() {
                break;
            }
            if self.comm_enabled {
                let mut g = lock(&self.cell.0);
                // The comm thread only *stashes* notifications; decisions are
                // the worker's. A DecisionReady must be acted on from here —
                // completing the decision is what unblocks the mechanism.
                let notifies = std::mem::take(&mut g.notifies);
                if !notifies.is_empty() {
                    drop(g);
                    process::handle_notifies(self, notifies);
                    continue;
                }
                if !g.mech.blocked() {
                    break;
                }
                drop(self.cell.1.wait_timeout(g, WAIT_SLICE).expect(POISONED));
            } else {
                self.maybe_fire_timer();
                match self.ep.recv_state_timeout(WAIT_SLICE) {
                    Ok(env) => {
                        if let TMsg::State(msg) = env.msg {
                            process::on_state_msg(self, env.from, &msg, true);
                        }
                    }
                    Err(RecvError::Timeout) => {}
                    Err(RecvError::Disconnected) => {
                        self.net_fail();
                        break;
                    }
                }
                if !self.blocked() {
                    break;
                }
            }
        }
        self.leave_blocked(t0);
        self.apply_stashed();
    }

    /// §4.5: the computation pauses while the mechanism is blocked by a
    /// snapshot the comm thread is participating in.
    fn pause_while_blocked(&mut self) {
        let t0 = self.enter_blocked();
        while !self.coord.is_done() && !self.deadline_hit() {
            let g = lock(&self.cell.0);
            if !g.mech.blocked() {
                break;
            }
            drop(self.cell.1.wait_timeout(g, WAIT_SLICE).expect(POISONED));
        }
        self.leave_blocked(t0);
    }

    fn enter_blocked(&mut self) -> Instant {
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || ProtocolEvent::Blocked);
        Instant::now()
    }

    fn leave_blocked(&mut self, t0: Instant) {
        self.blocked_wall += t0.elapsed();
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || ProtocolEvent::Resumed);
    }

    // ----- the Algorithm 1 loop --------------------------------------------

    /// Compute one chunk of ready task `idx`: the simulated duration maps
    /// onto the wall clock through the time scale.
    fn run_task(&mut self, idx: usize) {
        let (task, dur) = process::start_task(self, idx);
        let mut left = self.clock.to_wall(dur);
        while left > Duration::ZERO {
            if self.coord.is_done() {
                return; // failure elsewhere: the report is discarded
            }
            if self.deadline_hit() {
                self.coord.fail(RunError::WallTimeout {
                    limit: self.wall_timeout,
                });
                return;
            }
            if self.comm_enabled && self.blocked() {
                self.pause_while_blocked();
                continue;
            }
            let slice = left.min(COMPUTE_SLICE);
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
        process::finish_chunk(self, task);
    }

    fn idle_wait(&mut self) {
        let recv = if self.comm_enabled {
            self.ep.recv_regular_timeout(WAIT_SLICE)
        } else {
            self.ep.recv_timeout(WAIT_SLICE)
        };
        match recv {
            Ok(env) => self.dispatch_regular(env),
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => self.net_fail(),
        }
    }

    fn run_loop(&mut self) {
        // Main-loop mode fires the dissemination timer here; with a comm
        // thread it lives there.
        if let Some(period) = self.mech(|m| m.timer_period()) {
            if !self.comm_enabled {
                let w = self.clock.to_wall(period);
                self.timer_wall = Some(w);
                self.next_timer = Some(Instant::now() + w);
            }
        }
        process::kick(self);
        loop {
            if self.coord.is_done() {
                break;
            }
            if self.deadline_hit() {
                self.coord.fail(RunError::WallTimeout {
                    limit: self.wall_timeout,
                });
                break;
            }
            if self.comm_enabled {
                self.apply_stashed();
            } else {
                self.maybe_fire_timer();
                // (1) state messages first (Algorithm 1 line 2).
                while let Some(env) = self.ep.try_recv_state() {
                    if let TMsg::State(msg) = env.msg {
                        process::on_state_msg(self, env.from, &msg, true);
                    }
                }
            }
            if self.blocked() {
                self.wait_unblocked();
                continue;
            }
            // (2) pending dynamic decisions.
            if process::try_start_decision(self) {
                continue;
            }
            // (3) other messages (line 4): local handoffs, then the wire.
            if let Some((from, msg)) = self.local_app.pop_front() {
                self.receive_app(from, msg);
                continue;
            }
            if let Some(env) = self.ep.try_recv_regular() {
                self.dispatch_regular(env);
                continue;
            }
            // (4) compute a ready task (line 7).
            if let Some(i) = process::pick_task(self) {
                self.run_task(i);
                continue;
            }
            self.idle_wait();
        }
    }

    fn finish(self) -> WorkerOutcome {
        let stats = self.mech(|m| m.stats().clone());
        let blocked = self.clock.to_sim(self.blocked_wall);
        (self.proc.outcome(stats, blocked), self.samples)
    }
}

/// Run the factorization on real threads. Called by
/// [`Runtime`](crate::run::Runtime) when the backend is
/// [`ExecBackend::Threaded`](crate::config::ExecBackend).
pub(crate) fn run(
    tree: &AssemblyTree,
    plan: TreePlan,
    cfg: SolverConfig,
    t: ThreadedBackend,
    recorder: Recorder,
) -> Result<RunReport, RunError> {
    let nprocs = cfg.nprocs;
    let threshold = cfg
        .threshold
        .unwrap_or_else(|| crate::run::derive_threshold(tree, &plan, &cfg, 1.0));
    let clock = WallClock::starting_now(t.time_scale);
    let deadline = clock.epoch() + t.wall_timeout;
    let coord = Coord::new(&plan);
    let cells: Vec<SharedMech> = (0..nprocs)
        .map(|p| {
            let mut outbox = Outbox::new();
            outbox.set_observe(recorder.is_enabled());
            Arc::new((
                Mutex::new(MechCell {
                    mech: work::build_mechanism(&cfg, &plan, threshold, p),
                    outbox,
                    notifies: Vec::new(),
                }),
                Condvar::new(),
            ))
        })
        .collect();
    let endpoints = ThreadNetwork::new::<TMsg>(nprocs);
    let probe: Option<SharedProbe> = cfg.accuracy.then(|| {
        let guards: Vec<_> = cells.iter().map(|c| lock(&c.0)).collect();
        let views: Vec<_> = guards.iter().map(|g| g.mech.view()).collect();
        Arc::new(Mutex::new(process::seeded_probe(&plan, &views)))
    });

    let mut outcomes: Vec<Option<WorkerOutcome>> = (0..nprocs).map(|_| None).collect();
    let mut worker_panic: Option<usize> = None;
    std::thread::scope(|s| {
        let coord = &coord;
        let cx = Cx {
            cfg: &cfg,
            tree,
            plan: &plan,
        };
        let mut comms = Vec::new();
        let mut workers = Vec::new();
        let comm_enabled = cfg.spawns_comm_threads();
        for (p, ep) in endpoints.into_iter().enumerate() {
            let cell = Arc::clone(&cells[p]);
            if comm_enabled {
                let comm = ep.comm_half();
                let ccell = Arc::clone(&cell);
                let crecorder = recorder.clone();
                let cprobe = probe.clone();
                comms.push(s.spawn(move || {
                    comm_loop(comm, ccell, coord, crecorder, clock, nprocs, cprobe)
                }));
            }
            let wrecorder = recorder.clone();
            let wprobe = probe.clone();
            workers.push(s.spawn(move || {
                let _guard = PanicGuard { coord, p };
                let mut w = Worker {
                    p,
                    cx,
                    coord,
                    cell,
                    ep,
                    clock,
                    deadline,
                    wall_timeout: t.wall_timeout,
                    recorder: wrecorder,
                    comm_enabled,
                    proc: Proc::new(cx.plan, p),
                    nodes: process::node_table(cx.plan),
                    producers: HashMap::new(),
                    retained: HashMap::new(),
                    local_app: VecDeque::new(),
                    probe: wprobe,
                    blocked_wall: Duration::ZERO,
                    next_timer: None,
                    timer_wall: None,
                    samples: Vec::new(),
                };
                w.run_loop();
                w.finish()
            }));
        }
        for (p, h) in workers.into_iter().enumerate() {
            match h.join() {
                Ok(o) => outcomes[p] = Some(o),
                Err(_) => worker_panic = Some(p),
            }
        }
        for h in comms {
            let _ = h.join();
        }
    });

    if let Some(err) = lock(&coord.failed).take() {
        return Err(err);
    }
    if let Some(p) = worker_panic {
        return Err(RunError::WorkerPanic { proc: ActorId(p) });
    }

    let done_at = *lock(&coord.done_at);
    let factor_time = clock.to_sim_time(done_at.unwrap_or_else(Instant::now));
    let mut snapshots = *lock(&coord.snp);
    snapshots.close(factor_time);
    let mut registry = MetricsRegistry::new();
    let outs = outcomes
        .into_iter()
        .map(|o| {
            let (out, samples) = o.expect("worker joined without panic");
            for (name, value) in samples {
                registry.observe(name, value);
            }
            out
        })
        .collect();
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    Ok(RunReport::build(
        outs,
        RunTotals {
            backend: "threaded",
            factor_time,
            net: NetCounters {
                state_msgs: load(&coord.net_state_msgs),
                state_bytes: load(&coord.net_state_bytes),
                regular_msgs: load(&coord.net_regular_msgs),
                regular_bytes: load(&coord.net_regular_bytes),
            },
            app_msgs: load(&coord.app_msgs),
            snapshots,
            events_dropped: recorder.dropped(),
            metrics: registry.snapshot(),
            probe: probe.map(|probe| lock(&probe).clone()),
        },
    ))
}
