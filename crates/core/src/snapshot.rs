//! The demand-driven snapshot mechanism (§3).
//!
//! A process that needs a view of the system initiates a distributed
//! snapshot in the spirit of Chandy & Lamport: it broadcasts `start_snp`,
//! every other process answers with its state in a `snp` message, and after
//! taking its scheduling decision the initiator broadcasts `end_snp`.
//!
//! Because several processes may need a snapshot *simultaneously*, and each
//! decision changes the very quantities being measured, concurrent snapshots
//! must be **sequentialised**: a rank-based distributed leader election
//! decides which initiator completes first, and every process *delays* its
//! answer to any initiator that is not the current leader. The delayed
//! answers are released — carrying post-decision state — when the leader's
//! `end_snp` arrives and a new leader is elected among the remaining
//! initiators.
//!
//! Each process keeps the active initiators (its own rank included while its
//! snapshot is pending) in a `RankSet`, one bit per rank with a count, so
//! that adding, removing and testing an initiator is one word operation, and
//! election reads an end of the set — the first rank under
//! [`LeaderPolicy::MinRank`], the last under [`LeaderPolicy::MaxRank`] — by
//! scanning P/64 words. The paper's `nb_snp` (concurrent snapshots other
//! than our own) is the set's count less our own entry. The processes owed a
//! delayed answer are a second such set.
//!
//! Two departures from the report's pseudo-code, both resolving control-flow
//! holes in it while preserving its evident intent (the elected leader
//! completes its snapshot first, and every snapshot sees the decisions of
//! the snapshots serialized before it):
//!
//! 1. An initiator that *lost* the election while it was the only other
//!    known initiator (`nb_snp == 1`, the paper's `during_snp := false`
//!    path) marks itself *abandoned*. If the system later drains
//!    (`nb_snp == 0`) it re-initiates with a fresh request id exactly as in
//!    the paper; but if instead it is **re-elected leader** while other
//!    snapshots are still pending, it resumes its original request (the
//!    other processes hold that request id and answer it on re-election —
//!    following the pseudo-code literally would deadlock here).
//! 2. Answer counting is done in the message handler rather than in nested
//!    blocking receive loops; the observable message sequence is unchanged.
//!
//! Known gap: a process answers the first `start_snp` it sees at once
//! (reception lines 11–14). An initiator that loses the election but keeps
//! its request id — it saw several rivals, or it resumes on re-election —
//! counts those early answers, so its view can miss the `MasterToSlave`
//! shares of the decisions serialized before it. The decisions themselves
//! stay serialized in election order.

use crate::load::Load;
use crate::mech::{ChangeOrigin, Gate, MechStats, Mechanism, Notify};
use crate::msg::StateMsg;
use crate::outbox::Outbox;
use crate::view::LoadTable;
use loadex_obs::{event, ProtocolEvent};
use loadex_sim::{ActorId, RankSet};
use std::sync::Arc;

/// Where the initiator side of the state machine stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// No snapshot of our own in flight.
    Idle,
    /// Broadcast `start_snp`, counting `snp` answers.
    Gathering,
    /// All answers in; waiting for the caller to take its decision.
    ReadyToDecide,
}

/// Criterion used to elect the leader among concurrent snapshot initiators.
///
/// The paper uses the smallest process rank and notes in §5 that studying
/// this criterion "probably \[has\] a significant impact on the overall
/// behaviour" — so it is a parameter here. All processes of a system must
/// use the same policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LeaderPolicy {
    /// Smallest rank wins (the paper's choice).
    #[default]
    MinRank,
    /// Largest rank wins.
    MaxRank,
}

impl LeaderPolicy {
    /// Election step: combine a candidate with the current leader.
    fn elect(self, a: ActorId, b: Option<ActorId>) -> ActorId {
        match (self, b) {
            (LeaderPolicy::MinRank, Some(b)) if b.index() < a.index() => b,
            (LeaderPolicy::MaxRank, Some(b)) if b.index() > a.index() => b,
            _ => a,
        }
    }
}

/// Demand-driven distributed snapshot mechanism.
pub struct SnapshotMechanism {
    me: ActorId,
    view: LoadTable,
    /// Current presumed leader among active initiators.
    leader: Option<ActorId>,
    /// Active snapshot for which we are not leader (the paper's `snapshot`).
    snapshot: bool,
    /// Last request id seen (or issued, for our own slot) per process.
    request: Vec<u64>,
    /// Processes that currently have an initiated snapshot.
    active: RankSet,
    /// Processes we owe a delayed answer.
    delayed: RankSet,
    /// Answers received for our current request.
    nb_msgs: usize,
    phase: Phase,
    /// Lost the election as sole rival (`during_snp := false` in the paper);
    /// completion is suppressed until re-elected or re-initiated.
    abandoned: bool,
    /// A decision was requested while blocked; initiate once free.
    deferred_init: bool,
    /// Leader-election criterion (must be system-wide uniform).
    policy: LeaderPolicy,
    /// Processes queried by the current/pending snapshot (§5's "snapshot
    /// algorithms involving only part of the processes"): every other
    /// process in the classic full snapshot. Shared with the partial
    /// snapshot's `start_snp` and `end_snp` multicasts. Its size is the
    /// number of answers required.
    gather_set: Arc<RankSet>,
    /// Whether the current/pending own snapshot is partial.
    my_partial: bool,
    stats: MechStats,
}

impl SnapshotMechanism {
    /// A mechanism instance for process `me` of `nprocs`, with the paper's
    /// min-rank leader election.
    pub fn new(me: ActorId, nprocs: usize) -> Self {
        Self::with_policy(me, nprocs, LeaderPolicy::MinRank)
    }

    /// A mechanism instance with an explicit leader-election policy.
    pub fn with_policy(me: ActorId, nprocs: usize, policy: LeaderPolicy) -> Self {
        SnapshotMechanism {
            me,
            view: LoadTable::new(me, nprocs),
            leader: None,
            snapshot: false,
            request: vec![0; nprocs],
            active: RankSet::new(nprocs),
            delayed: RankSet::new(nprocs),
            nb_msgs: 0,
            phase: Phase::Idle,
            abandoned: false,
            deferred_init: false,
            policy,
            gather_set: Arc::new(RankSet::all_but(nprocs, me)),
            my_partial: false,
            stats: MechStats::default(),
        }
    }

    /// Set the initial local load (statically known subtree costs).
    pub fn initialize(&mut self, load: Load) {
        self.view.set(self.me, load);
    }

    /// Seed the belief about another process's initial load (the snapshot
    /// mechanism refreshes these on demand anyway).
    pub fn initialize_peer(&mut self, p: ActorId, load: Load) {
        self.view.set(p, load);
    }

    /// Number of `snp` answers still missing for our current request
    /// (diagnostic).
    pub fn missing_answers(&self) -> usize {
        if self.phase == Phase::Gathering {
            self.gather_set.len() - self.nb_msgs
        } else {
            0
        }
    }

    /// Current request id of our own snapshot.
    pub fn my_request(&self) -> u64 {
        self.request[self.me.index()]
    }

    /// The leader this process currently presumes, if any (diagnostic).
    pub fn leader(&self) -> Option<ActorId> {
        self.leader
    }

    /// Processes with an initiated snapshot, in rank order (diagnostic).
    pub fn active_initiators(&self) -> impl Iterator<Item = ActorId> + '_ {
        self.active.iter()
    }

    /// Number of concurrent snapshots *excluding our own* (the paper's
    /// `nb_snp`).
    fn nb_snp(&self) -> usize {
        self.active.len() - usize::from(self.active.contains(self.me))
    }

    fn my_state(&self) -> Load {
        self.view.my_load()
    }

    fn initiate_now(&mut self, out: &mut Outbox) {
        self.leader = Some(self.me);
        self.active.insert(self.me);
        self.request[self.me.index()] += 1;
        self.nb_msgs = 0;
        self.phase = Phase::Gathering;
        self.abandoned = false;
        let my_req = self.request[self.me.index()];
        out.note(|| ProtocolEvent::SnapshotStart {
            req: event::narrow(my_req),
        });
        let msg = StateMsg::StartSnp {
            req: self.request[self.me.index()],
            partial: self.my_partial,
        };
        if self.gather_set.len() == self.view.nprocs() - 1 {
            self.stats.count_sent(&msg, self.view.nprocs() - 1);
            out.broadcast(msg);
        } else {
            // Partial snapshot: only the candidate subset is queried (and
            // thus synchronized); disjoint snapshots proceed concurrently.
            self.stats.count_sent(&msg, self.gather_set.len());
            out.multicast_set(&self.gather_set, msg);
        }
        self.stats.snapshots_started += 1;
    }

    fn gathering_complete(&mut self) -> Option<Notify> {
        // Initiate-a-snapshot lines 17–19: all answers in.
        self.active.remove(self.me);
        self.phase = Phase::ReadyToDecide;
        Some(Notify::DecisionReady)
    }

    /// Elect a leader among the processes with an active snapshot (including
    /// ourselves if our own is still pending).
    fn elect_among_active(&self) -> Option<ActorId> {
        match self.policy {
            LeaderPolicy::MinRank => self.active.first(),
            LeaderPolicy::MaxRank => self.active.last(),
        }
    }

    fn on_start_snp(
        &mut self,
        pi: ActorId,
        req: u64,
        partial: bool,
        out: &mut Outbox,
    ) -> Option<Notify> {
        // Reception lines 1–6.
        self.leader = Some(self.policy.elect(pi, self.leader));
        self.request[pi.index()] = req;
        self.active.insert(pi);
        // Lines 7–10: we are the leader — make the rival wait.
        if self.leader == Some(self.me) {
            self.delayed.insert(pi);
            self.stats.delayed_answers += 1;
            if self.phase == Phase::Gathering {
                let my_req = self.request[self.me.index()];
                out.note(|| ProtocolEvent::ElectionWon {
                    req: event::narrow(my_req),
                });
            }
            out.note(|| ProtocolEvent::DelayedAnswer {
                to: event::rank(pi),
                req: event::narrow(req),
            });
            return None;
        }
        // §5 extension note: for *partial* snapshots, `pi` may not have
        // queried the other active initiators, so the election below only
        // serializes overlapping snapshots when the preferred initiator's
        // request reaches shared candidates before they answer a rival —
        // the "weaker synchronization" the paper proposes to study. No
        // additional delaying is sound here: holding back a
        // policy-preferred newcomer deadlocks mutually-unaware initiators.
        let _ = partial;
        if !self.snapshot {
            // Lines 11–14: first snapshot we hear about — answer immediately.
            self.snapshot = true;
            self.leader = Some(pi);
            let answer = StateMsg::Snp {
                load: self.my_state(),
                req,
            };
            self.stats.count_sent(&answer, 1);
            out.send(pi, answer);
            // Lines 23–27 as seen from a gathering initiator that just lost
            // the election: if the rival is the only other active snapshot
            // (`nb_snp == 1`), the paper abandons the current attempt
            // (`during_snp := false`) and will re-issue it later.
            if self.phase == Phase::Gathering && self.nb_snp() == 1 {
                self.abandoned = true;
                let my_req = self.request[self.me.index()];
                out.note(|| ProtocolEvent::ElectionLost {
                    req: event::narrow(my_req),
                    winner: event::rank(pi),
                });
            }
            Some(Notify::Blocked)
        } else {
            // Lines 15–22: already in snapshot mode.
            if self.leader != Some(pi) || self.delayed.contains(pi) {
                self.delayed.insert(pi);
                self.stats.delayed_answers += 1;
                out.note(|| ProtocolEvent::DelayedAnswer {
                    to: event::rank(pi),
                    req: event::narrow(req),
                });
            } else {
                let answer = StateMsg::Snp {
                    load: self.my_state(),
                    req,
                };
                self.stats.count_sent(&answer, 1);
                out.send(pi, answer);
            }
            None
        }
    }

    fn on_end_snp(&mut self, pi: ActorId, out: &mut Outbox) -> Option<Notify> {
        // End-snp reception lines 1–3.
        self.leader = None;
        self.active.remove(pi);
        if self.nb_snp() == 0 {
            let was_blocked = self.snapshot;
            self.snapshot = false;
            if self.phase == Phase::Gathering && self.abandoned {
                // The paper's re-initiation path: fresh request id, fresh
                // broadcast; stale answers are discarded by the id check.
                self.stats.snapshot_rebroadcasts += 1;
                self.initiate_now(out);
            } else if self.deferred_init {
                self.deferred_init = false;
                self.initiate_now(out);
            } else if self.phase == Phase::Idle && was_blocked {
                return Some(Notify::Resumed);
            }
            // phase == Gathering && !abandoned: keep waiting for the
            // outstanding answers on the current request id.
        } else {
            // Lines 7–18: elect the next leader among remaining initiators.
            let next = self.elect_among_active();
            self.leader = next;
            if let Some(l) = next {
                if l == self.me {
                    // We are the next leader. If our attempt had been
                    // abandoned, resume it: the others hold our request id
                    // and will now release their delayed answers to us.
                    if self.phase == Phase::Gathering && self.abandoned {
                        self.abandoned = false;
                        let my_req = self.request[self.me.index()];
                        out.note(|| ProtocolEvent::ElectionWon {
                            req: event::narrow(my_req),
                        });
                        if self.nb_msgs == self.gather_set.len() {
                            return self.gathering_complete();
                        }
                    }
                } else {
                    self.release_delayed(l, out);
                }
            }
        }
        None
    }

    /// Send `l` the answer we delayed, if we owe it one.
    fn release_delayed(&mut self, l: ActorId, out: &mut Outbox) {
        if self.delayed.remove(l) {
            let answer = StateMsg::Snp {
                load: self.my_state(),
                req: self.request[l.index()],
            };
            self.stats.count_sent(&answer, 1);
            out.send(l, answer);
        }
    }

    fn on_snp(&mut self, from: ActorId, load: Load, req: u64) -> Option<Notify> {
        // Snp reception: only answers to our *current* request are valid.
        if req != self.request[self.me.index()] || self.phase != Phase::Gathering {
            return None;
        }
        self.nb_msgs += 1;
        self.view.set(from, load);
        if !self.abandoned && self.nb_msgs == self.gather_set.len() {
            return self.gathering_complete();
        }
        None
    }
}

impl SnapshotMechanism {
    /// §5 extension: open a decision with a **partial snapshot** querying
    /// only `candidates`. Only those processes are synchronized; snapshots
    /// with disjoint candidate sets proceed concurrently, while overlapping
    /// ones still serialize through their shared candidates and the leader
    /// election. The subsequent slave selection should stay within
    /// `candidates` (other view entries may be stale).
    pub fn request_decision_among(&mut self, candidates: &[ActorId], out: &mut Outbox) -> Gate {
        assert!(!candidates.is_empty(), "empty candidate set");
        let gather_set = Arc::make_mut(&mut self.gather_set);
        gather_set.clear();
        for &c in candidates {
            assert_ne!(c, self.me, "the initiator is not a candidate");
            gather_set.insert(c);
        }
        self.my_partial = true;
        self.request_prepared(out)
    }

    fn request_prepared(&mut self, out: &mut Outbox) -> Gate {
        assert_eq!(self.phase, Phase::Idle, "nested decision request");
        if self.view.nprocs() == 1 || self.gather_set.is_empty() {
            // Degenerate: nobody to ask; the view is trivially "complete".
            self.phase = Phase::ReadyToDecide;
            return Gate::Ready;
        }
        if self.snapshot {
            // Blocked by someone else's snapshot: initiate once it clears.
            self.deferred_init = true;
            self.active.insert(self.me);
        } else {
            self.initiate_now(out);
        }
        Gate::Wait
    }
}

impl Mechanism for SnapshotMechanism {
    fn on_local_change(&mut self, delta: Load, origin: ChangeOrigin, _out: &mut Outbox) {
        // "A processor is responsible for updating its own load information
        // regularly" (§3) — no broadcasts, the data travels inside `snp`
        // answers. A positive slave-task variation was already applied on
        // reception of `master_to_slave`.
        if origin == ChangeOrigin::SlaveTask && delta.is_non_negative() {
            return;
        }
        self.view.add(self.me, delta);
    }

    fn on_state(&mut self, from: ActorId, msg: &StateMsg, out: &mut Outbox) -> Option<Notify> {
        self.stats.msgs_received += 1;
        out.note(|| ProtocolEvent::state_recv(from, msg.kind(), msg.wire_size()));
        match *msg {
            StateMsg::StartSnp { req, partial } => self.on_start_snp(from, req, partial, out),
            StateMsg::EndSnp => self.on_end_snp(from, out),
            StateMsg::Snp { load, req } => self.on_snp(from, load, req),
            StateMsg::MasterToSlave { delta } => {
                // Algorithm 4: the selected slave charges its share so that a
                // subsequent snapshot sees the previous decision.
                self.view.add(self.me, delta);
                None
            }
            ref other => panic!("snapshot mechanism received unexpected message {:?}", other),
        }
    }

    fn request_decision(&mut self, out: &mut Outbox) -> Gate {
        // Classic full snapshot: query everyone.
        let nprocs = self.view.nprocs();
        if self.gather_set.len() != nprocs - 1 {
            Arc::make_mut(&mut self.gather_set).fill_all_but(nprocs, self.me);
        }
        self.my_partial = false;
        self.request_prepared(out)
    }

    fn complete_decision(
        &mut self,
        assignments: &[(ActorId, Load)],
        out: &mut Outbox,
    ) -> Option<Notify> {
        assert_eq!(self.phase, Phase::ReadyToDecide, "no decision in flight");
        self.stats.decisions += 1;
        let my_req = self.request[self.me.index()];
        out.note(|| ProtocolEvent::SnapshotEnd {
            req: event::narrow(my_req),
        });
        // Algorithm 4 lines 3–5: tell each selected slave its share.
        for &(p, dl) in assignments {
            debug_assert_ne!(p, self.me);
            self.view.add(p, dl);
            let msg = StateMsg::MasterToSlave { delta: dl };
            self.stats.count_sent(&msg, 1);
            out.send(p, msg);
        }
        // Finalize-the-snapshot: release exactly the processes we queried.
        let end = StateMsg::EndSnp;
        if self.gather_set.len() == self.view.nprocs() - 1 {
            self.stats.count_sent(&end, self.view.nprocs() - 1);
            out.broadcast(end);
        } else {
            self.stats.count_sent(&end, self.gather_set.len());
            out.multicast_set(&self.gather_set, end);
        }
        self.leader = None;
        self.phase = Phase::Idle;
        if self.nb_snp() != 0 {
            // Other snapshots are pending: we wait for them (lines 3–16 of
            // Finalize), releasing our delayed answer to the new leader.
            self.snapshot = true;
            let next = self.elect_among_active();
            self.leader = next;
            if let Some(l) = next.filter(|&l| l != self.me) {
                self.release_delayed(l, out);
            }
            Some(Notify::Blocked)
        } else {
            self.snapshot = false;
            Some(Notify::Resumed)
        }
    }

    fn no_more_master(&mut self, _out: &mut Outbox) {
        // Demand-driven: nothing is maintained, so there is no standing
        // traffic to cancel. (§5's "snapshots involving only part of the
        // processes" is listed as future work in the paper.)
    }

    fn view(&self) -> &LoadTable {
        &self.view
    }

    fn blocked(&self) -> bool {
        self.snapshot || self.phase != Phase::Idle || self.deferred_init
    }

    fn stats(&self) -> &MechStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::{Dest, OutMsg};
    use loadex_sim::{Dests, SimRng};
    use std::collections::VecDeque;

    /// A tiny synchronous postman delivering staged messages between
    /// mechanism instances, preserving per-sender FIFO order.
    struct Cluster {
        mechs: Vec<SnapshotMechanism>,
        queue: VecDeque<(ActorId, ActorId, StateMsg)>,
        notifications: Vec<(ActorId, Notify)>,
    }

    impl Cluster {
        fn new(n: usize) -> Self {
            Self::with_policy(n, LeaderPolicy::MinRank)
        }

        fn with_policy(n: usize, policy: LeaderPolicy) -> Self {
            Cluster {
                mechs: (0..n)
                    .map(|i| SnapshotMechanism::with_policy(ActorId(i), n, policy))
                    .collect(),
                queue: VecDeque::new(),
                notifications: Vec::new(),
            }
        }

        fn stage(&mut self, from: ActorId, out: &mut Outbox) {
            let n = self.mechs.len();
            for OutMsg { dest, msg } in out.drain() {
                for to in dest.into_dests(from, n).iter() {
                    self.queue.push_back((from, to, msg.clone()));
                }
            }
        }

        /// Deliver one pending message; returns false if none pending.
        fn deliver_one(&mut self) -> bool {
            let Some((from, to, msg)) = self.queue.pop_front() else {
                return false;
            };
            let mut out = Outbox::new();
            let notifies = self.mechs[to.index()].on_state_msg(from, msg, &mut out);
            if let Some(nf) = notifies {
                self.notifications.push((to, nf));
            }
            self.stage(to, &mut out);
            true
        }

        fn deliver_all(&mut self) {
            let mut guard = 0;
            while self.deliver_one() {
                guard += 1;
                assert!(guard < 100_000, "message storm: protocol diverged");
            }
        }

        fn request_decision(&mut self, p: ActorId) -> Gate {
            let mut out = Outbox::new();
            let gate = self.mechs[p.index()].request_decision(&mut out);
            self.stage(p, &mut out);
            gate
        }

        fn complete_decision(&mut self, p: ActorId, sel: &[(ActorId, Load)]) {
            let mut out = Outbox::new();
            let notifies = self.mechs[p.index()].complete_decision(sel, &mut out);
            if let Some(nf) = notifies {
                self.notifications.push((p, nf));
            }
            self.stage(p, &mut out);
        }

        fn set_load(&mut self, p: ActorId, load: Load) {
            self.mechs[p.index()].initialize(load);
        }

        fn decision_ready(&self, p: ActorId) -> bool {
            self.mechs[p.index()].phase == Phase::ReadyToDecide
        }
    }

    #[test]
    fn single_snapshot_full_cycle() {
        let mut c = Cluster::new(3);
        c.set_load(ActorId(0), Load::work(1.0));
        c.set_load(ActorId(1), Load::work(2.0));
        c.set_load(ActorId(2), Load::work(3.0));

        assert_eq!(c.request_decision(ActorId(0)), Gate::Wait);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        // The gathered view is exact.
        assert_eq!(c.mechs[0].view().get(ActorId(1)), Load::work(2.0));
        assert_eq!(c.mechs[0].view().get(ActorId(2)), Load::work(3.0));
        // Others are blocked while the snapshot is open.
        assert!(c.mechs[1].blocked());
        assert!(c.mechs[2].blocked());

        c.complete_decision(ActorId(0), &[(ActorId(1), Load::work(10.0))]);
        c.deliver_all();
        // Everyone resumed, slave charged.
        assert!(!c.mechs[0].blocked());
        assert!(!c.mechs[1].blocked());
        assert!(!c.mechs[2].blocked());
        assert_eq!(c.mechs[1].view().my_load(), Load::work(12.0));
        assert!(c.notifications.contains(&(ActorId(1), Notify::Resumed)));
        assert!(c
            .notifications
            .contains(&(ActorId(0), Notify::DecisionReady)));
    }

    #[test]
    fn concurrent_snapshots_serialize_min_rank_first() {
        let mut c = Cluster::new(4);
        for p in 0..4 {
            c.set_load(ActorId(p), Load::work(p as f64));
        }
        // P2 and P1 initiate before any message is delivered.
        assert_eq!(c.request_decision(ActorId(2)), Gate::Wait);
        assert_eq!(c.request_decision(ActorId(1)), Gate::Wait);
        c.deliver_all();
        // Only the smaller rank completed.
        assert!(c.decision_ready(ActorId(1)), "P1 must win the election");
        assert!(!c.decision_ready(ActorId(2)), "P2 must be delayed");

        // P1 decides: gives P3 some work.
        c.complete_decision(ActorId(1), &[(ActorId(3), Load::work(100.0))]);
        c.deliver_all();
        // Now P2's snapshot completes and *sees P1's decision on P3*.
        assert!(c.decision_ready(ActorId(2)));
        assert_eq!(
            c.mechs[2].view().get(ActorId(3)),
            Load::work(3.0 + 100.0),
            "sequentialisation must expose the first decision to the second"
        );
        c.complete_decision(ActorId(2), &[]);
        c.deliver_all();
        for p in 0..4 {
            assert!(!c.mechs[p].blocked(), "P{p} still blocked");
        }
    }

    #[test]
    fn three_concurrent_initiators_serialize_in_rank_order() {
        let mut c = Cluster::new(5);
        for p in 0..5 {
            c.set_load(ActorId(p), Load::work(10.0 * p as f64));
        }
        c.request_decision(ActorId(3));
        c.request_decision(ActorId(0));
        c.request_decision(ActorId(2));
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        assert!(!c.decision_ready(ActorId(2)));
        assert!(!c.decision_ready(ActorId(3)));

        c.complete_decision(ActorId(0), &[(ActorId(4), Load::work(7.0))]);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(2)));
        assert!(!c.decision_ready(ActorId(3)));
        assert_eq!(c.mechs[2].view().get(ActorId(4)), Load::work(47.0));

        c.complete_decision(ActorId(2), &[(ActorId(4), Load::work(5.0))]);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(3)));
        assert_eq!(c.mechs[3].view().get(ActorId(4)), Load::work(52.0));

        c.complete_decision(ActorId(3), &[]);
        c.deliver_all();
        for p in 0..5 {
            assert!(!c.mechs[p].blocked(), "P{p} still blocked");
        }
    }

    /// One decision of [`eight_random_initiators`]: who took it, whether it
    /// re-issued its snapshot under a fresh request id, and which ranks its
    /// gathered view got wrong (missing an earlier `MasterToSlave` share).
    struct Decided {
        leader: ActorId,
        reissued: bool,
        stale: Vec<usize>,
    }

    /// P = 32 with 8 seeded-random initiators, all broadcasting `start_snp`
    /// before any message is delivered. Each leader, in policy order, hands
    /// two seeded-random processes a distinct share. Checks that decisions
    /// become ready one at a time in policy order and that every process
    /// ends unblocked; returns what each decision saw.
    fn eight_random_initiators(policy: LeaderPolicy, seed: u64) -> Vec<Decided> {
        const N: usize = 32;
        let ctx = format!("{policy:?} seed {seed}");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ranks: Vec<ActorId> = (0..N).map(ActorId).collect();
        rng.shuffle(&mut ranks);
        let initiators = &ranks[..8];
        let mut c = Cluster::with_policy(N, policy);
        let mut truth: Vec<f64> = (0..N).map(|p| p as f64).collect();
        for (p, &w) in truth.iter().enumerate() {
            c.set_load(ActorId(p), Load::work(w));
        }
        for &p in initiators {
            assert_eq!(c.request_decision(p), Gate::Wait, "{ctx}");
        }
        let mut order = initiators.to_vec();
        order.sort();
        if policy == LeaderPolicy::MaxRank {
            order.reverse();
        }
        c.deliver_all();
        let mut decided = Vec::new();
        for (i, &leader) in order.iter().enumerate() {
            assert!(c.decision_ready(leader), "{ctx}: {leader} not ready at {i}");
            for &later in &order[i + 1..] {
                assert!(
                    !c.decision_ready(later),
                    "{ctx}: {later} ready before {leader}"
                );
            }
            let m = &c.mechs[leader.index()];
            decided.push(Decided {
                leader,
                reissued: m.stats().snapshot_rebroadcasts > 0,
                stale: (0..N)
                    .filter(|&q| {
                        q != leader.index() && m.view().get(ActorId(q)) != Load::work(truth[q])
                    })
                    .collect(),
            });
            let mut shares = Vec::new();
            while shares.len() < 2 {
                let q = ActorId(rng.next_below(N as u64) as usize);
                if q != leader && shares.iter().all(|&(s, _)| s != q) {
                    let w = 100.0 * (i + 1) as f64 + shares.len() as f64;
                    truth[q.index()] += w;
                    shares.push((q, Load::work(w)));
                }
            }
            c.complete_decision(leader, &shares);
            c.deliver_all();
        }
        let ready: Vec<ActorId> = c
            .notifications
            .iter()
            .filter(|(_, nf)| *nf == Notify::DecisionReady)
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(ready, order, "{ctx}: readiness order");
        for p in 0..N {
            assert!(!c.mechs[p].blocked(), "{ctx}: P{p} still blocked");
        }
        decided
    }

    const POLICIES: [LeaderPolicy; 2] = [LeaderPolicy::MinRank, LeaderPolicy::MaxRank];

    #[test]
    fn eight_random_initiators_serialize_in_policy_order() {
        for policy in POLICIES {
            for seed in 1..=6 {
                let decided = eight_random_initiators(policy, seed);
                // The first decision, and any snapshot re-issued under a
                // fresh request id, gather answers sent after every earlier
                // decision: their views are exact.
                for (i, d) in decided.iter().enumerate() {
                    if i == 0 || d.reissued {
                        assert!(
                            d.stale.is_empty(),
                            "{policy:?} seed {seed}: {} stale {:?}",
                            d.leader,
                            d.stale
                        );
                    }
                }
            }
        }
    }

    /// Known protocol defect: a bystander answers the first `start_snp` it
    /// sees at once (reception lines 11–14), so a non-leader initiator that
    /// keeps its request id counts answers sent before the leader's decision
    /// and misses its `MasterToSlave` shares.
    #[test]
    #[ignore = "known defect: early snp answers to a non-leader initiator are never refreshed"]
    fn eight_random_initiators_see_every_earlier_share() {
        for policy in POLICIES {
            for seed in 1..=6 {
                for d in eight_random_initiators(policy, seed) {
                    assert!(
                        d.stale.is_empty(),
                        "{policy:?} seed {seed}: {} stale {:?}",
                        d.leader,
                        d.stale
                    );
                }
            }
        }
    }

    /// P = 130: the active set spans three words. Initiators at the ends
    /// and on both sides of each word boundary all request before any
    /// message moves; each policy must pick them off from its own end,
    /// every later one seeing the shares of the decisions before it.
    #[test]
    fn initiators_across_word_boundaries_decide_in_policy_order() {
        const N: usize = 130;
        for policy in POLICIES {
            let mut c = Cluster::with_policy(N, policy);
            let initiators = [64, 0, 129, 127, 63].map(ActorId);
            for &p in &initiators {
                assert_eq!(c.request_decision(p), Gate::Wait);
            }
            let mut order = initiators.to_vec();
            order.sort();
            if policy == LeaderPolicy::MaxRank {
                order.reverse();
            }
            c.deliver_all();
            // Every bystander sees all five initiators and the same leader.
            let bystander = &c.mechs[100];
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(bystander.active_initiators().collect::<Vec<_>>(), sorted);
            assert_eq!(bystander.leader(), Some(order[0]), "{policy:?}");
            let slave = ActorId(1); // not an initiator
            let mut charged = 0.0;
            for (i, &leader) in order.iter().enumerate() {
                assert!(c.decision_ready(leader), "{policy:?}: {leader} at {i}");
                for &later in &order[i + 1..] {
                    assert!(!c.decision_ready(later), "{policy:?}: {later} early");
                }
                if i == 0 || c.mechs[leader.index()].stats().snapshot_rebroadcasts > 0 {
                    assert_eq!(
                        c.mechs[leader.index()].view().get(slave),
                        Load::work(charged),
                        "{policy:?}: {leader} misses an earlier share"
                    );
                }
                charged += 1.0;
                c.complete_decision(leader, &[(slave, Load::work(1.0))]);
                c.deliver_all();
            }
            let ready: Vec<ActorId> = c
                .notifications
                .iter()
                .filter(|(_, nf)| *nf == Notify::DecisionReady)
                .map(|&(p, _)| p)
                .collect();
            assert_eq!(ready, order, "{policy:?}: readiness order");
            for p in 0..N {
                assert!(!c.mechs[p].blocked(), "{policy:?}: P{p} still blocked");
            }
        }
    }

    #[test]
    fn election_state_is_readable_in_rank_order() {
        let mut c = Cluster::new(5);
        c.request_decision(ActorId(3));
        c.request_decision(ActorId(0));
        c.request_decision(ActorId(2));
        c.deliver_all();
        let active = |m: &SnapshotMechanism| m.active_initiators().collect::<Vec<_>>();
        // A bystander sees every initiator, sorted, and the min-rank leader.
        assert_eq!(
            active(&c.mechs[4]),
            vec![ActorId(0), ActorId(2), ActorId(3)]
        );
        assert_eq!(c.mechs[4].leader(), Some(ActorId(0)));
        // The ready leader has left the set but still leads.
        assert_eq!(active(&c.mechs[0]), vec![ActorId(2), ActorId(3)]);
        assert_eq!(c.mechs[0].leader(), Some(ActorId(0)));
        c.complete_decision(ActorId(0), &[]);
        c.deliver_all();
        assert_eq!(active(&c.mechs[4]), vec![ActorId(2), ActorId(3)]);
        assert_eq!(c.mechs[4].leader(), Some(ActorId(2)));
    }

    #[test]
    fn paper_asynchronism_example() {
        // §3's worked example, processes renamed to ranks 0..2 with
        // P1 (rank 1) receiving start_snp from P3 (rank 2) then P2 (rank 0
        // is the smallest and thus leader — we map: P2→rank0, P1→rank1,
        // P3→rank2). P1 answers P3 first, then P2 which is the leader. When
        // P2 completes, P3's re-initiated snapshot must not be answered by
        // P1 until P2's end_snp reaches P1.
        let mut c = Cluster::new(3);
        let p2 = ActorId(0); // leader (smallest rank)
        let p1 = ActorId(1); // bystander
        let p3 = ActorId(2); // second initiator
        c.set_load(p1, Load::work(5.0));

        // Both initiate; nothing delivered yet.
        c.request_decision(p3);
        c.request_decision(p2);

        // P1 receives p3's start_snp first: answers it (first snapshot seen).
        let (_, _, m1) = {
            let pos = c
                .queue
                .iter()
                .position(|(f, t, m)| {
                    *f == p3 && *t == p1 && matches!(m, StateMsg::StartSnp { .. })
                })
                .unwrap();
            c.queue.remove(pos).unwrap()
        };
        let mut out = Outbox::new();
        c.mechs[p1.index()].on_state_msg(p3, m1, &mut out);
        let answered_p3 = out
            .peek()
            .iter()
            .any(|o| o.dest == Dest::To(Dests::One(p3)));
        assert!(answered_p3, "first start_snp seen is answered immediately");
        c.stage(p1, &mut out);

        // Then P1 receives p2's start_snp: p2 outranks p3, so p1 answers p2.
        let (_, _, m2) = {
            let pos = c
                .queue
                .iter()
                .position(|(f, t, m)| {
                    *f == p2 && *t == p1 && matches!(m, StateMsg::StartSnp { .. })
                })
                .unwrap();
            c.queue.remove(pos).unwrap()
        };
        let mut out = Outbox::new();
        c.mechs[p1.index()].on_state_msg(p2, m2, &mut out);
        assert!(out
            .peek()
            .iter()
            .any(|o| o.dest == Dest::To(Dests::One(p2))));
        c.stage(p1, &mut out);

        // Let everything settle: p2 (leader) completes first.
        c.deliver_all();
        assert!(c.decision_ready(p2));
        c.complete_decision(p2, &[(p1, Load::work(50.0))]);

        // p2's end_snp is in flight. Suppose p3's *new* start_snp reaches p1
        // before p2's end_snp (the paper's heterogeneous-links scenario).
        // Deliver everything except end_snp messages destined to p1.
        let mut deferred = VecDeque::new();
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            let Some((f, t, m)) = c.queue.pop_front() else {
                break;
            };
            if t == p1 && matches!(m, StateMsg::EndSnp) {
                deferred.push_back((f, t, m));
                continue;
            }
            let mut out = Outbox::new();
            c.mechs[t.index()].on_state_msg(f, m, &mut out);
            c.stage(t, &mut out);
            if c.decision_ready(p3) {
                // p3 completed its re-snapshot? It must NOT have p1's answer
                // yet — p1 delays until it sees p2's end_snp.
                break;
            }
        }
        // p1 must still be waiting (did not answer p3's new request).
        assert!(
            !c.decision_ready(p3),
            "p3 cannot complete before p1 answers"
        );
        assert!(
            c.mechs[p1.index()].delayed.contains(p3),
            "p1 delays p3's new request"
        );

        // Now release the end_snp to p1: p1 elects p3 and releases the
        // delayed answer — which includes p2's decision (p1 got 50 work).
        for (f, t, m) in deferred {
            let mut out = Outbox::new();
            c.mechs[t.index()].on_state_msg(f, m, &mut out);
            c.stage(t, &mut out);
        }
        c.deliver_all();
        assert!(c.decision_ready(p3));
        assert_eq!(
            c.mechs[p3.index()].view().get(p1),
            Load::work(55.0),
            "p3's view of p1 must include p2's decision"
        );
        c.complete_decision(p3, &[]);
        c.deliver_all();
        for p in 0..3 {
            assert!(!c.mechs[p].blocked());
        }
    }

    #[test]
    fn stale_snp_answers_are_dropped() {
        let mut m = SnapshotMechanism::new(ActorId(0), 3);
        let mut out = Outbox::new();
        assert_eq!(m.request_decision(&mut out), Gate::Wait);
        let req = m.my_request();
        // An answer to an old request id must be ignored.
        let n = m.on_state_msg(
            ActorId(1),
            StateMsg::Snp {
                load: Load::work(9.0),
                req: req - 1,
            },
            &mut out,
        );
        assert_eq!(n, None);
        assert_eq!(m.missing_answers(), 2);
        // Valid answers complete the snapshot.
        m.on_state_msg(
            ActorId(1),
            StateMsg::Snp {
                load: Load::work(1.0),
                req,
            },
            &mut out,
        );
        let n = m.on_state_msg(
            ActorId(2),
            StateMsg::Snp {
                load: Load::work(2.0),
                req,
            },
            &mut out,
        );
        assert_eq!(n, Some(Notify::DecisionReady));
    }

    #[test]
    fn master_to_slave_updates_own_load() {
        let mut m = SnapshotMechanism::new(ActorId(1), 3);
        let mut out = Outbox::new();
        m.initialize(Load::work(5.0));
        m.on_state_msg(
            ActorId(0),
            StateMsg::MasterToSlave {
                delta: Load::new(20.0, 4.0),
            },
            &mut out,
        );
        assert_eq!(m.view().my_load(), Load::new(25.0, 4.0));
        // The later slave-task arrival must not double-count.
        m.on_local_change(Load::new(20.0, 4.0), ChangeOrigin::SlaveTask, &mut out);
        assert_eq!(m.view().my_load(), Load::new(25.0, 4.0));
        // But processing the work (negative delta) flows normally.
        m.on_local_change(Load::new(-20.0, -4.0), ChangeOrigin::SlaveTask, &mut out);
        assert_eq!(m.view().my_load(), Load::new(5.0, 0.0));
    }

    #[test]
    fn deferred_initiation_when_blocked() {
        let mut c = Cluster::new(3);
        // P0 initiates; P2 becomes blocked.
        c.request_decision(ActorId(0));
        c.deliver_all();
        assert!(c.mechs[2].blocked());
        // P2 wants a decision while blocked: deferred.
        assert_eq!(c.request_decision(ActorId(2)), Gate::Wait);
        assert!(!c.decision_ready(ActorId(2)));
        // P0 completes; P2's deferred snapshot fires automatically.
        c.complete_decision(ActorId(0), &[(ActorId(1), Load::work(30.0))]);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(2)));
        assert_eq!(c.mechs[2].view().get(ActorId(1)), Load::work(30.0));
        c.complete_decision(ActorId(2), &[]);
        c.deliver_all();
        for p in 0..3 {
            assert!(!c.mechs[p].blocked());
        }
    }

    #[test]
    fn message_counts_are_linear_not_quadratic() {
        // One full snapshot on N processes costs:
        //   (N−1) start_snp + (N−1) snp + (N−1) end_snp + |slaves| m2s.
        let n = 8;
        let mut c = Cluster::new(n);
        c.request_decision(ActorId(0));
        c.deliver_all();
        c.complete_decision(ActorId(0), &[(ActorId(3), Load::work(1.0))]);
        c.deliver_all();
        let total_sent: u64 = c.mechs.iter().map(|m| m.stats().msgs_sent).sum();
        assert_eq!(total_sent as usize, 3 * (n - 1) + 1);
    }

    #[test]
    fn single_process_degenerate_case() {
        let mut m = SnapshotMechanism::new(ActorId(0), 1);
        let mut out = Outbox::new();
        assert_eq!(m.request_decision(&mut out), Gate::Ready);
        assert!(out.is_empty());
        let n = m.complete_decision(&[], &mut out);
        assert_eq!(n, Some(Notify::Resumed));
    }

    #[test]
    fn rebroadcast_after_abandonment() {
        // P1 initiates; P0 initiates; P1 loses with nb_snp == 1 → abandons.
        // After P0's end_snp drains the system, P1 re-broadcasts with a
        // fresh id (the paper's `request(myself) += 1` path).
        let mut c = Cluster::new(2);
        c.request_decision(ActorId(1));
        let req1 = c.mechs[1].my_request();
        c.request_decision(ActorId(0));
        c.deliver_all();
        // P0 (leader) completed; P1 abandoned.
        assert!(c.decision_ready(ActorId(0)));
        assert!(c.mechs[1].abandoned);
        c.complete_decision(ActorId(0), &[]);
        c.deliver_all();
        // P1 re-initiated with a fresh request id and completed.
        assert!(c.decision_ready(ActorId(1)));
        assert!(c.mechs[1].my_request() > req1);
        assert_eq!(c.mechs[1].stats().snapshot_rebroadcasts, 1);
        c.complete_decision(ActorId(1), &[]);
        c.deliver_all();
        assert!(!c.mechs[0].blocked());
        assert!(!c.mechs[1].blocked());
    }

    #[test]
    fn elect_prefers_smaller_rank() {
        let min = LeaderPolicy::MinRank;
        assert_eq!(min.elect(ActorId(3), None), ActorId(3));
        assert_eq!(min.elect(ActorId(3), Some(ActorId(1))), ActorId(1));
        assert_eq!(min.elect(ActorId(1), Some(ActorId(3))), ActorId(1));
        let max = LeaderPolicy::MaxRank;
        assert_eq!(max.elect(ActorId(3), Some(ActorId(1))), ActorId(3));
        assert_eq!(max.elect(ActorId(1), Some(ActorId(3))), ActorId(3));
    }

    #[test]
    fn blocked_reflects_all_wait_states() {
        let mut m = SnapshotMechanism::new(ActorId(0), 3);
        assert!(!m.blocked());
        let mut out = Outbox::new();
        m.request_decision(&mut out);
        assert!(m.blocked(), "gathering blocks");
    }

    #[test]
    fn max_rank_policy_reverses_serialization() {
        let mut c = Cluster::with_policy(3, LeaderPolicy::MaxRank);
        c.set_load(ActorId(0), Load::work(1.0));
        c.request_decision(ActorId(0));
        c.request_decision(ActorId(2));
        c.deliver_all();
        assert!(c.decision_ready(ActorId(2)), "largest rank must win now");
        assert!(!c.decision_ready(ActorId(0)));
        c.complete_decision(ActorId(2), &[(ActorId(1), Load::work(5.0))]);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        assert_eq!(c.mechs[0].view().get(ActorId(1)), Load::work(5.0));
        c.complete_decision(ActorId(0), &[]);
        c.deliver_all();
        for p in 0..3 {
            assert!(!c.mechs[p].blocked());
        }
    }

    #[test]
    fn partial_snapshot_queries_only_candidates() {
        let mut c = Cluster::new(5);
        for p in 0..5 {
            c.set_load(ActorId(p), Load::work(p as f64));
        }
        // P0 snapshots only {P1, P2}.
        let mut out = Outbox::new();
        let gate = c.mechs[0].request_decision_among(&[ActorId(1), ActorId(2)], &mut out);
        assert_eq!(gate, Gate::Wait);
        c.stage(ActorId(0), &mut out);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        // Non-candidates were never contacted, never blocked.
        assert!(!c.mechs[3].blocked());
        assert!(!c.mechs[4].blocked());
        assert_eq!(c.mechs[3].stats().msgs_received, 0);
        // Candidates were synchronized.
        assert!(c.mechs[1].blocked());
        c.complete_decision(ActorId(0), &[(ActorId(1), Load::work(9.0))]);
        c.deliver_all();
        assert!(!c.mechs[1].blocked());
        assert_eq!(c.mechs[1].view().my_load(), Load::work(10.0));
        // Message economy: 2 start + 2 snp + 2 end + 1 m2s = 7 messages.
        let total: u64 = c.mechs.iter().map(|m| m.stats().msgs_sent).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn disjoint_partial_snapshots_proceed_concurrently() {
        let mut c = Cluster::new(6);
        // P0 queries {P1, P2}; P3 queries {P4, P5}: no shared candidate, no
        // serialization — both must complete without either finalizing.
        let mut out = Outbox::new();
        c.mechs[0].request_decision_among(&[ActorId(1), ActorId(2)], &mut out);
        c.stage(ActorId(0), &mut out);
        let mut out = Outbox::new();
        c.mechs[3].request_decision_among(&[ActorId(4), ActorId(5)], &mut out);
        c.stage(ActorId(3), &mut out);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        assert!(
            c.decision_ready(ActorId(3)),
            "disjoint snapshots must not wait on each other"
        );
        c.complete_decision(ActorId(0), &[]);
        c.complete_decision(ActorId(3), &[]);
        c.deliver_all();
        for p in 0..6 {
            assert!(!c.mechs[p].blocked());
        }
    }

    #[test]
    fn overlapping_partial_snapshots_serialize_when_leader_arrives_first() {
        // P0 and P1 both query only P3 and are unaware of each other. When
        // the policy-preferred initiator's request reaches the shared
        // candidate first, the candidate delays the rival: full
        // serialization, and the rival sees the leader's decision.
        let mut c = Cluster::new(4);
        c.set_load(ActorId(3), Load::work(7.0));
        let mut out = Outbox::new();
        c.mechs[0].request_decision_among(&[ActorId(3)], &mut out);
        c.stage(ActorId(0), &mut out);
        c.deliver_all(); // P0's snapshot completes; P3 now blocked on P0.
        assert!(c.decision_ready(ActorId(0)));
        let mut out = Outbox::new();
        c.mechs[1].request_decision_among(&[ActorId(3)], &mut out);
        c.stage(ActorId(1), &mut out);
        c.deliver_all();
        assert!(
            !c.decision_ready(ActorId(1)),
            "P3 must delay P1 while P0 is open"
        );
        c.complete_decision(ActorId(0), &[(ActorId(3), Load::work(100.0))]);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(1)));
        assert_eq!(
            c.mechs[1].view().get(ActorId(3)),
            Load::work(107.0),
            "serialized rival must see the first decision"
        );
        c.complete_decision(ActorId(1), &[]);
        c.deliver_all();
        for p in 0..4 {
            assert!(!c.mechs[p].blocked());
        }
    }

    #[test]
    fn overlapping_partial_snapshots_stay_live_in_the_race_window() {
        // The weaker guarantee (§5's trade-off): when the less-preferred
        // initiator's request is answered before the preferred one arrives,
        // both may complete concurrently — but the protocol must stay live
        // and quiesce cleanly.
        let mut c = Cluster::new(4);
        let mut out = Outbox::new();
        c.mechs[1].request_decision_among(&[ActorId(3)], &mut out);
        c.stage(ActorId(1), &mut out);
        let mut out = Outbox::new();
        c.mechs[0].request_decision_among(&[ActorId(3)], &mut out);
        c.stage(ActorId(0), &mut out);
        c.deliver_all();
        assert!(c.decision_ready(ActorId(0)));
        assert!(c.decision_ready(ActorId(1)), "race window: both complete");
        c.complete_decision(ActorId(0), &[]);
        c.complete_decision(ActorId(1), &[]);
        c.deliver_all();
        for p in 0..4 {
            assert!(!c.mechs[p].blocked(), "P{p} must quiesce");
        }
    }
}
