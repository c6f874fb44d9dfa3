//! Protocol invariant auditor.
//!
//! Consumes a recorded [`ProtocolEvent`] stream and checks the invariants
//! the paper's mechanisms promise, returning **typed violations** instead of
//! silently passing:
//!
//! * **monotone event clocks** — a process's events never go backwards in
//!   time;
//! * **`start_snp`/`snp`/`end_snp` sequencing and request-id matching** —
//!   per-process request ids strictly increase, every `snapshot_end` closes
//!   the process's latest `snapshot_start`, election events reference live
//!   request ids, a process only answers `snp` after receiving a
//!   `start_snp`, and `end_snp` broadcasts follow the emitter's own
//!   `snapshot_end`;
//! * **snapshot sequentialisation** — no two *committed* snapshots overlap:
//!   the window from a process's last election-establishing event
//!   (`snapshot_start` or `election_won`) to its `snapshot_end` must not
//!   intersect any other process's committed window (§3's guarantee);
//! * **leader-election uniqueness** — a process never commits a snapshot it
//!   lost the election for without re-winning it first;
//! * **increments reservation consistency** — every `master_to_all`
//!   reservation broadcast pairs with exactly one completed decision that
//!   selected slaves (Algorithm 3 line 16), never more than one broadcast
//!   in flight per decision;
//! * **decision pairing** — `decision_open`/`decision_complete` alternate
//!   per process and agree on the tree node;
//! * **blocked/resumed alternation** and a **non-negative memory balance**
//!   per process.
//!
//! Per-process checks always run. The cross-process checks (snapshot window
//! overlap, reservation totals) assume the stream is one *complete* run and
//! only run in **strict** mode — the mode `scripts/check.sh` and
//! `bench run --audit` use to gate CI.

use crate::event::{EventRecord, MsgKind, ProtocolEvent};
use loadex_sim::{ActorId, SimTime};

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A process emitted an event with a timestamp earlier than its previous
    /// event (strict mode only: on the threaded backend, emission order can
    /// legitimately race the clocks, so only the simulator is held to it).
    NonMonotoneClock {
        /// Offending process.
        actor: ActorId,
        /// Timestamp of the offending event.
        at: SimTime,
        /// The later timestamp it contradicts.
        before: SimTime,
    },
    /// A process re-initiated a snapshot without a fresh, larger request id.
    SnapshotReqNotIncreasing {
        /// Offending process.
        actor: ActorId,
        /// The repeated/smaller request id.
        req: u64,
        /// The process's previous request id.
        prev: u64,
    },
    /// `snapshot_end` did not match the process's latest `snapshot_start`
    /// (`open_req == None`: no snapshot was ever started).
    SnapshotEndMismatch {
        /// Offending process.
        actor: ActorId,
        /// Request id carried by the `snapshot_end`.
        end_req: u64,
        /// The process's latest open request id, if any.
        open_req: Option<u64>,
    },
    /// An election event referenced a request id other than the emitter's
    /// latest `snapshot_start`.
    ElectionReqMismatch {
        /// Offending process.
        actor: ActorId,
        /// `"election_won"` or `"election_lost"`.
        event: &'static str,
        /// Request id carried by the event.
        req: u64,
        /// The emitter's latest open request id, if any.
        open_req: Option<u64>,
    },
    /// A `delayed_answer` referenced a request id its target never issued.
    DelayedAnswerUnknownReq {
        /// The delaying process.
        actor: ActorId,
        /// The initiator whose answer was delayed.
        to: ActorId,
        /// The referenced (unknown) request id.
        req: u64,
    },
    /// A process committed (`snapshot_end`) a snapshot it had lost the
    /// election for, without re-winning it.
    CommitAfterLostElection {
        /// Offending process.
        actor: ActorId,
        /// The committed request id.
        req: u64,
        /// When the commit happened.
        at: SimTime,
    },
    /// Two committed snapshot windows overlapped in time — the §3
    /// sequentialisation failed.
    OverlappingSnapshots {
        /// Process owning the earlier-starting window.
        actor: ActorId,
        /// Process owning the overlapping window.
        other: ActorId,
        /// Instant at which both windows were simultaneously open.
        at: SimTime,
    },
    /// A process answered `snp` without ever receiving a `start_snp`.
    SnpBeforeStartSnp {
        /// Offending process.
        actor: ActorId,
        /// When the premature answer was sent.
        at: SimTime,
    },
    /// A process broadcast `end_snp` without having finalized a snapshot.
    EndSnpWithoutSnapshotEnd {
        /// Offending process.
        actor: ActorId,
        /// When the broadcast was sent.
        at: SimTime,
    },
    /// `decision_complete` without a matching open decision.
    DecisionCompleteWithoutOpen {
        /// Offending process.
        actor: ActorId,
        /// Completed tree node.
        node: u64,
        /// When it happened.
        at: SimTime,
    },
    /// A second `decision_open` while one was already in flight.
    NestedDecisionOpen {
        /// Offending process.
        actor: ActorId,
        /// Newly opened tree node.
        node: u64,
        /// When it happened.
        at: SimTime,
    },
    /// `decision_complete` named a different node than the open decision.
    DecisionNodeMismatch {
        /// Offending process.
        actor: ActorId,
        /// The node that was opened.
        opened: u64,
        /// The node that was completed.
        completed: u64,
        /// When it happened.
        at: SimTime,
    },
    /// `blocked` while already blocked.
    DoubleBlocked {
        /// Offending process.
        actor: ActorId,
        /// When it happened.
        at: SimTime,
    },
    /// `resumed` without a preceding `blocked`.
    ResumeWithoutBlock {
        /// Offending process.
        actor: ActorId,
        /// When it happened.
        at: SimTime,
    },
    /// A `master_to_all` reservation broadcast without a pairable completed
    /// decision (prefix imbalance beyond the one-in-flight tolerance).
    ReservationBeforeDecision {
        /// Offending process.
        actor: ActorId,
        /// When the broadcast was sent.
        at: SimTime,
    },
    /// Final totals of reservation broadcasts and slave-selecting decisions
    /// disagree for a process.
    ReservationImbalance {
        /// Offending process.
        actor: ActorId,
        /// `master_to_all` broadcasts sent.
        broadcasts: u64,
        /// Completed decisions that selected at least one slave.
        decisions: u64,
    },
    /// A process's running memory balance (allocs − frees) went negative.
    NegativeMemory {
        /// Offending process.
        actor: ActorId,
        /// When the balance first went negative.
        at: SimTime,
        /// The negative balance, in entries.
        balance: f64,
    },
}

impl Violation {
    /// Stable snake_case name of the violation kind.
    pub fn name(&self) -> &'static str {
        match self {
            Violation::NonMonotoneClock { .. } => "non_monotone_clock",
            Violation::SnapshotReqNotIncreasing { .. } => "snapshot_req_not_increasing",
            Violation::SnapshotEndMismatch { .. } => "snapshot_end_mismatch",
            Violation::ElectionReqMismatch { .. } => "election_req_mismatch",
            Violation::DelayedAnswerUnknownReq { .. } => "delayed_answer_unknown_req",
            Violation::CommitAfterLostElection { .. } => "commit_after_lost_election",
            Violation::OverlappingSnapshots { .. } => "overlapping_snapshots",
            Violation::SnpBeforeStartSnp { .. } => "snp_before_start_snp",
            Violation::EndSnpWithoutSnapshotEnd { .. } => "end_snp_without_snapshot_end",
            Violation::DecisionCompleteWithoutOpen { .. } => "decision_complete_without_open",
            Violation::NestedDecisionOpen { .. } => "nested_decision_open",
            Violation::DecisionNodeMismatch { .. } => "decision_node_mismatch",
            Violation::DoubleBlocked { .. } => "double_blocked",
            Violation::ResumeWithoutBlock { .. } => "resume_without_block",
            Violation::ReservationBeforeDecision { .. } => "reservation_before_decision",
            Violation::ReservationImbalance { .. } => "reservation_imbalance",
            Violation::NegativeMemory { .. } => "negative_memory",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonMonotoneClock { actor, at, before } => write!(
                f,
                "P{}: clock went backwards ({} ns after {} ns)",
                actor.index(),
                at.as_nanos(),
                before.as_nanos()
            ),
            Violation::SnapshotReqNotIncreasing { actor, req, prev } => write!(
                f,
                "P{}: snapshot request id {req} does not exceed previous {prev}",
                actor.index()
            ),
            Violation::SnapshotEndMismatch {
                actor,
                end_req,
                open_req,
            } => write!(
                f,
                "P{}: snapshot_end req {end_req} does not match open req {open_req:?}",
                actor.index()
            ),
            Violation::ElectionReqMismatch {
                actor,
                event,
                req,
                open_req,
            } => write!(
                f,
                "P{}: {event} req {req} does not match open req {open_req:?}",
                actor.index()
            ),
            Violation::DelayedAnswerUnknownReq { actor, to, req } => write!(
                f,
                "P{}: delayed answer references req {req} never issued by P{}",
                actor.index(),
                to.index()
            ),
            Violation::CommitAfterLostElection { actor, req, at } => write!(
                f,
                "P{}: committed snapshot req {req} after losing its election (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::OverlappingSnapshots { actor, other, at } => write!(
                f,
                "committed snapshots of P{} and P{} overlap at t={} ns",
                actor.index(),
                other.index(),
                at.as_nanos()
            ),
            Violation::SnpBeforeStartSnp { actor, at } => write!(
                f,
                "P{}: sent snp before receiving any start_snp (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::EndSnpWithoutSnapshotEnd { actor, at } => write!(
                f,
                "P{}: broadcast end_snp without finalizing a snapshot (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::DecisionCompleteWithoutOpen { actor, node, at } => write!(
                f,
                "P{}: decision_complete for node {node} without an open decision (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::NestedDecisionOpen { actor, node, at } => write!(
                f,
                "P{}: decision_open for node {node} while another decision is open (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::DecisionNodeMismatch {
                actor,
                opened,
                completed,
                at,
            } => write!(
                f,
                "P{}: decision_complete for node {completed} but node {opened} was open (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::DoubleBlocked { actor, at } => write!(
                f,
                "P{}: blocked while already blocked (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::ResumeWithoutBlock { actor, at } => write!(
                f,
                "P{}: resumed without being blocked (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::ReservationBeforeDecision { actor, at } => write!(
                f,
                "P{}: master_to_all broadcast without a pairable decision (t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
            Violation::ReservationImbalance {
                actor,
                broadcasts,
                decisions,
            } => write!(
                f,
                "P{}: {broadcasts} master_to_all broadcasts vs {decisions} slave-selecting decisions",
                actor.index()
            ),
            Violation::NegativeMemory { actor, at, balance } => write!(
                f,
                "P{}: memory balance went negative ({balance} entries at t={} ns)",
                actor.index(),
                at.as_nanos()
            ),
        }
    }
}

/// Result of one audit pass.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Number of events examined.
    pub events: usize,
    /// Detected violations, in stream order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Election status of a process's current snapshot request.
#[derive(Clone, Copy, PartialEq)]
enum ElectionState {
    Unknown,
    Won,
    Lost,
}

#[derive(Clone)]
struct ActorState {
    /// Latest `snapshot_start` request id.
    open_req: Option<u32>,
    election: ElectionState,
    /// Start of the would-be committed window: the latest
    /// election-establishing event for `open_req`.
    anchor: Option<SimTime>,
    open_decision: Option<u32>,
    blocked: bool,
    received_start_snp: bool,
    /// `snapshot_end` events not yet claimed by an `end_snp` broadcast.
    unclaimed_ends: u64,
    m2a_sends: u64,
    decisions_with_slaves: u64,
    mem_balance: f64,
    mem_peak: f64,
}

impl Default for ActorState {
    fn default() -> Self {
        ActorState {
            open_req: None,
            election: ElectionState::Unknown,
            anchor: None,
            open_decision: None,
            blocked: false,
            received_start_snp: false,
            unclaimed_ends: 0,
            m2a_sends: 0,
            decisions_with_slaves: 0,
            mem_balance: 0.0,
            mem_peak: 0.0,
        }
    }
}

/// Checks a protocol-event stream against the paper's invariants.
///
/// Construct with [`ProtocolAuditor::new`] for the per-process checks only
/// (safe on partial or filtered streams) or [`ProtocolAuditor::strict`] to
/// also run the cross-process checks that assume one complete run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolAuditor {
    strict: bool,
}

impl ProtocolAuditor {
    /// Per-process checks only.
    pub fn new() -> Self {
        ProtocolAuditor { strict: false }
    }

    /// All checks, including the cross-process sequentialisation and
    /// reservation-total checks. This is the CI-gate mode.
    pub fn strict() -> Self {
        ProtocolAuditor { strict: true }
    }

    /// Audit a recorded event stream in timestamp order. The simulator
    /// emits in time order, and such a stream is walked as it is. On the
    /// threaded backend a worker and its communication thread race to
    /// append events for the same process, so emission order can locally
    /// disagree with the recorded clocks: an unsorted stream is walked
    /// through a stable sort by timestamp (the same order, as the sort
    /// would leave a sorted stream unchanged).
    pub fn audit(&self, events: &[EventRecord]) -> AuditReport {
        let mut v: Vec<Violation> = Vec::new();
        if self.strict {
            // Strict mode assumes the deterministic simulator, where each
            // process must also *emit* in time order — a backwards clock in
            // emission order is a bug there, not a thread race. Checked on
            // the original stream; the sort below would hide it.
            let mut last: Vec<Option<SimTime>> = Vec::new();
            for rec in events {
                let (actor, t) = (rec.actor(), rec.time());
                let slot = slot(&mut last, actor);
                if let Some(prev) = *slot {
                    if t < prev {
                        v.push(Violation::NonMonotoneClock {
                            actor,
                            at: t,
                            before: prev,
                        });
                    }
                }
                *slot = Some(slot.map_or(t, |prev| prev.max(t)));
            }
        }
        if events.windows(2).all(|w| w[0].time() <= w[1].time()) {
            self.walk(events.iter(), &mut v);
        } else {
            let mut ordered: Vec<&EventRecord> = events.iter().collect();
            ordered.sort_by_key(|r| r.time());
            self.walk(ordered.into_iter(), &mut v);
        }
        AuditReport {
            events: events.len(),
            violations: v,
        }
    }

    /// Check the time-ordered stream `ordered`, appending to `v`.
    fn walk<'e>(&self, ordered: impl Iterator<Item = &'e EventRecord>, v: &mut Vec<Violation>) {
        // Per-rank state, `None` until the rank emits its first event.
        let mut st: Vec<Option<ActorState>> = Vec::new();
        // Committed snapshot windows: (start, end, actor).
        let mut windows: Vec<(SimTime, SimTime, ActorId)> = Vec::new();
        let mut has_m2a = false;

        for rec in ordered {
            let actor = rec.actor();
            let t = rec.time();
            let s = slot(&mut st, actor).get_or_insert_with(ActorState::default);

            match rec.event() {
                ProtocolEvent::SnapshotStart { req } => {
                    if let Some(prev) = s.open_req {
                        if req <= prev {
                            v.push(Violation::SnapshotReqNotIncreasing {
                                actor,
                                req: req.into(),
                                prev: prev.into(),
                            });
                        }
                    }
                    s.open_req = Some(req);
                    s.election = ElectionState::Unknown;
                    s.anchor = Some(t);
                }
                ProtocolEvent::ElectionWon { req } => {
                    if s.open_req != Some(req) {
                        v.push(Violation::ElectionReqMismatch {
                            actor,
                            event: "election_won",
                            req: req.into(),
                            open_req: s.open_req.map(u64::from),
                        });
                    }
                    s.election = ElectionState::Won;
                    s.anchor = Some(t);
                }
                ProtocolEvent::ElectionLost { req, .. } => {
                    if s.open_req != Some(req) {
                        v.push(Violation::ElectionReqMismatch {
                            actor,
                            event: "election_lost",
                            req: req.into(),
                            open_req: s.open_req.map(u64::from),
                        });
                    }
                    s.election = ElectionState::Lost;
                }
                ProtocolEvent::SnapshotEnd { req } => {
                    if s.open_req != Some(req) {
                        v.push(Violation::SnapshotEndMismatch {
                            actor,
                            end_req: req.into(),
                            open_req: s.open_req.map(u64::from),
                        });
                    }
                    if s.election == ElectionState::Lost {
                        v.push(Violation::CommitAfterLostElection {
                            actor,
                            req: req.into(),
                            at: t,
                        });
                    }
                    if let Some(a) = s.anchor {
                        windows.push((a, t, actor));
                    }
                    s.anchor = None;
                    s.election = ElectionState::Unknown;
                    s.unclaimed_ends += 1;
                }
                ProtocolEvent::DelayedAnswer { to, req } => {
                    // The answer is delayed on behalf of `to`'s request; that
                    // request must already be visible in the stream (the
                    // initiator logs snapshot_start before the start_snp
                    // message can arrive anywhere).
                    let to = ActorId(to as usize);
                    let known = st
                        .get(to.index())
                        .and_then(|o| o.as_ref()?.open_req)
                        .is_some_and(|latest| req <= latest);
                    if !known {
                        v.push(Violation::DelayedAnswerUnknownReq {
                            actor,
                            to,
                            req: req.into(),
                        });
                    }
                }
                ProtocolEvent::DecisionOpen { node } => {
                    if s.open_decision.is_some() {
                        v.push(Violation::NestedDecisionOpen {
                            actor,
                            node: node.into(),
                            at: t,
                        });
                    }
                    s.open_decision = Some(node);
                }
                ProtocolEvent::DecisionComplete { node, slaves } => {
                    match s.open_decision {
                        None => v.push(Violation::DecisionCompleteWithoutOpen {
                            actor,
                            node: node.into(),
                            at: t,
                        }),
                        Some(opened) if opened != node => v.push(Violation::DecisionNodeMismatch {
                            actor,
                            opened: opened.into(),
                            completed: node.into(),
                            at: t,
                        }),
                        Some(_) => {}
                    }
                    s.open_decision = None;
                    if slaves > 0 {
                        s.decisions_with_slaves += 1;
                    }
                }
                ProtocolEvent::Blocked => {
                    if s.blocked {
                        v.push(Violation::DoubleBlocked { actor, at: t });
                    }
                    s.blocked = true;
                }
                ProtocolEvent::Resumed => {
                    if !s.blocked {
                        v.push(Violation::ResumeWithoutBlock { actor, at: t });
                    }
                    s.blocked = false;
                }
                ProtocolEvent::StateRecv { kind, .. } => {
                    if kind == MsgKind::StartSnp {
                        s.received_start_snp = true;
                    }
                }
                ProtocolEvent::StateSend { kind, .. }
                | ProtocolEvent::StateBroadcast { kind, .. } => match kind {
                    MsgKind::Snp if !s.received_start_snp => {
                        v.push(Violation::SnpBeforeStartSnp { actor, at: t });
                    }
                    MsgKind::EndSnp => {
                        if s.unclaimed_ends == 0 {
                            v.push(Violation::EndSnpWithoutSnapshotEnd { actor, at: t });
                        } else {
                            s.unclaimed_ends -= 1;
                        }
                    }
                    MsgKind::MasterToAll => {
                        has_m2a = true;
                        s.m2a_sends += 1;
                        // Each completed decision broadcasts exactly once and
                        // immediately; the two event streams may be flushed
                        // in either order, hence the ±1 tolerance.
                        if self.strict && s.m2a_sends > s.decisions_with_slaves + 1 {
                            v.push(Violation::ReservationBeforeDecision { actor, at: t });
                        }
                    }
                    _ => {}
                },
                ProtocolEvent::MemAlloc { entries } => {
                    s.mem_balance += entries.get();
                    s.mem_peak = s.mem_peak.max(s.mem_balance);
                }
                ProtocolEvent::MemFree { entries } => {
                    s.mem_balance -= entries.get();
                    let eps = 1e-6 * s.mem_peak.max(1.0);
                    if s.mem_balance < -eps {
                        v.push(Violation::NegativeMemory {
                            actor,
                            at: t,
                            balance: s.mem_balance,
                        });
                        // Report once, then resync.
                        s.mem_balance = 0.0;
                    }
                }
                ProtocolEvent::TaskStart { .. } | ProtocolEvent::TaskEnd { .. } => {}
            }
        }

        if self.strict {
            // Sequentialisation: committed windows must not overlap. Shared
            // endpoints are fine (in the simulator a snapshot can end at the
            // exact instant the next one is established).
            windows.sort_by_key(|&(a, b, p)| (a, b, p));
            for w in windows.windows(2) {
                let (_, prev_end, prev_actor) = w[0];
                let (next_start, _, next_actor) = w[1];
                if next_start < prev_end {
                    v.push(Violation::OverlappingSnapshots {
                        actor: prev_actor,
                        other: next_actor,
                        at: next_start,
                    });
                }
            }
            if has_m2a {
                // Ranks that emitted any event, in rank order.
                for (p, s) in st.iter().enumerate() {
                    let Some(s) = s else { continue };
                    if s.m2a_sends != s.decisions_with_slaves {
                        v.push(Violation::ReservationImbalance {
                            actor: ActorId(p),
                            broadcasts: s.m2a_sends,
                            decisions: s.decisions_with_slaves,
                        });
                    }
                }
            }
        }
    }
}

/// `p`'s entry in a per-rank table, growing the table to reach it.
fn slot<T: Default>(table: &mut Vec<T>, p: ActorId) -> &mut T {
    if p.index() >= table.len() {
        table.resize_with(p.index() + 1, T::default);
    }
    &mut table[p.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, p: usize, event: ProtocolEvent) -> EventRecord {
        EventRecord::new(SimTime(t), ActorId(p), event)
    }

    #[test]
    fn empty_stream_is_clean() {
        let r = ProtocolAuditor::strict().audit(&[]);
        assert!(r.is_clean());
        assert_eq!(r.events, 0);
    }

    #[test]
    fn well_formed_snapshot_round_is_clean() {
        let evs = vec![
            rec(10, 0, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(
                10,
                0,
                ProtocolEvent::StateBroadcast {
                    kind: MsgKind::StartSnp,
                    bytes: 32,
                },
            ),
            rec(
                20,
                1,
                ProtocolEvent::StateRecv {
                    from: 0,
                    kind: MsgKind::StartSnp,
                    bytes: 32,
                },
            ),
            rec(20, 1, ProtocolEvent::Blocked),
            rec(
                20,
                1,
                ProtocolEvent::StateSend {
                    to: 0,
                    kind: MsgKind::Snp,
                    bytes: 40,
                },
            ),
            rec(30, 0, ProtocolEvent::SnapshotEnd { req: 1 }),
            rec(
                30,
                0,
                ProtocolEvent::StateBroadcast {
                    kind: MsgKind::EndSnp,
                    bytes: 16,
                },
            ),
            rec(40, 1, ProtocolEvent::Resumed),
        ];
        let r = ProtocolAuditor::strict().audit(&evs);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn backwards_clock_is_flagged_in_strict_mode() {
        let evs = vec![
            rec(10, 0, ProtocolEvent::Blocked),
            rec(5, 0, ProtocolEvent::Resumed),
        ];
        let r = ProtocolAuditor::strict().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "non_monotone_clock"));
        // Normal mode tolerates it: real threads race their recorder
        // appends, and the audit walk re-sorts by timestamp anyway.
        assert!(!ProtocolAuditor::new()
            .audit(&evs)
            .violations
            .iter()
            .any(|v| v.name() == "non_monotone_clock"));
    }

    #[test]
    fn mismatched_snapshot_end_is_flagged() {
        let evs = vec![
            rec(0, 0, ProtocolEvent::SnapshotStart { req: 3 }),
            rec(10, 0, ProtocolEvent::SnapshotEnd { req: 2 }),
        ];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "snapshot_end_mismatch"));
    }

    #[test]
    fn non_increasing_request_ids_are_flagged() {
        let evs = vec![
            rec(0, 0, ProtocolEvent::SnapshotStart { req: 2 }),
            rec(10, 0, ProtocolEvent::SnapshotEnd { req: 2 }),
            rec(20, 0, ProtocolEvent::SnapshotStart { req: 2 }),
        ];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "snapshot_req_not_increasing"));
    }

    #[test]
    fn commit_after_lost_election_is_flagged() {
        let evs = vec![
            rec(0, 1, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(5, 1, ProtocolEvent::ElectionLost { req: 1, winner: 0 }),
            rec(10, 1, ProtocolEvent::SnapshotEnd { req: 1 }),
        ];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "commit_after_lost_election"));
    }

    #[test]
    fn relost_then_rewon_commit_is_clean() {
        let evs = vec![
            rec(0, 1, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(5, 1, ProtocolEvent::ElectionLost { req: 1, winner: 0 }),
            rec(20, 1, ProtocolEvent::ElectionWon { req: 1 }),
            rec(30, 1, ProtocolEvent::SnapshotEnd { req: 1 }),
        ];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn overlapping_committed_windows_are_flagged_in_strict_mode() {
        let evs = vec![
            rec(0, 0, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(5, 1, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(10, 0, ProtocolEvent::SnapshotEnd { req: 1 }),
            rec(12, 1, ProtocolEvent::SnapshotEnd { req: 1 }),
        ];
        assert!(ProtocolAuditor::new().audit(&evs).is_clean());
        let r = ProtocolAuditor::strict().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "overlapping_snapshots"));
    }

    #[test]
    fn loser_rewin_window_does_not_overlap() {
        // P1 starts first but loses; its committed window is anchored at the
        // re-won election, after P0's window closed.
        let evs = vec![
            rec(0, 1, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(2, 0, ProtocolEvent::SnapshotStart { req: 1 }),
            rec(4, 1, ProtocolEvent::ElectionLost { req: 1, winner: 0 }),
            rec(6, 0, ProtocolEvent::ElectionWon { req: 1 }),
            rec(10, 0, ProtocolEvent::SnapshotEnd { req: 1 }),
            rec(12, 1, ProtocolEvent::ElectionWon { req: 1 }),
            rec(15, 1, ProtocolEvent::SnapshotEnd { req: 1 }),
        ];
        let r = ProtocolAuditor::strict().audit(&evs);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn unpaired_decisions_are_flagged() {
        let evs = vec![rec(
            0,
            0,
            ProtocolEvent::DecisionComplete { node: 7, slaves: 2 },
        )];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "decision_complete_without_open"));
    }

    #[test]
    fn reservation_totals_checked_in_strict_mode() {
        let evs = vec![
            rec(0, 0, ProtocolEvent::DecisionOpen { node: 1 }),
            rec(5, 0, ProtocolEvent::DecisionComplete { node: 1, slaves: 1 }),
            rec(
                5,
                0,
                ProtocolEvent::StateBroadcast {
                    kind: MsgKind::MasterToAll,
                    bytes: 64,
                },
            ),
            rec(
                9,
                0,
                ProtocolEvent::StateBroadcast {
                    kind: MsgKind::MasterToAll,
                    bytes: 64,
                },
            ),
        ];
        let r = ProtocolAuditor::strict().audit(&evs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.name() == "reservation_imbalance"));
    }

    #[test]
    fn reservation_imbalance_lists_emitting_ranks_in_rank_order() {
        let m2a = ProtocolEvent::StateBroadcast {
            kind: MsgKind::MasterToAll,
            bytes: 64,
        };
        let evs = vec![
            rec(0, 3, m2a),
            rec(1, 1, m2a),
            // Balanced, so not listed.
            rec(2, 5, ProtocolEvent::Blocked),
        ];
        let r = ProtocolAuditor::strict().audit(&evs);
        let imbalanced: Vec<_> = r
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::ReservationImbalance { actor, .. } => Some(actor.index()),
                _ => None,
            })
            .collect();
        assert_eq!(imbalanced, [1, 3]);
    }

    #[test]
    fn unsorted_stream_is_audited_in_timestamp_order() {
        // A threaded run can append P0's resume before its block; in time
        // order the pair is well formed.
        let sorted = vec![
            rec(10, 0, ProtocolEvent::Blocked),
            rec(15, 1, ProtocolEvent::DecisionOpen { node: 4 }),
            rec(20, 0, ProtocolEvent::Resumed),
            rec(
                25,
                1,
                ProtocolEvent::DecisionComplete { node: 5, slaves: 0 },
            ),
        ];
        let unsorted = vec![sorted[2], sorted[0], sorted[3], sorted[1]];
        let audited = ProtocolAuditor::new().audit(&unsorted);
        assert_eq!(
            audited.violations,
            ProtocolAuditor::new().audit(&sorted).violations
        );
        assert_eq!(
            audited.violations,
            [Violation::DecisionNodeMismatch {
                actor: ActorId(1),
                opened: 4,
                completed: 5,
                at: SimTime(25),
            }]
        );
    }

    #[test]
    fn negative_memory_is_flagged() {
        let evs = vec![
            rec(
                0,
                0,
                ProtocolEvent::MemAlloc {
                    entries: 10.0.into(),
                },
            ),
            rec(
                5,
                0,
                ProtocolEvent::MemFree {
                    entries: 25.0.into(),
                },
            ),
        ];
        let r = ProtocolAuditor::new().audit(&evs);
        assert!(r.violations.iter().any(|v| v.name() == "negative_memory"));
    }

    #[test]
    fn violations_render_and_serialize() {
        let v = Violation::DoubleBlocked {
            actor: ActorId(3),
            at: SimTime(99),
        };
        assert!(v.to_string().contains("P3"));
        assert_eq!(v.name(), "double_blocked");
    }
}
