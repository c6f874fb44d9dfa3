//! The increment mechanism (§2.2, Algorithm 3), the MUMPS ≥ 4.3 default.
//!
//! Two ideas fix the naive mechanism's incoherence:
//!
//! 1. **Deltas instead of absolutes** — view entries accumulate increments,
//!    so information from different sources composes instead of overwriting.
//! 2. **Reservation broadcast** — at every slave selection the master sends a
//!    `MasterToAll` message carrying `(slave, assigned load)` pairs. Every
//!    process (including the slave itself) immediately charges the assigned
//!    load, *before* the slave has even received the work. A subsequent
//!    master therefore sees the reservation (contrast with Figure 1).
//!
//! Consequently a slave must **not** re-broadcast the positive variation when
//! the actual task arrives (Algorithm 3 line (1)) — it was already announced.
//!
//! §2.3 adds `NoMoreMaster`: a process that has performed its last slave
//! selection tells the others, which then stop sending it load updates. The
//! paper observed ≈ 2× fewer messages in MUMPS with this optimisation.

use crate::load::{Load, Threshold};
use crate::mech::{ChangeOrigin, Gate, MechStats, Mechanism, Notify};
use crate::msg::StateMsg;
use crate::outbox::{ranks_in, Outbox};
use crate::view::LoadTable;
use loadex_obs::ProtocolEvent;
use loadex_sim::ActorId;

/// Increment-based mechanism with the `MasterToAll` reservation broadcast.
///
/// ```
/// use loadex_core::{Dest, IncrementMechanism, Mechanism, ChangeOrigin, Load, Outbox, Threshold};
/// use loadex_sim::ActorId;
///
/// // Process 0 of a 4-process system, broadcasting on 1000-unit drifts.
/// let mut mech = IncrementMechanism::new(ActorId(0), 4, Threshold::new(1000.0, 1000.0));
/// let mut out = Outbox::new();
///
/// // Small variations accumulate silently…
/// mech.on_local_change(Load::work(600.0), ChangeOrigin::Local, &mut out);
/// assert!(out.is_empty());
/// // …until the threshold trips and a delta goes to every other process.
/// mech.on_local_change(Load::work(600.0), ChangeOrigin::Local, &mut out);
/// let all_others = vec![ActorId(1), ActorId(2), ActorId(3)];
/// assert_eq!(out.peek()[0].dest, Dest::Many(all_others));
///
/// // A slave selection reserves load on the chosen slaves system-wide.
/// out.drain().count();
/// mech.complete_decision(&[(ActorId(2), Load::work(5_000.0))], &mut out);
/// assert_eq!(mech.view().get(ActorId(2)).work, 5_000.0);
/// ```
pub struct IncrementMechanism {
    me: ActorId,
    threshold: Threshold,
    /// `∆load` of Algorithm 3: accumulated not-yet-broadcast increments.
    delta_accum: Load,
    view: LoadTable,
    /// §2.3: peers that still want our `Update` messages.
    interested: Vec<bool>,
    stats: MechStats,
}

impl IncrementMechanism {
    /// A mechanism instance for process `me` of `nprocs`.
    pub fn new(me: ActorId, nprocs: usize, threshold: Threshold) -> Self {
        let mut interested = vec![true; nprocs];
        interested[me.index()] = false;
        IncrementMechanism {
            me,
            threshold,
            delta_accum: Load::ZERO,
            view: LoadTable::new(me, nprocs),
            interested,
            stats: MechStats::default(),
        }
    }

    /// Set the initial local load without broadcasting. In MUMPS "each
    /// processor has as initial load the cost of all its subtrees" (§4.2.2),
    /// known statically by everyone; the harness initialises every view
    /// consistently.
    pub fn initialize(&mut self, load: Load) {
        self.view.set(self.me, load);
    }

    /// Seed this process's belief about another process's initial load
    /// (static information shared by the symbolic preprocessing).
    pub fn initialize_peer(&mut self, p: ActorId, load: Load) {
        self.view.set(p, load);
    }

    fn send_to_interested(&mut self, msg: StateMsg, out: &mut Outbox) {
        let dests = ranks_in(&self.interested);
        self.stats.count_sent(&msg, dests.len());
        out.multicast(dests, msg);
    }
}

impl Mechanism for IncrementMechanism {
    fn on_local_change(&mut self, delta: Load, origin: ChangeOrigin, out: &mut Outbox) {
        // Algorithm 3 line (1): a positive variation for a task where I am
        // slave was already announced by the master's MasterToAll; applying
        // or re-broadcasting it would double-count.
        if origin == ChangeOrigin::SlaveTask && delta.is_non_negative() {
            return;
        }
        self.view.add(self.me, delta);
        self.delta_accum += delta;
        // Algorithm 3 line 8, per metric (§4.5: "for the increments based
        // mechanism, we send a message for each sufficient variation of a
        // metric"), extended to |∆| so decreasing loads also flush.
        if self.delta_accum.work.abs() > self.threshold.work {
            let msg = StateMsg::UpdateDelta {
                delta: Load::work(self.delta_accum.work),
            };
            self.send_to_interested(msg, out);
            self.delta_accum.work = 0.0;
        }
        if self.delta_accum.mem.abs() > self.threshold.mem {
            let msg = StateMsg::UpdateDelta {
                delta: Load::mem(self.delta_accum.mem),
            };
            self.send_to_interested(msg, out);
            self.delta_accum.mem = 0.0;
        }
    }

    fn on_state_msg(&mut self, from: ActorId, msg: StateMsg, out: &mut Outbox) -> Vec<Notify> {
        self.stats.msgs_received += 1;
        out.note(|| ProtocolEvent::state_recv(from, msg.kind(), msg.wire_size()));
        match msg {
            // Algorithm 3 line 12: load(Pj) += ∆lj.
            StateMsg::UpdateDelta { delta } => self.view.add(from, delta),
            // Algorithm 3 lines 17–23.
            StateMsg::MasterToAll { assignments } => {
                for (p, dl) in assignments {
                    // Whether `p` is us or a third party, the entry to bump
                    // is the same table slot; for ourselves this *is*
                    // `my_load += δ` (line 21) since we own our entry.
                    self.view.add(p, dl);
                }
            }
            StateMsg::NoMoreMaster => self.interested[from.index()] = false,
            other => panic!(
                "increment mechanism received unexpected message {:?}",
                other
            ),
        }
        Vec::new()
    }

    fn request_decision(&mut self, _out: &mut Outbox) -> Gate {
        Gate::Ready
    }

    fn complete_decision(
        &mut self,
        assignments: &[(ActorId, Load)],
        out: &mut Outbox,
    ) -> Vec<Notify> {
        self.stats.decisions += 1;
        if assignments.is_empty() {
            return Vec::new();
        }
        // Apply the reservation to our own view immediately…
        for &(p, dl) in assignments {
            debug_assert_ne!(p, self.me, "a master does not select itself as slave");
            self.view.add(p, dl);
        }
        // …and broadcast it to everyone (Algorithm 3 line 16). This goes to
        // *all* processes, not just the interested ones: the slaves must
        // learn their own reservation even if they are `NoMoreMaster`.
        let msg = StateMsg::MasterToAll {
            assignments: assignments.to_vec(),
        };
        let size = msg.wire_size();
        let n_others = (self.view.nprocs() - 1) as u64;
        self.stats.msgs_sent += n_others;
        self.stats.bytes_sent += size * n_others;
        out.broadcast(msg);
        Vec::new()
    }

    fn no_more_master(&mut self, out: &mut Outbox) {
        self.send_to_interested(StateMsg::NoMoreMaster, out);
    }

    fn view(&self) -> &LoadTable {
        &self.view
    }

    fn stats(&self) -> &MechStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::{Dest, OutMsg};

    fn mech(n: usize) -> (IncrementMechanism, Outbox) {
        (
            IncrementMechanism::new(ActorId(0), n, Threshold::new(10.0, 10.0)),
            Outbox::new(),
        )
    }

    #[test]
    fn small_deltas_accumulate_then_flush() {
        let (mut m, mut out) = mech(3);
        m.on_local_change(Load::work(4.0), ChangeOrigin::Local, &mut out);
        m.on_local_change(Load::work(4.0), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty());
        m.on_local_change(Load::work(4.0), ChangeOrigin::Local, &mut out);
        let staged: Vec<_> = out.drain().collect();
        assert_eq!(
            staged,
            vec![OutMsg {
                dest: Dest::Many(vec![ActorId(1), ActorId(2)]),
                msg: StateMsg::UpdateDelta {
                    delta: Load::work(12.0)
                },
            }]
        );
        // Accumulator reset after flush (Algorithm 3 line 10).
        m.on_local_change(Load::work(4.0), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn negative_drift_also_flushes() {
        let (mut m, mut out) = mech(2);
        m.on_local_change(Load::work(-11.0), ChangeOrigin::Local, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn positive_slave_delta_is_suppressed() {
        let (mut m, mut out) = mech(2);
        m.view.set(ActorId(0), Load::work(50.0)); // pretend MasterToAll arrived
        m.on_local_change(Load::work(50.0), ChangeOrigin::SlaveTask, &mut out);
        assert!(out.is_empty(), "no re-broadcast");
        assert_eq!(m.view().my_load(), Load::work(50.0), "no double count");
    }

    #[test]
    fn negative_slave_delta_flows_normally() {
        let (mut m, mut out) = mech(2);
        m.on_local_change(Load::work(-20.0), ChangeOrigin::SlaveTask, &mut out);
        assert_eq!(m.view().my_load(), Load::work(-20.0));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn update_delta_accumulates_in_view() {
        let (mut m, mut out) = mech(3);
        m.on_state_msg(
            ActorId(1),
            StateMsg::UpdateDelta {
                delta: Load::work(5.0),
            },
            &mut out,
        );
        m.on_state_msg(
            ActorId(1),
            StateMsg::UpdateDelta {
                delta: Load::work(3.0),
            },
            &mut out,
        );
        assert_eq!(m.view().get(ActorId(1)), Load::work(8.0));
    }

    #[test]
    fn master_to_all_updates_every_entry_including_self() {
        let (mut m, mut out) = mech(4);
        let msg = StateMsg::MasterToAll {
            assignments: vec![(ActorId(0), Load::work(7.0)), (ActorId(2), Load::work(9.0))],
        };
        m.on_state_msg(ActorId(3), msg, &mut out);
        assert_eq!(
            m.view().my_load(),
            Load::work(7.0),
            "my_load += δ (line 21)"
        );
        assert_eq!(m.view().get(ActorId(2)), Load::work(9.0));
        assert_eq!(
            m.view().get(ActorId(3)),
            Load::ZERO,
            "the master is not in the list"
        );
    }

    #[test]
    fn complete_decision_reserves_and_broadcasts() {
        let (mut m, mut out) = mech(4);
        let gate = m.request_decision(&mut out);
        assert_eq!(gate, Gate::Ready);
        let sel = [
            (ActorId(1), Load::new(30.0, 8.0)),
            (ActorId(3), Load::new(20.0, 6.0)),
        ];
        m.complete_decision(&sel, &mut out);
        // Local view reserved immediately.
        assert_eq!(m.view().get(ActorId(1)), Load::new(30.0, 8.0));
        assert_eq!(m.view().get(ActorId(3)), Load::new(20.0, 6.0));
        // One broadcast staged.
        let staged: Vec<_> = out.drain().collect();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].dest, Dest::AllOthers);
        match &staged[0].msg {
            StateMsg::MasterToAll { assignments } => assert_eq!(assignments.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.stats().decisions, 1);
        assert_eq!(m.stats().msgs_sent, 3, "broadcast counted per destination");
    }

    #[test]
    fn empty_decision_is_silent() {
        let (mut m, mut out) = mech(4);
        m.complete_decision(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn figure1_scenario_is_coherent_with_increments() {
        // Figure 1: P0 selects P2, then P1 selects slaves. With increments,
        // P1's view of P2 already contains P0's reservation even though P2
        // is busy and has not received (let alone processed) the work.
        let n = 3;
        let thr = Threshold::new(1.0, 1.0);
        let mut p1 = IncrementMechanism::new(ActorId(1), n, thr);
        let mut out = Outbox::new();

        // P0's decision reaches P1 as a MasterToAll.
        p1.on_state_msg(
            ActorId(0),
            StateMsg::MasterToAll {
                assignments: vec![(ActorId(2), Load::work(100.0))],
            },
            &mut out,
        );
        // P1 now sees P2 loaded with 100 and will not double-select it.
        assert_eq!(p1.view().get(ActorId(2)), Load::work(100.0));
    }

    #[test]
    fn no_more_master_halves_update_fanout() {
        let (mut m, mut out) = mech(5);
        // Two peers say they will never be masters again.
        m.on_state_msg(ActorId(1), StateMsg::NoMoreMaster, &mut out);
        m.on_state_msg(ActorId(2), StateMsg::NoMoreMaster, &mut out);
        m.on_local_change(Load::work(100.0), ChangeOrigin::Local, &mut out);
        let dests: Vec<_> = out.drain().map(|s| s.dest).collect();
        assert_eq!(dests, vec![Dest::Many(vec![ActorId(3), ActorId(4)])]);
        // But a MasterToAll still reaches everyone.
        m.complete_decision(&[(ActorId(1), Load::work(5.0))], &mut out);
        assert_eq!(out.drain().next().unwrap().dest, Dest::AllOthers);
    }

    #[test]
    fn initialize_peer_seeds_static_view() {
        let (mut m, _) = mech(3);
        m.initialize(Load::work(10.0));
        m.initialize_peer(ActorId(1), Load::work(20.0));
        assert_eq!(m.view().my_load(), Load::work(10.0));
        assert_eq!(m.view().get(ActorId(1)), Load::work(20.0));
    }
}
