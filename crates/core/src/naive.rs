//! The naive mechanism (§2.1, Algorithm 2), and its heartbeat variant.
//!
//! Each process is responsible for knowing its own load and broadcasts the
//! **absolute** value to the other processes, which overwrite their view
//! entry for the sender. What triggers a broadcast is the one thing that
//! varies:
//!
//! * **Drift** ([`NaiveMechanism::new`]) — Algorithm 2: whenever the load
//!   drifts more than a threshold away from the last broadcast value.
//! * **Heartbeat** ([`NaiveMechanism::heartbeat`]) — an extension, not in
//!   the paper: every period, unless the load is unchanged since the last
//!   broadcast (the classic time-driven discipline of runtime systems, run
//!   as `MechKind::Periodic` so the harness can compare the two triggers
//!   under identical conditions).
//!
//! Neither has a reservation path, so both share the limitation of
//! Figure 1: nothing ensures a slave selection takes the previous,
//! still-in-flight selections into account — a slave busy with a long task
//! cannot yet have told anyone about the work it was just assigned, so a
//! second master may pile more work on it.

use crate::load::{Load, Threshold};
use crate::mech::{ChangeOrigin, Gate, MechStats, Mechanism, Notify};
use crate::msg::StateMsg;
use crate::outbox::{ranks_in, Outbox};
use crate::view::LoadTable;
use loadex_obs::ProtocolEvent;
use loadex_sim::{ActorId, SimDuration};

/// What makes a [`NaiveMechanism`] broadcast.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    /// Algorithm 2 line 3: |my_load − last_load_sent| > threshold.
    Drift(Threshold),
    /// Every period, unless the load is unchanged since the last broadcast
    /// (no news, no message — otherwise an idle machine still floods the
    /// network).
    Heartbeat(SimDuration),
}

/// Absolute-value broadcast mechanism, drift- or heartbeat-triggered.
pub struct NaiveMechanism {
    me: ActorId,
    trigger: Trigger,
    /// `last_load_sent` of Algorithm 2; `None` until the first broadcast or
    /// [`NaiveMechanism::initialize`]. The drift trigger measures from zero
    /// then, while the heartbeat trigger's first tick always sends.
    last_sent: Option<Load>,
    view: LoadTable,
    /// §2.3 `NoMoreMaster`: peers that still want our load information.
    interested: Vec<bool>,
    stats: MechStats,
}

impl NaiveMechanism {
    /// A mechanism instance for process `me` of `nprocs`, broadcasting when
    /// the drift since the last broadcast exceeds `threshold` (Algorithm 2).
    pub fn new(me: ActorId, nprocs: usize, threshold: Threshold) -> Self {
        Self::with_trigger(me, nprocs, Trigger::Drift(threshold))
    }

    /// A mechanism instance for process `me` of `nprocs` that broadcasts on
    /// a timer every `period` instead, and never on a load change.
    pub fn heartbeat(me: ActorId, nprocs: usize, period: SimDuration) -> Self {
        Self::with_trigger(me, nprocs, Trigger::Heartbeat(period))
    }

    fn with_trigger(me: ActorId, nprocs: usize, trigger: Trigger) -> Self {
        let mut interested = vec![true; nprocs];
        interested[me.index()] = false;
        NaiveMechanism {
            me,
            trigger,
            last_sent: None,
            view: LoadTable::new(me, nprocs),
            interested,
            stats: MechStats::default(),
        }
    }

    /// Set the initial local load without broadcasting (Algorithm 2's
    /// `Initialize(my_load)`; in MUMPS this is the statically known cost of
    /// the local subtrees).
    pub fn initialize(&mut self, load: Load) {
        self.view.set(self.me, load);
        self.last_sent = Some(load);
    }

    /// Seed the belief about another process's initial load.
    pub fn initialize_peer(&mut self, p: ActorId, load: Load) {
        self.view.set(p, load);
    }

    /// Broadcast the absolute `load` and remember it as the last sent.
    fn broadcast(&mut self, load: Load, out: &mut Outbox) {
        self.send_to_interested(StateMsg::Update { load }, out);
        self.last_sent = Some(load);
    }

    fn send_to_interested(&mut self, msg: StateMsg, out: &mut Outbox) {
        let dests = ranks_in(&self.interested);
        self.stats.count_sent(&msg, dests.len());
        out.multicast(dests, msg);
    }
}

impl Mechanism for NaiveMechanism {
    fn on_local_change(&mut self, delta: Load, _origin: ChangeOrigin, out: &mut Outbox) {
        // The naive mechanism has no reservation path: every variation,
        // whatever its origin, flows through the local absolute load.
        let my_load = self.view.my_load() + delta;
        self.view.set(self.me, my_load);
        if let Trigger::Drift(threshold) = self.trigger {
            if (my_load - self.last_sent.unwrap_or(Load::ZERO)).exceeds(threshold) {
                self.broadcast(my_load, out);
            }
        }
    }

    fn on_state_msg(&mut self, from: ActorId, msg: StateMsg, out: &mut Outbox) -> Vec<Notify> {
        self.stats.msgs_received += 1;
        out.note(|| ProtocolEvent::state_recv(from, msg.kind(), msg.wire_size()));
        match msg {
            // Algorithm 2 line 7: load(Pj) = lj.
            StateMsg::Update { load } => self.view.set(from, load),
            StateMsg::NoMoreMaster => self.interested[from.index()] = false,
            other => panic!("naive mechanism received unexpected message {:?}", other),
        }
        Vec::new()
    }

    fn on_timer(&mut self, out: &mut Outbox) {
        let my_load = self.view.my_load();
        if matches!(self.trigger, Trigger::Heartbeat(_)) && self.last_sent != Some(my_load) {
            self.broadcast(my_load, out);
        }
    }

    fn timer_period(&self) -> Option<SimDuration> {
        match self.trigger {
            Trigger::Drift(_) => None,
            Trigger::Heartbeat(period) => Some(period),
        }
    }

    fn request_decision(&mut self, _out: &mut Outbox) -> Gate {
        // The view is maintained continuously; it is always "ready" (whether
        // it is *correct* is the whole point of the paper).
        Gate::Ready
    }

    fn complete_decision(
        &mut self,
        _assignments: &[(ActorId, Load)],
        _out: &mut Outbox,
    ) -> Vec<Notify> {
        // No reservation broadcast: this is precisely the naive mechanism's
        // weakness illustrated by Figure 1. The slaves' loads will only be
        // seen once the slaves themselves process the work and re-broadcast.
        self.stats.decisions += 1;
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

    fn mech(n: usize) -> (NaiveMechanism, Outbox) {
        (
            NaiveMechanism::new(ActorId(0), n, Threshold::new(10.0, 10.0)),
            Outbox::new(),
        )
    }

    #[test]
    fn below_threshold_stays_silent() {
        let (mut m, mut out) = mech(3);
        m.on_local_change(Load::work(5.0), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.view().my_load(), Load::work(5.0));
    }

    #[test]
    fn drift_accumulates_until_threshold() {
        let (mut m, mut out) = mech(3);
        m.on_local_change(Load::work(6.0), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty());
        m.on_local_change(Load::work(6.0), ChangeOrigin::Local, &mut out);
        // Drift from last_sent (0) is now 12 > 10: broadcast absolute value.
        let staged: Vec<_> = out.drain().collect();
        assert_eq!(
            staged,
            vec![OutMsg {
                dest: Dest::Many(vec![ActorId(1), ActorId(2)]),
                msg: StateMsg::Update {
                    load: Load::work(12.0)
                },
            }],
            "one copy per other process"
        );
    }

    #[test]
    fn update_overwrites_view() {
        let (mut m, mut out) = mech(3);
        let n = m.on_state_msg(
            ActorId(2),
            StateMsg::Update {
                load: Load::new(7.0, 3.0),
            },
            &mut out,
        );
        assert!(n.is_empty());
        assert_eq!(m.view().get(ActorId(2)), Load::new(7.0, 3.0));
        // A second update replaces, not accumulates.
        m.on_state_msg(
            ActorId(2),
            StateMsg::Update {
                load: Load::new(1.0, 1.0),
            },
            &mut out,
        );
        assert_eq!(m.view().get(ActorId(2)), Load::new(1.0, 1.0));
    }

    #[test]
    fn slave_origin_is_not_special() {
        let (mut m, mut out) = mech(2);
        m.on_local_change(Load::work(20.0), ChangeOrigin::SlaveTask, &mut out);
        // Naive has no MasterToAll, so slave-task arrivals must broadcast.
        assert_eq!(out.len(), 1);
        assert_eq!(m.view().my_load(), Load::work(20.0));
    }

    #[test]
    fn decisions_are_always_ready_and_silent() {
        let (mut m, mut out) = mech(4);
        assert_eq!(m.request_decision(&mut out), Gate::Ready);
        let n = m.complete_decision(&[(ActorId(1), Load::work(50.0))], &mut out);
        assert!(n.is_empty());
        assert!(out.is_empty(), "no reservation broadcast in naive");
        // And crucially: the master's view of the slave did NOT change.
        assert_eq!(m.view().get(ActorId(1)), Load::ZERO);
    }

    #[test]
    fn no_more_master_stops_traffic_to_sender() {
        let (mut m, mut out) = mech(3);
        m.on_state_msg(ActorId(1), StateMsg::NoMoreMaster, &mut out);
        m.on_local_change(Load::work(100.0), ChangeOrigin::Local, &mut out);
        let dests: Vec<_> = out.drain().map(|s| s.dest).collect();
        assert_eq!(dests, vec![Dest::Many(vec![ActorId(2)])]);
    }

    #[test]
    fn initialize_sets_baseline_without_messages() {
        let (mut m, mut out) = mech(2);
        m.initialize(Load::work(100.0));
        assert!(out.is_empty());
        // A small drift from the initial value does not broadcast.
        m.on_local_change(Load::work(-5.0), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty());
        m.on_local_change(Load::work(-6.0), ChangeOrigin::Local, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn stats_count_sends_per_destination() {
        let (mut m, mut out) = mech(5);
        m.on_local_change(Load::work(11.0), ChangeOrigin::Local, &mut out);
        assert_eq!(m.stats().msgs_sent, 4);
        assert!(m.stats().bytes_sent > 0);
    }

    #[test]
    fn memory_metric_triggers_independently() {
        let (mut m, mut out) = mech(2);
        m.on_local_change(Load::mem(11.0), ChangeOrigin::Local, &mut out);
        assert_eq!(out.len(), 1, "memory drift alone must broadcast");
    }

    fn heartbeat(n: usize) -> (NaiveMechanism, Outbox) {
        (
            NaiveMechanism::heartbeat(ActorId(0), n, SimDuration::from_millis(10)),
            Outbox::new(),
        )
    }

    #[test]
    fn heartbeat_load_changes_do_not_send() {
        let (mut m, mut out) = heartbeat(3);
        m.on_local_change(Load::work(1e9), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty(), "only the timer sends");
    }

    #[test]
    fn heartbeat_broadcasts_current_absolute_load() {
        let (mut m, mut out) = heartbeat(3);
        m.on_local_change(Load::work(5.0), ChangeOrigin::Local, &mut out);
        m.on_timer(&mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].dest, Dest::Many(vec![ActorId(1), ActorId(2)]));
        assert_eq!(
            msgs[0].msg,
            StateMsg::Update {
                load: Load::work(5.0)
            }
        );
    }

    #[test]
    fn heartbeat_idle_ticks_are_suppressed() {
        let (mut m, mut out) = heartbeat(3);
        m.on_local_change(Load::work(5.0), ChangeOrigin::Local, &mut out);
        m.on_timer(&mut out);
        out.drain().count();
        m.on_timer(&mut out);
        assert!(out.is_empty(), "no change since last heartbeat");
        m.on_local_change(Load::work(1.0), ChangeOrigin::Local, &mut out);
        m.on_timer(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn heartbeat_reports_its_period() {
        let (m, _) = heartbeat(2);
        assert_eq!(m.timer_period(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn heartbeat_respects_no_more_master() {
        let (mut m, mut out) = heartbeat(3);
        m.on_state_msg(ActorId(2), StateMsg::NoMoreMaster, &mut out);
        m.on_local_change(Load::work(5.0), ChangeOrigin::Local, &mut out);
        m.on_timer(&mut out);
        let dests: Vec<_> = out.drain().map(|o| o.dest).collect();
        assert_eq!(dests, vec![Dest::Many(vec![ActorId(1)])]);
    }
}
