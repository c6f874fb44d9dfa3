//! Periodic (time-driven) broadcast — an extension mechanism.
//!
//! The paper's naive mechanism is *event*-driven: it broadcasts when the
//! load drifted by more than a threshold. The classic alternative in
//! runtime systems is *time*-driven heartbeating: broadcast the absolute
//! load every `T`, whatever happened. This mechanism implements that design
//! point so the harness can compare the two triggering disciplines under
//! identical conditions.
//!
//! Like the naive mechanism it has **no reservation path** — the comparison
//! isolates the dissemination *trigger*, not the coherence fix (use
//! [`crate::increments::IncrementMechanism`] for that).

use crate::load::Load;
use crate::mech::{ChangeOrigin, Gate, MechStats, Mechanism, Notify};
use crate::msg::StateMsg;
use crate::outbox::{ranks_in, Outbox};
use crate::view::LoadTable;
use loadex_obs::ProtocolEvent;
use loadex_sim::{ActorId, SimDuration};

/// Time-driven absolute-load broadcast.
pub struct PeriodicMechanism {
    me: ActorId,
    period: SimDuration,
    view: LoadTable,
    /// Last value broadcast, to suppress idle heartbeats (no news, no
    /// message — otherwise an idle machine still floods the network).
    last_sent: Option<Load>,
    interested: Vec<bool>,
    stats: MechStats,
}

impl PeriodicMechanism {
    /// A mechanism instance broadcasting every `period`.
    pub fn new(me: ActorId, nprocs: usize, period: SimDuration) -> Self {
        let mut interested = vec![true; nprocs];
        interested[me.index()] = false;
        PeriodicMechanism {
            me,
            period,
            view: LoadTable::new(me, nprocs),
            last_sent: None,
            interested,
            stats: MechStats::default(),
        }
    }

    /// Set the initial local load without broadcasting.
    pub fn initialize(&mut self, load: Load) {
        self.view.set(self.me, load);
        self.last_sent = Some(load);
    }

    /// Seed the belief about another process's initial load.
    pub fn initialize_peer(&mut self, p: ActorId, load: Load) {
        self.view.set(p, load);
    }

    fn send_to_interested(&mut self, msg: StateMsg, out: &mut Outbox) {
        let dests = ranks_in(&self.interested);
        self.stats.count_sent(&msg, dests.len());
        out.multicast(dests, msg);
    }
}

impl Mechanism for PeriodicMechanism {
    fn rank(&self) -> ActorId {
        self.me
    }

    fn nprocs(&self) -> usize {
        self.view.nprocs()
    }

    fn on_local_change(&mut self, delta: Load, _origin: ChangeOrigin, _out: &mut Outbox) {
        // Nothing is sent here: dissemination is purely timer-driven.
        let v = self.view.my_load() + delta;
        self.view.set(self.me, v);
    }

    fn on_state_msg(&mut self, from: ActorId, msg: StateMsg, out: &mut Outbox) -> Vec<Notify> {
        self.stats.msgs_received += 1;
        out.note(|| ProtocolEvent::StateRecv {
            from,
            kind: msg.kind_name(),
            bytes: msg.wire_size(),
        });
        match msg {
            StateMsg::Update { load } => self.view.set(from, load),
            StateMsg::NoMoreMaster => self.interested[from.index()] = false,
            other => panic!("periodic mechanism received unexpected message {:?}", other),
        }
        Vec::new()
    }

    fn on_timer(&mut self, out: &mut Outbox) {
        let my = self.view.my_load();
        if self.last_sent == Some(my) {
            return; // heartbeat suppression: nothing changed
        }
        self.send_to_interested(StateMsg::Update { load: my }, out);
        self.last_sent = Some(my);
    }

    fn timer_period(&self) -> Option<SimDuration> {
        Some(self.period)
    }

    fn request_decision(&mut self, _out: &mut Outbox) -> Gate {
        Gate::Ready
    }

    fn complete_decision(
        &mut self,
        _assignments: &[(ActorId, Load)],
        _out: &mut Outbox,
    ) -> Vec<Notify> {
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
    use crate::outbox::Dest;

    fn mech(n: usize) -> (PeriodicMechanism, Outbox) {
        (
            PeriodicMechanism::new(ActorId(0), n, SimDuration::from_millis(10)),
            Outbox::new(),
        )
    }

    #[test]
    fn load_changes_do_not_send() {
        let (mut m, mut out) = mech(3);
        m.on_local_change(Load::work(1e9), ChangeOrigin::Local, &mut out);
        assert!(out.is_empty(), "only the timer sends");
    }

    #[test]
    fn timer_broadcasts_current_absolute_load() {
        let (mut m, mut out) = mech(3);
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
    fn idle_heartbeats_are_suppressed() {
        let (mut m, mut out) = mech(3);
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
    fn reports_its_period() {
        let (m, _) = mech(2);
        assert_eq!(m.timer_period(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn respects_no_more_master() {
        let (mut m, mut out) = mech(3);
        m.on_state_msg(ActorId(2), StateMsg::NoMoreMaster, &mut out);
        m.on_local_change(Load::work(5.0), ChangeOrigin::Local, &mut out);
        m.on_timer(&mut out);
        let dests: Vec<_> = out.drain().map(|o| o.dest).collect();
        assert_eq!(dests, vec![Dest::Many(vec![ActorId(1)])]);
    }
}
