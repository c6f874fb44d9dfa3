//! Gossip / anti-entropy dissemination — an extension mechanism.
//!
//! Twenty years after the paper, the dominant way production systems spread
//! liveness/load information is epidemic gossip (SWIM, HashiCorp
//! memberlist/Serf, …): every `T`, each node pushes its whole versioned view
//! to a small number of peers; entries merge by version. Per round, a node
//! sends `fanout` messages of size `O(N)` instead of `N−1` messages, and
//! information reaches everyone in `O(log N)` rounds with high probability.
//!
//! This mechanism brings that design into the paper's comparison. Each
//! process owns a *versioned* entry for itself (version bumped on every
//! local change) and remembers the freshest entry it has seen for everyone
//! else; a gossip round pushes the entire digest to `fanout` peers chosen by
//! deterministic rotation (round-robin with a stride, so the simulation
//! stays reproducible and every peer is visited).
//!
//! Like the naive mechanism it has no reservation path, so it inherits the
//! Figure 1 incoherence *plus* multi-hop propagation delay — the experiments
//! show what that costs a scheduler in exchange for the traffic economy.

use crate::load::Load;
use crate::mech::{ChangeOrigin, Gate, MechStats, Mechanism, Notify};
use crate::msg::StateMsg;
use crate::outbox::Outbox;
use crate::view::LoadTable;
use loadex_obs::ProtocolEvent;
use loadex_sim::{ActorId, SimDuration};

/// Epidemic (push) gossip of versioned load entries.
pub struct GossipMechanism {
    me: ActorId,
    period: SimDuration,
    fanout: usize,
    view: LoadTable,
    /// Version per entry; `versions[me]` counts our own changes.
    versions: Vec<u64>,
    /// Rotation cursor for peer selection.
    cursor: usize,
    stats: MechStats,
}

impl GossipMechanism {
    /// A mechanism gossiping to `fanout` peers every `period`.
    pub fn new(me: ActorId, nprocs: usize, period: SimDuration, fanout: usize) -> Self {
        assert!(fanout >= 1, "fanout must be at least 1");
        GossipMechanism {
            me,
            period,
            fanout: fanout.min(nprocs.saturating_sub(1).max(1)),
            view: LoadTable::new(me, nprocs),
            versions: vec![0; nprocs],
            cursor: me.index() % nprocs.max(1),
            stats: MechStats::default(),
        }
    }

    /// Set the initial local load without gossiping.
    pub fn initialize(&mut self, load: Load) {
        self.view.set(self.me, load);
    }

    /// Seed the belief about another process's initial load (version 0).
    pub fn initialize_peer(&mut self, p: ActorId, load: Load) {
        self.view.set(p, load);
    }

    /// The digest this process would push (exposed for tests).
    pub fn digest(&self) -> Vec<(ActorId, u64, Load)> {
        (0..self.view.nprocs())
            .map(|q| (ActorId(q), self.versions[q], self.view.get(ActorId(q))))
            .collect()
    }

    fn next_peers(&mut self) -> Vec<ActorId> {
        let n = self.view.nprocs();
        let mut peers = Vec::with_capacity(self.fanout);
        let mut probe = 0;
        while peers.len() < self.fanout && probe < n {
            self.cursor = (self.cursor + 1) % n;
            probe += 1;
            if self.cursor != self.me.index() {
                peers.push(ActorId(self.cursor));
            }
        }
        peers
    }
}

impl Mechanism for GossipMechanism {
    fn on_local_change(&mut self, delta: Load, _origin: ChangeOrigin, _out: &mut Outbox) {
        let v = self.view.my_load() + delta;
        self.view.set(self.me, v);
        self.versions[self.me.index()] += 1;
    }

    fn on_state(&mut self, from: ActorId, msg: &StateMsg, out: &mut Outbox) -> Option<Notify> {
        self.stats.msgs_received += 1;
        out.note(|| ProtocolEvent::state_recv(from, msg.kind(), msg.wire_size()));
        match msg {
            StateMsg::Gossip { entries } => {
                for &(q, ver, load) in entries {
                    // Never let second-hand data overwrite our own entry.
                    if q == self.me {
                        continue;
                    }
                    if ver > self.versions[q.index()] {
                        self.versions[q.index()] = ver;
                        self.view.set(q, load);
                    }
                }
            }
            StateMsg::NoMoreMaster => { /* gossip fanout is already bounded */ }
            other => panic!("gossip mechanism received unexpected message {:?}", other),
        }
        None
    }

    fn on_timer(&mut self, out: &mut Outbox) {
        let digest = self.digest();
        let msg = StateMsg::Gossip { entries: digest };
        let peers = self.next_peers();
        self.stats.count_sent(&msg, peers.len());
        out.multicast(peers, msg);
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
    ) -> Option<Notify> {
        self.stats.decisions += 1;
        None
    }

    fn no_more_master(&mut self, _out: &mut Outbox) {}

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

    fn mech(me: usize, n: usize, fanout: usize) -> GossipMechanism {
        GossipMechanism::new(ActorId(me), n, SimDuration::from_millis(5), fanout)
    }

    #[test]
    fn local_changes_bump_own_version() {
        let mut m = mech(0, 4, 1);
        let mut out = Outbox::new();
        m.on_local_change(Load::work(3.0), ChangeOrigin::Local, &mut out);
        m.on_local_change(Load::work(2.0), ChangeOrigin::Local, &mut out);
        assert_eq!(m.digest()[0], (ActorId(0), 2, Load::work(5.0)));
        assert!(out.is_empty());
    }

    #[test]
    fn timer_pushes_to_fanout_peers_in_rotation() {
        let mut m = mech(0, 5, 2);
        let mut out = Outbox::new();
        m.on_timer(&mut out);
        let d1: Vec<_> = out.drain().map(|o| o.dest).collect();
        m.on_timer(&mut out);
        let d2: Vec<_> = out.drain().map(|o| o.dest).collect();
        let peers = |a, b| Dest::To(vec![ActorId(a), ActorId(b)].into());
        assert_eq!(d1, vec![peers(1, 2)]);
        assert_eq!(d2, vec![peers(3, 4)]);
        // Rotation skips self and wraps.
        m.on_timer(&mut out);
        let d3: Vec<_> = out.drain().map(|o| o.dest).collect();
        assert_eq!(d3, vec![peers(1, 2)]);
    }

    #[test]
    fn merge_keeps_newest_version() {
        let mut m = mech(0, 3, 1);
        let mut out = Outbox::new();
        m.on_state_msg(
            ActorId(1),
            StateMsg::Gossip {
                entries: vec![(ActorId(2), 5, Load::work(50.0))],
            },
            &mut out,
        );
        assert_eq!(m.view().get(ActorId(2)), Load::work(50.0));
        // An older rumour must not regress the entry.
        m.on_state_msg(
            ActorId(1),
            StateMsg::Gossip {
                entries: vec![(ActorId(2), 3, Load::work(10.0))],
            },
            &mut out,
        );
        assert_eq!(m.view().get(ActorId(2)), Load::work(50.0));
        // A newer one updates it.
        m.on_state_msg(
            ActorId(1),
            StateMsg::Gossip {
                entries: vec![(ActorId(2), 6, Load::work(60.0))],
            },
            &mut out,
        );
        assert_eq!(m.view().get(ActorId(2)), Load::work(60.0));
    }

    #[test]
    fn own_entry_is_never_overwritten_by_rumour() {
        let mut m = mech(0, 3, 1);
        let mut out = Outbox::new();
        m.on_local_change(Load::work(7.0), ChangeOrigin::Local, &mut out);
        m.on_state_msg(
            ActorId(1),
            StateMsg::Gossip {
                entries: vec![(ActorId(0), 99, Load::work(0.0))],
            },
            &mut out,
        );
        assert_eq!(m.view().my_load(), Load::work(7.0));
    }

    #[test]
    fn epidemic_convergence_in_log_rounds() {
        // 16 processes; P0 changes its load; after a few synchronous rounds
        // of push gossip everyone must know the new value.
        let n = 16;
        let mut mechs: Vec<GossipMechanism> = (0..n).map(|i| mech(i, n, 2)).collect();
        let mut out = Outbox::new();
        mechs[0].on_local_change(Load::work(42.0), ChangeOrigin::Local, &mut out);
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds <= 16, "gossip failed to converge");
            // One synchronous round: everyone fires its timer, messages
            // deliver instantly.
            let mut inflight: Vec<(ActorId, ActorId, StateMsg)> = Vec::new();
            for m in mechs.iter_mut() {
                let mut o = Outbox::new();
                m.on_timer(&mut o);
                for staged in o.drain() {
                    if let Dest::To(peers) = staged.dest {
                        for to in peers.iter() {
                            inflight.push((m.view().me(), to, staged.msg.clone()));
                        }
                    }
                }
            }
            for (from, to, msg) in inflight {
                mechs[to.index()].on_state_msg(from, msg, &mut out);
            }
            if (0..n).all(|p| mechs[p].view().get(ActorId(0)) == Load::work(42.0)) {
                break;
            }
        }
        assert!(rounds <= 10, "took {rounds} rounds for n=16, fanout=2");
    }

    #[test]
    fn fanout_is_clamped_to_peers() {
        let m = GossipMechanism::new(ActorId(0), 3, SimDuration::from_millis(1), 10);
        assert_eq!(m.fanout, 2);
    }
}
