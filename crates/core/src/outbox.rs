//! Outgoing-message staging.
//!
//! Mechanisms emit messages into an [`Outbox`]; the embedding (simulator or
//! thread runtime) drains it and performs the actual sends. This keeps the
//! mechanisms transport-agnostic and makes their unit tests trivial: assert
//! on the outbox contents.
//!
//! The outbox doubles as the staging area for [`ProtocolEvent`]s: mechanisms
//! are pure state machines without a clock, so they stage *untimed* events
//! here and the embedding stamps `(time, actor)` when it forwards them to a
//! `loadex_obs::Recorder`. Staging is off by default and costs a single
//! boolean check per site (see [`Outbox::note`]).

use crate::msg::StateMsg;
use loadex_obs::{event, ProtocolEvent};
use loadex_sim::{ActorId, Dests, RankSet};
use std::sync::Arc;

/// Where a staged message goes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dest {
    /// Every process except the sender: a mechanism need not know how many
    /// there are.
    AllOthers,
    /// These processes, in the simulator's own destination format: one
    /// rank ([`Outbox::send`]), a list in send order
    /// ([`Outbox::multicast`]) or a rank set shared with the mechanism that
    /// staged it ([`Outbox::multicast_set`]).
    To(Dests),
}

impl Dest {
    /// The destinations of a message that process `from` of `nprocs`
    /// staged: a broadcast becomes the all-but-sender range, and a set
    /// stays shared.
    pub fn into_dests(self, from: ActorId, nprocs: usize) -> Dests {
        match self {
            Dest::AllOthers => Dests::AllBut {
                n: nprocs,
                except: from,
            },
            Dest::To(dests) => dests,
        }
    }
}

/// One staged outgoing message.
#[derive(Clone, Debug, PartialEq)]
pub struct OutMsg {
    /// Destination.
    pub dest: Dest,
    /// Payload.
    pub msg: StateMsg,
}

/// A buffer of staged outgoing state messages and protocol events.
#[derive(Debug, Default)]
pub struct Outbox {
    msgs: Vec<OutMsg>,
    events: Vec<ProtocolEvent>,
    observe: bool,
}

impl Outbox {
    /// An empty outbox (event staging disabled).
    pub fn new() -> Self {
        Outbox::default()
    }

    /// An empty outbox that stages [`ProtocolEvent`]s alongside messages.
    pub fn observed() -> Self {
        let mut ob = Outbox::default();
        ob.set_observe(true);
        ob
    }

    /// Turn event staging on or off.
    pub fn set_observe(&mut self, observe: bool) {
        self.observe = observe;
    }

    /// Whether [`Outbox::note`] currently keeps events.
    #[inline]
    pub fn observing(&self) -> bool {
        self.observe
    }

    /// Stage a protocol event; `build` only runs while observing, so hot
    /// sites pay one boolean check when tracing is off.
    #[inline]
    pub fn note(&mut self, build: impl FnOnce() -> ProtocolEvent) {
        if self.observe {
            self.events.push(build());
        }
    }

    /// Stage a message for one destination.
    pub fn send(&mut self, to: ActorId, msg: StateMsg) {
        self.note(|| ProtocolEvent::state_send(Some(to), msg.kind(), msg.wire_size()));
        self.msgs.push(OutMsg {
            dest: Dest::To(Dests::One(to)),
            msg,
        });
    }

    /// Stage one message for each of `dests`, in order, as a single entry:
    /// the payload is staged once, and the embedding routes it to every
    /// destination. Observed as one send per destination, exactly as the
    /// same [`Outbox::send`]s would be. No destination stages nothing.
    pub fn multicast(&mut self, dests: Vec<ActorId>, msg: StateMsg) {
        if dests.is_empty() {
            return;
        }
        self.note_sends(dests.iter().copied(), &msg);
        self.msgs.push(OutMsg {
            dest: Dest::To(dests.into()),
            msg,
        });
    }

    /// Stage one message for each member of `set`, in rank order, as a
    /// single entry that shares the set rather than copying it: a later
    /// change to the mechanism's set copies it first if a staged or
    /// in-flight message still holds it ([`Arc::make_mut`]). Observed as one
    /// send per member, like [`Outbox::multicast`]. An empty set stages
    /// nothing.
    pub fn multicast_set(&mut self, set: &Arc<RankSet>, msg: StateMsg) {
        if set.is_empty() {
            return;
        }
        self.note_sends(set.iter(), &msg);
        self.msgs.push(OutMsg {
            dest: Dest::To(Dests::Set(Arc::clone(set))),
            msg,
        });
    }

    /// Stage one send event per destination while observing.
    fn note_sends(&mut self, dests: impl Iterator<Item = ActorId>, msg: &StateMsg) {
        if self.observe {
            let (kind, bytes) = (msg.kind(), event::narrow(msg.wire_size()));
            self.events.extend(dests.map(|to| ProtocolEvent::StateSend {
                to: event::rank(to),
                kind,
                bytes,
            }));
        }
    }

    /// Stage a broadcast to all other processes (observed as a single
    /// logical send with no destination).
    pub fn broadcast(&mut self, msg: StateMsg) {
        self.note(|| ProtocolEvent::state_send(None, msg.kind(), msg.wire_size()));
        self.msgs.push(OutMsg {
            dest: Dest::AllOthers,
            msg,
        });
    }

    /// Drain all staged messages in emission order.
    pub fn drain(&mut self) -> impl Iterator<Item = OutMsg> + '_ {
        self.msgs.drain(..)
    }

    /// Drain all staged protocol events in emission order.
    pub fn drain_events(&mut self) -> impl Iterator<Item = ProtocolEvent> + '_ {
        self.events.drain(..)
    }

    /// Staged messages (without draining), for assertions.
    pub fn peek(&self) -> &[OutMsg] {
        &self.msgs
    }

    /// Number of staged messages (a multicast is one).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use loadex_obs::MsgKind;

    #[test]
    fn stage_and_drain_preserves_order() {
        let mut ob = Outbox::new();
        ob.send(ActorId(1), StateMsg::EndSnp);
        ob.broadcast(StateMsg::Update { load: Load::ZERO });
        assert_eq!(ob.len(), 2);
        let drained: Vec<_> = ob.drain().collect();
        assert_eq!(drained[0].dest, Dest::To(Dests::One(ActorId(1))));
        assert_eq!(drained[1].dest, Dest::AllOthers);
        assert!(ob.is_empty());
    }

    #[test]
    fn observed_multicast_stages_what_per_peer_sends_did() {
        let msg = StateMsg::UpdateDelta {
            delta: Load::work(3.0),
        };
        let dests = vec![ActorId(4), ActorId(1), ActorId(2)];
        let mut per_peer = Outbox::observed();
        let mut multi = Outbox::observed();
        for &q in &dests {
            per_peer.send(q, msg.clone());
        }
        multi.multicast(dests.clone(), msg.clone());
        let multi_events: Vec<_> = multi.drain_events().collect();
        let per_peer_events: Vec<_> = per_peer.drain_events().collect();
        assert_eq!(multi_events, per_peer_events);
        assert_eq!(multi_events.len(), 3);
        assert_eq!(
            multi.peek(),
            &[OutMsg {
                dest: Dest::To(dests.into()),
                msg
            }]
        );
        multi.multicast(Vec::new(), StateMsg::EndSnp);
        assert_eq!(multi.len(), 1, "no destination stages nothing");
        assert_eq!(multi.drain_events().count(), 0);
    }

    #[test]
    fn observed_set_multicast_stages_what_per_peer_sends_did() {
        let msg = StateMsg::NoMoreMaster;
        let mut set = RankSet::new(70);
        for r in [66, 3, 64] {
            set.insert(ActorId(r));
        }
        let set = Arc::new(set);
        let mut per_peer = Outbox::observed();
        let mut multi = Outbox::observed();
        for q in [3, 64, 66] {
            per_peer.send(ActorId(q), msg.clone());
        }
        multi.multicast_set(&set, msg.clone());
        assert_eq!(
            multi.drain_events().collect::<Vec<_>>(),
            per_peer.drain_events().collect::<Vec<_>>()
        );
        let staged: Vec<_> = multi.drain().collect();
        assert_eq!(staged.len(), 1);
        match &staged[0].dest {
            Dest::To(Dests::Set(shared)) => assert!(Arc::ptr_eq(shared, &set), "the set is shared"),
            other => panic!("unexpected {other:?}"),
        }
        multi.multicast_set(&Arc::new(RankSet::new(70)), msg);
        assert!(multi.is_empty(), "an empty set stages nothing");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut ob = Outbox::new();
        ob.send(ActorId(0), StateMsg::NoMoreMaster);
        assert_eq!(ob.peek().len(), 1);
        assert_eq!(ob.peek().len(), 1);
    }

    #[test]
    fn events_only_staged_while_observing() {
        let mut ob = Outbox::new();
        ob.send(ActorId(1), StateMsg::EndSnp);
        ob.note(|| panic!("must not be built when not observing"));
        assert_eq!(ob.drain_events().count(), 0);

        let mut ob = Outbox::observed();
        ob.send(ActorId(1), StateMsg::EndSnp);
        ob.broadcast(StateMsg::NoMoreMaster);
        ob.note(|| ProtocolEvent::Blocked);
        let events: Vec<_> = ob.drain_events().collect();
        assert_eq!(
            events,
            vec![
                ProtocolEvent::StateSend {
                    to: 1,
                    kind: MsgKind::EndSnp,
                    bytes: event::narrow(StateMsg::EndSnp.wire_size()),
                },
                ProtocolEvent::StateBroadcast {
                    kind: MsgKind::NoMoreMaster,
                    bytes: event::narrow(StateMsg::NoMoreMaster.wire_size()),
                },
                ProtocolEvent::Blocked,
            ]
        );
        assert_eq!(ob.len(), 2, "messages are unaffected by event drain");
    }
}
