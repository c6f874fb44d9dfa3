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
use loadex_sim::ActorId;

/// Where a staged message goes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dest {
    /// A single process.
    One(ActorId),
    /// Each of these processes, in this order (see [`Outbox::multicast`]).
    Many(Vec<ActorId>),
    /// Every process except the sender.
    AllOthers,
}

/// The ranks whose entry in `mask` is set, in rank order.
pub(crate) fn ranks_in(mask: &[bool]) -> Vec<ActorId> {
    (0..mask.len()).filter(|&p| mask[p]).map(ActorId).collect()
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
            dest: Dest::One(to),
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
        if self.observe {
            let (kind, bytes) = (msg.kind(), event::narrow(msg.wire_size()));
            self.events
                .extend(dests.iter().map(|&to| ProtocolEvent::StateSend {
                    to: Some(event::rank(to)),
                    kind,
                    bytes,
                }));
        }
        self.msgs.push(OutMsg {
            dest: Dest::Many(dests),
            msg,
        });
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
        assert_eq!(drained[0].dest, Dest::One(ActorId(1)));
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
                dest: Dest::Many(dests),
                msg
            }]
        );
        multi.multicast(Vec::new(), StateMsg::EndSnp);
        assert_eq!(multi.len(), 1, "no destination stages nothing");
        assert_eq!(multi.drain_events().count(), 0);
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
                    to: Some(1),
                    kind: MsgKind::EndSnp,
                    bytes: event::narrow(StateMsg::EndSnp.wire_size()),
                },
                ProtocolEvent::StateSend {
                    to: None,
                    kind: MsgKind::NoMoreMaster,
                    bytes: event::narrow(StateMsg::NoMoreMaster.wire_size()),
                },
                ProtocolEvent::Blocked,
            ]
        );
        assert_eq!(ob.len(), 2, "messages are unaffected by event drain");
    }
}
