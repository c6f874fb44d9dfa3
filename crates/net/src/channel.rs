//! Logical channels and message envelopes.

use loadex_sim::ActorId;

/// The two logical channels of the paper's system model (§1).
///
/// State-information messages (load updates, snapshot control) travel on a
/// dedicated channel and are always received before regular application
/// messages (tasks, data).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Channel {
    /// Priority channel for state information (load updates, snapshots).
    State,
    /// Regular channel for application traffic (tasks, factor blocks, data).
    Regular,
}

/// A message in flight or in a mailbox.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: ActorId,
    /// Receiver.
    pub to: ActorId,
    /// Which logical channel it travels on.
    pub channel: Channel,
    /// Payload size in bytes (drives the bandwidth term of the cost model).
    pub size: u64,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Convenience constructor.
    pub fn new(from: ActorId, to: ActorId, channel: Channel, size: u64, msg: M) -> Self {
        Envelope {
            from,
            to,
            channel,
            size,
            msg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_fields() {
        let e = Envelope::new(ActorId(1), ActorId(2), Channel::State, 64, "hello");
        assert_eq!(e.from, ActorId(1));
        assert_eq!(e.to, ActorId(2));
        assert_eq!(e.size, 64);
        assert_eq!(e.msg, "hello");
    }
}
