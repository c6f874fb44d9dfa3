//! Real multi-threaded transport.
//!
//! One [`Endpoint`] per participant (typically one per OS thread). Each
//! endpoint owns two unbounded crossbeam receivers — the state channel and
//! the regular channel — mirroring the paper's “specific channel … for those
//! messages”. Receiving always drains the state channel first.
//!
//! This transport lets the examples, integration tests and the solver's
//! threaded backend exercise the exact same mechanism state machines as the
//! discrete-event simulator, but under genuine thread asynchrony.
//!
//! Two facilities exist specifically for the §4.5 threaded execution model:
//!
//! * [`Endpoint::comm_half`] splits off a [`CommEndpoint`] — the state-channel
//!   half — so a dedicated communication thread can poll and answer state
//!   messages while the main thread computes. Once split, the main thread
//!   must receive only through [`Endpoint::try_recv_regular`] /
//!   [`Endpoint::recv_regular_timeout`]: both halves share the state queue,
//!   so a state receive on the main endpoint would race the comm thread.
//! * [`Endpoint::shutdown`] / [`Endpoint::drain`] tear an endpoint down
//!   without losing in-flight envelopes, and because no endpoint holds a
//!   sender to itself, a peer dropping out is observable as
//!   [`RecvError::Disconnected`] once every other participant is gone.

use crate::channel::{Channel, Envelope};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use loadex_sim::ActorId;
use std::time::{Duration, Instant};

/// Error from a blocking receive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders to this endpoint were dropped.
    Disconnected,
}

impl From<RecvTimeoutError> for RecvError {
    fn from(e: RecvTimeoutError) -> Self {
        if e.is_timeout() {
            RecvError::Timeout
        } else {
            RecvError::Disconnected
        }
    }
}

/// One participant's handle on the network.
pub struct Endpoint<M> {
    rank: ActorId,
    nprocs: usize,
    /// Senders to every peer's state channel; `None` at our own rank, so that
    /// a peer observing us drop really sees its channel disconnect.
    state_tx: Vec<Option<Sender<Envelope<M>>>>,
    regular_tx: Vec<Option<Sender<Envelope<M>>>>,
    state_rx: Receiver<Envelope<M>>,
    regular_rx: Receiver<Envelope<M>>,
}

/// The state-channel half of an [`Endpoint`], split off with
/// [`Endpoint::comm_half`] for a dedicated communication thread (§4.5): it
/// can receive from the state channel and send/broadcast state messages,
/// nothing else.
pub struct CommEndpoint<M> {
    rank: ActorId,
    nprocs: usize,
    state_tx: Vec<Option<Sender<Envelope<M>>>>,
    state_rx: Receiver<Envelope<M>>,
}

/// Factory for a fully-connected set of endpoints.
pub struct ThreadNetwork;

impl ThreadNetwork {
    /// Create `nprocs` fully-connected endpoints. Move each into its thread.
    #[allow(clippy::new_ret_no_self)] // factory: the endpoints are the network
    pub fn new<M>(nprocs: usize) -> Vec<Endpoint<M>> {
        assert!(nprocs >= 1);
        let mut state_tx = Vec::with_capacity(nprocs);
        let mut state_rx = Vec::with_capacity(nprocs);
        let mut regular_tx = Vec::with_capacity(nprocs);
        let mut regular_rx = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (ts, rs) = unbounded();
            let (tr, rr) = unbounded();
            state_tx.push(ts);
            state_rx.push(rs);
            regular_tx.push(tr);
            regular_rx.push(rr);
        }
        state_rx
            .into_iter()
            .zip(regular_rx)
            .enumerate()
            .map(|(rank, (srx, rrx))| Endpoint {
                rank: ActorId(rank),
                nprocs,
                state_tx: state_tx
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                    .collect(),
                regular_tx: regular_tx
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                    .collect(),
                state_rx: srx,
                regular_rx: rrx,
            })
            .collect()
    }
}

impl<M> Endpoint<M> {
    /// This endpoint's rank.
    pub fn rank(&self) -> ActorId {
        self.rank
    }

    /// Number of participants.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Split off the state-channel half for a dedicated communication thread
    /// (§4.5). The returned [`CommEndpoint`] shares this endpoint's state
    /// queue; after calling this, receive on the main endpoint only through
    /// [`Endpoint::try_recv_regular`] / [`Endpoint::recv_regular_timeout`] —
    /// a state receive here would race the comm thread for the same
    /// messages.
    pub fn comm_half(&self) -> CommEndpoint<M> {
        CommEndpoint {
            rank: self.rank,
            nprocs: self.nprocs,
            state_tx: self.state_tx.clone(),
            state_rx: self.state_rx.clone(),
        }
    }

    /// Send `msg` to `to` on `channel`. Panics on self-send or out-of-range
    /// rank. Returns `false` if the destination endpoint was dropped.
    pub fn send(&self, to: ActorId, channel: Channel, size: u64, msg: M) -> bool {
        assert_ne!(to, self.rank, "self-send");
        assert!(to.index() < self.nprocs, "rank out of range");
        let env = Envelope::new(self.rank, to, channel, size, msg);
        let tx = match channel {
            Channel::State => &self.state_tx[to.index()],
            Channel::Regular => &self.regular_tx[to.index()],
        };
        tx.as_ref().expect("self-send").send(env).is_ok()
    }

    /// Broadcast to every other endpoint. Returns how many sends succeeded.
    pub fn broadcast(&self, channel: Channel, size: u64, msg: &M) -> usize
    where
        M: Clone,
    {
        (0..self.nprocs)
            .filter(|&p| p != self.rank.index())
            .filter(|&p| self.send(ActorId(p), channel, size, msg.clone()))
            .count()
    }

    /// Non-blocking receive, state channel first.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.state_rx
            .try_recv()
            .or_else(|_| self.regular_rx.try_recv())
            .ok()
    }

    /// Non-blocking receive from the state channel only.
    pub fn try_recv_state(&self) -> Option<Envelope<M>> {
        self.state_rx.try_recv().ok()
    }

    /// Non-blocking receive from the regular channel only (the main thread's
    /// receive primitive once a [`CommEndpoint`] owns the state channel).
    pub fn try_recv_regular(&self) -> Option<Envelope<M>> {
        self.regular_rx.try_recv().ok()
    }

    /// Blocking receive with a deadline, state channel first.
    ///
    /// Wakes immediately when a state message arrives; pending regular
    /// messages are picked up within a short poll slice (starting at the
    /// paper's 50 µs threaded-variant period and backing off while idle).
    /// Returns [`RecvError::Disconnected`] once every peer endpoint has been
    /// dropped and no message remains.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut slice = Duration::from_micros(50);
        loop {
            let state_alive = match self.state_rx.try_recv() {
                Ok(env) => return Ok(env),
                Err(TryRecvError::Empty) => true,
                Err(TryRecvError::Disconnected) => false,
            };
            match self.regular_rx.try_recv() {
                Ok(env) => return Ok(env),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) if !state_alive => {
                    return Err(RecvError::Disconnected);
                }
                Err(TryRecvError::Disconnected) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            // Block on the state channel (or the regular one if state is
            // gone): an arrival wakes us, a timeout re-polls both.
            let rx = if state_alive {
                &self.state_rx
            } else {
                &self.regular_rx
            };
            if let Ok(env) = rx.recv_timeout(slice.min(deadline - now)) {
                return Ok(env);
            }
            slice = (slice * 2).min(Duration::from_millis(2));
        }
    }

    /// Blocking receive from the state channel only, with a deadline.
    pub fn recv_state_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        Ok(self.state_rx.recv_timeout(timeout)?)
    }

    /// Blocking receive from the regular channel only, with a deadline (the
    /// main thread's receive primitive once a [`CommEndpoint`] owns the
    /// state channel).
    pub fn recv_regular_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        Ok(self.regular_rx.recv_timeout(timeout)?)
    }

    /// Receive everything currently pending without blocking, all state
    /// messages first, then all regular ones.
    pub fn drain(&self) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv_state() {
            out.push(env);
        }
        while let Some(env) = self.try_recv_regular() {
            out.push(env);
        }
        out
    }

    /// Tear the endpoint down: stop being able to send (peers see the
    /// disconnect once every other participant is gone too) and return every
    /// envelope that was still queued, state messages first. Messages sent to
    /// this endpoint after shutdown are refused (`send` returns `false` at
    /// the sender).
    pub fn shutdown(mut self) -> Vec<Envelope<M>> {
        self.state_tx.clear();
        self.regular_tx.clear();
        self.drain()
        // `self` drops here, closing the receive side.
    }
}

impl<M> CommEndpoint<M> {
    /// This endpoint's rank.
    pub fn rank(&self) -> ActorId {
        self.rank
    }

    /// Number of participants.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Send a state message to `to`. Panics on self-send or out-of-range
    /// rank. Returns `false` if the destination endpoint was dropped.
    pub fn send(&self, to: ActorId, size: u64, msg: M) -> bool {
        assert_ne!(to, self.rank, "self-send");
        assert!(to.index() < self.nprocs, "rank out of range");
        let env = Envelope::new(self.rank, to, Channel::State, size, msg);
        self.state_tx[to.index()]
            .as_ref()
            .expect("self-send")
            .send(env)
            .is_ok()
    }

    /// Broadcast a state message to every other endpoint. Returns how many
    /// sends succeeded.
    pub fn broadcast(&self, size: u64, msg: &M) -> usize
    where
        M: Clone,
    {
        (0..self.nprocs)
            .filter(|&p| p != self.rank.index())
            .filter(|&p| self.send(ActorId(p), size, msg.clone()))
            .count()
    }

    /// Non-blocking receive from the state channel.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.state_rx.try_recv().ok()
    }

    /// Blocking receive from the state channel with a deadline. Wakes as
    /// soon as a message arrives (the timeout is the comm thread's poll
    /// period — an upper bound on servicing latency, not added latency).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        Ok(self.state_rx.recv_timeout(timeout)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let eps = ThreadNetwork::new::<u32>(2);
        let [a, b]: [Endpoint<u32>; 2] = eps.try_into().map_err(|_| ()).unwrap();
        a.send(ActorId(1), Channel::Regular, 4, 99);
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 99);
        assert_eq!(env.from, ActorId(0));
    }

    #[test]
    fn state_priority_across_threads() {
        let mut eps = ThreadNetwork::new::<&'static str>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(ActorId(1), Channel::Regular, 1, "regular");
        a.send(ActorId(1), Channel::State, 1, "state");
        // Both are already queued; state must pop first.
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.msg, "state");
        let second = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(second.msg, "regular");
    }

    #[test]
    fn broadcast_from_thread() {
        let eps = ThreadNetwork::new::<u64>(4);
        let mut it = eps.into_iter();
        let sender = it.next().unwrap();
        let receivers: Vec<_> = it.collect();
        let h = thread::spawn(move || {
            assert_eq!(sender.broadcast(Channel::State, 8, &7), 3);
        });
        for r in &receivers {
            let env = r.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.msg, 7);
        }
        h.join().unwrap();
    }

    #[test]
    fn timeout_when_silent() {
        let eps = ThreadNetwork::new::<()>(2);
        let err = eps[1].recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let eps = ThreadNetwork::new::<()>(2);
        assert!(eps[0].try_recv().is_none());
        assert!(eps[0].try_recv_state().is_none());
        assert!(eps[0].try_recv_regular().is_none());
    }

    #[test]
    fn many_to_one_all_arrive() {
        let eps = ThreadNetwork::new::<usize>(5);
        let mut it = eps.into_iter();
        let sink = it.next().unwrap();
        let handles: Vec<_> = it
            .map(|ep| {
                thread::spawn(move || {
                    for i in 0..100 {
                        ep.send(ActorId(0), Channel::State, 8, ep.rank().index() * 1000 + i);
                    }
                })
            })
            .collect();
        let mut got = 0;
        while got < 400 {
            if sink.recv_timeout(Duration::from_secs(5)).is_ok() {
                got += 1;
            } else {
                panic!("lost messages: got {got}");
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn disconnected_when_all_peers_drop() {
        let mut eps = ThreadNetwork::new::<u8>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b);
        let err = a.recv_timeout(Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, RecvError::Disconnected);
        assert_eq!(
            a.recv_state_timeout(Duration::from_millis(1)).unwrap_err(),
            RecvError::Disconnected
        );
        assert_eq!(
            a.recv_regular_timeout(Duration::from_millis(1))
                .unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn pending_messages_beat_disconnect() {
        let mut eps = ThreadNetwork::new::<u8>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.send(ActorId(0), Channel::Regular, 1, 42);
        drop(b);
        // The queued envelope must still be delivered before Disconnected.
        let env = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 42);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn shutdown_returns_pending_state_first() {
        let mut eps = ThreadNetwork::new::<&'static str>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(ActorId(1), Channel::Regular, 1, "task");
        a.send(ActorId(1), Channel::State, 1, "load");
        let pending = b.shutdown();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].msg, "load", "state drains first");
        assert_eq!(pending[1].msg, "task");
        // The receive side is gone: sends to it now fail.
        assert!(!a.send(ActorId(1), Channel::State, 1, "late"));
    }

    #[test]
    fn drain_collects_everything_pending() {
        let mut eps = ThreadNetwork::new::<u32>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..3 {
            a.send(ActorId(1), Channel::Regular, 4, i);
        }
        a.send(ActorId(1), Channel::State, 4, 100);
        let got = b.drain();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].msg, 100);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn comm_half_services_state_while_main_takes_regular() {
        let mut eps = ThreadNetwork::new::<u32>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let comm = b.comm_half();
        let h = thread::spawn(move || {
            // Dedicated comm thread: answer the state message it polls.
            let env = loop {
                match comm.recv_timeout(Duration::from_micros(50)) {
                    Ok(env) => break env,
                    Err(RecvError::Timeout) => continue,
                    Err(RecvError::Disconnected) => panic!("peer vanished"),
                }
            };
            assert_eq!(env.channel, Channel::State);
            comm.send(ActorId(0), 4, env.msg + 1);
        });
        a.send(ActorId(1), Channel::State, 4, 10);
        a.send(ActorId(1), Channel::Regular, 4, 20);
        // Main thread of b sees only regular traffic.
        let reg = b.recv_regular_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(reg.msg, 20);
        // a gets the comm thread's state reply.
        let reply = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(reply.msg, 11);
        assert_eq!(reply.from, ActorId(1));
        h.join().unwrap();
    }

    #[test]
    fn comm_half_broadcast_reaches_peers() {
        let eps = ThreadNetwork::new::<u8>(3);
        let mut it = eps.into_iter();
        let origin = it.next().unwrap();
        let others: Vec<_> = it.collect();
        let comm = origin.comm_half();
        assert_eq!(comm.broadcast(1, &9), 2);
        for ep in &others {
            assert_eq!(ep.recv_timeout(Duration::from_secs(1)).unwrap().msg, 9);
        }
    }
}
