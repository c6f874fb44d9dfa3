//! Simulated network with per-ordered-pair FIFO links.
//!
//! MPI (the paper's transport) guarantees non-overtaking between a given
//! sender/receiver pair on a given communicator. We model each logical
//! channel of each ordered pair as an independent FIFO link: a message may
//! not be delivered before an earlier message on the *same* link, but the
//! state channel and the regular channel may overtake one another (they are
//! distinct communicators in the paper's implementation, §1).
//!
//! `SimNetwork` computes delivery times; the caller schedules them on the
//! event calendar. This keeps the crate independent of any particular event
//! type.
//!
//! A one-to-many send goes through [`SimNetwork::multicast`]: each copy is
//! routed on its own link exactly as [`SimNetwork::send`] would route it,
//! but no payload is cloned and the destination set ([`Dests`]: one rank,
//! an all-but-sender range, a shared rank set or a list) is not copied.
//! Destinations are handed back grouped by arrival time, so the caller can
//! put each group on the calendar as a single fan-out entry
//! (`loadex_sim::Scheduler::schedule_fanout_at`). Usually every copy
//! arrives at once, and the one group is the caller's own destination set.
//! A copy held back by FIFO order on its link — say a small update sent
//! right behind a larger message to the same peer — lands in a later group,
//! and only then are the groups built as lists. Within a group the
//! destinations keep their send order, which is the order separate
//! same-instant calendar entries would have popped in.
//!
//! A state-channel multicast computes the copies' common arrival,
//! `now + transfer_time(size)`, once per call and then routes each copy on
//! its link, checking every destination as `send` does.

use crate::channel::{Channel, Envelope};
use crate::model::NetworkModel;
use loadex_sim::{ActorId, Dests, SimTime};

/// A computed delivery: the envelope plus the time it reaches the receiver's
/// mailbox.
#[derive(Clone, Debug)]
pub struct Delivery<M> {
    /// When the message arrives at `envelope.to`.
    pub at: SimTime,
    /// The message.
    pub envelope: Envelope<M>,
}

/// The simulated network.
///
/// ```
/// use loadex_net::{Channel, NetworkModel, SimNetwork};
/// use loadex_sim::{ActorId, SimTime};
///
/// let mut net = SimNetwork::new(4, NetworkModel::ibm_sp_like());
/// let d = net.send(SimTime::ZERO, ActorId(0), ActorId(2), Channel::State, 32, "hello");
/// assert!(d.at > SimTime::ZERO); // latency applied
/// assert_eq!(d.envelope.to, ActorId(2));
/// assert_eq!(net.sent_state(), 1);
/// ```
///
/// Two contention regimes, per channel:
///
/// * **State channel** — small control messages on a dedicated channel (§1);
///   modeled as per-ordered-pair FIFO links with no shared bottleneck.
/// * **Regular channel** — bulk data (row blocks, contribution blocks) share
///   each process's single NIC: sends serialize on the sender's egress port
///   and deliveries on the receiver's ingress port, so the post-snapshot
///   restart bursts the paper describes (§4.5: "the data exchanges can
///   saturate the network") actually contend.
pub struct SimNetwork {
    nprocs: usize,
    model: NetworkModel,
    /// Earliest time the next state-channel message may arrive on each
    /// (from, to) link, enforcing FIFO non-overtaking. The regular channel
    /// needs no such clock (see `route`).
    link_clear_at: Vec<SimTime>,
    /// Regular-channel egress port occupancy per sender.
    egress_free: Vec<SimTime>,
    /// Regular-channel ingress port occupancy per receiver.
    ingress_free: Vec<SimTime>,
    /// Messages sent per channel.
    sent_state: u64,
    sent_regular: u64,
    /// Bytes sent per channel.
    bytes_state: u64,
    bytes_regular: u64,
    /// Scratch for [`SimNetwork::multicast`]: each copy's arrival, filled
    /// only when some copy is held back.
    arrivals: Vec<(SimTime, ActorId)>,
}

impl SimNetwork {
    /// A network connecting `nprocs` processes with the given cost model.
    pub fn new(nprocs: usize, model: NetworkModel) -> Self {
        SimNetwork {
            nprocs,
            model,
            link_clear_at: vec![SimTime::ZERO; nprocs * nprocs],
            egress_free: vec![SimTime::ZERO; nprocs],
            ingress_free: vec![SimTime::ZERO; nprocs],
            sent_state: 0,
            sent_regular: 0,
            bytes_state: 0,
            bytes_regular: 0,
            arrivals: Vec::new(),
        }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The cost model in use.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    fn link_index(&self, from: ActorId, to: ActorId) -> usize {
        from.index() * self.nprocs + to.index()
    }

    /// Send one message at time `now`; returns the delivery to schedule.
    ///
    /// Panics if `from == to` (self-sends are a model bug: the paper's
    /// processes update their own state locally) or if either rank is out of
    /// range.
    pub fn send<M>(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        channel: Channel,
        size: u64,
        msg: M,
    ) -> Delivery<M> {
        Delivery {
            at: self.route(now, from, to, channel, size),
            envelope: Envelope::new(from, to, channel, size, msg),
        }
    }

    /// Send one state-channel message from `from` to each of `dests`, in
    /// that order, at time `now`. Every copy is routed as
    /// [`SimNetwork::send`] would route it on [`Channel::State`]; the
    /// payload stays with the caller. `deliver(at, group)` is called once
    /// per distinct arrival time, earliest first, with the destinations
    /// arriving then in `dests` order: when they all arrive together, the
    /// one group is `dests` itself.
    ///
    /// Panics as [`SimNetwork::send`] does, for any destination.
    pub fn multicast(
        &mut self,
        now: SimTime,
        from: ActorId,
        dests: Dests,
        size: u64,
        mut deliver: impl FnMut(SimTime, Dests),
    ) {
        let ready = now + self.model.transfer_time(size);
        let mut first = None;
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        for (i, to) in dests.iter().enumerate() {
            let at = self.state_arrival(ready, from, to, size);
            // `arrivals` stays empty while every copy so far arrives with
            // the first; the first copy that arrives apart lists every copy
            // so far, and each later one is listed too.
            let first = *first.get_or_insert(at);
            if at != first && arrivals.is_empty() {
                arrivals.extend(dests.iter().take(i).map(|q| (first, q)));
            }
            if !arrivals.is_empty() {
                arrivals.push((at, to));
            }
        }
        match first {
            None => {}
            Some(at) if arrivals.is_empty() => deliver(at, dests),
            Some(_) => {
                // Stable: a group keeps its destinations in send order.
                arrivals.sort_by_key(|&(at, _)| at);
                for run in arrivals.chunk_by(|a, b| a.0 == b.0) {
                    let group: Vec<ActorId> = run.iter().map(|&(_, to)| to).collect();
                    deliver(run[0].0, group.into());
                }
            }
        }
        self.arrivals = arrivals;
    }

    /// Account for one message and advance its link's clocks; returns when
    /// it reaches `to`.
    fn route(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        channel: Channel,
        size: u64,
    ) -> SimTime {
        match channel {
            Channel::State => {
                self.state_arrival(now + self.model.transfer_time(size), from, to, size)
            }
            Channel::Regular => {
                self.check_pair(from, to);
                self.sent_regular += 1;
                self.bytes_regular += size;
                // Shared NIC: the transfer occupies the sender's egress port
                // and the receiver's ingress port for its whole wire time
                // (circuit approximation), so both fan-out and fan-in
                // serialize, and the arrival gap between back-to-back
                // messages is at least one wire time.
                let wire = self.model.transfer_time(size) - self.model.latency;
                let start = now
                    .max(self.egress_free[from.index()])
                    .max(self.ingress_free[to.index()]);
                let ports_free = start + wire;
                self.egress_free[from.index()] = ports_free;
                self.ingress_free[to.index()] = ports_free;
                // Per-pair FIFO follows: `egress_free[from]` only grows and
                // the latency is fixed, so no later send from `from` arrives
                // earlier (`tests/contention.rs` checks this property).
                ports_free + self.model.latency
            }
        }
    }

    /// Account for one state-channel message that is ready to arrive at
    /// `ready` and advance its link's FIFO clock; returns when it reaches
    /// `to`.
    fn state_arrival(&mut self, ready: SimTime, from: ActorId, to: ActorId, size: u64) -> SimTime {
        self.check_pair(from, to);
        self.sent_state += 1;
        self.bytes_state += size;
        // Dedicated control channel: per-pair FIFO only.
        let idx = self.link_index(from, to);
        let at = ready.max(self.link_clear_at[idx]);
        self.link_clear_at[idx] = at;
        at
    }

    /// Panics unless both ranks exist and differ.
    fn check_pair(&self, from: ActorId, to: ActorId) {
        assert!(from.index() < self.nprocs, "sender out of range");
        assert!(to.index() < self.nprocs, "receiver out of range");
        assert_ne!(from, to, "self-send");
    }

    /// Broadcast `msg` from `from` to every other process; returns one
    /// delivery per destination. The payload must be `Clone`.
    pub fn broadcast<M: Clone>(
        &mut self,
        now: SimTime,
        from: ActorId,
        channel: Channel,
        size: u64,
        msg: &M,
    ) -> Vec<Delivery<M>> {
        (0..self.nprocs)
            .filter(|&p| p != from.index())
            .map(|p| self.send(now, from, ActorId(p), channel, size, msg.clone()))
            .collect()
    }

    /// When the sender's regular-channel egress port next frees up. Proxy
    /// for "the main thread is inside a bulk MPI call" (the §4.5 threaded
    /// variant protects MPI with a lock, so the comm thread waits this long).
    pub fn egress_free(&self, p: ActorId) -> SimTime {
        self.egress_free[p.index()]
    }

    /// Total messages sent on the state channel.
    pub fn sent_state(&self) -> u64 {
        self.sent_state
    }

    /// Total messages sent on the regular channel.
    pub fn sent_regular(&self) -> u64 {
        self.sent_regular
    }

    /// Total bytes sent on the state channel.
    pub fn bytes_state(&self) -> u64 {
        self.bytes_state
    }

    /// Total bytes sent on the regular channel.
    pub fn bytes_regular(&self) -> u64 {
        self.bytes_regular
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadex_sim::SimDuration;

    fn fixed_model(lat_us: u64) -> NetworkModel {
        NetworkModel {
            latency: SimDuration::from_micros(lat_us),
            bandwidth: f64::INFINITY,
            overhead: SimDuration::ZERO,
        }
    }

    #[test]
    fn delivery_time_includes_latency() {
        let mut net = SimNetwork::new(2, fixed_model(10));
        let d = net.send(SimTime::ZERO, ActorId(0), ActorId(1), Channel::State, 8, ());
        assert_eq!(d.at, SimTime(10_000));
    }

    #[test]
    fn fifo_non_overtaking_on_same_link() {
        // A huge message sent first must not be overtaken by a tiny one.
        let model = NetworkModel {
            latency: SimDuration::ZERO,
            bandwidth: 1e6, // 1 MB/s: 1 byte = 1 µs
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(2, model);
        let big = net.send(
            SimTime::ZERO,
            ActorId(0),
            ActorId(1),
            Channel::Regular,
            1_000_000,
            "big",
        );
        let small = net.send(
            SimTime(1),
            ActorId(0),
            ActorId(1),
            Channel::Regular,
            1,
            "small",
        );
        assert!(small.at >= big.at, "small overtook big on the same link");
    }

    #[test]
    fn channels_are_independent_links() {
        let model = NetworkModel {
            latency: SimDuration::ZERO,
            bandwidth: 1e6,
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(2, model);
        let big = net.send(
            SimTime::ZERO,
            ActorId(0),
            ActorId(1),
            Channel::Regular,
            1_000_000,
            (),
        );
        // State-channel message overtakes the bulk transfer: that is the
        // point of the dedicated state channel.
        let state = net.send(SimTime(1), ActorId(0), ActorId(1), Channel::State, 16, ());
        assert!(state.at < big.at);
    }

    #[test]
    fn reverse_direction_is_independent() {
        let mut net = SimNetwork::new(2, fixed_model(10));
        let d01 = net.send(SimTime::ZERO, ActorId(0), ActorId(1), Channel::State, 1, ());
        let d10 = net.send(SimTime::ZERO, ActorId(1), ActorId(0), Channel::State, 1, ());
        assert_eq!(d01.at, d10.at);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut net = SimNetwork::new(4, fixed_model(1));
        let ds = net.broadcast(SimTime::ZERO, ActorId(2), Channel::State, 8, &42u32);
        let mut dests: Vec<usize> = ds.iter().map(|d| d.envelope.to.index()).collect();
        dests.sort_unstable();
        assert_eq!(dests, vec![0, 1, 3]);
        assert!(ds.iter().all(|d| d.envelope.msg == 42));
        assert_eq!(net.sent_state(), 3);
    }

    #[test]
    fn multicast_splits_fifo_delayed_destinations_into_a_later_group() {
        let model = NetworkModel {
            latency: SimDuration::ZERO,
            bandwidth: 1e6, // 1 byte = 1 µs
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(5, model);
        let mut twin = SimNetwork::new(5, model);
        // A large message to P2 is still in flight on the 0→2 link.
        for n in [&mut net, &mut twin] {
            n.send(
                SimTime::ZERO,
                ActorId(0),
                ActorId(2),
                Channel::State,
                1_000,
                (),
            );
        }
        let dests = [ActorId(4), ActorId(2), ActorId(1), ActorId(3)];
        let mut groups = Vec::new();
        net.multicast(
            SimTime::ZERO,
            ActorId(0),
            Dests::from(dests.to_vec()),
            10,
            |at, g| groups.push((at, g.iter().collect::<Vec<_>>())),
        );
        assert_eq!(
            groups,
            vec![
                (SimTime(10_000), vec![ActorId(4), ActorId(1), ActorId(3)]),
                (SimTime(1_000_000), vec![ActorId(2)]),
            ]
        );
        // Same arrivals, counters and link clocks as one send per peer.
        for &to in &dests {
            let d = twin.send(SimTime::ZERO, ActorId(0), to, Channel::State, 10, ());
            assert!(groups.iter().any(|(at, g)| *at == d.at && g.contains(&to)));
        }
        assert_eq!(net.sent_state(), twin.sent_state());
        assert_eq!(net.bytes_state(), twin.bytes_state());
        assert_eq!(net.link_clear_at, twin.link_clear_at);
    }

    #[test]
    fn multicast_without_delay_is_one_group_in_send_order() {
        let mut net = SimNetwork::new(4, fixed_model(3));
        let mut groups = Vec::new();
        let dests = [ActorId(3), ActorId(0), ActorId(2)];
        net.multicast(
            SimTime(5),
            ActorId(1),
            Dests::from(dests.to_vec()),
            8,
            |at, g| groups.push((at, g.iter().collect::<Vec<_>>())),
        );
        assert_eq!(groups, vec![(SimTime(3_005), dests.to_vec())]);
        net.multicast(SimTime(5), ActorId(1), vec![].into(), 8, |_, _| {
            panic!("no destination, no group")
        });
        assert_eq!(net.sent_state(), 3);
    }

    #[test]
    fn multicast_hands_back_the_callers_set_unless_a_copy_is_held_back() {
        let model = NetworkModel {
            latency: SimDuration::ZERO,
            bandwidth: 1e6, // 1 byte = 1 µs
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(5, model);
        let all_but_1 = Dests::AllBut {
            n: 5,
            except: ActorId(1),
        };
        let mut groups = Vec::new();
        net.multicast(SimTime::ZERO, ActorId(1), all_but_1.clone(), 10, |at, g| {
            groups.push((at, g))
        });
        assert_eq!(groups, vec![(SimTime(10_000), all_but_1.clone())]);
        // A large message now holds the 1→3 link: P3's copy comes apart.
        net.send(
            SimTime::ZERO,
            ActorId(1),
            ActorId(3),
            Channel::State,
            1_000,
            (),
        );
        let mut groups = Vec::new();
        net.multicast(SimTime::ZERO, ActorId(1), all_but_1, 10, |at, g| {
            groups.push((at, g.iter().collect::<Vec<_>>()))
        });
        assert_eq!(
            groups,
            vec![
                (SimTime(10_000), vec![ActorId(0), ActorId(2), ActorId(4)]),
                (SimTime(1_000_000), vec![ActorId(3)]),
            ]
        );
        assert_eq!(net.sent_state(), 9);
    }

    #[test]
    fn one_destination_multicast_routes_as_send() {
        let model = NetworkModel {
            latency: SimDuration::from_micros(2),
            bandwidth: 1e6,
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(3, model);
        let mut twin = SimNetwork::new(3, model);
        // Something already in flight on the 2→0 link holds the copy back.
        for n in [&mut net, &mut twin] {
            n.send(
                SimTime::ZERO,
                ActorId(2),
                ActorId(0),
                Channel::State,
                500,
                (),
            );
        }
        let mut groups = Vec::new();
        net.multicast(
            SimTime(7),
            ActorId(2),
            Dests::One(ActorId(0)),
            10,
            |at, g| groups.push((at, g.iter().collect::<Vec<_>>())),
        );
        let d = twin.send(SimTime(7), ActorId(2), ActorId(0), Channel::State, 10, ());
        assert_eq!(groups, vec![(d.at, vec![ActorId(0)])]);
        assert_eq!(net.sent_state(), twin.sent_state());
        assert_eq!(net.bytes_state(), twin.bytes_state());
        assert_eq!(net.link_clear_at, twin.link_clear_at);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn multicast_to_the_sender_panics() {
        let mut net = SimNetwork::new(4, fixed_model(1));
        let dests = [ActorId(0), ActorId(1), ActorId(2)];
        net.multicast(
            SimTime::ZERO,
            ActorId(1),
            Dests::from(dests.to_vec()),
            8,
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "receiver out of range")]
    fn multicast_to_an_unknown_rank_panics() {
        let mut net = SimNetwork::new(4, fixed_model(1));
        let dests = [ActorId(2), ActorId(4)];
        net.multicast(
            SimTime::ZERO,
            ActorId(1),
            Dests::from(dests.to_vec()),
            8,
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let mut net = SimNetwork::new(2, fixed_model(1));
        net.send(SimTime::ZERO, ActorId(0), ActorId(0), Channel::State, 1, ());
    }

    #[test]
    fn counters_track_both_channels() {
        let mut net = SimNetwork::new(3, fixed_model(1));
        net.send(
            SimTime::ZERO,
            ActorId(0),
            ActorId(1),
            Channel::State,
            10,
            (),
        );
        net.send(
            SimTime::ZERO,
            ActorId(0),
            ActorId(1),
            Channel::Regular,
            20,
            (),
        );
        net.send(
            SimTime::ZERO,
            ActorId(1),
            ActorId(2),
            Channel::Regular,
            30,
            (),
        );
        assert_eq!(net.sent_state(), 1);
        assert_eq!(net.sent_regular(), 2);
        assert_eq!(net.bytes_state(), 10);
        assert_eq!(net.bytes_regular(), 50);
    }
}
