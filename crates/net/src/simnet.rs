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
//! A one-to-many send goes through [`SimNetwork::multicast`]: each copy
//! arrives when [`SimNetwork::send`] would deliver it on its own link, but
//! no payload is cloned and the destination set ([`Dests`]: one rank, an
//! all-but-sender range, a shared rank set or a list) is not copied.
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
//! State-channel FIFO needs no clock per link. Each sender keeps the
//! groups it sent that may still be in flight, as `(arrival, Dests)` in
//! send order. A send at `now` with `ready = now + transfer_time(size)`
//! first forgets the groups that arrived by `now`: every later copy from
//! that sender is ready at or after `now`, so none of them can hold it
//! back. If no group left arrives after `ready`, every copy arrives at
//! `ready`, with no work per destination. Otherwise the copy to `d` arrives
//! at `ready` or with the newest group that contains `d`, whichever is
//! later: arrivals on one link never decrease, so that group's arrival is
//! the link's clock. This needs each sender's state-channel sends to come
//! at nondecreasing times, which the DES guarantees (a debug build checks
//! it). Memory is O(P + groups in flight) rather than O(P²).

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
    /// Each sender's state-channel groups that may still hold a later copy
    /// back (see the module docs). The regular channel needs no such record
    /// (see `route`).
    state_sends: Vec<StateSends>,
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
    /// only when a group in flight arrives after the new copies would.
    arrivals: Vec<(SimTime, ActorId)>,
}

/// One sender's state-channel record.
#[derive(Default)]
struct StateSends {
    /// When the latest send left: sends come at nondecreasing times.
    last: SimTime,
    /// The groups sent that had not arrived by `last`, in send order.
    in_flight: Vec<(SimTime, Dests)>,
}

impl SimNetwork {
    /// A network connecting `nprocs` processes with the given cost model.
    pub fn new(nprocs: usize, model: NetworkModel) -> Self {
        SimNetwork {
            nprocs,
            model,
            state_sends: (0..nprocs).map(|_| StateSends::default()).collect(),
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
    /// that order, at time `now`. Every copy arrives when
    /// [`SimNetwork::send`] would deliver it on [`Channel::State`]; the
    /// payload stays with the caller. `deliver(at, group)` is called once
    /// per distinct arrival time, earliest first, with the destinations
    /// arriving then in `dests` order: when they all arrive together, the
    /// one group is `dests` itself.
    ///
    /// Panics as [`SimNetwork::send`] does, for any destination. A sender's
    /// state-channel sends must come at nondecreasing times.
    pub fn multicast(
        &mut self,
        now: SimTime,
        from: ActorId,
        dests: Dests,
        size: u64,
        mut deliver: impl FnMut(SimTime, Dests),
    ) {
        if dests.is_empty() {
            return;
        }
        self.check_dests(from, &dests);
        let copies = dests.len() as u64;
        self.sent_state += copies;
        self.bytes_state += copies * size;
        let ready = now + self.model.transfer_time(size);
        let sends = &mut self.state_sends[from.index()];
        debug_assert!(
            now >= sends.last,
            "state send from {from} at {now} after one at {}",
            sends.last
        );
        sends.last = now;
        sends.in_flight.retain(|&(at, _)| at > now);
        if sends.in_flight.is_empty() {
            // Give back what a burst of sends grew; keep room for a few.
            sends.in_flight.shrink_to(4);
        }
        if sends.in_flight.iter().all(|&(at, _)| at <= ready) {
            // Nothing in flight can hold a copy back: the usual case.
            sends.in_flight.push((ready, dests.clone()));
            deliver(ready, dests);
            return;
        }
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        arrivals.extend(dests.iter().map(|to| {
            // The newest group to `to` holds the link's clock.
            let held = sends.in_flight.iter().rev().find(|(_, d)| d.contains(to));
            (held.map_or(ready, |&(at, _)| at.max(ready)), to)
        }));
        let mut hand_over = |at, group: Dests| {
            sends.in_flight.push((at, group.clone()));
            deliver(at, group);
        };
        let first = arrivals[0].0;
        if arrivals.iter().all(|&(at, _)| at == first) {
            hand_over(first, dests);
        } else {
            // The copies due at `ready` arrive first. Only the held-back
            // ones are sorted, stably: a group keeps its send order.
            let on_time: Vec<ActorId> = arrivals
                .iter()
                .filter(|&&(at, _)| at == ready)
                .map(|&(_, to)| to)
                .collect();
            if !on_time.is_empty() {
                hand_over(ready, on_time.into());
            }
            arrivals.retain(|&(at, _)| at > ready);
            arrivals.sort_by_key(|&(at, _)| at);
            for run in arrivals.chunk_by(|a, b| a.0 == b.0) {
                let group: Vec<ActorId> = run.iter().map(|&(_, to)| to).collect();
                hand_over(run[0].0, group.into());
            }
        }
        self.arrivals = arrivals;
    }

    /// Account for one message and hold it to its channel's FIFO order;
    /// returns when it reaches `to`.
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
                let mut arrival = now;
                self.multicast(now, from, Dests::One(to), size, |at, _| arrival = at);
                arrival
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

    /// Panics unless both ranks exist and differ.
    fn check_pair(&self, from: ActorId, to: ActorId) {
        assert!(from.index() < self.nprocs, "sender out of range");
        assert!(to.index() < self.nprocs, "receiver out of range");
        assert_ne!(from, to, "self-send");
    }

    /// Panics unless `check_pair` holds for `from` and every one of the
    /// (non-empty) `dests`, checked by the set's form rather than per copy.
    fn check_dests(&self, from: ActorId, dests: &Dests) {
        match dests {
            Dests::One(to) => self.check_pair(from, *to),
            Dests::AllBut { n, except } => {
                assert!(from.index() < self.nprocs, "sender out of range");
                assert!(*n <= self.nprocs, "receiver out of range");
                assert_eq!(*except, from, "self-send");
            }
            Dests::Set(set) => {
                assert!(from.index() < self.nprocs, "sender out of range");
                let last = set.last().expect("a non-empty set has a last rank");
                assert!(last.index() < self.nprocs, "receiver out of range");
                // `from` past the last rank may lie past the set's words.
                assert!(from > last || !set.contains(from), "self-send");
            }
            Dests::List(list) => list.iter().for_each(|&to| self.check_pair(from, to)),
        }
    }

    /// Broadcast `msg` from `from` to every other process; returns one
    /// delivery per destination, in rank order. The payload must be `Clone`.
    /// On the state channel this is one multicast.
    pub fn broadcast<M: Clone>(
        &mut self,
        now: SimTime,
        from: ActorId,
        channel: Channel,
        size: u64,
        msg: &M,
    ) -> Vec<Delivery<M>> {
        if channel == Channel::Regular {
            return (0..self.nprocs)
                .filter(|&p| p != from.index())
                .map(|p| self.send(now, from, ActorId(p), channel, size, msg.clone()))
                .collect();
        }
        let mut deliveries = Vec::with_capacity(self.nprocs.saturating_sub(1));
        let others = Dests::AllBut {
            n: self.nprocs,
            except: from,
        };
        let mut groups = 0;
        self.multicast(now, from, others, size, |at, group| {
            groups += 1;
            deliveries.extend(group.iter().map(|to| Delivery {
                at,
                envelope: Envelope::new(from, to, channel, size, msg.clone()),
            }));
        });
        if groups > 1 {
            deliveries.sort_by_key(|d| d.envelope.to);
        }
        deliveries
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
    use loadex_sim::{RankSet, SimDuration};
    use std::sync::Arc;

    fn fixed_model(lat_us: u64) -> NetworkModel {
        NetworkModel {
            latency: SimDuration::from_micros(lat_us),
            bandwidth: f64::INFINITY,
            overhead: SimDuration::ZERO,
        }
    }

    /// Every link of `a` and `b` holds a message back alike: a zero-byte
    /// state probe on each ordered pair at `now` (no earlier than any send
    /// so far) arrives at the same time on both.
    fn assert_same_links(a: &mut SimNetwork, b: &mut SimNetwork, now: SimTime) {
        for from in (0..a.nprocs()).map(ActorId) {
            for to in (0..a.nprocs()).map(ActorId).filter(|&to| to != from) {
                let probe_a = a.send(now, from, to, Channel::State, 0, ()).at;
                let probe_b = b.send(now, from, to, Channel::State, 0, ()).at;
                assert_eq!(probe_a, probe_b, "link {from}->{to}");
            }
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
        let dests: Vec<usize> = ds.iter().map(|d| d.envelope.to.index()).collect();
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
        // Same arrivals, counters and links as one send per peer.
        for &to in &dests {
            let d = twin.send(SimTime::ZERO, ActorId(0), to, Channel::State, 10, ());
            assert!(groups.iter().any(|(at, g)| *at == d.at && g.contains(&to)));
        }
        assert_eq!(net.sent_state(), twin.sent_state());
        assert_eq!(net.bytes_state(), twin.bytes_state());
        assert_same_links(&mut net, &mut twin, SimTime::ZERO);
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
        assert_same_links(&mut net, &mut twin, SimTime(7));
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
    fn ranges_and_sets_are_checked_as_a_whole() {
        let set = |capacity, ranks: &[usize]| {
            let mut set = RankSet::new(capacity);
            for &r in ranks {
                set.insert(ActorId(r));
            }
            Dests::Set(Arc::new(set))
        };
        let panic_of = |dests: Dests| {
            let err = std::panic::catch_unwind(move || {
                let mut net = SimNetwork::new(70, fixed_model(1));
                net.multicast(SimTime::ZERO, ActorId(5), dests, 8, |_, _| {});
            })
            .expect_err("the multicast must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap()
        };
        let range = |n, except| Dests::AllBut {
            n,
            except: ActorId(except),
        };
        assert!(panic_of(range(71, 5)).contains("receiver out of range"));
        assert!(panic_of(range(70, 6)).contains("self-send"));
        assert!(panic_of(set(128, &[3, 70])).contains("receiver out of range"));
        assert!(panic_of(set(70, &[3, 5, 66])).contains("self-send"));
        // A sender past a small set's last word is not in it.
        let mut net = SimNetwork::new(130, fixed_model(1));
        let mut groups = 0;
        net.multicast(SimTime::ZERO, ActorId(100), set(64, &[1, 2]), 8, |_, _| {
            groups += 1
        });
        assert_eq!((groups, net.sent_state()), (1, 2));
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
