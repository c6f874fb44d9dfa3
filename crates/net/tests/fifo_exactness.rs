//! `SimNetwork` keeps state-channel FIFO order with each sender's groups
//! still in flight instead of one clock per ordered pair. This property
//! drives random interleavings of every kind of send through it and through
//! a reference that keeps the P×P clock matrix, and requires the same
//! arrival groups, in the same order, and the same counters.

use loadex_net::{Channel, NetworkModel, SimNetwork};
use loadex_sim::{ActorId, Dests, RankSet, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

/// Arrival groups as `(arrival, destinations in delivery order)`.
type Groups = Vec<(SimTime, Vec<ActorId>)>;

/// The state channel with one FIFO clock per ordered pair: each copy
/// arrives when it is ready or when the previous copy on its link arrived,
/// whichever is later.
struct ClockNet {
    nprocs: usize,
    model: NetworkModel,
    clear_at: Vec<SimTime>,
    sent: u64,
    bytes: u64,
}

impl ClockNet {
    fn new(nprocs: usize, model: NetworkModel) -> Self {
        ClockNet {
            nprocs,
            model,
            clear_at: vec![SimTime::ZERO; nprocs * nprocs],
            sent: 0,
            bytes: 0,
        }
    }

    fn send(&mut self, now: SimTime, from: ActorId, to: ActorId, size: u64) -> SimTime {
        self.sent += 1;
        self.bytes += size;
        let clock = &mut self.clear_at[from.index() * self.nprocs + to.index()];
        *clock = (*clock).max(now + self.model.transfer_time(size));
        *clock
    }

    /// One send per destination, grouped by arrival, each group in send
    /// order.
    fn multicast(&mut self, now: SimTime, from: ActorId, dests: &[ActorId], size: u64) -> Groups {
        let mut arrivals: Vec<(SimTime, ActorId)> = dests
            .iter()
            .map(|&to| (self.send(now, from, to, size), to))
            .collect();
        arrivals.sort_by_key(|&(at, _)| at);
        arrivals
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, to)| to).collect()))
            .collect()
    }
}

/// Message sizes: with 1 byte per µs, a 1000-byte message is in flight for
/// a millisecond and holds back the smaller ones sent behind it.
const SIZES: [u64; 5] = [0, 1, 8, 40, 1_000];
/// Gaps between consecutive sends, in ns: repeats are common.
const GAPS: [u64; 5] = [0, 0, 1_000, 20_000, 300_000];
/// Process counts; 70 puts a rank set across two words.
const NPROCS: [usize; 3] = [3, 5, 70];

/// A random destination set of `kind` from `from`, never containing it.
fn dests(kind: u64, from: ActorId, nprocs: usize, rng: &mut SimRng) -> Dests {
    let other = |rng: &mut SimRng| {
        let r = rng.next_below(nprocs as u64 - 1) as usize;
        ActorId(r + usize::from(r >= from.index()))
    };
    match kind {
        0 => Dests::One(other(rng)),
        1 => Dests::AllBut {
            n: nprocs,
            except: from,
        },
        2 => {
            let mut set = RankSet::new(nprocs);
            for _ in 0..rng.next_below(nprocs as u64) {
                set.insert(other(rng));
            }
            Dests::Set(Arc::new(set))
        }
        _ => {
            let mut list: Vec<ActorId> = (0..nprocs)
                .filter(|&r| r != from.index())
                .map(ActorId)
                .collect();
            rng.shuffle(&mut list);
            list.truncate(rng.next_below(nprocs as u64) as usize);
            list.into()
        }
    }
}

proptest! {
    #[test]
    fn in_flight_groups_route_as_per_link_clocks(
        ops in prop::collection::vec(
            ((0u64..7, any::<u64>()), 0usize..5, 0usize..5, any::<u64>()),
            1..150,
        ),
        nprocs in 0usize..3,
        latency_us in 0u64..3,
    ) {
        let nprocs = NPROCS[nprocs];
        let model = NetworkModel {
            latency: SimDuration::from_micros(latency_us),
            bandwidth: 1e6,
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(nprocs, model);
        let mut clocks = ClockNet::new(nprocs, model);
        let mut now = SimTime::ZERO;
        let mut regular = 0;
        for (i, ((kind, from), gap, size, seed)) in ops.into_iter().enumerate() {
            now += SimDuration::from_nanos(GAPS[gap]);
            let from = ActorId((from % nprocs as u64) as usize);
            let size = SIZES[size];
            let mut rng = SimRng::seed_from_u64(seed);
            match kind {
                // A multicast to each form of destination set.
                0..=3 => {
                    let dests = dests(kind, from, nprocs, &mut rng);
                    let list: Vec<ActorId> = dests.iter().collect();
                    let mut groups = Groups::new();
                    net.multicast(now, from, dests, size, |at, g| groups.push((at, g.iter().collect())));
                    prop_assert_eq!(groups, clocks.multicast(now, from, &list, size), "op {}", i);
                }
                4 => {
                    let to = dests(0, from, nprocs, &mut rng).iter().next().unwrap();
                    let at = net.send(now, from, to, Channel::State, size, ()).at;
                    prop_assert_eq!(at, clocks.send(now, from, to, size), "op {}", i);
                }
                5 => {
                    let to = dests(0, from, nprocs, &mut rng).iter().next().unwrap();
                    net.send(now, from, to, Channel::Regular, size, ());
                    regular += 1;
                }
                _ => {
                    let got: Vec<(SimTime, ActorId)> = net
                        .broadcast(now, from, Channel::State, size, &())
                        .iter()
                        .map(|d| (d.at, d.envelope.to))
                        .collect();
                    let want: Vec<(SimTime, ActorId)> = (0..nprocs)
                        .filter(|&to| to != from.index())
                        .map(|to| (clocks.send(now, from, ActorId(to), size), ActorId(to)))
                        .collect();
                    prop_assert_eq!(got, want, "op {}", i);
                }
            }
            prop_assert_eq!(net.sent_state(), clocks.sent);
            prop_assert_eq!(net.bytes_state(), clocks.bytes);
            prop_assert_eq!(net.sent_regular(), regular);
        }
        // Every link still holds a probe back as its clock does.
        for from in (0..nprocs).map(ActorId) {
            for to in (0..nprocs).map(ActorId).filter(|&to| to != from) {
                let probe = net.send(now, from, to, Channel::State, 0, ()).at;
                prop_assert_eq!(probe, clocks.send(now, from, to, 0), "link {}->{}", from, to);
            }
        }
    }
}
