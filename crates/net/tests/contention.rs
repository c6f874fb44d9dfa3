//! Integration tests for the shared-NIC contention model of the simulated
//! network (regular channel) and the non-contended state channel.

use loadex_net::{Channel, NetworkModel, SimNetwork};
use loadex_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;

fn model() -> NetworkModel {
    NetworkModel {
        latency: SimDuration::from_micros(10),
        bandwidth: 1e6, // 1 MB/s: 1 byte = 1 µs of wire time
        overhead: SimDuration::ZERO,
    }
}

#[test]
fn regular_channel_fan_in_serializes_at_the_receiver() {
    // Many senders deliver to one receiver at the same instant: the
    // arrivals must spread out by the transfer time, not stack up.
    let n = 9;
    let mut net = SimNetwork::new(n, model());
    let mut arrivals: Vec<SimTime> = (1..n)
        .map(|s| {
            net.send(
                SimTime::ZERO,
                ActorId(s),
                ActorId(0),
                Channel::Regular,
                100_000,
                (),
            )
            .at
        })
        .collect();
    arrivals.sort();
    // 100 kB at 1 MB/s = 100 ms of wire per message.
    let wire = SimDuration::from_millis(100);
    for w in arrivals.windows(2) {
        let gap = w[1].since(w[0]);
        assert!(
            gap >= wire,
            "ingress port overcommitted: gap {gap} < wire time {wire}"
        );
    }
}

#[test]
fn regular_channel_fan_out_serializes_at_the_sender() {
    let n = 9;
    let mut net = SimNetwork::new(n, model());
    let mut arrivals: Vec<SimTime> = (1..n)
        .map(|d| {
            net.send(
                SimTime::ZERO,
                ActorId(0),
                ActorId(d),
                Channel::Regular,
                100_000,
                (),
            )
            .at
        })
        .collect();
    arrivals.sort();
    let wire = SimDuration::from_millis(100);
    for w in arrivals.windows(2) {
        assert!(w[1].since(w[0]) >= wire, "egress port overcommitted");
    }
}

#[test]
fn state_channel_is_not_contended() {
    // The dedicated state channel (§1 of the paper) models a separate small
    // control network: broadcasts land in parallel.
    let n = 9;
    let mut net = SimNetwork::new(n, model());
    let arrivals: Vec<SimTime> = (1..n)
        .map(|d| {
            net.send(
                SimTime::ZERO,
                ActorId(0),
                ActorId(d),
                Channel::State,
                32,
                (),
            )
            .at
        })
        .collect();
    let first = arrivals[0];
    assert!(
        arrivals.iter().all(|&a| a == first),
        "state sends must be parallel"
    );
}

#[test]
fn state_traffic_overtakes_bulk_transfers() {
    let mut net = SimNetwork::new(2, model());
    let bulk = net.send(
        SimTime::ZERO,
        ActorId(0),
        ActorId(1),
        Channel::Regular,
        10_000_000,
        (),
    );
    let urgent = net.send(SimTime(1), ActorId(0), ActorId(1), Channel::State, 32, ());
    assert!(
        urgent.at < bulk.at,
        "state message must not queue behind a 10 s bulk transfer"
    );
}

#[test]
fn disjoint_regular_pairs_do_not_contend() {
    let mut net = SimNetwork::new(4, model());
    let a = net.send(
        SimTime::ZERO,
        ActorId(0),
        ActorId(1),
        Channel::Regular,
        100_000,
        (),
    );
    let b = net.send(
        SimTime::ZERO,
        ActorId(2),
        ActorId(3),
        Channel::Regular,
        100_000,
        (),
    );
    assert_eq!(
        a.at, b.at,
        "independent NIC pairs must transfer in parallel"
    );
}

proptest! {
    /// Regular-channel sends need no per-link FIFO clock: whatever the
    /// sizes, send times, latency and bandwidth, the arrivals on each
    /// ordered pair never decrease in send order, because each send waits
    /// for the sender's egress port, which only ever frees up later.
    #[test]
    fn regular_arrivals_are_fifo_per_pair(
        sends in prop::collection::vec(
            (0usize..4, 0usize..4, 0u64..2_000_000, 0u64..1_000_000),
            1..120,
        ),
        latency_us in 0u64..200,
        bandwidth in 1e3f64..1e9,
    ) {
        let model = NetworkModel {
            latency: SimDuration::from_micros(latency_us),
            bandwidth,
            overhead: SimDuration::ZERO,
        };
        let mut net = SimNetwork::new(4, model);
        let mut last = [[SimTime::ZERO; 4]; 4];
        for (from, to, now_ns, size) in sends {
            if from == to {
                continue;
            }
            let at = net
                .send(SimTime(now_ns), ActorId(from), ActorId(to), Channel::Regular, size, ())
                .at;
            prop_assert!(
                at >= last[from][to],
                "{from}->{to}: {size} B sent at {now_ns} ns arrived at {at}, before an earlier send's {}",
                last[from][to]
            );
            last[from][to] = at;
        }
    }
}
