//! Unit costs of the calls the engine makes per message, timed directly at
//! a workload's process count. Inputs (senders, load deltas) come from the
//! workload seed.

use loadex_core::{
    AnyMechanism, ChangeOrigin, IncrementMechanism, Load, Mechanism, Outbox, SnapshotMechanism,
    StateMsg, Threshold,
};
use loadex_net::{Channel, NetworkModel, SimNetwork};
use loadex_sim::{ActorId, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Deliveries per `broadcast_ns_per_dest` measurement.
const DELIVERIES: usize = 2_000_000;
/// Calls per mechanism measurement.
const CALLS: usize = 1_000_000;
/// Minimum time spent on snapshot rounds.
const ROUNDS_TIME: Duration = Duration::from_millis(200);

/// `SimNetwork::broadcast` of an `UpdateDelta`, per destination.
pub fn broadcast_ns_per_dest(nprocs: usize, rng: &mut SimRng) -> f64 {
    let mut net = SimNetwork::new(nprocs, NetworkModel::ibm_sp_like());
    let msg = StateMsg::UpdateDelta {
        delta: Load::work(1.0),
    };
    let size = msg.wire_size();
    let iters = (DELIVERIES / (nprocs - 1)).max(1);
    let senders: Vec<ActorId> = (0..iters)
        .map(|_| ActorId(rng.next_below(nprocs as u64) as usize))
        .collect();
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for &from in &senders {
        now += SimDuration::from_micros(1);
        black_box(net.broadcast(now, from, Channel::State, size, &msg));
    }
    start.elapsed().as_nanos() as f64 / (iters * (nprocs - 1)) as f64
}

/// `AnyMechanism::on_state_msg` of an increments `UpdateDelta`.
pub fn update_delta_ns(nprocs: usize, rng: &mut SimRng) -> f64 {
    let mut mech =
        AnyMechanism::Increments(IncrementMechanism::new(ActorId(0), nprocs, Threshold::ZERO));
    let mut out = Outbox::new();
    let msgs: Vec<(ActorId, StateMsg)> = (0..CALLS)
        .map(|_| {
            let from = ActorId(1 + rng.next_below(nprocs as u64 - 1) as usize);
            let delta = Load::work(rng.uniform(-30.0, 30.0));
            (from, StateMsg::UpdateDelta { delta })
        })
        .collect();
    let start = Instant::now();
    for (from, msg) in msgs {
        black_box(mech.on_state_msg(from, msg, &mut out));
    }
    let elapsed = start.elapsed();
    black_box(mech.view().total());
    elapsed.as_nanos() as f64 / CALLS as f64
}

/// `AnyMechanism::on_local_change` under increments, including the
/// per-peer fan-out of each threshold crossing (as in `benches/mechanisms.rs`).
pub fn local_change_ns(nprocs: usize, rng: &mut SimRng) -> f64 {
    let mut mech = AnyMechanism::Increments(IncrementMechanism::new(
        ActorId(0),
        nprocs,
        Threshold::new(100.0, 100.0),
    ));
    let mut out = Outbox::new();
    let deltas: Vec<Load> = (0..CALLS)
        .map(|_| Load::work(rng.next_below(30) as f64))
        .collect();
    let start = Instant::now();
    for delta in deltas {
        mech.on_local_change(delta, ChangeOrigin::Local, &mut out);
        black_box(out.drain().count());
    }
    let elapsed = start.elapsed();
    black_box(mech.stats().msgs_sent);
    elapsed.as_nanos() as f64 / CALLS as f64
}

/// One full start/answer/complete snapshot round over `nprocs`
/// `SnapshotMechanism`s, construction included (as in
/// `benches/mechanisms.rs`); median over repeated rounds, in µs.
pub fn snapshot_round_us(nprocs: usize) -> f64 {
    let mut rounds = Vec::new();
    let begin = Instant::now();
    while rounds.len() < 5 || begin.elapsed() < ROUNDS_TIME {
        let start = Instant::now();
        black_box(snapshot_round(nprocs));
        rounds.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    crate::median(&mut rounds)
}

fn snapshot_round(n: usize) -> u64 {
    let mut mechs: Vec<SnapshotMechanism> = (0..n)
        .map(|i| SnapshotMechanism::new(ActorId(i), n))
        .collect();
    let mut out = Outbox::new();
    mechs[0].request_decision(&mut out);
    let start = out
        .drain()
        .next()
        .expect("a snapshot request broadcasts")
        .msg;
    let mut answers = Vec::new();
    for (p, mech) in mechs.iter_mut().enumerate().skip(1) {
        let mut o = Outbox::new();
        mech.on_state_msg(ActorId(0), start.clone(), &mut o);
        answers.extend(o.drain().map(|m| (ActorId(p), m.msg)));
    }
    for (from, a) in answers {
        let mut o = Outbox::new();
        mechs[0].on_state_msg(from, a, &mut o);
    }
    let mut o = Outbox::new();
    mechs[0].complete_decision(&[], &mut o);
    mechs[0].stats().decisions
}
