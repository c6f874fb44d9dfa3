//! The mechanism state machines under genuine thread asynchrony, via
//! `loadex-net`'s crossbeam transport.

use loadex::core::{
    ChangeOrigin, Dest, IncrementMechanism, Load, Mechanism, NaiveMechanism, OutMsg, Outbox,
    StateMsg, Threshold,
};
use loadex::net::{Channel, Endpoint, ThreadNetwork};
use loadex::sim::{ActorId, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn flush(ep: &Endpoint<StateMsg>, out: &mut Outbox) {
    for OutMsg { dest, msg } in out.drain() {
        let size = msg.wire_size();
        match dest {
            Dest::One(to) => {
                ep.send(to, Channel::State, size, msg);
            }
            Dest::Many(dests) => {
                for to in dests {
                    ep.send(to, Channel::State, size, msg.clone());
                }
            }
            Dest::AllOthers => {
                ep.broadcast(Channel::State, size, &msg);
            }
        }
    }
}

/// Each of N threads applies a random walk of load changes while receiving
/// peers' updates; once everyone quiesces and messages drain, every view
/// must agree with every true load to within the broadcast threshold.
#[test]
fn increments_views_converge_across_threads() {
    const N: usize = 6;
    const STEPS: usize = 500;
    let thr = Threshold::new(5.0, 5.0);
    let endpoints = ThreadNetwork::new::<StateMsg>(N);
    // Barrier-free design: count of threads done generating.
    let done = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let me = ep.rank();
                let mut rng = SimRng::seed_from_u64(1000 + me.index() as u64);
                let mut mech = IncrementMechanism::new(me, N, thr);
                let mut out = Outbox::new();
                let mut true_load = 0.0f64;
                for _ in 0..STEPS {
                    // Interleave receives and local changes.
                    while let Some(env) = ep.try_recv() {
                        mech.on_state_msg(env.from, env.msg, &mut out);
                        flush(&ep, &mut out);
                    }
                    let delta = rng.uniform(-3.0, 4.0);
                    true_load += delta;
                    mech.on_local_change(Load::work(delta), ChangeOrigin::Local, &mut out);
                    flush(&ep, &mut out);
                }
                done.fetch_add(1, Ordering::SeqCst);
                // Drain until global quiescence (no message for a while and
                // all peers done generating).
                let mut quiet = Instant::now();
                loop {
                    match ep.recv_timeout(Duration::from_millis(20)) {
                        Ok(env) => {
                            mech.on_state_msg(env.from, env.msg, &mut out);
                            flush(&ep, &mut out);
                            quiet = Instant::now();
                        }
                        Err(_) => {
                            if done.load(Ordering::SeqCst) == N as u64
                                && quiet.elapsed() > Duration::from_millis(100)
                            {
                                break;
                            }
                        }
                    }
                }
                (me.index(), true_load, mech)
            })
        })
        .collect();

    let results: Vec<(usize, f64, IncrementMechanism)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut truth = vec![0.0; N];
    for (rank, load, _) in &results {
        truth[*rank] = *load;
    }
    for (rank, _, mech) in &results {
        for q in 0..N {
            let believed = mech.view().get(ActorId(q)).work;
            let err = (believed - truth[q]).abs();
            assert!(
                err <= thr.work + 1e-9,
                "P{rank}'s view of P{q}: {believed} vs true {} (err {err})",
                truth[q]
            );
        }
    }
}

/// Same quiescence property for the naive mechanism: the absolute broadcasts
/// leave at most `threshold` of drift.
#[test]
fn naive_views_converge_across_threads() {
    const N: usize = 4;
    const STEPS: usize = 300;
    let thr = Threshold::new(8.0, 8.0);
    let endpoints = ThreadNetwork::new::<StateMsg>(N);
    let done = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let me = ep.rank();
                let mut rng = SimRng::seed_from_u64(77 + me.index() as u64);
                let mut mech = NaiveMechanism::new(me, N, thr);
                let mut out = Outbox::new();
                let mut true_load = 0.0f64;
                for _ in 0..STEPS {
                    while let Some(env) = ep.try_recv() {
                        mech.on_state_msg(env.from, env.msg, &mut out);
                        flush(&ep, &mut out);
                    }
                    let delta = rng.uniform(0.0, 2.0); // monotone growth
                    true_load += delta;
                    mech.on_local_change(Load::work(delta), ChangeOrigin::Local, &mut out);
                    flush(&ep, &mut out);
                }
                done.fetch_add(1, Ordering::SeqCst);
                let mut quiet = Instant::now();
                loop {
                    match ep.recv_timeout(Duration::from_millis(20)) {
                        Ok(env) => {
                            mech.on_state_msg(env.from, env.msg, &mut out);
                            flush(&ep, &mut out);
                            quiet = Instant::now();
                        }
                        Err(_) => {
                            if done.load(Ordering::SeqCst) == N as u64
                                && quiet.elapsed() > Duration::from_millis(100)
                            {
                                break;
                            }
                        }
                    }
                }
                (me.index(), true_load, mech)
            })
        })
        .collect();

    let results: Vec<(usize, f64, NaiveMechanism)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut truth = vec![0.0; N];
    for (rank, load, _) in &results {
        truth[*rank] = *load;
    }
    for (rank, _, mech) in &results {
        for q in 0..N {
            let err = (mech.view().get(ActorId(q)).work - truth[q]).abs();
            assert!(err <= thr.work + 1e-9, "P{rank} view of P{q} err {err}");
        }
    }
}
