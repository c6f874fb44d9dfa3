//! Concurrent distributed snapshots over **real threads**.
//!
//! ```text
//! cargo run --example snapshot_concurrent
//! ```
//!
//! Four OS threads, one [`SnapshotMechanism`] each, connected by the
//! crossbeam-based [`ThreadNetwork`]. Two of them (P1 and P2) need a dynamic
//! decision at the same moment and both initiate a snapshot. The §3
//! protocol — rank-based leader election plus delayed answers — must
//! serialize them: P1 (smaller rank) completes first, and P2's snapshot
//! observes P1's decision.

use loadex::core::{Dest, Load, Mechanism, Notify, OutMsg, Outbox, SnapshotMechanism};
use loadex::net::{Channel, Endpoint, ThreadNetwork};
use loadex::sim::ActorId;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

fn flush(ep: &Endpoint<loadex::core::StateMsg>, out: &mut Outbox) {
    for OutMsg { dest, msg } in out.drain() {
        let size = msg.wire_size();
        match dest {
            Dest::To(dests) => {
                for to in dests.iter() {
                    ep.send(to, Channel::State, size, msg.clone());
                }
            }
            Dest::AllOthers => {
                ep.broadcast(Channel::State, size, &msg);
            }
        }
    }
}

fn main() {
    const N: usize = 4;
    let endpoints = ThreadNetwork::new::<loadex::core::StateMsg>(N);
    let decisions: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let decisions = Arc::clone(&decisions);
            thread::spawn(move || {
                let me = ep.rank();
                let mut mech = SnapshotMechanism::new(me, N);
                let mut out = Outbox::new();
                // Everyone starts with a known load: rank * 10 work units.
                mech.initialize(Load::work(me.index() as f64 * 10.0));

                // P1 and P2 are the masters needing a decision.
                let is_master = me.index() == 1 || me.index() == 2;
                let mut want_decision = is_master;
                if is_master {
                    mech.request_decision(&mut out);
                    flush(&ep, &mut out);
                    println!("P{}: initiated a snapshot", me.index());
                }

                let deadline = Instant::now() + Duration::from_secs(10);
                let mut done_since: Option<Instant> = None;
                loop {
                    if let Ok(env) = ep.recv_timeout(Duration::from_millis(5)) {
                        let notifies = mech.on_state_msg(env.from, env.msg, &mut out);
                        flush(&ep, &mut out);
                        if notifies == Some(Notify::DecisionReady) && want_decision {
                            want_decision = false;
                            // The decision: give P3 some work, an amount
                            // that depends on how loaded P3 already looks.
                            let seen = mech.view().get(ActorId(3)).work;
                            decisions.lock().unwrap().push((me.index(), seen));
                            println!(
                                "P{}: snapshot complete; view of P3 = {} work units; assigning 100 more",
                                me.index(),
                                seen
                            );
                            let sel = [(ActorId(3), Load::work(100.0))];
                            mech.complete_decision(&sel, &mut out);
                            flush(&ep, &mut out);
                        }
                    }
                    // Termination: quiesce once nothing is in flight.
                    if !mech.blocked() && !want_decision {
                        match done_since {
                            None => done_since = Some(Instant::now()),
                            Some(t) if t.elapsed() > Duration::from_millis(200) => break,
                            _ => {}
                        }
                    } else {
                        done_since = None;
                    }
                    assert!(Instant::now() < deadline, "P{}: protocol hung", me.index());
                }
                (me.index(), mech.view().get(ActorId(3)).work, mech.view().my_load().work)
            })
        })
        .collect();

    let mut finals = Vec::new();
    for h in handles {
        finals.push(h.join().expect("thread panicked"));
    }
    let order = decisions.lock().unwrap().clone();
    println!(
        "\ndecision order: {:?}",
        order.iter().map(|d| d.0).collect::<Vec<_>>()
    );
    assert_eq!(order.len(), 2);
    assert_eq!(
        order[0].0, 1,
        "smaller rank completes first (leader election)"
    );
    assert_eq!(order[1].0, 2);
    assert_eq!(order[0].1, 30.0, "P1 saw P3's initial load");
    assert_eq!(
        order[1].1, 130.0,
        "P2's serialized snapshot must include P1's decision"
    );
    let p3 = finals.iter().find(|f| f.0 == 3).unwrap();
    assert_eq!(p3.2, 230.0, "P3 ends with initial 30 + 100 + 100");
    println!("serialization verified: P2 saw P3 at 130 (30 initial + P1's 100).");
}
