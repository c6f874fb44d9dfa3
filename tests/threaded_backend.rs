//! End-to-end tests of the §4.5 real-thread execution backend
//! (`ExecBackend::Threaded`), plus mechanism-level teardown behaviour of the
//! thread transport under snapshot traffic.

use loadex::core::{Gate, Load, MechKind, Mechanism, Outbox, SnapshotMechanism, StateMsg};
use loadex::net::{Channel, Endpoint, RecvError, ThreadNetwork};
use loadex::obs::{EventRecord, MsgKind, ProtocolEvent, Recorder};
use loadex::sim::{ActorId, SimTime};
use loadex::solver::{self, CommMode, ExecBackend, RunError, SolverConfig, ThreadedBackend};
use loadex::sparse::{models, AssemblyTree};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

mod common;
use common::twotone;

/// Every test here spawns real threads and some compare wall-clock
/// measurements, so they run one at a time: a sibling test competing for
/// the cores would inflate whichever variant it overlaps.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a failed sibling test leaves nothing
    // half-updated: recover from poisoning and keep the rest running.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg(nprocs: usize, mech: MechKind) -> SolverConfig {
    SolverConfig::new(nprocs).with_mechanism(mech)
}

/// A time-compressed backend so a test run takes milliseconds of wall time,
/// with a generous safety valve well under the harness timeout.
fn fast() -> ThreadedBackend {
    ThreadedBackend::new()
        .with_time_scale(0.002)
        .with_wall_timeout(Duration::from_secs(60))
}

fn run_threaded(
    tree: &AssemblyTree,
    c: &SolverConfig,
    t: ThreadedBackend,
    comm: CommMode,
) -> solver::RunReport {
    let c = c
        .clone()
        .with_backend(ExecBackend::Threaded(t))
        .with_comm(comm);
    solver::run(tree, &c).unwrap_or_else(|e| {
        panic!(
            "threaded {} run with comm {comm:?} failed: {e} ({e:?})",
            c.mechanism
        )
    })
}

#[test]
fn completes_under_all_mechanisms_with_and_without_comm_thread() {
    let _serial = serial();
    let tree = twotone();
    // Periodic and gossip disseminate only from their timer, which lives on
    // the comm thread or, without one, in the worker's main loop: state
    // traffic shows that timer path fired. Their 100 ms default period sits
    // well inside this tree's makespan of about 28 s.
    for mech in [
        MechKind::Naive,
        MechKind::Increments,
        MechKind::Snapshot,
        MechKind::Periodic,
        MechKind::Gossip,
    ] {
        for comm in [CommMode::CommThread, CommMode::MainLoop] {
            let r = run_threaded(&tree, &cfg(4, mech), fast(), comm);
            assert_eq!(r.backend, "threaded");
            assert!(r.factor_time > SimTime::ZERO, "{mech} {comm:?}");
            assert_eq!(r.procs.len(), 4);
            assert!(r.decisions > 0, "{mech} {comm:?}: no dynamic decisions");
            assert!(r.mem_peak_entries() > 0.0, "{mech} {comm:?}");
            assert!(r.app_msgs > 0, "{mech} {comm:?}: no application traffic");
            assert!(r.state_msgs > 0, "{mech} {comm:?}: no state traffic");
        }
    }
}

#[test]
fn report_schema_matches_sim_backend() {
    let _serial = serial();
    let tree = twotone();
    let c = cfg(4, MechKind::Increments);
    let sim = solver::run(&tree, &c).unwrap();
    let thr = run_threaded(&tree, &c, fast(), CommMode::CommThread);
    // The static plan is shared, so the decision count is backend-invariant.
    assert_eq!(thr.decisions, sim.decisions);
    assert_eq!(thr.procs.len(), sim.procs.len());
    // Both backends fill the same counter/metric keys.
    for key in [
        "net_state_msgs",
        "net_state_bytes",
        "net_regular_msgs",
        "net_regular_bytes",
    ] {
        assert!(
            thr.metrics.counter(key) > 0,
            "threaded missing counter {key}"
        );
        assert!(sim.metrics.counter(key) > 0, "sim missing counter {key}");
    }
    assert_eq!(thr.metrics.counter("decisions"), thr.decisions);
    assert_eq!(thr.metrics.counter("state_msgs_sent"), thr.state_msgs);
    assert_eq!(thr.metrics.counter("state_bytes_sent"), thr.state_bytes);
}

#[test]
fn single_process_threaded_run() {
    let _serial = serial();
    let tree = twotone();
    let r = run_threaded(
        &tree,
        &cfg(1, MechKind::Increments),
        fast(),
        CommMode::CommThread,
    );
    assert!(r.factor_time > SimTime::ZERO);
    assert_eq!(r.decisions, 0, "no dynamic decisions with one process");
    assert_eq!(r.state_msgs, 0);
}

#[test]
fn wall_timeout_surfaces_as_typed_error() {
    let _serial = serial();
    let tree = twotone();
    // Blow up the wall clock so no run can finish inside the valve.
    let t = ThreadedBackend::new()
        .with_time_scale(1e6)
        .with_wall_timeout(Duration::from_millis(100));
    let c = cfg(2, MechKind::Increments)
        .with_backend(ExecBackend::Threaded(t))
        .with_comm(CommMode::CommThread);
    match solver::run(&tree, &c) {
        Err(RunError::WallTimeout { limit }) => {
            assert_eq!(limit, Duration::from_millis(100));
        }
        other => panic!("expected WallTimeout, got {other:?}"),
    }
}

/// §4.5's point, on real threads: a snapshot's initiator blocks for less
/// time with a dedicated communication thread because its peers answer the
/// request in the middle of a compute chunk instead of after it. Judged by
/// the recorded events, not by wall-clock blocked times (host load only
/// inflates those): without a comm thread no `snp` answer is ever sent
/// inside a chunk; with one, answers are.
#[test]
fn comm_thread_shrinks_snapshot_blocked_time() {
    let _serial = serial();
    let tree = twotone();
    let c = cfg(4, MechKind::Snapshot);
    // At the compressed time scale a 1.5 s compute slice still takes 3 ms
    // of wall time, sixty times the 50 µs poll period, so a request that
    // reaches a computing peer is answered mid-chunk by its comm thread.
    let answers_in_chunks = |comm: CommMode| -> usize {
        let c = c
            .clone()
            .with_backend(ExecBackend::Threaded(fast()))
            .with_comm(comm);
        let rec = Recorder::enabled();
        solver::run_observed(&tree, &c, rec.clone()).unwrap();
        during_compute(&rec.take(), |e| {
            matches!(
                e,
                ProtocolEvent::StateSend {
                    kind: MsgKind::Snp,
                    ..
                }
            )
        })
    };
    assert_eq!(
        answers_in_chunks(CommMode::MainLoop),
        0,
        "snp answered mid-chunk without a comm thread"
    );
    // Whether a request lands inside a chunk is timing; over a run's dozens
    // of snapshots some do, and a second and third run back up a
    // starved first.
    let with_comm = (0..3).map(|_| answers_in_chunks(CommMode::CommThread));
    assert!(
        with_comm.clone().any(|n| n > 0),
        "the comm thread never answered a snapshot mid-chunk: {:?}",
        with_comm.collect::<Vec<_>>()
    );
}

/// How many events matching `hit` fall, on their own process, between its
/// `task_start` and its next `task_end` (each actor's events taken in
/// emission order): things done while a compute chunk runs.
fn during_compute(events: &[EventRecord], hit: impl Fn(&ProtocolEvent) -> bool) -> usize {
    let mut computing = Vec::new();
    let mut hits = 0;
    for e in events {
        let p = e.actor().index();
        if computing.len() <= p {
            computing.resize(p + 1, false);
        }
        match e.event() {
            ProtocolEvent::TaskStart { .. } => computing[p] = true,
            ProtocolEvent::TaskEnd { .. } => computing[p] = false,
            ref ev if computing[p] && hit(ev) => hits += 1,
            _ => {}
        }
    }
    hits
}

/// Whether, on some process, a `state_recv` falls inside a compute chunk:
/// a state message treated while the chunk runs.
fn state_recv_during_compute(events: &[EventRecord]) -> bool {
    during_compute(events, |e| matches!(e, ProtocolEvent::StateRecv { .. })) > 0
}

/// `SolverConfig::comm` is the one comm-thread switch, and both backends
/// honour it: in main-loop mode no process treats a state message in the
/// middle of a compute chunk, on the simulator or on real threads; the
/// simulator's modeled comm thread does. (The threaded comm-thread run is
/// left out: whether a message lands inside a chunk there is timing.)
#[test]
fn one_comm_mode_switch_drives_both_backends() {
    let _serial = serial();
    let tree = twotone();
    let events = |c: SolverConfig| -> Vec<EventRecord> {
        let rec = Recorder::enabled();
        solver::run_observed(&tree, &c, rec.clone()).unwrap();
        let events = rec.take();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event(), ProtocolEvent::StateRecv { .. })),
            "{:?} {:?}: no state traffic",
            c.backend,
            c.comm
        );
        events
    };
    let c = cfg(4, MechKind::Snapshot);
    let threaded = c.clone().with_backend(ExecBackend::Threaded(fast()));
    for main_loop in [c.clone(), threaded] {
        let backend = main_loop.backend;
        let events = events(main_loop.with_comm(CommMode::MainLoop));
        assert!(
            !state_recv_during_compute(&events),
            "{backend:?}: state message treated mid-chunk without a comm thread"
        );
    }
    let events = events(c.with_comm(CommMode::CommThread));
    assert!(
        state_recv_during_compute(&events),
        "sim: the modeled comm thread never treated a state message mid-chunk"
    );
}

/// Randomized trees and several seeds: every mechanism must terminate under
/// the threaded backend, with and without the communication thread, within
/// the wall-timeout valve. Each seed jitters TWOTONE's tree shape anew.
#[test]
fn multi_seed_stress_all_mechanisms_terminate() {
    let _serial = serial();
    let twotone = models::by_name("TWOTONE").unwrap();
    for seed in [1u64, 7, 42] {
        let tree = twotone.shape.build(twotone.sym, seed);
        for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
            // Alternate the comm thread by seed so both paths see every seed
            // class without doubling the run count.
            let comm = if seed % 2 == 0 {
                CommMode::CommThread
            } else {
                CommMode::MainLoop
            };
            let r = run_threaded(&tree, &cfg(3, mech), fast(), comm);
            assert!(r.factor_time > SimTime::ZERO, "seed {seed}, {mech}");
            assert_eq!(r.procs.len(), 3);
        }
    }
}

fn flush(ep: &Endpoint<StateMsg>, out: &mut Outbox) {
    for m in out.drain() {
        let size = m.msg.wire_size();
        match m.dest {
            loadex::core::Dest::To(dests) => {
                for to in dests.iter() {
                    ep.send(to, Channel::State, size, m.msg.clone());
                }
            }
            loadex::core::Dest::AllOthers => {
                ep.broadcast(Channel::State, size, &m.msg);
            }
        }
    }
}

/// A peer shutting down in the middle of a snapshot must neither lose the
/// in-flight query (shutdown drains it) nor hang the initiator forever: once
/// every peer is gone, the initiator observes `Disconnected` and its
/// mechanism is still visibly blocked — the failure is observable, not
/// silently swallowed.
#[test]
fn snapshot_in_flight_survives_peer_shutdown() {
    let _serial = serial();
    let mut eps = ThreadNetwork::new::<StateMsg>(3);
    let e2 = eps.pop().unwrap();
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();

    let mut m0 = SnapshotMechanism::new(ActorId(0), 3);
    m0.initialize(Load::work(10.0));
    m0.initialize_peer(ActorId(1), Load::work(20.0));
    m0.initialize_peer(ActorId(2), Load::work(30.0));
    let mut m2 = SnapshotMechanism::new(ActorId(2), 3);
    m2.initialize(Load::work(30.0));
    m2.initialize_peer(ActorId(0), Load::work(10.0));
    m2.initialize_peer(ActorId(1), Load::work(20.0));

    // P0 opens a decision: demand-driven snapshot, query goes to P1 and P2.
    let mut out = Outbox::new();
    let gate = m0.request_decision(&mut out);
    assert!(
        matches!(gate, Gate::Wait),
        "snapshot must gate the decision"
    );
    assert!(m0.blocked());
    flush(&e0, &mut out);

    // P1 dies mid-snapshot. Shutdown drains the in-flight query intact.
    let pending = e1.shutdown();
    assert!(
        pending
            .iter()
            .any(|env| matches!(env.msg, StateMsg::StartSnp { .. })),
        "in-flight snapshot query lost on shutdown: {pending:?}"
    );

    // P2 answers normally.
    let mut out2 = Outbox::new();
    let env = e2.recv_timeout(Duration::from_secs(2)).unwrap();
    assert!(matches!(env.msg, StateMsg::StartSnp { .. }));
    m2.on_state_msg(env.from, env.msg, &mut out2);
    flush(&e2, &mut out2);

    // P0 takes P2's answer but still waits on the dead P1.
    let env = e0.recv_timeout(Duration::from_secs(2)).unwrap();
    assert!(matches!(env.msg, StateMsg::Snp { .. }));
    m0.on_state_msg(env.from, env.msg, &mut out);
    assert!(
        m0.blocked(),
        "one answer of two must not complete the snapshot"
    );

    // Once the last peer is gone the initiator sees Disconnected instead of
    // hanging, with the unfinished snapshot still observable.
    drop(e2);
    assert_eq!(
        e0.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        RecvError::Disconnected
    );
    assert!(m0.blocked());
}
