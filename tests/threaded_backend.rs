//! End-to-end tests of the §4.5 real-thread execution backend
//! (`ExecBackend::Threaded`), plus mechanism-level teardown behaviour of the
//! thread transport under snapshot traffic.

use loadex::core::{Gate, Load, MechKind, Mechanism, Outbox, SnapshotMechanism, StateMsg};
use loadex::net::{Channel, Endpoint, RecvError, ThreadNetwork};
use loadex::sim::{ActorId, SimDuration, SimRng, SimTime};
use loadex::solver::{self, ExecBackend, RunError, SolverConfig, ThreadedBackend};
use loadex::sparse::{gen, symbolic, AssemblyTree, Symmetry};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Every test here spawns real threads and some compare wall-clock
/// measurements, so they run one at a time: a sibling test competing for
/// the cores would inflate whichever variant it overlaps.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a failed sibling test leaves nothing
    // half-updated: recover from poisoning and keep the rest running.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_tree() -> AssemblyTree {
    let p = gen::grid2d(20, 20);
    symbolic::analyze_with_ordering(
        &p,
        symbolic::Ordering::NestedDissection,
        symbolic::SymbolicOptions {
            amalg_pivots: 8,
            sym: Symmetry::Symmetric,
        },
    )
    .tree
}

/// Lowered parallelism thresholds so the small test trees still produce
/// Type 2 fronts (and therefore dynamic decisions / state traffic).
fn cfg(nprocs: usize, mech: MechKind) -> SolverConfig {
    let mut c = SolverConfig::new(nprocs).with_mechanism(mech);
    c.type2_min_front = 20;
    c.type3_min_front = 60;
    c.kmin_rows = 4;
    c
}

/// A time-compressed backend so a test run takes milliseconds of wall time,
/// with a generous safety valve well under the harness timeout.
fn fast() -> ThreadedBackend {
    ThreadedBackend::new()
        .with_time_scale(0.02)
        .with_wall_timeout(Duration::from_secs(60))
}

fn run_threaded(tree: &AssemblyTree, c: &SolverConfig, t: ThreadedBackend) -> solver::RunReport {
    solver::run(tree, &c.clone().with_backend(ExecBackend::Threaded(t))).unwrap()
}

#[test]
fn completes_under_all_mechanisms_with_and_without_comm_thread() {
    let _serial = serial();
    let tree = small_tree();
    // Periodic and gossip disseminate only from their timer, which lives on
    // the comm thread or, without one, in the worker's main loop: state
    // traffic shows that timer path fired. Their 5 ms period sits well
    // inside this tree's ~80 ms makespan (the 100 ms default does not).
    for mech in [
        MechKind::Naive,
        MechKind::Increments,
        MechKind::Snapshot,
        MechKind::Periodic,
        MechKind::Gossip,
    ] {
        for comm in [true, false] {
            let t = if comm {
                fast()
            } else {
                fast().without_comm_thread()
            };
            let mut c = cfg(4, mech);
            c.periodic_interval = SimDuration::from_millis(5);
            c.gossip_interval = SimDuration::from_millis(5);
            let r = run_threaded(&tree, &c, t);
            assert_eq!(r.backend, "threaded");
            assert!(r.factor_time > SimTime::ZERO, "{mech} comm={comm}");
            assert_eq!(r.procs.len(), 4);
            assert!(r.decisions > 0, "{mech} comm={comm}: no dynamic decisions");
            assert!(r.mem_peak_entries() > 0.0, "{mech} comm={comm}");
            assert!(r.app_msgs > 0, "{mech} comm={comm}: no application traffic");
            assert!(r.state_msgs > 0, "{mech} comm={comm}: no state traffic");
        }
    }
}

#[test]
fn report_schema_matches_sim_backend() {
    let _serial = serial();
    let tree = small_tree();
    let c = cfg(4, MechKind::Increments);
    let sim = solver::run(&tree, &c).unwrap();
    let thr = run_threaded(&tree, &c, fast());
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
    let tree = small_tree();
    let r = run_threaded(&tree, &cfg(1, MechKind::Increments), fast());
    assert!(r.factor_time > SimTime::ZERO);
    assert_eq!(r.decisions, 0, "no dynamic decisions with one process");
    assert_eq!(r.state_msgs, 0);
}

#[test]
fn wall_timeout_surfaces_as_typed_error() {
    let _serial = serial();
    let tree = small_tree();
    // Blow up the wall clock so no run can finish inside the valve.
    let t = ThreadedBackend::new()
        .with_time_scale(1e6)
        .with_wall_timeout(Duration::from_millis(100));
    let c = cfg(2, MechKind::Increments).with_backend(ExecBackend::Threaded(t));
    match solver::run(&tree, &c) {
        Err(RunError::WallTimeout { limit }) => {
            assert_eq!(limit, Duration::from_millis(100));
        }
        other => panic!("expected WallTimeout, got {other:?}"),
    }
}

/// §4.5's point, measured end to end: with a dedicated communication thread
/// answering snapshot queries every 50 µs, the initiator of a snapshot blocks
/// for far less time than when peers only answer between compute slices.
#[test]
fn comm_thread_shrinks_snapshot_blocked_time() {
    let _serial = serial();
    let tree = small_tree();
    let c = cfg(4, MechKind::Snapshot);
    // Stretch wall time enough that compute slices dominate the mainloop
    // variant's answer latency.
    let scale = 2.0;
    let blocked = |t: ThreadedBackend| -> Duration {
        let r = run_threaded(&tree, &c, t);
        Duration::from_secs_f64(r.procs.iter().map(|p| p.blocked.as_secs_f64()).sum())
    };
    // Scheduling noise only ever inflates blocked time, so the minimum of a
    // few runs approximates the noise-free value of each variant. The
    // variants alternate so that a burst of host load hits both alike.
    let (mut with_comm, mut without) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        with_comm = with_comm.min(blocked(fast().with_time_scale(scale)));
        without = without.min(blocked(fast().with_time_scale(scale).without_comm_thread()));
    }
    assert!(
        with_comm < without,
        "comm thread did not shrink blocked time: {with_comm:?} !< {without:?}"
    );
}

/// Randomized trees and several seeds: every mechanism must terminate under
/// the threaded backend, with and without the communication thread, within
/// the wall-timeout valve.
#[test]
fn multi_seed_stress_all_mechanisms_terminate() {
    let _serial = serial();
    for seed in [1u64, 7, 42] {
        let mut rng = SimRng::seed_from_u64(seed);
        let p = gen::random(150, 6, &mut rng);
        let tree = symbolic::analyze_with_ordering(
            &p,
            symbolic::Ordering::NestedDissection,
            symbolic::SymbolicOptions {
                amalg_pivots: 8,
                sym: Symmetry::Symmetric,
            },
        )
        .tree;
        for mech in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
            // Alternate the comm thread by seed so both paths see every seed
            // class without doubling the run count.
            let t = if seed % 2 == 0 {
                fast()
            } else {
                fast().without_comm_thread()
            };
            let r = run_threaded(&tree, &cfg(3, mech), t);
            assert!(r.factor_time > SimTime::ZERO, "seed {seed}, {mech}");
            assert_eq!(r.procs.len(), 3);
        }
    }
}

fn flush(ep: &Endpoint<StateMsg>, out: &mut Outbox) {
    for m in out.drain() {
        let size = m.msg.wire_size();
        match m.dest {
            loadex::core::Dest::One(to) => {
                ep.send(to, Channel::State, size, m.msg);
            }
            loadex::core::Dest::Many(dests) => {
                for to in dests {
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
