//! The uniform [`AnyMechanism`] wrapper: every kind must behave identically
//! through the enum and through its concrete type, and the shared trait
//! contract must hold for all five mechanisms.

use loadex_core::{
    AnyMechanism, ChangeOrigin, Gate, GossipMechanism, IncrementMechanism, Load, MechKind,
    Mechanism, NaiveMechanism, Outbox, SnapshotMechanism, Threshold,
};
use loadex_sim::{ActorId, SimDuration};

fn make(kind: MechKind, me: ActorId, n: usize) -> AnyMechanism {
    let thr = Threshold::new(10.0, 10.0);
    match kind {
        MechKind::Naive => AnyMechanism::Naive(NaiveMechanism::new(me, n, thr)),
        MechKind::Increments => AnyMechanism::Increments(IncrementMechanism::new(me, n, thr)),
        MechKind::Snapshot => AnyMechanism::Snapshot(SnapshotMechanism::new(me, n)),
        MechKind::Periodic => AnyMechanism::Naive(NaiveMechanism::heartbeat(
            me,
            n,
            SimDuration::from_millis(1),
        )),
        MechKind::Gossip => {
            AnyMechanism::Gossip(GossipMechanism::new(me, n, SimDuration::from_millis(1), 2))
        }
    }
}

#[test]
fn kind_round_trips() {
    for kind in MechKind::EXTENDED {
        let m = make(kind, ActorId(0), 4);
        assert_eq!(m.kind(), kind);
        assert_eq!(m.view().me(), ActorId(0));
        assert_eq!(m.view().nprocs(), 4);
    }
}

#[test]
fn own_view_entry_tracks_local_changes_everywhere() {
    for kind in MechKind::EXTENDED {
        let mut m = make(kind, ActorId(1), 4);
        let mut out = Outbox::new();
        m.on_local_change(Load::new(30.0, 7.0), ChangeOrigin::Local, &mut out);
        m.on_local_change(Load::new(-10.0, 1.0), ChangeOrigin::Local, &mut out);
        assert_eq!(
            m.view().my_load(),
            Load::new(20.0, 8.0),
            "{kind}: own entry must be exact"
        );
    }
}

#[test]
fn timer_contract_matches_kind() {
    for kind in MechKind::EXTENDED {
        let m = make(kind, ActorId(0), 3);
        let timed = matches!(kind, MechKind::Periodic | MechKind::Gossip);
        assert_eq!(m.timer_period().is_some(), timed, "{kind}");
    }
}

#[test]
fn only_the_snapshot_gates_decisions() {
    for kind in MechKind::EXTENDED {
        let mut m = make(kind, ActorId(0), 3);
        let mut out = Outbox::new();
        let gate = m.request_decision(&mut out);
        if kind == MechKind::Snapshot {
            assert_eq!(gate, Gate::Wait, "{kind}");
            assert!(m.blocked(), "{kind}");
        } else {
            assert_eq!(gate, Gate::Ready, "{kind}");
            assert!(!m.blocked(), "{kind}");
        }
    }
}

#[test]
fn decision_counting_is_uniform() {
    for kind in MechKind::EXTENDED {
        if kind == MechKind::Snapshot {
            continue; // needs the full gather cycle, covered elsewhere
        }
        let mut m = make(kind, ActorId(0), 3);
        let mut out = Outbox::new();
        m.request_decision(&mut out);
        m.complete_decision(&[(ActorId(1), Load::work(5.0))], &mut out);
        m.request_decision(&mut out);
        m.complete_decision(&[], &mut out);
        assert_eq!(m.stats().decisions, 2, "{kind}");
    }
}

#[test]
fn timers_are_noops_for_event_driven_mechanisms() {
    for kind in [MechKind::Naive, MechKind::Increments, MechKind::Snapshot] {
        let mut m = make(kind, ActorId(0), 3);
        let mut out = Outbox::new();
        m.on_timer(&mut out);
        assert!(out.is_empty(), "{kind}: on_timer must be a no-op");
    }
}
