//! Property-based tests: the mechanism state machines under *arbitrary*
//! message interleavings (FIFO per ordered pair, any order across pairs —
//! exactly the asynchrony MPI allows).

use loadex::core::{
    AnyMechanism, ChangeOrigin, Dest, Gate, IncrementMechanism, Load, MechKind, Mechanism,
    NaiveMechanism, Notify, OutMsg, Outbox, SnapshotMechanism, StateMsg, Threshold,
};
use loadex::sim::ActorId;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A random postman: per-ordered-pair FIFO queues, delivery order across
/// pairs driven by a proptest-provided stream of choices.
struct Postman {
    n: usize,
    queues: Vec<VecDeque<StateMsg>>, // index = from * n + to
}

impl Postman {
    fn new(n: usize) -> Self {
        Postman {
            n,
            queues: (0..n * n).map(|_| VecDeque::new()).collect(),
        }
    }

    fn stage(&mut self, from: ActorId, out: &mut Outbox) {
        for OutMsg { dest, msg } in out.drain() {
            match dest {
                Dest::One(to) => self.queues[from.index() * self.n + to.index()].push_back(msg),
                Dest::Many(dests) => {
                    for to in dests {
                        self.queues[from.index() * self.n + to.index()].push_back(msg.clone());
                    }
                }
                Dest::AllOthers => {
                    for q in 0..self.n {
                        if q != from.index() {
                            self.queues[from.index() * self.n + q].push_back(msg.clone());
                        }
                    }
                }
            }
        }
    }

    fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Deliver from the `pick`-th nonempty pair (mod count). Returns
    /// (from, to, msg) or None if empty.
    fn deliver(&mut self, pick: usize) -> Option<(ActorId, ActorId, StateMsg)> {
        let nonempty: Vec<usize> = (0..self.queues.len())
            .filter(|&i| !self.queues[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            return None;
        }
        let idx = nonempty[pick % nonempty.len()];
        let msg = self.queues[idx].pop_front().unwrap();
        Some((ActorId(idx / self.n), ActorId(idx % self.n), msg))
    }
}

fn mk(kind: MechKind, me: ActorId, n: usize, thr: Threshold) -> AnyMechanism {
    match kind {
        MechKind::Naive => AnyMechanism::Naive(NaiveMechanism::new(me, n, thr)),
        MechKind::Increments => AnyMechanism::Increments(IncrementMechanism::new(me, n, thr)),
        MechKind::Snapshot => AnyMechanism::Snapshot(SnapshotMechanism::new(me, n)),
        other => unreachable!("not used in these tests: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Maintained-view mechanisms: after arbitrary local load walks and an
    /// arbitrary delivery order, once everything is drained every view entry
    /// is within the broadcast threshold of the truth.
    #[test]
    fn maintained_views_bounded_error_at_quiescence(
        n in 2usize..6,
        kind_pick in 0usize..2,
        deltas in prop::collection::vec((0usize..6, -20.0f64..30.0), 1..120),
        picks in prop::collection::vec(0usize..64, 1..200),
    ) {
        let kind = if kind_pick == 0 { MechKind::Naive } else { MechKind::Increments };
        let thr = Threshold::new(10.0, 10.0);
        let mut mechs: Vec<AnyMechanism> =
            (0..n).map(|i| mk(kind, ActorId(i), n, thr)).collect();
        let mut post = Postman::new(n);
        let mut truth = vec![0.0f64; n];
        let mut out = Outbox::new();
        let mut pick_iter = picks.iter().cycle();

        for (who, delta) in &deltas {
            let p = who % n;
            truth[p] += delta;
            mechs[p].on_local_change(Load::work(*delta), ChangeOrigin::Local, &mut out);
            post.stage(ActorId(p), &mut out);
            // Interleave a few random deliveries.
            for _ in 0..2 {
                if let Some((from, to, msg)) = post.deliver(*pick_iter.next().unwrap()) {
                    mechs[to.index()].on_state_msg(from, msg, &mut out);
                    post.stage(to, &mut out);
                }
            }
        }
        // Drain completely (deliver in arbitrary residual order).
        let mut guard = 0;
        while post.pending() > 0 {
            guard += 1;
            prop_assert!(guard < 100_000, "message storm");
            let (from, to, msg) = post.deliver(*pick_iter.next().unwrap()).unwrap();
            mechs[to.index()].on_state_msg(from, msg, &mut out);
            post.stage(to, &mut out);
        }
        for (p, m) in mechs.iter().enumerate() {
            for q in 0..n {
                let err = (m.view().get(ActorId(q)).work - truth[q]).abs();
                prop_assert!(
                    err <= thr.work + 1e-9,
                    "{kind:?}: P{p} view of P{q} err {err}"
                );
            }
        }
    }

    /// Snapshot protocol: any subset of processes initiating simultaneously,
    /// any delivery interleaving → terminates, every initiator decides
    /// exactly once, decisions complete in rank order, nobody stays blocked.
    #[test]
    fn snapshots_serialize_under_any_interleaving(
        n in 2usize..7,
        initiator_mask in 1u32..64,
        picks in prop::collection::vec(0usize..97, 1..400),
        slave_pick in 0usize..16,
    ) {
        let mut mechs: Vec<SnapshotMechanism> =
            (0..n).map(|i| SnapshotMechanism::new(ActorId(i), n)).collect();
        let mut post = Postman::new(n);
        let mut out = Outbox::new();

        let initiators: Vec<usize> =
            (0..n).filter(|i| initiator_mask & (1 << i) != 0).collect();
        prop_assume!(!initiators.is_empty());
        // All initiate before any delivery.
        for &i in &initiators {
            let gate = mechs[i].request_decision(&mut out);
            post.stage(ActorId(i), &mut out);
            if n == 1 {
                prop_assert_eq!(gate, Gate::Ready);
            } else {
                prop_assert_eq!(gate, Gate::Wait);
            }
        }

        let mut completed: Vec<usize> = Vec::new();
        let mut pick_iter = picks.iter().cycle();
        let mut guard = 0;
        while post.pending() > 0 {
            guard += 1;
            prop_assert!(guard < 200_000, "protocol storm");
            let (from, to, msg) = post.deliver(*pick_iter.next().unwrap()).unwrap();
            let notifies = mechs[to.index()].on_state_msg(from, msg, &mut out);
            post.stage(to, &mut out);
            for nf in notifies {
                if nf == Notify::DecisionReady {
                    completed.push(to.index());
                    // Assign some work to a non-self slave.
                    let slave = (0..n).map(ActorId).find(|s| {
                        s.index() != to.index() && (slave_pick + s.index()) % 2 == 0
                    });
                    let sel: Vec<(ActorId, Load)> = slave
                        .into_iter()
                        .map(|s| (s, Load::work(10.0)))
                        .collect();
                    mechs[to.index()].complete_decision(&sel, &mut out);
                    post.stage(to, &mut out);
                }
            }
        }
        // Every initiator decided exactly once, in rank order.
        let mut expected = initiators.clone();
        expected.sort_unstable();
        prop_assert_eq!(&completed, &expected, "completion order must follow ranks");
        // Nobody left blocked.
        for (i, m) in mechs.iter().enumerate() {
            prop_assert!(!m.blocked(), "P{i} still blocked at quiescence");
        }
    }

    /// Snapshot exactness for a single initiator: whatever the interleaving
    /// of prior traffic, a lone snapshot returns the exact loads.
    #[test]
    fn single_snapshot_is_exact(
        n in 2usize..7,
        loads in prop::collection::vec(0.0f64..1000.0, 6),
        picks in prop::collection::vec(0usize..31, 1..50),
    ) {
        let mut mechs: Vec<SnapshotMechanism> =
            (0..n).map(|i| SnapshotMechanism::new(ActorId(i), n)).collect();
        for (i, m) in mechs.iter_mut().enumerate() {
            m.initialize(Load::work(loads[i % loads.len()]));
        }
        let mut post = Postman::new(n);
        let mut out = Outbox::new();
        prop_assert_eq!(mechs[0].request_decision(&mut out), Gate::Wait);
        post.stage(ActorId(0), &mut out);
        let mut pick_iter = picks.iter().cycle();
        let mut ready = false;
        let mut guard = 0;
        while post.pending() > 0 {
            guard += 1;
            prop_assert!(guard < 10_000);
            let (from, to, msg) = post.deliver(*pick_iter.next().unwrap()).unwrap();
            let notifies = mechs[to.index()].on_state_msg(from, msg, &mut out);
            post.stage(to, &mut out);
            if notifies.contains(&Notify::DecisionReady) {
                ready = true;
                for q in 1..n {
                    let seen = mechs[0].view().get(ActorId(q)).work;
                    let real = loads[q % loads.len()];
                    prop_assert!((seen - real).abs() < 1e-9, "P0 sees P{q}={seen}, real {real}");
                }
                mechs[0].complete_decision(&[], &mut out);
                post.stage(ActorId(0), &mut out);
            }
        }
        prop_assert!(ready, "snapshot never completed");
    }
}
