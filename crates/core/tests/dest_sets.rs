//! The destination sets of the naive and increments mechanisms: a shared
//! rank set, edited copy-on-write on `NoMoreMaster`, must name exactly the
//! ranks, in the same order, that a per-peer `interested` flag list would.

use loadex_core::{
    ChangeOrigin, Dest, IncrementMechanism, Load, Mechanism, NaiveMechanism, OutMsg, Outbox,
    StateMsg, Threshold,
};
use loadex_sim::{ActorId, Dests};
use proptest::prelude::*;

const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 130, 1024];

/// The ranks whose flag is set, in rank order: the reference model of a
/// set of interested peers.
fn ranks_in(mask: &[bool]) -> Vec<ActorId> {
    (0..mask.len()).filter(|&p| mask[p]).map(ActorId).collect()
}

/// Stage one broadcast of `mech`'s load and return the ranks it goes to
/// (none when nothing is staged).
fn broadcast_ranks(mech: &mut dyn Mechanism, out: &mut Outbox) -> (Vec<ActorId>, Option<OutMsg>) {
    mech.on_local_change(Load::work(1e9), ChangeOrigin::Local, out);
    let staged: Vec<OutMsg> = out.drain().collect();
    assert!(staged.len() <= 1, "one broadcast per threshold crossing");
    let Some(staged) = staged.into_iter().next() else {
        return (Vec::new(), None);
    };
    let ranks = match &staged.dest {
        Dest::To(Dests::Set(set)) => set.iter().collect(),
        other => panic!("expected a rank set, got {other:?}"),
    };
    (ranks, Some(staged))
}

/// Apply `senders` as `NoMoreMaster`s (ranks folded into `0..n`, the
/// mechanism's own skipped), broadcasting after every `every`th, and check
/// each broadcast against the flag-list model. Earlier broadcasts, still
/// held as if in flight, must keep the ranks they were sent to.
fn check(mech: &mut dyn Mechanism, me: usize, n: usize, senders: &[usize], every: usize) {
    let mut out = Outbox::new();
    let mut mask = vec![true; n];
    mask[me] = false;
    let mut in_flight: Vec<(OutMsg, Vec<ActorId>)> = Vec::new();
    let mut sent = 0;
    for (i, &s) in senders.iter().enumerate() {
        let from = s % n;
        if from != me {
            mech.on_state_msg(ActorId(from), StateMsg::NoMoreMaster, &mut out);
            mask[from] = false;
        }
        if i % every == 0 {
            let expected = ranks_in(&mask);
            let (ranks, staged) = broadcast_ranks(mech, &mut out);
            assert_eq!(ranks, expected, "P={n} me={me} after {} senders", i + 1);
            sent += expected.len() as u64;
            if let Some(staged) = staged {
                in_flight.push((staged, expected));
            }
        }
    }
    assert_eq!(mech.stats().msgs_sent, sent);
    for (staged, expected) in in_flight {
        let Dest::To(Dests::Set(set)) = staged.dest else {
            unreachable!()
        };
        assert_eq!(set.iter().collect::<Vec<_>>(), expected, "copy-on-write");
    }
}

proptest! {
    #[test]
    fn interested_sets_match_the_flag_lists_after_any_no_more_masters(
        senders in prop::collection::vec(any::<usize>(), 0..200),
        me in any::<usize>(),
        every in 1usize..8,
    ) {
        let thr = Threshold::new(1.0, 1.0);
        for n in SIZES {
            let me = me % n;
            let mut naive = NaiveMechanism::new(ActorId(me), n, thr);
            check(&mut naive, me, n, &senders, every);
            let mut incr = IncrementMechanism::new(ActorId(me), n, thr);
            check(&mut incr, me, n, &senders, every);
        }
    }
}

#[test]
fn every_peer_retiring_silences_both_mechanisms() {
    let thr = Threshold::new(1.0, 1.0);
    for n in SIZES {
        let senders: Vec<usize> = (0..n).collect();
        check(
            &mut NaiveMechanism::new(ActorId(0), n, thr),
            0,
            n,
            &senders,
            1,
        );
        check(
            &mut IncrementMechanism::new(ActorId(n - 1), n, thr),
            n - 1,
            n,
            &senders,
            1,
        );
    }
}
